"""Exact stability-chamber invariants and transformation groups for
weighted flag data on marked curves.

Everything computes over ``fractions.Fraction``; no floats, no rounding.

Importing the package loads none of its submodules: a public name, or a
submodule such as ``parastab.autgroup``, is imported on first access.
"""

# each public name, by the submodule that defines it
_SOURCES = {
    "autgroup": (
        "AutResult", "CurveData", "OrdersResult", "automorphism_group",
        "candidate_transforms", "concentrated_orders", "iso_transforms", "trivial_curve",
    ),
    "chamber": (
        "admissible_rows", "chamber_fingerprint", "count_admissible", "max_subdegree",
        "same_numerical_chamber", "subdegree_bounds",
    ),
    "errors": ("DomainError", "InputError"),
    "local_matrix": (
        "HeckeReport", "Laurent", "LaurentMatrix", "cyclic_matrix", "h_matrix",
        "hecke_conjugation_check", "inverse_exact", "is_inner", "is_parabolic",
        "is_pure_tensor", "mp_closed_form", "rank1_factor", "sigma_reshuffle", "twist",
        "xi_matrix",
    ),
    "transform_group": (
        "NumTransform", "act_on_rows", "apply_to_degree", "apply_to_weights", "compose",
        "dual_weights", "hecke_weights", "identity_transform", "inverse", "make_transform",
        "reduce_dual_rank2",
    ),
    "weights_core": (
        "DimsResult", "GenericityResult", "GenericityWitness", "GenusBounds",
        "ParabolicType", "WeightSystem", "dim_nonreduced_stratum", "dims", "genus_bounds",
        "is_concentrated", "is_degree_generic", "is_generic", "level_denominator",
        "normalize", "numerator_rows", "owt", "parabolic_type", "pdeg", "s_min",
        "stability_check", "t_number", "weight_system",
    ),
}
_SUBMODULES = (*_SOURCES, "cli")
_SOURCE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SOURCE_OF)


def _submodule(name: str):
    # unlike importlib.import_module, seen by -X importtime; the import binds
    # the submodule in this namespace
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __getattr__(name: str):
    if name in _SOURCE_OF:
        value = getattr(_submodule(_SOURCE_OF[name]), name)
    elif name in _SUBMODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
