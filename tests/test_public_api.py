"""The public names of ``parastab``: pinned, sorted and all resolvable.

A name leaves this list only when the function behind it is dead; a change
to the list is a change to the public API and shows in this file.  Retired
duplicate paths must not come back, in the package or in the submodule or
class that defined them.  The parameters of the chamber and classification
entry points are pinned too: none restates a field of a weight system or a
curve it is also given.  So are the Hecke check's parameter and report
fields, which carry no precision.  Importing the package loads none of its
submodules; each public name and layer is imported on first access.
"""

from __future__ import annotations

import inspect
import json
import subprocess
import sys

import parastab

PUBLIC = [
    "AutResult", "CurveData", "DimsResult", "DomainError", "GenericityResult",
    "GenericityWitness", "GenusBounds", "HeckeReport", "InputError",
    "Laurent", "LaurentMatrix", "NumTransform",
    "OrdersResult", "ParabolicType", "WeightSystem", "act_on_rows",
    "admissible_rows", "apply_to_degree", "apply_to_weights", "automorphism_group",
    "candidate_transforms", "chamber_fingerprint", "compose", "concentrated_orders",
    "count_admissible", "cyclic_matrix", "dim_nonreduced_stratum", "dims",
    "dual_weights", "genus_bounds", "h_matrix", "hecke_conjugation_check",
    "hecke_weights", "identity_transform", "inverse", "inverse_exact",
    "is_concentrated", "is_degree_generic", "is_generic", "is_inner",
    "is_parabolic", "is_pure_tensor", "iso_transforms", "level_denominator",
    "make_transform", "max_subdegree", "mp_closed_form", "normalize", "numerator_rows",
    "owt", "parabolic_type", "pdeg", "rank1_factor", "reduce_dual_rank2", "s_min",
    "same_numerical_chamber", "sigma_reshuffle", "stability_check", "subdegree_bounds",
    "t_number", "trivial_curve", "twist", "weight_system", "xi_matrix",
]


def test_public_names_are_pinned_and_sorted():
    assert parastab.__all__ == sorted(parastab.__all__)
    assert parastab.__all__ == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in parastab.__all__ if not hasattr(parastab, name)]
    assert missing == []


LAYERS = ("cli", "autgroup", "chamber", "transform_group", "weights_core", "local_matrix")

# in a fresh interpreter: the submodules loaded by the import alone, then the
# names that do not resolve through getattr, and those missing from dir()
FRESH_IMPORT = """
import json, sys
import parastab
loaded = sorted(name for name in sys.modules if name.startswith("parastab"))
names = [*parastab.__all__, *%r]
unresolved = [name for name in names if getattr(parastab, name, None) is None]
print(json.dumps([loaded, unresolved, sorted(set(names) - set(dir(parastab)))]))
""" % (LAYERS,)


def test_import_loads_no_submodule_and_every_name_resolves_lazily():
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_IMPORT], capture_output=True, text=True, check=True
    )
    loaded, unresolved, undirred = json.loads(proc.stdout)
    assert loaded == ["parastab"]
    assert unresolved == []
    assert undirred == []


# Older duplicates of the fingerprint, wall-list and Hecke-check paths, the
# precision emulation of the exact Hecke check, and methods and helpers no
# library code called, by the submodule or class that defined them; the slow
# ones and the series precision live on in tests/oracles.py.
RETIRED = {
    "chamber": (
        "ChamberInvariant", "Wall", "admissible_types", "chamber_invariant", "walls_crossed",
    ),
    "errors": ("PrecisionError",),
    "weights_core": ("wall_levels", "wall_values"),
    "local_matrix": (
        "IndexMaps", "TruncLaurent", "_certify", "_isqrt_exact", "index_maps",
        "inner_trace_conditions", "inverse_series", "series_inverse", "sigma_pair", "tau",
        "tau_inv",
    ),
    "transform_group": ("is_dual_free",),
    "Laurent": ("as_fraction", "is_constant", "truncated"),
    "LaurentMatrix": ("power",),
    "ParabolicType": ("all_ones", "all_zero", "reversed_rows"),
    "WeightSystem": ("point_index",),
}


def test_retired_duplicates_stay_gone():
    left = [
        f"{module}.{name}"
        for module, names in RETIRED.items()
        for name in names
        if hasattr(parastab, name) or hasattr(getattr(parastab, module), name)
    ]
    assert left == []


# rank, points and genus are read off the weight systems and the curve; only
# candidate_transforms keeps r, since a curve carries no rank.  The Hecke
# check is exact, so it takes no precision.
SIGNATURES = {
    "chamber.chamber_fingerprint": ["w", "d"],
    "chamber.same_numerical_chamber": ["w1", "w2", "d"],
    "chamber.wall_crossings": ["w1", "w2", "d", "relevant_only"],
    "chamber.max_subdegree": ["w", "d", "t"],
    "weights_core.stability_check": ["w", "d", "sub"],
    "autgroup.automorphism_group": ["w", "d", "curve", "strict"],
    "autgroup.iso_transforms": ["w1", "d1", "w2", "d2", "curve_iso", "strict"],
    "autgroup.candidate_transforms": ["r", "d", "curve"],
    "local_matrix.hecke_conjugation_check": ["a"],
}


def test_entry_point_parameters_are_pinned():
    got = {}
    for path in SIGNATURES:
        module, name = path.split(".")
        got[path] = list(inspect.signature(getattr(getattr(parastab, module), name)).parameters)
    assert got == SIGNATURES


def test_hecke_report_declares_no_precision():
    fields = list(parastab.HeckeReport._fields)
    assert fields == ["n", "parabolic_input", "det_valuation", "k", "integral", "offenders"]
