"""The public names of ``parastab``: pinned, sorted and all resolvable.

A name leaves this list only when the function behind it is dead; a change
to the list is a change to the public API and shows in this file.
"""

from __future__ import annotations

import parastab

PUBLIC = [
    "AutResult", "ChamberInvariant", "CurveData", "DimsResult", "DomainError",
    "GenericityResult", "GenericityWitness", "GenusBounds", "HeckeReport", "IndexMaps",
    "InputError", "LIFT_FAITHFUL_MIN_GENUS", "Laurent", "LaurentMatrix", "NumTransform",
    "OrdersResult", "ParabolicType", "PrecisionError", "TruncLaurent", "Wall",
    "WeightSystem", "act_on_rows", "admissible_rows", "admissible_types", "apply_to_degree",
    "apply_to_weights", "automorphism_group", "candidate_transforms", "chamber_fingerprint",
    "chamber_invariant", "compose", "concentrated_orders", "count_admissible",
    "cyclic_matrix", "dim_nonreduced_stratum", "dims", "dual_weights", "genus_bounds",
    "h_matrix", "hecke_conjugation_check", "hecke_weights", "identity_transform",
    "index_maps", "inner_trace_conditions", "inverse", "inverse_exact", "inverse_series",
    "is_concentrated", "is_degree_generic", "is_dual_free", "is_generic", "is_inner",
    "is_parabolic", "is_pure_tensor", "iso_transforms", "level_denominator",
    "make_transform", "max_subdegree", "mp_closed_form", "normalize", "numerator_rows",
    "owt", "parabolic_type", "pdeg", "rank1_factor", "reduce_dual_rank2", "s_min",
    "same_numerical_chamber", "sigma_reshuffle", "stability_check", "subdegree_bounds",
    "t_number", "trivial_curve", "twist", "wall_levels", "wall_values", "walls_crossed",
    "weight_system", "xi_matrix",
]


def test_public_names_are_pinned_and_sorted():
    assert parastab.__all__ == sorted(parastab.__all__)
    assert parastab.__all__ == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in parastab.__all__ if not hasattr(parastab, name)]
    assert missing == []
