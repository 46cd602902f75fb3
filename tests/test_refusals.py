"""Refusal messages, pinned verbatim: the library's and the CLI's.

The first table calls each library entry point on input it refuses and
checks the exact ``DomainError`` message.  The second runs ``main()``
in-process on each malformed document or argument and checks the whole
outcome: exit code 2, nothing on stderr and the one input-error line.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest

from conftest import run_main
from parastab import (
    CurveData,
    DomainError,
    LaurentMatrix,
    NumTransform,
    ParabolicType,
    WeightSystem,
    apply_to_weights,
    automorphism_group,
    candidate_transforms,
    concentrated_orders,
    dim_nonreduced_stratum,
    genus_bounds,
    make_transform,
    mp_closed_form,
    sigma_reshuffle,
    stability_check,
    trivial_curve,
    weight_system,
)
from parastab.chamber import crossing_blocks
from parastab.local_matrix import L_ONE, L_ZERO, exact_divide

LIMIT = sys.get_int_max_str_digits()
HALF = Fraction(1, 2)
W2 = weight_system([[0, HALF]])  # rank 2, one point
W2_TWO = weight_system([[0, HALF], [0, HALF]])  # rank 2, two points
W1 = weight_system([[0]])  # rank 1
M2 = LaurentMatrix.build([[1, 0], [0, 1]])
M3 = LaurentMatrix.build([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

LIBRARY = {
    "weights/float": (lambda: weight_system([[0.5]]), "expected a rational, got 0.5"),
    "weights/no-points": (
        lambda: WeightSystem(2, (), ()), "a weight system needs at least one point"
    ),
    "weights/no-rows": (lambda: weight_system([]), "a weight system needs at least one point"),
    "weights/tuple-missing": (
        lambda: WeightSystem(2, ("a", "b"), ((Fraction(0), HALF),)),
        "one weight tuple is required per point",
    ),
    "type/empty-row": (lambda: ParabolicType(((),)), "type rows must be nonempty"),
    "type/unequal-rows": (
        lambda: ParabolicType(((1, 0), (1,))), "all type rows must have equal length"
    ),
    "stratum/genus": (
        lambda: dim_nonreduced_stratum(1, 1, 4, 1), "requires g >= 2, n >= 1, r >= 2"
    ),
    "stratum/index": (
        lambda: dim_nonreduced_stratum(2, 1, 4, 3), "stratum index must satisfy 1 <= d <= r/2"
    ),
    "bounds/rank-1": (lambda: genus_bounds(W1), "rank must be at least 2"),
    "bounds/shapes": (
        lambda: genus_bounds(W2, W2_TWO), "both weight systems must share rank and point count"
    ),
    "stability/subrank": (
        lambda: stability_check(W2, 0, (0, 0, ParabolicType(((0, 0),)))),
        "subrank must satisfy 0 < r' < r",
    ),
    "transform/hecke-count": (
        lambda: NumTransform((0, 1), 1, 0, (0,)), "one Hecke value is required per point"
    ),
    "transform/rank": (lambda: make_transform((0,), 1, 0, (0,), 0), "rank must be positive"),
    "apply/point-count": (
        lambda: apply_to_weights(NumTransform((0, 1), 1, 0, (0, 0)), W2),
        "transform and weight system disagree on point count",
    ),
    "apply/non-canonical": (
        lambda: apply_to_weights(NumTransform((0,), 1, 0, (2,)), W2),
        "transform is not in canonical form for this rank",
    ),
    "curve/no-points": (lambda: CurveData(0, ()), "at least one marked point is required"),
    "curve/repeated-labels": (lambda: CurveData(0, ("a", "a")), "point labels must be distinct"),
    "candidates/rank-1": (
        lambda: candidate_transforms(1, 0, trivial_curve(0, ["a"])), "rank must be at least 2"
    ),
    "aut/curve-mismatch": (
        lambda: automorphism_group(W2, 0, trivial_curve(0, ["a", "b"])), "curve data mismatch"
    ),
    # r^(2g) at r = 2 has about 0.3 * 2g digits, past the int-string limit at g = 2 * LIMIT
    "orders/power": (
        lambda: concentrated_orders(2 * LIMIT, 2, 1, 1),
        f"result has an integer of more than {LIMIT} digits",
    ),
    "crossings/shapes": (
        lambda: crossing_blocks(W2, W2_TWO, 0, True),
        "weight systems must share rank and point count",
    ),
    "divide/zero": (lambda: exact_divide(L_ONE, L_ZERO), "division by zero"),
    "matrix/ragged": (lambda: LaurentMatrix.build([[1, 2], [3]]), "ragged matrix"),
    "matrix/add-shapes": (lambda: M2 + M3, "matrix shape mismatch"),
    "matrix/sub-shapes": (lambda: M2 - LaurentMatrix.build([[1, 0]]), "matrix shape mismatch"),
    "reshuffle/not-a-square-size": (lambda: sigma_reshuffle(M2), "2 is not a perfect square"),
    "reshuffle/not-square": (
        lambda: sigma_reshuffle(LaurentMatrix.build([[0]] * 4)),
        "expected a square n^2 x n^2 matrix",
    ),
    "mp/unequal-sizes": (
        lambda: mp_closed_form(M2, M3), "expected two square matrices of equal size"
    ),
}


@pytest.mark.parametrize("case", LIBRARY)
def test_library_refusal_message(case):
    call, message = LIBRARY[case]
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


POINT = {"label": "x", "weights": ["1/10", "7/10"]}
DOC = {"r": 2, "degree": 0, "points": [POINT]}
CURVE = {**DOC, "genus": 2}
RANK3 = {"r": 3, "degree": 0, "points": [{"label": "x", "weights": ["0", "1/3", "2/3"]}]}
WORD = ["transform", "--json", "--word"]


def sym(perm) -> dict:
    return {**CURVE, "symmetries": [{"perm": perm, "multiplicity": 1}]}


def entry(value) -> list:
    return [[value]]


# (argv, stdin, message); argv without a path reads its document under --json
CLI = {
    "document/not-an-object": (["normalize", "--json"], [1], "document must be a JSON object"),
    "document/missing-r": (
        ["normalize", "--json"], {"degree": 0, "points": [POINT]}, "document: missing field 'r'"
    ),
    "document/r-string": (
        ["normalize", "--json"], {**DOC, "r": "2"}, "r: expected an integer, got '2'"
    ),
    "document/r-zero": (["normalize", "--json"], {**DOC, "r": 0}, "r must be at least 1"),
    "points/empty": (
        ["normalize", "--json"], {**DOC, "points": []}, "points must be a nonempty list"
    ),
    "points/not-objects": (
        ["normalize", "--json"], {**DOC, "points": [1]}, "each point must be an object"
    ),
    "points/label": (
        ["normalize", "--json"],
        {**DOC, "points": [{"label": 1, "weights": []}]},
        "point labels must be strings",
    ),
    "points/weights": (
        ["normalize", "--json"],
        {**DOC, "points": [{"label": "x", "weights": "0"}]},
        "point x: weights must be a list",
    ),
    "rational/bool": (
        ["normalize", "--json"],
        {**DOC, "points": [{"label": "x", "weights": [True]}]},
        "expected a rational, got True",
    ),
    "rational/shape": (
        ["normalize", "--json"],
        {**DOC, "points": [{"label": "x", "weights": ["abc"]}]},
        "rationals must look like 'p/q' or 'n', got 'abc'",
    ),
    "rational/zero-denominator": (
        ["normalize", "--json"],
        {**DOC, "points": [{"label": "x", "weights": ["1/0"]}]},
        "rational has a zero denominator: '1/0'",
    ),
    "rational/float": (
        ["normalize", "--json"],
        {**DOC, "points": [{"label": "x", "weights": [0.5]}]},
        "expected a rational string, got 0.5",
    ),
    "rational/too-long": (
        ["normalize", "--json"],
        {**DOC, "points": [{"label": "x", "weights": ["1/" + "7" * (LIMIT + 1)]}]},
        f"numerator or denominator has more than {LIMIT} digits",
    ),
    "symmetries/not-a-list": (
        ["aut", "--json"], {**CURVE, "symmetries": {}}, "symmetries must be a list"
    ),
    "symmetries/not-objects": (
        ["aut", "--json"], {**CURVE, "symmetries": [1]}, "each symmetry must be an object"
    ),
    "perm/unknown-point": (["aut", "--json"], sym(["q"]), "perm names unknown point 'q'"),
    "perm/length": (["aut", "--json"], sym([0, 0]), "perm must list one image per point"),
    "curve/no-genus": (
        ["aut", "--json"], DOC, "document needs a genus for this subcommand"
    ),
    "pattern/row-count": (
        ["owt", "--json", "--pattern", "[]"], DOC, "pattern must list one row per point (1)"
    ),
    "pattern/rows": (
        ["owt", "--json", "--pattern", "[1]"], DOC, "pattern rows must be lists"
    ),
    "pattern/repeated-picks": (
        ["owt", "--json", "--pattern", "[[1, 1]]"],
        RANK3,
        "invalid pattern: repeated picks in [1, 1]",
    ),
    "word/not-an-object": (
        [*WORD, "[]"], DOC, "transform must be an object {perm, sign, tdeg, hecke}"
    ),
    "word/hecke": (
        [*WORD, '{"perm": [0], "sign": 1, "hecke": 0}'], DOC, "hecke must be a list"
    ),
    "word/perm": (
        ["inverse", "--rank", "2", '{"perm": 0, "sign": 1}'], None, "perm must be a list"
    ),
    "load/no-path": (["normalize"], None, "provide a document path or --json"),
    "load/no-paths": (["walls"], None, "provide two document paths or --json"),
    "load/pair-keys": (
        ["walls", "--json"], {"first": DOC}, '--json input must be {"first": ..., "second": ...}'
    ),
    "load/matrix-keys": (
        ["matrix-mp", "--json"], {"a": [[1]]}, '--json input must be {"a": ..., "b": ...}'
    ),
    "iso/perms": (
        ["iso", "--json", "--perms", "{}"],
        {"first": CURVE, "second": CURVE},
        "--perms must be a JSON list of perms",
    ),
    "iso/point-count": (
        ["iso", "--json"],
        {"first": CURVE, "second": {**CURVE, "points": [POINT, {**POINT, "label": "y"}]}},
        "documents disagree on point count",
    ),
    "matrix/empty": (
        ["matrix-rank1", "--json"], [], "matrix entries must be a nonempty list of rows"
    ),
    "matrix/pairs": (
        ["matrix-rank1", "--json"], entry([[0]]), "entry pairs must be [exponent, coefficient]"
    ),
    "matrix/bool-entry": (["matrix-rank1", "--json"], entry(True), "invalid matrix entry True"),
    "matrix/float-entry": (["matrix-rank1", "--json"], entry(1.5), "invalid matrix entry 1.5"),
    "matrix/exponent-too-long": (
        ["matrix-rank1", "--json"],
        entry({"7" * (LIMIT + 1): "1"}),
        f"exponent key has more than {LIMIT} digits",
    ),
}


@pytest.mark.parametrize("case", CLI)
def test_cli_input_error_message(case):
    argv, stdin, message = CLI[case]
    code, out, err = run_main(argv, "" if stdin is None else json.dumps(stdin))
    assert (code, err) == (2, "")
    error = {"error": {"kind": "input", "message": message}}
    assert out == json.dumps(error, separators=(",", ":")) + "\n"
