"""The integer wall-level kernel, row action and wall commands against the Fraction paths.

Weights are drawn with small, mixed denominators so that many inputs sit
exactly on a wall; the explicit examples pin a few on-wall and off-wall
cases, and ``iso`` pairs whose common denominator is neither system's own.
"""

from __future__ import annotations

import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, count, product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import crossed_walls
from test_wall_commands import run
from parastab import (
    CurveData,
    DomainError,
    GenericityResult,
    GenericityWitness,
    NumTransform,
    act_on_rows,
    apply_to_degree,
    apply_to_weights,
    autgroup,
    automorphism_group,
    candidate_transforms,
    chamber_fingerprint,
    count_admissible,
    dual_weights,
    hecke_weights,
    is_degree_generic,
    is_generic,
    iso_transforms,
    level_denominator,
    normalize,
    numerator_rows,
    reduce_dual_rank2,
    weight_system,
    weights_core,
)
from parastab.chamber import fingerprint_floors, wall_crossings
from parastab.weights_core import first_on_wall, row_levels, wall_grid

F = Fraction
# r in 2..5 and n in 1..4; the per-pattern path takes about a second at
# (5, 4) (21250 patterns), so that shape comes from explicit examples only
SHAPES = [(r, n) for r in range(2, 6) for n in range(1, 5) if (r, n) != (5, 4)]
# the old candidate loop re-validates every pattern of every candidate, which
# takes seconds per example at (4, 4) and (5, 3)
SEARCH_SHAPES = [(r, n) for r, n in SHAPES if count_admissible(r, n) * r ** n <= 30000]


@st.composite
def weights(draw, r: int, n: int):
    """r distinct rationals in [0, 1) per point, each with its own denominator."""
    max_den = draw(st.sampled_from((4, 6, 12, 60, 997)))
    fracs = st.fractions(min_value=0, max_value=1, max_denominator=max_den).filter(
        lambda a: a < 1
    )
    rows = [sorted(draw(st.sets(fracs, min_size=r, max_size=r))) for _ in range(n)]
    return weight_system(rows)


@st.composite
def system(draw, shapes=SHAPES):
    r, n = draw(st.sampled_from(shapes))
    return draw(weights(r, n)), draw(st.integers(-6, 6))


@st.composite
def pair(draw, shapes=SHAPES):
    r, n = draw(st.sampled_from(shapes))
    return draw(weights(r, n)), draw(weights(r, n)), draw(st.integers(-6, 6))


ON_WALL = weight_system([[F(0), F(1, 2)], [F(0), F(1, 2)]])
MIXED = weight_system([[F(1, 10), F(7, 10)], [F(1, 5), F(3, 5)]])
RANK3 = weight_system([[F(1, 8), F(3, 8), F(7, 8)]])
# (5, 4) with mixed denominators: WIDE sits on the wall of picks
# ((1,), (4,), (1,), (4,)) at level 2, which is degree-relevant for d = 3;
# WIDE_GENERIC sits on no wall
WIDE = weight_system(
    [[F(0), F(1, 7), F(2, 7), F(3, 7), F(5, 7)]] * 2
    + [[F(1, 11), F(2, 11), F(4, 11), F(6, 11), F(10, 11)]] * 2
)
WIDE_GENERIC = weight_system(
    [[F(0), F(1, 5), F(2, 5), F(3, 5), F(4, 5)]] * 3
    + [[F(0), F(1, 10), F(1, 5), F(3, 10), F(1, 2)]]
)

# two equal points, so the swap (and at some degrees a dual) is an automorphism
TWIN = weight_system([[F(1, 8), F(3, 8), F(7, 8)]] * 2 + [[F(1, 5), F(2, 5), F(4, 5)]])
# 40 and 63 are the systems' own denominators; the filter works over 2520
ISO_FROM = weight_system([[F(1, 8), F(3, 8), F(7, 8)], [F(1, 5), F(2, 5), F(4, 5)]])
ISO_TO = weight_system([[F(0), F(2, 9), F(7, 9)], [F(1, 7), F(4, 7), F(5, 7)]])
MIXED_TO = weight_system([[F(1, 9), F(5, 9)], [F(2, 7), F(3, 7)]])


def blocks_by_subrank(w):
    """The per-pattern Fraction path's (picks, level) pairs, one list per subrank."""
    blocks: dict[int, list] = {}
    for rp, picks, value in oracles.levels(w):
        blocks.setdefault(rp, []).append((picks, value))
    return blocks


@settings(max_examples=30)
@given(system())
@example((ON_WALL, 0))
@example((MIXED, 1))
@example((RANK3, -1))
@example((WIDE, 3))
def test_levels_and_fingerprint_match_per_pattern_path(case):
    """Each half block is a prefix of its subrank's block, and mirroring rebuilds the rest."""
    w, d = case
    r, n = w.rank, w.npoints
    q = level_denominator(w)
    full = blocks_by_subrank(w)
    rebuilt = {}
    for rp, picks, block in row_levels(numerator_rows(w, q)):
        half = [F(level, q) for level in block]
        assert list(zip(product(picks, repeat=n), half)) == full[rp][: len(half)]
        mirror = [-value for value in reversed(half)]
        if 2 * rp == r:
            rebuilt[rp] = half + mirror
        else:
            rebuilt[rp], rebuilt[r - rp] = half, mirror
    assert rebuilt == {rp: [value for _, value in block] for rp, block in full.items()}
    assert chamber_fingerprint(w, d) == oracles.fingerprint(r, w, d)


@settings(max_examples=30)
@given(system())
@example((RANK3, 0))
@example((WIDE_GENERIC, 0))
def test_complement_levels_are_negated_and_reversed(case):
    """On the Fraction path alone: the block of r - r' is the block of r' negated and
    reversed, and the pattern at each place is the complement of its mirror's."""
    w, _ = case
    r = w.rank
    blocks = blocks_by_subrank(w)
    for rp, block in blocks.items():
        mirror = blocks[r - rp][::-1]
        assert [value for _, value in block] == [-value for _, value in mirror]
        for (picks, _), (complement, _) in zip(block, mirror):
            for c, cc in zip(picks, complement):
                assert sorted(c + cc) == list(range(1, r + 1))


@settings(max_examples=30)
@given(system())
@example((ON_WALL, 0))
@example((ON_WALL, 1))
@example((MIXED, 0))
@example((WIDE, 3))
@example((WIDE_GENERIC, 1))
def test_genericity_witness_is_first_integer_level(case):
    w, d = case
    assert is_generic(w) == oracles.first_wall(w)
    assert is_degree_generic(w, d) == oracles.first_wall(w, d)


def _walls_or_error(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DomainError as exc:
        return f"DomainError: {exc}"


@settings(max_examples=30)
@given(pair(), st.booleans())
@example((ON_WALL, MIXED, 0), True)
@example((MIXED, ON_WALL, 1), False)
@example((MIXED, weight_system([[F(0), F(9, 10)], [F(1, 3), F(1, 2)]]), 0), False)
@example((WIDE_GENERIC, WIDE, 0), True)
@example((WIDE_GENERIC, WIDE, 3), True)
def test_walls_crossed_matches_fraction_levels(case, relevant_only):
    w1, w2, d = case
    r = w1.rank
    new = _walls_or_error(crossed_walls, w1, w2, d, relevant_only=relevant_only)
    old = _walls_or_error(oracles.walls_crossed, r, w1, w2, d, relevant_only=relevant_only)
    assert new == old


def test_wall_crossings_match_the_full_scan():
    """The half scan and its mirror against the full-block scan, crossings or error text.

    r 2-6 and n 1-4 with per-point denominators from r to 12 (small ones put
    many endpoints on walls) or 1000003, all walls or those of degree -3..3.
    A middle hit is an endpoint on a wall of subrank r/2 for r >= 4.  The
    second system shares some points with the first, so both often hit the
    same wall first; each pair is also run swapped, which tells such a tie
    (both orders name the first system at the same pattern) from a hit in
    one system only.
    """
    rng = random.Random(22)
    seen = Counter()

    def draw(r, n, like=None):
        """A system; with ``like`` each point keeps that system's row with probability 1/2."""
        rows = []
        for x in range(n):
            den = rng.choice([*range(r, 13), 1000003])
            rows.append([F(k, den) for k in sorted(rng.sample(range(den), r))])
            if like is not None and rng.random() < 0.5:
                rows[x] = like.weights[x]
        return weight_system(rows)

    while seen["pairs"] < 150:
        r, n = rng.randrange(2, 7), rng.randrange(1, 5)
        # (6, 4) holds 263842 patterns per system, about a second a pair: once is enough
        if (r, n) == (6, 4) and seen[r, n]:
            continue
        seen[r, n] += 1
        w1 = draw(r, n)
        w2 = draw(r, n, w1)
        d = rng.choice([None, *range(-3, 4)])
        relevant_only = d is not None
        found = []
        for a, b in ((w1, w2), (w2, w1)):
            new = _walls_or_error(lambda: list(wall_crossings(a, b, d or 0, relevant_only)))
            old = _walls_or_error(lambda: list(oracles.wall_crossings(a, b, d or 0, relevant_only)))
            assert new == old
            found.append(new)
        seen["pairs"] += 1
        if isinstance(found[0], list):
            seen["crossing"] += bool(found[0])
            seen["mirrored"] += any(2 * rp > r for rp, _, _ in found[0])
            # the middle block's first half is the point-1 picks holding 1
            seen["middle mirrored"] += any(
                2 * rp == r and 1 not in combo[0] for rp, combo, _ in found[0]
            )
            continue
        where = found[0][found[0].index("(subrank"):found[0].index(", level")]
        seen["middle"] += r % 2 == 0 and r > 2 and where.startswith(f"(subrank {r // 2},")
        seen["tie"] += all(text.startswith("DomainError: first") for text in found) and (
            where in found[1]
        )
    # the cases the mirror rule is subtle on were drawn
    cases = ("crossing", "mirrored", "middle mirrored", "middle", "tie")
    assert min(map(seen.__getitem__, cases)) >= 10, seen


# MIXED sits on the walls m = 1 and m = -1 of subrank 1, irrelevant for even
# degrees; NEAR_ZERO's levels cross m = 0 on two patterns and stay strictly
# inside (0, 1) and (-1, 0) on the two patterns where MIXED sits on a wall
NEAR_ZERO = weight_system([[F(0), F(1, 30)], [F(0), F(1, 20)]])
# (4, 3): no subrank-1 wall; the first wall is pattern 96 of the 216 of subrank 2
DEEP = weight_system(
    [
        [F(1, 12), F(7, 24), F(5, 12), F(17, 24)],
        [F(1, 8), F(5, 12), F(5, 8), F(3, 4)],
        [F(5, 24), F(11, 24), F(17, 24), F(23, 24)],
    ]
)
DEEP_OTHER = weight_system(
    [
        [F(577, 4007), F(1178, 4007), F(1873, 4007), F(3590, 4007)],
        [F(2365, 4007), F(2641, 4007), F(2883, 4007), F(2934, 4007)],
        [F(101, 4007), F(1265, 4007), F(2911, 4007), F(3472, 4007)],
    ]
)


def both_walls(w1, w2, d, relevant_only):
    """The expanded crossings and their oracle, each as walls or as the error text; asserted equal."""
    r = w1.rank
    new = _walls_or_error(crossed_walls, w1, w2, d, relevant_only=relevant_only)
    assert new == _walls_or_error(oracles.walls_crossed, r, w1, w2, d, relevant_only=relevant_only)
    return new


def test_endpoint_on_an_irrelevant_wall_is_no_error():
    for w1, w2, label in ((MIXED, NEAR_ZERO, "first"), (NEAR_ZERO, MIXED, "second")):
        walls = both_walls(w1, w2, 0, True)
        assert [(wall.pattern, wall.m) for wall in walls] == [(((1,), (2,)), 0), (((2,), (1,)), 0)]
        assert both_walls(w1, w2, 0, False) == (
            f"DomainError: {label} weight system lies on wall "
            "(subrank 1, picks ((1,), (1,)), level 1)"
        )
    # at an odd degree the same walls are relevant
    assert both_walls(MIXED, NEAR_ZERO, 1, True).startswith("DomainError: first")


def test_both_endpoints_on_one_pattern_name_the_first():
    """ON_WALL and MIXED both sit on the wall of picks ((1,), (1,)) at level 1."""
    message = "DomainError: first weight system lies on wall (subrank 1, picks ((1,), (1,)), level 1)"
    for w1, w2 in ((ON_WALL, MIXED), (MIXED, ON_WALL)):
        assert both_walls(w1, w2, 1, True) == message
        assert both_walls(w1, w2, 1, False) == message
    # at d = 0 that wall is irrelevant; ON_WALL's next one, at level 0, is not
    assert both_walls(ON_WALL, MIXED, 0, True) == (
        "DomainError: first weight system lies on wall (subrank 1, picks ((1,), (2,)), level 0)"
    )
    assert both_walls(MIXED, ON_WALL, 0, True) == (
        "DomainError: second weight system lies on wall (subrank 1, picks ((1,), (2,)), level 0)"
    )


def test_first_wall_deep_in_a_later_subrank():
    witness = GenericityWitness(2, ((1, 4), (2, 4), (1, 2)), 1)
    assert is_generic(DEEP) == oracles.first_wall(DEEP) == GenericityResult(False, witness)
    subrank2 = list(product(combinations(range(1, 5), 2), repeat=3))
    assert subrank2.index(witness.pattern) == 96
    for d in range(-4, 5):
        assert is_degree_generic(DEEP, d) == oracles.first_wall(DEEP, d)
        for relevant_only in (True, False):
            assert both_walls(DEEP, DEEP_OTHER, d, relevant_only).startswith(
                "DomainError: first weight system lies on wall (subrank 2,"
            )
            assert both_walls(DEEP_OTHER, DEEP, d, relevant_only).startswith(
                "DomainError: second weight system lies on wall (subrank 2,"
            )
    assert both_walls(DEEP, DEEP_OTHER, 0, False) == (
        "DomainError: first weight system lies on wall "
        "(subrank 2, picks ((1, 4), (2, 4), (1, 2)), level 1)"
    )


@pytest.mark.parametrize(
    "w, d, generic, degree_generic",
    [(DEEP_OTHER, 1, True, True), (MIXED, 0, False, True), (MIXED, 1, False, False)],
)
def test_aut_genericity_flags_match_first_wall(w, d, generic, degree_generic):
    """``aut`` reuses the blanket scan as the degree result when no wall is hit."""
    result = automorphism_group(w, d, CurveData(2, w.points))
    assert (result.generic, result.degree_generic) == (generic, degree_generic)
    assert result.generic == oracles.first_wall(w).generic
    assert result.degree_generic == oracles.first_wall(w, d).generic


def test_walls_crossed_on_wall_message():
    with pytest.raises(DomainError) as err:
        crossed_walls(ON_WALL, MIXED, 1)
    assert str(err.value) == (
        "first weight system lies on wall (subrank 1, picks ((1,), (1,)), level 1)"
    )


def test_wall_crossings_raises_at_the_call():
    """The crossings come as a list, so an endpoint on a wall raises before any is read."""
    with pytest.raises(DomainError) as err:
        wall_crossings(ON_WALL, MIXED, 0, relevant_only=False)
    assert str(err.value) == (
        "first weight system lies on wall (subrank 1, picks ((1,), (1,)), level 1)"
    )
    assert type(wall_crossings(MIXED, NEAR_ZERO, 0)) is list


def cli_pair(command: list[str], w1, w2, d) -> tuple[int, str]:
    """Exit code and output line of a pair command run through ``main()``."""

    def doc(w):
        points = [
            {"label": label, "weights": [str(a) for a in tup]}
            for label, tup in zip(w.points, w.weights)
        ]
        return {"r": w.rank, "degree": d, "points": points}

    return run(command, {"first": doc(w1), "second": doc(w2)})


def assert_output(got: tuple[int, str], code: int, expected: dict) -> None:
    """The exit code and payload, and the exact line: sorted keys, compact separators."""
    assert (got[0], json.loads(got[1])) == (code, expected)
    assert got[1] == json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n"


def oracle_wall_dicts(w1, w2, d, relevant_only):
    """The oracle's walls as the CLI reports them, or None when an endpoint is on one."""
    try:
        walls = oracles.walls_crossed(w1.rank, w1, w2, d, relevant_only=relevant_only)
    except DomainError:
        return None
    return [
        {"m": w.m, "picks": [list(c) for c in w.pattern], "relevant": w.relevant,
         "subrank": w.subrank}
        for w in walls
    ]


@settings(max_examples=25)
@given(pair())
@example((ON_WALL, MIXED, 0))
@example((MIXED, NEAR_ZERO, 0))
@example((MIXED, NEAR_ZERO, 1))
@example((DEEP_OTHER, DEEP, 1))
@example((NEAR_ZERO, weight_system([[F(0), F(9, 10)], [F(1, 3), F(1, 2)]]), 0))
def test_cli_wall_payloads_match_the_oracle(case):
    """``walls`` and ``walls --all`` build their dicts from the crossing ranges."""
    w1, w2, d = case
    for command, relevant_only in ((["walls"], True), (["walls", "--all"], False)):
        got = cli_pair(command, w1, w2, d)
        walls = oracle_wall_dicts(w1, w2, d, relevant_only)
        if walls is None:
            message = _walls_or_error(
                oracles.walls_crossed, w1.rank, w1, w2, d, relevant_only=relevant_only
            )
            error = {"kind": "domain", "message": message[len("DomainError: "):]}
            assert_output(got, 1, {"error": error})
        else:
            assert_output(got, 0, {"degree": d, "count": len(walls), "walls": walls})


@settings(max_examples=25)
@given(pair())
@example((ON_WALL, MIXED, 0))
@example((MIXED, ON_WALL, 0))
@example((MIXED, NEAR_ZERO, 0))
@example((MIXED, NEAR_ZERO, 1))
@example((MIXED, MIXED, 1))
@example((DEEP, DEEP_OTHER, 0))
def test_same_chamber_matches_oracle_fingerprints(case):
    """``same`` off the relevant crossings, or off the fingerprints when an endpoint
    sits on a relevant wall (``walls`` is then null)."""
    w1, w2, d = case
    got = cli_pair(["same-chamber"], w1, w2, d)
    same = oracles.fingerprint(w1.rank, w1, d) == oracles.fingerprint(w1.rank, w2, d)
    walls = oracle_wall_dicts(w1, w2, d, True)
    assert_output(got, 0, {"same": same, "degree": d, "walls": walls})


@st.composite
def relabelings(draw, n: int):
    """The identity, then one more drawn relabeling if it differs."""
    identity = tuple(range(n))
    perm = tuple(draw(st.permutations(range(n))))
    return [identity] if perm == identity else [identity, perm]


@settings(max_examples=15)
@given(st.sampled_from(SEARCH_SHAPES).flatmap(
    lambda s: st.tuples(weights(*s), st.integers(-6, 6), relabelings(s[1]))
))
@example((MIXED, 0, [(0, 1), (1, 0)]))
@example((RANK3, -1, [(0,)]))
@example((TWIN, 1, [(0, 1, 2), (1, 0, 2)]))
@example((TWIN, 2, [(0, 1, 2), (1, 0, 2)]))
def test_automorphism_group_matches_old_loop(case):
    w, d, perms = case
    r, n = w.rank, w.npoints
    curve = CurveData(genus=2, points=w.points, symmetries=tuple((p, 1) for p in perms))
    result = automorphism_group(w, d, curve)
    assert result.classes == oracles.automorphism_classes(r, n, d, w, perms)
    assert set(result.classes) <= set(candidate_transforms(r, d, curve))


@settings(max_examples=25)
@given(st.sampled_from(SEARCH_SHAPES).flatmap(
    lambda s: st.tuples(
        weights(*s), st.integers(-6, 6), weights(*s), st.integers(-6, 6), relabelings(s[1])
    )
))
@example((MIXED, 0, MIXED, 0, [(0, 1), (1, 0)]))
@example((RANK3, -1, RANK3, 1, [(0,)]))
@example((ISO_FROM, 1, ISO_TO, -3, [(0, 1), (1, 0)]))
@example((MIXED, 0, MIXED_TO, 1, [(0, 1), (1, 0)]))
@example((MIXED, 1, dual_weights(MIXED), -1, [(0, 1)]))
@example((ISO_FROM, 0, ISO_TO, -1, [(0, 1), (1, 0)]))
def test_iso_transforms_matches_old_loop(case):
    w1, d1, w2, d2, perms = case
    r, n = w1.rank, w1.npoints
    found = iso_transforms(w1, d1, w2, d2, curve_iso=perms[1:])
    assert found == oracles.iso_classes(r, n, d1, w1, d2, w2, perms)
    assert all(apply_to_degree(t, d1, r) == d2 for t in found)
    self_map = iso_transforms(w1, d1, w1, d1, curve_iso=perms[1:])
    curve = CurveData(genus=0, points=w1.points, symmetries=tuple((p, 1) for p in perms))
    assert self_map == automorphism_group(w1, d1, curve).classes


@settings(max_examples=25)
@given(
    st.sampled_from(SHAPES + [(5, 4)]).flatmap(
        lambda s: st.tuples(weights(*s), st.permutations(range(s[1])), st.integers(1, 4))
    )
)
@example((MIXED, [1, 0], 3))
@example((RANK3, [0], 1))
def test_row_action_matches_fraction_oracle(case):
    """Every sign and Hecke vector, over the system's own and a larger denominator."""
    w, perm, k = case
    r, n = w.rank, w.npoints
    q = level_denominator(w)
    rows, wide = numerator_rows(w, q), numerator_rows(w, k * q)
    assert dual_weights(w) == oracles.dual_weights(w)
    for hecke in product(range(r), repeat=n):
        assert hecke_weights(w, hecke) == oracles.hecke_weights(w, hecke)
        for sign in (1, -1):
            t = NumTransform(tuple(perm), sign, 0, hecke)
            old = oracles.apply_to_weights(t, w)
            assert apply_to_weights(t, w) == old
            assert act_on_rows(t, rows, q) == numerator_rows(old, q)
            assert act_on_rows(t, wide, k * q) == numerator_rows(old, k * q)


def test_iso_over_a_common_denominator_and_two_degrees():
    q = level_denominator(ISO_FROM, ISO_TO)
    assert q not in (level_denominator(ISO_FROM), level_denominator(ISO_TO))
    found = iso_transforms(ISO_FROM, 1, ISO_TO, -3, curve_iso=[(1, 0)])
    assert found == (
        NumTransform((0, 1), -1, 1, (1, 0)),
        NumTransform((1, 0), -1, 2, (2, 2)),
    )
    assert found == oracles.iso_classes(3, 2, 1, ISO_FROM, -3, ISO_TO, [(0, 1), (1, 0)])
    assert iso_transforms(ISO_FROM, 1, ISO_TO, 1, curve_iso=[(1, 0)]) == ()
    found2 = iso_transforms(MIXED, 0, MIXED_TO, 1, curve_iso=[(1, 0)])
    assert found2 == (NumTransform((0, 1), 1, 1, (1, 0)), NumTransform((1, 0), 1, 1, (1, 0)))
    assert found2 == oracles.iso_classes(2, 2, 0, MIXED, 1, MIXED_TO, [(0, 1), (1, 0)])


def test_iso_rank2_dual_folds_onto_a_twist():
    """At rank 2 the plain dual is listed as its non-dualizing representative."""
    dual = dual_weights(MIXED)
    found = iso_transforms(MIXED, 1, dual, -1)
    assert found == oracles.iso_classes(2, 2, 1, MIXED, -1, dual, [(0, 1)])
    assert all(t.sign == 1 for t in found)
    plain_dual = NumTransform((0, 1), -1, 0, (0, 0))
    assert apply_to_weights(plain_dual, MIXED) == dual
    assert reduce_dual_rank2(plain_dual, 1) == NumTransform((0, 1), 1, -1, (0, 0))
    assert found == (NumTransform((0, 1), 1, -1, (0, 0)), NumTransform((0, 1), 1, 0, (1, 1)))


def test_filter_reads_the_reference_only_as_far_as_matched(monkeypatch):
    """No iso candidate survives, and aut never compares its identity."""
    read = []

    def counted(rows, d, q):
        return map(lambda value: read.append(value) or value, fingerprint_floors(rows, d, q))

    monkeypatch.setattr(autgroup, "fingerprint_floors", counted)
    full = count_admissible(3, 2)
    assert iso_transforms(ISO_FROM, 0, ISO_TO, -1, curve_iso=[(1, 0)]) == ()
    assert 0 < len(read) < full
    read.clear()
    classes = automorphism_group(ISO_FROM, 1, CurveData(2, ISO_FROM.points)).classes
    assert classes == (NumTransform((0, 1), 1, 0, (0, 0)),)
    assert len(read) < full
    # the swap of equal points survives without a comparison too
    read.clear()
    swap = CurveData(2, TWIN.points, (((1, 0, 2), 1),))
    assert len(automorphism_group(TWIN, 1, swap).classes) == 2
    assert len(read) < count_admissible(3, 3)


RANK1 = weight_system([[F(1, 3)], [F(1, 2)]])
RANK1_OTHER = weight_system([[F(1, 4)], [F(2, 3)]])
RANK_ERROR = "requires r >= 2 and n >= 1"


def test_rank_one_is_refused_by_every_wall_scan():
    """Walls need a proper subrank, so the level kernel refuses rank 1 for all its readers."""
    scans = [
        lambda: is_generic(RANK1),
        lambda: is_degree_generic(RANK1, 0),
        lambda: list(wall_crossings(RANK1, RANK1_OTHER, 0)),
        lambda: list(wall_crossings(RANK1, RANK1_OTHER, 0, relevant_only=False)),
        lambda: chamber_fingerprint(RANK1, 0),
    ]
    for scan in scans:
        with pytest.raises(DomainError, match=RANK_ERROR):
            scan()


def test_rank_one_still_transforms():
    """The row scaling is shared with the transforms, which stay defined at rank 1."""
    assert normalize(RANK1).weights == ((F(0),), (F(0),))
    swap = NumTransform((1, 0), -1, 1, (0, 0))
    assert apply_to_weights(swap, RANK1) == oracles.apply_to_weights(swap, RANK1)
    word = json.dumps({"perm": [1, 0], "sign": -1, "tdeg": 1, "hecke": [0, 0]})
    code, out = run(["transform", "--word", word], {
        "r": 1, "degree": 0,
        "points": [{"label": "a", "weights": ["1/3"]}, {"label": "b", "weights": ["1/2"]}],
    })
    assert code == 0
    assert json.loads(out)["weights"] == [["0"], ["0"]]


def bounded(levels, limit=10**5):
    """The levels, failing instead of reading on without end past ``limit`` of them."""
    for i, level in enumerate(levels):
        if i == limit:
            raise AssertionError("the scan read far past its hit")
        yield level


def test_first_on_wall_stops_at_the_hit():
    levels = count(5)
    # width 7 divides L + 3 first at L = 11, the seventh level
    assert first_on_wall(bounded(levels), 3, 7) == 6
    assert next(levels) == 12
    assert first_on_wall(iter([1, 2, 3]), 0, 7) is None
    assert wall_grid(3, 2, 5, None) == (0, 5)
    assert wall_grid(3, 2, 5, -1) == (-10, 15)


R4_DEEP = weight_system([
    [F(1, 12), F(7, 24), F(5, 12), F(17, 24)],
    [F(1, 8), F(5, 12), F(5, 8), F(3, 4)],
    [F(5, 24), F(11, 24), F(17, 24), F(23, 24)],
])


def count_reads(monkeypatch) -> list[int]:
    """Make ``row_levels`` count the levels read from each block, into the returned list."""
    real = weights_core.row_levels
    read: list[int] = []

    def counted(levels, k):
        for level in levels:
            read[k] += 1
            yield level

    def counting_row_levels(rows):
        for rp, picks, levels in real(rows):
            read.append(0)
            yield rp, picks, counted(levels, len(read) - 1)

    monkeypatch.setattr(weights_core, "row_levels", counting_row_levels)
    return read


@pytest.mark.parametrize("d", [None, 1, 2])
def test_genericity_reads_no_level_past_the_hit(monkeypatch, d):
    """A lazy block is read up to its first wall only: every earlier block whole, then index + 1."""
    read = count_reads(monkeypatch)
    result = is_generic(R4_DEEP) if d is None else is_degree_generic(R4_DEEP, d)
    witness = result.witness
    assert witness is not None and witness.subrank == 2
    picks = list(combinations(range(1, 5), witness.subrank))
    index = list(product(picks, repeat=3)).index(witness.pattern)
    # the hit sits mid-block, so a scan that read the whole block would show here
    assert 0 < index < comb(4, 2) ** 3 - 1
    assert read == [comb(4, 1) ** 3, index + 1]


@pytest.mark.parametrize("r, n", [(2, 3), (3, 2), (4, 3), (5, 2), (6, 2)])
def test_genericity_reads_half_the_levels_of_a_generic_system(monkeypatch, r, n):
    """Subranks up to r/2, the middle one to half: half of every pattern, read once."""
    q = 1000003
    w = weight_system([sorted(F(pow(3, r * p + i + 1, q), q) for i in range(r)) for p in range(n)])
    read = count_reads(monkeypatch)
    assert is_generic(w) == oracles.first_wall(w) == GenericityResult(True, None)
    assert is_degree_generic(w, 1).generic
    full = [comb(r, rp) ** n for rp in range(1, r // 2 + 1)]
    if r % 2 == 0:
        full[-1] //= 2
    assert read == full * 2
    assert 2 * sum(full) == count_admissible(r, n)


def test_genericity_keeps_no_copy_of_a_block():
    """A scan that finds no wall holds no level it has passed."""
    q = 1000003
    w = weight_system([sorted(F(pow(2, 5 * p + i + 1, q), q) for i in range(5)) for p in range(5)])
    tracemalloc.start()
    try:
        assert is_generic(w).generic
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a block of subrank 2 or 3 holds 10**5 levels, about 4 MB if kept
    assert peak < 500_000
