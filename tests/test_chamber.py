"""Chamber fingerprints, admissible patterns, wall crossings."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from parastab import (
    DomainError,
    admissible_rows,
    chamber_fingerprint,
    count_admissible,
    dual_weights,
    max_subdegree,
    owt,
    parabolic_type,
    same_numerical_chamber,
    stability_check,
    subdegree_bounds,
    weight_system,
)
from conftest import crossed_walls, rand_generic_weights, rand_weights
from oracles import Wall, admissible_types

F = Fraction


def _shifted(w, rng):
    """A random translate of w staying inside the weight domain."""
    rows = []
    for tup in w.weights:
        lo = -tup[0]
        hi = 1 - tup[-1]
        den = rng.choice((16, 27, 49))
        num = rng.randrange(1, den)
        eps = lo + (hi - lo) * F(num, den)
        rows.append([a + eps for a in tup])
    return weight_system(rows, points=w.points)


def test_admissible_types_counts_and_order():
    assert list(admissible_rows(2, 1)) == [((1, 0),), ((0, 1),)]
    assert len(list(admissible_rows(2, 2))) == 4
    assert [rows[0] for rows in admissible_rows(3, 1)] == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (1, 0, 1),
        (0, 1, 1),
    ]
    for r in range(2, 6):
        for n in range(1, 4):
            assert count_admissible(r, n) == len(list(admissible_rows(r, n)))
    with pytest.raises(DomainError):
        admissible_rows(1, 1)


def test_max_subdegree_examples():
    w = weight_system([[0, F(1, 2)]])
    assert max_subdegree(w, -1, parabolic_type([[1, 0]])) == -1
    w2 = weight_system([[0, F(1, 2)], [0, F(1, 2)]])
    assert max_subdegree(w2, 0, parabolic_type([[1, 0], [1, 0]])) == 0
    w3 = weight_system([[0, F(4, 5)], [0, F(3, 4)]])
    assert max_subdegree(w3, 1, parabolic_type([[1, 0], [1, 0]])) == 1
    with pytest.raises(DomainError):
        max_subdegree(w, 0, parabolic_type([[1, 1]]))
    with pytest.raises(DomainError):
        max_subdegree(w, 0, parabolic_type([[1, 0, 0]]))


def test_chamber_invariant_examples():
    assert chamber_fingerprint(weight_system([[0, F(1, 3)]]), 0) == (0, -1)
    assert chamber_fingerprint(weight_system([[0, F(2, 3)]]), 0) == (0, -1)


def test_chamber_invariant_bounds():
    rng = random.Random(29)
    for _ in range(120):
        r, n = rng.choice(((2, 1), (2, 2), (3, 1), (3, 2)))
        d = rng.randrange(-5, 6)
        w = rand_weights(rng, r, n)
        lower, upper = subdegree_bounds(r, d, n)
        for value in chamber_fingerprint(w, d):
            assert lower < value <= upper


def test_finiteness_envelope():
    rng = random.Random(31)
    lower, upper = subdegree_bounds(2, 1, 2)
    span = int(upper - lower) + 1
    seen = {chamber_fingerprint(rand_weights(rng, 2, 2), 1) for _ in range(300)}
    assert len(seen) <= span ** count_admissible(2, 2)


def test_same_numerical_chamber_examples():
    a = weight_system([[0, F(1, 3)]])
    b = weight_system([[0, F(2, 3)]])
    for d in range(-3, 4):
        assert same_numerical_chamber(a, b, d)
    w1 = weight_system([[0, F(2, 5)], [0, F(1, 4)]])
    w2 = weight_system([[0, F(4, 5)], [0, F(3, 4)]])
    assert not same_numerical_chamber(w1, w2, 1)
    with pytest.raises(DomainError):
        same_numerical_chamber(a, w1, 0)


def test_translation_invariance():
    rng = random.Random(37)
    for _ in range(40):
        r, n = rng.choice(((2, 1), (2, 2), (3, 1), (3, 2)))
        d = rng.randrange(-4, 5)
        w = rand_weights(rng, r, n)
        assert chamber_fingerprint(w, d) == chamber_fingerprint(_shifted(w, rng), d)


def test_walls_crossed_examples():
    w1 = weight_system([[0, F(2, 5)], [0, F(1, 4)]])
    w2 = weight_system([[0, F(4, 5)], [0, F(3, 4)]])
    walls = crossed_walls(w1, w2, 1)
    assert Wall(subrank=1, pattern=((1,), (1,)), m=1, relevant=True) in walls
    assert walls == tuple(sorted(walls, key=lambda x: (x.subrank, x.pattern, x.m)))
    assert crossed_walls(w1, w1, 1) == ()
    a = weight_system([[0, F(1, 3)]])
    b = weight_system([[0, F(2, 3)]])
    for d in range(-3, 4):
        assert crossed_walls(a, b, d) == ()


def test_walls_crossed_all_vs_relevant():
    w1 = weight_system([[0, F(2, 5)], [0, F(1, 4)]])
    w2 = weight_system([[0, F(4, 5)], [0, F(3, 4)]])
    relevant = crossed_walls(w1, w2, 1)
    assert all(wall.relevant for wall in relevant)
    # at degree 0 both crossed walls lose relevance, so the chamber survives
    assert crossed_walls(w1, w2, 0) == ()
    assert same_numerical_chamber(w1, w2, 0)
    everything = crossed_walls(w1, w2, 0, relevant_only=False)
    assert len(everything) == 2
    assert all(not wall.relevant for wall in everything)


def test_walls_endpoint_error():
    on_wall = weight_system([[0, F(1, 2)], [0, F(1, 2)]])
    other = weight_system([[0, F(2, 5)], [0, F(1, 4)]])
    for d in (0, 1):
        with pytest.raises(DomainError):
            crossed_walls(on_wall, other, d)
    # an irrelevant wall hit is still fatal when every wall is requested
    with pytest.raises(DomainError):
        crossed_walls(other, on_wall, 0, relevant_only=False)


def test_wall_invariant_equivalence():
    rng = random.Random(41)
    for _ in range(150):
        r, n = rng.choice(((2, 2), (2, 3), (3, 1), (3, 2)))
        d = rng.randrange(-4, 5)
        w1 = rand_generic_weights(rng, r, n)
        w2 = rand_generic_weights(rng, r, n)
        crossed = crossed_walls(w1, w2, d)
        assert (crossed == ()) == same_numerical_chamber(w1, w2, d)


def test_duality_relation():
    # componentwise: the dual system at opposite degree mirrors each value
    rng = random.Random(43)
    for _ in range(60):
        r, n = rng.choice(((2, 1), (2, 2), (3, 1), (3, 2)))
        d = rng.randrange(-4, 5)
        w = rand_generic_weights(rng, r, n)
        dual = dual_weights(w)
        for t in admissible_types(r, n):
            assert (
                max_subdegree(dual, -d, parabolic_type([row[::-1] for row in t.rows]))
                == -max_subdegree(w, d, t) - 1
            )


def test_semistability_bridge():
    rng = random.Random(47)
    for _ in range(200):
        r, n = rng.choice(((2, 1), (2, 2), (3, 1), (3, 2)))
        d = rng.randrange(-4, 5)
        w = rand_weights(rng, r, n)
        types = admissible_types(r, n)
        t = rng.choice(types)
        bound = max_subdegree(w, d, t)
        d_sub = bound + rng.randrange(-2, 3)
        verdict = stability_check(w, d, (t.subrank, d_sub, t))
        if d_sub > bound:
            assert verdict == "violated"
        elif verdict == "equality":
            value = (
                F(t.subrank * d) + t.subrank * w.total() - r * owt(w, t)
            ) / r
            assert d_sub == bound and value == bound
        else:
            assert verdict == "strict"
            assert d_sub <= bound
