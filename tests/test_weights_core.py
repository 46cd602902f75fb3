"""Weight systems, types, dimension formulas, genericity, stability slopes."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parastab import (
    DomainError,
    ParabolicType,
    dim_nonreduced_stratum,
    dims,
    genus_bounds,
    is_concentrated,
    is_degree_generic,
    is_generic,
    level_denominator,
    normalize,
    numerator_rows,
    owt,
    parabolic_type,
    pdeg,
    s_min,
    stability_check,
    t_number,
    weight_system,
)
from parastab.weights_core import row_levels
from conftest import rand_generic_weights, rand_weights

F = Fraction


def test_weight_system_validation():
    with pytest.raises(DomainError):
        weight_system([[F(1, 2), F(1, 4)]])  # not increasing
    with pytest.raises(DomainError):
        weight_system([[F(0), F(1)]])  # 1 is excluded
    with pytest.raises(DomainError):
        weight_system([[F(-1, 4), F(1, 4)]])  # negative
    with pytest.raises(DomainError):
        weight_system([[0, F(1, 4)], [0]])  # ragged
    with pytest.raises(DomainError):
        weight_system([[0, F(1, 2)], [0, F(1, 2)]], points=["x", "x"])
    with pytest.raises(DomainError):
        weight_system([])


def test_weight_system_defaults_and_total():
    w = weight_system([[0, F(1, 2)], [F(1, 4), F(3, 4)]])
    assert w.points == ("p1", "p2")
    assert w.rank == 2
    assert w.npoints == 2
    assert w.total() == F(3, 2)


def test_parabolic_type_validation():
    with pytest.raises(DomainError):
        parabolic_type([[1, 0], [1, 1]])  # unequal row sums
    with pytest.raises(DomainError):
        parabolic_type([[2, 0]])
    with pytest.raises(DomainError):
        parabolic_type([])
    t = parabolic_type([[1, 0, 1], [0, 1, 1]])
    assert t.subrank == 2
    assert t.rank == 3
    assert t.complement().rows == ((0, 1, 0), (1, 0, 0))


def test_parabolic_type_builders():
    t = ParabolicType.from_indices(3, [[1, 3], [2, 3]])
    assert t.rows == ((1, 0, 1), (0, 1, 1))
    with pytest.raises(DomainError):
        ParabolicType.from_indices(3, [[0, 1]])


def test_normalize_examples():
    w = weight_system([[F(1, 8), F(3, 8), F(7, 8)]])
    assert normalize(w).weights == ((F(0), F(1, 4), F(3, 4)),)
    w2 = weight_system([[0, F(1, 2)]])
    assert normalize(w2).weights == w2.weights
    w3 = weight_system([[F(1, 10), F(3, 5)], [F(1, 10), F(3, 5)]])
    assert normalize(w3).weights == ((F(0), F(1, 2)), (F(0), F(1, 2)))


@given(st.integers(0, 10 ** 6))
def test_normalize_idempotent(seed):
    rng = random.Random(seed)
    w = rand_weights(rng, rng.randrange(2, 5), rng.randrange(1, 4))
    once = normalize(w)
    assert normalize(once) == once
    assert all(tup[0] == 0 for tup in once.weights)


def test_owt_examples():
    w = weight_system([[F(1, 8), F(3, 8), F(7, 8)]])
    assert owt(w, parabolic_type([[1, 0, 1]])) == 1
    assert owt(w, parabolic_type([[0, 0, 0]])) == 0
    w2 = weight_system([[0, F(1, 2)], [0, F(1, 2)]])
    assert owt(w2, parabolic_type([[1, 1], [1, 1]])) == 1
    with pytest.raises(DomainError):
        owt(w2, parabolic_type([[1, 0, 0]]))


def test_pdeg_examples():
    assert pdeg(-1, weight_system([[F(1, 8), F(3, 8), F(7, 8)]])) == F(3, 8)
    assert pdeg(5, weight_system([[0, F(1, 2)]])) == F(11, 2)
    assert pdeg(0, weight_system([[0, F(1, 4), F(3, 4)]])) == 1


def test_s_min_examples():
    w = weight_system([[0, F(1, 2)]])
    assert s_min(w, parabolic_type([[1, 0]])) == F(-1, 2)
    w3 = weight_system([[0, F(1, 4), F(3, 4)]])
    assert s_min(w3, parabolic_type([[0, 1, 0]])) == F(-1, 4)


@given(st.integers(0, 10 ** 6))
def test_s_min_antisymmetry(seed):
    rng = random.Random(seed)
    r, n = rng.randrange(2, 5), rng.randrange(1, 4)
    w = rand_weights(rng, r, n)
    rp = rng.randrange(1, r)
    picks = [sorted(rng.sample(range(1, r + 1), rp)) for _ in range(n)]
    t = ParabolicType.from_indices(r, picks)
    assert s_min(w, t) == -s_min(w, t.complement())


def test_t_number_examples():
    ones21 = parabolic_type([[1, 1]])
    assert t_number(ones21, ones21) == F(1, 4)
    for r, n in ((2, 1), (3, 2), (4, 3)):
        ones = parabolic_type([[1] * r] * n)
        assert t_number(ones, ones) == F(n * r * (r - 1), 2 * r * r)
    assert t_number(parabolic_type([[1, 0]]), parabolic_type([[0, 1]])) == 0
    assert t_number(parabolic_type([[0, 1]]), parabolic_type([[1, 0]])) == 1
    with pytest.raises(DomainError):
        t_number(parabolic_type([[0, 0]]), parabolic_type([[1, 0]]))
    with pytest.raises(DomainError):
        t_number(parabolic_type([[1, 0]]), parabolic_type([[1, 0, 0]]))


def test_dims_examples():
    d1 = dims(2, 1, 2)
    assert d1.fixed_det == 4
    assert d1.w == (2, 4)
    assert d1.w_total == 4
    assert d1.nonfixed == 6
    d2 = dims(6, 2, 3)
    assert d2.fixed_det == 46
    assert d2.w[1:] == (17, 29)
    assert d2.w_total == 46
    with pytest.raises(DomainError):
        dims(1, 1, 2)
    with pytest.raises(DomainError):
        dims(2, 0, 2)
    with pytest.raises(DomainError):
        dims(2, 1, 1)


def test_dims_identity_small_grid():
    for g in range(2, 8):
        for n in range(1, 5):
            for r in range(2, 6):
                res = dims(g, n, r)
                assert res.w_total == res.fixed_det
                assert res.nonfixed == res.fixed_det + g


def test_stratum_examples():
    assert dim_nonreduced_stratum(2, 1, 5, 1) == 13
    assert dim_nonreduced_stratum(2, 1, 5, 2) == 6
    assert dim_nonreduced_stratum(2, 1, 4, 2) == 4
    with pytest.raises(DomainError):
        dim_nonreduced_stratum(2, 1, 4, 3)
    with pytest.raises(DomainError):
        dim_nonreduced_stratum(2, 1, 4, 0)


def test_is_generic_examples():
    rng = random.Random(7)
    for _ in range(20):
        w = rand_weights(rng, 2, 1)
        assert is_generic(w)
    bad = weight_system([[0, F(1, 2)], [0, F(1, 2)]])
    res = is_generic(bad)
    assert not res
    assert res.witness.subrank == 1
    assert res.witness.pattern == ((1,), (1,))
    assert res.witness.m == 1
    good = weight_system([[0, F(2, 5)], [0, F(1, 4)]])
    assert is_generic(good)


def test_generic_witness_recomputes():
    rng = random.Random(11)
    seen = 0
    while seen < 10:
        w = rand_weights(rng, rng.randrange(2, 4), rng.randrange(2, 4))
        res = is_generic(w)
        if res:
            continue
        seen += 1
        wit = res.witness
        picked = sum(
            (w.weights[x][i - 1] for x in range(w.npoints) for i in wit.pattern[x]),
            F(0),
        )
        assert wit.subrank * w.total() - w.rank * picked == wit.m


def test_wall_values_bound():
    # |f| < n*r^2 automatically; the integrality test is therefore complete
    rng = random.Random(13)
    for _ in range(20):
        r, n = rng.randrange(2, 5), rng.randrange(1, 4)
        w = rand_weights(rng, r, n)
        q = level_denominator(w)
        for _, _, levels in row_levels(numerator_rows(w, q)):
            for level in levels:
                assert abs(Fraction(level, q)) < n * r * r


def test_is_degree_generic():
    w = weight_system([[0, F(3, 5)], [0, F(2, 5)]])
    assert not is_generic(w)  # integer walls at m = 1 and m = -1
    assert is_degree_generic(w, 0)
    assert not is_degree_generic(w, 1)
    on_wall = weight_system([[0, F(1, 2)], [0, F(1, 2)]])
    assert not is_degree_generic(on_wall, 0)  # m = 0 wall is degree-insensitive
    assert not is_degree_generic(on_wall, 1)


def test_generic_translation_invariance():
    rng = random.Random(17)
    for _ in range(40):
        w = rand_weights(rng, rng.randrange(2, 4), rng.randrange(1, 4))
        assert is_generic(w).generic == is_generic(normalize(w)).generic


def test_is_concentrated_examples():
    assert is_concentrated(weight_system([[0, F(1, 2)]]))
    assert not is_concentrated(weight_system([[F(1, 8), F(3, 8), F(7, 8)]]))
    assert is_concentrated(weight_system([[0, F(999, 1000)]]))
    two = weight_system([[0, F(1, 3)], [0, F(1, 3)]])  # bound 1/2 per point
    assert is_concentrated(two)


def test_genus_bounds_examples():
    w = weight_system([[0, F(1, 2)], [0, F(1, 3)]])
    gb = genus_bounds(w)
    assert gb.chamber == 3
    assert gb.refined is None
    gb2 = genus_bounds(weight_system([[0, F(1, 3), F(2, 3)]]), l=1, m=0, k=1)
    assert gb2.lm == 3
    gb3 = genus_bounds(weight_system([[0, F(1, 3), F(2, 3)]]), l=2)
    assert gb3.codim == F(3, 2)


def test_genus_bounds_refined():
    w = weight_system([[F(1, 8), F(3, 8), F(7, 8)]])
    t = parabolic_type([[1, 1, 0]])
    gb = genus_bounds(w, t=t)
    # floor((1 - 7/8)) = 0 over the unselected slot
    assert gb.refined == 1
    with pytest.raises(DomainError):
        genus_bounds(w, t=parabolic_type([[1, 1, 1]]))
    with pytest.raises(DomainError):
        genus_bounds(w, l=0)


def test_stability_check_examples():
    w = weight_system([[0, F(1, 2)], [0, F(1, 2)]])
    t_first = parabolic_type([[1, 0], [1, 0]])
    t_second = parabolic_type([[0, 1], [0, 1]])
    assert stability_check(w, 0, (1, 0, t_first)) == "strict"
    assert stability_check(w, 0, (1, 1, t_first)) == "violated"
    assert stability_check(w, 0, (1, 0, t_second)) == "violated"
    with pytest.raises(DomainError):
        stability_check(w, 0, (2, 0, t_first))


def test_stability_equality_on_borderline():
    # slope equality demands the borderline subdegree to be an integer hit
    w = weight_system([[0, F(1, 2)], [0, F(1, 2)]])
    t = parabolic_type([[1, 0], [0, 1]])
    # pdeg_F = dF + 1/2, pdeg_E/r = 1/2: equality at dF = 0
    assert stability_check(w, 0, (1, 0, t)) == "equality"
    assert stability_check(w, 0, (1, -1, t)) == "strict"
    assert stability_check(w, 0, (1, 1, t)) == "violated"


def test_generic_never_equality():
    rng = random.Random(23)
    for _ in range(60):
        r, n = rng.choice(((2, 1), (2, 2), (3, 1), (3, 2)))
        w = rand_generic_weights(rng, r, n)
        rp = rng.randrange(1, r)
        t = ParabolicType.from_indices(
            r, [sorted(rng.sample(range(1, r + 1), rp)) for _ in range(n)]
        )
        d = rng.randrange(-4, 5)
        dF = rng.randrange(-4, 5)
        assert stability_check(w, d, (rp, dF, t)) != "equality"
