"""Automorphism and isomorphism classification over curve symmetry data."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from parastab import (
    CurveData,
    DomainError,
    NumTransform,
    apply_to_degree,
    apply_to_weights,
    automorphism_group,
    candidate_transforms,
    compose,
    concentrated_orders,
    identity_transform,
    inverse,
    is_degree_generic,
    iso_transforms,
    reduce_dual_rank2,
    trivial_curve,
    weight_system,
)
from conftest import rand_concentrated_weights, rand_generic_weights

F = Fraction


def _rank3_fixture():
    return weight_system([[F(1, 8), F(3, 8), F(7, 8)]], points=["x"])


def _rank2_member(a1, a2):
    return weight_system(
        [[a1, a2], [a2 - F(1, 2), a1 + F(1, 2)]], points=["x", "y"]
    )


def test_curve_data_validation():
    c = CurveData(genus=2, points=("x", "y"), symmetries=(((1, 0), 1),))
    assert c.symmetries[0] == ((0, 1), 1)  # identity auto-prepended
    assert c.order() == 2
    assert c.multiplicity((1, 0)) == 1
    with pytest.raises(DomainError):
        c.multiplicity((0,))
    with pytest.raises(DomainError):
        CurveData(genus=-1, points=("x",))
    with pytest.raises(DomainError):
        CurveData(genus=0, points=("x", "y"), symmetries=(((0, 0), 1),))
    with pytest.raises(DomainError):
        CurveData(genus=0, points=("x",), symmetries=(((0,), 0),))
    with pytest.raises(DomainError):
        CurveData(
            genus=0, points=("x", "y"), symmetries=(((1, 0), 1), ((1, 0), 2))
        )


def test_candidate_transforms_examples():
    only = candidate_transforms(2, 1, trivial_curve(2, ["x"]))
    assert only == (identity_transform(1),)

    cands3 = candidate_transforms(3, -1, trivial_curve(2, ["x"]))
    assert NumTransform((0,), -1, 1, (1,)) in cands3
    assert identity_transform(1) in cands3

    cands22 = candidate_transforms(2, 0, trivial_curve(2, ["x", "y"]))
    plus_heckes = {c.hecke for c in cands22}
    assert plus_heckes == {(0, 0), (1, 1)}
    assert all(c.sign == 1 for c in cands22)  # rank-2 fold removes duals


def test_candidate_degree_equation():
    rng = random.Random(3)
    for _ in range(40):
        r = rng.randrange(2, 5)
        n = rng.randrange(1, 3)
        d = rng.randrange(-4, 5)
        for cand in candidate_transforms(r, d, trivial_curve(2, [f"q{i}" for i in range(n)])):
            assert apply_to_degree(cand, d, r) == d


def test_automorphism_group_rank3_fixture():
    w = _rank3_fixture()
    res = automorphism_group(w, -1, trivial_curve(2, ["x"]))
    keys = {(c.perm, c.sign, c.tdeg, c.hecke) for c in res.classes}
    assert keys == {((0,), 1, 0, (0,)), ((0,), -1, 1, (1,))}
    assert res.torsion_factor == 81
    assert res.order == 162
    assert not res.generic
    assert not res.degree_generic
    assert res.chamber_genus == 3
    assert res.classification_genus == 6
    assert not res.genus_sufficient
    taller = automorphism_group(w, -1, trivial_curve(6, ["x"]))
    assert taller.genus_sufficient
    assert taller.order == 2 * 3 ** 12


def test_automorphism_group_strict_gate():
    w = _rank3_fixture()
    with pytest.raises(DomainError):
        automorphism_group(w, -1, trivial_curve(2, ["x"]), strict=True)


def test_automorphism_group_rank2_fixture():
    w = _rank2_member(F(1, 10), F(7, 10))
    curve = CurveData(genus=2, points=("x", "y"), symmetries=(((1, 0), 1),))
    res = automorphism_group(w, 0, curve)
    keys = {(c.perm, c.sign, c.tdeg, c.hecke) for c in res.classes}
    assert keys == {((0, 1), 1, 0, (0, 0)), ((1, 0), 1, 1, (1, 1))}
    assert res.order == 2 ** 4 * 2
    assert not res.generic  # the family sits on a degree-irrelevant wall
    assert res.degree_generic


def test_rank2_hecke_equals_swap():
    for a2 in (F(3, 5), F(7, 10)):
        w = _rank2_member(F(1, 10), a2)
        swap = NumTransform((1, 0), 1, 0, (0, 0))
        hecke = NumTransform((0, 1), 1, 1, (1, 1))
        assert apply_to_weights(hecke, w) == apply_to_weights(swap, w)


def test_classes_closed_under_group_ops():
    cases = [
        (3, 1, -1, _rank3_fixture(), trivial_curve(2, ["x"])),
        (
            2,
            2,
            0,
            _rank2_member(F(1, 10), F(7, 10)),
            CurveData(genus=2, points=("x", "y"), symmetries=(((1, 0), 1),)),
        ),
    ]
    for r, n, d, w, curve in cases:
        res = automorphism_group(w, d, curve)
        keys = {(c.perm, c.sign, c.tdeg, c.hecke) for c in res.classes}
        assert (identity_transform(n).perm, 1, 0, (0,) * n) in keys
        for a in res.classes:
            inv = inverse(a, r)
            if r == 2 and inv.sign == -1:
                inv = reduce_dual_rank2(inv, d)
            assert (inv.perm, inv.sign, inv.tdeg, inv.hecke) in keys
            for b in res.classes:
                ab = compose(a, b, r)
                if r == 2 and ab.sign == -1:
                    ab = reduce_dual_rank2(ab, d)
                assert (ab.perm, ab.sign, ab.tdeg, ab.hecke) in keys


def test_concentrated_trivial_symmetry_classes():
    rng = random.Random(5)
    for r, n in ((2, 1), (2, 2), (3, 1), (3, 2)):
        for _ in range(4):
            d = rng.choice([v for v in range(-5, 6) if v and abs(v) % r])
            w = rand_concentrated_weights(rng, r, n)
            g = rng.randrange(2, 5)
            curve = trivial_curve(g, [f"q{i}" for i in range(n)])
            res = automorphism_group(w, d, curve)
            assert all(c.hecke == (0,) * n for c in res.classes)
            assert res.classes == (identity_transform(n),)
            assert res.order == r ** (2 * g)


def test_concentrated_symmetric_weights():
    # equal tuples at both points: the swap class survives at odd degree
    w = weight_system([[0, F(1, 16)], [0, F(1, 16)]], points=["x", "y"])
    assert is_degree_generic(w, 1)
    curve = CurveData(genus=3, points=("x", "y"), symmetries=(((1, 0), 1),))
    res = automorphism_group(w, 1, curve)
    perms = sorted(c.perm for c in res.classes)
    assert perms == [(0, 1), (1, 0)]
    assert all(c.hecke == (0, 0) for c in res.classes)
    assert res.order == 2 ** 6 * 2


def test_iso_transforms_examples():
    w = _rank3_fixture()
    self_iso = iso_transforms(w, -1, w, -1)
    assert identity_transform(1) in self_iso

    sh = NumTransform((0,), 1, 0, (1,))
    w2 = apply_to_weights(sh, w)
    d2 = apply_to_degree(sh, -1, 3)
    assert d2 == -2
    out = iso_transforms(w, -1, w2, d2)
    assert sh in out

    rng = random.Random(7)
    for _ in range(10):
        a = rand_generic_weights(rng, 2, 1)
        b = rand_generic_weights(rng, 2, 1)
        d1 = rng.randrange(-3, 4)
        for d2 in (d1 - 2, d1, d1 + 2):
            assert iso_transforms(a, d1, b, d2)


def test_iso_transforms_odd_gap_needs_hecke():
    # an odd degree gap at rank 2 is bridged only by odd total Hecke shift
    a = weight_system([[0, F(1, 3)]])
    out = iso_transforms(a, 0, a, 1)
    assert out
    assert all(sum(c.hecke) % 2 == 1 for c in out)


def test_iso_transforms_validation():
    a = weight_system([[0, F(1, 3)]])
    b = weight_system([[0, F(1, 3)], [0, F(1, 3)]])
    with pytest.raises(DomainError):
        iso_transforms(a, 0, b, 0)
    with pytest.raises(DomainError):
        iso_transforms(a, 0, a, 0, curve_iso=[(1, 0)])


def test_concentrated_orders_examples():
    res = concentrated_orders(2, 2, 3, 1)
    assert (res.aut, res.threebir, res.ratio) == (16, 64, 4)
    res3 = concentrated_orders(2, 3, 1, 1)
    assert res3.ratio == 2
    assert res3.aut == 81
    assert res3.threebir == 162
    assert concentrated_orders(2, 2, 1, 1).ratio == 1
    assert concentrated_orders(2, 2, 1, 2).aut == 32
    with pytest.raises(DomainError):
        concentrated_orders(2, 1, 1, 1)
    with pytest.raises(DomainError):
        concentrated_orders(2, 2, 0, 1)


def test_orders_match_enumeration_at_rank2_single_point():
    # the |D| = 1 ratio is fixed by exhaustive candidate enumeration
    cands = candidate_transforms(2, 1, trivial_curve(2, ["x"]))
    assert len(cands) == 1
    assert concentrated_orders(2, 2, 1, 1).ratio == 1
