"""Group elements, actions, composition, normal forms, inverses."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parastab import (
    DomainError,
    NumTransform,
    apply_to_degree,
    apply_to_weights,
    compose,
    dual_weights,
    hecke_weights,
    identity_transform,
    inverse,
    is_generic,
    make_transform,
    normalize,
    reduce_dual_rank2,
    weight_system,
)
from conftest import rand_generic_weights, rand_transform, rand_weights

F = Fraction


def _gen_word(t: NumTransform, r: int) -> list[NumTransform]:
    """Split a normal form into elementary factors in canonical word order."""
    n = t.npoints
    ident = tuple(range(n))
    zeros = tuple(0 for _ in range(n))
    word = []
    if t.perm != ident:
        word.append(NumTransform(t.perm, 1, 0, zeros))
    if t.sign == -1:
        word.append(NumTransform(ident, -1, 0, zeros))
    if t.tdeg:
        word.append(NumTransform(ident, 1, t.tdeg, zeros))
    for x, h in enumerate(t.hecke):
        unit = tuple(1 if y == x else 0 for y in range(n))
        word.extend(NumTransform(ident, 1, 0, unit) for _ in range(h))
    return word


def _fold_random(rng: random.Random, word: list[NumTransform], r: int) -> NumTransform:
    if not word:
        return identity_transform(1)
    items = list(word)
    while len(items) > 1:
        i = rng.randrange(len(items) - 1)
        items[i : i + 2] = [compose(items[i], items[i + 1], r)]
    return items[0]


def test_numtransform_validation():
    with pytest.raises(DomainError):
        NumTransform((0, 0), 1, 0, (0, 0))
    with pytest.raises(DomainError):
        NumTransform((0,), 2, 0, (0,))
    with pytest.raises(DomainError):
        NumTransform((0,), 1, 0, (-1,))
    t = identity_transform(3)
    assert t.is_identity
    assert t.npoints == 3


def test_make_transform_folds_hecke():
    # a full rank-size Hecke stack at a point is a twist by -1 there
    t = make_transform((0,), 1, 1, (2,), 2)
    assert t == identity_transform(1)
    t2 = make_transform((0, 1), 1, 3, (4, 5), 3)
    assert t2 == NumTransform((0, 1), 1, 1, (1, 2))
    # negative raw coefficients come from inverse words; they fold the same way
    assert make_transform((0,), 1, 0, (-1,), 2) == inverse(
        NumTransform((0,), 1, 0, (1,)), 2
    )


def test_translation_subgroup_trivial():
    rng = random.Random(3)
    for _ in range(50):
        r = rng.randrange(2, 6)
        n = rng.randrange(1, 4)
        h = [rng.randrange(0, 3) for _ in range(n)]
        t = make_transform(tuple(range(n)), 1, sum(h), tuple(r * v for v in h), r)
        assert t == identity_transform(n)


def test_hecke_weights_examples():
    w = weight_system([[F(1, 8), F(3, 8), F(7, 8)]])
    assert hecke_weights(w, (1,)).weights == ((F(0), F(1, 2), F(3, 4)),)
    assert hecke_weights(w, (0,)) == normalize(w)
    w2 = weight_system([[F(1, 10), F(3, 5)], [F(1, 10), F(3, 5)]])
    assert hecke_weights(w2, (1, 1)).weights == ((F(0), F(1, 2)), (F(0), F(1, 2)))
    with pytest.raises(DomainError):
        hecke_weights(w, (3,))
    with pytest.raises(DomainError):
        hecke_weights(w, (1, 1))


def test_dual_weights_examples():
    w = weight_system([[0, F(1, 2), F(3, 4)]])
    assert dual_weights(w).weights == ((F(0), F(1, 4), F(3, 4)),)
    w2 = weight_system([[0, F(1, 2)]])
    assert dual_weights(w2) == w2
    rng = random.Random(5)
    for _ in range(30):
        w3 = rand_weights(rng, rng.randrange(2, 5), rng.randrange(1, 3))
        assert dual_weights(dual_weights(w3)) == normalize(w3)


def test_apply_to_weights_examples():
    w = weight_system([[F(1, 8), F(3, 8), F(7, 8)]])
    t = NumTransform((0,), -1, 1, (1,))
    assert apply_to_weights(t, w) == normalize(w)
    assert apply_to_weights(identity_transform(1), w) == normalize(w)
    w2 = weight_system([[F(1, 10), F(3, 5)], [F(1, 10), F(3, 5)]])
    swap = NumTransform((1, 0), 1, 0, (0, 0))
    assert apply_to_weights(swap, w2) == normalize(w2)


def test_apply_to_weights_lands_in_canonical_domain():
    rng = random.Random(7)
    for _ in range(40):
        r, n = rng.randrange(2, 5), rng.randrange(1, 4)
        w = rand_weights(rng, r, n)
        t = rand_transform(rng, r, n)
        out = apply_to_weights(t, w)
        assert all(tup[0] == 0 for tup in out.weights)


def test_apply_to_degree_examples():
    t = NumTransform((0,), -1, 1, (1,))
    assert apply_to_degree(t, -1, 3) == -1
    assert apply_to_degree(identity_transform(2), 9, 4) == 9
    assert apply_to_degree(NumTransform((0,), 1, 1, (0,)), 5, 2) == 7


def test_compose_examples():
    sh = NumTransform((0,), 1, 0, (1,))
    assert compose(sh, sh, 2) == NumTransform((0,), 1, -1, (0,))
    t = NumTransform((0,), -1, 1, (1,))
    assert compose(t, t, 3) == identity_transform(1)
    rng = random.Random(9)
    for _ in range(20):
        r, n = rng.randrange(2, 5), rng.randrange(1, 4)
        a = rand_transform(rng, r, n)
        e = identity_transform(n)
        assert compose(a, e, r) == a
        assert compose(e, a, r) == a


def test_compose_shape_mismatch():
    with pytest.raises(DomainError):
        compose(identity_transform(1), identity_transform(2), 2)


def test_hecke_generators_commute():
    rng = random.Random(11)
    for _ in range(30):
        r, n = rng.randrange(2, 5), rng.randrange(2, 4)
        x, y = rng.sample(range(n), 2)
        ex = tuple(rng.randrange(1, r) if i == x else 0 for i in range(n))
        ey = tuple(rng.randrange(1, r) if i == y else 0 for i in range(n))
        a = NumTransform(tuple(range(n)), 1, 0, ex)
        b = NumTransform(tuple(range(n)), 1, 0, ey)
        assert compose(a, b, r) == compose(b, a, r)


def test_inverse_examples():
    assert inverse(NumTransform((0,), 1, 3, (0,)), 2) == NumTransform((0,), 1, -3, (0,))
    assert inverse(NumTransform((0,), 1, 0, (1,)), 2) == NumTransform((0,), 1, 1, (1,))
    t = NumTransform((0,), -1, 1, (1,))
    assert inverse(t, 3) == t


@given(st.integers(0, 10 ** 6))
def test_inverse_two_sided(seed):
    rng = random.Random(seed)
    r, n = rng.randrange(2, 5), rng.randrange(1, 4)
    t = rand_transform(rng, r, n)
    inv = inverse(t, r)
    assert compose(t, inv, r) == identity_transform(n)
    assert compose(inv, t, r) == identity_transform(n)


@given(st.integers(0, 10 ** 6))
def test_associativity(seed):
    rng = random.Random(seed)
    r, n = rng.randrange(2, 5), rng.randrange(1, 4)
    a, b, c = (rand_transform(rng, r, n) for _ in range(3))
    assert compose(compose(a, b, r), c, r) == compose(a, compose(b, c, r), r)


@given(st.integers(0, 10 ** 6))
def test_action_compatibility(seed):
    rng = random.Random(seed)
    r, n = rng.randrange(2, 4), rng.randrange(1, 3)
    a, b = rand_transform(rng, r, n), rand_transform(rng, r, n)
    w = rand_weights(rng, r, n)
    d = rng.randrange(-6, 7)
    ab = compose(a, b, r)
    assert apply_to_weights(ab, w) == apply_to_weights(a, apply_to_weights(b, w))
    assert apply_to_degree(ab, d, r) == apply_to_degree(a, apply_to_degree(b, d, r), r)


def test_normal_form_path_independence():
    rng = random.Random(13)
    for _ in range(60):
        r, n = rng.randrange(2, 5), rng.randrange(1, 4)
        t = rand_transform(rng, r, n)
        word = _gen_word(t, r)
        if not word:
            continue
        left = word[0]
        for g in word[1:]:
            left = compose(left, g, r)
        assert left == t
        assert _fold_random(rng, word, r) == t


def test_genericity_preserved():
    rng = random.Random(17)
    for _ in range(30):
        r, n = rng.choice(((2, 1), (2, 2), (3, 1), (3, 2)))
        w = rand_generic_weights(rng, r, n)
        t = rand_transform(rng, r, n)
        assert is_generic(apply_to_weights(t, w))


def test_reduce_dual_rank2_examples():
    t = NumTransform((0,), -1, -1, (0,))
    assert reduce_dual_rank2(t, 1) == identity_transform(1)
    t2 = NumTransform((0, 1), -1, 0, (1, 1))
    assert reduce_dual_rank2(t2, 0) == NumTransform((0, 1), 1, 2, (1, 1))
    with pytest.raises(DomainError):
        reduce_dual_rank2(identity_transform(1), 0)


def test_reduce_dual_rank2_defining_property():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randrange(1, 4)
        perm = list(range(n))
        rng.shuffle(perm)
        t = NumTransform(
            tuple(perm), -1, rng.randrange(-3, 4), tuple(rng.randrange(2) for _ in range(n))
        )
        d = rng.randrange(-4, 5)
        red = reduce_dual_rank2(t, d)
        assert red.sign == 1
        assert apply_to_degree(red, d, 2) == apply_to_degree(t, d, 2)
        w = rand_weights(rng, 2, n)
        assert apply_to_weights(red, w) == apply_to_weights(t, w)
