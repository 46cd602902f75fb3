"""Laurent arithmetic, tensor recognition, twisted conjugation, H-calculus."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parastab import (
    DomainError,
    Laurent,
    LaurentMatrix,
    cyclic_matrix,
    h_matrix,
    hecke_conjugation_check,
    inverse_exact,
    is_inner,
    is_parabolic,
    is_pure_tensor,
    mp_closed_form,
    rank1_factor,
    sigma_reshuffle,
    twist,
    xi_matrix,
)
from parastab.local_matrix import (
    L_ONE,
    L_ZERO,
    exact_divide,
    laurent_gcd,
)
from conftest import matrix_power
from oracles import (
    PrecisionError, TruncLaurent, is_inverse_pair, mp_matrix, series_inverse, truncated,
)

F = Fraction


def rand_laurent(rng, vmin=-1, vmax=3, zero_ok=True):
    coeffs = {}
    for e in range(vmin, vmax + 1):
        if rng.random() < 0.5:
            coeffs[e] = F(rng.randrange(-4, 5), rng.choice((1, 2, 3)))
    out = Laurent(coeffs)
    if out.is_zero() and not zero_ok:
        return Laurent.const(rng.randrange(1, 5))
    return out


def rand_poly_matrix(rng, n, vmin=0, vmax=2):
    return LaurentMatrix.build(
        [[rand_laurent(rng, vmin, vmax) for _ in range(n)] for _ in range(n)]
    )


def rand_rational_matrix(rng, n):
    return LaurentMatrix.build(
        [[F(rng.randrange(-5, 6), rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(n)]
    )


def test_laurent_basics():
    z = Laurent.z()
    assert (z + z) == Laurent.z(1, 2)
    assert (z * z) == Laurent.z(2)
    p = Laurent.const(3) + Laurent.z(2, F(1, 2))
    assert p.coeff(0) == 3
    assert p.coeff(2) == F(1, 2)
    assert p.coeff(1) == 0
    assert p.valuation() == 0
    assert p.degree() == 2
    assert not p.is_monomial()
    assert Laurent.z(-3, 5).is_monomial()
    assert (p - p).is_zero()
    assert L_ZERO.valuation() is None
    assert Laurent.const(F(5, 3)).coeffs == {0: F(5, 3)}
    assert p.shift(-2) == Laurent.z(-2, 3) + Laurent.const(F(1, 2))
    assert truncated(p, 2) == Laurent.const(3)
    assert p.scale(2) == Laurent.const(6) + Laurent.z(2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Laurent({0.5: 1}),
        lambda: Laurent({"1": 1}),
        lambda: Laurent({0: 0.1}),
        lambda: Laurent({0: "1/2"}),
        lambda: Laurent.const(0.5),
        lambda: Laurent.z(0.5),
        lambda: Laurent.z(1, 0.25),
        lambda: Laurent.z().scale(0.5),
        lambda: LaurentMatrix.build([[1, 0.5]]),
    ],
)
def test_laurent_refuses_inexact_input(build):
    """A float would be stored as its binary value, and a float exponent truncated."""
    with pytest.raises(DomainError):
        build()


def test_laurent_takes_int_coefficients_as_fractions():
    value = Laurent({0: 1, 1: 2, 2: 0, -1: F(0)})
    assert value.coeffs == {0: 1, 1: 2}
    assert all(type(c) is Fraction for c in value.coeffs.values())
    assert type(Laurent.const(3).coeff(0)) is Fraction


RATIONALS = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)
LAURENTS = st.dictionaries(st.integers(-3, 3), RATIONALS, max_size=4).map(Laurent)


def is_clean(value: Laurent) -> bool:
    return all(type(e) is int and type(c) is Fraction and c for e, c in value.coeffs.items())


@settings(max_examples=200)
@given(LAURENTS, LAURENTS, st.integers(-4, 4), RATIONALS)
def test_arithmetic_keeps_the_constructor_invariant(a, b, k, q):
    """Results built without the checked constructor equal its rebuild of their map,
    with int keys and nonzero Fraction values, also where terms cancel."""
    results = [a.shift(k), -a, a * b, a + b, a - b, a - a, a + -a, a.scale(q), a * (b - b)]
    if not b.is_zero():
        results += [exact_divide(a * b, b), exact_divide(a, b)]
    for value in results:
        if value is None:  # a does not divide by b
            continue
        assert is_clean(value)
        assert value == Laurent(value.coeffs)


def test_laurent_random_ring_axioms():
    rng = random.Random(3)
    for _ in range(50):
        a, b, c = (rand_laurent(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)


def test_exact_divide():
    rng = random.Random(5)
    for _ in range(40):
        q = rand_laurent(rng)
        d = rand_laurent(rng, zero_ok=False)
        assert exact_divide(q * d, d) == q
    assert exact_divide(Laurent.z(), Laurent.const(1) + Laurent.z()) is None
    assert exact_divide(L_ZERO, Laurent.z()) == L_ZERO


def test_laurent_gcd():
    z = Laurent.z()
    assert laurent_gcd([Laurent.z(2), Laurent.z(3) + Laurent.z(2)]) == Laurent.z(2)
    assert laurent_gcd([Laurent.const(4), Laurent.const(6)]) == L_ONE
    g = laurent_gcd([z * z - z, z * z * z - z * z])
    assert g == z * z - z
    # a common z-shift is part of the content
    assert laurent_gcd([Laurent.z(-2), Laurent.z(-1)]) == Laurent.z(-2)


def test_series_inverse():
    rng = random.Random(7)
    for _ in range(25):
        u = rand_laurent(rng, 0, 3)
        if u.coeff(0) == 0:
            u = u + L_ONE
        precision = rng.randrange(4, 12)
        inv = series_inverse(u, precision)
        assert truncated(u * inv, precision) == L_ONE
    with pytest.raises(DomainError):
        series_inverse(Laurent.z(), 4)


def test_trunc_laurent():
    t = TruncLaurent(Laurent.z(-1) + Laurent.z(5), 3)
    assert t._clip().known == Laurent.z(-1)
    assert t.negative_part() == {-1: F(1)}
    exactv = TruncLaurent.exact(Laurent.z(2))
    prod = t * exactv
    assert prod.bound == 5  # shifted by the factor's valuation
    with pytest.raises(PrecisionError):
        TruncLaurent(L_ZERO, 0).negative_part()
    assert (t + TruncLaurent.exact(L_ONE)).bound == 3
    zero = TruncLaurent.exact(L_ZERO) * t
    assert zero.bound is None and zero.known.is_zero()


def test_matrix_basics():
    rng = random.Random(9)
    a = rand_poly_matrix(rng, 3)
    ident = LaurentMatrix.identity(3)
    assert a @ ident == a
    assert ident @ a == a
    assert (a + a) - a == a
    assert a.transpose().transpose() == a
    with pytest.raises(DomainError):
        a @ LaurentMatrix.identity(2)


def test_kron_positions():
    rng = random.Random(11)
    a = rand_poly_matrix(rng, 2)
    b = rand_poly_matrix(rng, 2)
    k = a.kron(b)
    for i in range(2):
        for j in range(2):
            for x in range(2):
                for y in range(2):
                    assert k.rows[2 * i + x][2 * j + y] == a.rows[i][j] * b.rows[x][y]


def test_determinant_and_adjugate():
    assert h_matrix(2).det() == Laurent.z(1, -1)
    assert h_matrix(3).det() == Laurent.z(1)
    rng = random.Random(13)
    for _ in range(15):
        m = rand_poly_matrix(rng, 3)
        det = m.det()
        prod = m @ m.adjugate()
        for i in range(3):
            for j in range(3):
                assert prod.rows[i][j] == (det if i == j else L_ZERO)


def test_h_matrix_power_law():
    for n in (2, 3, 4):
        h = h_matrix(n)
        zid = LaurentMatrix.build(
            [[Laurent.z() if i == j else L_ZERO for j in range(n)] for i in range(n)]
        )
        assert matrix_power(h, n) == zid
        assert h @ inverse_exact(h) == LaurentMatrix.identity(n)
        assert matrix_power(cyclic_matrix(n), n) == LaurentMatrix.identity(n)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("build", [h_matrix, cyclic_matrix])
def test_shift_matrices_refuse_nonpositive_size(build, n):
    with pytest.raises(DomainError, match="n must be positive"):
        build(n)


def test_inverse_exact_requires_monomial_det():
    with pytest.raises(DomainError):
        inverse_exact(LaurentMatrix.build([[Laurent.const(1) + Laurent.z()]]))
    with pytest.raises(DomainError):
        inverse_exact(LaurentMatrix.build([[L_ZERO]]))
    m = LaurentMatrix.build([[1, 1], [0, 1]])
    assert m @ inverse_exact(m) == LaurentMatrix.identity(2)


def test_sigma_reshuffle_is_a_bijection_of_order_three():
    for n in range(1, 5):
        size = n * n
        # entry (p, q) is the marker p * size + q, so each position is told apart
        markers = LaurentMatrix.build([[p * size + q for q in range(size)] for p in range(size)])
        once = sigma_reshuffle(markers)
        moved = sorted(v.coeff(0) for row in once.rows for v in row)
        assert moved == list(range(size * size))
        assert sigma_reshuffle(sigma_reshuffle(once)) == markers
        assert (once == markers) == (n == 1)


def test_sigma_turns_tensors_into_rank_one():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.choice((2, 3))
        a = rand_poly_matrix(rng, n)
        b = rand_poly_matrix(rng, n)
        shuffled = sigma_reshuffle(a.kron(b.transpose()))
        for p in range(n * n):
            i, j = divmod(p, n)
            for q in range(n * n):
                l, k = divmod(q, n)
                assert shuffled.rows[p][q] == a.rows[i][j] * b.rows[l][k]


def test_xi_matrix():
    xi2 = xi_matrix(2)
    assert xi2[0] == (0, 0, 1, 0)
    assert xi2[1] == (0, 0, 1, 0)
    assert xi2[2] == (-1, -1, 0, -1)
    assert xi2[3] == (0, 0, 1, 0)
    for n in range(1, 6):
        xi = xi_matrix(n)
        for p, row in enumerate(xi):
            assert set(row) <= {-1, 0, 1}
            assert row[p] == 0
            assert all(row[q] == -xi[q][p] for q in range(n * n))


def test_twist_round_trip():
    rng = random.Random(19)
    m = rand_poly_matrix(rng, 3, vmin=-1, vmax=2)
    assert twist(twist(m, 1), -1) == m
    below = twist(LaurentMatrix.build([[1, 0], [1, 1]]), 1)
    assert below.rows[1][0] == Laurent.z()
    assert below.rows[0][0] == L_ONE


def test_rank1_factor_examples():
    col, row = rank1_factor([[1, 2], [2, 4]])
    assert [v.coeffs for v in col] == [{0: 1}, {0: 2}]
    assert [v.coeffs for v in row] == [{0: 1}, {0: 2}]
    assert rank1_factor([[1, 0], [0, 1]]) is None
    col0, row0 = rank1_factor([[0, 0], [0, 0]])
    assert all(v.is_zero() for v in col0)
    assert all(v.is_zero() for v in row0)


def test_rank1_factor_round_trip_and_primitivity():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.choice((2, 3))
        m = rng.choice((2, 3))
        colv = [rand_laurent(rng, 0, 2) for _ in range(n)]
        rowv = [rand_laurent(rng, 0, 2) for _ in range(m)]
        matrix = [[colv[i] * rowv[j] for j in range(m)] for i in range(n)]
        out = rank1_factor(matrix)
        assert out is not None
        col, row = out
        for i in range(n):
            for j in range(m):
                assert col[i] * row[j] == matrix[i][j]
        nz = [v for v in row if not v.is_zero()]
        if nz:
            # the returned row carries no common content: unit gcd
            assert laurent_gcd(list(row)) == L_ONE


def test_rank1_factor_matches_minor_scan():
    rng = random.Random(29)
    for _ in range(80):
        n = rng.choice((2, 3))
        m = LaurentMatrix.build(
            [[rand_laurent(rng, 0, 1) for _ in range(n)] for _ in range(n)]
        )
        minors_vanish = all(
            (
                m.rows[i1][j1] * m.rows[i2][j2] - m.rows[i1][j2] * m.rows[i2][j1]
            ).is_zero()
            for i1 in range(n)
            for i2 in range(i1 + 1, n)
            for j1 in range(n)
            for j2 in range(j1 + 1, n)
        )
        assert (rank1_factor(m.rows) is not None) == minors_vanish


def test_is_pure_tensor_and_is_inner():
    ident4 = LaurentMatrix.identity(4)
    rec = is_inner(ident4)
    assert rec is not None
    assert rec.rows[0][1].is_zero() and rec.rows[1][0].is_zero()
    assert rec.rows[0][0] == rec.rows[1][1]

    a = LaurentMatrix.build([[1, 1], [0, 1]])
    a_inv = inverse_exact(a)
    conj = a.kron(a_inv.transpose())
    rec2 = is_inner(conj)
    assert rec2 is not None
    # recovered up to one scalar: cross ratios agree with a
    ratio = exact_divide(rec2.rows[0][0], a.rows[0][0])
    for i in range(2):
        for j in range(2):
            assert rec2.rows[i][j] == ratio * a.rows[i][j]

    b = LaurentMatrix.build([[2, 0], [0, 2]])
    pure_not_inner = a.kron(b.transpose())
    assert is_pure_tensor(pure_not_inner) is not None
    assert is_inner(pure_not_inner) is None

    rng = random.Random(31)
    rejections = 0
    for _ in range(20):
        m = rand_poly_matrix(rng, 4, 0, 1)
        if is_pure_tensor(m) is None:
            rejections += 1
            assert is_inner(m) is None
    assert rejections >= 15  # random 4x4 matrices essentially never split


def test_inner_recognition_matches_inverse_pairs():
    rng = random.Random(37)
    checked = 0
    while checked < 25:
        a = rand_rational_matrix(rng, 2)
        if a.det().is_zero():
            continue
        checked += 1
        b_good = inverse_exact(a)
        assert is_inner(a.kron(b_good.transpose())) is not None
        b_bad = b_good + LaurentMatrix.identity(2)
        assert (is_inner(a.kron(b_bad.transpose())) is not None) == is_inverse_pair(a, b_bad)


def test_is_parabolic():
    assert is_parabolic(LaurentMatrix.build([[Laurent.z(), L_ZERO], [L_ZERO, L_ONE]]))
    assert not is_parabolic(LaurentMatrix.build([[1, 0], [1, 1]]))
    for n in (2, 3, 4):
        assert is_parabolic(h_matrix(n))
    assert is_parabolic(twist(LaurentMatrix.build([[1, 1], [1, 1]]), 1))


def test_mp_matrix_identity_and_closed_form():
    for n in (2, 3):
        ident = LaurentMatrix.identity(n)
        assert mp_matrix(ident, ident) == LaurentMatrix.identity(n * n)
    rng = random.Random(41)
    for _ in range(25):
        n = rng.choice((2, 3))
        a = rand_poly_matrix(rng, n, -1, 2)
        b = rand_poly_matrix(rng, n, -1, 2)
        assert mp_matrix(a, b) == mp_closed_form(a, b)
    with pytest.raises(DomainError):
        mp_matrix(LaurentMatrix.identity(2), LaurentMatrix.identity(3))


def test_mp_matrix_functorial():
    rng = random.Random(43)
    for _ in range(20):
        n = rng.choice((2, 3))
        a1, a2, b1, b2 = (rand_poly_matrix(rng, n, 0, 1) for _ in range(4))
        lhs = mp_matrix(a1 @ a2, b2 @ b1)
        rhs = mp_matrix(a1, b1) @ mp_matrix(a2, b2)
        assert lhs == rhs


def test_mp_of_h_pair_is_permutation():
    for n in (2, 3):
        h = h_matrix(n)
        mp = mp_matrix(h, inverse_exact(h))
        p = cyclic_matrix(n)
        assert mp == p.kron(p)
    for n in (2, 3, 4):
        h = h_matrix(n)
        mp = mp_matrix(h, inverse_exact(h))
        assert matrix_power(mp, n) == LaurentMatrix.identity(n * n)


def test_hecke_check_h_matrix():
    rep = hecke_conjugation_check(h_matrix(3))
    assert rep.integral
    assert rep.parabolic_input
    assert rep.det_valuation == 1
    assert rep.k == 1
    assert rep.offenders == ()


def test_hecke_check_diag_counterexample():
    a = LaurentMatrix.build([[Laurent.z(), L_ZERO], [L_ZERO, L_ONE]])
    rep = hecke_conjugation_check(a)
    assert not rep.integral
    assert (2, 2, -1) in rep.offenders
    assert rep.det_valuation == 1


def test_hecke_check_nonmonomial_det():
    a = LaurentMatrix.build([[Laurent.z(), L_ZERO], [L_ZERO, L_ONE - Laurent.z()]])
    rep = hecke_conjugation_check(a)
    assert not rep.integral
    assert (2, 2, -1) in rep.offenders
    with pytest.raises(DomainError):
        hecke_conjugation_check(LaurentMatrix.build([[L_ZERO]]))


def _rand_parabolic_invertible(rng, n):
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                v = rand_laurent(rng, 0, 2)
                if v.coeff(0) == 0:
                    v = v + Laurent.const(rng.choice((1, 2, -1)))
                row.append(v)
            elif i > j:
                row.append(rand_laurent(rng, 1, 2))
            else:
                row.append(rand_laurent(rng, 0, 2))
        rows.append(row)
    return LaurentMatrix.build(rows)


def test_hecke_check_random_parabolic():
    rng = random.Random(47)
    for _ in range(15):
        n = rng.choice((2, 3))
        a = _rand_parabolic_invertible(rng, n)
        assert is_parabolic(a)
        assert a.det().coeff(0) != 0
        rep = hecke_conjugation_check(a)
        assert rep.integral
        assert rep.k == 0


def test_hecke_check_unit_below_diagonal():
    rng = random.Random(53)
    found = 0
    while found < 10:
        n = rng.choice((2, 3))
        rows = [[rand_laurent(rng, 0, 1) for _ in range(n)] for _ in range(n)]
        i = rng.randrange(1, n)
        j = rng.randrange(i)
        rows[i][j] = rows[i][j] + Laurent.const(rng.choice((1, 2)))
        a = LaurentMatrix.build(rows)
        det = a.det()
        if det.is_zero() or det.coeff(0) == 0:
            continue
        found += 1
        rep = hecke_conjugation_check(a)
        assert not rep.parabolic_input
        assert not rep.integral
