"""Packed det/adjugate and the valuation Hecke check against the old paths.

The oracles are the Fraction Berkowitz kernel, the Leibniz determinant, the
cofactor adjugate and the entry-by-entry Hecke check over truncated series.
Matrices mix negative exponents, zero entries, zero rows and rows that are
Laurent multiples of row 0.  The det/adjugate test draws mostly singular and
rank-deficient matrices (adjugate zero below rank n - 1); the Hecke tests
draw mostly nonsingular ones, which the check compares, and keep explicit
singular examples.  Coefficients near +-2^64 over the
coprime denominators 7, 11 and 13, with mixed signs, make the packed digit
width and the balanced-digit borrows do real work.
"""

from __future__ import annotations

import json
import random
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import matrix_power
from parastab import (
    DomainError,
    Laurent,
    LaurentMatrix,
    h_matrix,
    hecke_conjugation_check,
    local_matrix,
)
from parastab.cli import main
from parastab.local_matrix import _PACK_LIMIT_BITS, L_ZERO, _det_adjugate_valuations, _packing

WIDE = st.builds(
    lambda sign, num, den: Fraction(sign * num, den),
    st.sampled_from([1, -1]),
    st.integers(2**64 - 3, 2**64 + 3),
    st.sampled_from([7, 11, 13]),
)
COEFFS = st.sampled_from([Fraction(c) for c in (1, -1, 2, -3, "1/2", "-2/3")])


def laurents(lo: int, hi: int, coeffs=COEFFS, min_size: int = 0):
    entries = st.dictionaries(st.integers(lo, hi), coeffs, min_size=min_size, max_size=3)
    return entries.map(Laurent)


@st.composite
def matrices(draw, max_size: int, mostly_nonsingular: bool = False):
    """Square Laurent matrices of size 1..max_size.

    Any entry may be zero, and rows 1..k repeat row 0 up to any Laurent
    factor for k drawn from 0..n - 1, so most draws are rank-deficient.
    With ``mostly_nonsingular`` the diagonal is nonzero, only about one draw
    in four repeats row 0 (up to nonzero factors) and fewer get a zero row:
    hypothesis draws an integer's upper bound less often than its lower.
    """
    n = draw(st.integers(1, max_size))
    lo = draw(st.integers(-2, 0))
    coeffs = COEFFS | WIDE if draw(st.booleans()) else COEFFS
    nonzero = int(mostly_nonsingular)
    rows = [
        [draw(laurents(lo, lo + 2, coeffs, nonzero * (i == j))) for j in range(n)]
        for i in range(n)
    ]
    if not mostly_nonsingular:
        repeats = draw(st.integers(0, n - 1))
    else:
        repeats = draw(st.integers(1, n - 1)) if n > 1 and draw(st.integers(0, 3)) == 3 else 0
    for i in range(1, repeats + 1):
        factor = draw(laurents(-1, 1, min_size=nonzero))
        rows[i] = [factor * v for v in rows[0]]
    if draw(st.integers(0, 9)) == 9 * nonzero:
        rows[draw(st.integers(0, n - 1))] = [L_ZERO] * n
    return LaurentMatrix.build(rows)


def unitriangular(n: int, entries: dict) -> LaurentMatrix:
    return LaurentMatrix.build(
        [[1 if i == j else entries.get((i, j), 0) for j in range(n)] for i in range(n)]
    )


def diagonal(*entries) -> LaurentMatrix:
    n = len(entries)
    return LaurentMatrix.build([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


Z = Laurent.z()
# Benchmark-sized inputs: a monomial determinant (powers of the shift
# matrix, with offenders once a column is scaled by z^-1) and a determinant
# z^v (1 + c z) that takes the series path, with offenders.
H5_SCALED = matrix_power(h_matrix(5), 7) @ diagonal(Laurent.z(-1), 1, 1, 1, 1)
SERIES5 = (
    unitriangular(
        5, {(0, 2): Laurent.z(-1), (1, 3): Laurent({0: 1, 1: 2}), (3, 4): Laurent.z(-1, 3)}
    )
    @ diagonal(Laurent({0: 1, 1: 3}), Z, 1, Z, 1)
    @ unitriangular(5, {(i + 1, i): Z for i in range(4)})
)
SERIES6 = (
    unitriangular(6, {(0, 1): 2, (2, 4): Z})
    @ diagonal(Laurent({0: 1, 1: -2}), 1, Z, 1, 1, Z)
    @ unitriangular(6, {(i + 1, i): Z for i in range(5)})
)
# Exponent spans far past the packing limit: the Laurent-entry fallback.
WIDE_SPAN = LaurentMatrix.build(
    [
        [Laurent.z(10**6), 1, 0],
        [2, Laurent.z(-3), Fraction(1, 7)],
        [0, Laurent({0: 1, 1: 1}), Laurent.z(10**9, -5)],
    ]
)


def wide_series(e: int) -> LaurentMatrix:
    """Determinant z - 2, not a monomial, with offenders down to 1 - 2e."""
    return LaurentMatrix.build([[1, Laurent.z(-e)], [Laurent.z(e, 3), Laurent({0: 1, 1: 1})]])


def outcome(check, *args):
    try:
        return check(*args)
    except DomainError as exc:
        return type(exc), str(exc)


@settings(max_examples=80)
@given(matrices(6))
@example(LaurentMatrix.build([[L_ZERO]]))
@example(LaurentMatrix.build([[0, 0], [0, 0]]))
@example(h_matrix(5))
@example(WIDE_SPAN)
def test_det_and_adjugate_match_leibniz(m):
    """Equal to the Fraction Berkowitz kernel up to n = 6, and to Leibniz up to 5."""
    det, adj = m.det(), m.adjugate()
    assert (det, adj) == oracles.berkowitz_det_adjugate(m)
    if m.nrows <= 5:
        assert det == oracles.det(m)
        assert adj == oracles.adjugate(m)
    n = m.nrows
    scalar = LaurentMatrix.build([[det if i == j else 0 for j in range(n)] for i in range(n)])
    assert m @ adj == scalar
    assert adj @ m == scalar


def test_det_and_adjugate_need_a_square_matrix():
    m = LaurentMatrix.build([[1, 2, 3]])
    for call in (m.det, m.adjugate):
        with pytest.raises(DomainError):
            call()


@settings(max_examples=80)
@given(matrices(6))
@example(LaurentMatrix.build([[L_ZERO]]))
@example(LaurentMatrix.build([[0, 0], [0, 0]]))
@example(WIDE_SPAN)
@example(wide_series(10**6))
def test_packed_valuations_match_the_unpacked_entries(m):
    """val(det) and the adjugate's valuations, read off the packed ints, are
    those of the unpacked entries (the Laurent entries' own where the matrix
    is too wide to pack)."""
    det, adj = m.det_adjugate
    expected = det.valuation(), [[e.valuation() for e in row] for row in adj.rows]
    assert _det_adjugate_valuations(m) == expected


@pytest.mark.parametrize(
    "a", [h_matrix(3), H5_SCALED, SERIES5, SERIES6], ids=["h3", "h5-scaled", "series5", "series6"]
)
def test_hecke_check_unpacks_nothing(a, monkeypatch):
    """On the packed path the check reads valuations off the ints: no entry is unpacked."""
    unpacked = []
    monkeypatch.setattr(local_matrix, "_unpack", lambda *args: unpacked.append(args))
    fresh = LaurentMatrix(a.rows)
    assert fresh._packed is not None
    hecke_conjugation_check(fresh)
    assert unpacked == []
    assert "det_adjugate" not in vars(fresh)


# The loop oracle inverts a non-monomial determinant as a truncated series,
# in time linear in its precision; the generators below stay far under this.
ORACLE_PRECISION_CAP = 100


def exact_outcome(a: LaurentMatrix):
    """The library's outcome, and the loop oracle's at the least precision
    that certifies every exponent the library reports."""
    got = outcome(hecke_conjugation_check, a)
    precision = 1
    # a monomial determinant is inverted exactly, at any precision
    if not a.det().is_monomial():
        precision -= min((e for *_, e in getattr(got, "offenders", ())), default=0)
    assert precision <= ORACLE_PRECISION_CAP
    return got, outcome(oracles.hecke_conjugation_check, a, precision)


@settings(max_examples=120)
@given(matrices(4, mostly_nonsingular=True))
@example(h_matrix(3))
@example(LaurentMatrix.build([[Laurent.z(), L_ZERO], [L_ZERO, Laurent({0: 1, 1: -1})]]))
@example(matrix_power(h_matrix(6), 4))
@example(H5_SCALED)
@example(SERIES5)
@example(SERIES6)
@example(LaurentMatrix.build([[L_ZERO]]))
@example(LaurentMatrix.build([[1, Z, 2], [Z, Laurent.z(2), Laurent.z(1, 2)], [0, 1, Z]]))
def test_hecke_check_matches_loop_oracle(a):
    got, expected = exact_outcome(a)
    assert got == expected


def test_hecke_oracle_inputs_reach_every_outcome():
    """The generator above reaches both determinant paths, with and without offenders."""
    seen = set()

    @settings(max_examples=150)
    @given(matrices(4, mostly_nonsingular=True))
    def collect(a):
        try:
            report = hecke_conjugation_check(a)
        except DomainError:
            return
        seen.add("monomial" if a.det().is_monomial() else "series")
        seen.add("integral" if report.integral else "offenders")

    collect()
    assert seen == {"monomial", "series", "integral", "offenders"}


def wide_series_offenders(e: int) -> tuple:
    return ((0, 2, 1 - e), (1, 0, -e), (1, 2, 1 - 2 * e), (1, 3, -e), (3, 2, 1 - e))


def test_wide_series_offenders_match_oracle_at_small_span():
    """The offender pattern asserted at e = 10^6 and 10^9 below, checked by the oracle at e = 5."""
    got, expected = exact_outcome(wide_series(5))
    assert got == expected
    assert got.offenders == wide_series_offenders(5)


@pytest.mark.parametrize("exp", [10**6, 10**9])
@pytest.mark.parametrize(
    "rows",
    [
        lambda e: [[1, Laurent.z(e)], [0, Laurent({0: 1, 1: 1})]],
        lambda e: wide_series(e).rows,
        lambda e: [[Laurent.z(-e), Laurent.z(e)], [0, Laurent.z(3)]],
    ],
    ids=["integral", "precision", "offenders"],
)
def test_wide_exponent_spans_stay_fast(exp, rows):
    """Sparse entries with huge exponents never become huge packed ints.

    The "precision" case has a non-monomial determinant and offenders near
    -2e, far past what the series oracle can reach, so its report is checked
    against the pattern the oracle confirms at a small e.
    """
    a = LaurentMatrix.build(rows(exp))
    assert _packing(a.rows) is None
    start = time.perf_counter()
    report = hecke_conjugation_check(a)
    assert time.perf_counter() - start < 1.0
    if a.det().is_monomial() or report.integral:
        assert report == exact_outcome(a)[1]
    else:
        assert report.offenders == wide_series_offenders(exp)
    doc = [[{str(e): str(c) for e, c in v.coeffs.items()} for v in row] for row in a.rows]
    out, saved = StringIO(), sys.stdin
    sys.stdin = StringIO(json.dumps(doc))
    try:
        with redirect_stdout(out):
            code = main(["matrix-hecke", "--json"])
    finally:
        sys.stdin = saved
    assert code == 0
    assert json.loads(out.getvalue()) == {
        **vars(report),
        "offenders": [list(o) for o in report.offenders],
        "precision": 24,
    }


def dense(rng: random.Random, n: int, terms: int, span: int, dens) -> LaurentMatrix:
    """n x n entries, each with ``terms`` nonzero coefficients over exponents 0..span-1."""
    return LaurentMatrix.build(
        [
            [
                Laurent(
                    {
                        e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 20), rng.choice(dens))
                        for e in rng.sample(range(span), terms)
                    }
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


def at(v: Laurent, z: Fraction) -> Fraction:
    return sum((c * z**e for e, c in v.coeffs.items()), Fraction(0))


def test_dense_wide_spans_stay_packed():
    """Dense entries whose packed size passes the fixed limit are still packed.

    The 3 x 3 matrix's packed ints exceed _PACK_LIMIT_BITS (so a size-only
    selector sends it to the Laurent entries) and it matches the Fraction
    kernel; the 5 x 5 one, 30 terms per entry over 0..299, took 36 s on the
    Laurent entries and must take under a second.  It is checked through
    A adj(A) = det(A) I at z = 3/2, as the oracle would take as long.
    """
    rng = random.Random(7)
    assert _packing(WIDE_SPAN.rows) is None
    m = dense(rng, 3, 40, 400, (7, 11, 13))
    packing = _packing(m.rows)
    assert packing is not None and 3 * 400 * packing[2] > _PACK_LIMIT_BITS
    assert m.det_adjugate == oracles.berkowitz_det_adjugate(m)
    big = dense(rng, 5, 30, 300, (1,))
    packing = _packing(big.rows)
    assert packing is not None and 5 * 300 * packing[2] > _PACK_LIMIT_BITS
    start = time.perf_counter()
    det, adj = big.det_adjugate
    assert time.perf_counter() - start < 1.0
    z = Fraction(3, 2)
    a_z = [[at(v, z) for v in row] for row in big.rows]
    adj_z = [[at(v, z) for v in row] for row in adj.rows]
    det_z = at(det, z)
    assert det_z != 0
    for i in range(5):
        for j in range(5):
            assert sum(a_z[i][k] * adj_z[k][j] for k in range(5)) == (det_z if i == j else 0)
