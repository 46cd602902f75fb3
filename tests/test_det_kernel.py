"""Division-free det/adjugate and the Hecke check against the old paths.

The oracles are the Leibniz determinant, the cofactor adjugate and the
entry-by-entry Hecke check over truncated series.  Matrices mix negative
exponents, zero entries and rows that are Laurent multiples of row 0, so
singular and rank-deficient cases (adjugate zero below rank n - 1) occur
often.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from parastab import (
    DomainError,
    Laurent,
    LaurentMatrix,
    PrecisionError,
    h_matrix,
    hecke_conjugation_check,
)
from parastab.local_matrix import L_ZERO

COEFFS = st.sampled_from([Fraction(c) for c in (1, -1, 2, -3, "1/2", "-2/3")])


def laurents(lo: int, hi: int):
    return st.dictionaries(st.integers(lo, hi), COEFFS, max_size=3).map(Laurent)


@st.composite
def matrices(draw, max_size: int):
    n = draw(st.integers(1, max_size))
    lo = draw(st.integers(-2, 0))
    rows = [[draw(laurents(lo, lo + 2)) for _ in range(n)] for _ in range(n)]
    for i in range(1, draw(st.integers(0, n - 1)) + 1):
        factor = draw(laurents(-1, 1))
        rows[i] = [factor * v for v in rows[0]]
    return LaurentMatrix.build(rows)


def outcome(check, a: LaurentMatrix, precision: int):
    try:
        return check(a, precision)
    except DomainError as exc:
        return type(exc), str(exc)


@settings(max_examples=80)
@given(matrices(5))
@example(LaurentMatrix.build([[L_ZERO]]))
@example(LaurentMatrix.build([[0, 0], [0, 0]]))
@example(h_matrix(5))
def test_det_and_adjugate_match_leibniz(m):
    det, adj = m.det(), m.adjugate()
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


@settings(max_examples=120)
@given(matrices(4), st.integers(1, 8))
@example(h_matrix(3), 1)
@example(LaurentMatrix.build([[Laurent.z(), L_ZERO], [L_ZERO, Laurent({0: 1, 1: -1})]]), 1)
@example(LaurentMatrix.build([[Laurent.z(), L_ZERO], [L_ZERO, Laurent({0: 1, 1: -1})]]), 8)
def test_hecke_check_matches_loop_oracle(a, precision):
    assert outcome(hecke_conjugation_check, a, precision) == outcome(
        oracles.hecke_conjugation_check, a, precision
    )


def test_hecke_oracle_inputs_reach_every_outcome():
    """The generator above reaches reports on both paths and PrecisionError."""
    seen = set()

    @settings(max_examples=150)
    @given(matrices(4), st.integers(1, 8))
    def collect(a, precision):
        try:
            report = hecke_conjugation_check(a, precision)
        except PrecisionError:
            seen.add("precision")
            return
        except DomainError:
            return
        seen.add("monomial" if a.det().is_monomial() else "series")
        seen.add("integral" if report.integral else "offenders")

    collect()
    assert seen == {"precision", "monomial", "series", "integral", "offenders"}


@pytest.mark.parametrize("precision", [0, -3])
@pytest.mark.parametrize(
    "a",
    [h_matrix(3), LaurentMatrix.build([[Laurent.z(), L_ZERO], [L_ZERO, Laurent({0: 1, 1: -1})]])],
    ids=["monomial", "series"],
)
def test_hecke_check_rejects_nonpositive_precision(a, precision):
    with pytest.raises(DomainError) as info:
        hecke_conjugation_check(a, precision)
    assert not isinstance(info.value, PrecisionError)
    assert str(info.value) == "precision must be positive"
