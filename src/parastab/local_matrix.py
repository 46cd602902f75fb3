"""Exact local models: Laurent polynomial matrices and twisted conjugation.

Endomorphisms of a free module over the local ring are encoded as n^2 x n^2
matrices acting on row-major vectorizations.  A sign pattern of z-exponents
(one per index pair) twists conjugation so that the parabolic stalk algebra
maps onto plain matrices; the twisted conjugation matrix of a pair (A, B)
is integral exactly when conjugation preserves that algebra.  All
computations are exact over the rationals and no series is truncated, so the
Hecke check reports every offending entry with its exact valuation.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partialmethod
from itertools import product
from math import isqrt, lcm
from operator import add, mul, sub
from typing import Optional, Sequence, Union

from .errors import DomainError, Record

Rational = Union[int, Fraction]


class Laurent:
    """Exact Laurent polynomial: a finite map exponent -> nonzero Fraction.

    ``Laurent(coeffs)`` is the checked boundary: int exponents, int or
    Fraction coefficients (a float or any other value is a DomainError),
    zeros dropped.  Arithmetic builds its results through ``_laurent``,
    which takes a map that is already clean.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[dict[int, Rational]] = None) -> None:
        clean: dict[int, Fraction] = {}
        if coeffs:
            for exp, val in coeffs.items():
                if not isinstance(exp, int):
                    raise DomainError(f"expected an integer exponent, got {exp!r}")
                frac = _rational(val)
                if frac:
                    clean[int(exp)] = frac
        self.coeffs = clean

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(value: Rational) -> "Laurent":
        return Laurent({0: value})

    @staticmethod
    def z(exp: int = 1, coeff: Rational = 1) -> "Laurent":
        return Laurent({exp: coeff})

    # -- structure ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self) -> Optional[int]:
        return min(self.coeffs) if self.coeffs else None

    def degree(self) -> Optional[int]:
        return max(self.coeffs) if self.coeffs else None

    def coeff(self, exp: int) -> Fraction:
        return self.coeffs.get(exp, Fraction(0))

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    def shift(self, exp: int) -> "Laurent":
        return _laurent({e + exp: c for e, c in self.coeffs.items()})

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            if e in out:
                c += out[e]
                if not c:
                    del out[e]
                    continue
            out[e] = c
        return _laurent(out)

    def __neg__(self) -> "Laurent":
        return _laurent({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        return _dot((self,), (other,))

    def scale(self, value: Rational) -> "Laurent":
        frac = _rational(value)
        if not frac:
            return L_ZERO
        return _laurent({e: c * frac for e, c in self.coeffs.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Laurent(0)"
        parts = [f"{c}*z^{e}" for e, c in sorted(self.coeffs.items())]
        return "Laurent(" + " + ".join(parts) + ")"


def _rational(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise DomainError(f"expected a rational coefficient, got {value!r}")


def _laurent(coeffs: dict[int, Fraction]) -> Laurent:
    """A Laurent that owns ``coeffs``: int keys, nonzero Fraction values, unchecked."""
    out = object.__new__(Laurent)
    out.coeffs = coeffs
    return out


L_ZERO = Laurent()
L_ONE = Laurent.const(1)


def _poly_divmod(num: Laurent, den: Laurent) -> tuple[Laurent, Laurent]:
    """Long division of polynomials (nonnegative exponents only); ``den`` is nonzero."""
    rem = dict(num.coeffs)
    quo: dict[int, Fraction] = {}
    ddeg = den.degree()
    dlead = den.coeff(ddeg)
    while rem:
        rdeg = max(rem)
        if rdeg < ddeg:
            break
        factor = rem[rdeg] / dlead
        quo[rdeg - ddeg] = factor
        for e, c in den.coeffs.items():
            key = e + rdeg - ddeg
            val = rem.get(key, 0) - factor * c
            if val:
                rem[key] = val
            else:
                rem.pop(key, None)
    return _laurent(quo), _laurent(rem)


def exact_divide(num: Laurent, den: Laurent) -> Optional[Laurent]:
    """Exact quotient in the Laurent ring, or None when it does not exist."""
    if den.is_zero():
        raise DomainError("division by zero")
    if num.is_zero():
        return L_ZERO
    vn, vd = num.valuation(), den.valuation()
    quo, rem = _poly_divmod(num.shift(-vn), den.shift(-vd))
    if not rem.is_zero():
        return None
    return quo.shift(vn - vd)


def laurent_gcd(values: Sequence[Laurent]) -> Laurent:
    """Content of a list: z^(min valuation) times the monic polynomial gcd."""
    nonzero = [v for v in values if not v.is_zero()]
    if not nonzero:
        return L_ZERO
    vmin = min(v.valuation() for v in nonzero)
    acc = L_ZERO
    for v in nonzero:
        # Euclid on (acc, entry) ends on a nonzero polynomial, since the entry is nonzero
        a, b = acc, v.shift(-v.valuation())
        while b.coeffs:
            a, b = b, _poly_divmod(a, b)[1]
        acc = a.scale(1 / a.coeff(a.degree()))
        if acc == L_ONE:
            break
    return acc.shift(vmin)


class LaurentMatrix(Record):
    """Immutable matrix with exact Laurent entries."""

    rows: tuple[tuple[Laurent, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows or not self.rows[0]:
            raise DomainError("matrix must be nonempty")
        width = len(self.rows[0])
        if any(len(row) != width for row in self.rows):
            raise DomainError("ragged matrix")

    @staticmethod
    def build(entries: Sequence[Sequence[Union[Laurent, Rational]]]) -> "LaurentMatrix":
        return LaurentMatrix(
            tuple(
                tuple(v if isinstance(v, Laurent) else Laurent.const(v) for v in row)
                for row in entries
            )
        )

    @staticmethod
    def identity(n: int) -> "LaurentMatrix":
        return LaurentMatrix.build([[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def transpose(self) -> "LaurentMatrix":
        return LaurentMatrix(tuple(zip(*self.rows)))

    def _entrywise(self, op, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DomainError("matrix shape mismatch")
        return LaurentMatrix(
            tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(self.rows, other.rows))
        )

    __add__ = partialmethod(_entrywise, add)
    __sub__ = partialmethod(_entrywise, sub)

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.ncols != other.nrows:
            raise DomainError("matrix shape mismatch")
        cols = other.transpose().rows
        return LaurentMatrix(
            tuple(tuple(_dot(row, col) for col in cols) for row in self.rows)
        )

    def kron(self, other: "LaurentMatrix") -> "LaurentMatrix":
        out = []
        for r1 in self.rows:
            for r2 in other.rows:
                out.append(tuple(a * b if a.coeffs else L_ZERO for a in r1 for b in r2))
        return LaurentMatrix(tuple(out))

    def det(self) -> Laurent:
        return self.det_adjugate[0]

    def adjugate(self) -> "LaurentMatrix":
        return self.det_adjugate[1]

    @cached_property
    def det_adjugate(self) -> tuple[Laurent, "LaurentMatrix"]:
        """Determinant and adjugate from one characteristic polynomial (cached).

        Berkowitz's recursion (1984) builds det(t*I - A) = t^n + c_1 t^(n-1)
        + ... + c_n from the bottom-right corner up: the block from (k, k)
        down, with corner a, rest of row R, rest of column C and trailing
        block A', has the lower-triangular Toeplitz matrix with first column
        (1, -a, -R C, -R A' C, -R A'^2 C, ...) times the polynomial of A'.
        Cayley-Hamilton then gives adj(A) = (-1)^(n+1) (A^(n-1) + c_1 A^(n-2)
        + ... + c_(n-1) I) by Horner's rule.  O(n^4) ring operations and no
        division, so singular matrices need no separate path.

        The ring operations run on Python ints (Kronecker substitution, see
        ``_packed``) and are read back here.  When the matrix is too wide to
        pack, the same recursion runs on the Laurent entries instead.
        """
        packed = self._packed
        if packed is None:
            det, adj = _berkowitz(self.rows, L_ONE, L_ZERO, _dot)
            return det, LaurentMatrix(tuple(map(tuple, adj)))
        det, adj, den, low, width = packed
        n = self.nrows
        scale, shift = den ** (n - 1), (n - 1) * low
        return _unpack(det, width, scale * den, shift + low), LaurentMatrix(
            tuple(tuple(_unpack(v, width, scale, shift) for v in row) for row in adj)
        )

    @cached_property
    def _packed(self) -> Optional[tuple[int, list[list[int]], int, int, int]]:
        """(det(P), adj(P) rows, den, m, B) at z = 2^B, or None when too wide to pack (cached).

        With den the lcm of all coefficient denominators and m the least
        exponent, each entry becomes P = z^(-m) * den * A, a polynomial
        with integer coefficients, evaluated at z = 2^B.  Evaluation is a
        ring map, so the recursion yields det(P) and adj(P) at 2^B, and
        det(A) = z^(nm) det(P) / den^n, adj(A) = z^((n-1)m) adj(P) / den^(n-1).
        Only the final coefficients need to fit a balanced base-2^B digit:
        each is bounded by prod_i max(1, sum_j |P_ij|_1) (a permanent of
        1-norms bounds every minor), and B is two bits above that bound,
        rounded up to whole bytes.  When n * span * B exceeds
        _PACK_LIMIT_BITS times the most terms any entry holds (a sparse
        entry such as z^(10^6)), this is None.
        """
        if self.nrows != self.ncols:
            raise DomainError("determinant and adjugate need a square matrix")
        packing = _packing(self.rows)
        if packing is None:
            return None
        den, low, width = packing
        ints = [[_pack(e, den, low, width) for e in row] for row in self.rows]
        return (*_berkowitz(ints, 1, 0, _int_dot), den, low, width)


def _berkowitz(rows, one, zero, dot) -> tuple:
    """Determinant and adjugate rows over any commutative ring (see det_adjugate).

    ``dot`` sums pairwise products; ``one`` and ``zero`` are the ring's
    multiplicative and additive identities.
    """
    n = len(rows)
    poly = [one]
    for k in range(n - 1, -1, -1):
        below = [row[k + 1:] for row in rows[k + 1:]]
        vec = [row[k] for row in rows[k + 1:]]
        col = [one, -rows[k][k]]
        for step in range(n - k - 1):
            if step:
                vec = [dot(row, vec) for row in below]
            col.append(-dot(rows[k][k + 1:], vec))
        poly = [dot(col[i::-1], poly[: i + 1]) for i in range(len(poly) + 1)]
    cols = list(zip(*rows))
    q = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for c in poly[1:n]:
        q = [[dot(row, col) for col in cols] for row in q]
        for i in range(n):
            q[i][i] = q[i][i] + c
    if n % 2:
        return -poly[n], q
    return poly[n], [[-v for v in row] for row in q]


def _dot(xs: Sequence[Laurent], ys: Sequence[Laurent], shift: int = 0) -> Laurent:
    """z^shift times the sum of the pairwise products, accumulated in one coefficient map."""
    out: dict[int, Fraction] = {}
    for x, y in zip(xs, ys):
        for e1, c1 in x.coeffs.items():
            e1 += shift
            for e2, c2 in y.coeffs.items():
                e = e1 + e2
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return _laurent({e: c for e, c in out.items() if c})


def _int_dot(xs: Sequence[int], ys: Sequence[int]) -> int:
    return sum(map(mul, xs, ys))


# A packed int is about n * span * B bits long however sparse the entries
# are, so an entry like z^(10^6) would cost megabytes per int, while the
# Laurent entries' cost follows their number of terms.  So the recursion
# packs while the packed size per term of the densest entry stays within
# this limit: a dense entry with 30 terms over 0..299 stays packed, a
# sparse span such as z^(10^6) runs on the Laurent entries.
_PACK_LIMIT_BITS = 1 << 16


def _packing(
    rows: Sequence[Sequence[Laurent]],
) -> Optional[tuple[int, int, int]]:
    """(den, least exponent, digit width B) for packing, or None when too wide."""
    entries = [e.coeffs for row in rows for e in row if e.coeffs]
    if not entries:
        return 1, 0, 8
    den = lcm(*(c.denominator for coeffs in entries for c in coeffs.values()))
    low = min(min(coeffs) for coeffs in entries)
    span = max(max(coeffs) for coeffs in entries) - low + 1
    bound = 1
    for row in rows:
        norm = sum(
            abs(c.numerator) * (den // c.denominator) for e in row for c in e.coeffs.values()
        )
        bound *= max(1, norm)
    width = (bound.bit_length() + 9) // 8 * 8
    if len(rows) * span * width > _PACK_LIMIT_BITS * max(map(len, entries)):
        return None
    return den, low, width


def _pack(entry: Laurent, den: int, low: int, width: int) -> int:
    """z^(-low) * den * entry evaluated at z = 2^width."""
    return sum(
        c.numerator * (den // c.denominator) << width * (e - low)
        for e, c in entry.coeffs.items()
    )


def _unpack(value: int, width: int, scale: int, shift: int) -> Laurent:
    """z^shift / scale times the polynomial whose balanced base-2^width digits form ``value``.

    Adding 2^(width-1) to every digit makes all digits nonnegative without
    a carry, so one ``to_bytes`` reads them all in linear time.  Every
    digit is below 2^(width - 2) in size, so the top nonzero one sits at
    index bit_length // width or below.
    """
    size = width // 8
    digits = abs(value).bit_length() // width + 1
    half = 1 << (width - 1)
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * digits, "little")
    raw = (value + offset).to_bytes(digits * size, "little")
    coeffs = {}
    for k in range(digits):
        c = int.from_bytes(raw[k * size:(k + 1) * size], "little") - half
        if c:
            coeffs[k + shift] = Fraction(c, scale)
    return _laurent(coeffs)


def _int_valuation(value: int, width: int, shift: int) -> Optional[int]:
    """Valuation of what ``_unpack(value, width, scale, shift)`` returns, read off the int.

    The lowest nonzero balanced digit d_k is below 2^(width - 2) in size,
    so value = 2^(k * width) * (d_k + 2^width * rest) has fewer than
    width trailing zeros past k * width.
    """
    return ((value & -value).bit_length() - 1) // width + shift if value else None


def inverse_exact(m: LaurentMatrix) -> LaurentMatrix:
    """Exact inverse; requires the determinant to be a single monomial."""
    det, adj = m.det_adjugate
    if det.is_zero():
        raise DomainError("matrix is singular")
    if not det.is_monomial():
        raise DomainError("determinant is not a monomial")
    exp = det.valuation()
    inv_det = Laurent.z(-exp, 1 / det.coeff(exp))
    return LaurentMatrix.build([[v * inv_det for v in row] for row in adj.rows])


# ---------------------------------------------------------------------------
# index bookkeeping: the index pair (i, j), zero based, sits at i * n + j


def xi_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Exponent pattern: entry (i*n + j, k*n + l) equals -[j<i] + [l<k]."""
    if n < 1:
        raise DomainError("n must be positive")
    below = [int(j < i) for i, j in product(range(n), repeat=2)]
    return tuple(tuple(bq - bp for bq in below) for bp in below)


def sigma_reshuffle(m: LaurentMatrix) -> LaurentMatrix:
    """The reshuffle: entry (i*n + k, j*n + l) moves to (i*n + j, l*n + k).

    It regroups a tensor square so that pure conjugation tensors become
    genuine rank-1 matrices.
    """
    size = m.nrows
    n = isqrt(size)
    if n * n != size:
        raise DomainError(f"{size} is not a perfect square")
    if m.ncols != size:
        raise DomainError("expected a square n^2 x n^2 matrix")
    rows = m.rows
    return LaurentMatrix(
        tuple(
            tuple(rows[i * n + k][j * n + l] for l in range(n) for k in range(n))
            for i in range(n)
            for j in range(n)
        )
    )


# ---------------------------------------------------------------------------
# rank-1 factorization and tensor recognition


def rank1_factor(
    entries: Sequence[Sequence[Union[Laurent, Rational]]],
) -> Optional[tuple[tuple[Laurent, ...], tuple[Laurent, ...]]]:
    """Write M as column * row, or None when the matrix has rank above 1.

    The zero matrix factors as a pair of zero vectors.  Over polynomials the
    row is made primitive (content split off into the column), so the
    factorization is unique up to a unit.
    """
    m = LaurentMatrix.build(entries)
    pivot = next((row for row in m.rows if any(v.coeffs for v in row)), None)
    if pivot is None:
        return (L_ZERO,) * m.nrows, (L_ZERO,) * m.ncols
    # the content divides every entry of its own row, so each quotient exists
    content = laurent_gcd(pivot)
    base = tuple(exact_divide(v, content) for v in pivot)
    pivot_col = next(j for j, v in enumerate(base) if v.coeffs)
    col = []
    for row in m.rows:
        quot = exact_divide(row[pivot_col], base[pivot_col])
        if quot is None:
            return None
        col.append(quot)
    if any(c * r != v for c, row in zip(col, m.rows) for r, v in zip(base, row)):
        return None
    return tuple(col), base


def is_pure_tensor(
    m: LaurentMatrix,
) -> Optional[tuple[LaurentMatrix, LaurentMatrix]]:
    """Recognize M as (A tensor B^t) under the reshuffle."""
    factored = rank1_factor(sigma_reshuffle(m).rows)
    if factored is None:
        return None
    n = isqrt(m.nrows)
    # entry i*n + j of each factor vector is entry (i, j) of its matrix
    return tuple(
        LaurentMatrix(tuple(vec[p:p + n] for p in range(0, n * n, n))) for vec in factored
    )


def inner_factor(pair: tuple[LaurentMatrix, LaurentMatrix]) -> Optional[LaurentMatrix]:
    """A when the factors (A, B) of ``is_pure_tensor`` are inverse, so M is conjugation by A."""
    a, b = pair
    # over the commutative ring Q[z, 1/z], AB = I gives det A det B = 1, so B = A^-1
    return a if a @ b == LaurentMatrix.identity(a.nrows) else None


def is_inner(m: LaurentMatrix) -> Optional[LaurentMatrix]:
    """Extract A when M is conjugation by A; None otherwise."""
    pair = is_pure_tensor(m)
    return None if pair is None else inner_factor(pair)


# ---------------------------------------------------------------------------
# twisted conjugation


def twist(m: LaurentMatrix, direction: int = 1) -> LaurentMatrix:
    """Scale every strictly-below-diagonal entry by z^direction."""
    return LaurentMatrix(
        tuple(
            tuple(
                v.shift(direction) if i > j else v for j, v in enumerate(row)
            )
            for i, row in enumerate(m.rows)
        )
    )


def mp_closed_form(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    """Matrix of the twisted conjugation X -> untwist(A . twist(X) . B).

    Entrywise z^xi . (A tensor B^t): the Kronecker product shifted by the
    exponent pattern.
    """
    n = a.nrows
    if a.ncols != n or b.nrows != n or b.ncols != n:
        raise DomainError("expected two square matrices of equal size")
    xi = xi_matrix(n)
    return LaurentMatrix(
        tuple(
            tuple(
                _dot((x,), (y,), e) if x.coeffs else L_ZERO
                for (x, y), e in zip(product(row_a, row_b), shifts)
            )
            for (row_a, row_b), shifts in zip(product(a.rows, b.transpose().rows), xi)
        )
    )


def _shift_matrix(n: int, corner: Laurent) -> LaurentMatrix:
    """The cyclic shift (ones just above the diagonal) with ``corner`` at bottom left."""
    if n < 1:
        raise DomainError("n must be positive")
    rows = [[int(j == i + 1) for j in range(n)] for i in range(n - 1)]
    return LaurentMatrix.build([*rows, [corner] + [0] * (n - 1)])


def h_matrix(n: int) -> LaurentMatrix:
    """The cyclic shift with a z in the corner; its n-th power is z times the identity."""
    return _shift_matrix(n, Laurent.z(1))


def cyclic_matrix(n: int) -> LaurentMatrix:
    """The plain cyclic permutation matrix (the z in the corner replaced by 1)."""
    return _shift_matrix(n, L_ONE)


def is_parabolic(m: LaurentMatrix) -> bool:
    """Integral entries with positive valuation strictly below the diagonal."""
    return all(
        v.valuation() >= (i > j)
        for i, row in enumerate(m.rows) for j, v in enumerate(row) if v.coeffs
    )


class HeckeReport(Record):
    """Outcome of conjugating the parabolic stalk algebra by a matrix."""

    n: int
    parabolic_input: bool
    det_valuation: int
    k: int
    integral: bool
    offenders: tuple[tuple[int, int, int], ...]


def hecke_conjugation_check(a: LaurentMatrix) -> HeckeReport:
    """Check whether conjugation by ``a`` preserves the parabolic stalk algebra.

    Reports integrality of the twisted conjugation matrix of (a, a^{-1}),
    the determinant valuation and its residue k modulo n, and the offending
    positions (row, column, exponent) when integrality fails.

    Entry ((x, y), (c, d)) of that matrix is a[x][c] * inv[d][y] *
    z^([d<c] - [y<x]), and only its valuation matters.  With v = val(det),
    inv[d][y] = adj[d][y] * z^(-v) * u^(-1) for a power series u with
    nonzero constant term, so it has valuation val(adj[d][y]) - v.  The
    Laurent series ring is a domain: the entry is nonzero exactly when both
    factors are, with valuation val(a[x][c]) + val(adj[d][y]) - v + [d<c]
    - [y<x], and it is an offender when that is negative.  No inverse or
    conjugation matrix is built, and no series is truncated, so the report
    is exact whether or not the determinant is a monomial.
    """
    n = a.nrows
    if a.ncols != n:
        raise DomainError("expected a square matrix")
    v, val_adj = _det_adjugate_valuations(a)
    if v is None:
        raise DomainError("matrix is singular")
    # (c, val a[x][c]) over the nonzero entries of each row x of a, and
    # (d, val inv[d][y]) over those of each column y of the inverse
    rows_a = [[(c, e.valuation()) for c, e in enumerate(row) if e.coeffs] for row in a.rows]
    cols_inv = [
        [(d, e - v) for d, e in enumerate(col) if e is not None] for col in zip(*val_adj)
    ]
    offenders = tuple(
        (x * n + y, c * n + d, e)
        for x, row in enumerate(rows_a)
        for y, col in enumerate(cols_inv)
        for c, ea in row
        for d, ei in col
        if (e := ea + ei + (d < c) - (y < x)) < 0
    )
    return HeckeReport(n, is_parabolic(a), v, v % n, not offenders, offenders)


def _det_adjugate_valuations(a: LaurentMatrix) -> tuple[Optional[int], list[list[Optional[int]]]]:
    """val(det) and each adjugate entry's valuation (None for zero), read off
    the packed ints when the matrix packs, so no entry is unpacked."""
    packed = a._packed
    if packed is None:
        det, adj = a.det_adjugate
        return det.valuation(), [[e.valuation() for e in row] for row in adj.rows]
    det, adj, _, low, width = packed
    shift = (a.nrows - 1) * low
    return _int_valuation(det, width, shift + low), [
        [_int_valuation(e, width, shift) for e in row] for row in adj
    ]
