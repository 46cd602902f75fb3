"""Slow, obviously correct reference implementations kept as test oracles.

Each function here is the straightforward per-pattern or per-column version
that the library replaced with a faster shared path; the property tests
compare the two.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, compress, permutations, product
from operator import ne
from typing import Iterator, Optional

from parastab import (
    DomainError,
    GenericityResult,
    GenericityWitness,
    HeckeReport,
    Laurent,
    LaurentMatrix,
    NumTransform,
    ParabolicType,
    WeightSystem,
    apply_to_degree,
    level_denominator,
    max_subdegree,
    normalize,
    numerator_rows,
    owt,
    reduce_dual_rank2,
    twist,
)
from parastab.local_matrix import L_ONE, L_ZERO, _dot
from parastab.weights_core import first_on_wall, pattern_at, picked_sums, wall_grid


class PrecisionError(DomainError):
    """Raised when a truncated series holds too few terms to certify an answer."""


def _certify(bound: int) -> None:
    """A value known below ``bound`` has certified negative part only if bound > 0."""
    if bound <= 0:
        raise PrecisionError(f"cannot certify exponents in [{bound}, 0); raise the precision")


def tau(n: int, i: int, j: int) -> int:
    """Row-major position of the index pair (i, j), all zero based."""
    return i * n + j


def is_inverse_pair(a: LaurentMatrix, b: LaurentMatrix) -> bool:
    """AB = I and BA = I, both products taken."""
    ident = LaurentMatrix.identity(a.nrows)
    return a @ b == ident and b @ a == ident


def is_parabolic(m: LaurentMatrix) -> bool:
    """Entry by entry: each nonzero entry's valuation against its bound."""
    for i, row in enumerate(m.rows):
        for j, v in enumerate(row):
            if v.is_zero():
                continue
            need = 1 if i > j else 0
            if v.valuation() < need:
                return False
    return True


def det(m: LaurentMatrix) -> Laurent:
    """Leibniz expansion: one signed product per permutation, O(n!*n)."""
    if m.nrows != m.ncols:
        raise DomainError("determinant needs a square matrix")
    n = m.nrows
    total = L_ZERO
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = L_ONE
        for i in range(n):
            term = term * m.rows[i][perm[i]]
            if term.is_zero():
                break
        total = total + (term if sign == 1 else -term)
    return total


def minor(m: LaurentMatrix, i: int, j: int) -> LaurentMatrix:
    return LaurentMatrix(
        tuple(
            tuple(v for jj, v in enumerate(row) if jj != j)
            for ii, row in enumerate(m.rows)
            if ii != i
        )
    )


def adjugate(m: LaurentMatrix) -> LaurentMatrix:
    """Transposed cofactor matrix, one Leibniz determinant per minor."""
    if m.nrows != m.ncols:
        raise DomainError("adjugate needs a square matrix")
    n = m.nrows
    if n == 1:
        return LaurentMatrix(((L_ONE,),))
    cof = [[det(minor(m, i, j)).scale((-1) ** (i + j)) for j in range(n)] for i in range(n)]
    return LaurentMatrix(tuple(tuple(cof[j][i] for j in range(n)) for i in range(n)))


def berkowitz_det_adjugate(m: LaurentMatrix) -> tuple[Laurent, LaurentMatrix]:
    """Berkowitz plus Cayley-Hamilton directly on Fraction coefficient maps.

    The characteristic polynomial is built from the bottom-right corner up,
    and Horner's rule on it gives the adjugate; every ring operation is a
    Laurent product, O(n^4) of them.
    """
    if m.nrows != m.ncols:
        raise DomainError("determinant and adjugate need a square matrix")
    n, rows = m.nrows, m.rows
    poly = [L_ONE]
    for k in range(n - 1, -1, -1):
        below = [row[k + 1:] for row in rows[k + 1:]]
        vec = [row[k] for row in rows[k + 1:]]
        col = [L_ONE, -rows[k][k]]
        for step in range(n - k - 1):
            if step:
                vec = [_dot(row, vec) for row in below]
            col.append(-_dot(rows[k][k + 1:], vec))
        poly = [_dot(col[i::-1], poly[: i + 1]) for i in range(len(poly) + 1)]
    q = LaurentMatrix.identity(n)
    for c in poly[1:n]:
        q = q @ m + LaurentMatrix.build([[c if i == j else 0 for j in range(n)] for i in range(n)])
    if n % 2:
        return -poly[n], q
    return poly[n], LaurentMatrix.build([[-v for v in row] for row in q.rows])


def series_inverse(unit: Laurent, precision: int) -> Laurent:
    """Inverse of a power series with nonzero constant term, modulo z^precision."""
    if precision < 1:
        raise DomainError("precision must be positive")
    c0 = unit.coeff(0)
    if not c0 or (unit.valuation() is not None and unit.valuation() < 0):
        raise DomainError("series inverse needs a unit power series")
    inv = {0: 1 / c0}
    for m in range(1, precision):
        acc = Fraction(0)
        for i in range(1, m + 1):
            ci = unit.coeff(i)
            if ci:
                acc += ci * inv.get(m - i, Fraction(0))
        if acc:
            inv[m] = -acc / c0
    return Laurent(inv)


def truncated(value: Laurent, bound: int) -> Laurent:
    """``value`` with all terms of exponent >= bound dropped."""
    return Laurent({e: c for e, c in value.coeffs.items() if e < bound})


def _min_bound(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


@dataclass(frozen=True)
class TruncLaurent:
    """A Laurent value known exactly below ``bound`` (None means fully exact)."""

    known: Laurent
    bound: Optional[int]

    @staticmethod
    def exact(value: Laurent) -> "TruncLaurent":
        return TruncLaurent(value, None)

    def _clip(self) -> "TruncLaurent":
        if self.bound is None:
            return self
        return TruncLaurent(truncated(self.known, self.bound), self.bound)

    def _vlow(self) -> Optional[int]:
        """Lower bound for the true valuation; None means the value is exactly 0."""
        cands = []
        if not self.known.is_zero():
            cands.append(self.known.valuation())
        if self.bound is not None:
            cands.append(self.bound)
        return min(cands) if cands else None

    def __add__(self, other: "TruncLaurent") -> "TruncLaurent":
        bound = _min_bound(self.bound, other.bound)
        return TruncLaurent(self.known + other.known, bound)._clip()

    def __mul__(self, other: "TruncLaurent") -> "TruncLaurent":
        bounds = []
        if self.bound is not None:
            v = other._vlow()
            bounds.append(self.bound + v if v is not None else None)
        if other.bound is not None:
            v = self._vlow()
            bounds.append(other.bound + v if v is not None else None)
        bounds = [b for b in bounds if b is not None]
        bound = min(bounds) if bounds else None
        return TruncLaurent(self.known * other.known, bound)._clip()

    def negative_part(self) -> dict[int, Fraction]:
        """Certified coefficients at negative exponents; raises if uncertifiable."""
        if self.bound is not None:
            _certify(self.bound)
        return {e: c for e, c in self.known.coeffs.items() if e < 0}


def hecke_conjugation_check(a: LaurentMatrix, precision: int) -> HeckeReport:
    """Entry-by-entry twisted conjugation of (a, a^{-1}) over truncated series.

    The inverse comes from the Leibniz determinant and the cofactor
    adjugate; a non-monomial determinant is inverted as a series known
    below ``precision``.  Each of the n^4 products carries its own exponent
    bound and raises PrecisionError when its negative part is not
    certified, so the report is the exact one once ``precision`` exceeds
    minus every entry's valuation.
    """
    n = a.nrows
    if a.ncols != n:
        raise DomainError("expected a square matrix")
    det_a = det(a)
    if det_a.is_zero():
        raise DomainError("matrix is singular")
    v = det_a.valuation()
    adj = adjugate(a)
    if det_a.is_monomial():
        inv_det = TruncLaurent.exact(Laurent.z(-v, 1 / det_a.coeff(v)))
    else:
        unit = det_a.shift(-v)
        inv_det = TruncLaurent.exact(Laurent.z(-v)) * TruncLaurent(
            series_inverse(unit, precision), precision
        )
    inv_rows = [[TruncLaurent.exact(entry) * inv_det for entry in row] for row in adj.rows]
    offenders = []
    for c in range(n):
        for d in range(n):
            for x in range(n):
                av = TruncLaurent.exact(a.rows[x][c])
                for y in range(n):
                    value = av * inv_rows[d][y]
                    exp_shift = (1 if d < c else 0) - (1 if y < x else 0)
                    if exp_shift:
                        value = TruncLaurent(
                            value.known.shift(exp_shift),
                            None if value.bound is None else value.bound + exp_shift,
                        )
                    negative = value.negative_part()
                    if negative:
                        offenders.append((tau(n, x, y), tau(n, c, d), min(negative)))
    return HeckeReport(
        n=n,
        parabolic_input=is_parabolic(a),
        det_valuation=v,
        k=v % n,
        integral=not offenders,
        offenders=tuple(sorted(offenders)),
    )


def mp_matrix(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    """Matrix of the twisted conjugation X -> untwist(A . twist(X) . B).

    Built column by column by pushing each twisted elementary matrix through
    the map itself.
    """
    n = a.nrows
    if a.ncols != n or b.nrows != n or b.ncols != n:
        raise DomainError("expected two square matrices of equal size")
    size = n * n
    out = [[L_ZERO] * size for _ in range(size)]
    for c in range(n):
        for d in range(n):
            unit = [[L_ZERO] * n for _ in range(n)]
            unit[c][d] = L_ONE
            x_in = twist(LaurentMatrix(tuple(tuple(r) for r in unit)), 1)
            y_out = twist(a @ x_in @ b, -1)
            col = tau(n, c, d)
            for x in range(n):
                for y in range(n):
                    out[tau(n, x, y)][col] = y_out.rows[x][y]
    return LaurentMatrix(tuple(tuple(row) for row in out))


@cache
def admissible_types(r: int, n: int) -> tuple[ParabolicType, ...]:
    """All proper patterns, validated, by subrank then per-point 1-based index picks.

    Cached: the patterns depend only on (r, n), and the oracles ask for them
    once per example.
    """
    if r < 2 or n < 1:
        raise DomainError("requires r >= 2 and n >= 1")
    return tuple(
        ParabolicType.from_indices(r, picks)
        for rp in range(1, r)
        for picks in product(combinations(range(1, r + 1), rp), repeat=n)
    )


def fingerprint(r: int, w: WeightSystem, d: int) -> tuple[int, ...]:
    """One max_subdegree per validated admissible pattern."""
    return tuple(max_subdegree(w, d, t) for t in admissible_types(r, w.npoints))


def levels(w: WeightSystem) -> Iterator[tuple[int, tuple[tuple[int, ...], ...], Fraction]]:
    """(subrank, 1-based picks, r' * total - r * owt) per admissible pattern."""
    r = w.rank
    total = w.total()
    for t in admissible_types(r, w.npoints):
        picks = tuple(tuple(i + 1 for i, v in enumerate(row) if v) for row in t.rows)
        yield t.subrank, picks, t.subrank * total - r * owt(w, t)


def first_wall(w: WeightSystem, d=None) -> GenericityResult:
    """The first integer level in canonical order (degree-relevant if d is given)."""
    for rp, picks, value in levels(w):
        if value.denominator == 1 and (d is None or (int(value) + rp * d) % w.rank == 0):
            return GenericityResult(False, GenericityWitness(rp, picks, int(value)))
    return GenericityResult(True, None)


@dataclass(frozen=True)
class Wall:
    """One crossed wall: subrank, 1-based index picks per point, integer level."""

    subrank: int
    pattern: tuple[tuple[int, ...], ...]
    m: int
    relevant: bool


def walls_crossed(r, w1, w2, d, relevant_only=True) -> tuple[Wall, ...]:
    walls = []
    for (rp, picks, val1), (_, _, val2) in zip(levels(w1), levels(w2)):
        for label, val in (("first", val1), ("second", val2)):
            if val.denominator == 1:
                if (int(val) + rp * d) % r == 0 or not relevant_only:
                    raise DomainError(
                        f"{label} weight system lies on wall "
                        f"(subrank {rp}, picks {picks}, level {int(val)})"
                    )
        lo, hi = sorted((val1, val2))
        m = lo.numerator // lo.denominator + 1
        while m < hi:
            relevant = (m + rp * d) % r == 0
            if relevant or not relevant_only:
                walls.append(Wall(subrank=rp, pattern=picks, m=m, relevant=relevant))
            m += 1
    walls.sort(key=lambda wall: (wall.subrank, wall.pattern, wall.m))
    return tuple(walls)


def full_row_levels(rows):
    """Per subrank r' = 1..r-1: (r', the 1-based picks, the lazy integer levels of every pattern).

    The whole block of each subrank, with no complement rule: each level is
    r' * (sum of all entries) - r * (sum of picked entries).
    """
    r = len(rows[0])
    if r < 2:
        raise DomainError("requires r >= 2 and n >= 1")
    total = sum(map(sum, rows))

    def block(rp):
        picks = tuple(combinations(range(1, r + 1), rp))
        picked = [picked_sums(row, picks) for row in rows]
        return rp, picks, map((rp * total).__sub__, map(sum, product(*picked)))

    return map(block, range(1, r))


def wall_crossings(w1, w2, d, relevant_only=True):
    """The integer crossing scan over every pattern of every subrank, lazily.

    (subrank, picks, range of m) per crossing pattern in canonical order;
    an endpoint on a scanned wall raises the error of the earliest such
    pattern, the first system on a tie, when iteration reaches its subrank.
    """
    if w1.rank != w2.rank or w1.npoints != w2.npoints:
        raise DomainError("weight systems must share rank and point count")
    r, n = w1.rank, w1.npoints
    q = level_denominator(w1, w2)

    def block(pair):
        (rp, picks, levels1), (_, _, levels2) = pair
        levels1, levels2 = list(levels1), list(levels2)
        shift, width = wall_grid(r, rp, q, d if relevant_only else None)
        hits = []
        for label, levels in (("first", levels1), ("second", levels2)):
            index = first_on_wall(levels, shift, width)
            if index is not None:
                hits.append((index, label, levels[index]))
        if hits:
            index, label, level = min(hits)
            raise DomainError(
                f"{label} weight system lies on wall "
                f"(subrank {rp}, picks {pattern_at(picks, n, index)}, level {level // q})"
            )
        floors1 = list(map(width.__rfloordiv__, map(shift.__add__, levels1)))
        floors2 = list(map(width.__rfloordiv__, map(shift.__add__, levels2)))
        differ = list(map(ne, floors1, floors2))
        crossing = zip(
            compress(product(picks, repeat=n), differ),
            compress(floors1, differ),
            compress(floors2, differ),
        )
        step, offset = width // q, shift // q
        first = step - offset
        return [
            (rp, combo, range(min(f1, f2) * step + first, max(f1, f2) * step + first, step))
            for combo, f1, f2 in crossing
        ]

    blocks = zip(full_row_levels(numerator_rows(w1, q)), full_row_levels(numerator_rows(w2, q)))
    return chain.from_iterable(map(block, blocks))


def ser_walls(w1, w2, d, relevant_only):
    """The count and text of the CLI's {"m", "picks", "relevant", "subrank"} list.

    One f-string per wall over the full scan's ``wall_crossings``, with one
    picks text per crossing pattern; an m is relevant when it lies on its
    subrank's ``wall_grid`` for degree d at q = 1.
    """
    r = w1.rank
    pick_text = {
        c: "[%s]" % ",".join(map(str, c))
        for rp in range(1, r)
        for c in combinations(range(1, r + 1), rp)
    }.__getitem__
    grid = {rp: wall_grid(r, rp, 1, d) for rp in range(1, r)}
    boolean = ("false", "true")
    walls = [
        f'{{"m":{m},"picks":[{picks}],'
        f'"relevant":{boolean[relevant_only or (m + shift) % width == 0]},"subrank":{rp}}}'
        for rp, combo, levels in wall_crossings(w1, w2, d, relevant_only)
        for shift, width in [grid[rp]]
        for picks in [",".join(map(pick_text, combo))]
        for m in levels
    ]
    return len(walls), "[%s]" % ",".join(walls)


def hecke_weights(w: WeightSystem, hecke) -> WeightSystem:
    """Shift each point's flag by its Hecke value, one Fraction entry at a time."""
    r = w.rank
    if len(hecke) != w.npoints:
        raise DomainError("one Hecke value is required per point")
    if any(not 0 <= h < r for h in hecke):
        raise DomainError("Hecke values must satisfy 0 <= h < r")
    new_rows = []
    for tup, h in zip(w.weights, hecke):
        base = tup[h]
        row = []
        for i in range(1, r + 1):
            if i + h <= r:
                row.append(tup[i + h - 1] - base)
            else:
                row.append(tup[i + h - r - 1] - base + 1)
        new_rows.append(tuple(row))
    return WeightSystem(rank=r, points=w.points, weights=tuple(new_rows))


def dual_weights(w: WeightSystem) -> WeightSystem:
    """Reverse-complement each tuple over Fractions."""
    new_rows = []
    for tup in w.weights:
        top = tup[-1]
        new_rows.append(tuple(top - a for a in reversed(tup)))
    return WeightSystem(rank=w.rank, points=w.points, weights=tuple(new_rows))


def apply_to_weights(t: NumTransform, w: WeightSystem) -> WeightSystem:
    """Normalize, Hecke-shift, relabel, dualize and normalize, each a validated WeightSystem."""
    if t.npoints != w.npoints:
        raise DomainError("transform and weight system disagree on point count")
    if any(h >= w.rank for h in t.hecke):
        raise DomainError("transform is not in canonical form for this rank")
    moved = hecke_weights(normalize(w), t.hecke)
    rows: list[tuple[Fraction, ...]] = [()] * w.npoints
    for i in range(w.npoints):
        rows[t.perm[i]] = moved.weights[i]
    out = WeightSystem(rank=w.rank, points=w.points, weights=tuple(rows))
    if t.sign == -1:
        out = dual_weights(out)
    return normalize(out)


def automorphism_classes(r, n, d, w, perms) -> tuple[NumTransform, ...]:
    """The candidate loop and fingerprint filter of ``automorphism_group``."""
    base = normalize(w)
    ref = fingerprint(r, base, d)
    out = []
    seen = set()
    for perm in perms:
        for sign in (1, -1):
            for hecke in product(range(r), repeat=n):
                numerator = (sign - 1) * d + sum(hecke)
                if numerator % r:
                    continue
                cand = NumTransform(perm, sign, numerator // r, hecke)
                if r == 2 and sign == -1:
                    cand = reduce_dual_rank2(cand, d)
                key = (cand.perm, cand.sign, cand.tdeg, cand.hecke)
                if key not in seen:
                    seen.add(key)
                    out.append(cand)
    return tuple(c for c in out if fingerprint(r, apply_to_weights(c, base), d) == ref)


def iso_classes(r, n, d1, w1, d2, w2, perms) -> tuple[NumTransform, ...]:
    """The candidate loop and fingerprint filter of ``iso_transforms``."""
    base1 = normalize(w1)
    ref2 = fingerprint(r, normalize(w2), d2)
    out = []
    seen = set()
    for perm in perms:
        for sign in (1, -1):
            for hecke in product(range(r), repeat=n):
                numerator = sign * d2 - d1 + sum(hecke)
                if numerator % r:
                    continue
                cand = NumTransform(perm, sign, numerator // r, hecke)
                if r == 2 and sign == -1:
                    cand = reduce_dual_rank2(cand, d1)
                key = (cand.perm, cand.sign, cand.tdeg, cand.hecke)
                if key in seen:
                    continue
                seen.add(key)
                if apply_to_degree(cand, d1, r) != d2:
                    continue
                if fingerprint(r, apply_to_weights(cand, base1), d2) == ref2:
                    out.append(cand)
    return tuple(out)
