"""Exact invariants of full-flag weight data on marked curves.

Every quantity is computed with ``fractions.Fraction``; nothing here rounds
or approximates.  A weight system assigns to each marked point a strictly
increasing tuple of r rationals in [0, 1).  A parabolic type is a 0/1
incidence pattern with one row per point and a constant row sum, recording
which weight steps a subobject inherits.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, cycle, islice, product, repeat
from math import lcm
from operator import indexOf, sub
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import DomainError, Record

Rational = Union[int, Fraction]


def _frac(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise DomainError(f"expected a rational, got {value!r}")


class WeightSystem(Record):
    """Full-flag weights: one strictly increasing r-tuple in [0, 1) per point."""

    rank: int
    points: tuple[str, ...]
    weights: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise DomainError("rank must be at least 1")
        if not self.points:
            raise DomainError("a weight system needs at least one point")
        if len(set(self.points)) != len(self.points):
            raise DomainError("point labels must be distinct")
        if len(self.weights) != len(self.points):
            raise DomainError("one weight tuple is required per point")
        for label, tup in zip(self.points, self.weights):
            if len(tup) != self.rank:
                raise DomainError(f"point {label}: expected {self.rank} weights")
            for a, b in zip(tup, tup[1:]):
                if not a < b:
                    raise DomainError(f"point {label}: weights must strictly increase")
            if tup[0] < 0 or tup[-1] >= 1:
                raise DomainError(f"point {label}: weights must lie in [0, 1)")

    @property
    def npoints(self) -> int:
        return len(self.points)

    def total(self) -> Fraction:
        """Sum of all weights over all points."""
        return sum((a for tup in self.weights for a in tup), Fraction(0))


def weight_system(
    weights: Sequence[Sequence[Rational]],
    points: Optional[Sequence[str]] = None,
    rank: Optional[int] = None,
) -> WeightSystem:
    """Build a WeightSystem from raw rationals, defaulting labels to p1, p2, ..."""
    tups = tuple(tuple(_frac(a) for a in tup) for tup in weights)
    if not tups:
        raise DomainError("a weight system needs at least one point")
    r = rank if rank is not None else len(tups[0])
    labels = tuple(points) if points is not None else tuple(f"p{i + 1}" for i in range(len(tups)))
    return WeightSystem(r, labels, tups)


class ParabolicType(Record):
    """0/1 incidence rows, one per point, all with the same row sum.

    Row sums 0 and r are allowed so the full and empty patterns can be fed
    to owt/pdeg/t_number; chamber-level operations restrict to 0 < r' < r.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise DomainError("a type needs at least one row")
        width = len(self.rows[0])
        if width < 1:
            raise DomainError("type rows must be nonempty")
        sums = set()
        for row in self.rows:
            if len(row) != width:
                raise DomainError("all type rows must have equal length")
            if any(v not in (0, 1) for v in row):
                raise DomainError("type entries must be 0 or 1")
            sums.add(sum(row))
        if len(sums) != 1:
            raise DomainError("all type rows must have the same sum")

    @property
    def rank(self) -> int:
        return len(self.rows[0])

    @property
    def npoints(self) -> int:
        return len(self.rows)

    @property
    def subrank(self) -> int:
        return sum(self.rows[0])

    def complement(self) -> "ParabolicType":
        return ParabolicType(tuple(tuple(1 - v for v in row) for row in self.rows))

    @staticmethod
    def from_indices(r: int, index_sets: Sequence[Sequence[int]]) -> "ParabolicType":
        """Build from 1-based index selections, one set per point."""
        rows = []
        for sel in index_sets:
            chosen = set(sel)
            if not chosen <= set(range(1, r + 1)):
                raise DomainError(f"indices {sorted(chosen)} out of range 1..{r}")
            rows.append(tuple(1 if i in chosen else 0 for i in range(1, r + 1)))
        return ParabolicType(tuple(rows))


def parabolic_type(rows: Sequence[Sequence[int]]) -> ParabolicType:
    return ParabolicType(tuple(tuple(int(v) for v in row) for row in rows))


def _check_shapes(w: WeightSystem, t: ParabolicType) -> None:
    if t.rank != w.rank or t.npoints != w.npoints:
        raise DomainError("type shape does not match the weight system")


def normalize(w: WeightSystem) -> WeightSystem:
    """Translate each point's tuple so its first weight is 0."""
    shifted = tuple(tuple(a - tup[0] for a in tup) for tup in w.weights)
    return WeightSystem(w.rank, w.points, shifted)


def owt(w: WeightSystem, t: ParabolicType) -> Fraction:
    """Sum of the weights selected by the incidence pattern."""
    _check_shapes(w, t)
    return sum(
        (a for tup, row in zip(w.weights, t.rows) for a, sel in zip(tup, row) if sel),
        Fraction(0),
    )


def pdeg(d: int, w: WeightSystem) -> Fraction:
    """Degree corrected by the full weight sum."""
    return Fraction(d) + w.total()


def s_min(w: WeightSystem, t: ParabolicType) -> Fraction:
    """Minimal twisting slack of the pattern against its complement."""
    _check_shapes(w, t)
    comp = t.complement()
    r_sub = t.subrank
    r_comp = comp.subrank
    return r_comp * owt(w, t) - r_sub * owt(w, comp)


def t_number(t1: ParabolicType, t2: ParabolicType) -> Fraction:
    """Average count of strictly decreasing incidence pairs between two patterns.

    The first pattern contributes the higher index of each pair.
    """
    if t1.rank != t2.rank or t1.npoints != t2.npoints:
        raise DomainError("patterns must share rank and point count")
    if t1.subrank == 0 or t2.subrank == 0:
        raise DomainError("patterns must have positive row sum")
    r = t1.rank
    pairs = 0
    for row1, row2 in zip(t1.rows, t2.rows):
        for i in range(r):
            if not row1[i]:
                continue
            pairs += sum(row2[j] for j in range(i))
    return Fraction(pairs, t1.subrank * t2.subrank)


class DimsResult(Record):
    """Moduli dimension summary for one (g, n, r)."""

    fixed_det: int
    nonfixed: int
    w: tuple[int, ...]  # w[k-1] is the k-th summand, k = 1..r
    w_total: int


def _w_summand(g: int, n: int, k: int) -> int:
    # the k = 1 summand degenerates to the genus
    if k == 1:
        return g
    return k * (2 * g - 2) + (k - 1) * n - g + 1


def dims(g: int, n: int, r: int) -> DimsResult:
    """Dimensions of the fixed and non-fixed determinant moduli plus the summand ladder."""
    if g < 2 or n < 1 or r < 2:
        raise DomainError("dims requires g >= 2, n >= 1, r >= 2")
    fixed = (r * r - 1) * (g - 1) + n * (r * r - r) // 2
    nonfixed = fixed + g
    ladder = tuple(_w_summand(g, n, k) for k in range(1, r + 1))
    return DimsResult(fixed, nonfixed, ladder, sum(ladder[1:]))


def dim_nonreduced_stratum(g: int, n: int, r: int, d: int) -> int:
    """Dimension of the d-th non-reduced boundary stratum."""
    if g < 2 or n < 1 or r < 2:
        raise DomainError("requires g >= 2, n >= 1, r >= 2")
    if d < 1 or 2 * d > r:
        raise DomainError("stratum index must satisfy 1 <= d <= r/2")
    if 2 * d == r:
        return sum(_w_summand(g, n, j) for j in range(2, d + 1))
    head = sum(_w_summand(g, n, j) for j in range(1, d + 1))
    tail = sum(_w_summand(g, n, j) for j in range(2, r - 2 * d + 1))
    return head + tail


class GenericityWitness(Record):
    """A wall hit: subrank, 1-based index picks per point, and the integer level."""

    subrank: int
    pattern: tuple[tuple[int, ...], ...]
    m: int


class GenericityResult(Record):
    generic: bool
    witness: Optional[GenericityWitness]

    def __bool__(self) -> bool:
        return self.generic


def level_denominator(*systems: WeightSystem) -> int:
    """Least common denominator q of every weight in the given systems."""
    return lcm(*(a.denominator for w in systems for tup in w.weights for a in tup))


def numerator_rows(w: WeightSystem, q: int) -> list[list[int]]:
    """q times each weight, one integer row per point (q a multiple of its denominators)."""
    return [[a.numerator * (q // a.denominator) for a in tup] for tup in w.weights]


def picked_sums(row: Sequence[int], picks: Iterable[tuple[int, ...]]) -> list[int]:
    """One point's share of the levels: r times the entries of ``row`` at each 1-based pick."""
    r = len(row)
    return [r * sum(row[i - 1] for i in c) for c in picks]


def row_levels(
    rows: Sequence[Sequence[int]],
) -> Iterator[tuple[int, tuple[tuple[int, ...], ...], Iterator[int]]]:
    """Per subrank r' = 1..r/2: (r', the 1-based picks, the lazy integer levels of half the patterns).

    The levels run over one pick per point in lexicographic order; each is
    r' * (sum of all entries) - r * (sum of picked entries), so on
    ``numerator_rows(w, q)`` it is q times the rational wall level.  The
    other half follows by the complement rule: a pattern and its complement
    have opposite levels, and with C = C(r, r') the complement of the i-th
    r'-subset is the (C - 1 - i)-th (r - r')-subset.  So the block of
    subrank r - r', in canonical order, is the block of r' negated and
    reversed, and it is not yielded.  In the middle subrank (r = 2r') the
    block stops where point 1's pick index reaches C/2: the rest is the
    part read, negated and reversed.  Each block is a prefix of the
    canonical one, so its indices are the canonical ones and ``pattern_at``
    names them.  Walls need a proper subrank, so rank 1 is refused here.

    The sums are layered, a point at a time and all lazily: each partial
    level is repeated once per entry of the next point's table, and the
    table, cycled, is subtracted
    (``map(sub, chain.from_iterable(map(repeat, partial, repeat(C))), cycle(table))``).
    So a level costs about one C-level subtraction, not a sum of n, and a
    scan that stops at a hit holds no level it has passed.
    The readers are ``_first_wall``, ``chamber_fingerprint`` and
    ``crossing_blocks``; the ``aut``/``iso`` filter sums its levels from its
    own ``picked_sums`` tables and refuses rank 1 itself.
    """
    r = len(rows[0])
    if r < 2:
        raise DomainError("requires r >= 2 and n >= 1")
    total = sum(map(sum, rows))

    def block(rp: int) -> tuple[int, tuple[tuple[int, ...], ...], Iterator[int]]:
        picks = tuple(combinations(range(1, r + 1), rp))
        # the level is additive over points: one picked-sum table per point
        picked = [picked_sums(row, picks) for row in rows]
        if 2 * rp == r:
            # point 1 leads the lexicographic order, so its first C/2 picks are a prefix
            picked[0] = picked[0][: len(picks) // 2]
        # layered: each partial level less every entry of the next table, all lazy
        levels = iter([rp * total])
        for table in picked:
            levels = map(
                sub, chain.from_iterable(map(repeat, levels, repeat(len(table)))), cycle(table)
            )
        return rp, picks, levels

    # a lazy map, so each subrank's tables are built only when reached
    return map(block, range(1, r // 2 + 1))


def wall_grid(r: int, rp: int, q: int, d: Optional[int]) -> tuple[int, int]:
    """(shift, width): a level L of subrank r' lies on a scanned wall when width divides L + shift.

    With d None every wall is scanned: L / q an integer m, so (0, q).  For
    degree d only the relevant walls are (m + r'*d divisible by r), so
    (r'*d*q, r*q); then (L + shift) // width is the fingerprint's floor.
    """
    return (0, q) if d is None else (rp * d * q, r * q)


def first_on_wall(levels: Iterable[int], shift: int, width: int) -> Optional[int]:
    """The index of the first level L with width dividing L + shift, or None.

    One pass at C speed that stops at the hit, so a lazy ``row_levels``
    block is read no further than needed.  A half block is enough to find
    the first hit of the whole: L + r'dq and -L + (r - r')dq add up to rdq,
    so rq divides both or neither, and q divides L exactly when it divides
    -L.
    """
    try:
        return indexOf(map(width.__rmod__, levels), -shift % width)
    except ValueError:
        return None


def pattern_at(
    picks: Sequence[tuple[int, ...]], n: int, index: int
) -> tuple[tuple[int, ...], ...]:
    """The index-th entry of ``product(picks, repeat=n)``, the order of a block's levels."""
    return next(islice(product(picks, repeat=n), index, None))


def _first_wall(w: WeightSystem, d: Optional[int]) -> GenericityResult:
    """The first pattern in canonical order on a wall (relevant for degree d unless d is None).

    Only the half blocks of ``row_levels`` are scanned.  A pattern is on a
    scanned wall exactly when its complement is (``first_on_wall``), and
    the complement of a pattern in subrank r - r' > r/2, or in the second
    half of the middle subrank, comes earlier.  So the first hit lies in
    the half and is the witness a scan of every pattern would report.
    """
    q = level_denominator(w)
    rows = numerator_rows(w, q)
    for rp, picks, levels in row_levels(rows):
        index = first_on_wall(levels, *wall_grid(w.rank, rp, q, d))
        if index is not None:
            pattern = pattern_at(picks, w.npoints, index)
            # the hit's level from its pattern, formed as in row_levels: no copy of the block
            picked = sum(picked_sums(row, [c])[0] for row, c in zip(rows, pattern))
            level = rp * sum(map(sum, rows)) - picked
            return GenericityResult(False, GenericityWitness(rp, pattern, level // q))
    return GenericityResult(True, None)


def is_generic(w: WeightSystem) -> GenericityResult:
    """True iff no wall value is an integer, regardless of degree."""
    return _first_wall(w, None)


def is_degree_generic(w: WeightSystem, d: int) -> GenericityResult:
    """True iff no wall relevant for degree d is hit.

    A wall at integer level m matters for degree d only when m + r'*d is
    divisible by r, because only then does an integral subobject degree
    realize the equality.
    """
    return _first_wall(w, d)


def is_concentrated(w: WeightSystem) -> bool:
    """True iff every point's weight spread stays below 4 / (n * r^2)."""
    bound = Fraction(4, w.npoints * w.rank * w.rank)
    return all(tup[-1] - tup[0] < bound for tup in w.weights)


class GenusBounds(Record):
    """Genus thresholds above which the numerical statements become geometric."""

    chamber: int
    refined: Optional[Fraction]
    lm: Fraction
    codim: Fraction


def genus_bounds(
    w: WeightSystem,
    w2: Optional[WeightSystem] = None,
    t: Optional[ParabolicType] = None,
    l: int = 1,
    m: int = 0,
    k: int = 0,
) -> GenusBounds:
    """Compute the chamber, refined, (l, m, k) and codimension thresholds."""
    if min(l, m, k) < 0 or l < 1:
        raise DomainError("requires l >= 1 and m, k >= 0")
    r, n = w.rank, w.npoints
    if r < 2:
        raise DomainError("rank must be at least 2")
    other = w2 if w2 is not None else w
    if other.rank != r or other.npoints != n:
        raise DomainError("both weight systems must share rank and point count")

    def first_sum_floor(ws: WeightSystem) -> int:
        total = sum((tup[0] for tup in ws.weights), Fraction(0))
        return total.numerator // total.denominator

    chamber = 1 + (r - 1) * n - min(first_sum_floor(w), first_sum_floor(other))

    refined: Optional[Fraction] = None
    if t is not None:
        _check_shapes(w, t)
        if not 0 < t.subrank < r:
            raise DomainError("refined bound needs a proper pattern")
        acc = Fraction(0)
        for tup, row in zip(w.weights, t.rows):
            for a, sel in zip(tup, row):
                acc += (1 - a) * (1 - sel)
        refined = 1 + Fraction(acc.numerator // acc.denominator, t.subrank)

    lm = Fraction(m + l + 1) + Fraction(l + k, r - 1)
    codim = 1 + Fraction(l - 1, r - 1)
    return GenusBounds(chamber, refined, lm, codim)


def stability_check(w: WeightSystem, d: int, sub: tuple[int, int, ParabolicType]) -> str:
    """Compare the slope of a candidate subobject with the total slope at degree d.

    ``sub`` is (subrank, subdegree, pattern).  Returns "strict" when the
    subobject respects strict stability, "equality" on the semistable
    borderline and "violated" otherwise.
    """
    r = w.rank
    r_sub, d_sub, t = sub
    _check_shapes(w, t)
    if t.subrank != r_sub:
        raise DomainError("pattern row sum must equal the stated subrank")
    if not 0 < r_sub < r:
        raise DomainError("subrank must satisfy 0 < r' < r")
    slope_sub = Fraction(d_sub + owt(w, t), r_sub)
    slope_all = Fraction(pdeg(d, w), r)
    if slope_sub < slope_all:
        return "strict"
    if slope_sub == slope_all:
        return "equality"
    return "violated"
