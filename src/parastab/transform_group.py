"""The group of numerical transformations acting on weight data and degrees.

A transformation is a word built from four generators: a relabeling of the
marked points, an optional dualization, a twist by a line bundle degree, and
a per-point Hecke shift.  Every word reduces to the canonical form

    relabel . dual^s . twist(tdeg) . hecke(H)

with 0 <= H[x] < r at each point.  Composition and inversion below keep
that normal form; shifting a point's Hecke value by r is absorbed into the
twist degree (full shift at one point equals a twist by -1 there).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError
from .weights_core import WeightSystem, level_denominator, numerator_rows


@dataclass(frozen=True)
class NumTransform:
    """Canonical word: perm[i] is the image position of point i."""

    perm: tuple[int, ...]
    sign: int
    tdeg: int
    hecke: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise DomainError("perm must be a permutation of 0..n-1")
        if self.sign not in (1, -1):
            raise DomainError("sign must be +1 or -1")
        if len(self.hecke) != n:
            raise DomainError("one Hecke value is required per point")
        if any(h < 0 for h in self.hecke):
            raise DomainError("canonical Hecke values are nonnegative")

    @property
    def npoints(self) -> int:
        return len(self.perm)

    def is_identity(self) -> bool:
        return (
            self.sign == 1
            and self.tdeg == 0
            and all(h == 0 for h in self.hecke)
            and all(p == i for i, p in enumerate(self.perm))
        )


def identity_transform(n: int) -> NumTransform:
    return NumTransform(tuple(range(n)), 1, 0, (0,) * n)


def make_transform(
    perm: Sequence[int],
    sign: int,
    tdeg: int,
    hecke: Sequence[int],
    r: int,
) -> NumTransform:
    """Build the canonical form, folding out-of-range Hecke values into the twist."""
    if r < 1:
        raise DomainError("rank must be positive")
    carry = sum(h // r for h in hecke)
    return NumTransform(
        perm=tuple(perm),
        sign=sign,
        tdeg=tdeg - carry,
        hecke=tuple(h % r for h in hecke),
    )


def act_on_row(row: Sequence[int], h: int, sign: int, q: int) -> list[int]:
    """One point's image row: ``row`` is q times its tuple, h its Hecke value.

    A Hecke shift by h reads row[h:], then row[:h] raised by q, minus row[h];
    when dualizing (sign -1) that becomes top - a over the reversed row.  The
    image row starts at 0, whether or not the input does.
    """
    base = row[h]
    moved = [a - base for a in row[h:]] + [a + q - base for a in row[:h]]
    if sign == -1:
        top = moved[-1]
        moved = [top - a for a in reversed(moved)]
    return moved


def act_on_rows(t: NumTransform, rows: Sequence[Sequence[int]], q: int) -> list[list[int]]:
    """The action on weights scaled by q: ``rows[i]`` is q times point i's tuple.

    Point i's ``act_on_row`` lands at position perm[i], so the output is
    normalized whether or not the input is.
    """
    out: list[list[int]] = [[]] * len(rows)
    for row, h, image in zip(rows, t.hecke, t.perm):
        out[image] = act_on_row(row, h, t.sign, q)
    return out


def _act(t: NumTransform, w: WeightSystem) -> WeightSystem:
    q = level_denominator(w)
    rows = act_on_rows(t, numerator_rows(w, q), q)
    weights = tuple(tuple(Fraction(a, q) for a in row) for row in rows)
    return WeightSystem(rank=w.rank, points=w.points, weights=weights)


def hecke_weights(w: WeightSystem, hecke: Sequence[int]) -> WeightSystem:
    """Shift each point's flag by its Hecke value; output starts at 0 by construction."""
    if len(hecke) != w.npoints:
        raise DomainError("one Hecke value is required per point")
    if any(not 0 <= h < w.rank for h in hecke):
        raise DomainError("Hecke values must satisfy 0 <= h < r")
    return _act(NumTransform(tuple(range(w.npoints)), 1, 0, tuple(hecke)), w)


def dual_weights(w: WeightSystem) -> WeightSystem:
    """Reverse-complement each tuple, then renormalize to start at 0."""
    return _act(NumTransform(tuple(range(w.npoints)), -1, 0, (0,) * w.npoints), w)


def apply_to_weights(t: NumTransform, w: WeightSystem) -> WeightSystem:
    """Act on a weight system: Hecke shifts, then relabeling, then optional dual."""
    if t.npoints != w.npoints:
        raise DomainError("transform and weight system disagree on point count")
    if any(h >= w.rank for h in t.hecke):
        raise DomainError("transform is not in canonical form for this rank")
    return _act(t, w)


def apply_to_degree(t: NumTransform, d: int, r: int) -> int:
    """Act on a determinant degree."""
    return t.sign * (r * t.tdeg + d - sum(t.hecke))


def compose(t1: NumTransform, t2: NumTransform, r: int) -> NumTransform:
    """Normal form of t1 . t2 (t2 acts first)."""
    if t1.npoints != t2.npoints:
        raise DomainError("transforms disagree on point count")
    n = t1.npoints
    # carry t1's Hecke pattern through t2's relabeling
    h1 = tuple(t1.hecke[t2.perm[i]] for i in range(n))
    l1 = t1.tdeg
    if t2.sign == -1:
        # dualization reflects each nonzero Hecke value and flips the twist
        e = sum(1 for h in h1 if h)
        h1 = tuple((r - h) if h else 0 for h in h1)
        l1 = e - l1
    raw = tuple(a + b for a, b in zip(h1, t2.hecke))
    return make_transform(
        perm=tuple(t1.perm[t2.perm[i]] for i in range(n)),
        sign=t1.sign * t2.sign,
        tdeg=l1 + t2.tdeg,
        hecke=raw,
        r=r,
    )


def inverse(t: NumTransform, r: int) -> NumTransform:
    n = t.npoints
    inv_perm = [0] * n
    for i, j in enumerate(t.perm):
        inv_perm[j] = i

    def push(values: Sequence[int]) -> tuple[int, ...]:
        return tuple(values[inv_perm[j]] for j in range(n))

    if t.sign == 1:
        e = sum(1 for h in t.hecke if h)
        reflected = tuple((r - h) if h else 0 for h in t.hecke)
        return NumTransform(tuple(inv_perm), 1, e - t.tdeg, push(reflected))
    return NumTransform(tuple(inv_perm), -1, t.tdeg, push(t.hecke))


def reduce_dual_rank2(t: NumTransform, d: int) -> NumTransform:
    """Rewrite a rank-2 dualizing transform as a non-dualizing one.

    At rank 2 dualizing is a twist in disguise, so any sign -1 word acting on
    determinant degree d equals a sign +1 word with the same relabeling and
    Hecke pattern.
    """
    if t.sign != -1:
        raise DomainError("only sign -1 transforms reduce")
    return NumTransform(t.perm, 1, -t.tdeg + sum(t.hecke) - d, t.hecke)
