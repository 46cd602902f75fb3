"""Numerical chamber invariants: extremal subdegrees, walls, and comparisons.

For a fixed rank, degree and admissible incidence pattern, the extremal
subdegree is the largest subobject degree compatible with semistability.
Collecting it over every admissible pattern gives a translation-invariant
fingerprint of the weight system; two systems with equal fingerprints admit
the same semistable data at that degree.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from math import comb
from typing import Iterator, Sequence

from .errors import DomainError
from .weights_core import (
    ParabolicType,
    WeightSystem,
    level_denominator,
    numerator_rows,
    owt,
    row_levels,
    wall_levels,
)


def admissible_types(r: int, n: int) -> tuple[ParabolicType, ...]:
    """All proper patterns, ordered by subrank then per-point index picks."""
    if r < 2 or n < 1:
        raise DomainError("requires r >= 2 and n >= 1")
    out = []
    for rp in range(1, r):
        rows = [
            tuple(1 if i in picked else 0 for i in range(r))
            for picked in (set(c) for c in combinations(range(r), rp))
        ]
        for combo in product(rows, repeat=n):
            out.append(ParabolicType(combo))
    return tuple(out)


def count_admissible(r: int, n: int) -> int:
    return sum(comb(r, rp) ** n for rp in range(1, r))


def max_subdegree(r: int, w: WeightSystem, d: int, t: ParabolicType) -> int:
    """Largest subobject degree of the given pattern compatible with semistability."""
    if r != w.rank:
        raise DomainError("rank mismatch")
    if t.rank != r or t.npoints != w.npoints:
        raise DomainError("type shape does not match the weight system")
    if not 0 < t.subrank < r:
        raise DomainError("pattern must be proper (0 < r' < r)")
    rp = t.subrank
    value = Fraction(rp * d) + rp * w.total() - r * owt(w, t)
    scaled = value / r
    return scaled.numerator // scaled.denominator


def subdegree_bounds(r: int, d: int, n: int) -> tuple[Fraction, Fraction]:
    """Open lower and closed upper bound valid for every admissible pattern."""
    lower = Fraction(d, r) - r * n - 1
    upper = Fraction((r - 1) * d, r) + (r - 1) * n
    return lower, upper


@dataclass(frozen=True)
class ChamberInvariant:
    """Extremal subdegrees over all admissible patterns, in canonical order."""

    r: int
    n: int
    d: int
    types: tuple[ParabolicType, ...]
    values: tuple[int, ...]

    def as_pairs(self) -> tuple[tuple[ParabolicType, int], ...]:
        return tuple(zip(self.types, self.values))

    def same_context(self, other: "ChamberInvariant") -> bool:
        return (self.r, self.n, self.d) == (other.r, other.n, other.d)


def fingerprint_floors(rows: Sequence[Sequence[int]], d: int, q: int) -> Iterator[int]:
    """The fingerprint of the weights rows / q, lazily: floor((r'dq + L) / (rq)) per pattern.

    L runs over the integer wall levels of the numerator rows, in canonical order.
    """
    rq = len(rows[0]) * q
    return chain.from_iterable(
        ((rp * d * q + level) // rq for level in levels) for rp, _, levels in row_levels(rows)
    )


def chamber_fingerprint(r: int, w: WeightSystem, d: int) -> tuple[int, ...]:
    """The extremal subdegrees ``chamber_invariant`` reports, from the wall levels."""
    if r < 2:
        raise DomainError("requires r >= 2 and n >= 1")
    if r != w.rank:
        raise DomainError("rank mismatch")
    q = level_denominator(w)
    return tuple(fingerprint_floors(numerator_rows(w, q), d, q))


def chamber_invariant(r: int, w: WeightSystem, d: int) -> ChamberInvariant:
    values = chamber_fingerprint(r, w, d)
    types = admissible_types(r, w.npoints)
    return ChamberInvariant(r=r, n=w.npoints, d=d, types=types, values=values)


def same_numerical_chamber(r: int, w1: WeightSystem, w2: WeightSystem, d: int) -> bool:
    if w1.rank != w2.rank or w1.npoints != w2.npoints:
        raise DomainError("weight systems must share rank and point count")
    return chamber_fingerprint(r, w1, d) == chamber_fingerprint(r, w2, d)


@dataclass(frozen=True)
class Wall:
    """One crossed wall: subrank, 1-based index picks per point, integer level."""

    subrank: int
    pattern: tuple[tuple[int, ...], ...]
    m: int
    relevant: bool


def walls_crossed(
    r: int,
    w1: WeightSystem,
    w2: WeightSystem,
    d: int,
    relevant_only: bool = True,
) -> tuple[Wall, ...]:
    """Integer wall levels strictly between the two systems' wall values.

    A level m is relevant for degree d when m + r'*d is divisible by r; only
    those walls change the chamber invariant.  Raises when an endpoint sits
    exactly on a scanned wall, since sidedness is then undefined.
    """
    if w1.rank != w2.rank or w1.npoints != w2.npoints:
        raise DomainError("weight systems must share rank and point count")
    if w1.rank != r:
        raise DomainError("rank mismatch")
    walls = []
    q = level_denominator(w1, w2)
    for (rp, combo, l1), (_, _, l2) in zip(wall_levels(w1, q), wall_levels(w2, q)):
        for label, level in (("first", l1), ("second", l2)):
            if level % q == 0:
                m = level // q
                if not relevant_only or (m + rp * d) % r == 0:
                    raise DomainError(
                        f"{label} weight system lies on wall "
                        f"(subrank {rp}, picks {combo}, level {m})"
                    )
        lo, hi = sorted((l1, l2))
        # integers m with lo < m*q < hi, in increasing order
        for m in range(lo // q + 1, (hi - 1) // q + 1):
            relevant = (m + rp * d) % r == 0
            if relevant or not relevant_only:
                walls.append(Wall(subrank=rp, pattern=combo, m=m, relevant=relevant))
    return tuple(walls)
