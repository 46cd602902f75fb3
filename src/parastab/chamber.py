"""Numerical chamber invariants: extremal subdegrees, walls, and comparisons.

For a fixed rank, degree and admissible incidence pattern, the extremal
subdegree is the largest subobject degree compatible with semistability.
Collecting it over every admissible pattern gives a translation-invariant
fingerprint of the weight system; two systems with equal fingerprints admit
the same semistable data at that degree.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, compress, product, tee
from math import comb
from operator import ne
from typing import Iterator, Sequence

from .errors import DomainError
from .weights_core import (
    ParabolicType,
    WeightSystem,
    first_on_wall,
    level_denominator,
    numerator_rows,
    owt,
    pattern_at,
    row_levels,
    wall_grid,
)


def pick_rows(r: int, rp: int) -> list[tuple[int, ...]]:
    """The 0/1 row of each r'-subset of 1..r, in the pick order of ``row_levels``."""
    return [
        tuple(1 if i in picked else 0 for i in range(1, r + 1))
        for picked in combinations(range(1, r + 1), rp)
    ]


def admissible_rows(r: int, n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The 0/1 rows of every proper pattern, lazily, by subrank then per-point picks.

    Per subrank r', one 0/1 row per pick of ``row_levels`` and their n-fold
    product, so no pattern is built or validated as a ``ParabolicType``.
    """
    if r < 2 or n < 1:
        raise DomainError("requires r >= 2 and n >= 1")

    return chain.from_iterable(product(pick_rows(r, rp), repeat=n) for rp in range(1, r))


def count_admissible(r: int, n: int) -> int:
    return sum(comb(r, rp) ** n for rp in range(1, r))


def max_subdegree(w: WeightSystem, d: int, t: ParabolicType) -> int:
    """Largest subobject degree of the given pattern compatible with semistability."""
    r = w.rank
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


def fingerprint_floors(rows: Sequence[Sequence[int]], d: int, q: int) -> Iterator[int]:
    """The fingerprint of the weights rows / q, lazily: (L + shift) // width per pattern.

    L runs over the integer wall levels of the numerator rows, in canonical
    order, and (shift, width) is each subrank's ``wall_grid`` for degree d.
    The half blocks of ``row_levels`` come first, each level kept as it is
    read.  The rest are their complements, of level -L: the kept blocks in
    reverse order, each reversed, with (shift - L) // width on the grid of
    subrank r - r' (exact on walls too).
    """
    r = len(rows[0])
    # read here, so rank 1 is refused at the call and not at the first value
    half = row_levels(rows)

    def blocks() -> Iterator[Iterator[int]]:
        kept = []
        for rp, _, levels in half:
            shift, width = wall_grid(r, rp, q, d)
            levels, copy = tee(levels)
            kept.append((r - rp, copy))
            yield map(width.__rfloordiv__, map(shift.__add__, levels))
        for rc, levels in reversed(kept):
            shift, width = wall_grid(r, rc, q, d)
            yield map(width.__rfloordiv__, map(shift.__sub__, reversed(list(levels))))

    return chain.from_iterable(blocks())


def chamber_fingerprint(w: WeightSystem, d: int) -> tuple[int, ...]:
    """``max_subdegree`` of every admissible pattern in canonical order, from the wall levels."""
    q = level_denominator(w)
    return tuple(fingerprint_floors(numerator_rows(w, q), d, q))


def same_numerical_chamber(w1: WeightSystem, w2: WeightSystem, d: int) -> bool:
    if w1.rank != w2.rank or w1.npoints != w2.npoints:
        raise DomainError("weight systems must share rank and point count")
    return chamber_fingerprint(w1, d) == chamber_fingerprint(w2, d)


# (subrank, picks per point, the levels m crossed) of one crossing pattern
Crossing = tuple[int, tuple[tuple[int, ...], ...], range]


def wall_crossings(
    w1: WeightSystem,
    w2: WeightSystem,
    d: int,
    relevant_only: bool = True,
) -> list[Crossing]:
    """(subrank, picks, the levels m crossed) per crossing pattern.

    The m run over the integers strictly between the pattern's two wall
    values, in increasing order; with ``relevant_only`` only those relevant
    for degree d (m + r'*d divisible by r), so the range steps by r.
    Patterns come in canonical order and each is listed only when its
    range is nonempty.  Raises when an endpoint sits exactly on a scanned
    wall, since sidedness is then undefined: the error names the earliest
    such pattern, the first system on a tie.

    One pass per half block of ``row_levels``: each system's levels are
    read once, the endpoints are tested for a scanned wall by
    ``first_on_wall`` (the earliest hit always lies in the half), and picks
    are built only for the patterns whose floors (L + shift) // width on
    the ``wall_grid`` differ, since only those have a scanned wall strictly
    between their two levels.  The complement of a crossing pattern has
    the complement picks and the opposite levels, so it crosses the
    negated m; the other half is the half's crossings so mirrored, in
    reverse order.
    """
    if w1.rank != w2.rank or w1.npoints != w2.npoints:
        raise DomainError("weight systems must share rank and point count")
    r, n = w1.rank, w1.npoints
    q = level_denominator(w1, w2)

    def block(half1, half2) -> tuple[list[Crossing], list[Crossing]]:
        """The crossings of a half block, and those of its mirror."""
        (rp, picks, levels1), (_, _, levels2) = half1, half2
        levels1, levels2 = list(levels1), list(levels2)
        shift, width = wall_grid(r, rp, q, d if relevant_only else None)
        hits = []
        for label, levels in (("first", levels1), ("second", levels2)):
            index = first_on_wall(levels, shift, width)
            if index is not None:
                hits.append((index, label, levels[index]))
        if hits:
            # the earliest pattern; on a tie "first" sorts before "second"
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
        # the scanned walls are the m = k * step - offset for an integer k; no
        # endpoint is on one, so the k strictly between two floors are low + 1 .. high
        step, offset = width // q, shift // q
        first = step - offset
        crossings = [
            (rp, combo, range(min(f1, f2) * step + first, max(f1, f2) * step + first, step))
            for combo, f1, f2 in crossing
        ]
        # the i-th r'-subset's complement is the (C - 1 - i)-th (r - r')-subset
        complement = dict(zip(
            combinations(range(1, r + 1), rp),
            reversed(list(combinations(range(1, r + 1), r - rp))),
        )).__getitem__
        mirrored = [
            (r - rp, tuple(map(complement, combo)), range(-ms[-1], -ms[0] + 1, ms.step))
            for _, combo, ms in reversed(crossings)
        ]
        return crossings, mirrored

    halves = (row_levels(numerator_rows(w, q)) for w in (w1, w2))
    blocks = list(map(block, *halves))
    return [
        *chain.from_iterable(crossings for crossings, _ in blocks),
        *chain.from_iterable(mirrored for _, mirrored in reversed(blocks)),
    ]
