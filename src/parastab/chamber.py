"""Numerical chamber invariants: extremal subdegrees, walls, and comparisons.

For a fixed rank, degree and admissible incidence pattern, the extremal
subdegree is the largest subobject degree compatible with semistability.
Collecting it over every admissible pattern gives a translation-invariant
fingerprint of the weight system; two systems with equal fingerprints admit
the same semistable data at that degree.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, compress, product, repeat
from math import comb
from operator import ne
from typing import Iterator

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


def chamber_fingerprint(w: WeightSystem, d: int) -> tuple[int, ...]:
    """``max_subdegree`` of every admissible pattern in canonical order, from the wall levels.

    Each value is (L + shift) // width, with L an integer wall level of the
    numerator rows and (shift, width) its subrank's ``wall_grid`` for
    degree d.  The half blocks of ``row_levels`` come first, each kept as a
    list.  The rest are their complements, of level -L: the kept blocks in
    reverse order, each reversed, with (shift - L) // width on the grid of
    subrank r - r' (exact on walls too).
    """
    r, q = w.rank, level_denominator(w)

    def blocks() -> Iterator[Iterator[int]]:
        kept = []
        for rp, _, levels in row_levels(numerator_rows(w, q)):
            shift, width = wall_grid(r, rp, q, d)
            levels = list(levels)
            kept.append((r - rp, levels))
            yield map(width.__rfloordiv__, map(shift.__add__, levels))
        for rc, levels in reversed(kept):
            shift, width = wall_grid(r, rc, q, d)
            yield map(width.__rfloordiv__, map(shift.__sub__, reversed(levels)))

    return tuple(chain.from_iterable(blocks()))


def same_numerical_chamber(w1: WeightSystem, w2: WeightSystem, d: int) -> bool:
    if w1.rank != w2.rank or w1.npoints != w2.npoints:
        raise DomainError("weight systems must share rank and point count")
    return chamber_fingerprint(w1, d) == chamber_fingerprint(w2, d)


# (subrank, picks per point, the levels m crossed) of one crossing pattern
Crossing = tuple[int, tuple[tuple[int, ...], ...], range]
# (subrank, its picks, whether each pattern of its block crosses, the m of each crossing)
CrossingBlock = tuple[int, tuple[tuple[int, ...], ...], list[bool], list[range]]


def crossing_blocks(
    w1: WeightSystem, w2: WeightSystem, d: int, relevant_only: bool
) -> list[CrossingBlock]:
    """The crossings of every subrank's block, r' = 1..r - 1, in canonical order.

    Per block: (r', its picks, one flag per pattern of
    ``product(picks, repeat=n)`` telling whether it crosses, and one range
    of m per crossing pattern), so its crossing patterns are
    ``compress(product(picks, repeat=n), flags)``, each with its range;
    ``wall_crossings`` and the CLI's wall text both read them.  A pattern
    crosses when its floors (L + shift) // width on the ``wall_grid``
    differ between the two systems, since only then is a scanned wall
    strictly between its two levels; its range runs over the m of those
    walls in increasing order, stepping by r with ``relevant_only``.

    Only the half blocks of ``row_levels`` are read.  The complement of
    the i-th pattern of subrank r' is the (C^n - 1 - i)-th of subrank
    r - r', with the opposite levels, so it crosses the negated m: the
    block of r - r' has the half's flags reversed and its ranges negated,
    in reverse order.  In the middle subrank (r = 2r') that mirror is the
    block's second half.

    Each system's levels are read once, and the endpoints are tested for a
    scanned wall by ``first_on_wall`` (the earliest hit always lies in the
    half).  A hit raises at the call, naming the earliest such pattern, the
    first system on a tie; half blocks are read in order, so an earlier
    subrank's hit wins.
    """
    if w1.rank != w2.rank or w1.npoints != w2.npoints:
        raise DomainError("weight systems must share rank and point count")
    r, n = w1.rank, w1.npoints
    q = level_denominator(w1, w2)

    def block(half1, half2) -> tuple[CrossingBlock, CrossingBlock]:
        """The crossings of a half block, and those of its mirror."""
        (rp, picks, levels1), (_, _, levels2) = half1, half2
        shift, width = wall_grid(r, rp, q, d if relevant_only else None)
        # each system's L + shift, read once: on a wall when width divides it
        shifted1 = list(map(shift.__add__, levels1))
        shifted2 = list(map(shift.__add__, levels2))
        hits = []
        for label, shifted in (("first", shifted1), ("second", shifted2)):
            index = first_on_wall(shifted, 0, width)
            if index is not None:
                hits.append((index, label, shifted[index] - shift))
        if hits:
            # the earliest pattern; on a tie "first" sorts before "second"
            index, label, level = min(hits)
            raise DomainError(
                f"{label} weight system lies on wall "
                f"(subrank {rp}, picks {pattern_at(picks, n, index)}, level {level // q})"
            )
        floor = width.__rfloordiv__
        differ = list(map(ne, map(floor, shifted1), map(floor, shifted2)))
        floors1 = list(map(floor, compress(shifted1, differ)))
        floors2 = list(map(floor, compress(shifted2, differ)))
        # the scanned walls are the m = k * step - offset for an integer k; no
        # endpoint is on one, so the k strictly between two floors are low + 1 .. high
        step, offset = width // q, shift // q
        first = step - offset
        starts = list(map(first.__add__, map(step.__mul__, map(min, floors1, floors2))))
        stops = list(map(first.__add__, map(step.__mul__, map(max, floors1, floors2))))
        # range(start, stop, step) negated is range(step - stop, step - start, step)
        mirrored = map(step.__sub__, reversed(stops)), map(step.__sub__, reversed(starts))
        return (
            (rp, picks, differ, list(map(range, starts, stops, repeat(step)))),
            (
                r - rp,
                tuple(combinations(range(1, r + 1), r - rp)),
                differ[::-1],
                list(map(range, *mirrored, repeat(step))),
            ),
        )

    halves = (row_levels(numerator_rows(w, q)) for w in (w1, w2))
    pairs = list(map(block, *halves))
    blocks = [half for half, _ in pairs] + [mirror for _, mirror in reversed(pairs)]
    if r % 2 == 0:
        # the middle subrank's half and its mirror meet: one block, whole
        middle = r // 2 - 1
        (rp, picks, flags, ranges), (_, _, rest, more) = blocks[middle : middle + 2]
        blocks[middle : middle + 2] = [(rp, picks, flags + rest, ranges + more)]
    return blocks


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

    Each block of ``crossing_blocks`` gives its compressed patterns zipped
    with its ranges.
    """
    n = w1.npoints
    return list(chain.from_iterable(
        zip(repeat(rp), compress(product(picks, repeat=n), flags), ranges)
        for rp, picks, flags, ranges in crossing_blocks(w1, w2, d, relevant_only)
    ))
