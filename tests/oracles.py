"""Slow, obviously correct reference implementations kept as test oracles.

Each function here is the straightforward per-pattern or per-column version
that the library replaced with a faster shared path; the property tests
compare the two.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterator

from parastab import (
    DomainError,
    GenericityResult,
    GenericityWitness,
    LaurentMatrix,
    NumTransform,
    Wall,
    WeightSystem,
    admissible_types,
    apply_to_degree,
    apply_to_weights,
    max_subdegree,
    normalize,
    owt,
    reduce_dual_rank2,
    twist,
)
from parastab.local_matrix import L_ONE, L_ZERO, tau


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


def fingerprint(r: int, w: WeightSystem, d: int) -> tuple[int, ...]:
    """One max_subdegree per validated admissible pattern."""
    return tuple(max_subdegree(r, w, d, t) for t in admissible_types(r, w.npoints))


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
