"""Numerical classification of moduli automorphisms and isomorphisms.

Candidate transformations are cut out by an exact degree equation, reduced
to canonical class representatives (at rank 2 every dualizing candidate
folds onto a non-dualizing one), and then filtered by the chamber
fingerprint.  Each surviving class lifts to a torsion group of line bundle
twists of size r^(2g), so group orders come out as exact integers.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import eq
from typing import Iterable, Iterator, Sequence

from .chamber import chamber_fingerprint, fingerprint_floors
from .errors import DomainError
from .transform_group import (
    NumTransform,
    act_on_rows,
    reduce_dual_rank2,
)
from .weights_core import (
    GenericityResult,
    WeightSystem,
    genus_bounds,
    is_degree_generic,
    is_generic,
    level_denominator,
    normalize,
    numerator_rows,
)

# below this genus the torsion lifts of distinct classes may coincide
LIFT_FAITHFUL_MIN_GENUS = 4


@dataclass(frozen=True)
class CurveData:
    """Marked-curve context: genus, point labels, and symmetry classes.

    ``symmetries`` lists (perm, multiplicity) pairs; perm[i] is the image
    position of point i and multiplicity counts curve symmetries inducing
    that relabeling.  The identity is always included.
    """

    genus: int
    points: tuple[str, ...]
    symmetries: tuple[tuple[tuple[int, ...], int], ...] = ()

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise DomainError("genus must be nonnegative")
        n = len(self.points)
        if n < 1:
            raise DomainError("at least one marked point is required")
        if len(set(self.points)) != n:
            raise DomainError("point labels must be distinct")
        seen = set()
        for perm, mult in self.symmetries:
            if sorted(perm) != list(range(n)):
                raise DomainError("symmetry perms must permute 0..n-1")
            if mult < 1:
                raise DomainError("symmetry multiplicities must be positive")
            if perm in seen:
                raise DomainError("duplicate symmetry perm")
            seen.add(perm)
        identity = tuple(range(n))
        if identity not in seen:
            object.__setattr__(
                self, "symmetries", ((identity, 1),) + tuple(self.symmetries)
            )

    @property
    def npoints(self) -> int:
        return len(self.points)

    def multiplicity(self, perm: tuple[int, ...]) -> int:
        for p, mult in self.symmetries:
            if p == perm:
                return mult
        raise DomainError("perm is not a symmetry of this curve")

    def order(self) -> int:
        return sum(mult for _, mult in self.symmetries)


def trivial_curve(genus: int, points: Sequence[str]) -> CurveData:
    return CurveData(genus=genus, points=tuple(points))


def _degree_pinned(
    r: int, n: int, perms: Sequence[tuple[int, ...]], d_from: int, d_to: int
) -> Iterator[NumTransform]:
    """Each class representative carrying degree d_from to d_to, once, in perm order.

    The degree equation r*tdeg = sign*d_to - d_from + |H| pins the twist
    degree whenever it is solvable.  At rank 2 dualizing candidates are
    folded onto their non-dualizing representatives and deduplicated.
    """
    seen = set()
    for perm in perms:
        for sign in (1, -1):
            for hecke in product(range(r), repeat=n):
                numerator = sign * d_to - d_from + sum(hecke)
                if numerator % r:
                    continue
                cand = NumTransform(perm, sign, numerator // r, hecke)
                if r == 2 and sign == -1:
                    cand = reduce_dual_rank2(cand, d_from)
                if cand not in seen:
                    seen.add(cand)
                    yield cand


def _chamber_preserving(
    candidates: Iterable[NumTransform], w_from: WeightSystem, d_to: int, w_to: WeightSystem
) -> tuple[NumTransform, ...]:
    """The candidates whose image of w_from has w_to's fingerprint at degree d_to.

    Candidates act on integer rows over one common denominator, and each stops
    at its first fingerprint value that differs.
    """
    ref = chamber_fingerprint(w_to, d_to)
    q = level_denominator(w_from, w_to)
    rows = numerator_rows(w_from, q)
    return tuple(
        cand
        for cand in candidates
        if all(map(eq, ref, fingerprint_floors(act_on_rows(cand, rows, q), d_to, q)))
    )


def candidate_transforms(r: int, d: int, curve: CurveData) -> tuple[NumTransform, ...]:
    """All rank-r class representatives fixing degree d over the curve symmetries."""
    if r < 2:
        raise DomainError("rank must be at least 2")
    perms = [perm for perm, _ in curve.symmetries]
    return tuple(_degree_pinned(r, curve.npoints, perms, d, d))


@dataclass(frozen=True)
class AutResult:
    """Surviving classes and the exact order of the lifted group."""

    r: int
    d: int
    genus: int
    classes: tuple[NumTransform, ...]
    torsion_factor: int
    order: int
    generic: bool
    degree_generic: bool
    chamber_genus: int
    classification_genus: int

    @property
    def genus_sufficient(self) -> bool:
        return self.genus >= self.classification_genus


def automorphism_group(
    w: WeightSystem, d: int, curve: CurveData, strict: bool = False
) -> AutResult:
    """Classes fixing both the determinant degree d and the chamber fingerprint of w.

    The rank is w's and the genus the curve's, whose points must be w's.
    With ``strict`` the blanket genericity test must pass; by default the
    result only records the genericity flags, since weight systems sitting
    on degree-irrelevant walls still have a well-defined fingerprint.
    """
    r, n, g = w.rank, w.npoints, curve.genus
    if curve.npoints != n:
        raise DomainError("curve data mismatch")
    blanket: GenericityResult = is_generic(w)
    # degree-relevant walls are walls, so a system on none needs no second scan
    relative: GenericityResult = blanket if blanket else is_degree_generic(w, d)
    if strict and not blanket:
        raise DomainError(
            f"weights are not generic: wall witness {blanket.witness}"
        )
    perms = [perm for perm, _ in curve.symmetries]
    survivors = _chamber_preserving(_degree_pinned(r, n, perms, d, d), w, d, w)
    torsion = r ** (2 * g)
    order = torsion * sum(curve.multiplicity(c.perm) for c in survivors)
    chamber_genus = genus_bounds(normalize(w)).chamber
    return AutResult(
        r=r,
        d=d,
        genus=g,
        classes=survivors,
        torsion_factor=torsion,
        order=order,
        generic=bool(blanket),
        degree_generic=bool(relative),
        chamber_genus=chamber_genus,
        classification_genus=max(chamber_genus, 6),
    )


def iso_transforms(
    w1: WeightSystem,
    d1: int,
    w2: WeightSystem,
    d2: int,
    curve_iso: Sequence[tuple[int, ...]] = (),
    strict: bool = False,
) -> tuple[NumTransform, ...]:
    """Classes carrying the space of (w1, d1) onto that of (w2, d2).

    Both systems must share their rank r and point count n.  ``curve_iso``
    lists the point relabelings induced by curve isomorphisms; the identity
    is always considered.  The degree equation here reads
    r*tdeg = sign*d2 - d1 + |H|.
    """
    r, n = w1.rank, w1.npoints
    if w2.rank != r or w2.npoints != n:
        raise DomainError("weight system shape mismatch")
    if strict:
        for label, ws in (("first", w1), ("second", w2)):
            res = is_generic(ws)
            if not res:
                raise DomainError(
                    f"{label} weights are not generic: wall witness {res.witness}"
                )
    perms = [tuple(range(n))]
    for perm in curve_iso:
        p = tuple(perm)
        if sorted(p) != list(range(n)):
            raise DomainError("curve isomorphism perms must permute 0..n-1")
        if p not in perms:
            perms.append(p)
    return _chamber_preserving(_degree_pinned(r, n, perms, d1, d2), w1, d2, w2)


@dataclass(frozen=True)
class OrdersResult:
    aut: int
    threebir: int
    ratio: int


def concentrated_orders(g: int, r: int, n_points: int, aut_order: int) -> OrdersResult:
    """Exact orders of the regular and birational symmetry groups.

    For concentrated generic weights with degree coprime to the rank, the
    automorphism group has order r^(2g) * aut_order, where aut_order counts
    the symmetries of the marked curve.  The birational group adds the
    Hecke classes with trivial total shift (r^(n-1) of them) and, above
    rank 2, the dual.
    """
    if g < 0 or r < 2 or n_points < 1 or aut_order < 1:
        raise DomainError("requires g >= 0, r >= 2, n_points >= 1, aut_order >= 1")
    aut = r ** (2 * g) * aut_order
    if r == 2:
        ratio = 2 ** (n_points - 1)
    else:
        ratio = 2 * r ** (n_points - 1)
    return OrdersResult(aut=aut, threebir=aut * ratio, ratio=ratio)
