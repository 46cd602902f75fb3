"""Numerical classification of moduli automorphisms and isomorphisms.

Candidate transformations are cut out by an exact degree equation as
canonical class representatives (at rank 2 every dualizing word equals a
non-dualizing one, so none is generated), and then filtered by the chamber
fingerprint.  Each surviving class lifts to a torsion group of line bundle
twists of size r^(2g), so group orders come out as exact integers.
"""
from __future__ import annotations

import sys
from itertools import chain, combinations, product, starmap
from operator import eq
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DomainError, Record
from .transform_group import NumTransform, act_on_row
from .weights_core import (
    GenericityResult,
    WeightSystem,
    is_degree_generic,
    is_generic,
    level_denominator,
    numerator_rows,
    picked_sums,
    wall_grid,
)

class CurveData(Record):
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
    return CurveData(genus, tuple(points), ())


Word = tuple[tuple[int, ...], int, int, tuple[int, ...]]


def _degree_pinned(
    r: int, n: int, perms: Sequence[tuple[int, ...]], d_from: int, d_to: int
) -> Iterator[Word]:
    """Each class representative carrying degree d_from to d_to, once, in perm order.

    A representative is the tuple (perm, sign, tdeg, hecke) of a canonical
    word.  The degree equation r*tdeg = sign*d_to - d_from + |H| pins the
    twist degree whenever it is solvable.  At rank 2 a dualizing word equals
    the non-dualizing one with the same perm and Hecke values
    (``reduce_dual_rank2``), whose equation has the same parity and the
    twist degree it reduces to, so only sign +1 is generated.
    """
    for perm in perms:
        for sign in (1,) if r == 2 else (1, -1):
            offset = sign * d_to - d_from
            for hecke in product(range(r), repeat=n):
                numerator = offset + sum(hecke)
                if not numerator % r:
                    yield perm, sign, numerator // r, hecke


def _floors(
    grid: list[tuple[int, int, int]], picked: Callable, s: int, keys: Sequence[int], total: int
) -> Iterator[int]:
    """Row set s's fingerprint at ``keys``, lazily: (L + shift) // width per pattern.

    (r', shift, width) runs over ``grid``, and L is r' times the total of
    the rows at keys less one of each key's picked sums ``picked(s, r')``.
    """
    return chain.from_iterable(
        map(width.__rfloordiv__, map((rp * total + shift).__sub__,
                                     map(sum, product(*map(picked(s, rp).__getitem__, keys)))))
        for rp, shift, width in grid
    )


def _chamber_preserving(
    candidates: Iterable[Word], w_from: WeightSystem, d_to: int, w_to: WeightSystem
) -> tuple[NumTransform, ...]:
    """The candidates whose image of w_from has w_to's fingerprint at degree d_to.

    Candidates act on integer rows over one common denominator.  An image
    row depends only on its source point, Hecke value and sign, so each such
    row is built once per call, and its picked sums per subrank when a
    candidate first reaches that subrank; a candidate only places them by
    its perm.  w_to's normalized rows are one more row set, read the same
    way.  A candidate whose image rows are those (the identity in ``aut``)
    survives without a comparison, since the fingerprint is
    translation-invariant.  Any other stops at its first fingerprint value
    that differs, and w_to's is read only as far as some candidate has
    matched it.
    """
    r, n = w_from.rank, w_from.npoints
    if r < 2:
        raise DomainError("requires r >= 2 and n >= 1")
    q = level_denominator(w_from, w_to)
    target = [act_on_row(row, 0, 1, q) for row in numerator_rows(w_to, q)]
    # image[s][r*i + h]: point i's row under Hecke value h, dualized when s;
    # image[2][i]: w_to's normalized row of point i
    rows = numerator_rows(w_from, q)
    image = [[act_on_row(row, h, sign, q) for row in rows for h in range(r)] for sign in (1, -1)]
    image.append(target)
    grid = [(rp, *wall_grid(r, rp, q, d_to)) for rp in range(1, r)]
    tables: dict[tuple[int, int], list[list[int]]] = {}

    def picked(s: int, rp: int) -> list[list[int]]:
        if (s, rp) not in tables:
            picks = tuple(combinations(range(1, r + 1), rp))
            tables[s, rp] = [picked_sums(row, picks) for row in image[s]]
        return tables[s, rp]

    ref: list[int] = []
    ref_floors = _floors(grid, picked, 2, range(n), sum(map(sum, target)))

    def read_on(value: int) -> bool:
        known = next(ref_floors)
        ref.append(known)
        return value == known

    # the first value picks each image row's leading 0, so it reads the row total alone
    _, head_shift, head_width = grid[0]
    sources: dict[tuple[int, ...], list[int]] = {}
    survivors = []
    for cand in candidates:
        perm, sign, _, hecke = cand
        if perm not in sources:
            sources[perm] = sorted(range(n), key=perm.__getitem__)
        s = sign == -1
        # the key of the image row at each position
        keys = [r * i + hecke[i] for i in sources[perm]]
        placed = list(map(image[s].__getitem__, keys))
        if placed != target:
            total = sum(map(sum, placed))
            head = (total + head_shift) // head_width
            if not (ref[0] == head if ref else read_on(head)):
                continue
            floors = _floors(grid, picked, s, keys, total)
            if not (all(map(eq, ref, floors)) and all(map(read_on, floors))):
                continue
        survivors.append(NumTransform(*cand))
    return tuple(survivors)


def candidate_transforms(r: int, d: int, curve: CurveData) -> tuple[NumTransform, ...]:
    """All rank-r class representatives fixing degree d over the curve symmetries."""
    if r < 2:
        raise DomainError("rank must be at least 2")
    perms = [perm for perm, _ in curve.symmetries]
    return tuple(starmap(NumTransform, _degree_pinned(r, curve.npoints, perms, d, d)))


class AutResult(Record):
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
    torsion = _power(r, 2 * g)
    order = torsion * sum(curve.multiplicity(c.perm) for c in survivors)
    # genus_bounds(normalize(w)).chamber: normalized first weights sum to 0
    chamber_genus = 1 + (r - 1) * n
    return AutResult(
        r, d, g, survivors, torsion, order, bool(blanket), bool(relative),
        chamber_genus, max(chamber_genus, 6),
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


class OrdersResult(Record):
    aut: int
    threebir: int
    ratio: int


def _power(base: int, exp: int) -> int:
    """``base ** exp``, refused first when its digits certainly pass the int-string limit."""
    limit = sys.get_int_max_str_digits()
    # base ** exp >= 2 ** (exp * (bit_length - 1)), and log10(2) > 3/10
    if limit and 3 * exp * (base.bit_length() - 1) // 10 >= limit:
        raise DomainError(f"result has an integer of more than {limit} digits")
    return base ** exp


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
    aut = _power(r, 2 * g) * aut_order
    ratio = _power(r, n_points - 1) * (2 if r > 2 else 1)
    return OrdersResult(aut, aut * ratio, ratio)
