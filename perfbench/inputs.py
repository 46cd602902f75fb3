"""Seeded inputs for the four benchmark workloads.

Each workload is a sequence of rounds.  Round ``k`` of workload ``w`` under
seed ``s`` is a fixed list of operations whose shapes never change; the seed
only picks the numbers inside them.  A run measures whole rounds, so every
run sees the same mix of shapes whatever its seed.

Nothing here imports ``parastab``: the inputs, and the facts the checks
compare outputs with, come from this module's own ``Fraction`` arithmetic,
so a change to the library cannot change what is measured or expected.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

DEFAULT_SEED = 0
MASK64 = (1 << 64) - 1


class Rng:
    """splitmix64 keyed by a tuple; stable across Python versions."""

    def __init__(self, *key: object) -> None:
        digest = hashlib.sha256(repr(key).encode()).digest()
        self.state = int.from_bytes(digest[:8], "little")

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next64() % n

    def between(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return lo + self.below(hi - lo + 1)

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def nonzero(self, bound: int) -> int:
        value = self.between(1, bound)
        return value if self.below(2) else -value

    def distinct_sorted(self, k: int, hi: int) -> list[int]:
        """k distinct integers from [0, hi), ascending."""
        picked: set[int] = set()
        while len(picked) < k:
            picked.add(self.below(hi))
        return sorted(picked)


@dataclass(frozen=True)
class Op:
    """One CLI call: ``kind`` names the stratum, ``expect`` feeds the checks."""

    kind: str
    argv: tuple[str, ...]
    stdin: str = ""
    expect: dict = field(default_factory=dict, compare=False)

    def key(self) -> str:
        return json.dumps([self.kind, self.argv, self.stdin, self.expect], sort_keys=True)


def _dump(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# weight systems as integer numerators over one denominator q


def levels(rows: list[list[int]], r: int):
    """Yield (subrank, 0-based picks, L) where the wall level is L / q.

    The order matches the library's pattern order: subrank, then the
    per-point lexicographic product of index combinations.
    """
    total = sum(sum(row) for row in rows)
    for rp in range(1, r):
        combos = list(combinations(range(r), rp))
        sums = [[sum(row[i] for i in c) for c in combos] for row in rows]
        for idx in product(range(len(combos)), repeat=len(rows)):
            picked = sum(sums[x][i] for x, i in enumerate(idx))
            yield rp, tuple(combos[i] for i in idx), rp * total - r * picked


def count_levels(r: int, n: int) -> int:
    return sum(comb(r, rp) ** n for rp in range(1, r))


def first_wall(rows, r: int, q: int, d: int | None):
    """First integer level (relevant for degree d when d is given), or None."""
    for rp, picks, lv in levels(rows, r):
        if lv % q:
            continue
        m = lv // q
        if d is None or (m + rp * d) % r == 0:
            return {"subrank": rp, "picks": [[i + 1 for i in c] for c in picks], "m": m}
    return None


def random_rows(rng: Rng, r: int, n: int, q: int) -> list[list[int]]:
    return [rng.distinct_sorted(r, q) for _ in range(n)]


def off_walls(rng: Rng, r: int, n: int, q: int, d: int | None,
              twin: bool = False) -> list[list[int]]:
    """Numerators off every wall (d None) or off the walls relevant for d.

    With ``twin`` the first two points carry the same weights.
    """
    while True:
        rows = random_rows(rng, r, n, q)
        if twin:
            rows[1] = rows[0]
        if first_wall(rows, r, q, d) is None:
            return rows


def to_fracs(rows, q: int) -> list[list[Fraction]]:
    return [[Fraction(a, q) for a in row] for row in rows]


def to_rows(fracs, q: int) -> list[list[int]]:
    """Numerators over q of weights whose denominators divide q."""
    return [[int(a * q) for a in tup] for tup in fracs]


def weight_doc(fracs, r: int, d: int, **extra) -> dict:
    doc = {
        "r": r,
        "degree": d,
        "points": [
            {"label": f"p{i}", "weights": [str(a) for a in tup]}
            for i, tup in enumerate(fracs)
        ],
    }
    doc.update(extra)
    return doc


def fingerprint(rows, r: int, q: int, d: int) -> list[int]:
    """Extremal subdegrees floor((r' d + level) / r) in pattern order."""
    return [(rp * d * q + lv) // (r * q) for rp, _, lv in levels(rows, r)]


def walls_between(rows1, rows2, r: int, q: int, d: int, relevant_only: bool) -> int:
    """Number of integer levels strictly between two off-wall systems."""
    count = 0
    for (rp, _, l1), (_, _, l2) in zip(levels(rows1, r), levels(rows2, r)):
        lo, hi = sorted((l1, l2))
        for m in range(lo // q + 1, hi // q + 1):
            if not relevant_only or (m + rp * d) % r == 0:
                count += 1
    return count


# ---------------------------------------------------------------------------
# transformation words, acting on Fraction weights


def act_weights(word: dict, fracs) -> list[tuple[Fraction, ...]]:
    """Hecke shift each normalized point, relabel, then dualize if sign is -1."""
    r = len(fracs[0])
    moved = []
    for tup, h in zip(fracs, word["hecke"]):
        tup = [a - tup[0] for a in tup]
        base = tup[h]
        moved.append(tuple(tup[(i + h) % r] - base + (1 if i + h >= r else 0) for i in range(r)))
    out: list = [None] * len(moved)
    for i, row in enumerate(moved):
        out[word["perm"][i]] = row
    if word["sign"] == -1:
        out = [tuple(tup[-1] - a for a in reversed(tup)) for tup in out]
    return out


def act_degree(word: dict, d: int, r: int) -> int:
    return word["sign"] * (r * word["tdeg"] + d - sum(word["hecke"]))


def image_fingerprint(word: dict, rows, r: int, q: int, d: int) -> list[int]:
    """Fingerprint of the image of the system ``rows / q`` of degree d."""
    image = to_rows(act_weights(word, to_fracs(rows, q)), q)
    return fingerprint(image, r, q, act_degree(word, d, r))


def random_word(rng: Rng, r: int, n: int, perm=None) -> dict:
    if perm is None:
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = rng.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
    return {
        "perm": list(perm),
        "sign": rng.choice((1, -1)),
        "tdeg": rng.between(-2, 2),
        "hecke": [rng.below(r) for _ in range(n)],
    }


def transposition(n: int) -> list[int]:
    perm = list(range(n))
    perm[0], perm[1] = 1, 0
    return perm


def plain_word(perm: list[int]) -> dict:
    """The relabeling ``perm`` with no dual, twist or Hecke shift."""
    return {"perm": perm, "sign": 1, "tdeg": 0, "hecke": [0] * len(perm)}


# ---------------------------------------------------------------------------
# aut_classify

# (r, n, curve symmetry, relabeling of the iso word or None for no iso op).
# A curve has the identity only, one transposition, or all of S_n when
# n <= 3.  On a curve with the transposition and n > 2, the first two
# points get the same weights, so the transposition itself is a class that
# must be listed.  (At n = 2 and even r two equal points sit on the wall
# m = 0 of subrank r/2.)
# The two costliest shapes get no iso op, so that a round stays near three
# seconds and a 25-second run holds more than a hundred ops.
AUT_SHAPES = (
    (2, 5, "swap", "swap"),
    (2, 6, "none", "id"),
    (3, 3, "full", "swap"),
    (3, 4, "none", None),
    (4, 2, "full", "swap"),
    (4, 3, "none", None),
    (5, 2, "swap", "swap"),
)
AUT_Q = 997


def _symmetries(rng: Rng, n: int, kind: str) -> list[dict]:
    if kind == "none":
        perms = []
    elif kind == "swap":
        perms = [transposition(n)]
    else:
        perms = [list(p) for p in permutations(range(n))]
    return [{"perm": p, "multiplicity": rng.between(1, 3)} for p in perms]


def aut_classify(seed: int, k: int) -> list[Op]:
    ops = []
    for r, n, sym, iso_perm in AUT_SHAPES:
        rng = Rng("aut_classify", seed, k, r, n)
        d = rng.between(-r * n, r * n)
        g = rng.between(2, 6)
        twin = sym != "none" and n > 2
        rows = off_walls(rng, r, n, AUT_Q, d, twin)
        fracs = to_fracs(rows, AUT_Q)
        symmetries = _symmetries(rng, n, sym)
        doc = weight_doc(fracs, r, d, genus=g, symmetries=symmetries)
        fixed = [plain_word(list(range(n)))]
        if twin:
            fixed.append(plain_word(transposition(n)))
        ops.append(Op(
            "aut", ("aut", "--json"), _dump(doc),
            {"r": r, "n": n, "d": d, "g": g, "symmetries": symmetries,
             "rows": rows, "q": AUT_Q, "fixed": fixed},
        ))
        if iso_perm is None:
            continue
        word = random_word(rng, r, n, transposition(n) if iso_perm == "swap" else list(range(n)))
        d2 = act_degree(word, d, r)
        image = act_weights(word, fracs)
        doc2 = weight_doc(image, r, d2)
        argv = ("iso", "--json") + (("--perms", _dump([word["perm"]])) if iso_perm == "swap" else ())
        if r == 2 and word["sign"] == -1:
            # rank-2 duals are listed by their non-dualizing representative
            listed = dict(word, sign=1, tdeg=-word["tdeg"] + sum(word["hecke"]) - d)
        else:
            listed = word
        ops.append(Op(
            "iso", argv, _dump({"first": doc, "second": doc2}),
            {"r": r, "d1": d, "d2": d2, "listed": listed, "rows1": rows,
             "rows2": to_rows(image, AUT_Q), "q": AUT_Q},
        ))
    # unrelated pairs on cheap shapes, where any count is allowed; they make
    # fifteen ops a round, so p50 and p90 fall mid-way into one op shape
    for r, n in ((2, 5), (4, 2), (3, 3)):
        rng = Rng("aut_classify/unrelated", seed, k, r, n)
        d1, d2 = rng.between(-r * n, r * n), rng.between(-r * n, r * n)
        rows1, rows2 = random_rows(rng, r, n, AUT_Q), random_rows(rng, r, n, AUT_Q)
        doc1 = weight_doc(to_fracs(rows1, AUT_Q), r, d1)
        doc2 = weight_doc(to_fracs(rows2, AUT_Q), r, d2)
        ops.append(Op(
            "iso", ("iso", "--json"), _dump({"first": doc1, "second": doc2}),
            {"r": r, "d1": d1, "d2": d2, "listed": None, "rows1": rows1, "rows2": rows2,
             "q": AUT_Q},
        ))
    return ops


# ---------------------------------------------------------------------------
# wall_scan

WALL_SHAPES = ((2, 8), (2, 10), (3, 5), (3, 6), (4, 3), (4, 4), (5, 3))
WALL_Q = 10007
# Small denominator for the genericity inputs of every other shape: they
# usually sit on some wall, so the scan stops early on those.
ON_WALL_Q = 12


def wall_scan(seed: int, k: int) -> list[Op]:
    ops = []
    for index, (r, n) in enumerate(WALL_SHAPES):
        rng = Rng("wall_scan", seed, k, r, n)
        d = rng.between(-r * n, r * n)
        rows1 = off_walls(rng, r, n, WALL_Q, None)
        rows2 = off_walls(rng, r, n, WALL_Q, None)
        doc1 = weight_doc(to_fracs(rows1, WALL_Q), r, d)
        doc2 = weight_doc(to_fracs(rows2, WALL_Q), r, d)
        pair = _dump({"first": doc1, "second": doc2})
        relevant = walls_between(rows1, rows2, r, WALL_Q, d, True)
        ops.append(Op("walls", ("walls", "--json"), pair,
                      {"r": r, "d": d, "count": relevant, "all": False}))
        ops.append(Op("walls --all", ("walls", "--all", "--json"), pair,
                      {"r": r, "d": d, "count": walls_between(rows1, rows2, r, WALL_Q, d, False),
                       "all": True}))
        ops.append(Op("same-chamber", ("same-chamber", "--json"), pair,
                      {"r": r, "d": d, "count": relevant}))
        ops.append(Op("invariant", ("invariant", "--json"), _dump(doc1),
                      {"values": fingerprint(rows1, r, WALL_Q, d)}))
        q = ON_WALL_Q if index % 2 else WALL_Q
        rows = random_rows(rng, r, n, q)
        ops.append(Op("generic", ("generic", "--json"), _dump(weight_doc(to_fracs(rows, q), r, d)),
                      {"witness": first_wall(rows, r, q, None),
                       "degree_witness": first_wall(rows, r, q, d)}))
    return ops


# ---------------------------------------------------------------------------
# Laurent polynomials {exponent: Fraction} and matrices of them


def lmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ladd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def mat_mul(a, b):
    n, m = len(a), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc: dict = {}
            for t in range(len(b)):
                if a[i][t] and b[t][j]:
                    acc = ladd(acc, lmul(a[i][t], b[t][j]))
            row.append(acc)
        out.append(row)
    return out


def identity(n: int):
    return [[{0: Fraction(1)} if i == j else {} for j in range(n)] for i in range(n)]


def mat_doc(m) -> dict:
    return {"entries": [[{str(e): str(c) for e, c in sorted(v.items())} for v in row] for row in m]}


def laurent_from_output(pairs) -> dict:
    return {int(e): Fraction(c) for e, c in pairs}


def mono(rng: Rng, exps) -> dict:
    return {rng.choice(exps): Fraction(rng.nonzero(3))}


def banded_unitriangular(rng: Rng, n: int, upper: bool, width: int, exps) -> list:
    """Unit diagonal plus ``width`` off-diagonals of random monomials."""
    m = identity(n)
    for i in range(n):
        for j in range(n):
            off = j - i if upper else i - j
            if 0 < off <= width:
                m[i][j] = mono(rng, exps)
    return m


def diagonal(entries):
    n = len(entries)
    return [[entries[i] if i == j else {} for j in range(n)] for i in range(n)]


def h_power(n: int, k: int):
    h = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n - 1):
        h[i][i + 1] = {0: Fraction(1)}
    h[n - 1][0] = {1: Fraction(1)}
    out = identity(n)
    for _ in range(k):
        out = mat_mul(out, h)
    return out


def elementary_product(rng: Rng, n: int, factors: int, exps):
    """A product of elementary matrices and its inverse, both exact."""
    a, a_inv = identity(n), identity(n)
    for _ in range(factors):
        i, j = rng.below(n), rng.below(n - 1)
        j += j >= i
        c, e = Fraction(rng.nonzero(2)), rng.choice(exps)
        step, back = identity(n), identity(n)
        step[i][j], back[i][j] = {e: c}, {e: -c}
        a, a_inv = mat_mul(a, step), mat_mul(back, a_inv)
    return a, a_inv


def hecke_exact(rng: Rng, n: int):
    """Monomial determinant z^v: inverse_exact path.  Returns (matrix, v)."""
    exps = (-1, 0, 1)
    powers = [rng.choice(exps) for _ in range(n)]
    d = diagonal([{a: Fraction(rng.choice((1, -1)))} for a in powers])
    u = banded_unitriangular(rng, n, True, 2, exps)
    low = banded_unitriangular(rng, n, False, 1, (0, 1))
    return mat_mul(mat_mul(d, u), low), sum(powers)


def hecke_series(rng: Rng, n: int):
    """Determinant z^v (1 + c z): inverse_series path, with entries kept
    polynomial so the default precision certifies every coefficient."""
    powers = [rng.below(2) for _ in range(n)]
    entries = [{p: Fraction(1)} for p in powers]
    entries[0] = lmul(entries[0], {0: Fraction(1), 1: Fraction(rng.nonzero(3))})
    d = diagonal(entries)
    u = banded_unitriangular(rng, n, True, 2, (0, 1))
    low = banded_unitriangular(rng, n, False, 1, (1,))
    return mat_mul(mat_mul(u, d), low), sum(powers)


def hecke_parabolic(rng: Rng, n: int):
    """Constant upper unitriangular times z-lower unitriangular: det 1."""
    u = banded_unitriangular(rng, n, True, n, (0,))
    low = banded_unitriangular(rng, n, False, 1, (1,))
    return mat_mul(u, low), 0


def rank1_input(rng: Rng, rows: int, cols: int, rank1: bool):
    col = [mono(rng, (-1, 0, 1)) for _ in range(rows)]
    row = [ladd(mono(rng, (0, 1)), mono(rng, (0, 2))) or {0: Fraction(1)} for _ in range(cols)]
    m = [[lmul(c, v) for v in row] for c in col]
    if not rank1:
        m[0][0] = ladd(m[0][0], {3: Fraction(1)})
    return m


def _hecke_op(kind: str, m, v: int, **facts) -> Op:
    return Op(kind, ("matrix-hecke", "--json"), _dump(mat_doc(m)),
              dict({"n": len(m), "det_valuation": v}, **facts))


def _mp_op(rng: Rng, n: int, inverse_pair: bool) -> Op:
    a, a_inv = elementary_product(rng, n, n + 1, (-1, 0, 1))
    b = a_inv if inverse_pair else elementary_product(rng, n, n + 1, (0, 1))[0]
    return Op("matrix-mp", ("matrix-mp", "--check-inner", "--json"),
              _dump({"a": mat_doc(a), "b": mat_doc(b)}), {"a": mat_doc(a), "b": mat_doc(b)})


def _rank1_op(m, rank1: bool) -> Op:
    return Op("matrix-rank1", ("matrix-rank1", "--json"), _dump(mat_doc(m)),
              {"m": mat_doc(m), "rank1": rank1})


def hecke_matrices(seed: int, k: int) -> list[Op]:
    ops = []
    for n in range(2, 7):
        rng = Rng("hecke_matrices", seed, k, n)
        ops.append(_hecke_op("matrix-hecke exact", *hecke_exact(rng, n)))
        ops.append(_hecke_op("matrix-hecke series", *hecke_series(rng, n)))
    # sizes fixed so every round has the same cost profile; fifteen ops a
    # round put p50 and p90 mid-way into one op shape
    rng = Rng("hecke_matrices/small", seed, k)
    power = rng.between(1, 12)
    ops.append(_hecke_op("matrix-hecke h", h_power(6, power), power, normalizer=True))
    ops.append(_hecke_op("matrix-hecke parabolic", *hecke_parabolic(rng, 3), normalizer=True))
    ops.append(_mp_op(rng, 2, inverse_pair=False))
    ops.append(_mp_op(rng, 4, inverse_pair=True))
    rank1 = k % 2 == 0
    ops.append(_rank1_op(rank1_input(rng, 4, 3, rank1), rank1))
    return ops


# ---------------------------------------------------------------------------
# cli_small


def _small_doc(rng: Rng, r: int, n: int, q: int, concentrated: bool = False):
    if concentrated:
        # spreads below 4 / (n r^2): consecutive numerators near a base
        step = max(1, q * 4 // (n * r * r * (r + 1)))
        rows = []
        for _ in range(n):
            base = rng.below(q - r * step)
            rows.append([base + i * step for i in range(r)])
    else:
        rows = random_rows(rng, r, n, q)
    return rows, to_fracs(rows, q)


def cli_small(seed: int, k: int) -> list[Op]:
    rng = Rng("cli_small", seed, k)
    r, n = rng.between(2, 3), rng.between(1, 3)
    q = rng.choice((7, 11, 13, 97))
    d = rng.between(-r * n, r * n)
    rows, fracs = _small_doc(rng, r, n, q)
    doc = _dump(weight_doc(fracs, r, d))
    ops = [Op("normalize", ("normalize", "--json"), doc,
              {"weights": [[str(a - tup[0]) for a in tup] for tup in fracs], "degree": d})]

    rp = rng.between(0, r)
    pattern = []
    for _ in range(n):
        picks = set(rng.distinct_sorted(rp, r))
        pattern.append([1 if i in picks else 0 for i in range(r)])
    picked = sum((a for tup, row in zip(fracs, pattern) for a, s in zip(tup, row) if s), Fraction(0))
    rest = sum((a for tup, row in zip(fracs, pattern) for a, s in zip(tup, row) if not s), Fraction(0))
    total = picked + rest
    ops.append(Op("owt", ("owt", "--json", "--pattern", _dump(pattern)), doc, {
        "owt": str(picked), "pdeg": str(d + total), "subrank": rp,
        "s_min": str((r - rp) * picked - rp * rest) if 0 < rp < r else None,
    }))
    ops.append(Op("invariant", ("invariant", "--json"), doc,
                  {"values": fingerprint(rows, r, q, d)}))
    ops.append(Op("generic", ("generic", "--json"), doc,
                  {"witness": first_wall(rows, r, q, None),
                   "degree_witness": first_wall(rows, r, q, d)}))

    conc = bool(rng.below(2))
    _, cfr = _small_doc(rng, r, n, 997, concentrated=conc)
    bound = Fraction(4, n * r * r)
    spreads = [tup[-1] - tup[0] for tup in cfr]
    ops.append(Op("concentrated", ("concentrated", "--json"), _dump(weight_doc(cfr, r, d)), {
        "concentrated": all(s < bound for s in spreads),
        "bound": str(bound), "spreads": [str(s) for s in spreads],
    }))

    l, m, kk = rng.between(1, 3), rng.between(0, 3), rng.between(0, 3)
    argv = ["bounds", "--json", "--l", str(l), "--m", str(m), "--k", str(kk)]
    first = sum((tup[0] for tup in fracs), Fraction(0))
    expect = {
        "chamber": 1 + (r - 1) * n - first.numerator // first.denominator,
        "lm": str(Fraction(m + l + 1) + Fraction(l + kk, r - 1)),
        "codim": str(1 + Fraction(l - 1, r - 1)),
        "refined": None,
    }
    if 0 < rp < r:
        argv += ["--pattern", _dump(pattern)]
        acc = sum(((1 - a) * (1 - s) for tup, row in zip(fracs, pattern) for a, s in zip(tup, row)),
                  Fraction(0))
        expect["refined"] = str(1 + Fraction(acc.numerator // acc.denominator, rp))
    ops.append(Op("bounds", tuple(argv), doc, expect))

    word = random_word(rng, r, n)
    ops.append(Op("transform", ("transform", "--json", "--word", _dump(word)), doc, {
        "weights": [[str(a) for a in tup] for tup in act_weights(word, fracs)],
        "degree": act_degree(word, d, r),
    }))
    w1, w2 = random_word(rng, r, n), random_word(rng, r, n)
    probe = {"r": r, "fracs": [[str(a) for a in tup] for tup in fracs], "d": d}
    ops.append(Op("compose", ("compose", "--rank", str(r), _dump(w1), _dump(w2)), "",
                  dict(probe, first=w1, second=w2)))
    ops.append(Op("inverse", ("inverse", "--rank", str(r), _dump(w1)), "", dict(probe, word=w1)))

    g, rank, pts = rng.between(2, 6), rng.between(2, 4), rng.between(1, 4)
    stratum = rng.between(1, rank // 2)
    ops.append(Op("dims", ("dims", "--genus", str(g), "--points", str(pts), "--rank", str(rank),
                           "--stratum", str(stratum)), "",
                  {"g": g, "n": pts, "r": rank, "stratum": stratum}))
    aut_order = rng.between(1, 6)
    ops.append(Op("orders", ("orders", "--genus", str(g), "--rank", str(rank), "--points", str(pts),
                             "--aut-order", str(aut_order)), "",
                  {"g": g, "r": rank, "n": pts, "aut_order": aut_order}))
    xn = rng.between(1, 3)
    ops.append(Op("matrix-xi", ("matrix-xi", "--n", str(xn)), "", {"n": xn}))
    rank1 = bool(rng.below(2))
    ops.append(_rank1_op(rank1_input(rng, 2, 2, rank1), rank1))
    return ops


GENERATORS = {
    "aut_classify": aut_classify,
    "wall_scan": wall_scan,
    "hecke_matrices": hecke_matrices,
    "cli_small": cli_small,
}
