"""Output checks, run outside the timed region.

``check(op, code, stdout)`` returns None when the output is right and a
one-line reason otherwise.  Every op must exit 0 with one JSON line.  The
structural rules below hold for any seed; most compare with facts that
``inputs`` worked out on its own, so no check calls ``parastab``.
"""
from __future__ import annotations

import json
from fractions import Fraction

from inputs import (
    act_degree,
    act_weights,
    count_levels,
    fingerprint,
    image_fingerprint,
    laurent_from_output,
    lmul,
)


def _frac_rows(rows) -> list[list[Fraction]]:
    return [[Fraction(a) for a in tup] for tup in rows]


def _check_aut(e, out):
    r, n, d, g = e["r"], e["n"], e["d"], e["g"]
    mult = {tuple(range(n)): 1}
    mult.update({tuple(s["perm"]): s["multiplicity"] for s in e["symmetries"]})
    classes = out["classes"]
    for word in e["fixed"]:
        if word not in classes:
            return f"class {word}, which fixes the weights, is missing"
    ref = fingerprint(e["rows"], r, e["q"], d)
    for c in classes:
        if act_degree(c, d, r) != d:
            return f"class {c} moves degree {d}"
        if image_fingerprint(c, e["rows"], r, e["q"], d) != ref:
            return f"class {c} moves the chamber"
    if out["torsion_factor"] != r ** (2 * g):
        return "torsion factor is not r^(2g)"
    if out["order"] != r ** (2 * g) * sum(mult[tuple(c["perm"])] for c in classes):
        return "order is not r^(2g) times the class multiplicities"
    if not out["degree_generic"]:
        return "input was chosen off every relevant wall"
    return None


def _check_iso(e, out):
    r, q, found = e["r"], e["q"], out["transforms"]
    if out["count"] != len(found):
        return "count differs from the listed transforms"
    ref = fingerprint(e["rows2"], r, q, e["d2"])
    for t in found:
        if act_degree(t, e["d1"], r) != e["d2"]:
            return f"transform {t} does not carry degree {e['d1']} to {e['d2']}"
        if image_fingerprint(t, e["rows1"], r, q, e["d1"]) != ref:
            return f"transform {t} does not carry the first chamber to the second"
    if e["listed"] is not None and e["listed"] not in found:
        return f"seeded word {e['listed']} missing from an isomorphic pair"
    return None


def _check_walls(e, out):
    walls = out["walls"]
    if out["count"] != len(walls):
        return "count differs from the listed walls"
    for w in walls:
        if w["relevant"] != ((w["m"] + w["subrank"] * e["d"]) % e["r"] == 0):
            return f"relevance flag wrong at {w}"
        if not e["all"] and not w["relevant"]:
            return "irrelevant wall listed without --all"
    if len(walls) != e["count"]:
        return f"{len(walls)} walls, expected {e['count']}"
    return None


def _check_same_chamber(e, out):
    walls = out["walls"]
    if walls is None or len(walls) != e["count"]:
        return f"expected {e['count']} relevant walls"
    if out["same"] != (not walls):
        return "same chamber must mean no relevant wall crossed"
    return None


def _check_invariant(e, out):
    if out["values"] != e["values"]:
        return "fingerprint values differ from floor((r'd + level) / r)"
    if len(out["types"]) != len(e["values"]) or len(e["values"]) != count_levels(out["r"], out["n"]):
        return "pattern count is not sum_k C(r,k)^n"
    return None


def _check_generic(e, out):
    if out["witness"] != e["witness"] or out["generic"] != (e["witness"] is None):
        return "blanket genericity or its first witness is wrong"
    if out["degree_witness"] != e["degree_witness"] or out["degree_generic"] != (
        e["degree_witness"] is None
    ):
        return "degree genericity or its first witness is wrong"
    return None


def _check_hecke(e, out):
    if out["n"] != e["n"] or out["precision"] != 24:
        return "size or precision echoed wrong"
    if out["integral"] != (out["offenders"] == []):
        return "integral must mean no offenders"
    if out["k"] != out["det_valuation"] % out["n"]:
        return "k is not det_valuation mod n"
    if out["det_valuation"] != e["det_valuation"]:
        return f"det valuation {out['det_valuation']}, expected {e['det_valuation']}"
    if e.get("normalizer") and not (out["integral"] and out["parabolic_input"]):
        return "conjugation by a parabolic unit or a power of h must stay integral"
    return None


def _laurent_matrix(doc) -> list[list[dict]]:
    return [[{int(k): Fraction(v) for k, v in entry.items()} for entry in row]
            for row in doc["entries"]]


def _check_mp(e, out):
    a, b = _laurent_matrix(e["a"]), _laurent_matrix(e["b"])
    n = len(a)
    mp = out["mp"]
    if out["n"] != n or len(mp) != n * n:
        return "wrong size"
    for p in range(n * n):
        i, j = divmod(p, n)
        for q in range(n * n):
            k, l = divmod(q, n)
            shift = -(j < i) + (l < k)
            want = {ex + shift: c for ex, c in lmul(a[i][k], b[l][j]).items()}
            if laurent_from_output(mp[p][q]) != want:
                return f"entry ({p}, {q}) is not z^xi A[i][k] B[l][j]"
    if out["inner"] and not out["pure_tensor"]:
        return "inner without being a pure tensor"
    return None


def _check_rank1(e, out):
    m = _laurent_matrix(e["m"])
    if out["rank1"] != e["rank1"]:
        return f"rank1 is {out['rank1']}, expected {e['rank1']}"
    if out["rank1"]:
        col = [laurent_from_output(v) for v in out["col"]]
        row = [laurent_from_output(v) for v in out["row"]]
        for i, c in enumerate(col):
            for j, v in enumerate(row):
                if lmul(c, v) != m[i][j]:
                    return f"col x row differs at ({i}, {j})"
    return None


def _check_equal(*keys):
    def check(e, out):
        for key in keys:
            if out[key] != e[key]:
                return f"{key} is {out[key]!r}, expected {e[key]!r}"
        return None
    return check


def _normal_form_error(word: dict, r: int) -> str | None:
    if word["sign"] not in (1, -1) or any(not 0 <= h < r for h in word["hecke"]):
        return f"word {word} is not in normal form"
    if sorted(word["perm"]) != list(range(len(word["perm"]))):
        return f"word {word} has no permutation"
    return None


def _check_compose(e, out):
    r, d, w = e["r"], e["d"], _frac_rows(e["fracs"])
    t1, t2, u = e["first"], e["second"], out["word"]
    if act_weights(u, w) != act_weights(t1, act_weights(t2, w)) or act_degree(
        u, d, r
    ) != act_degree(t1, act_degree(t2, d, r), r):
        return f"composite {u} acts unlike its factors on the probe"
    return _normal_form_error(u, r)


def _check_inverse(e, out):
    r, d, w = e["r"], e["d"], _frac_rows(e["fracs"])
    t, u = e["word"], out["word"]
    back = act_weights(u, act_weights(t, w))
    if back != [tuple(a - tup[0] for a in tup) for tup in w] or act_degree(
        u, act_degree(t, d, r), r
    ) != d:
        return f"inverse {u} does not undo {t} on the probe"
    return _normal_form_error(u, r)


def _w_summand(g: int, n: int, k: int) -> int:
    return g if k == 1 else k * (2 * g - 2) + (k - 1) * n - g + 1


def _check_dims(e, out):
    g, n, r, s = e["g"], e["n"], e["r"], e["stratum"]
    fixed = (r * r - 1) * (g - 1) + n * (r * r - r) // 2
    ladder = [_w_summand(g, n, k) for k in range(1, r + 1)]
    if 2 * s == r:
        stratum = sum(_w_summand(g, n, j) for j in range(2, s + 1))
    else:
        stratum = sum(_w_summand(g, n, j) for j in range(1, s + 1)) + sum(
            _w_summand(g, n, j) for j in range(2, r - 2 * s + 1)
        )
    want = {"fixed_det": fixed, "nonfixed": fixed + g, "w": ladder,
            "w_total": sum(ladder[1:]), "stratum": stratum}
    return None if out == want else f"dims {out}, expected {want}"


def _check_orders(e, out):
    aut = e["r"] ** (2 * e["g"]) * e["aut_order"]
    ratio = 2 ** (e["n"] - 1) if e["r"] == 2 else 2 * e["r"] ** (e["n"] - 1)
    want = {"aut": aut, "threebir": aut * ratio, "ratio": ratio}
    return None if out == want else f"orders {out}, expected {want}"


def _check_xi(e, out):
    n = e["n"]
    want = [[-(j < i) + (l < k) for k, l in (divmod(q, n) for q in range(n * n))]
            for i, j in (divmod(p, n) for p in range(n * n))]
    return None if out["xi"] == want else "xi pattern differs from -[j<i] + [l<k]"


CHECKS = {
    "aut": _check_aut,
    "iso": _check_iso,
    "walls": _check_walls,
    "walls --all": _check_walls,
    "same-chamber": _check_same_chamber,
    "invariant": _check_invariant,
    "generic": _check_generic,
    "matrix-hecke exact": _check_hecke,
    "matrix-hecke series": _check_hecke,
    "matrix-hecke h": _check_hecke,
    "matrix-hecke parabolic": _check_hecke,
    "matrix-mp": _check_mp,
    "matrix-rank1": _check_rank1,
    "normalize": _check_equal("weights", "degree"),
    "owt": _check_equal("owt", "pdeg", "subrank", "s_min"),
    "concentrated": _check_equal("concentrated", "bound", "spreads"),
    "bounds": _check_equal("chamber", "lm", "codim", "refined"),
    "transform": _check_equal("weights", "degree"),
    "compose": _check_compose,
    "inverse": _check_inverse,
    "dims": _check_dims,
    "orders": _check_orders,
    "matrix-xi": _check_xi,
}


def check(op, code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit code {code}: {stdout.strip()[:200]}"
    lines = stdout.splitlines()
    if len(lines) != 1:
        return f"expected one output line, got {len(lines)}"
    try:
        out = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    try:
        return CHECKS[op.kind](op.expect, out)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}"
