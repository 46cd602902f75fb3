"""Command-line interface.

Input documents are JSON.  A weight document looks like

    {"r": 2, "degree": 0,
     "points": [{"label": "x", "weights": ["1/10", "7/10"]},
                {"label": "y", "weights": ["1/5", "3/5"]}],
     "genus": 2,
     "symmetries": [{"perm": ["y", "x"], "multiplicity": 1}]}

Rationals are exact strings like "3/5" or "2"; decimals are rejected.
Matrix documents use {"entries": [[entry, ...], ...]} where an entry is a
rational string, an integer, or a map from exponent to coefficient like
{"0": "1", "-1": "2"}.

Output is a single JSON object on stdout with sorted keys, so identical
inputs always produce identical bytes.  Exit codes: 0 success, 1 domain
error, 2 malformed input.  Errors print {"error": {"kind", "message"}}.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional, Sequence

from .autgroup import (
    CurveData,
    automorphism_group,
    concentrated_orders,
    iso_transforms,
    trivial_curve,
)
from .chamber import chamber_invariant, same_numerical_chamber, subdegree_bounds, walls_crossed
from .errors import DomainError, InputError
from .local_matrix import (
    Laurent,
    LaurentMatrix,
    hecke_conjugation_check,
    is_inner,
    is_pure_tensor,
    mp_closed_form,
    rank1_factor,
    xi_matrix,
)
from .transform_group import (
    NumTransform,
    apply_to_degree,
    apply_to_weights,
    compose,
    hecke_weights,
    identity_transform,
    inverse,
    make_transform,
)
from .weights_core import (
    ParabolicType,
    WeightSystem,
    dim_nonreduced_stratum,
    dims,
    genus_bounds,
    is_concentrated,
    is_degree_generic,
    is_generic,
    normalize,
    owt,
    pdeg,
    s_min,
    weight_system,
)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


# ---------------------------------------------------------------------------
# parsing


def _parse_fraction(value: Any) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value.strip()):
            raise InputError(f"rationals must look like 'p/q' or 'n', got {value!r}")
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise InputError(f"rational has a zero denominator: {value!r}") from None
    raise InputError(f"expected a rational string, got {value!r}")


def _require(obj: dict, key: str, context: str) -> Any:
    if key not in obj:
        raise InputError(f"{context}: missing field {key!r}")
    return obj[key]


def _parse_int(value: Any, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{context}: expected an integer, got {value!r}")
    return value


class Document:
    """Parsed weight document plus the optional curve fields."""

    def __init__(self, obj: Any) -> None:
        if not isinstance(obj, dict):
            raise InputError("document must be a JSON object")
        self.r = _parse_int(_require(obj, "r", "document"), "r")
        if self.r < 1:
            raise InputError("r must be at least 1")
        self.degree = _parse_int(_require(obj, "degree", "document"), "degree")
        points = _require(obj, "points", "document")
        if not isinstance(points, list) or not points:
            raise InputError("points must be a nonempty list")
        labels = []
        weight_rows = []
        for entry in points:
            if not isinstance(entry, dict):
                raise InputError("each point must be an object")
            label = _require(entry, "label", "point")
            if not isinstance(label, str):
                raise InputError("point labels must be strings")
            raw = _require(entry, "weights", f"point {label}")
            if not isinstance(raw, list):
                raise InputError(f"point {label}: weights must be a list")
            labels.append(label)
            weight_rows.append([_parse_fraction(v) for v in raw])
        try:
            self.weights = weight_system(weight_rows, points=labels, rank=self.r)
        except DomainError as exc:
            raise InputError(str(exc)) from None
        self.genus: Optional[int] = None
        if "genus" in obj:
            self.genus = _parse_int(obj["genus"], "genus")
        self.symmetries: tuple[tuple[tuple[int, ...], int], ...] = ()
        if "symmetries" in obj:
            raw_sym = obj["symmetries"]
            if not isinstance(raw_sym, list):
                raise InputError("symmetries must be a list")
            parsed = []
            for item in raw_sym:
                if not isinstance(item, dict):
                    raise InputError("each symmetry must be an object")
                perm = self.parse_perm(_require(item, "perm", "symmetry"))
                mult = _parse_int(_require(item, "multiplicity", "symmetry"), "multiplicity")
                parsed.append((perm, mult))
            self.symmetries = tuple(parsed)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.weights.points

    def parse_perm(self, raw: Any) -> tuple[int, ...]:
        """A perm is a list of 0-based indices or of point labels (images in order)."""
        if not isinstance(raw, list) or len(raw) != len(self.labels):
            raise InputError("perm must list one image per point")
        out = []
        for v in raw:
            if isinstance(v, str):
                if v not in self.labels:
                    raise InputError(f"perm names unknown point {v!r}")
                out.append(self.labels.index(v))
            else:
                out.append(_parse_int(v, "perm entry"))
        return tuple(out)

    def curve(self) -> CurveData:
        if self.genus is None:
            raise InputError("document needs a genus for this subcommand")
        try:
            if self.symmetries:
                return CurveData(self.genus, self.labels, self.symmetries)
            return trivial_curve(self.genus, self.labels)
        except DomainError as exc:
            raise InputError(str(exc)) from None


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _parse_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None


def _load_single(args: argparse.Namespace) -> Document:
    if getattr(args, "json", False):
        return Document(_parse_json(sys.stdin.read()))
    if args.doc is None:
        raise InputError("provide a document path or --json")
    return Document(_parse_json(_read_text(args.doc)))


def _load_pair(args: argparse.Namespace) -> tuple[Document, Document]:
    if getattr(args, "json", False):
        obj = _parse_json(sys.stdin.read())
        if not isinstance(obj, dict) or "first" not in obj or "second" not in obj:
            raise InputError("--json input must be {\"first\": ..., \"second\": ...}")
        return Document(obj["first"]), Document(obj["second"])
    if args.doc is None or args.doc2 is None:
        raise InputError("provide two document paths or --json")
    return (
        Document(_parse_json(_read_text(args.doc))),
        Document(_parse_json(_read_text(args.doc2))),
    )


def _parse_pattern(raw: Any, r: int, n: int) -> ParabolicType:
    """Rows of 0/1 of length r, or per-point lists of 1-based picks."""
    if not isinstance(raw, list) or len(raw) != n:
        raise InputError(f"pattern must list one row per point ({n})")
    rows = []
    incidence = all(
        isinstance(row, list)
        and len(row) == r
        and all(isinstance(v, int) and not isinstance(v, bool) and v in (0, 1) for v in row)
        for row in raw
    )
    try:
        if incidence:
            return ParabolicType(tuple(tuple(row) for row in raw))
        for row in raw:
            if not isinstance(row, list):
                raise InputError("pattern rows must be lists")
            picks = set(_parse_int(v, "pattern index") for v in row)
            rows.append(tuple(1 if i in picks else 0 for i in range(1, r + 1)))
        return ParabolicType(tuple(rows))
    except DomainError as exc:
        raise InputError(f"invalid pattern: {exc}") from None


def _parse_word(raw: Any, r: int, doc: Optional[Document] = None) -> NumTransform:
    if isinstance(raw, str):
        raw = _parse_json(raw)
    if not isinstance(raw, dict):
        raise InputError("transform must be an object {perm, sign, tdeg, hecke}")
    perm_raw = _require(raw, "perm", "transform")
    if doc is not None:
        perm = doc.parse_perm(perm_raw)
    else:
        if not isinstance(perm_raw, list):
            raise InputError("perm must be a list")
        perm = tuple(_parse_int(v, "perm entry") for v in perm_raw)
    sign = _parse_int(_require(raw, "sign", "transform"), "sign")
    tdeg = _parse_int(raw.get("tdeg", 0), "tdeg")
    hecke_raw = raw.get("hecke", [0] * len(perm))
    if not isinstance(hecke_raw, list):
        raise InputError("hecke must be a list")
    hecke = tuple(_parse_int(v, "hecke entry") for v in hecke_raw)
    try:
        return make_transform(perm, sign, tdeg, hecke, r)
    except DomainError as exc:
        raise InputError(str(exc)) from None


def _parse_laurent(value: Any) -> Laurent:
    if isinstance(value, bool):
        raise InputError(f"invalid matrix entry {value!r}")
    if isinstance(value, int):
        return Laurent.const(value)
    if isinstance(value, str):
        return Laurent.const(_parse_fraction(value))
    if isinstance(value, dict):
        coeffs = {}
        for k, v in value.items():
            try:
                exp = int(k)
            except ValueError:
                raise InputError(f"exponent keys must be integers, got {k!r}") from None
            coeffs[exp] = _parse_fraction(v)
        return Laurent(coeffs)
    if isinstance(value, list):
        coeffs = {}
        for item in value:
            if not isinstance(item, list) or len(item) != 2:
                raise InputError("entry pairs must be [exponent, coefficient]")
            coeffs[_parse_int(item[0], "exponent")] = _parse_fraction(item[1])
        return Laurent(coeffs)
    raise InputError(f"invalid matrix entry {value!r}")


def _parse_matrix(obj: Any) -> LaurentMatrix:
    if isinstance(obj, dict):
        obj = _require(obj, "entries", "matrix document")
    if not isinstance(obj, list) or not obj:
        raise InputError("matrix entries must be a nonempty list of rows")
    if not all(isinstance(row, list) for row in obj):
        raise InputError("matrix rows must be lists")
    try:
        return LaurentMatrix(
            tuple(tuple(_parse_laurent(v) for v in row) for row in obj)
        )
    except DomainError as exc:
        raise InputError(str(exc)) from None


def _load_matrix(args: argparse.Namespace, attr: str = "doc") -> LaurentMatrix:
    if getattr(args, "json", False):
        return _parse_matrix(_parse_json(sys.stdin.read()))
    path = getattr(args, attr)
    if path is None:
        raise InputError("provide a matrix document path or --json")
    return _parse_matrix(_parse_json(_read_text(path)))


# ---------------------------------------------------------------------------
# serialization


def _ser_frac(value: Fraction) -> str:
    return str(value)


def _ser_weights(w: WeightSystem) -> dict:
    return {
        "r": w.rank,
        "points": list(w.points),
        "weights": [[_ser_frac(a) for a in tup] for tup in w.weights],
    }


def _ser_word(t: NumTransform) -> dict:
    return {
        "perm": list(t.perm),
        "sign": t.sign,
        "tdeg": t.tdeg,
        "hecke": list(t.hecke),
    }


def _ser_laurent(value: Laurent) -> list:
    return [[e, _ser_frac(c)] for e, c in sorted(value.coeffs.items())]


def _ser_matrix(m: LaurentMatrix) -> list:
    return [[_ser_laurent(v) for v in row] for row in m.rows]


def _ser_witness(witness) -> Optional[dict]:
    if witness is None:
        return None
    return {
        "subrank": witness.subrank,
        "picks": [list(c) for c in witness.pattern],
        "m": witness.m,
    }


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (exit_code, payload)


def _cmd_normalize(args) -> tuple[int, dict]:
    doc = _load_single(args)
    out = _ser_weights(normalize(doc.weights))
    out["degree"] = doc.degree
    return 0, out


def _cmd_owt(args) -> tuple[int, dict]:
    doc = _load_single(args)
    t = _parse_pattern(_parse_json(args.pattern), doc.r, doc.weights.npoints)
    payload = {
        "owt": _ser_frac(owt(doc.weights, t)),
        "pdeg": _ser_frac(pdeg(doc.degree, doc.weights)),
        "subrank": t.subrank,
    }
    if 0 < t.subrank < doc.r:
        payload["s_min"] = _ser_frac(s_min(doc.weights, t))
    else:
        payload["s_min"] = None
    return 0, payload


def _cmd_invariant(args) -> tuple[int, dict]:
    doc = _load_single(args)
    inv = chamber_invariant(doc.r, doc.weights, doc.degree)
    lower, upper = subdegree_bounds(doc.r, doc.degree, doc.weights.npoints)
    return 0, {
        "r": inv.r,
        "n": inv.n,
        "degree": inv.d,
        "types": [[list(row) for row in t.rows] for t in inv.types],
        "values": list(inv.values),
        "bounds": {"lower_open": _ser_frac(lower), "upper": _ser_frac(upper)},
    }


def _cmd_same_chamber(args) -> tuple[int, dict]:
    doc1, doc2 = _load_pair(args)
    if doc1.r != doc2.r:
        raise InputError("documents disagree on r")
    if doc1.degree != doc2.degree:
        raise InputError("documents disagree on degree")
    same = same_numerical_chamber(doc1.r, doc1.weights, doc2.weights, doc1.degree)
    payload: dict = {"same": same, "degree": doc1.degree}
    try:
        walls = walls_crossed(doc1.r, doc1.weights, doc2.weights, doc1.degree)
        payload["walls"] = [
            {
                "subrank": wall.subrank,
                "picks": [list(c) for c in wall.pattern],
                "m": wall.m,
                "relevant": wall.relevant,
            }
            for wall in walls
        ]
    except DomainError:
        payload["walls"] = None
    return 0, payload


def _cmd_walls(args) -> tuple[int, dict]:
    doc1, doc2 = _load_pair(args)
    if doc1.r != doc2.r:
        raise InputError("documents disagree on r")
    if doc1.degree != doc2.degree:
        raise InputError("documents disagree on degree")
    walls = walls_crossed(
        doc1.r, doc1.weights, doc2.weights, doc1.degree, relevant_only=not args.all
    )
    return 0, {
        "degree": doc1.degree,
        "count": len(walls),
        "walls": [
            {
                "subrank": wall.subrank,
                "picks": [list(c) for c in wall.pattern],
                "m": wall.m,
                "relevant": wall.relevant,
            }
            for wall in walls
        ],
    }


def _cmd_generic(args) -> tuple[int, dict]:
    doc = _load_single(args)
    blanket = is_generic(doc.weights)
    relative = is_degree_generic(doc.weights, doc.degree)
    return 0, {
        "generic": blanket.generic,
        "witness": _ser_witness(blanket.witness),
        "degree": doc.degree,
        "degree_generic": relative.generic,
        "degree_witness": _ser_witness(relative.witness),
    }


def _cmd_concentrated(args) -> tuple[int, dict]:
    doc = _load_single(args)
    w = doc.weights
    bound = Fraction(4, w.npoints * w.rank * w.rank)
    return 0, {
        "concentrated": is_concentrated(w),
        "bound": _ser_frac(bound),
        "spreads": [_ser_frac(tup[-1] - tup[0]) for tup in w.weights],
    }


def _cmd_dims(args) -> tuple[int, dict]:
    result = dims(args.genus, args.points, args.rank)
    payload = {
        "fixed_det": result.fixed_det,
        "nonfixed": result.nonfixed,
        "w": list(result.w),
        "w_total": result.w_total,
        "stratum": None,
    }
    if args.stratum is not None:
        payload["stratum"] = dim_nonreduced_stratum(
            args.genus, args.points, args.rank, args.stratum
        )
    return 0, payload


def _cmd_bounds(args) -> tuple[int, dict]:
    doc = _load_single(args)
    w2 = None
    if args.doc2 is not None:
        w2 = Document(_parse_json(_read_text(args.doc2))).weights
    t = None
    if args.pattern is not None:
        t = _parse_pattern(_parse_json(args.pattern), doc.r, doc.weights.npoints)
    result = genus_bounds(doc.weights, w2=w2, t=t, l=args.l, m=args.m, k=args.k)
    return 0, {
        "chamber": result.chamber,
        "refined": None if result.refined is None else _ser_frac(result.refined),
        "lm": _ser_frac(result.lm),
        "codim": _ser_frac(result.codim),
    }


def _cmd_transform(args) -> tuple[int, dict]:
    doc = _load_single(args)
    word = _parse_word(args.word, doc.r, doc)
    image = apply_to_weights(word, doc.weights)
    out = _ser_weights(image)
    out["degree"] = apply_to_degree(word, doc.degree, doc.r)
    out["word"] = _ser_word(word)
    return 0, out


def _cmd_compose(args) -> tuple[int, dict]:
    t1 = _parse_word(args.word1, args.rank)
    t2 = _parse_word(args.word2, args.rank)
    return 0, {"word": _ser_word(compose(t1, t2, args.rank))}


def _cmd_inverse(args) -> tuple[int, dict]:
    t = _parse_word(args.word, args.rank)
    return 0, {"word": _ser_word(inverse(t, args.rank))}


def _cmd_aut(args) -> tuple[int, dict]:
    doc = _load_single(args)
    curve = doc.curve()
    result = automorphism_group(
        doc.r,
        doc.weights.npoints,
        doc.degree,
        curve.genus,
        doc.weights,
        curve,
        strict=args.strict,
    )
    return 0, {
        "r": result.r,
        "degree": result.d,
        "genus": result.genus,
        "classes": [_ser_word(t) for t in result.classes],
        "torsion_factor": result.torsion_factor,
        "order": result.order,
        "generic": result.generic,
        "degree_generic": result.degree_generic,
        "chamber_genus": result.chamber_genus,
        "classification_genus": result.classification_genus,
        "genus_sufficient": result.genus_sufficient,
    }


def _cmd_iso(args) -> tuple[int, dict]:
    doc1, doc2 = _load_pair(args)
    if doc1.r != doc2.r:
        raise InputError("documents disagree on r")
    perms: list[tuple[int, ...]] = []
    if args.perms is not None:
        raw = _parse_json(args.perms)
        if not isinstance(raw, list):
            raise InputError("--perms must be a JSON list of perms")
        perms = [doc1.parse_perm(p) for p in raw]
    found = iso_transforms(
        doc1.r,
        doc1.weights.npoints,
        doc1.degree,
        doc1.weights,
        doc2.degree,
        doc2.weights,
        curve_iso=perms,
        strict=args.strict,
    )
    return 0, {
        "count": len(found),
        "transforms": [_ser_word(t) for t in found],
        "degree_from": doc1.degree,
        "degree_to": doc2.degree,
    }


def _cmd_orders(args) -> tuple[int, dict]:
    result = concentrated_orders(args.genus, args.rank, args.points, args.aut_order)
    return 0, {"aut": result.aut, "threebir": result.threebir, "ratio": result.ratio}


def _cmd_matrix_xi(args) -> tuple[int, dict]:
    xi = xi_matrix(args.n)
    return 0, {"n": args.n, "xi": [list(row) for row in xi]}


def _cmd_matrix_rank1(args) -> tuple[int, dict]:
    m = _load_matrix(args)
    factored = rank1_factor(m.rows)
    if factored is None:
        return 0, {"rank1": False, "col": None, "row": None}
    col, row = factored
    return 0, {
        "rank1": True,
        "col": [_ser_laurent(v) for v in col],
        "row": [_ser_laurent(v) for v in row],
    }


def _cmd_matrix_mp(args) -> tuple[int, dict]:
    if args.json:
        obj = _parse_json(sys.stdin.read())
        if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
            raise InputError("--json input must be {\"a\": ..., \"b\": ...}")
        a = _parse_matrix(obj["a"])
        b = _parse_matrix(obj["b"])
    else:
        if args.doc is None or args.doc2 is None:
            raise InputError("provide two matrix document paths or --json")
        a = _parse_matrix(_parse_json(_read_text(args.doc)))
        b = _parse_matrix(_parse_json(_read_text(args.doc2)))
    product = mp_closed_form(a, b)
    payload: dict = {"n": a.nrows, "mp": _ser_matrix(product)}
    if args.check_inner:
        payload["pure_tensor"] = is_pure_tensor(product) is not None
        inner = is_inner(product)
        payload["inner"] = inner is not None
        payload["inner_matrix"] = None if inner is None else _ser_matrix(inner)
    return 0, payload


def _cmd_matrix_hecke(args) -> tuple[int, dict]:
    if args.precision < 1:
        raise InputError(f"--precision must be at least 1, got {args.precision}")
    m = _load_matrix(args)
    report = hecke_conjugation_check(m, precision=args.precision)
    return 0, {
        "n": report.n,
        "parabolic_input": report.parabolic_input,
        "det_valuation": report.det_valuation,
        "k": report.k,
        "integral": report.integral,
        "offenders": [list(o) for o in report.offenders],
        "precision": report.precision,
    }


# ---------------------------------------------------------------------------
# fixtures


def _fixture_checks() -> list[dict]:
    checks: list[dict] = []

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append({"name": name, "pass": bool(ok), "detail": detail})

    # rank-2 family, two points: base weights (a1, a2), partner point
    # (a2 - 1/2, a1 + 1/2)
    def rank2_member(a1: Fraction, a2: Fraction) -> WeightSystem:
        return weight_system(
            [[a1, a2], [a2 - Fraction(1, 2), a1 + Fraction(1, 2)]],
            points=["x", "y"],
        )

    swap = NumTransform((1, 0), 1, 0, (0, 0))
    ok = True
    shown = []
    for a2 in (Fraction(3, 5), Fraction(7, 10)):
        member = rank2_member(Fraction(1, 10), a2)
        lhs = hecke_weights(normalize(member), (1, 1))
        rhs = apply_to_weights(swap, member)
        ok = ok and lhs == rhs
        shown.append([[str(a) for a in t] for t in lhs.weights])
    record(
        "rank2 full Hecke shift equals the point swap",
        ok,
        f"{shown}",
    )

    generic_member = rank2_member(Fraction(1, 10), Fraction(7, 10))
    curve = CurveData(genus=2, points=("x", "y"), symmetries=(((1, 0), 1),))
    result = automorphism_group(2, 2, 0, 2, generic_member, curve)
    got = sorted((t.perm, t.sign, t.tdeg, t.hecke) for t in result.classes)
    want = [((0, 1), 1, 0, (0, 0)), ((1, 0), 1, 1, (1, 1))]
    record(
        "rank2 classes are the identity and the swapped full Hecke shift",
        got == want and result.order == 2 ** 4 * 2,
        f"classes={got} order={result.order}",
    )

    base = normalize(generic_member)
    separated = True
    for h in ((1, 0), (0, 1), (1, 1)):
        image = hecke_weights(base, h)
        if same_numerical_chamber(2, image, base, 0):
            separated = False
    record(
        "rank2 single and double Hecke shifts leave the chamber",
        separated,
        "compared against the fingerprint at degree 0",
    )

    alpha3 = weight_system([[Fraction(1, 8), Fraction(3, 8), Fraction(7, 8)]])
    shifted = hecke_weights(alpha3, (1,))
    record(
        "rank3 Hecke shift value",
        shifted.weights[0] == (Fraction(0), Fraction(1, 2), Fraction(3, 4)),
        f"{[str(a) for a in shifted.weights[0]]}",
    )

    t3 = NumTransform((0,), -1, 1, (1,))
    record(
        "rank3 dualized Hecke shift fixes the weight class",
        apply_to_weights(t3, alpha3) == normalize(alpha3),
        "image equals (0, 1/4, 3/4)",
    )
    record(
        "rank3 involution squares to the identity and fixes degree -1",
        compose(t3, t3, 3).is_identity() and apply_to_degree(t3, -1, 3) == -1,
        "T.T = id, degree -1 -> -1",
    )
    result3 = automorphism_group(3, 1, -1, 2, alpha3, trivial_curve(2, ["x"]))
    got3 = sorted((t.perm, t.sign, t.tdeg, t.hecke) for t in result3.classes)
    want3 = [((0,), -1, 1, (1,)), ((0,), 1, 0, (0,))]
    record(
        "rank3 classes are the identity and the involution",
        got3 == want3 and result3.order == 2 * 3 ** 4,
        f"classes={got3} order={result3.order}",
    )
    base3 = normalize(alpha3)
    sh1 = hecke_weights(base3, (1,))
    sh2 = hecke_weights(base3, (2,))
    record(
        "rank3 chamber fingerprints separate the three Hecke images",
        not same_numerical_chamber(3, base3, sh1, -1)
        and not same_numerical_chamber(3, base3, sh2, -1)
        and not same_numerical_chamber(3, sh1, sh2, -1),
        "pairwise distinct at degree -1",
    )

    eps = Fraction(1, 16)
    alpha4 = weight_system([[eps, 3 * eps, 5 * eps, 1 - eps]])
    t4 = NumTransform((0,), -1, 1, (2,))
    record(
        "rank4 dualized double Hecke shift fixes the weight class",
        apply_to_weights(t4, alpha4) == normalize(alpha4),
        "image equals the normalized weights",
    )
    record(
        "rank4 involution squares to the identity and fixes degree -1",
        compose(t4, t4, 4).is_identity() and apply_to_degree(t4, -1, 4) == -1,
        "T.T = id, degree -1 -> -1",
    )
    result4 = automorphism_group(4, 1, -1, 2, alpha4, trivial_curve(2, ["x"]))
    got4 = sorted((t.perm, t.sign, t.tdeg, t.hecke) for t in result4.classes)
    want4 = [((0,), -1, 1, (2,)), ((0,), 1, 0, (0,))]
    record(
        "rank4 classes are the identity and the involution",
        got4 == want4 and result4.order == 2 * 4 ** 4,
        f"classes={got4} order={result4.order}",
    )
    return checks


def _cmd_fixtures(args) -> tuple[int, dict]:
    checks = _fixture_checks()
    all_pass = all(c["pass"] for c in checks)
    return (0 if all_pass else 1), {"all_pass": all_pass, "checks": checks}


# ---------------------------------------------------------------------------
# argument wiring


def _add_doc(p: argparse.ArgumentParser) -> None:
    p.add_argument("doc", nargs="?", help="path to a JSON weight document")
    p.add_argument("--json", action="store_true", help="read the document from stdin")


def _add_pair(p: argparse.ArgumentParser) -> None:
    p.add_argument("doc", nargs="?", help="path to the first JSON document")
    p.add_argument("doc2", nargs="?", help="path to the second JSON document")
    p.add_argument(
        "--json",
        action="store_true",
        help='read {"first": ..., "second": ...} from stdin',
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parastab",
        description="Exact stability-chamber invariants and transformation groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="canonical translation representative")
    _add_doc(p)
    p.set_defaults(handler=_cmd_normalize)

    p = sub.add_parser("owt", help="selected-weight sum, pdeg and twisting slack")
    _add_doc(p)
    p.add_argument("--pattern", required=True, help="JSON rows of 0/1 or 1-based picks")
    p.set_defaults(handler=_cmd_owt)

    p = sub.add_parser("invariant", help="chamber fingerprint over admissible patterns")
    _add_doc(p)
    p.set_defaults(handler=_cmd_invariant)

    p = sub.add_parser("same-chamber", help="compare two fingerprints")
    _add_pair(p)
    p.set_defaults(handler=_cmd_same_chamber)

    p = sub.add_parser("walls", help="integer wall levels crossed between two systems")
    _add_pair(p)
    p.add_argument("--all", action="store_true", help="include degree-irrelevant walls")
    p.set_defaults(handler=_cmd_walls)

    p = sub.add_parser("generic", help="wall membership tests")
    _add_doc(p)
    p.set_defaults(handler=_cmd_generic)

    p = sub.add_parser("concentrated", help="per-point weight spread test")
    _add_doc(p)
    p.set_defaults(handler=_cmd_concentrated)

    p = sub.add_parser("dims", help="moduli dimension formulas")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--stratum", type=int, default=None)
    p.set_defaults(handler=_cmd_dims)

    p = sub.add_parser("bounds", help="genus thresholds")
    _add_doc(p)
    p.add_argument("--doc2", default=None, help="optional second weight document")
    p.add_argument("--pattern", default=None, help="pattern for the refined bound")
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--k", type=int, default=0)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("transform", help="apply a transformation word")
    _add_doc(p)
    p.add_argument("--word", required=True, help="JSON {perm, sign, tdeg, hecke}")
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("compose", help="normal form of a two-word product")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("word1", help="JSON transform (acts second)")
    p.add_argument("word2", help="JSON transform (acts first)")
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("inverse", help="inverse word in normal form")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("word", help="JSON transform")
    p.set_defaults(handler=_cmd_inverse)

    p = sub.add_parser("aut", help="degree- and chamber-preserving classes")
    _add_doc(p)
    p.add_argument("--strict", action="store_true", help="require generic weights")
    p.set_defaults(handler=_cmd_aut)

    p = sub.add_parser("iso", help="classes carrying one space onto another")
    _add_pair(p)
    p.add_argument("--perms", default=None, help="JSON list of extra point relabelings")
    p.add_argument("--strict", action="store_true", help="require generic weights")
    p.set_defaults(handler=_cmd_iso)

    p = sub.add_parser("orders", help="group orders for concentrated weights")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--aut-order", type=int, default=1, dest="aut_order")
    p.set_defaults(handler=_cmd_orders)

    p = sub.add_parser("matrix-xi", help="the exponent pattern matrix")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_matrix_xi)

    p = sub.add_parser("matrix-rank1", help="outer-product factorization")
    p.add_argument("doc", nargs="?", help="path to a matrix document")
    p.add_argument("--json", action="store_true", help="read the matrix from stdin")
    p.set_defaults(handler=_cmd_matrix_rank1)

    p = sub.add_parser("matrix-mp", help="twisted conjugation matrix of a pair")
    p.add_argument("doc", nargs="?", help="path to matrix document A")
    p.add_argument("doc2", nargs="?", help="path to matrix document B")
    p.add_argument("--json", action="store_true", help='read {"a": ..., "b": ...} from stdin')
    p.add_argument("--check-inner", action="store_true", dest="check_inner")
    p.set_defaults(handler=_cmd_matrix_mp)

    p = sub.add_parser("matrix-hecke", help="does conjugation preserve the stalk algebra")
    p.add_argument("doc", nargs="?", help="path to a matrix document")
    p.add_argument("--json", action="store_true", help="read the matrix from stdin")
    p.add_argument("--precision", type=int, default=24)
    p.set_defaults(handler=_cmd_matrix_hecke)

    p = sub.add_parser("fixtures", help="run the frozen example families")
    p.set_defaults(handler=_cmd_fixtures)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload = args.handler(args)
    except InputError as exc:
        _emit({"error": {"kind": "input", "message": str(exc)}})
        return 2
    except DomainError as exc:
        _emit({"error": {"kind": "domain", "message": str(exc)}})
        return 1
    _emit(payload)
    return code


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    sys.exit(main())
