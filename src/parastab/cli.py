"""Command-line interface.

Input documents are JSON.  A weight document looks like

    {"r": 2, "degree": 0,
     "points": [{"label": "x", "weights": ["1/10", "7/10"]},
                {"label": "y", "weights": ["1/5", "3/5"]}],
     "genus": 2,
     "symmetries": [{"perm": ["y", "x"], "multiplicity": 1}]}

Rationals are exact strings like "3/5" or "2"; decimals are rejected.
Matrix documents use {"entries": [[entry, ...], ...]} where an entry is a
rational string, an integer, a map from exponent to coefficient like
{"0": "1", "-1": "2"}, or a list of [exponent, coefficient] pairs like
[[0, "1"], [-1, "2"]].  Exponent keys are integers written in decimal; each
exponent appears at most once in an entry.

Output is a single JSON object on stdout with sorted keys, so identical
inputs always produce identical bytes.  Exit codes: 0 success, 1 domain
error (a result integer too long to print included), 2 malformed input
(argument errors, over-long numbers and too-deep nesting included).  Errors
print {"error": {"kind", "message"}}.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from itertools import chain, compress, product, repeat
from typing import Any, Callable, Iterator, Optional, Sequence

from . import _SOURCES, _submodule
from .errors import DomainError, InputError

# the non-public names cli calls, by the module that defines them
_PRIVATE = {
    "weights_core": ("wall_grid",),
    "chamber": ("crossing_blocks", "pick_rows"),
    "local_matrix": ("inner_factor",),
    "_claims": ("FIXTURE_CLAIMS",),
}
# Every public name of each layer, and the private ones above; each starts as a
# ``_Deferred``, so a command loads just the layers its executed code reaches.
# ``errors`` is imported above instead: an ``except`` clause needs the class itself.
_LAYER_NAMES: dict[str, tuple[str, ...]] = {
    layer: (*_SOURCES.get(layer, ()), *_PRIVATE.get(layer, ()))
    for layer in {**_SOURCES, **_PRIVATE}
    if layer != "errors"
}


class _Deferred:
    """A stand-in for a name of ``layer``.  Its first call or attribute read
    imports the layer and rebinds all of the layer's ``_LAYER_NAMES`` in cli's
    globals, so every later use reaches the library object directly.  It is
    not the class it names: no code in cli may call ``isinstance`` against a
    deferred name, which is why ``_JSON_FORMS`` is keyed by class name."""

    __slots__ = ("layer", "name")

    def __init__(self, layer: str, name: str) -> None:
        self.layer, self.name = layer, name

    def resolve(self) -> Any:
        module = _submodule(self.layer)
        for name in _LAYER_NAMES[self.layer]:
            globals()[name] = getattr(module, name)
        return getattr(module, self.name)

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.resolve()(*args, **kwargs)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self.resolve(), attr)


globals().update(
    (name, _Deferred(layer, name)) for layer, names in _LAYER_NAMES.items() for name in names
)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_INTEGER_RE = re.compile(r"^[+-]?\d+$")


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
        except ValueError:  # a part too long to convert
            raise _too_long("numerator or denominator") from None
    raise InputError(f"expected a rational string, got {value!r}")


def _too_long(what: str) -> InputError:
    return InputError(f"{what} has more than {sys.get_int_max_str_digits()} digits")


def _parsed(build: Callable[..., Any], *args: Any, prefix: str = "") -> Any:
    """``build(*args)`` on parsed input, the layer's ``DomainError`` raised as an input error."""
    try:
        return build(*args)
    except DomainError as exc:
        raise InputError(prefix + str(exc)) from None


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
        self.weights = _parsed(weight_system, weight_rows, labels, self.r)
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
        return _parsed(CurveData, self.genus, self.labels, self.symmetries)


def _read_text(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _parse_json(text: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, a too-long integer, too deep
        raise InputError(f"invalid JSON: {exc}") from None


def _parse_pattern(raw: Any, r: int, n: int) -> ParabolicType:
    """Rows of 0/1 of length r, or per-point lists of distinct 1-based picks."""
    if not isinstance(raw, list) or len(raw) != n:
        raise InputError(f"pattern must list one row per point ({n})")
    incidence = all(
        isinstance(row, list)
        and len(row) == r
        and all(isinstance(v, int) and not isinstance(v, bool) and v in (0, 1) for v in row)
        for row in raw
    )
    if incidence:
        return _parsed(ParabolicType, tuple(tuple(row) for row in raw), prefix="invalid pattern: ")
    picks = []
    for row in raw:
        if not isinstance(row, list):
            raise InputError("pattern rows must be lists")
        picks.append([_parse_int(v, "pattern index") for v in row])
    for row in picks:
        if len(set(row)) != len(row):
            raise InputError(f"invalid pattern: repeated picks in {row}")
    return _parsed(ParabolicType.from_indices, r, picks, prefix="invalid pattern: ")


def _parse_word(text: str, r: int, doc: Optional[Document] = None) -> NumTransform:
    raw = _parse_json(text)
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
    return _parsed(make_transform, perm, sign, tdeg, hecke, r)


def _laurent_terms(value: Any) -> Iterator[tuple[int, Any]]:
    """(exponent, raw coefficient) of each term of a map or pair-list entry, in order."""
    if isinstance(value, dict):
        for key, coeff in value.items():
            if not _INTEGER_RE.match(key.strip()):
                raise InputError(f"exponent keys must be integers, got {key!r}")
            try:
                exp = int(key)
            except ValueError:
                raise _too_long("exponent key") from None
            yield exp, coeff
        return
    for item in value:
        if not isinstance(item, list) or len(item) != 2:
            raise InputError("entry pairs must be [exponent, coefficient]")
        yield _parse_int(item[0], "exponent"), item[1]


def _parse_laurent(value: Any) -> Laurent:
    if isinstance(value, bool):
        raise InputError(f"invalid matrix entry {value!r}")
    if isinstance(value, int):
        return Laurent.const(value)
    if isinstance(value, str):
        return Laurent.const(_parse_fraction(value))
    if isinstance(value, (dict, list)):
        coeffs = {}
        for exp, coeff in _laurent_terms(value):
            if exp in coeffs:
                raise InputError(f"exponent {exp} appears twice in one matrix entry")
            coeffs[exp] = _parse_fraction(coeff)
        return Laurent(coeffs)
    raise InputError(f"invalid matrix entry {value!r}")


def _parse_matrix(obj: Any) -> LaurentMatrix:
    if isinstance(obj, dict):
        obj = _require(obj, "entries", "matrix document")
    if not isinstance(obj, list) or not obj:
        raise InputError("matrix entries must be a nonempty list of rows")
    if not all(isinstance(row, list) for row in obj):
        raise InputError("matrix rows must be lists")
    return _parsed(LaurentMatrix, tuple(tuple(_parse_laurent(v) for v in row) for row in obj))


# input kind: (parser, noun in messages, keys of a --json pair,
#              help of each positional path, help of --json)
_KINDS: dict[str, tuple] = {
    "doc": (
        Document, "document", None,
        ("path to a JSON weight document",), "read the document from stdin",
    ),
    "pair": (
        Document, "document", ("first", "second"),
        ("path to the first JSON document", "path to the second JSON document"),
        'read {"first": ..., "second": ...} from stdin',
    ),
    "matrix": (
        _parse_matrix, "matrix document", None,
        ("path to a matrix document",), "read the matrix from stdin",
    ),
    "matrices": (
        _parse_matrix, "matrix document", ("a", "b"),
        ("path to matrix document A", "path to matrix document B"),
        'read {"a": ..., "b": ...} from stdin',
    ),
}
_PATHS = ("doc", "doc2")


def _load(args: argparse.Namespace) -> tuple:
    """The subcommand's inputs, from stdin under --json or else from its paths:
    none without an input kind, else one parsed value, or two for a pair kind."""
    if args.kind is None:
        return ()
    parse, noun, keys, path_helps, _ = _KINDS[args.kind]
    if args.json:
        obj = _parse_json(sys.stdin.read())
        if keys is None:
            return (parse(obj),)
        if not isinstance(obj, dict) or not all(key in obj for key in keys):
            raise InputError('--json input must be {"%s": ..., "%s": ...}' % keys)
        return tuple(parse(obj[key]) for key in keys)
    paths = [getattr(args, dest) for dest in _PATHS[: len(path_helps)]]
    if None in paths:
        if keys is None:
            raise InputError(f"provide a {noun} path or --json")
        raise InputError(f"provide two {noun} paths or --json")
    return tuple(parse(_parse_json(_read_text(path))) for path in paths)


def _agree(doc1: Document, doc2: Document, *fields: str) -> None:
    """Refuse two documents that differ in a named field or in their point count."""
    for field in fields:
        if getattr(doc1, field) != getattr(doc2, field):
            raise InputError(f"documents disagree on {field}")
    if len(doc1.labels) != len(doc2.labels):
        raise InputError("documents disagree on point count")


# ---------------------------------------------------------------------------
# serialization


# by class name, so that writing a value needs no layer the command did not load
_JSON_FORMS: dict[str, Callable[[Any], Any]] = {
    "Fraction": str,
    "Laurent": lambda value: sorted(value.coeffs.items()),
    "LaurentMatrix": lambda value: value.rows,
    "NumTransform": vars,
}


def _to_json(value: Any) -> Any:
    """The JSON form of an exact value: rationals as strings, Laurent
    polynomials as sorted [exponent, coefficient] pairs."""
    form = _JSON_FORMS.get(type(value).__name__)
    if form is None:
        raise TypeError(f"cannot serialize {type(value).__name__}")
    return form(value)


def _ser_weights(w: WeightSystem, degree: int) -> dict:
    return {"r": w.rank, "points": w.points, "weights": w.weights, "degree": degree}


def _ser_witness(witness: Any) -> Optional[dict]:
    """A GenericityWitness, its pattern given as per-point "picks"."""
    if witness is None:
        return None
    out = dict(vars(witness))
    out["picks"] = out.pop("pattern")
    return out


class _Json(str):
    """JSON text already encoded, which ``_emit`` writes verbatim as a top-level value."""


def _ser_walls(
    w1: WeightSystem, w2: WeightSystem, d: int, relevant_only: bool
) -> tuple[int, _Json]:
    """The count and text of the {"m", "picks", "relevant", "subrank"} list.

    Per block of ``crossing_blocks``, the walls come from iterator
    pipelines, with no Python loop per crossing or per wall: the m are the
    chained crossing ranges; each crossing's picks text is one
    ``",".join`` of ``compress(product(texts, repeat=n), flags)``, repeated
    once per wall of its range; and each wall is one ``%``-format of its
    zipped (m, picks[, relevant]).  An m is relevant (``--all``) when it
    lies on its subrank's ``wall_grid`` for degree d at q = 1.
    """
    r, n = w1.rank, w1.npoints
    walls: list[str] = []
    for rp, picks, flags, ranges in crossing_blocks(w1, w2, d, relevant_only):
        texts = ["[%s]" % ",".join(map(str, c)) for c in picks]
        crossing_texts = map(",".join, compress(product(texts, repeat=n), flags))
        ms = list(chain.from_iterable(ranges))
        columns = [ms, chain.from_iterable(map(repeat, crossing_texts, map(len, ranges)))]
        if relevant_only:
            fmt = '{"m":%%d,"picks":[%%s],"relevant":true,"subrank":%d}' % rp
        else:
            fmt = '{"m":%%d,"picks":[%%s],"relevant":%%s,"subrank":%d}' % rp
            # width divides m + shift exactly when m % width is -shift % width
            shift, width = wall_grid(r, rp, 1, d)
            relevant = ["false"] * width
            relevant[-shift % width] = "true"
            columns.append(map(relevant.__getitem__, map(width.__rmod__, ms)))
        walls.extend(map(fmt.__mod__, zip(*columns)))
    return len(walls), _Json("[%s]" % ",".join(walls))


def _ser_types(r: int, n: int) -> _Json:
    """The text of ``list(admissible_rows(r, n))``: per subrank, the n-fold product of row texts."""

    def block(rp: int):
        rows = ["[%s]" % ",".join(map(str, row)) for row in pick_rows(r, rp)]
        return map(",".join, product(rows, repeat=n))

    return _Json("[[%s]]" % "],[".join(chain.from_iterable(map(block, range(1, r)))))


# ---------------------------------------------------------------------------
# subcommands; each handler takes the arguments and its inputs, and returns its payload

_COMMANDS: list[tuple] = []


def _arg(*flags: str, **options: Any) -> tuple:
    return flags, options


def _command(name: str, help: str, kind: Optional[str] = None, *extra: tuple):
    """Register ``handler(args, *inputs)`` under ``name``, its inputs of ``kind`` in _KINDS."""

    def register(handler: Callable[..., dict]):
        _COMMANDS.append((name, help, kind, extra, handler))
        return handler

    return register


_STRICT = _arg("--strict", action="store_true", help="require generic weights")


@_command("normalize", "canonical translation representative", "doc")
def _cmd_normalize(args, doc: Document) -> dict:
    return _ser_weights(normalize(doc.weights), doc.degree)


@_command(
    "owt", "selected-weight sum, pdeg and twisting slack", "doc",
    _arg("--pattern", required=True, help="JSON rows of 0/1 or 1-based picks"),
)
def _cmd_owt(args, doc: Document) -> dict:
    t = _parse_pattern(_parse_json(args.pattern), doc.r, doc.weights.npoints)
    return {
        "owt": owt(doc.weights, t),
        "pdeg": pdeg(doc.degree, doc.weights),
        "subrank": t.subrank,
        "s_min": s_min(doc.weights, t) if 0 < t.subrank < doc.r else None,
    }


@_command("invariant", "chamber fingerprint over admissible patterns", "doc")
def _cmd_invariant(args, doc: Document) -> dict:
    n = doc.weights.npoints
    values = chamber_fingerprint(doc.weights, doc.degree)
    lower, upper = subdegree_bounds(doc.r, doc.degree, n)
    return {
        "r": doc.r,
        "n": n,
        "degree": doc.degree,
        "types": _ser_types(doc.r, n),
        "values": values,
        "bounds": {"lower_open": lower, "upper": upper},
    }


@_command("same-chamber", "compare two fingerprints", "pair")
def _cmd_same_chamber(args, doc1: Document, doc2: Document) -> dict:
    _agree(doc1, doc2, "r", "degree")
    w1, w2, d = doc1.weights, doc2.weights, doc1.degree
    try:
        count, walls = _ser_walls(w1, w2, d, True)
    except DomainError:
        # an endpoint on a relevant wall: compare the fingerprints (rank 1 raises there too)
        return {"same": same_numerical_chamber(w1, w2, d), "degree": d, "walls": None}
    # off relevant walls, the fingerprints agree exactly when no relevant wall lies between
    return {"same": count == 0, "degree": d, "walls": walls}


@_command(
    "walls", "integer wall levels crossed between two systems", "pair",
    _arg("--all", action="store_true", help="include degree-irrelevant walls"),
)
def _cmd_walls(args, doc1: Document, doc2: Document) -> dict:
    _agree(doc1, doc2, "r", "degree")
    count, walls = _ser_walls(doc1.weights, doc2.weights, doc1.degree, not args.all)
    return {"degree": doc1.degree, "count": count, "walls": walls}


@_command("generic", "wall membership tests", "doc")
def _cmd_generic(args, doc: Document) -> dict:
    blanket = is_generic(doc.weights)
    # degree-relevant walls are walls, so off every wall there is none to find
    relative = blanket if blanket else is_degree_generic(doc.weights, doc.degree)
    return {
        "generic": blanket.generic,
        "witness": _ser_witness(blanket.witness),
        "degree": doc.degree,
        "degree_generic": relative.generic,
        "degree_witness": _ser_witness(relative.witness),
    }


@_command("concentrated", "per-point weight spread test", "doc")
def _cmd_concentrated(args, doc: Document) -> dict:
    w = doc.weights
    return {
        "concentrated": is_concentrated(w),
        "bound": Fraction(4, w.npoints * w.rank * w.rank),
        "spreads": [tup[-1] - tup[0] for tup in w.weights],
    }


@_command(
    "dims", "moduli dimension formulas", None,
    _arg("--genus", type=int, required=True),
    _arg("--points", type=int, required=True),
    _arg("--rank", type=int, required=True),
    _arg("--stratum", type=int, default=None),
)
def _cmd_dims(args) -> dict:
    payload = dict(vars(dims(args.genus, args.points, args.rank)))
    payload["stratum"] = None
    if args.stratum is not None:
        payload["stratum"] = dim_nonreduced_stratum(
            args.genus, args.points, args.rank, args.stratum
        )
    return payload


@_command(
    "bounds", "genus thresholds", "doc",
    _arg("--doc2", default=None, help="optional second weight document"),
    _arg("--pattern", default=None, help="pattern for the refined bound"),
    _arg("--l", type=int, default=1),
    _arg("--m", type=int, default=0),
    _arg("--k", type=int, default=0),
)
def _cmd_bounds(args, doc: Document) -> dict:
    w2 = None
    if args.doc2 is not None:
        doc2 = Document(_parse_json(_read_text(args.doc2)))
        _agree(doc, doc2, "r")
        w2 = doc2.weights
    t = None
    if args.pattern is not None:
        t = _parse_pattern(_parse_json(args.pattern), doc.r, doc.weights.npoints)
    result = genus_bounds(doc.weights, w2=w2, t=t, l=args.l, m=args.m, k=args.k)
    return dict(vars(result))


@_command(
    "transform", "apply a transformation word", "doc",
    _arg("--word", required=True, help="JSON {perm, sign, tdeg, hecke}"),
)
def _cmd_transform(args, doc: Document) -> dict:
    word = _parse_word(args.word, doc.r, doc)
    degree = apply_to_degree(word, doc.degree, doc.r)
    return {**_ser_weights(apply_to_weights(word, doc.weights), degree), "word": word}


@_command(
    "compose", "normal form of a two-word product", None,
    _arg("--rank", type=int, required=True),
    _arg("word1", help="JSON transform (acts second)"),
    _arg("word2", help="JSON transform (acts first)"),
)
def _cmd_compose(args) -> dict:
    t1 = _parse_word(args.word1, args.rank)
    t2 = _parse_word(args.word2, args.rank)
    return {"word": compose(t1, t2, args.rank)}


@_command(
    "inverse", "inverse word in normal form", None,
    _arg("--rank", type=int, required=True),
    _arg("word", help="JSON transform"),
)
def _cmd_inverse(args) -> dict:
    return {"word": inverse(_parse_word(args.word, args.rank), args.rank)}


@_command("aut", "degree- and chamber-preserving classes", "doc", _STRICT)
def _cmd_aut(args, doc: Document) -> dict:
    result = automorphism_group(doc.weights, doc.degree, doc.curve(), strict=args.strict)
    payload = dict(vars(result))
    payload["degree"] = payload.pop("d")
    payload["genus_sufficient"] = result.genus_sufficient
    return payload


@_command(
    "iso", "classes carrying one space onto another", "pair",
    _arg("--perms", default=None, help="JSON list of extra point relabelings"),
    _STRICT,
)
def _cmd_iso(args, doc1: Document, doc2: Document) -> dict:
    _agree(doc1, doc2, "r")
    # spaces over curves of different genus differ in dimension (``dims``);
    # a document with no genus makes no claim about its curve
    if None not in (doc1.genus, doc2.genus) and doc1.genus != doc2.genus:
        raise InputError("documents disagree on genus")
    perms: list[tuple[int, ...]] = []
    if args.perms is not None:
        raw = _parse_json(args.perms)
        if not isinstance(raw, list):
            raise InputError("--perms must be a JSON list of perms")
        perms = [doc1.parse_perm(p) for p in raw]
        if any(sorted(p) != list(range(len(p))) for p in perms):
            raise InputError("curve isomorphism perms must permute 0..n-1")
    found = iso_transforms(
        doc1.weights, doc1.degree, doc2.weights, doc2.degree, curve_iso=perms, strict=args.strict
    )
    return {
        "count": len(found),
        "transforms": found,
        "degree_from": doc1.degree,
        "degree_to": doc2.degree,
    }


@_command(
    "orders", "group orders for concentrated weights", None,
    _arg("--genus", type=int, required=True),
    _arg("--rank", type=int, required=True),
    _arg("--points", type=int, required=True),
    _arg("--aut-order", type=int, default=1, dest="aut_order"),
)
def _cmd_orders(args) -> dict:
    return dict(vars(concentrated_orders(args.genus, args.rank, args.points, args.aut_order)))


@_command("matrix-xi", "the exponent pattern matrix", None, _arg("--n", type=int, required=True))
def _cmd_matrix_xi(args) -> dict:
    return {"n": args.n, "xi": xi_matrix(args.n)}


@_command("matrix-rank1", "outer-product factorization", "matrix")
def _cmd_matrix_rank1(args, m: LaurentMatrix) -> dict:
    factored = rank1_factor(m.rows)
    col, row = factored or (None, None)
    return {"rank1": factored is not None, "col": col, "row": row}


@_command(
    "matrix-mp", "twisted conjugation matrix of a pair", "matrices",
    _arg("--check-inner", action="store_true", dest="check_inner"),
)
def _cmd_matrix_mp(args, a: LaurentMatrix, b: LaurentMatrix) -> dict:
    product = mp_closed_form(a, b)
    payload: dict = {"n": a.nrows, "mp": product}
    if args.check_inner:
        # one factorization answers both: conjugation by A is a pure tensor with B = A^-1
        pair = is_pure_tensor(product)
        payload["pure_tensor"] = pair is not None
        payload["inner_matrix"] = None if pair is None else inner_factor(pair)
        payload["inner"] = payload["inner_matrix"] is not None
    return payload


@_command(
    "matrix-hecke", "does conjugation preserve the stalk algebra", "matrix",
    _arg("--precision", type=int, default=24),
)
def _cmd_matrix_hecke(args, m: LaurentMatrix) -> dict:
    if args.precision < 1:
        raise InputError(f"--precision must be at least 1, got {args.precision}")
    # the report is exact at any precision; the option is range-checked and echoed
    return {**vars(hecke_conjugation_check(m)), "precision": args.precision}


@_command("fixtures", "run the frozen example families")
def _cmd_fixtures(args) -> dict:
    checks = []
    for name, check in FIXTURE_CLAIMS.items():
        ok, detail = check()
        checks.append({"name": name, "pass": bool(ok), "detail": detail})
    return {"all_pass": all(c["pass"] for c in checks), "checks": checks}


# ---------------------------------------------------------------------------
# argument wiring


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors, reported as JSON like any other."""

    def error(self, message: str):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    # the usage is spelled out, as argparse versions wrap the command list differently
    indent = "\n" + " " * len("usage: parastab ")
    names = ",".join(command[0] for command in _COMMANDS)
    parser = _Parser(
        prog="parastab",
        usage=f"%(prog)s [-h]{indent}{{{names}}}{indent}...",
        description="Exact stability-chamber invariants and transformation groups",
    )
    # prog given, so no subcommand's prog is derived from that usage
    sub = parser.add_subparsers(dest="command", required=True, prog="parastab")
    for name, help_text, kind, extra, handler in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if kind is not None:
            _, _, _, path_helps, json_help = _KINDS[kind]
            for dest, path_help in zip(_PATHS, path_helps):
                p.add_argument(dest, nargs="?", help=path_help)
            p.add_argument("--json", action="store_true", help=json_help)
        for flags, options in extra:
            p.add_argument(*flags, **options)
        p.set_defaults(handler=handler, kind=kind)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; a payload with "all_pass" false exits 1."""
    try:
        args = build_parser().parse_args(argv)
        payload = args.handler(args, *_load(args))
        _emit(payload)
    except InputError as exc:
        _emit({"error": {"kind": "input", "message": str(exc)}})
        return 2
    except DomainError as exc:
        _emit({"error": {"kind": "domain", "message": str(exc)}})
        return 1
    return 0 if payload.get("all_pass", True) else 1


# payloads are freshly built trees, so the encoder need not track cycles
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=_to_json, check_circular=False
)


def _emit(payload: dict) -> None:
    """One line: the keys sorted, ``_Json`` values verbatim, every other value encoded."""
    encode = _ENCODER.encode
    try:
        items = ",".join(
            encode(key) + ":" + (value if isinstance(value, _Json) else encode(value))
            for key, value in sorted(payload.items())
        )
    except ValueError:  # an integer beyond the int-string limit
        limit = sys.get_int_max_str_digits()
        raise DomainError(f"result has an integer of more than {limit} digits") from None
    sys.stdout.write("{" + items + "}\n")


if __name__ == "__main__":
    sys.exit(main())
