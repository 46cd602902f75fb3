"""The CLI contract on fuzzed documents and arguments.

Whatever JSON arrives on stdin and whatever arguments are given, ``main()``
writes exactly one JSON line to stdout, nothing to stderr, and returns 0, 1
or 2; no exception escapes it.  Argument errors (a bad integer, an unknown
flag, a missing or unknown subcommand), numbers beyond the interpreter's
int-string limit and too-deep nesting are input errors like any other; a
result too long to print is a domain error.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parastab.autgroup import concentrated_orders
from parastab.cli import build_parser, main

LIMIT = sys.get_int_max_str_digits()
LONG = "7" * (LIMIT + 1)  # digits beyond the int-string limit
LONG_INT = "<long integer>"  # written into the JSON text as LONG, unquoted


def dumps(value) -> str:
    """``json.dumps``, with each LONG_INT string as an over-long JSON integer."""
    return json.dumps(value).replace(json.dumps(LONG_INT), LONG)


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.sampled_from(["0", "1", "-2", "1/2", "3/0", "x", "", "1e3", " 4"])
    | st.sampled_from([LONG_INT, LONG, f"1/{LONG}"])
)
EXPONENTS = st.sampled_from(
    ["0", "1", "-1", "2", "-3", "x", "1.5", "", "01", "1_0", " 1", LONG, f"-{LONG}"]
)
# matrix entries as the parser reads them, and anything else JSON can hold
ENTRIES = (
    SCALARS
    | st.dictionaries(EXPONENTS, SCALARS, max_size=3)
    | st.lists(st.lists(SCALARS, max_size=3), max_size=3)
)
KEYS = st.sampled_from(["entries", "a", "b", "0"])
VALUES = st.recursive(
    ENTRIES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=24,
)


def square(n: int):
    return st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)


MATRICES = st.integers(1, 3).flatmap(square) | VALUES
DOCUMENTS = (
    MATRICES
    | st.fixed_dictionaries({"entries": MATRICES})
    | st.fixed_dictionaries({"a": MATRICES, "b": MATRICES})
    | st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries({"a": square(n), "b": square(n)}))
)


def run_main(argv: list[str], stdin: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400)
@given(
    st.sampled_from(
        [["matrix-hecke"], ["matrix-mp"], ["matrix-mp", "--check-inner"], ["matrix-rank1"]]
    ),
    DOCUMENTS,
    st.integers(-2, 40),
)
def test_matrix_commands_keep_the_contract(command, doc, precision):
    argv = [*command, "--json"]
    if command == ["matrix-hecke"]:
        argv += ["--precision", str(precision)]
    code, out, err = run_main(argv, dumps(doc))
    assert code in (0, 1, 2)
    assert err == ""
    assert out.endswith("\n") and out.count("\n") == 1
    payload = json.loads(out)
    assert ("error" in payload) == (code != 0)



# Each fuzzed part is well formed nine times in ten, so the subcommands also
# run to a result; weight documents have r <= 3 and at most 3 points, which
# keeps aut and iso fast.
LABELS = ("x", "y", "z")
JUNK = VALUES | st.text(alphabet='[]{}01,:"x ', max_size=6)


def seldom(draw) -> bool:
    """True one time in ten; Hypothesis favours small integers, so on 9."""
    return draw(st.integers(0, 9)) == 9


def rarely(draw, good, bad):
    """A draw from ``good``, or one time in ten from ``bad``."""
    return draw(bad) if seldom(draw) else draw(good)


@st.composite
def weight_docs(draw, r=None, n=None):
    r = draw(st.integers(1, 3)) if r is None else r
    n = draw(st.integers(1, 3)) if n is None else n
    den = draw(st.sampled_from([5, 7, 12]))
    points = []
    for label in LABELS[:n]:
        nums = sorted(draw(st.lists(st.integers(0, den - 1), min_size=r, max_size=r, unique=True)))
        weights = [f"{k}/{den}" for k in nums]
        i = draw(st.integers(0, r - 1))
        weights[i] = rarely(draw, st.just(weights[i]), SCALARS)
        points.append({"label": label, "weights": weights})
    doc = {"r": r, "degree": draw(st.integers(-3, 3)), "points": points}
    if not seldom(draw):
        doc["genus"] = rarely(draw, st.integers(0, 3), SCALARS)
    if draw(st.booleans()):
        perm = rarely(draw, st.permutations(LABELS[:n]) | st.permutations(range(n)), JUNK)
        doc["symmetries"] = [{"perm": perm, "multiplicity": draw(st.integers(0, 2))}]
    field = draw(st.sampled_from(["r", "degree", "points", "genus", "symmetries"]))
    if field in doc:
        doc[field] = rarely(draw, st.just(doc[field]), SCALARS)
    return doc


def shape(doc) -> tuple[int, int]:
    """(r, number of points) of a document, each clamped to 1..3, or (2, 2)."""
    try:
        return min(max(int(doc["r"]), 1), 3), min(max(len(doc["points"]), 1), 3)
    except (KeyError, TypeError, ValueError):
        return 2, 2


def ints(draw, low=-1, high=5) -> str:
    return rarely(draw, st.integers(low, high).map(str), st.sampled_from(["x", "1.5", "", "2e1"]))


def pattern(draw, r: int, n: int) -> str:
    incidence = st.lists(st.integers(0, 1), min_size=r, max_size=r)
    picks = st.lists(st.integers(0, r + 1), max_size=r)
    rows = st.lists(incidence | picks, min_size=n, max_size=n)
    return dumps(rarely(draw, rows, JUNK))


def word(draw, r: int, n: int) -> str:
    good = st.fixed_dictionaries(
        {"perm": st.permutations(range(n)), "sign": st.sampled_from([1, -1])},
        optional={
            "tdeg": st.sampled_from([*range(-3, 4), LONG_INT]),
            "hecke": st.lists(st.integers(-1, r + 1), min_size=n, max_size=n),
        },
    )
    return dumps(rarely(draw, good, JUNK))


def perms(draw, n: int) -> str:
    good = st.lists(st.permutations(LABELS[:n]) | st.permutations(range(n)), max_size=2)
    return dumps(rarely(draw, good, JUNK))


DOC_COMMANDS = [
    "normalize", "owt", "invariant", "generic", "concentrated", "bounds", "transform", "aut"
]
PAIR_COMMANDS = ["same-chamber", "walls", "iso"]
MATRIX_COMMANDS = ["matrix-rank1", "matrix-hecke", "matrix-mp"]
PLAIN_COMMANDS = ["dims", "orders", "matrix-xi", "compose", "inverse", "fixtures"]
COMMANDS = DOC_COMMANDS + PAIR_COMMANDS + MATRIX_COMMANDS + PLAIN_COMMANDS


def flags(draw, command: str, r: int, n: int) -> list[str]:
    """The subcommand's own arguments; each flag is left out one time in ten."""
    table = {
        "owt": {"--pattern": lambda: pattern(draw, r, n)},
        "bounds": {
            "--pattern": lambda: pattern(draw, r, n),
            **{f: lambda: ints(draw, -1, 3) for f in ("--l", "--m", "--k")},
            "--doc2": lambda: "",  # the current directory: no readable document
        },
        "transform": {"--word": lambda: word(draw, r, n)},
        "iso": {"--perms": lambda: perms(draw, n)},
        "dims": {f: lambda: ints(draw) for f in ("--genus", "--points", "--rank", "--stratum")},
        "orders": {
            f: lambda: ints(draw) for f in ("--genus", "--rank", "--points", "--aut-order")
        },
        "matrix-xi": {"--n": lambda: ints(draw)},
        "matrix-hecke": {"--precision": lambda: ints(draw, -2, 40)},
        "compose": {"--rank": lambda: ints(draw, 1, 4)},
        "inverse": {"--rank": lambda: ints(draw, 1, 4)},
    }
    argv = []
    for flag, value in table.get(command, {}).items():
        if not seldom(draw) and (flag != "--doc2" or draw(st.booleans())):
            argv += [flag, value()]
    argv += [word(draw, r, n) for _ in range({"compose": 2, "inverse": 1}.get(command, 0))]
    switch = {"aut": "--strict", "walls": "--all", "iso": "--strict", "matrix-mp": "--check-inner"}
    if command in switch and draw(st.booleans()):
        argv.append(switch[command])
    return argv


@st.composite
def invocations(draw):
    """(argv, stdin) for one subcommand, then one time in ten an argument fault."""
    command = draw(st.sampled_from(COMMANDS))
    argv, stdin, r, n = [command], "", draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if command in DOC_COMMANDS:
        doc = rarely(draw, weight_docs(), JUNK)
        r, n = shape(doc)
    elif command in PAIR_COMMANDS:
        pair = st.fixed_dictionaries
        same_shape = pair({"first": weight_docs(r, n), "second": weight_docs(r, n)})
        any_shape = pair({"first": weight_docs(), "second": weight_docs()})
        doc = rarely(draw, same_shape, any_shape | JUNK)
    elif command in MATRIX_COMMANDS:
        doc = draw(DOCUMENTS)
    if command not in PLAIN_COMMANDS:
        argv.append("--json")
        stdin = dumps(doc)
    argv += flags(draw, command, r, n)
    fault = draw(st.integers(0, 29))
    if fault == 29:
        argv.insert(draw(st.integers(1, len(argv))), "--bogus")
    elif fault == 28:
        argv = draw(st.sampled_from([[], ["bogus"], ["--json"]]))
    elif fault == 27 and len(argv) > 1:
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv, stdin


def test_every_subcommand_is_fuzzed():
    parser = build_parser()
    (subcommands,) = [
        action.choices
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert sorted(subcommands) == sorted(COMMANDS)


@settings(max_examples=600)
@given(invocations())
def test_every_subcommand_keeps_the_contract(invocation):
    argv, stdin = invocation
    code, out, err = run_main(argv, stdin)
    assert code in (0, 1, 2)
    assert err == ""
    assert out.endswith("\n") and out.count("\n") == 1
    payload = json.loads(out)
    assert ("error" in payload) == (code != 0)
    # every value, pre-encoded text included, is in canonical form
    assert out == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["normalize", "--json"], '{"r": 2, "degree": %s, "points": []}' % LONG),
        (["normalize", "--json"], dumps(
            {"r": 2, "degree": 0, "points": [{"label": "x", "weights": ["0", f"1/{LONG}"]}]}
        )),
        (["matrix-hecke", "--json"], dumps([[{LONG: "1"}]])),
        (["compose", "--rank", "1", '{"perm": [0], "sign": 1, "tdeg": %s}' % LONG, "{}"], ""),
        (["normalize", "--json"], "[" * 2000 + "]" * 2000),
        (["matrix-rank1", "--json"], '{"entries": %s}' % ("[" * 5000 + "]" * 5000)),
    ],
    ids=["long-degree", "long-denominator", "long-exponent", "long-tdeg", "deep", "deeper"],
)
def test_over_long_numbers_and_deep_nesting_are_input_errors(argv, stdin):
    """Text, since ``json.dumps`` can neither write these numbers nor nest this deep."""
    code, out, err = run_main(argv, stdin)
    assert (code, err) == (2, "")
    assert json.loads(out)["error"]["kind"] == "input"


ONE_POINT = {"r": 3, "degree": 0, "points": [{"label": "x", "weights": ["0", "1/5", "2/5"]}]}
TWO_POINTS = {
    "r": 2,
    "degree": 1,
    "points": [
        {"label": "x", "weights": ["1/7", "5/7"]},
        {"label": "y", "weights": ["2/9", "8/9"]},
    ],
}
NINES = "9" * LIMIT  # the longest integer an argument or document may hold


def run_child(argv: list[str], stdin: str) -> tuple[int, str, str]:
    """``main`` in a fresh interpreter, which must finish within a few seconds."""
    proc = subprocess.run(
        [sys.executable, "-m", "parastab.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=10,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["orders", "--genus", "3000", "--rank", "9", "--points", "1"], ""),
        (["dims", "--genus", "9" * (LIMIT - 1), "--points", "1", "--rank", "9"], ""),
        (["aut", "--json"], json.dumps({**ONE_POINT, "genus": 5000})),
        # each power below has more digits than memory holds: refused before it is taken
        (["orders", "--genus", NINES, "--rank", "3", "--points", "2"], ""),
        (["orders", "--genus", "1", "--rank", "3", "--points", NINES], ""),
        (["orders", "--genus", "1", "--rank", "2", "--points", NINES], ""),
        (["aut", "--json"], json.dumps({**TWO_POINTS, "genus": int(NINES)})),
    ],
    ids=["orders", "dims", "aut", "orders-genus", "orders-points", "orders-rank2-points",
         "aut-genus"],
)
def test_a_result_beyond_the_int_string_limit_is_one_domain_error(argv, stdin):
    code, out, err = run_child(argv, stdin)
    assert (code, err) == (1, "")
    message = f"result has an integer of more than {LIMIT} digits"
    assert json.loads(out) == {"error": {"kind": "domain", "message": message}}


def test_a_result_just_within_the_int_string_limit_still_prints():
    # 10 ** 4298 and twice it: 4299 digits each
    argv = ["orders", "--genus", str((LIMIT - 2) // 2), "--rank", "10", "--points", "1"]
    code, out, err = run_child(argv, "")
    assert (code, err) == (0, "")
    aut = 10 ** (2 * ((LIMIT - 2) // 2))
    assert json.loads(out) == {"aut": aut, "ratio": 2, "threebir": 2 * aut}


def test_no_power_is_refused_without_an_int_string_limit():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        orders = concentrated_orders(5000, 3, 1, 1)
    finally:
        sys.set_int_max_str_digits(saved)
    assert orders.aut == 3 ** 10000 and orders.ratio == 2
