"""The CLI contract for the matrix subcommands, on fuzzed documents.

Whatever JSON arrives on stdin and whatever integer ``--precision`` is given,
``main()`` writes exactly one JSON line to stdout, nothing to stderr, and
returns 0, 1 or 2; no exception escapes it.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from parastab.cli import main

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.sampled_from(["0", "1", "-2", "1/2", "3/0", "x", "", "1e3", " 4"])
)
EXPONENTS = st.sampled_from(["0", "1", "-1", "2", "-3", "x", "1.5", ""])
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
    code, out, err = run_main(argv, json.dumps(doc))
    assert code in (0, 1, 2)
    assert err == ""
    assert out.endswith("\n") and out.count("\n") == 1
    payload = json.loads(out)
    assert ("error" in payload) == (code != 0)
