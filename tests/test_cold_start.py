"""Every subcommand, once, in a fresh interpreter: the modules it loads.

Each command runs on a small valid input in its own interpreter, as the
command line runs it, and must keep the JSON contract: one JSON object line
on stdout, nothing on stderr, exit code 0.  The ``parastab`` modules it
loaded are pinned: a layer loads on the first use of one of its names, so a
command loads only the layers its code reaches, and an input refused before
any layer is used loads none.  None loads ``dataclasses`` or ``inspect``,
which would cost several milliseconds per launch; the records stand on
``parastab.errors.Record``.  An in-process run cannot see this, since an
earlier command may already have loaded a layer that a later one reaches.
Importing ``parastab.cli`` loads no ``pathlib`` either: files are read with
``open``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import parastab
from parastab.cli import _COMMANDS

# run main on the arguments, then print the parastab modules loaded on a second line
# and the heavy standard modules loaded on a third
CHILD = """
import json, sys
from parastab.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(name for name in sys.modules if name.startswith("parastab"))))
print(json.dumps(sorted({"dataclasses", "inspect"} & set(sys.modules))))
sys.exit(code)
"""

# two generic rank-2 documents that differ only at x
DOC = {
    "r": 2,
    "degree": 0,
    "points": [
        {"label": "x", "weights": ["1/7", "5/7"]},
        {"label": "y", "weights": ["2/9", "8/9"]},
    ],
    "genus": 2,
}
DOC2 = {**DOC, "points": [{"label": "x", "weights": ["1/11", "3/11"]}, DOC["points"][1]]}
PAIR = {"first": DOC, "second": DOC2}
WORD = '{"perm": [1, 0], "sign": 1, "tdeg": 0, "hecke": [1, 0]}'
MATRIX = [[0, 1], [{"1": "1"}, 0]]

BASE = ["parastab", "parastab.cli", "parastab.errors"]
CORE = [*BASE, "parastab.weights_core"]
CLASSES = [*CORE, "parastab.autgroup", "parastab.transform_group"]

# command -> (arguments, JSON read from stdin under --json, modules loaded)
CASES = {
    "normalize": ([], DOC, CORE),
    "owt": (["--pattern", "[[1],[2]]"], DOC, CORE),
    "generic": ([], DOC, CORE),
    "concentrated": ([], DOC, CORE),
    "dims": (["--genus", "2", "--points", "2", "--rank", "2", "--stratum", "1"], None, CORE),
    "bounds": (["--pattern", "[[1],[2]]"], DOC, CORE),
    "invariant": ([], DOC, [*CORE, "parastab.chamber"]),
    "same-chamber": ([], PAIR, [*CORE, "parastab.chamber"]),
    "walls": (["--all"], PAIR, [*CORE, "parastab.chamber"]),
    "transform": (["--word", WORD], DOC, [*CORE, "parastab.transform_group"]),
    "compose": (["--rank", "2", WORD, WORD], None, [*CORE, "parastab.transform_group"]),
    "inverse": (["--rank", "2", WORD], None, [*CORE, "parastab.transform_group"]),
    "aut": ([], DOC, CLASSES),
    "iso": ([], PAIR, CLASSES),
    "orders": (["--genus", "2", "--rank", "3", "--points", "2"], None, CLASSES),
    "matrix-xi": (["--n", "2"], None, [*BASE, "parastab.local_matrix"]),
    "matrix-rank1": ([], [[1, 2], [2, 4]], [*BASE, "parastab.local_matrix"]),
    "matrix-mp": (["--check-inner"], {"a": MATRIX, "b": MATRIX}, [*BASE, "parastab.local_matrix"]),
    "matrix-hecke": ([], MATRIX, [*BASE, "parastab.local_matrix"]),
    "fixtures": ([], None, [*CLASSES, "parastab._claims", "parastab.chamber"]),
}


def test_every_command_is_covered():
    assert sorted(CASES) == sorted(command[0] for command in _COMMANDS)


def run(argv: list[str], stdin: str | None) -> tuple[int, dict, list[str]]:
    """(exit code, payload, parastab modules loaded) of ``main(argv)`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, input=stdin
    )
    assert proc.stderr == ""
    output, loaded, heavy = proc.stdout.splitlines()
    assert json.loads(heavy) == []
    return proc.returncode, json.loads(output), json.loads(loaded)


@pytest.mark.parametrize("command", CASES)
def test_command_loads_only_its_layers(command):
    args, stdin, modules = CASES[command]
    if stdin is None:
        code, payload, loaded = run([command, *args], None)
    else:
        code, payload, loaded = run([command, "--json", *args], json.dumps(stdin))
    assert code == 0, payload
    assert isinstance(payload, dict) and "error" not in payload
    assert loaded == sorted(modules)


def test_refused_input_loads_no_layer():
    code, payload, loaded = run(["aut", "--json"], "not json")
    assert code == 2
    assert payload["error"]["kind"] == "input"
    assert payload["error"]["message"].startswith("invalid JSON: ")
    assert loaded == BASE


def test_cli_import_loads_no_pathlib():
    # -S keeps site, which loads pathlib itself, out of the child; the
    # package's own directory goes on the path by hand
    root = os.path.dirname(os.path.dirname(parastab.__file__))
    child = f"import sys; sys.path.insert(0, {root!r}); import parastab.cli; print('pathlib' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", child], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
