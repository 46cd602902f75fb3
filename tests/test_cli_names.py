"""Every global name cli loads is defined, and each layer name is bound to its own stand-in.

At import cli binds each name of ``_LAYER_NAMES`` to a stand-in that loads
its layer on first use, so a listed name is defined on every path.  A name
left out of ``_LAYER_NAMES``, or misspelt, would fail only when the branch
that uses it runs, and a test's inputs may never take that branch.  So the
compiled source is read instead: every global that any code in cli.py loads
must be defined in cli or be a builtin, and every ``_LAYER_NAMES`` entry
must be defined in its layer, listed once, and never stored by cli's own
module code.  A fresh interpreter shows the bindings as import leaves them.
"""

from __future__ import annotations

import builtins
import dis
import importlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import CodeType, FunctionType

from parastab import cli

MODULE_CODE = compile(Path(cli.__file__).read_text(), cli.__file__, "exec")
LISTED = [(layer, name) for layer, names in cli._LAYER_NAMES.items() for name in names]

# what each listed name is bound to right after ``import parastab.cli``:
# [layer, name] of its stand-in, or the type of anything else
CHILD = """
import json
from parastab import cli
print(json.dumps({
    name: [value.layer, value.name] if type(value) is cli._Deferred else type(value).__name__
    for names in cli._LAYER_NAMES.values()
    for name in names
    for value in [vars(cli).get(name)]
}))
"""


def code_objects(code: CodeType):
    """``code`` and every code object nested in it: functions, classes, comprehensions."""
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from code_objects(const)


def test_every_global_cli_loads_is_defined():
    loaded = {
        ins.argval
        for code in code_objects(MODULE_CODE)
        for ins in dis.get_instructions(code)
        if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME")
    }
    assert sorted(loaded - set(vars(cli)) - set(dir(builtins))) == []


def test_every_layer_name_exists_in_its_layer():
    """A listed function or class must be defined in its layer, not merely imported by it."""
    wrong = []
    for layer, name in LISTED:
        module = importlib.import_module(f"{cli.__package__}.{layer}")
        if name not in vars(module):
            wrong.append(f"{layer}.{name}")
        elif isinstance(value := vars(module)[name], (FunctionType, type)):
            if value.__module__ != module.__name__:
                wrong.append(f"{layer}.{name} from {value.__module__}")
    assert wrong == []


def test_every_layer_name_is_bound_to_its_own_stand_in():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, check=True
    )
    assert json.loads(proc.stdout) == {name: [layer, name] for layer, name in LISTED}


def test_no_name_is_listed_under_two_layers():
    counts = Counter(name for _, name in LISTED)
    assert sorted(name for name, count in counts.items() if count > 1) == []


def test_cli_stores_no_layer_name():
    """A ``def``, assignment or import of a listed name in cli's module code
    would replace its stand-in, or be replaced by it."""
    stored = {
        ins.argval
        for code in code_objects(MODULE_CODE)
        for ins in dis.get_instructions(code)
        if ins.opname == "STORE_GLOBAL" or (code is MODULE_CODE and ins.opname == "STORE_NAME")
    }
    assert sorted(stored & {name for _, name in LISTED}) == []
