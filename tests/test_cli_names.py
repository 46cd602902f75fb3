"""Every global name cli loads is defined: a static check.

At import cli binds each name of ``_LAYER_NAMES`` to a stand-in that loads
its layer on first use, so a listed name is defined on every path.  A name
left out of ``_LAYER_NAMES``, or misspelt, would fail only when the branch
that uses it runs, and a test's inputs may never take that branch.  So the
compiled source is read instead: every global that any code in cli.py loads
must be defined in cli or be a builtin, and every ``_LAYER_NAMES`` entry
must exist in its layer.
"""

from __future__ import annotations

import builtins
import dis
import importlib
from pathlib import Path
from types import CodeType

from parastab import cli


def code_objects(code: CodeType):
    """``code`` and every code object nested in it: functions, classes, comprehensions."""
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from code_objects(const)


def test_every_global_cli_loads_is_defined():
    module_code = compile(Path(cli.__file__).read_text(), cli.__file__, "exec")
    loaded = {
        ins.argval
        for code in code_objects(module_code)
        for ins in dis.get_instructions(code)
        if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME")
    }
    assert sorted(loaded - set(vars(cli)) - set(dir(builtins))) == []


def test_every_layer_name_exists_in_its_layer():
    missing = [
        f"{layer}.{name}"
        for layer, names in cli._LAYER_NAMES.items()
        for name in names
        if not hasattr(importlib.import_module(f"{cli.__package__}.{layer}"), name)
    ]
    assert missing == []
