"""Every name a subcommand can call is defined when it runs: a per-command static check.

cli binds each ``_LAYER_NAMES`` entry at import to a stand-in that loads its
layer on first use, so a listed name is defined for every command.  A name
left out of that list, or misspelt, fails only when the branch that uses it
runs, and ``test_cold_start.py`` runs one input per command, so it cannot see
a branch its input does not take.  This test reads the bytecode instead:
every global name that code reachable from the command loads must be defined
in cli, be a builtin, or be a ``_LAYER_NAMES`` entry, and each such entry
must be bound to its stand-in or to the library object it stands for.
"""

from __future__ import annotations

import builtins
import dis
import importlib
from types import CodeType, FunctionType

import pytest

from parastab import cli

BOUND = {name for names in cli._LAYER_NAMES.values() for name in names}
# cli's own namespace, without the names that an earlier in-process run bound into it
OWN = set(vars(cli)) - BOUND
BUILTINS = set(dir(builtins))
COMMANDS = {name: (kind, handler) for name, _, kind, _, handler in cli._COMMANDS}
LAYER_OF = {name: layer for layer, names in cli._LAYER_NAMES.items() for name in names}


def cli_defined(value) -> bool:
    return isinstance(value, (FunctionType, type)) and value.__module__ == cli.__name__


def methods(cls: type):
    """(name, function) of each method ``cls`` defines, property getters included."""
    for name, value in vars(cls).items():
        value = value.fget if isinstance(value, property) else value
        value = value.__func__ if isinstance(value, (staticmethod, classmethod)) else value
        if isinstance(value, FunctionType):
            yield name, value


def reachable_globals(*roots) -> set[str]:
    """Every global name loaded by code reachable from ``roots``, cli functions or classes.

    A cli function or class named by a loaded global is followed, and so is
    the code nested in a function.  Of a reached class, a method is followed
    when reached code loads an attribute of its name, or when it overrides an
    inherited attribute, since code outside cli may call it.
    """
    names: set[str] = set()
    attrs: set[str] = set()
    classes: set[type] = set()
    done: set[CodeType] = set()
    todo = list(roots)
    while todo:
        value = todo.pop()
        if isinstance(value, type):
            classes.add(value)
        else:
            code = value.__code__ if isinstance(value, FunctionType) else value
            if code in done:
                continue
            done.add(code)
            for ins in dis.get_instructions(code):
                if ins.opname == "LOAD_GLOBAL":
                    names.add(ins.argval)
                    target = vars(cli).get(ins.argval)
                    if ins.argval in OWN and cli_defined(target) and target not in classes:
                        todo.append(target)
                elif ins.opname in ("LOAD_ATTR", "LOAD_METHOD"):
                    attrs.add(ins.argval)
            todo.extend(const for const in code.co_consts if isinstance(const, CodeType))
        if not todo:
            todo = [
                method
                for cls in classes
                for name, method in methods(cls)
                if method.__code__ not in done
                and (name in attrs or any(hasattr(base, name) for base in cls.__mro__[1:]))
            ]
    return names


def reached(command: str) -> set[str]:
    """The global names ``main`` can load running ``command``: its own code,
    the handler, the parser of its input kind and the JSON writer's hooks."""
    kind, handler = COMMANDS[command]
    roots = [cli.main, cli._to_json, *filter(cli_defined, cli._JSON_FORMS.values()), handler]
    if kind is not None:
        roots.append(cli._KINDS[kind][0])
    return reachable_globals(*roots)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_name_a_command_reaches_is_bound(command):
    names = reached(command)
    assert sorted(names - OWN - BUILTINS - BOUND) == []
    for name in sorted(names & BOUND):
        value = vars(cli)[name]
        if isinstance(value, cli._Deferred):
            assert (value.layer, value.name) == (LAYER_OF[name], name)
        else:
            layer = importlib.import_module(f"{cli.__package__}.{LAYER_OF[name]}")
            assert value is getattr(layer, name)


def test_the_walk_takes_every_branch_and_only_called_methods():
    # generic's degree scan runs only when the blanket test finds a wall
    assert "is_degree_generic" in reached("generic")
    # same-chamber's fingerprint fallback runs only on a relevant wall
    assert "same_numerical_chamber" in reached("same-chamber")
    # Document.curve builds the curve for aut alone
    assert "trivial_curve" in reached("aut")
    assert "trivial_curve" not in reached("normalize")
    # the argument parser's error hook is called by argparse, not by cli
    assert "InputError" in reachable_globals(cli._Parser)
