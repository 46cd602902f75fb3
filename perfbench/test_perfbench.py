"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from checks import check  # noqa: E402
from inputs import DEFAULT_SEED, GENERATORS, transposition  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


def result_line(*args: str, cwd: Path = HERE.parent) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_one_round_passes_every_check(cli, workload):
    # the default seed also compares every output with its committed digest
    loop = run.Loop(cli, workload, DEFAULT_SEED)
    assert loop.expected, "no committed digests"
    loop.run_rounds(1)
    assert loop.failures == []
    assert len(loop.walls) == len(GENERATORS[workload](DEFAULT_SEED, 0))


def first_op(kind: str, r: int, n: int):
    return next(op for op in GENERATORS["aut_classify"](DEFAULT_SEED, 0)
                if op.kind == kind and (op.expect["r"], len(op.expect["rows1" if kind == "iso"
                                                                       else "rows"])) == (r, n))


def test_aut_check_wants_every_fixing_class_and_no_moving_one(cli):
    op = first_op("aut", 2, 5)  # curve with a transposition, twin points
    code, stdout, _, _ = run.call(cli, op)
    assert check(op, code, stdout) is None
    out = json.loads(stdout)
    swap = {"perm": transposition(5), "sign": 1, "tdeg": 0, "hecke": [0] * 5}
    assert swap in out["classes"]
    dropped = dict(out, classes=[c for c in out["classes"] if c != swap])
    assert "missing" in check(op, 0, json.dumps(dropped))

    op = first_op("aut", 2, 6)  # no curve symmetry, distinct points
    code, stdout, _, _ = run.call(cli, op)
    out = json.loads(stdout)
    moving = {"perm": transposition(6), "sign": 1, "tdeg": 0, "hecke": [0] * 6}
    added = dict(out, classes=out["classes"] + [moving])
    assert "moves the chamber" in check(op, 0, json.dumps(added))


def test_iso_check_wants_each_transform_to_carry_the_chamber(cli):
    op = first_op("iso", 2, 6)
    code, stdout, _, _ = run.call(cli, op)
    assert check(op, code, stdout) is None
    out = json.loads(stdout)
    wrong = dict(out["transforms"][0], perm=transposition(6))
    bad = dict(out, transforms=out["transforms"] + [wrong], count=out["count"] + 1)
    assert "does not carry the first chamber" in check(op, 0, json.dumps(bad))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(GENERATORS)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_reported_metrics_match_benchmark_json(trace, section):
    res = result_line("--workload", "cli_small", "--seed", "5", "--seconds", "0.2",
                      "--trace", trace)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == want


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_inputs_depend_on_the_seed_only(workload):
    gen = GENERATORS[workload]
    first = [op.key() for op in gen(11, 2)]
    assert first == [op.key() for op in gen(11, 2)]
    assert first != [op.key() for op in gen(12, 2)]
    assert first != [op.key() for op in gen(11, 3)]


def test_traced_run_restores_every_patched_attribute(cli):
    import parastab

    modules = {layer: getattr(parastab, layer) for layer in tracing.LAYERS}
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracing.targets(modules)]
    assert len(before) > 40
    loop, metrics = run.traced(cli, "cli_small", 3, 0.05)
    assert loop.failures == []
    assert metrics["cli.build_parser_ms"]["value"] > 0
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} left patched"


def test_tracer_restores_after_a_failing_call(cli):
    import parastab

    modules = {layer: getattr(parastab, layer) for layer in tracing.LAYERS}
    original = parastab.local_matrix.LaurentMatrix.det
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        assert parastab.local_matrix.LaurentMatrix.det is not original
        with pytest.raises(parastab.DomainError):
            parastab.LaurentMatrix.build([[1, 2, 3]]).det()
    finally:
        tracer.restore()
    assert parastab.local_matrix.LaurentMatrix.det is original
    assert tracer.stack == []


def test_refuses_without_the_library():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli_small", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
