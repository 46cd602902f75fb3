#!/usr/bin/env python3
"""Closed-loop benchmark of the parastab command line, in one process.

    python3 perfbench/run.py --workload aut_classify --seed 1 --seconds 25 --trace 0

One client calls ``parastab.cli.main(argv)`` in-process, one op at a time,
on seeded JSON documents fed through stdin.  It runs whole rounds of the
workload until the ops' summed wall time reaches ``--seconds`` and at least
MIN_OPS ops are done, checks each output outside the timed region, and
prints one JSON result as its last stdout line.  With ``--trace 1`` it
first measures rounds untraced for half the time, then replays the same
rounds with spans around every call between layers and reports the
per-layer figures instead.

Times are reported in reference seconds.  Every quarter second of op time
the loop times a fixed kernel (Fraction arithmetic and an argparse build)
that never touches parastab, by the wall clock and by the process CPU
clock.  Each op's wall time is multiplied by REFERENCE_KERNEL_S over the
median of the kernel's wall timings around it, and its CPU time by the
same reference over the kernel's CPU timings.  On a shared machine the
speed of a core drifts by a fifth or more within seconds as neighbours come
and go; the kernel drifts with it, so the scaled times move mostly when
parastab does.  The raw figures are printed on stderr, and the traced run
reports them too.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checks import check  # noqa: E402
from inputs import DEFAULT_SEED, GENERATORS  # noqa: E402

# A measured run holds at least this many ops, so that at least ten
# samples lie beyond p90 even when the machine is slow.
MIN_OPS = 100
# Fresh interpreters started to time set-up; the median is reported.
SETUP_RUNS = 9
# The op each set-up run performs after importing the CLI: a cheap one.
WARMUP_KIND = {
    "aut_classify": "aut",
    "wall_scan": "generic",
    "hecke_matrices": "matrix-hecke h",
    "cli_small": "normalize",
}
SETUP_CHILD = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
import parastab.cli
sys.stdin = io.StringIO(sys.argv[3])
code = parastab.cli.main(json.loads(sys.argv[2]))
sys.stdout.flush()
sys.exit(code)
"""
# One reference second is the time in which the calibration kernel runs
# 500 times, so the kernel itself takes REFERENCE_KERNEL_S.
REFERENCE_KERNEL_S = 0.002
# Set-up is in reference seconds too: seconds on a machine where a bare
# ``python3 -S`` launch takes this long.
REFERENCE_LAUNCH_S = 0.01
CALIBRATE_EVERY_S = 0.25


def kernel() -> int:
    """Fraction arithmetic plus an argparse build: about 2 ms of the kind of
    interpreter work parastab does, none of it parastab's own code.  Under
    contention from neighbours this pair tracked the workloads' op times
    more closely than either half alone."""
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, 997) * Fraction(3, i + 1)
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="command")
    for i in range(6):
        p = sub.add_parser(f"c{i}", help="subcommand")
        p.add_argument("doc", nargs="?")
        p.add_argument("--json", action="store_true")
        p.add_argument("--n", type=int, default=acc.denominator % 7)
    return len(sub.choices)


def calibrate() -> tuple[float, float]:
    """Median wall and median CPU time of five kernel runs, in seconds.

    The median keeps the brief stalls that also stretch short ops; the
    fastest run would hide them.
    """
    walls, cpus = [], []
    for _ in range(5):
        c0, t0 = time.process_time(), time.perf_counter()
        kernel()
        t1, c1 = time.perf_counter(), time.process_time()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
    return statistics.median(walls), statistics.median(cpus)


def load_cli():
    if not (SRC / "parastab" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no parastab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import parastab.cli

    return parastab.cli


def digest(code: int, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()[:16]


def digest_path(workload: str) -> Path:
    return HERE / "digests" / f"{workload}.json"


def call(cli, op) -> tuple[int, str, float, float]:
    """One op through ``cli.main``: (exit code, stdout, wall s, cpu s)."""
    out = io.StringIO()
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(op.stdin), out
    try:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # counted as a failed op, never fatal
            code, out = -1, io.StringIO(repr(exc))
        t1, c1 = time.perf_counter(), time.process_time()
    finally:
        sys.stdin, sys.stdout = saved
    return code, out.getvalue(), t1 - t0, c1 - c0


class Loop:
    """Closed loop with one client; keeps samples, failures and digests."""

    def __init__(self, cli, workload: str, seed: int) -> None:
        self.cli, self.workload, self.seed = cli, workload, seed
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.busy = 0.0
        self.kernel_times: list[float] = []
        self.kernel_cpus: list[float] = []
        self.kernel_index: list[int] = []
        self.calibrated_at = 0.0
        self.failures: list[str] = []
        self.rounds = 0
        self.digests: list[list[str]] = []
        self.expected: list[list[str]] = []
        path = digest_path(workload)
        if seed == DEFAULT_SEED and path.is_file():
            self.expected = json.loads(path.read_text())["rounds"]

    def run_round(self, k: int) -> None:
        seen = []
        for i, op in enumerate(GENERATORS[self.workload](self.seed, k)):
            if not self.kernel_times or self.busy - self.calibrated_at >= CALIBRATE_EVERY_S:
                kernel_wall, kernel_cpu = calibrate()
                self.kernel_times.append(kernel_wall)
                self.kernel_cpus.append(kernel_cpu)
                self.calibrated_at = self.busy
            code, stdout, wall, cpu = call(self.cli, op)
            self.walls.append(wall)
            self.cpus.append(cpu)
            self.kernel_index.append(len(self.kernel_times) - 1)
            self.busy += wall
            seen.append(digest(code, stdout))
            error = check(op, code, stdout)
            if error is None and k < len(self.expected) and seen[-1] != self.expected[k][i]:
                error = "output differs from the committed digest"
            if error is not None:
                self.failures.append(f"round {k} op {i} ({op.kind}): {error}")
        self.digests.append(seen)
        self.rounds += 1

    def run_for(self, seconds: float, min_ops: int = 0) -> None:
        """Whole rounds until the timed op time reaches ``seconds`` and at
        least ``min_ops`` ops are done."""
        while self.rounds == 0 or self.busy < seconds or len(self.walls) < min_ops:
            self.run_round(self.rounds)

    def run_rounds(self, count: int) -> None:
        while self.rounds < count:
            self.run_round(self.rounds)

    def scaled(self, values: list[float], kernel: list[float] | None = None) -> list[float]:
        """Per op: the value times reference over the median kernel time of
        the calibrations around it (wall kernel times unless given)."""
        k = self.kernel_times if kernel is None else kernel
        per_sample = [REFERENCE_KERNEL_S / statistics.median(k[max(0, j - 1):j + 2])
                      for j in range(len(k))]
        return [v * per_sample[j] for v, j in zip(values, self.kernel_index)]


def warmup_op(workload: str, seed: int):
    return next(op for op in GENERATORS[workload](seed, 0) if op.kind == WARMUP_KIND[workload])


def launch(args: list[str]) -> tuple[float, int, str, str]:
    """Start an interpreter: (seconds to its first stdout line, exit code,
    stdout, stderr)."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        rest, err = proc.communicate(timeout=120)
    return seconds, proc.returncode, line + rest, err


def setup_seconds(workload: str, seed: int) -> tuple[float, list[str], float]:
    """Median time from interpreter launch to CLI imported and one op done,
    in reference seconds, with the raw median.

    Before each launch a bare ``python3 -S`` is started.  The median launch
    time is scaled by REFERENCE_LAUNCH_S over the median bare launch.  A
    launch drifts with the machine unlike the compute kernel does, so the
    kernel is not used here.
    """
    op = warmup_op(workload, seed)
    times, bare, failures = [], [], []
    for _ in range(SETUP_RUNS):
        bare.append(launch(["-S", "-c", "print()"])[0])
        seconds, code, stdout, err = launch(
            ["-c", SETUP_CHILD, str(SRC), json.dumps(op.argv), op.stdin])
        times.append(seconds)
        error = check(op, code, stdout)
        if error is not None:
            failures.append(f"set-up run: {error} {err.strip()[-200:]}")
    raw = statistics.median(times)
    return raw * REFERENCE_LAUNCH_S / statistics.median(bare), failures, raw


def end_to_end(loop: Loop, setup_s: float) -> dict:
    latencies = loop.scaled(loop.walls)
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    ops = len(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "ops_per_s": {"value": ops / sum(latencies), "unit": "1/s"},
        "latency_p50_ms": {"value": cuts[4] * 1e3, "unit": "ms"},
        "latency_p90_ms": {"value": cuts[8] * 1e3, "unit": "ms"},
        "cpu_ms_per_op": {"value": sum(loop.scaled(loop.cpus, loop.kernel_cpus)) / ops * 1e3,
                          "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def traced(cli, workload: str, seed: int, seconds: float) -> tuple[Loop, dict]:
    """Untraced rounds for half the time, then the same rounds traced."""
    import parastab
    from tracing import LAYERS, Tracer

    call(cli, warmup_op(workload, seed))
    plain = Loop(cli, workload, seed)
    plain.run_for(seconds / 2)
    modules = {layer: getattr(parastab, layer) for layer in LAYERS}
    tracer = Tracer(modules)
    loop = Loop(cli, workload, seed)
    tracer.install()
    try:
        loop.run_rounds(plain.rounds)
    finally:
        tracer.restore()
    busy = sum(loop.scaled(loop.walls))
    # spans are in raw seconds; one run-wide factor puts them in reference seconds
    figures = tracer.metrics(len(loop.walls), loop.busy,
                             busy / loop.busy if loop.busy else 1.0)
    figures["trace_overhead"] = busy / sum(plain.scaled(plain.walls))
    # the untraced pass in plain seconds, and the kernel it was scaled by
    figures["raw.ops_per_s"] = len(plain.walls) / plain.busy
    figures["raw.latency_p50_ms"] = statistics.median(plain.walls) * 1e3
    figures["raw.cpu_ms_per_op"] = sum(plain.cpus) / len(plain.cpus) * 1e3
    figures["kernel.wall_ms"] = statistics.median(plain.kernel_times) * 1e3
    figures["kernel.cpu_ms"] = statistics.median(plain.kernel_cpus) * 1e3
    tracer.write(HERE / "out" / f"spans-{workload}-seed{seed}.json")
    loop.failures += plain.failures
    units = {"ops_per_s": "1/s", "ms_per_op": "ms", "_ms": "ms", "_s": "s", "share": "ratio",
             "ratio": "ratio", "overhead": "ratio", "us_per_pattern": "us"}
    metrics = {}
    for name, value in figures.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = {"value": value, "unit": unit}
    return loop, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    if args.trace:
        loop, metrics = traced(cli, args.workload, args.seed, args.seconds)
        attempted = 2 * len(loop.walls)  # the untraced pass ran the same ops
    else:
        setup_s, setup_failures, raw_setup = setup_seconds(args.workload, args.seed)
        print(f"set-up: raw median {raw_setup:.4f} s", file=sys.stderr)
        call(cli, warmup_op(args.workload, args.seed))
        loop = Loop(cli, args.workload, args.seed)
        loop.run_for(args.seconds, MIN_OPS)
        loop.failures += setup_failures
        metrics = end_to_end(loop, setup_s)
        attempted = len(loop.walls) + SETUP_RUNS
    failed = len(loop.failures)
    for line in loop.failures[:20]:
        print("FAIL", line, file=sys.stderr)
    raw = statistics.quantiles(loop.walls, n=10, method="inclusive") if len(loop.walls) > 1 else [0] * 9
    print(
        f"{args.workload} seed {args.seed}: {len(loop.walls)} timed ops in {loop.rounds} rounds,"
        f" {loop.busy:.2f} s raw busy, raw ops/s {len(loop.walls) / loop.busy:.4f},"
        f" raw p50 {raw[4] * 1e3:.3f} ms, raw p90 {raw[8] * 1e3:.3f} ms,"
        f" raw cpu/op {sum(loop.cpus) / len(loop.cpus) * 1e3:.3f} ms,"
        f" kernel median {statistics.median(loop.kernel_times) * 1e3:.4f} ms wall,"
        f" {statistics.median(loop.kernel_cpus) * 1e3:.4f} ms cpu,"
        f" error_rate {failed / attempted:.4f}",
        file=sys.stderr,
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
