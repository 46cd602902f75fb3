#!/usr/bin/env python3
"""Record the output digests that default-seed runs are compared against.

    python3 perfbench/record_digests.py

For each workload this runs the first ROUNDS[workload] rounds at the
default seed and writes one 16-hex-digit digest per op to
``perfbench/digests/<workload>.json``.  Record with the library whose
outputs are known to be right; rounds a run reaches beyond the recorded
ones get the structural checks only.
"""
from __future__ import annotations

import json

import run
from inputs import DEFAULT_SEED

# About four times the rounds a 25-second run reaches with the library
# these digests were recorded from, so that a run of a library up to four
# times faster still has every output compared.
ROUNDS = {
    "aut_classify": 48,
    "wall_scan": 36,
    "hecke_matrices": 128,
    "cli_small": 2300,
}


def main() -> None:
    cli = run.load_cli()
    for workload, count in ROUNDS.items():
        loop = run.Loop(cli, workload, DEFAULT_SEED)
        loop.expected = []
        loop.run_rounds(count)
        if loop.failures:
            raise SystemExit(f"{workload}: {loop.failures[:3]}")
        path = run.digest_path(workload)
        path.parent.mkdir(exist_ok=True)
        rounds = ",\n".join(json.dumps(r, separators=(",", ":")) for r in loop.digests)
        path.write_text(f'{{"seed": {DEFAULT_SEED}, "rounds": [\n{rounds}\n]}}\n')
        print(f"{workload}: {loop.rounds} rounds, {len(loop.walls)} ops -> {path}")


if __name__ == "__main__":
    main()
