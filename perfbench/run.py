#!/usr/bin/env python3
"""renforge benchmark: seeded workloads, driven in a closed loop, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of sweep_saturated, sweep_random, refined_drive, stack, or
``all`` (each workload in its own process, one after another).  A run
repeats passes of the workload (set-up, then the timed calls) until the
next pass would overrun ``--seconds``, and reports medians over passes.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` passes alternate untraced and traced, the last line
carries the per-layer metrics, and the spans go to
``.perfbench/spans-NAME-seedN.jsonl``.  Every pass is checked against the
first pass and, for pinned seeds, against ``pins.json``; the seed-7
artifact pass is checked against its golden hashes.  Any mismatch or
exception exits with status 1; missing sources exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("sweep_saturated", "sweep_random", "refined_drive", "stack")


def run_all(args) -> int:
    """Each workload in a fresh process; echo its lines and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        for key, metric in result["metrics"].items():
            print(f"{name:16} {key:40} {metric['value']:.6g} {metric['unit']}")
            merged["metrics"][f"{name}/{key}"] = metric
        merged["correct"] = merged["correct"] and result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "renforge" / "__init__.py").is_file():
        print(f"renforge sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import bench

    result = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                           pins=bench.load_pins())
    for line in result.pop("info"):
        print(line)
    for note in result.pop("notes"):
        print(note, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
