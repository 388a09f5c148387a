#!/usr/bin/env python3
"""Measure the run-to-run spread of one workload's metrics.

Usage, from the root of the repository:

    python3 perfbench/steady.py --workload <name> [--runs 10] [--seconds 10]
        [--first-seed 1] [--trace 0]

Runs the benchmark `--runs` times with seeds first-seed, first-seed+1, ...
and prints, for every metric the runs report (the gated ones on the result
line and the rest of the report line), the median, the first and third
quartiles and the spread (Q3 - Q1) / median, all as
`statistics.quantiles(values, n=4)` gives them. Bounds in BENCHMARK.json are
set from this spread, not guessed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit(f"run failed (seed {seed}, exit {out.returncode}):\n{out.stderr}")
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    if not result["correct"]:
        sys.exit(f"seed {seed}: incorrect result: {lines[-1]}")
    gated = set(result["metrics"])
    return {name: (m["value"], m["unit"], name in gated) for name, m in report.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    runs = [run_once(args.workload, args.first_seed + i, args.seconds, args.trace)
            for i in range(args.runs)]
    print(f"{args.workload}: {args.runs} runs of {args.seconds} s, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"  {'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, (_, unit, gated) in runs[0].items():
        values = [run[name][0] for run in runs if name in run]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        mark = "*" if gated else " "
        print(f"{mark} {name:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f}  {unit}")
    print("* gated in BENCHMARK.json")
    gated = [name for name, (_, _, g) in runs[0].items() if g]
    print("per run: " + ", ".join(gated))
    for i, run in enumerate(runs):
        values = "  ".join(f"{run[name][0]:.6g}" for name in gated)
        print(f"  seed {args.first_seed + i}: {values}")


if __name__ == "__main__":
    main()
