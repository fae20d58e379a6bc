"""Run-to-run spread of the end-to-end metrics.

Usage::

    python3 perfbench/spread.py --workload fleet --runs 10 --seconds 50

Runs the benchmark once per seed (1..runs) and prints, per end-to-end
metric, the median and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"seed {seed}: exit {proc.returncode}, no result\n"
                  + proc.stderr[-2000:], flush=True)
            continue
        result = json.loads(lines[-1])
        summary = [line for line in proc.stderr.splitlines()
                   if line.startswith(f"{args.workload}: ")]
        print(f"seed {seed}: {time.perf_counter() - started:.1f} s, exit "
              f"{proc.returncode} correct "
              f"{result['correct']} failed {result['failed']}/"
              f"{result['attempted']} {' '.join(summary)}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name, float("nan"))
        flag = "" if spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:22s} median {median:12.5g}  spread {spread:7.4f}"
              f"  bound {bound:.2f}{flag}")
        print("    " + " ".join(f"{v:.5g}" for v in series))
    return 0


if __name__ == "__main__":
    sys.exit(main())
