#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics: runs one workload over
several seeds and prints, per metric, the median and the distance between
the first and third quartile as a share of the median, next to the metric's
bound in BENCHMARK.json.

    python3 e2ebench/spread.py --workload serve-open --runs 5 [--first-seed 1]

Run from the repository root. A spread under a third of the bound is the
target; setup_s is gated on its median only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    command = bench["command"]
    seconds = str(bench["run_seconds"])

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        run = subprocess.run(
            command + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", seconds, "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print("seed %d: exit %d" % (seed, run.returncode))
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: incorrect" % seed)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items())))

    print("%-28s %12s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name, series in values.items():
        median = statistics.median(series)
        if len(series) >= 2 and median != 0:
            q = statistics.quantiles(series, n=4)
            spread = (q[2] - q[0]) / median
        else:
            spread = float("nan")
        bound = bounds.get(name)
        print("%-28s %12.5g %8.3f %8s" % (name, median, spread,
                                          "-" if bound is None else bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())
