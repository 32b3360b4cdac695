#!/usr/bin/env python3
"""Run-to-run spread of the serving benchmark.

    python3 servebench/spread.py --runs 10 --first-seed 400 [WORKLOAD ...]

Runs each workload (default: all of BENCHMARK.json's) --runs times at
run_seconds, with seeds first-seed, first-seed + 1, ..., untraced, from the
root of a source checkout. Prints every run, with the host's CPU steal over
it (the share of busy time given to other guests, from /proc/stat), then
each end-to-end metric's median and spread: the distance between its first
and third quartile (statistics.quantiles(n=4)) over its median, next to
the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cpu_times():
    with open("/proc/stat") as f:
        return [int(v) for v in f.readline().split()[1:]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            before = cpu_times()
            run = subprocess.run(
                [sys.executable, "servebench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            busy = [b - a for a, b in zip(before, cpu_times())]
            steal = busy[7] / max(1, sum(busy) - busy[3])
            lines = run.stdout.strip().splitlines()
            if run.returncode or not lines:
                print("%s seed %d failed (exit %d): %s" % (
                    workload, seed, run.returncode,
                    " | ".join((run.stderr.strip().splitlines() or [""])[-3:] +
                               lines[-1:])), flush=True)
                continue
            result = json.loads(lines[-1])
            print("%s seed %d steal %.3f attempted %d failed %d %s" % (
                workload, seed, steal, result["attempted"], result["failed"],
                " ".join("%s=%.4g" % (k, v["value"])
                         for k, v in result["metrics"].items())), flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("== %s" % workload)
        for name, series in values.items():
            if len(series) < 2:
                continue
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            print("  %-16s median %-10.4g spread %.3f bound %.2f" % (
                name, median, (q3 - q1) / median, bounds[name]), flush=True)


if __name__ == "__main__":
    main()
