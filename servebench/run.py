#!/usr/bin/env python3
"""Serving benchmark entry point.

Run from the root of a source checkout:

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 servebench/run.py --all --seed N --seconds S [--trace 0|1]
    python3 servebench/run.py --self-test

Builds the repository's library and the benchmark binary from source into
$CARGO_TARGET_DIR (default .bench_build), generates the workload's inputs
from --seed in a run directory under it, runs the workload, and prints
the binary's report followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics (0 for a layer the workload does not cross).
--all runs every workload and ends with a table of every metric with its
unit. --self-test builds and runs the tests of the benchmark's own helpers.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
GEN_TIMEOUT_S = 120
RUN_TIMEOUT_S = 160


def fail(message):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no %s at %s: run from a full source checkout" % (needed, ROOT))
    out = os.path.join(build_dir(), "cmake")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(build_dir(), "build.log")
    with open(os.path.join(build_dir(), "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append(["cmake", "--build", out, "--target", target,
                      "--parallel", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(out, target)


def source_id():
    """Git commit when there is one, and a hash of the library sources."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else "none"
    return "git:%s src:%s" % (commit, digest.hexdigest()[:16])


def run_step(argv, timeout):
    try:
        return subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (timeout, " ".join(argv[:2])))


def benchmark_result(spec, report, trace):
    """The benchmark result: end_to_end metrics (trace 0) or per_layer
    metrics (trace 1), named and unit-labelled as BENCHMARK.json says."""
    if trace:
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = report["layer"]
        unknown = sorted(set(values) - set(declared))
        if unknown:
            fail("servebench reported undeclared per-layer metrics: %s" % unknown)
        # A layer the workload does not cross has nothing to count: 0.
        values = {name: values.get(name, 0.0) for name in declared}
    else:
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = report["e2e"]
        if set(values) != set(declared):
            fail("servebench end-to-end metrics %s do not match BENCHMARK.json %s"
                 % (sorted(values), sorted(declared)))
    return {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": values[name], "unit": declared[name]}
                    for name in declared},
    }


def run_workload(spec, workload, seed, seconds, trace):
    """Generates the inputs, runs one workload, prints the binary's report
    and returns the benchmark result."""
    binary = build("servebench")
    run_dir = os.path.join(build_dir(), "runs", "%s-%d-%d" % (
        workload, seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds), "--dir", run_dir]
    try:
        if run_step([binary, "gen"] + common, GEN_TIMEOUT_S).returncode:
            fail("input generation failed")
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        spans = os.path.join(traces, "%s-seed%d.tsv" % (workload, seed))
        run = run_step([binary, "run"] + common + [
            "--trace", str(trace), "--source-id", source_id(),
            "--spans", spans], RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = run.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("servebench exited %d without a result line" % run.returncode)
    print("\n".join(lines[:-1]))
    result = benchmark_result(spec, report, trace)
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" % (
            workload, seed, trace)), "w") as f:
        json.dump({"result": result, "report": report}, f, indent=1)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print one table")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([build("servebench_tests")]).returncode)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if (args.workload not in workloads and not args.all) or \
            args.seed is None or args.seconds is None or args.seconds < 1:
        fail("need --workload (one of %s) or --all, --seed and --seconds >= 1"
             % ", ".join(workloads))

    if not args.all:
        result = run_workload(spec, args.workload, args.seed, args.seconds,
                              args.trace)
        print(json.dumps(result))
        sys.exit(0 if result["correct"] else 1)
    results = {}
    for workload in workloads:
        results[workload] = run_workload(spec, workload, args.seed,
                                         args.seconds, args.trace)
    print("\n%-16s %-34s %16s  %s" % ("workload", "metric", "value", "unit"))
    for workload, result in results.items():
        for name, metric in result["metrics"].items():
            print("%-16s %-34s %16.6g  %s" % (workload, name, metric["value"],
                                              metric["unit"]))
        print("%-16s %-34s %16s" % (workload, "correct / attempted / failed",
                                     "%s / %d / %d" % (
                                         result["correct"], result["attempted"],
                                         result["failed"])))
    print(json.dumps(results))
    sys.exit(0 if all(r["correct"] for r in results.values()) else 1)


if __name__ == "__main__":
    main()
