#!/usr/bin/env python3
"""A/B comparison for the serving benchmark: a parent git ref against the
working tree, in alternating pairs of runs.

Run from anywhere inside a checkout:

    python3 scripts/ab.py --parent REF --pairs N --seeds 1,2,5-9 \\
        [--workloads W,W] [--claim METRIC:WORKLOAD] [--trace 0|1] \\
        [--seconds S]
    python3 scripts/ab.py --self-test

It extracts REF with `git archive` into .bench_build/ab/parent (no
worktree, nothing written to .git), builds that tree and the working tree
into separate CARGO_TARGET_DIRs (.bench_build/ab/parent-target and
.bench_build/ab/change-target), then runs servebench/run.py of each tree
for N pairs at BENCHMARK.json's run_seconds (--seconds overrides it for a
quick look). Pair i uses the i-th seed of --seeds, cycling, and runs every
workload once per side; even pairs run the parent first, odd pairs the
change first, so slow drift of the host falls on both sides alike. Every
run's result line is printed as it arrives and kept in
.bench_build/ab/runs-<time>.jsonl.

The summary has one row per workload and metric: each side's median and
quartiles (statistics.quantiles, n=4), the change's median relative to the
parent's, in how many pairs the change run was better than its parent run,
failed/attempted operations summed over each side's runs, and a verdict.
For end-to-end metrics (--trace 0) the verdict reads, in this order:

  claim passes / claim fails  for a --claim row: it passes when the change
                              wins at least 9 of every 10 pairs and its
                              median beats the parent's by more than the
                              parent's interquartile range (q3 - q1)
  worse than bound            the change's median is worse than the
                              parent's by more than BENCHMARK.json's bound,
                              or a larger share of its operations failed
  unresolved                  the parent's IQR/median exceeds the bound and
                              not every change run beat its parent run
  ok                          otherwise

Per-layer metrics (--trace 1) carry no bounds; their verdict is "-".
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, ".bench_build", "ab")
WIN_SHARE = 0.9  # A claim needs at least 9 wins in every 10 pairs.


def fail(message):
    print("ab: " + message, file=sys.stderr)
    sys.exit(1)


# --- Statistics -------------------------------------------------------------


def quartiles(values):
    """(q1, median, q3) of `values`, by statistics.quantiles(n=4) as
    servebench/spread.py computes them; a single value is its own
    quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def improves(new, old, better):
    """True when `new` is strictly better than `old`."""
    return new < old if better == "lower" else new > old


def wins(parent, change, better):
    """Pairs (parent[i], change[i]) in which the change run is better."""
    return sum(1 for p, c in zip(parent, change) if improves(c, p, better))


def verdict(parent, change, better, bound, claim=False, parent_failed=0.0,
            change_failed=0.0):
    """The verdict of one row (see the module docstring). `parent` and
    `change` are paired run values; *_failed are failed-operation shares."""
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    won = wins(parent, change, better)
    if claim:
        gap = p_med - c_med if better == "lower" else c_med - p_med
        passed = won >= WIN_SHARE * len(parent) and gap > p_q3 - p_q1
        return "claim passes" if passed else "claim fails"
    worse = c_med - p_med if better == "lower" else p_med - c_med
    if worse > bound * abs(p_med) or change_failed > parent_failed:
        return "worse than bound"
    if (p_q3 - p_q1) > bound * abs(p_med) and won < len(parent):
        return "unresolved"
    return "ok"


# --- Trees and runs ---------------------------------------------------------


def extract_parent(ref):
    """Extracts `ref` into AB_DIR/parent with git archive; returns the
    directory."""
    tree = os.path.join(AB_DIR, "parent")
    shutil.rmtree(tree, ignore_errors=True)
    os.makedirs(tree)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar",
                                ref], stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(tree)
    if archive.wait():
        fail("git archive %s failed" % ref)
    return tree


def run_once(tree, target, workload, seed, seconds, trace):
    """One servebench run; returns its result object, or None when it
    failed (the reason goes to stderr)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    run = subprocess.run(
        [sys.executable, os.path.join(tree, "servebench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if run.returncode or result is None or not result.get("correct"):
        tail = (run.stderr.strip().splitlines() or [""])[-3:]
        print("ab: %s seed %d failed (exit %d): %s" % (
            workload, seed, run.returncode, " | ".join(tail)),
            file=sys.stderr, flush=True)
        return None
    return result


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


# --- Report -----------------------------------------------------------------


def fmt(value):
    return "%.4g" % value


def summarize(spec, runs, trace, claims):
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    row = "%%-15s %%-%ds %%-31s %%-31s %%8s %%6s %%-21s %%s" % max(
        len(m["name"]) for m in metrics)
    header = row % ("workload", "metric", "parent median [q1, q3]",
                    "change median [q1, q3]", "change", "wins",
                    "failed/attempted", "verdict")
    print("\n" + header)
    for workload in [w["name"] for w in spec["workloads"]]:
        pairs = [(p, c) for w, p, c in runs if w == workload and p and c]
        if not pairs:
            continue
        ops = {}
        for side, index in (("parent", 0), ("change", 1)):
            failed = sum(pair[index]["failed"] for pair in pairs)
            attempted = sum(pair[index]["attempted"] for pair in pairs)
            ops[side] = (failed, attempted, failed / max(1, attempted))
        failed_text = "%d/%d; %d/%d" % (ops["parent"][0], ops["parent"][1],
                                        ops["change"][0], ops["change"][1])
        for metric in metrics:
            name = metric["name"]
            parent = [p["metrics"][name]["value"] for p, _ in pairs]
            change = [c["metrics"][name]["value"] for _, c in pairs]
            p_q1, p_med, p_q3 = quartiles(parent)
            c_q1, c_med, c_q3 = quartiles(change)
            rel = (c_med - p_med) / p_med if p_med else 0.0
            if trace:
                decision = "-"
            else:
                decision = verdict(parent, change, metric["better"],
                                   metric["bound"],
                                   (name, workload) in claims,
                                   ops["parent"][2], ops["change"][2])
            print(row % (
                workload, name,
                "%s [%s, %s]" % (fmt(p_med), fmt(p_q1), fmt(p_q3)),
                "%s [%s, %s]" % (fmt(c_med), fmt(c_q1), fmt(c_q3)),
                "%+.1f%%" % (100.0 * rel),
                "%d/%d" % (wins(parent, change, metric["better"]),
                           len(pairs)),
                failed_text, decision))


# --- Self-test --------------------------------------------------------------


def self_test():
    checks = [
        (quartiles([5.0]), (5.0, 5.0, 5.0)),
        (quartiles([1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5)),
        (quartiles([4.0, 1.0, 3.0, 2.0]), (1.25, 2.5, 3.75)),
        (wins([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "lower"), 1),
        (wins([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "higher"), 1),
    ]
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    faster = [v * 0.7 for v in parent]
    # 9 of 10 wins and a gap far beyond the IQR: the claim passes.
    nine = faster[:9] + [parent[9] + 1.0]
    checks += [
        (verdict(parent, faster, "lower", 0.25, claim=True), "claim passes"),
        (verdict(parent, nine, "lower", 0.25, claim=True), "claim passes"),
        # 8 of 10 wins fail a claim, however large the gap.
        (verdict(parent, faster[:8] + parent[8:], "lower", 0.25, claim=True),
         "claim fails"),
        # Every pair won, but by less than the parent's IQR.
        (verdict(parent, [v - 0.01 for v in parent], "lower", 0.25,
                 claim=True), "claim fails"),
        (verdict(parent, [v * 1.3 for v in parent], "lower", 0.25),
         "worse than bound"),
        (verdict(parent, [v * 1.2 for v in parent], "lower", 0.25), "ok"),
        (verdict(parent, [v * 0.8 for v in parent], "higher", 0.25), "ok"),
        (verdict(parent, [v * 0.7 for v in parent], "higher", 0.25),
         "worse than bound"),
        (verdict(parent, parent, "lower", 0.25, parent_failed=0.0,
                 change_failed=0.01), "worse than bound"),
    ]
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    checks += [
        (verdict(noisy, [v * 1.1 for v in noisy], "lower", 0.25),
         "unresolved"),
        (verdict(noisy, [v * 0.9 for v in noisy], "lower", 0.25), "ok"),
    ]
    failures = [(i, got, want) for i, (got, want) in enumerate(checks)
                if got != want]
    for i, got, want in failures:
        print("ab self-test: check %d got %r, want %r" % (i, got, want))
    print("ab self-test: %d/%d checks passed" % (
        len(checks) - len(failures), len(checks)))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="git ref of the parent tree")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default="1-10",
                        help="seeds, e.g. 1,2,5-9; pair i uses the i-th")
    parser.add_argument("--workloads",
                        help="comma-separated; default every workload")
    parser.add_argument("--claim", action="append", default=[],
                        help="METRIC:WORKLOAD; may repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int,
                        help="run length; default BENCHMARK.json run_seconds")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if not args.parent or args.pairs < 1:
        fail("need --parent REF and --pairs >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        fail("unknown workloads %s; BENCHMARK.json has %s" % (unknown, names))
    claims = set()
    for claim in args.claim:
        metric, _, workload = claim.partition(":")
        if workload not in workloads or metric not in [
                m["name"] for m in spec["end_to_end"]]:
            fail("--claim %s: need an end-to-end METRIC:WORKLOAD that runs"
                 % claim)
        claims.add((metric, workload))
    seeds = parse_seeds(args.seeds)
    seconds = args.seconds or spec["run_seconds"]

    sides = {"parent": (extract_parent(args.parent),
                        os.path.join(AB_DIR, "parent-target")),
             "change": (ROOT, os.path.join(AB_DIR, "change-target"))}
    # A one-second run per side builds its tree before any timed run.
    for side, (tree, target) in sides.items():
        if run_once(tree, target, workloads[0], seeds[0], 1, 0) is None:
            fail("the %s tree does not build or run" % side)

    log_path = os.path.join(AB_DIR, "runs-%s.jsonl" % datetime.datetime.now()
                            .strftime("%Y%m%d-%H%M%S"))
    runs = []  # (workload, parent result, change result)
    with open(log_path, "w") as log:
        for pair in range(args.pairs):
            seed = seeds[pair % len(seeds)]
            order = ["parent", "change"] if pair % 2 == 0 else [
                "change", "parent"]
            for workload in workloads:
                results = {}
                for side in order:
                    tree, target = sides[side]
                    result = run_once(tree, target, workload, seed, seconds,
                                      args.trace)
                    results[side] = result
                    line = {"pair": pair, "seed": seed, "side": side,
                            "workload": workload, "seconds": seconds,
                            "trace": args.trace, "result": result}
                    log.write(json.dumps(line) + "\n")
                    log.flush()
                    print(json.dumps(line), flush=True)
                runs.append((workload, results["parent"], results["change"]))
    print("\nab: %d pairs, seeds %s, %d s runs, parent %s; runs kept in %s" % (
        args.pairs, args.seeds, seconds, args.parent, log_path))
    summarize(spec, runs, args.trace, claims)


if __name__ == "__main__":
    main()
