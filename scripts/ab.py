#!/usr/bin/env python3
"""A/B comparison for the serving benchmark: a parent git ref against the
working tree, in alternating pairs of runs.

Run from anywhere inside a checkout:

    python3 scripts/ab.py --parent REF --pairs N --seeds 1,2,5-9 \\
        [--workloads W,W] [--claim METRIC:WORKLOAD] [--trace 0|1] \\
        [--seconds S] [--ledger PATH]
    python3 scripts/ab.py --self-test

It extracts REF with `git archive` into .bench_build/ab/parent (no
worktree, nothing written to .git) and copies the working tree's tracked
files, and its untracked files that are not ignored, into
.bench_build/ab/change. It builds each snapshot into its own
CARGO_TARGET_DIR (.bench_build/ab/parent-target and
.bench_build/ab/change-target; a target dir whose cmake cache names
another tree is deleted first), then runs servebench/run.py of each
snapshot for N pairs at BENCHMARK.json's run_seconds (--seconds overrides
it for a quick look). Both trees and both target dirs sit at paths of
equal length, so the two binaries differ only in the code they were
built from, not in the length of the paths compiled into them. Pair i
uses the i-th seed of --seeds, cycling, and runs every workload once per
side; even pairs run the parent first, odd pairs the change first, so
slow drift of the host falls on both sides alike. Every run's result line
is printed as it arrives and kept in .bench_build/ab/runs-<time>.jsonl.

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

--ledger PATH appends the summary to PATH as one JSON line (the committed
trajectory is bench/ledger.jsonl): the parent's sha, the change's (HEAD
at run time, with "change_dirty" true when the working tree differed from
it) and each side's servebench source id, the seeds, run_seconds, the
machine (CPU brand, nproc, pool width) and each side's int8_isa from the
servebench fingerprints, and one row per workload and metric with both
sides' median, q1 and q3, the wins, failed/attempted per side and the
verdict. The machine also names the CPU by its family, model and stepping
from /proc/cpuinfo (cpu_family, cpu_model, cpu_stepping), which the brand
string often does not; lines written before these keys lack them. Compare
lines only when their machine fields agree. --self-test checks the
statistics, the line format, the stale-target check on fabricated cmake
caches, and every line of bench/ledger.jsonl.
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
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, ".bench_build", "ab")
LEDGER = os.path.join(ROOT, "bench", "ledger.jsonl")
WIN_SHARE = 0.9  # A claim needs at least 9 wins in every 10 pairs.
# The servebench fingerprint fields a ledger line records per side.
MACHINE_KEYS = ("cpu", "nproc", "pool_threads")
# The CPU's identity from /proc/cpuinfo: ledger key and cpuinfo field. Lines
# written before these keys lack them.
CPU_ID_KEYS = (("cpu_family", "cpu family"), ("cpu_model", "model"),
               ("cpu_stepping", "stepping"))


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


def snapshot_change():
    """Copies the working tree's tracked files, and its untracked files that
    are not ignored, into AB_DIR/change, as extract_parent fills
    AB_DIR/parent; returns the directory."""
    tree = os.path.join(AB_DIR, "change")
    shutil.rmtree(tree, ignore_errors=True)
    os.makedirs(tree)
    listing = subprocess.run(["git", "-C", ROOT, "ls-files", "-co",
                              "--exclude-standard", "-z"],
                             capture_output=True)
    if listing.returncode:
        fail("git ls-files failed in %s" % ROOT)
    for name in listing.stdout.decode().split("\0"):
        source = os.path.join(ROOT, name)
        if not name or not os.path.lexists(source):
            continue  # A tracked file deleted in the working tree.
        dest = os.path.join(tree, name)
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        shutil.copy2(source, dest, follow_symlinks=False)
    return tree


def stale_target(tree, target):
    """True when `target` holds a cmake cache configured for a source other
    than `tree`'s servebench/ (or naming none). servebench/run.py configures
    a target dir only when it has no cache, so such a dir would go on
    building the other tree."""
    try:
        with open(os.path.join(target, "cmake", "CMakeCache.txt")) as f:
            lines = f.read().splitlines()
    except OSError:
        return False  # No cache: run.py configures it afresh.
    for line in lines:
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            home = line.partition("=")[2].strip()
            return os.path.realpath(home) != os.path.realpath(
                os.path.join(tree, "servebench"))
    return True


def cpu_id(path="/proc/cpuinfo"):
    """The first processor's family, model and stepping, as CPU_ID_KEYS
    names them; {} where the file or a field is missing."""
    fields = {}
    try:
        with open(path) as f:
            for line in f:
                if not line.strip():
                    break  # The end of the first processor's block.
                key, _, value = line.partition(":")
                fields[key.strip()] = value.strip()
    except OSError:
        return {}
    return {key: int(fields[field]) for key, field in CPU_ID_KEYS
            if fields.get(field, "").isdigit()}


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
    # The binary's report line "fingerprint {...}" names the machine, the
    # int8 scan's ISA and the source tree.
    for line in lines:
        if line.startswith("fingerprint "):
            result["fingerprint"] = json.loads(line[len("fingerprint "):])
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


def quartile_dict(values):
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3}


def summary_rows(spec, runs, trace, claims):
    """One dict per workload and metric with paired runs: both sides'
    quartiles, the wins, failed/attempted per side and the verdict."""
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        pairs = [(p, c) for w, p, c in runs if w == workload and p and c]
        if not pairs:
            continue
        ops = {}
        for side, index in (("parent", 0), ("change", 1)):
            ops[side] = [sum(pair[index]["failed"] for pair in pairs),
                         sum(pair[index]["attempted"] for pair in pairs)]
        shares = {side: failed / max(1, attempted)
                  for side, (failed, attempted) in ops.items()}
        for metric in metrics:
            name = metric["name"]
            parent = [p["metrics"][name]["value"] for p, _ in pairs]
            change = [c["metrics"][name]["value"] for _, c in pairs]
            if trace:
                decision = "-"
            else:
                decision = verdict(parent, change, metric["better"],
                                   metric["bound"],
                                   (name, workload) in claims,
                                   shares["parent"], shares["change"])
            rows.append({
                "workload": workload, "metric": name,
                "unit": metric["unit"], "better": metric["better"],
                "parent": quartile_dict(parent),
                "change": quartile_dict(change),
                "wins": wins(parent, change, metric["better"]),
                "pairs": len(pairs), "failed_attempted": ops,
                "verdict": decision})
    return rows


def summarize(rows):
    row = "%%-15s %%-%ds %%-31s %%-31s %%8s %%6s %%-21s %%s" % max(
        [len("metric")] + [len(r["metric"]) for r in rows])
    print("\n" + row % ("workload", "metric", "parent median [q1, q3]",
                        "change median [q1, q3]", "change", "wins",
                        "failed/attempted", "verdict"))
    for r in rows:
        p, c = r["parent"], r["change"]
        rel = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
        ops = r["failed_attempted"]
        print(row % (
            r["workload"], r["metric"],
            "%s [%s, %s]" % (fmt(p["median"]), fmt(p["q1"]), fmt(p["q3"])),
            "%s [%s, %s]" % (fmt(c["median"]), fmt(c["q1"]), fmt(c["q3"])),
            "%+.1f%%" % (100.0 * rel), "%d/%d" % (r["wins"], r["pairs"]),
            "%d/%d; %d/%d" % tuple(ops["parent"] + ops["change"]),
            r["verdict"]))


# --- Ledger -----------------------------------------------------------------


def git_sha(ref):
    run = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          ref + "^{commit}"], capture_output=True, text=True)
    return run.stdout.strip() if run.returncode == 0 else None


def working_tree_dirty():
    run = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                          "--untracked-files=no"], capture_output=True,
                         text=True)
    return run.returncode != 0 or bool(run.stdout.strip())


def ledger_line(args, claims, seeds, seconds, runs, rows, parent_sha,
                change_sha, change_dirty):
    """The ledger record of one A/B run (see the module docstring)."""
    sides = {}
    for side, index in (("parent", 1), ("change", 2)):
        prints = [run[index]["fingerprint"] for run in runs
                  if run[index] and "fingerprint" in run[index]]
        if not prints:
            fail("no %s run reported a fingerprint" % side)
        sides[side] = prints
    machine = {key: sides["change"][0][key] for key in MACHINE_KEYS}
    for side, prints in sides.items():
        for fingerprint in prints:
            if any(fingerprint[key] != machine[key] for key in MACHINE_KEYS):
                fail("the %s runs ran on differing machines" % side)
    machine.update(cpu_id())
    return {
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "parent": parent_sha, "change": change_sha,
        "change_dirty": change_dirty,
        "source": {side: prints[0]["source"]
                   for side, prints in sides.items()},
        "seeds": [seeds[pair % len(seeds)] for pair in range(args.pairs)],
        "pairs": args.pairs, "run_seconds": seconds, "trace": args.trace,
        "claims": sorted("%s:%s" % claim for claim in claims),
        "machine": machine,
        "int8_isa": {side: prints[0]["int8_isa"]
                     for side, prints in sides.items()},
        "rows": rows}


LINE_TYPES = {"date": str, "parent": str, "change": str, "change_dirty": bool,
              "source": dict, "seeds": list, "pairs": int,
              "run_seconds": int, "trace": int, "claims": list,
              "machine": dict, "int8_isa": dict, "rows": list}
ROW_TYPES = {"workload": str, "metric": str, "unit": str, "better": str,
             "parent": dict, "change": dict, "wins": int, "pairs": int,
             "failed_attempted": dict, "verdict": str}


def ledger_problems(text):
    """What is wrong with one ledger line, as a list of messages."""
    try:
        line = json.loads(text)
    except ValueError as e:
        return ["not JSON: %s" % e]
    if not isinstance(line, dict):
        return ["not a JSON object"]
    problems = []

    def check(obj, types, where):
        for key, kind in types.items():
            if not isinstance(obj.get(key), kind) or (
                    kind is int and isinstance(obj.get(key), bool)):
                problems.append("%s%s: want %s, got %r" % (
                    where, key, kind.__name__, obj.get(key)))

    check(line, LINE_TYPES, "")
    if problems:
        return problems
    for side in ("parent", "change"):
        for field in ("source", "int8_isa"):
            if not isinstance(line[field].get(side), str):
                problems.append("%s.%s: want a string" % (field, side))
    for key in MACHINE_KEYS:
        if key not in line["machine"]:
            problems.append("machine.%s: missing" % key)
    for key, _ in CPU_ID_KEYS:
        value = line["machine"].get(key, 0)
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append("machine.%s: want int, got %r" % (key, value))
    if len(line["seeds"]) != line["pairs"] or not all(
            isinstance(seed, int) for seed in line["seeds"]):
        problems.append("seeds: want one integer per pair")
    if not line["rows"]:
        problems.append("rows: empty")
    for i, row in enumerate(line["rows"]):
        where = "rows[%d]." % i
        if not isinstance(row, dict):
            problems.append(where + ": not an object")
            continue
        check(row, ROW_TYPES, where)
        for side in ("parent", "change"):
            stats = row.get(side)
            if isinstance(stats, dict) and not all(
                    isinstance(stats.get(q), (int, float))
                    for q in ("median", "q1", "q3")):
                problems.append(where + side + ": want median, q1, q3")
            ops = row.get("failed_attempted", {}).get(side) if isinstance(
                row.get("failed_attempted"), dict) else None
            if not (isinstance(ops, list) and len(ops) == 2 and
                    all(isinstance(n, int) for n in ops)):
                problems.append(where + "failed_attempted." + side +
                                ": want [failed, attempted]")
    return problems


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
    # A ledger line from synthetic runs passes the format check, and
    # breaking any part of it is caught.
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "m", "unit": "ms", "better": "lower",
                            "bound": 0.25}]}
    fingerprint = {"source": "git:abc src:def", "cpu": "x", "nproc": 4,
                   "pool_threads": 1, "int8_isa": "avx2"}

    def result(value):
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"m": {"value": value, "unit": "ms"}},
                "fingerprint": fingerprint}

    runs = [("w", result(p), result(c)) for p, c in zip(parent, faster)]
    args = argparse.Namespace(pairs=len(runs), trace=0)
    claims = {("m", "w")}
    rows = summary_rows(spec, runs, 0, claims)
    line = ledger_line(args, claims, [41, 42], 30, runs, rows, "a" * 40,
                       "b" * 40, False)
    text = json.dumps(line)
    # The CPU's identity, from a cpuinfo-shaped file: the first processor's
    # block only.
    with tempfile.TemporaryDirectory() as scratch:
        cpuinfo = os.path.join(scratch, "cpuinfo")
        with open(cpuinfo, "w") as f:
            f.write("processor\t: 0\ncpu family\t: 6\nmodel\t\t: 207\n"
                    "model name\t: Intel(R) Xeon(R) Processor\n"
                    "stepping\t: 2\n\nprocessor\t: 1\nmodel\t\t: 99\n")
        checks += [
            (cpu_id(cpuinfo), {"cpu_family": 6, "cpu_model": 207,
                               "cpu_stepping": 2}),
            (cpu_id(os.path.join(scratch, "missing")), {}),
        ]
        # A target dir whose cmake cache names another tree's servebench/
        # (or none) is stale; a missing cache or this tree's is not.
        tree = os.path.join(scratch, "change")
        target = os.path.join(scratch, "change-target")
        cache = os.path.join(target, "cmake", "CMakeCache.txt")
        stale = [stale_target(tree, target)]
        os.makedirs(os.path.dirname(cache))
        for home in (os.path.join(tree, "servebench"),
                     os.path.join(scratch, "elsewhere", "servebench"), None):
            with open(cache, "w") as f:
                f.write("# This is the CMakeCache file.\n"
                        "CMAKE_BUILD_TYPE:STRING=Release\n")
                if home is not None:
                    f.write("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % home)
            stale.append(stale_target(tree, target))
        checks.append((stale, [False, False, True, True]))
    line["machine"].update(cpu_family=6, cpu_model=207, cpu_stepping=2)
    text = json.dumps(line)
    checks += [
        (ledger_problems(text), []),
        (rows[0]["verdict"], "claim passes"),
        (line["seeds"], [41, 42] * 5),
        (line["int8_isa"], {"parent": "avx2", "change": "avx2"}),
        (rows[0]["failed_attempted"], {"parent": [0, 100],
                                       "change": [0, 100]}),
    ]
    broken = [dict(line, pairs="10"), dict(line, rows=[]),
              dict(line, machine={}), dict(line, seeds=[41]),
              dict(line, int8_isa={"parent": "avx2"}),
              dict(line, rows=[dict(rows[0], wins=None)]),
              dict(line, machine=dict(line["machine"], cpu_model="207")),
              dict(line, machine=dict(line["machine"], cpu_family=True))]
    checks += [(bool(ledger_problems(json.dumps(b))), True) for b in broken]
    checks.append((bool(ledger_problems("{")), True))
    if os.path.exists(LEDGER):
        with open(LEDGER) as f:
            for number, text in enumerate(f, 1):
                where = "%s:%d" % (os.path.relpath(LEDGER, ROOT), number)
                checks.append(((where, ledger_problems(text)), (where, [])))
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
    parser.add_argument("--ledger",
                        help="append the summary as one JSON line to PATH")
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
    parent_sha = git_sha(args.parent)
    if parent_sha is None:
        fail("--parent %s is not a commit" % args.parent)
    change_sha = git_sha("HEAD") or "none"
    change_dirty = working_tree_dirty()

    sides = {"parent": (extract_parent(args.parent),
                        os.path.join(AB_DIR, "parent-target")),
             "change": (snapshot_change(),
                        os.path.join(AB_DIR, "change-target"))}
    # A one-second run per side builds its tree before any timed run, in a
    # target dir configured for that tree.
    for side, (tree, target) in sides.items():
        if stale_target(tree, target):
            print("ab: %s was configured for another tree; deleting it" %
                  target, flush=True)
            shutil.rmtree(target)
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
    rows = summary_rows(spec, runs, args.trace, claims)
    summarize(rows)
    if args.ledger:
        line = json.dumps(ledger_line(args, claims, seeds, seconds, runs,
                                      rows, parent_sha, change_sha,
                                      change_dirty))
        problems = ledger_problems(line)
        if problems:
            fail("ledger line malformed: %s" % "; ".join(problems))
        with open(args.ledger, "a") as f:
            f.write(line + "\n")
        print("ab: appended the summary to %s" % args.ledger)


if __name__ == "__main__":
    main()
