#!/usr/bin/env python3
"""Paired perf gate: a change against its parent, on the same host.

Usage (from anywhere):

    python3 tools/bench_gate.py PARENT_TREE CHANGE_TREE

Both arguments are source checkouts. The gate builds the microbenches
of each tree into <tree>/.bench_build/gate (perfbench builds itself into
<tree>/.bench_build/perfbench on its first run), then runs PAIRS pairs.
A pair runs, parent and change back to back, each of:

  - every workload of the change's BENCHMARK.json, through
    `perfbench/run.py --workload W --seconds <run_seconds>`;
  - the microbenches whose layers perfbench does not report yet:
    msg_path, hotpath and micro_throughput's BM_EventQueueScheduleRun.

Which side runs first alternates from pair to pair, so a host that
slows down over the run penalises both sides alike. guidance_convergence
runs once per side: it is deterministic, and its own exit code keeps
the 25% reduction floor and the determinism check.

The gate fails when the change's median on a gated metric is worse than
the parent's by more than the metric's bound, when any change run exits
non-zero or reports `correct: false`, or when a workload's
failed/attempted share is higher on the change. End-to-end metrics take
`better` and `bound` from the change's BENCHMARK.json; microbench
metrics are higher-is-better with a bound of MICRO_BOUND. A metric the
parent does not report is printed but not gated, and a passing metric
whose parent quartile spread (p-IQR, relative to the median) exceeds
its bound is marked unresolved.

Exit status: 0 = pass, 1 = fail, 2 = usage error.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

PAIRS = 10
MICRO_BOUND = 0.25
BUILD_DIR = os.path.join(".bench_build", "gate")


def _hotpath_stages(doc):
    return {s + ".events_per_sec": doc["stages"][s]["events_per_sec"]
            for s in ("episode_generation", "controller_dispatch",
                      "ref_check")}


# (source, build target, arguments given the JSON output path, metrics
# read from that JSON). Every microbench metric is higher-is-better.
MICROBENCHES = [
    ("msg_path", "msg_path", lambda out: ["--out", out],
     lambda doc: {"messages_per_sec": doc["messages_per_sec"]}),
    ("hotpath", "hotpath", lambda out: ["--out", out], _hotpath_stages),
    ("BM_EventQueueScheduleRun", "micro_throughput",
     lambda out: ["--benchmark_filter=^BM_EventQueueScheduleRun$",
                  "--benchmark_out_format=json", "--benchmark_out=" + out],
     lambda doc: {
         "items_per_second": doc["benchmarks"][0]["items_per_second"]}),
]
GUIDANCE = ("guidance_convergence", "guidance_convergence",
            lambda out: ["--out", out],
            lambda doc: {"median_reduction_pct": doc["median_reduction_pct"]})
MICRO_METRICS = ["messages_per_sec", "episode_generation.events_per_sec",
                 "controller_dispatch.events_per_sec",
                 "ref_check.events_per_sec", "items_per_second",
                 "median_reduction_pct"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# The decision rule (pure).
# ---------------------------------------------------------------------


def gated_bounds(benchmark):
    """Metric name -> (better, bound) for every metric the gate gates."""
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in benchmark["end_to_end"]}
    bounds.update((m, ("higher", MICRO_BOUND)) for m in MICRO_METRICS)
    return bounds


def _values(runs):
    """(source, metric) -> values, in first-seen order."""
    values = {}
    for run in runs:
        for metric, value in run["metrics"].items():
            values.setdefault((run["source"], metric), []).append(value)
    return values


def _failed_share(runs, source):
    attempted = sum(r["attempted"] for r in runs if r["source"] == source)
    failed = sum(r["failed"] for r in runs if r["source"] == source)
    return failed / attempted if attempted else 0.0


def _spread(values):
    """Distance between the quartiles, relative to the median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def decide(parent_runs, change_runs, bounds):
    """Compare the two sides' runs.

    A run is a dict: source (workload or bench name), ok (exit code 0
    and correct), why (the reason when not ok), attempted, failed, and
    metrics (metric name -> value). Returns (rows, failures): one row
    per (source, metric) the change reports, and one line per reason
    the gate fails. The gate passes when failures is empty.
    """
    failures = ["%s: change run failed: %s" % (r["source"], r["why"])
                for r in change_runs if not r["ok"]]
    for source in sorted({r["source"] for r in change_runs}):
        parent_share = _failed_share(parent_runs, source)
        change_share = _failed_share(change_runs, source)
        if change_share > parent_share:
            failures.append("%s: failed share %.4f > parent %.4f"
                            % (source, change_share, parent_share))

    parent_values = _values(parent_runs)
    rows = []
    for (source, metric), change in _values(change_runs).items():
        name = "%s/%s" % (source, metric)
        row = {"metric": name, "parent": None,
               "change": statistics.median(change), "ratio": None,
               "spread": None}
        rows.append(row)
        parent = parent_values.get((source, metric))
        if not parent:
            row["verdict"] = "not gated: parent lacks it"
            continue
        row["parent"] = statistics.median(parent)
        row["spread"] = _spread(parent)
        if metric not in bounds:
            row["verdict"] = "not gated"
            continue
        if row["parent"] == 0:
            row["verdict"] = "not gated: parent reads 0"
            continue
        row["ratio"] = row["change"] / row["parent"]
        better, bound = bounds[metric]
        worse = row["ratio"] - 1 if better == "lower" else 1 - row["ratio"]
        if worse > bound:
            row["verdict"] = "WORSE by %.0f%% (bound %.0f%%)" % (
                100 * worse, 100 * bound)
            failures.append("%s: %s" % (name, row["verdict"]))
        elif row["spread"] > bound:
            # The parent's own runs vary by more than the bound, so a
            # median within it does not show the metric unchanged.
            row["verdict"] = "ok, unresolved: p-IQR above bound"
        else:
            row["verdict"] = "ok"
    return rows, failures


def format_table(rows):
    def num(v, fmt):
        return "-" if v is None else fmt % v

    lines = ["%-52s %14s %14s %7s %8s  %s" % (
        "metric", "parent", "change", "ratio", "p-IQR", "verdict")]
    for r in rows:
        lines.append("%-52s %14s %14s %7s %8s  %s" % (
            r["metric"], num(r["parent"], "%.6g"), num(r["change"], "%.6g"),
            num(r["ratio"], "%.3f"), num(r["spread"], "%.3f"),
            r["verdict"]))
    return "\n".join(lines)


# ---------------------------------------------------------------------
# Running one side.
# ---------------------------------------------------------------------


def _run(source, cmd, cwd):
    """Run @p cmd; a run record without metrics, and its stdout."""
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)
    run = {"source": source, "ok": proc.returncode == 0,
           "why": "exit %d" % proc.returncode, "attempted": 0, "failed": 0,
           "metrics": {}}
    return run, proc.stdout


def run_workload(tree, workload, seconds):
    run, out = _run(workload, [sys.executable, "perfbench/run.py",
                               "--workload", workload,
                               "--seconds", repr(seconds)], tree)
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        run["ok"] = False
        run["why"] += ", no result line"
        return run
    if not result["correct"]:
        run["ok"] = False
        run["why"] += ", correct: false"
    run["attempted"] = result["attempted"]
    run["failed"] = result["failed"]
    run["metrics"] = {k: m["value"] for k, m in result["metrics"].items()}
    return run


def run_bench(tree, built, bench, tmp):
    """Run one microbench of @p tree, built by build() when @p built."""
    source, target, args, read = bench
    if not built:
        return {"source": source, "ok": False, "why": "build failed",
                "attempted": 0, "failed": 0, "metrics": {}}
    out = os.path.join(tmp, source + ".json")
    if os.path.exists(out):
        os.remove(out)  # never read the other side's output
    binary = os.path.join(tree, BUILD_DIR, "bench", target)
    run, _ = _run(source, [binary] + args(out), tmp)
    try:
        with open(out) as f:
            run["metrics"] = read(json.load(f))
    except (OSError, ValueError):
        run["ok"] = False
        run["why"] += ", no JSON output"
    return run


def build(tree):
    """Build the tree's microbenches; False if configure or build failed."""
    out = os.path.join(tree, BUILD_DIR)
    steps = [
        ["cmake", "-S", tree, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", str(len(os.sched_getaffinity(0))),
         "--target"] + [b[1] for b in MICROBENCHES + [GUIDANCE]],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("bench_gate: %s failed in %s" % (cmd[1], tree))
            return False
    return True


def main(argv):
    if len(argv) != 3 or not all(os.path.isdir(p) for p in argv[1:]):
        print(__doc__, file=sys.stderr)
        return 2
    trees = {"parent": os.path.abspath(argv[1]),
             "change": os.path.abspath(argv[2])}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    start = time.monotonic()

    built = {side: build(tree) for side, tree in trees.items()}
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        for side, tree in trees.items():
            log("guidance_convergence: %s" % side)
            runs[side].append(run_bench(tree, built[side], GUIDANCE, tmp))
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else \
                ("change", "parent")
            for workload in workloads:
                for side in order:
                    log("pair %d/%d: %s, %s" % (pair + 1, PAIRS, workload,
                                                side))
                    runs[side].append(
                        run_workload(trees[side], workload, seconds))
            for side in order:
                log("pair %d/%d: microbenches, %s" % (pair + 1, PAIRS, side))
                runs[side] += [run_bench(trees[side], built[side], b, tmp)
                               for b in MICROBENCHES]

    rows, failures = decide(runs["parent"], runs["change"],
                            gated_bounds(benchmark))
    print(format_table(rows))
    for run in runs["parent"]:
        if not run["ok"]:
            print("note: %s: parent run failed: %s"
                  % (run["source"], run["why"]))
    print("\n%d pairs in %.0f s" % (PAIRS, time.monotonic() - start))
    if failures:
        print("FAIL:\n  " + "\n  ".join(failures))
        return 1
    print("OK: no gated metric is worse than the parent beyond its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
