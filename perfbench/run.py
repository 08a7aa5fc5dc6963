#!/usr/bin/env python3
"""End-to-end benchmark of the DRF GPU tester.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep|fleet|explore|bughunt \
        [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench,
runs one workload for about --seconds seconds, checks its outputs,
prints every metric with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports BENCHMARK.json's end-to-end metrics; --trace 1 makes
a traced run and reports its per-layer metrics, writing the spans next
to the full result under .bench_build/perfbench/results/. The exit code
is nonzero when a check fails or the program cannot be built.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(BUILD, "results")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("sweep", "fleet", "explore", "bughunt")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def build():
    """Configure once, then let the build tool bring the driver up to date."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target",
           "perfbench_driver"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def pin_checks(workload, seed, digests):
    """Compare the run's digests with the ones pinned for this seed."""
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f).get(workload, {}).get(str(seed))
    if pins is None:
        return [{"name": "pinned digests", "ok": True,
                 "detail": "no pins for seed %d: cross-checks only" % seed}]
    checks = []
    for name, want in sorted(pins.items()):
        got = digests.get(name)
        checks.append({"name": "pinned " + name, "ok": got == want,
                       "detail": "%s (pinned %s)" % (got, want)})
    return checks


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("tester sources (src/) not found next to perfbench/")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    build()
    os.makedirs(RESULTS, exist_ok=True)
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", RESULTS]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no result (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])

    result["checks"] += pin_checks(args.workload, args.seed,
                                   result["digests"])
    correct = proc.returncode == 0 and all(c["ok"] for c in result["checks"])
    result["correct"] = correct

    table = "per_layer" if args.trace else "end_to_end"
    measured = result[table]
    metrics = {}
    for m in spec[table]:
        got = measured.get(m["name"])
        if got is None and table == "end_to_end":
            fail("driver did not report %s" % m["name"], 1)
        # A layer the workload never calls reads 0.
        value = got["value"] if got else 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(result, f, indent=1)

    prov = result["provenance"]
    print("workload %s  seed %d  %d repetitions  threads %d  processes %d"
          "  nproc %d  %s  %s  git %s"
          % (args.workload, args.seed, result["repetitions"],
             prov["driver_threads"], prov["driver_processes"], prov["nproc"],
             prov["cpu_model"], prov["build_type"], prov["git_sha"]))
    for c in result["checks"]:
        print("  check %-4s %s: %s" % ("ok" if c["ok"] else "FAIL",
                                       c["name"], c["detail"]))
    for name, m in measured.items():
        extra = ""
        if "base" in m:
            extra += "  (base %s)" % m["base"]
        if "n" in m:
            extra += "  (n=%d)" % m["n"]
        print("  %-40s %16.6g %s%s" % (name, m["value"], m["unit"], extra))
    print("  full result: %s" % os.path.relpath(path, ROOT))
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
