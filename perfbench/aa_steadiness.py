#!/usr/bin/env python3
"""A/A steadiness check for the hot-path benchmark.

Builds the benchmark twice from the same sources, in two build directories
(A and B), then runs every workload in BENCHMARK.json 10 times, for
run_seconds each, with seeds 1..10, alternating A and B and interleaving
the workloads. For each end-to-end metric it prints the median, the
quartiles, their spread as a share of the median, and the gap between the
A and B medians, next to the metric's bound in BENCHMARK.json. Its output
is the evidence for those bounds. A metric passes ("ok") when both its
spread and its A/B gap are within its bound, the same test for every
metric; the verdict also says when the spread is above a third of the
bound. The script exits 1 if any metric is over its bound or any run fails
its output checks.

Usage (from the root of a checkout):

    python3 perfbench/aa_steadiness.py

Raw results go to .bench_build/aa/results.json.
"""
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
FIRST_SEED = 1


def host_facts(build_dir):
    cache = {}
    with open(os.path.join(build_dir, "perfbench", "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and not line.startswith(("#", "//")):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    commit = subprocess.run(
        ["git", "-C", ROOT, "describe", "--always", "--dirty"],
        capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "memaudit": cache.get("SPECTRA_MEMAUDIT", "?"),
        "compiler": version[0] if version else compiler,
        "commit": (commit.stdout.strip() if commit.returncode == 0
                   else "unknown"),
    }


def run_once(build_dir, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("aa_steadiness: %s seed %d failed (exit %d)" %
                 (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = os.path.join(ROOT, ".bench_build", "aa")
    sides = {"A": os.path.join(out_dir, "build-A"),
             "B": os.path.join(out_dir, "build-B")}

    results = []
    started = time.time()
    for i in range(RUNS):
        seed = FIRST_SEED + i
        side = "AB"[i % 2]
        for workload in workloads:
            r = run_once(sides[side], workload, seed, seconds)
            results.append({"workload": workload, "seed": seed, "side": side,
                            "result": r})
            print("%6.0fs %-16s seed %-3d %s correct=%s failed=%d" %
                  (time.time() - started, workload, seed, side, r["correct"],
                   r["failed"]), flush=True)
    with open(os.path.join(out_dir, "results.json"), "w") as f:
        json.dump(results, f, indent=1)

    facts = host_facts(sides["A"])
    print("\nhost: " + ", ".join("%s=%s" % kv for kv in facts.items()))
    print("runs per workload: %d (seeds %d..%d, A/B alternating), %d s each"
          % (RUNS, FIRST_SEED, FIRST_SEED + RUNS - 1, seconds))
    print("%-16s %-13s %13s %13s %13s %7s %7s %7s  %s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "A/B gap",
           "bound", "verdict"))
    steady = True
    for workload in workloads:
        rows = [r for r in results if r["workload"] == workload]
        if not all(r["result"]["correct"] and r["result"]["failed"] == 0
                   for r in rows):
            steady = False
            print("%-16s some runs failed their output checks" % workload)
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in rows]
            a = [r["result"]["metrics"][metric]["value"] for r in rows
                 if r["side"] == "A"]
            b = [r["result"]["metrics"][metric]["value"] for r in rows
                 if r["side"] == "B"]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            gap = abs(statistics.median(a) - statistics.median(b)) / med
            ok = spread <= bound and gap <= bound
            verdict = ("ok" if ok and spread < bound / 3 else
                       "ok (spread above a third of the bound)" if ok else
                       "OVER BOUND")
            steady = steady and ok
            print("%-16s %-13s %13.6g %13.6g %13.6g %6.1f%% %6.1f%% %6.0f%%  %s"
                  % (workload, metric, med, q1, q3, 100 * spread, 100 * gap,
                     100 * bound, verdict))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
