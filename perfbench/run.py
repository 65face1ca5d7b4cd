#!/usr/bin/env python3
"""Build the hot-path benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py \
        --workload decide_pangloss|fleet_100k|serve_nullop \
        --seed N --seconds S --trace 0|1

The program is configured and built under $CARGO_TARGET_DIR (default
.bench_build) the first time, and only re-checked after that. Its
human-readable report goes to stdout, ending with one JSON line:
{"correct", "attempted", "failed", "metrics"}. A build or run failure exits
non-zero without printing that line.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("decide_pangloss", "fleet_100k", "serve_nullop")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    env = dict(os.environ)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # keep compiler temporaries inside the checkout
    log_path = os.path.join(build_dir, "build.log")
    cache = os.path.join(build_dir, "CMakeCache.txt")

    def step(cmd):
        with open(log_path, "a") as log:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode == 0:
                return
        # A failed configure must not leave a cache that skips it next time.
        if os.path.exists(cache) and "--build" not in cmd:
            os.remove(cache)
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        sys.exit("perfbench: build failed (log: %s)" % log_path)

    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step(configure)
    step(["cmake", "--build", build_dir, "--target", "hotpaths",
          "-j", str(min(4, os.cpu_count() or 1))])
    return os.path.join(build_dir, "hotpaths")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish in %d s" %
                 (args.workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        sys.exit("perfbench: %s exited with %d" %
                 (args.workload, proc.returncode))
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
