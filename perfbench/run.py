#!/usr/bin/env python3
"""Builds the flexvis benchmark harness from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the checkout. The harness and the flexvis libraries are
built (Release) into .bench_build/perfbench, or into $CARGO_TARGET_DIR/perfbench
when that is set; checkpoint stores go to .bench_run/ and are removed by the
harness. The last line of standard output is the run's JSON result. Build
output goes to standard error. A failed build exits 1 without a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest_week", "dashboard_explore", "plan_day_ahead")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures (once) and builds the harness; returns the binary path."""
    jobs = str(os.cpu_count() or 1)
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", out, "--target", "flexbench", "-j", jobs]
    for attempt in range(2):
        ok = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode == 0
        if ok:
            ok = subprocess.run(make, stdout=sys.stderr, stderr=sys.stderr).returncode == 0
        if ok:
            return os.path.join(out, "flexbench")
        if attempt == 0 and os.path.exists(os.path.join(out, "CMakeCache.txt")):
            # A build tree from another source location: start it afresh.
            shutil.rmtree(out, ignore_errors=True)
            continue
        break
    return None


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return sha.stdout.strip() if sha.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    binary = build(build_dir())
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env = dict(os.environ)
    env.setdefault("FLEXVIS_THREADS", str(os.cpu_count() or 1))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--spec", os.path.join(ROOT, "BENCHMARK.json"),
               "--work-dir", os.path.join(ROOT, ".bench_run"), "--git-sha", git_sha()]
    try:
        run = subprocess.run(command, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
