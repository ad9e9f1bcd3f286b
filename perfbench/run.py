#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each call configures and builds a Release
tree in .bench_build/ (the library from src/ plus perfbench itself from
perfbench/src/); after the first call the build is incremental.  A call
that compiled waits two minutes before it runs, so the machine settles.
The run's output is passed through; its last line is the JSON result.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["svc_small_closed", "svc_large_closed", "svc_open_mixed",
             "plan_compile_cold"]
RUN_TIMEOUT_S = 170
# Idle time after a build that compiled something.  On the 4-core VM the
# benchmark was tuned on, runs started within one to two minutes of a
# 4-core compile went at about half speed (2 of 2 trials; also after a
# 40 s 4-thread burn).
SETTLE_AFTER_BUILD_S = 120


def build():
    """Configures and builds perfbench; returns its path or None."""
    exe = os.path.join(BUILD, "perfbench")
    before = os.path.getmtime(exe) if os.path.exists(exe) else None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    if not os.path.exists(exe):
        return None
    if os.path.getmtime(exe) != before:
        time.sleep(SETTLE_AFTER_BUILD_S)
    return exe


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", traces]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        print("perfbench: run failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
