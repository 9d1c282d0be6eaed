#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig08 --seed 42 --seconds 10 --trace 0

The simulator is built from source (Release) under the build directory
($CARGO_TARGET_DIR, default .bench_build) on first use. The benchmark's
stdout is passed through; its last line is the JSON result. Build output
goes to stderr. The exit code is the benchmark's, or 1 when the build fails.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig08", "native", "pod")
# Limit on preparing plus measuring; the build before them is not limited.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out):
    """Configures and builds pod_perfbench; returns its path or None."""
    tree = os.path.join(out, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "-j", str(min(4, os.cpu_count() or 1)),
                  "--target", "pod_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(tree, "pod_perfbench")


def bench_env():
    """The caller's environment without POD_* knobs, so no telemetry,
    fault, probe-mode or pipeline override leaks into the measurement."""
    return {k: v for k, v in os.environ.items() if not k.startswith("POD_")}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=0.25)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    out = build_dir()
    binary = build(out)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale), "--out", os.path.join(out, "perfbench-out")]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        # Cold trace generation runs in its own process, so the measured
        # process always starts from a warm cache with a clean heap.
        if subprocess.run(cmd + ["--prepare"], env=bench_env(),
                          stdout=sys.stderr,
                          timeout=RUN_TIMEOUT_S).returncode:
            print("perfbench: trace preparation failed", file=sys.stderr)
            return 1
        proc = subprocess.run(cmd, env=bench_env(), stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
