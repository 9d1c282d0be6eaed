#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 perfbench/steadiness.py --workload fig08 --seeds 1-10

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, next to the metric's bound from BENCHMARK.json.
Exits 1 if any run fails or reports correct=false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else 0.0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in
              spec["end_to_end" if args.trace == 0 else "per_layer"]}
    values = {}
    run_s = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(spec["run_seconds"]), "--trace", str(args.trace)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        run_s.append(time.monotonic() - t0)
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode or not lines:
            print("seed %d: run failed (exit %d)" % (seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print("seed %d: correctness gate failed" % seed)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print("%-36s %16s %8s %6s  values" % ("metric", "median", "spread", "bound"))
    for name, vals in values.items():
        med, sp = spread(vals)
        bound = bounds.get(name)
        print("%-36s %16.6g %8.4f %6s  %s" % (
            name, med, sp, "-" if bound is None else bound,
            " ".join("%.6g" % v for v in vals)))
    print("wall seconds per run: median %.1f, max %.1f" %
          (statistics.median(run_s), max(run_s)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
