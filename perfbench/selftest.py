#!/usr/bin/env python3
"""Self-test of the benchmark on the tiny test profile.

    python3 perfbench/selftest.py

Builds pod_perfbench like run.py does, runs every workload untraced and
traced on tiny_test_profile(), and checks that:
  * BENCHMARK.json is well formed (keys, name rules, metric counts, bounds);
  * each run prints, as its last line, one JSON object with exactly the keys
    correct/attempted/failed/metrics and passes its correctness gate, which
    includes exact equality of the traced replay and run_replay;
  * every declared metric is emitted with its declared unit, and no other;
  * the span file is well formed: every parent precedes its child and
    encloses it in time.
Exits 0 when every check passes.
"""

import json
import os
import re
import struct
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPAN = struct.Struct("<QQIHBB")
NO_PARENT = 0xFFFFFFFF

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL:", what)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(2 <= len(spec["workloads"]) <= 8, "2..8 workloads")
    check(1 <= len(spec["end_to_end"]) <= 16, "1..16 end-to-end metrics")
    check(1 <= len(spec["per_layer"]) <= 128, "1..128 per-layer metrics")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)), "names are unique")
    for n in names:
        check(NAME.match(n) is not None, "name %r" % n)
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, m["name"] + " keys")
        check(0 < m["bound"] <= 0.25, m["name"] + " bound")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, m["name"] + " keys")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT.match(m["unit"]) is not None, m["name"] + " unit")
        check(m["better"] in ("higher", "lower"), m["name"] + " better")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and
          setup[0]["better"] == "lower" and
          setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s declared with the largest bound")


def check_spans(path):
    with open(path, "rb") as f:
        header = f.readline()
        body = f.read()
    check(header.startswith(b"PODSPAN1 "), "span file magic")
    meta = json.loads(header[len(b"PODSPAN1 "):])
    check(len(body) % SPAN.size == 0 and body, "span file has whole records")
    spans = list(SPAN.iter_unpack(body))
    for i, (start, end, parent, run_id, layer, _) in enumerate(spans):
        ok = start <= end and layer < len(meta["layers"]) and \
            run_id < len(meta["runs"])
        if parent != NO_PARENT:
            p = spans[parent] if parent < i else None
            ok = ok and p is not None and p[0] <= start and end <= p[1]
        if not ok:
            check(False, "span %d in %s malformed" % (i, path))
            return


def run_case(binary, out, spec, workload, traced):
    cmd = [binary, "--workload", workload, "--seed", "42", "--seconds",
           "0.01", "--trace", "1" if traced else "0", "--out", out, "--tiny"]
    proc = subprocess.run(cmd, env=run.bench_env(), stdout=subprocess.PIPE,
                          timeout=run.RUN_TIMEOUT_S)
    what = "%s trace=%d" % (workload, traced)
    lines = proc.stdout.decode().strip().splitlines()
    check(proc.returncode == 0 and lines, what + " exits 0 with output")
    if not lines:
        return
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          what + " result keys")
    check(result["correct"] is True and result["failed"] == 0 and
          result["attempted"] >= 1, what + " correctness gate")
    declared = {m["name"]: m["unit"] for m in
                spec["per_layer" if traced else "end_to_end"]}
    emitted = {n: m["unit"] for n, m in result["metrics"].items()}
    check(emitted == declared, what + " emits exactly the declared metrics")
    for n, m in result["metrics"].items():
        check(set(m) == {"value", "unit"} and
              isinstance(m["value"], (int, float)), what + " " + n)
    if traced:
        check_spans(os.path.join(out, "spans-%s.bin" % workload))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    binary = run.build(run.build_dir())
    if binary is None:
        print("FAIL: build")
        return 1
    out = os.path.join(run.build_dir(), "perfbench-selftest")
    for w in spec["workloads"]:
        for traced in (False, True):
            run_case(binary, out, spec, w["name"], traced)
    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
