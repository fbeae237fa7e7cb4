#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark: every workload in --smoke mode
(tiny-sim, a few epochs, 1 s), untraced and traced, through run.py.

    python3 e2e_bench/selftest.py

Asserts that the last stdout line is the result object with exactly the
keys correct/attempted/failed/metrics, that it names every end-to-end
(untraced) or per-layer (traced) metric of BENCHMARK.json with that file's
unit, that the outputs checked correct, and that the full result file
parses and carries the fingerprint. Exits 1 on the first failure.
"""

import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINT_KEYS = ("source", "cpu_model", "nproc", "simd_backend",
                    "build_type", "threads")


def fail(msg):
    print("selftest FAILED: " + msg, file=sys.stderr)
    sys.exit(1)


def check_metrics(where, metrics, expected):
    names = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(names):
        fail("%s: metrics %s, expected %s" %
             (where, sorted(metrics), sorted(names)))
    for name, unit in names.items():
        entry = metrics[name]
        if set(entry) != {"value", "unit"}:
            fail("%s: %s has keys %s" % (where, name, sorted(entry)))
        if entry["unit"] != unit:
            fail("%s: %s unit %r, expected %r" %
                 (where, name, entry["unit"], unit))
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s: %s value %r is not a finite number" %
                 (where, name, value))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for workload in (w["name"] for w in bench["workloads"]):
            for trace in (0, 1):
                where = "%s trace=%d" % (workload, trace)
                result_path = os.path.join(tmp, "%s-%d.json" % (workload, trace))
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--smoke", "--result", result_path],
                    stdout=subprocess.PIPE, text=True, timeout=600)
                if proc.returncode != 0:
                    fail("%s: exit code %d" % (where, proc.returncode))
                lines = proc.stdout.strip().splitlines()
                if not lines:
                    fail("%s: no output" % where)
                line = json.loads(lines[-1])
                if set(line) != {"correct", "attempted", "failed", "metrics"}:
                    fail("%s: result keys %s" % (where, sorted(line)))
                if line["correct"] is not True or line["failed"] != 0:
                    fail("%s: outputs checked incorrect" % where)
                if not isinstance(line["attempted"], int) or line["attempted"] < 1:
                    fail("%s: attempted %r" % (where, line["attempted"]))
                expected = bench["per_layer" if trace else "end_to_end"]
                check_metrics(where, line["metrics"], expected)
                printed = [l for l in lines if l.strip().startswith("metric ")]
                for m in expected:
                    if not any(l.split()[1] == m["name"] and
                               l.split()[-1] == m["unit"] for l in printed):
                        fail("%s: %s not printed with its unit" %
                             (where, m["name"]))
                with open(result_path) as f:
                    full = json.load(f)
                missing = [k for k in FINGERPRINT_KEYS
                           if k not in full["fingerprint"]]
                if missing:
                    fail("%s: fingerprint lacks %s" % (where, missing))
                check_metrics(where + " result file",
                              full["per_layer" if trace else "end_to_end"],
                              expected)
                print("selftest: %s ok" % where)
    print("selftest: ok")


if __name__ == "__main__":
    main()
