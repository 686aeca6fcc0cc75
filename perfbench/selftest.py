#!/usr/bin/env python3
"""Smoke-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json with tiny inputs (run.py --smoke), for
two seconds, untraced and traced, and asserts for each run that

  * the last stdout line has exactly the keys correct/attempted/failed/metrics;
  * the metrics are exactly BENCHMARK.json's end_to_end (untraced) or
    per_layer (traced) names, each with its declared unit and a finite value;
  * the answers were right (correct, failed == 0) and every one was checked
    against a reference (report.checked == attempted);
  * the end-to-end metrics are never 0.

Exits 0 when every run passes.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=300)
    if out.returncode != 0:
        raise AssertionError(f"exit code {out.returncode}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check(spec, workload, trace, report, result):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    declared = {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        raise AssertionError(f"missing {sorted(set(declared) - set(metrics))}, "
                             f"extra {sorted(set(metrics) - set(declared))}")
    for name, metric in metrics.items():
        if metric["unit"] != declared[name]["unit"]:
            raise AssertionError(f"{name}: unit {metric['unit']}")
        if not math.isfinite(metric["value"]):
            raise AssertionError(f"{name}: value {metric['value']}")
        if not trace and metric["value"] == 0:
            raise AssertionError(f"{name} is 0")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"correct={result['correct']} failed={result['failed']}")
    if report["checked"] != result["attempted"]:
        raise AssertionError(f"checked {report['checked']} of {result['attempted']}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            try:
                report, result = run(workload, trace, seed=1)
                check(spec, workload, trace, report, result)
                print(f"ok   {workload} trace={trace} attempted={result['attempted']}")
            except (AssertionError, subprocess.TimeoutExpired, ValueError,
                    IndexError) as e:
                failures += 1
                print(f"FAIL {workload} trace={trace}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
