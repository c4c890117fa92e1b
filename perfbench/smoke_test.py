#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at smoke-test size (--tiny, 1 s
window), untraced and traced, through perfbench/run.py. Checks that each run
exits 0, that its output checks pass (correct, no failed operation), that it
prints exactly the metrics BENCHMARK.json declares for the mode, each with
its declared unit and a finite value, and that it prints the host record.
Takes about a minute after the first build.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    return done.returncode, done.stdout.strip().splitlines(), done.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            code, lines, err = run(workload, trace)
            if code != 0 or not lines:
                problems.append(f"{label}: exit {code}\n{err[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: output checks failed\n{err[-2000:]}")
            metrics = result["metrics"]
            if set(metrics) != set(declared[trace]):
                problems.append(f"{label}: metrics {sorted(set(metrics) ^ set(declared[trace]))} "
                                "differ from BENCHMARK.json")
            for name, m in metrics.items():
                if m.get("unit") != declared[trace].get(name) or not math.isfinite(m["value"]):
                    problems.append(f"{label}: {name} = {m}")
            if not any(line.startswith('{"host"') for line in lines):
                problems.append(f"{label}: no host record")
            if trace and not any(line.startswith('{"trace_overhead"') for line in lines):
                problems.append(f"{label}: no trace overhead line")
            print(f"ok {label}" if not problems else f"checked {label}", flush=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        sys.exit(1)
    print("perfbench smoke test passed")


if __name__ == "__main__":
    main()
