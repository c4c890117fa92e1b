#!/usr/bin/env python3
"""Build the repository benchmark from source, run one workload, print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (a CMake package that compiles the simulator
library from the repository root) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, with every build message on stderr. Then it runs the
perfbench binary in a fresh work directory under the same build root, passes
its stdout through, and removes the work directory. The last stdout line is
the result JSON: {"correct", "attempted", "failed", "metrics"}.

Exit codes: 0 on a result, 2 when the sources or the build are missing or
broken, 3 when the run fails or prints no result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("t3a_sweep", "flood_1e6")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "flooding.h")):
        fail(2, f"no simulator sources under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail(2, "cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail(2, f"build timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            fail(2, f"build failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (used by smoke_test.py)")
    args = parser.parse_args()

    root = build_root()
    build_dir = os.path.join(root, "perfbench")
    build(build_dir)

    workdir = os.path.join(root, "runs", f"{args.workload}-{os.getpid()}")
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    if args.tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except subprocess.TimeoutExpired:
        fail(3, f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if done.returncode != 0 or not isinstance(result, dict):
        fail(3, f"{args.workload} exited with {done.returncode} and no result")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
