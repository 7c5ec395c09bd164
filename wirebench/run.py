#!/usr/bin/env python3
"""Builds and runs the socket-level benchmark of the primelabel query service.

Usage (from the repository root):

    python3 wirebench/run.py --workload xpath_cold --seed 1 --seconds 20 --trace 0

Workloads: xpath_cold, live_write and oracle_deep (see wirebench/README.md;
BENCHMARK.json lists the first two). The default seed is 1; seed 7 is held
out for checking later claims.

The library and the benchmark binary are built from source into
$CARGO_TARGET_DIR (default .bench_build) on every run; an up-to-date build
is a no-op. The last line of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Build output goes to stderr. The exit code is 0 only when the benchmark ran
and printed a result.
"""

import argparse
import json
import os
import subprocess
import sys

DEFAULT_SEED = 1
HELD_OUT_SEED = 7
WORKLOADS = ("xpath_cold", "oracle_deep", "live_write")
# The benchmark must finish within 180 s; leave room for start-up.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("wirebench: " + message, file=sys.stderr)
    sys.exit(1)


def build(bench_dir, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", bench_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if configure.returncode != 0:
            fail("configure failed")
    made = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "wirebench", "-j", "4"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if made.returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    repo_dir = os.path.dirname(bench_dir)
    if not os.path.exists(os.path.join(repo_dir, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to " + bench_dir)
    # Relative paths keep the Unix socket path short and inside the checkout.
    os.chdir(repo_dir)
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(build_root, "wirebench")
    build(os.path.relpath(bench_dir), build_dir)

    binary = os.path.join(build_dir, "wirebench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", os.path.join(build_root, "wirebench-runs")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                             text=True)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if run.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % run.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    print(lines[-1])
    sys.stdout.flush()


if __name__ == "__main__":
    main()
