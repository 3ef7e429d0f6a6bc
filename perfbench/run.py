#!/usr/bin/env python3
"""Builds the served benchmark from source and runs one workload.

    python3 perfbench/run.py --workload knn_closed --seed 1 --seconds 10 --trace 0

The binary is built with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the repository root; an up-to-date build is reused.
Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The exit code is the benchmark's: 0 when every
answer was correct, 1 on a wrong answer, 2 when it could not build or
set up. Any extra flags (--tiny, --corrupt) pass through.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write("perfbench: no les3 source tree around perfbench/\n")
        sys.exit(2)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_served",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            sys.exit(2)
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["knn_closed", "range_open", "mixed_rw"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()

    build_dir = build()
    command = [os.path.join(build_dir, "perfbench_served"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(build_dir, "perfbench-out")] + extra
    sys.stdout.flush()
    sys.exit(subprocess.call(command, cwd=ROOT))


if __name__ == "__main__":
    main()
