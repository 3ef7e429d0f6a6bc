#!/usr/bin/env python3
"""Self-test of the served benchmark harness on a tiny corpus.

    python3 perfbench/selftest.py

For every workload it runs the benchmark briefly, untraced and traced, and
checks that each run exits 0, reports correct answers, and prints exactly
the metrics BENCHMARK.json declares, each with its declared unit. Then it
runs every workload with one served answer deliberately corrupted and
checks that the correctness gate trips (exit code 1, "correct": false).
Exits nonzero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

WORKLOADS = ["knn_closed", "range_open", "mixed_rw"]


def bench(binary, out_dir, workload, trace, extra=()):
    command = [binary, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--out-dir", out_dir, "--tiny"] + list(extra)
    proc = subprocess.run(command, cwd=run.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    build_dir = run.build()
    binary = os.path.join(build_dir, "perfbench_served")
    out_dir = os.path.join(build_dir, "perfbench-selftest")
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, err = bench(binary, out_dir, workload, trace)
            label = "%s --trace %d" % (workload, trace)
            check(code == 0 and result is not None and result["correct"],
                  label + ": exits 0 with correct answers")
            if result is None:
                sys.stderr.write(err)
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == declared[trace],
                  label + ": prints every declared metric with its unit")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  label + ": %d attempted, %d failed"
                  % (result["attempted"], result["failed"]))
        code, result, _ = bench(binary, out_dir, workload, 0, ["--corrupt"])
        check(code == 1 and result is not None and not result["correct"],
              workload + " --corrupt: the correctness gate trips")

    print("%d checks failed" % len(failures) if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
