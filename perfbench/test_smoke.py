#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/test_smoke.py

Builds the benchmark, then checks, in a few tens of seconds:
  * oracle_test: the sort-and-count HHH oracle equals exact_hhh at small W;
  * every workload runs at a tiny packet count, in both --trace modes,
    passes its output checks, and reports exactly the metrics BENCHMARK.json
    lists for that mode;
  * a flipped byte in a checkpoint image fails the run (exit 1, correct
    false) on both checkpoint paths (streamed and buffered);
  * run.py in a directory holding only BENCHMARK.json and perfbench/ exits
    non-zero without printing a result.
Exit status 0 when everything holds.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (the runner's build step)

TINY = 1 << 16
failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace), "--packets", str(TINY),
               *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return done.returncode, result, done.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}

    run.build(("perfbench", "oracle_test"))
    oracle = subprocess.run([os.path.join(run.BUILD_DIR, "oracle_test")], cwd=ROOT)
    expect(oracle.returncode == 0, "oracle_test: sort-and-count oracle equals exact_hhh")

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            code, result, err = bench(workload, trace)
            ok = code == 0 and result is not None and result["correct"] and result["failed"] == 0
            expect(ok, f"{workload} --trace {trace}: passes its checks"
                   + ("" if ok else f" (exit {code}): {err.strip()[-400:]}"))
            if result is not None:
                expect(sorted(result["metrics"]) == sorted(wanted[trace]),
                       f"{workload} --trace {trace}: reports exactly the BENCHMARK.json metrics")

    for workload in ("hh_full", "hhh_2d"):
        code, result, err = bench(workload, 0, "--corrupt-checkpoint")
        expect(code == 1 and result is not None and not result["correct"]
               and "CHECK FAILED" in err,
               f"{workload}: a flipped checkpoint byte fails the run")

    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hh_full",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(done.returncode != 0 and done.stdout.strip() == "",
           "without the library sources run.py fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
