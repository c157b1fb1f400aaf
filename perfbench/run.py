#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload hh_full --seed 1 --seconds 10 --trace 0

Run from the repository root (any directory works; paths resolve from this
file). On first use it configures and builds perfbench/ - a CMake package
that compiles the library from the repository's own src/ - into
.bench_build/perfbench, then runs the perfbench binary. The binary prints a
readable report and, as its last stdout line, the JSON result
{"correct", "attempted", "failed", "metrics"}; this script relays both and
exits with the binary's status (0 = every output check passed, 1 = a check
failed, 3 = the host has fewer CPUs than the workload's threads). Build
output goes to stderr. A --trace 1 run also writes its spans to
.bench_build/spans/<workload>-<seed>.tsv.

Workloads: hh_full, hh_sampled, flood_mitigate, hhh_2d (see NOTES.md).
--packets N and --corrupt-checkpoint exist for the smoke test.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("hh_full", "hh_sampled", "flood_mitigate", "hhh_2d")
RUN_TIMEOUT_S = 170


def build(targets=("perfbench",)):
    """Configures (once) and builds the benchmark; exits non-zero on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no library sources (CMakeLists.txt, src/) in " + ROOT)
    commands = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        commands.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    commands.append(["cmake", "--build", BUILD_DIR, "-j", "2", "--target", *targets])
    for command in commands:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(command))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--packets", type=int)
    parser.add_argument("--corrupt-checkpoint", action="store_true")
    args = parser.parse_args()

    build()
    command = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(spans_dir, f"{args.workload}-{args.seed}.tsv")]
    if args.packets is not None:
        command += ["--packets", str(args.packets)]
    if args.corrupt_checkpoint:
        command.append("--corrupt-checkpoint")
    sys.stdout.flush()
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
