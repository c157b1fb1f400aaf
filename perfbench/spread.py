#!/usr/bin/env python3
"""Steadiness check: runs one workload once per seed and reports, for every
end-to-end metric of BENCHMARK.json, the median and the quartile spread
(Q3 - Q1) / median from statistics.quantiles(values, n=4), next to the
metric's bound.

    python3 perfbench/spread.py --workload hh_full --seeds 1-10

A spread under a third of the bound is the target; setup_s has no spread
requirement, only its median. Each run's JSON line is appended to
.bench_build/spread/<workload>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range, help="e.g. 1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    out_dir = os.path.join(ROOT, ".bench_build", "spread")
    os.makedirs(out_dir, exist_ok=True)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                               args.workload, "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
        if done.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
        with open(os.path.join(out_dir, f"{args.workload}.jsonl"), "a") as f:
            f.write(last + "\n")
        result = json.loads(last)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()),
              flush=True)

    print(f"\n{args.workload}, {len(args.seeds)} seeds, {seconds:g} s per run")
    print(f"{'metric':24} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
    for metric in spec["end_to_end"]:
        v = values[metric["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else float("inf")
        verdict = "ok" if spread < metric["bound"] / 3 else (
            "within bound" if spread <= metric["bound"] else "TOO WIDE")
        if metric["name"] == "setup_s":
            verdict = "(no spread requirement)"
        print(f"{metric['name']:24} {med:12.6g} {spread:8.3f} {metric['bound']:6.2f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
