#!/usr/bin/env python3
"""Seed-to-seed spread of every end-to-end metric, the driver's way.

Runs each workload once per seed with `--trace 0`, then prints, per workload
and metric, the median over the seeds and the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of that median,
next to the metric's bound from BENCHMARK.json. A spread above a third of its
bound is flagged: the bounds are meant to be at least three spreads wide.

usage: benchmark/spread.py [--seeds 1-10] [--workload NAME]... [--seconds N]
Run from the repository root, on an otherwise idle host.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--workload", action="append", help="default: all")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    worst = 0.0
    for workload in workloads:
        runs = [run(workload, seed, args.seconds) for seed in range(first, last + 1)]
        print(f"== {workload}: seeds {first}..{last}")
        print(f"{'metric':<22}{'median':>14}{'spread':>9}{'bound':>7}  note")
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            note = ""
            if len(set(values)) == 1:
                note = "same value on every run"
            elif metric["name"] != "setup_s" and spread > metric["bound"]:
                note = "ABOVE ITS BOUND"
            elif spread > metric["bound"] / 3:
                note = "above a third of its bound"
            if metric["name"] != "setup_s":
                worst = max(worst, spread / metric["bound"])
            print(f"{metric['name']:<22}{median:>14.4f}{spread:>9.4f}{metric['bound']:>7}  {note}")
    print(f"worst spread/bound (setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main()
