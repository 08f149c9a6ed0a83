#!/usr/bin/env python3
"""Verdicts for an A/B made by ab.sh: A is the parent, B the change.

usage: benchmark/compare.py RESULTS.jsonl [--a NAME] [--b NAME]

Per workload and end-to-end metric, plus `host_kops` (best repetition of each
run, from its --out report; advisory, judged against ADVISORY_BOUND because
BENCHMARK.json does not gate it): both medians and quartiles, the pairs B won
(ties count for neither side), and a verdict by the rules of the
choosing-metrics guide with the bounds of BENCHMARK.json:

  regression  B's median is worse than A's by more than the bound
  gain        B won at least 9/10 of the pairs and the medians differ by more
              than the distance between A's quartiles
  unresolved  A's own quartile distance is wider than the bound, so "no
              change" cannot be told from a regression
  no change   none of the above

Pair i ran seed i on both sides, so metrics on the virtual clock and the
allocation counts are exactly comparable: for those the last column says in
how many pairs the two sides differ at all. A change aimed at the simulator
must leave them identical in every pair; a change aimed at the modelled
design says beforehand which of them move.
"""

import argparse
import json
import pathlib
import statistics
import sys
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXACT = ("sim_", "alloc", "peak_live")
# The wall clock is too noisy on the reference host to gate (README.md,
# "Steadiness"); pairs run back to back see the same host, so here it is
# judged after all, against the bound ISSUE 11 wanted for it.
ADVISORY_BOUND = 0.10


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("results")
    ap.add_argument("--a", default="A")
    ap.add_argument("--b", default="B")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # runs[workload][side][pair] = {metric: value}
    runs = defaultdict(lambda: defaultdict(dict))
    bad = []
    for line in pathlib.Path(args.results).read_text().splitlines():
        row = json.loads(line)
        result = row["result"]
        if not result["correct"] or result["failed"]:
            bad.append(f"{row['workload']} side {row['side']} pair {row['pair']}: "
                       f"correct={result['correct']} failed={result['failed']}")
        values = {name: m["value"] for name, m in result["metrics"].items()}
        report = json.loads(pathlib.Path(row["report"]).read_text().splitlines()[-1])
        values["host_kops"] = max(report["host_kops_per_repetition"])
        runs[row["workload"]][row["side"]][row["pair"]] = values

    print(f"A = {args.a} (parent), B = {args.b} (change)")
    regressions = 0
    for workload in (w["name"] for w in spec["workloads"]):
        sides = runs.get(workload)
        if not sides:
            continue
        pairs = sorted(set(sides["a"]) & set(sides["b"]))
        few = "" if len(pairs) >= 10 else " (fewer than ten: verdicts are indicative only)"
        print(f"\n== {workload}: {len(pairs)} pairs{few}")
        print(f"{'metric':<20}{'A q1':>11}{'A median':>11}{'A q3':>11}"
              f"{'B q1':>11}{'B median':>11}{'B q3':>11}{'B/A':>8}{'B won':>7}  verdict")
        advisory = {"name": "host_kops", "better": "higher", "bound": ADVISORY_BOUND}
        for metric in spec["end_to_end"] + [advisory]:
            name, bound = metric["name"], metric["bound"]
            higher = metric["better"] == "higher"
            a = [sides["a"][p][name] for p in pairs]
            b = [sides["b"][p][name] for p in pairs]
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            won = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
            worse_by = (am - bm) / am if higher else (bm - am) / am
            if worse_by > bound and metric is advisory:
                verdict = "slower (advisory)"
            elif worse_by > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif won >= 0.9 * len(pairs) and abs(bm - am) > (a3 - a1):
                verdict = "gain"
            elif (a3 - a1) / am > bound:
                verdict = "unresolved"
            else:
                verdict = "no change"
            if name.startswith(EXACT):
                differ = sum(x != y for x, y in zip(a, b))
                verdict += f"; differs in {differ}/{len(pairs)} pairs" if differ else "; identical"
            print(f"{name:<20}{a1:>11.4g}{am:>11.4g}{a3:>11.4g}{b1:>11.4g}{bm:>11.4g}{b3:>11.4g}"
                  f"{bm / am:>8.3f}{won:>4}/{len(pairs):<2}  {verdict}")
    for line in bad:
        print(f"INCORRECT RUN: {line}")
    sys.exit(1 if regressions or bad else 0)


if __name__ == "__main__":
    main()
