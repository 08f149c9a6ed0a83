#!/usr/bin/env python3
"""CI ratchet for the dense-load chaos sweep.

The PR gate (`chaos-sweep --seeds 20 --all-systems`, 40 ops per client) is
green; at ten times the load the sweep is still red on a known defect
(ROADMAP item 1: a directory's size and its listing drift apart). This guard
keeps that load from getting *worse* while it is red: given the summary
written by `chaos-sweep --seeds 10 --ops 400 --summary PATH`, it fails when

1. more runs fail than the checked-in known-red count, or
2. any failed run reports a violation of a kind not checked in as known
   (digits are folded to N/M before comparing, paths are dropped), or fails
   with no violation at all (its replay was not bit-identical).

Lower `max_failed_runs` in ci/chaos_known_red.json whenever a fix lands.

Usage: check_chaos_ratchet.py [SUMMARY_JSON] [KNOWN_RED_JSON]
"""

import json
import re
import sys


def violation_kind(violation: str) -> str:
    """'/chaos/c1: statdir size 20 != 19 listed entries' -> 'statdir size N != M listed entries'."""
    text = violation.split(": ", 1)[-1]
    numbers = iter("NMKJ")
    return re.sub(r"\d+", lambda _: next(numbers, "N"), text)


def main() -> int:
    summary_path = sys.argv[1] if len(sys.argv) > 1 else "chaos-dense-summary.json"
    known_path = sys.argv[2] if len(sys.argv) > 2 else "ci/chaos_known_red.json"
    with open(summary_path) as f:
        summary = json.load(f)
    with open(known_path) as f:
        known = json.load(f)

    failed = summary["failed_runs"]
    known_kinds = set(known["known_violation_kinds"])
    problems = []
    print(f"{len(failed)} of {summary['runs']} runs failed (known red: {known['max_failed_runs']})")
    if len(failed) > known["max_failed_runs"]:
        problems.append(
            f"{len(failed)} failed runs exceed the known-red count {known['max_failed_runs']}"
        )
    for run in failed:
        label = f"{run['system']} / {run['kind']} / seed {run['seed']}"
        kinds = sorted({violation_kind(v) for v in run["violations"]})
        print(f"  {label}: {kinds or 'replay not bit-identical'}")
        if not kinds:
            problems.append(f"{label}: failed without a violation (replay not bit-identical)")
        for kind in kinds:
            if kind not in known_kinds:
                problems.append(f"{label}: new violation kind: {kind}")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
