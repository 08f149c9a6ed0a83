#!/usr/bin/env python3
"""Holds the metrics of one sfsbench result line to upper limits.

    ci/bench_gate.py RESULT.json NAME=LIMIT [NAME=LIMIT ...]

RESULT.json is the last line `benchmark/run.sh` prints. Prints every named
metric's value, then exits non-zero, naming each metric above its limit, if
any is.
"""
import json
import sys


def main(args):
    if len(args) < 2:
        sys.exit(__doc__)
    metrics = json.load(open(args[0]))["metrics"]
    limits = {}
    for arg in args[1:]:
        name, sep, limit = arg.partition("=")
        if not sep:
            sys.exit(f"not NAME=LIMIT: {arg}")
        limits[name] = float(limit)
    values = {name: metrics[name]["value"] for name in limits}
    print(values)
    over = {name: value for name, value in values.items() if value > limits[name]}
    sys.exit(f"over the limit {limits}: {over}" if over else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
