#!/usr/bin/env python3
"""CI guard for the Quick figures sweep.

Checks the sweep JSON written by `figures all --json PATH`. Wall clock is
printed, not judged: a budget pinned to another host's number is a coin flip
on a slow runner and blind on a fast one; the perf evidence is the
`benchmark-smoke` job and `benchmark/ab.sh`.

1. the elastic-membership experiments (`rebalance`, `decommission`) must be
   present and every row that reports an `errors` column must report 0 —
   live shard migration and graceful shrink are required to be invisible to
   clients (freeze-window drops are absorbed by retransmission, stale maps
   refresh via WrongOwner);
2. the `metrics` experiment (the one run with the flight recorder ON) must
   be present with the core unified-registry rows, prove that the
   tracing-enabled run completed (`client.ops_issued` > 0 and
   `obs.events_recorded` > 0), and satisfy the WAL watermark invariant
   (`wal.bytes_flushed` <= `wal.bytes_appended`).

Usage: check_perf.py [SWEEP_JSON]
"""

import json
import sys

ELASTIC_EXPERIMENTS = ("rebalance", "decommission")
# Named rows the unified metrics registry must always expose.
REQUIRED_METRICS = (
    "client.ops_issued",
    "client.ops_ok",
    "kv.gets",
    "kv.puts",
    "net.delivered",
    "net.sent",
    "obs.events_evicted",
    "obs.events_recorded",
    "server.ops_completed",
    "switch.packets",
    "wal.appends",
    "wal.bytes_appended",
    "wal.bytes_flushed",
)


def main() -> int:
    sweep_path = sys.argv[1] if len(sys.argv) > 1 else "bench-smoke.json"
    with open(sweep_path) as f:
        sweep = json.load(f)

    failures = []

    print(f"sweep took {sweep['total_wall_clock_secs']:.1f}s")

    experiments = {e.get("name"): e for e in sweep.get("experiments", [])}
    for name in ELASTIC_EXPERIMENTS:
        exp = experiments.get(name)
        if exp is None:
            failures.append(f"experiment '{name}' missing from the sweep")
            continue
        for row in exp.get("rows", []):
            errors = row.get("errors")
            if errors is None:
                continue
            label = row.get("label", "?")
            print(f"{name} / {label}: errors={errors:g}")
            if errors != 0:
                failures.append(f"{name} / {label}: {errors:g} errors (must be 0)")

    metrics_exp = experiments.get("metrics")
    if metrics_exp is None:
        failures.append("experiment 'metrics' missing from the sweep")
    else:
        values = {
            row.get("label"): row.get("value") for row in metrics_exp.get("rows", [])
        }
        missing = [name for name in REQUIRED_METRICS if name not in values]
        if missing:
            failures.append(f"metrics registry rows missing: {', '.join(missing)}")
        else:
            issued = values["client.ops_issued"]
            recorded = values["obs.events_recorded"]
            print(
                f"metrics: {len(values)} rows, ops_issued={issued:g}, "
                f"trace events recorded={recorded:g}"
            )
            if issued <= 0:
                failures.append("metrics: tracing-enabled run issued no ops")
            if recorded <= 0:
                failures.append(
                    "metrics: flight recorder was enabled but recorded nothing"
                )
            if values["wal.bytes_flushed"] > values["wal.bytes_appended"]:
                failures.append(
                    "metrics: wal.bytes_flushed exceeds wal.bytes_appended "
                    "(flush watermark overran the append counter)"
                )

    if failures:
        for f_ in failures:
            print(f"perf smoke FAILED: {f_}", file=sys.stderr)
        return 1
    print("perf smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
