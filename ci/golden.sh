#!/usr/bin/env bash
# Regenerates the golden files under ci/golden/: the exact results of this
# deterministic simulation, one value per self-describing line.
#
#   figures.txt  every cell of `figures all --json`: experiment / row / column = value
#   smoke.txt    chaos-sweep --seeds 20 --all-systems --replay-every 5
#   dense.txt    chaos-sweep --seeds 20 --ops 400 --all-systems
#                (each: the per-run lines, then the summary one key per line)
#   bench.txt    `rustc --version`, then workload metric value, for every
#                metric of the six CI benchmark/run.sh commands whose clock
#                is not `host` (the allocation counts and bytes are exact
#                for the compiler that first line names)
#   loc.txt      ci/loc.sh
#
#   ci/golden.sh [PART...]      PART: figures smoke dense bench loc (default: all)
#
# Then `git diff --exit-code -- ci/golden/` is the gate: any moved value, up or
# down, is a line of the diff, and a change that moves values on purpose
# commits the regenerated files. Identity between two commits is
# `git diff A B -- ci/golden/`. Lines that name a path are dropped, and the
# raw outputs (sweep summaries, failure artifacts, benchmark reports and
# traces) go to target/golden/. Every file is written first; the exit status
# is then non-zero if a sweep had a red run or a benchmark run failed a check.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
golden=ci/golden
work=target/golden
mkdir -p "$golden" "$work"
status=0

# flatten KIND FILE...: the lines of one golden, from JSON outputs.
flatten() {
    python3 - "$@" <<'EOF'
import json, sys

kind, paths = sys.argv[1], sys.argv[2:]

def load(text):
    # Numbers keep the text the program printed.
    return json.loads(text, parse_float=str, parse_int=str)

def text(value):
    return value if isinstance(value, str) else json.dumps(value)

if kind == "figures":
    for line in open(paths[0]):
        exp = load(line)
        for row in exp["rows"]:
            label = row.pop("label")
            for column, value in row.items():
                print(f"{exp['experiment']} / {label} / {column} = {text(value)}")
elif kind == "sweep":
    s = load(open(paths[0]).read())
    for key in ("runs", "failures", "seeds", "ops_per_client", "replay_every"):
        print(f"{key} = {s.pop(key)}")
    for key in ("systems", "kinds"):
        print(f"{key} = {', '.join(s.pop(key))}")
    for c in s.pop("cells"):
        print(f"cell {c['system']} / {c['kind']} = {c['passed']} passed, {c['failed']} failed")
    for f in s.pop("failed_runs"):
        print(f"failed {f['system']} / {f['kind']} / seed {f['seed']} = {json.dumps(f['violations'])}")
    for name, value in s.pop("metrics").items():
        print(f"metric {name} = {value}")
    assert not s, f"summary keys not in the golden: {sorted(s)}"
elif kind == "bench":
    for path in paths:
        report = load(open(path).read())
        for m in report["metrics"]:
            if m["clock"] != "host":
                print(f"{report['workload']} {m['name']} {text(m['value'])}")
EOF
}

figures() {
    cargo build --locked --release --quiet -p switchfs-bench --bin figures
    target/release/figures all --json > "$work/figures.jsonl"
    flatten figures "$work/figures.jsonl" > "$golden/figures.txt"
}

# sweep NAME ARGS...: one chaos sweep and its golden.
sweep() {
    local name="$1"
    shift
    cargo build --locked --release --quiet -p switchfs-chaos --bin chaos-sweep
    local rc=0
    target/release/chaos-sweep "$@" --artifact "$work/$name-failure.json" \
        --summary "$work/$name-summary.json" > "$work/$name.out" 2>&1 || rc=$?
    {
        grep -v '^wrote \|^cannot write ' "$work/$name.out" || true
        flatten sweep "$work/$name-summary.json"
    } > "$golden/$name.txt"
    [ "$rc" -eq 0 ] || status=1
}

# The six commands of CI's benchmark-smoke job, as they ran there: three end
# to end only, three in both modes (the traced repetition gives the
# per-layer values). benchmark/run.sh builds without --locked and rewrites
# benchmark/Cargo.lock; the committed lock is put back afterwards.
bench() {
    local workload trace reports=()
    cp benchmark/Cargo.lock "$work/Cargo.lock"
    for workload in hotdir-create:0 solo-latency:0 lookup-stat:0 dirread-mix: dc-mix: hotdir-create-cfs:; do
        trace="${workload#*:}"
        workload="${workload%:*}"
        rm -f "$work/bench-$workload.json"
        benchmark/run.sh --workload "$workload" --seconds 1 ${trace:+--trace "$trace"} \
            --out "$work/bench-$workload.json" --trace-out "$work/trace-$workload.json" || status=1
        reports+=("$work/bench-$workload.json")
    done
    cp "$work/Cargo.lock" benchmark/Cargo.lock
    {
        rustc --version
        flatten bench "${reports[@]}"
    } > "$golden/bench.txt"
}

loc() {
    ci/loc.sh > "$golden/loc.txt"
}

[ $# -gt 0 ] || set -- figures smoke dense bench loc
for part in "$@"; do
    case "$part" in
        figures | bench | loc) "$part" ;;
        smoke) sweep smoke --seeds 20 --all-systems --replay-every 5 --trace-dump "$work/smoke-trace.json" ;;
        dense) sweep dense --seeds 20 --ops 400 --all-systems ;;
        *)
            sed -n '2,23p' "$0" >&2
            exit 2
            ;;
    esac
done
exit "$status"
