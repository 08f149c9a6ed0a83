#!/usr/bin/env bash
# The identity check every refactor PR re-derives (ROADMAP "Tracking",
# simulated-result bit-identity), as a script. Exports both revisions with
# `git archive`, builds `figures` and `chaos-sweep` in release mode, and runs
# on each side
#
#   figures all --json                                          (stdout)
#   chaos-sweep --seeds 20 --all-systems --replay-every 5       (smoke)
#   chaos-sweep --seeds 10 --ops 400                            (dense)
#   chaos-sweep --seeds 20 --ops 400 --all-systems              (dense-all)
#
# keeping each sweep's per-run output (stdout and stderr, so a red cell's
# violation text is compared too) and its `--summary`: seven artifacts a
# side. Every artifact is `cmp`ed; a summary that differs is diffed row by
# row of its `metrics`, and figures that differ cell by cell, one line per
# moved cell: `experiment / row / column old -> new`. Exit 0 only if nothing
# outside `--allow` moved. A sweep's own exit status is not a gate (the
# all-systems dense sweep is red while ROADMAP item 1 is open): the two
# sides are compared, red cells and all. A side is cached under
# target/identity/<commit>, so re-checking a new change against the same
# parent rebuilds and re-runs one side only.
#
#   ci/identity.sh REV_A [REV_B] [--allow ROW,ROW]     (REV_B defaults to HEAD)
#
# A tool, not a CI job: PRs that move rows on purpose exist.
set -euo pipefail

usage() {
    sed -n '2,25p' "$0" >&2
    exit 2
}
allow=""
revs=()
while [ $# -gt 0 ]; do
    case "$1" in
        --allow) allow="${2:-}"; shift 2 ;;
        -*) usage ;;
        *) revs+=("$1"); shift ;;
    esac
done
[ "${#revs[@]}" -ge 1 ] && [ "${#revs[@]}" -le 2 ] || usage

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/target/identity"

sweep() { # bin name args...
    local bin="$1" name="$2"
    shift 2
    "$bin/chaos-sweep" "$@" --artifact /dev/null --summary "$name.json" > "$name.out" 2>&1 || true
    # The one line that names this side's own path.
    sed -i '/^wrote sweep summary to /d' "$name.out"
}

side() { # rev: prints the directory holding that revision's artifacts
    local sha dir bin
    sha="$(git -C "$root" rev-parse --verify "$1^{commit}")"
    dir="$work/$sha"
    if [ ! -e "$dir/complete" ]; then
        echo "building and running $1 ($sha)" >&2
        rm -rf "$dir"
        mkdir -p "$dir/src" "$dir/out"
        git -C "$root" archive "$sha" | tar -x -C "$dir/src"
        (cd "$dir/src" && cargo build --release --offline --quiet \
            -p switchfs-bench --bin figures -p switchfs-chaos --bin chaos-sweep) >&2
        bin="$dir/src/target/release"
        (
            cd "$dir/out"
            "$bin/figures" all --json > figures.json
            sweep "$bin" smoke --seeds 20 --all-systems --replay-every 5
            sweep "$bin" dense --seeds 10 --ops 400
            sweep "$bin" dense-all --seeds 20 --ops 400 --all-systems
        )
        touch "$dir/complete"
    fi
    echo "$dir/out"
}

a="$(side "${revs[0]}")"
b="$(side "${revs[1]:-HEAD}")"

status=0
for artifact in figures.json smoke.out smoke.json dense.out dense.json dense-all.out dense-all.json; do
    if cmp -s "$a/$artifact" "$b/$artifact"; then
        echo "identical  $artifact"
        continue
    fi
    case "$artifact" in
        smoke.json | dense.json | dense-all.json)
            python3 - "$a/$artifact" "$b/$artifact" "$allow" <<'EOF' || status=1
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
allowed = set(filter(None, sys.argv[3].split(",")))
name = sys.argv[1].rsplit("/", 1)[1]
ma, mb = a.pop("metrics"), b.pop("metrics")
bad = a != b
if bad:
    print(f"DIFFERS    {name}: outside `metrics` (runs, cells or failed runs)")
for row in sorted(set(ma) | set(mb)):
    if ma.get(row) != mb.get(row):
        ok = row in allowed
        bad |= not ok
        print(f"{'allowed   ' if ok else 'DIFFERS   '} {name}: {row} {ma.get(row)} -> {mb.get(row)}")
sys.exit(1 if bad else 0)
EOF
            ;;
        figures.json)
            # One experiment per line: name each cell that moved.
            echo "DIFFERS    $artifact"
            python3 - "$a/$artifact" "$b/$artifact" <<'EOF' || true
import json, sys
def cells(path):
    out = {}
    for line in open(path):
        exp = json.loads(line)
        name, seen = exp.pop("experiment", "?"), {}
        for key, value in exp.items():
            if key != "rows":
                out[(name, "-", key)] = value
        for row in exp.get("rows", []):
            label = str(row.get("label"))
            seen[label] = seen.get(label, 0) + 1
            if seen[label] > 1:
                label += f" #{seen[label]}"
            for column, value in row.items():
                if column != "label":
                    out[(name, label, column)] = value
    return out
a, b = (cells(p) for p in sys.argv[1:3])
for cell in list(a) + [c for c in b if c not in a]:
    old, new = a.get(cell, "(absent)"), b.get(cell, "(absent)")
    if old != new:
        print(f"           {' / '.join(cell)} {old} -> {new}")
EOF
            status=1
            ;;
        *)
            echo "DIFFERS    $artifact"
            diff "$a/$artifact" "$b/$artifact" | head -n 20 || true
            status=1
            ;;
    esac
done
exit "$status"
