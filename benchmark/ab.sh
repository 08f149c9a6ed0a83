#!/usr/bin/env bash
# Interleaved A/B of two revisions with *this* benchmark (ROADMAP item 2(ii)).
#
#   benchmark/ab.sh REV_A REV_B [--pairs N]        (default 10 pairs)
#
# Both revisions are exported with `git archive` into benchmark/out/ab/{a,b}
# (the same kind of tree the driver runs in: files git would commit, no
# repository), this benchmark/ directory and BENCHMARK.json are copied over
# whatever they carry, each is built once, and then N pairs of runs are made
# per workload with `--trace 0`: pair i uses seed i on both sides, and which
# side runs first alternates from pair to pair. compare.py then prints, per
# workload and metric (the end-to-end ones, plus host_kops from each run's
# --out report), both medians and quartiles, pairs won, and a verdict against
# the bounds in BENCHMARK.json. A is the parent, B the change.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,14p' "$0" >&2
    exit 2
fi
rev_a="$1"
rev_b="$2"
shift 2
pairs=10
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        *) echo "unknown argument $1" >&2; exit 2 ;;
    esac
done

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
work="$here/out/ab"
results="$work/results.jsonl"
rm -rf "$work"
mkdir -p "$work"

export_rev() { # side rev
    local dir="$work/$1"
    mkdir -p "$dir"
    git -C "$root" archive "$2" | tar -x -C "$dir"
    rm -rf "$dir/benchmark"
    mkdir "$dir/benchmark"
    # This benchmark, not the revision's: both sides are measured by the
    # same code. Build outputs and earlier results stay behind.
    tar -C "$here" --exclude=./target --exclude=./out -cf - . | tar -x -C "$dir/benchmark"
    cp "$root/BENCHMARK.json" "$dir/BENCHMARK.json"
    echo "building $1 = $2" >&2
    (cd "$dir" && CARGO_TARGET_DIR=.bench_build cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml)
}
export_rev a "$rev_a"
export_rev b "$rev_b"

seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")"

run_side() { # side pair workload
    local line report="$work/report-$1-$2-$3.json"
    line="$(cd "$work/$1" && CARGO_TARGET_DIR=.bench_build bash benchmark/run.sh \
        --workload "$3" --seed "$2" --seconds "$seconds" --trace 0 --out "$report" | tail -n 1)"
    printf '{"side":"%s","pair":%s,"workload":"%s","report":"%s","result":%s}\n' \
        "$1" "$2" "$3" "$report" "$line" >> "$results"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
    for workload in $workloads; do
        for side in $order; do
            echo "pair $pair/$pairs $workload $side" >&2
            run_side "$side" "$pair" "$workload"
        done
    done
done

python3 "$here/compare.py" "$results" --a "$rev_a" --b "$rev_b"
