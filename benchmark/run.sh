#!/usr/bin/env bash
# Builds sfsbench (release, offline) and runs it with the given arguments,
# from the repository root. Not `--locked`: every dependency is a path
# dependency, so the lock file pins nothing a path does not, and a later
# change to the root crates' dependency graph must not stop the benchmark
# from building in a checkout whose benchmark/ it may not edit.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds N] [--trace 0|1]
#   benchmark/run.sh --all [--seed N] [--out PATH]
#
# The last line of standard output is the result as one JSON object; the exit
# code is non-zero if the build fails or any check fails. `--all` runs every
# workload, each in a process of its own (one process for all six lets the
# allocator state one workload leaves behind slow the next one's set-up
# fourfold), and `--out PATH` collects one JSON line per workload. See
# README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# A relative CARGO_TARGET_DIR is relative to the repository root.
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

bin="$target/release/sfsbench"
if [ "${1:-}" != "--all" ]; then
    exec "$bin" "$@"
fi
shift
status=0
for workload in $("$bin" --list); do
    "$bin" --workload "$workload" "$@" || status=1
done
exit "$status"
