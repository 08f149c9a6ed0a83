#!/usr/bin/env bash
# Workspace size as every CHANGES.md entry since PR 13 reports it (ROADMAP
# "Tracking", Size): every *.rs under crates/ and src/ except the offline
# stand-ins (crates/compat), integration tests and benches, each file counted
# through its first `#[cfg(test)]` line — so a unit-test module does not
# count and moving code into one is not a saving. Prints one row per crate
# and the total, kept in ci/golden/loc.txt.
#
#   ci/loc.sh [REPO_ROOT]
set -euo pipefail

cd "${1:-$(dirname "${BASH_SOURCE[0]}")/..}"
find crates src -name '*.rs' \
    -not -path 'crates/compat/*' -not -path '*/tests/*' -not -path '*/benches/*' |
    sort |
    xargs awk '
        FNR == 1 { counting = 1 }
        counting {
            crate = FILENAME
            if (crate ~ /^crates\//) { split(crate, part, "/"); crate = "crates/" part[2] } else { crate = "src" }
            lines[crate]++
            total++
        }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        END {
            for (crate in lines) printf "%-20s %6d\n", crate, lines[crate] | "sort"
            close("sort")
            printf "%-20s %6d\n", "total", total
        }'
