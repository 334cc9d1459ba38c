#!/bin/sh
# The line budget of ROADMAP item 6, as two numbers per crate:
#
#   production  lines above the first `#[cfg(test)]` of each .rs file
#               under crates/*/src and src/
#   other       everything else: test modules (from that line down),
#               tests/, examples/ and crates/*/tests
#
# plus both totals, the number of crates under crates/ and the `unsafe`
# sites anywhere in those files.  Run from anywhere; POSIX sh + awk +
# find, no dependencies.
set -eu
cd "$(dirname "$0")/.."

find crates src tests examples -name '*.rs' | sort | xargs awk '
    FNR == 1 {
        split(FILENAME, part, "/")
        crate = part[1] == "crates" ? part[2] : "(root)"
        src = part[1] == "crates" ? part[3] == "src" : part[1] == "src"
        prod = src
        seen[crate] = 1
    }
    prod && /^[ \t]*#\[cfg\(test\)\]/ { prod = 0 }
    prod { production[crate]++ }
    !prod { other[crate]++ }
    /(^|[^a-z_"`])unsafe[ \t]+(\{|fn|impl)/ && !/^[ \t]*\/\// { unsafes++ }
    END {
        printf "%-16s %10s %10s\n", "crate", "production", "other"
        for (c in seen) {
            printf "%-16s %10d %10d\n", c, production[c], other[c] | "sort"
            tp += production[c]; to += other[c]; crates += c != "(root)"
        }
        close("sort")
        printf "%-16s %10d %10d\n", "total", tp, to
        printf "%d crates, %d lines in all, %d unsafe\n", crates, tp + to, unsafes
    }'
