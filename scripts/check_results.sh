#!/bin/sh
# The committed bytes are what the tree produces.  Regenerates every file
# of results/ at the paper profile (`all ext`, no cache) and both trace
# fixtures with the commands in crates/bench/tests/golden_fixture.rs,
# `cmp`s each against the committed copy, names every file that differs
# (or that only one side has) and exits 1 if any does.  A change that
# moves the simulation commits its new bytes in the same commit.
#
# Run from anywhere: sh scripts/check_results.sh.  Needs cargo, POSIX sh
# and cmp; builds the release `figures` binary first.
set -eu
cd "$(dirname "$0")/.."

cargo build --release -q -p gridmon-bench --bin figures
figures="${CARGO_TARGET_DIR:-target}/release/figures"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

run() {
    "$figures" "$@" >"$out/log" 2>&1 || { cat "$out/log"; exit 1; }
    grep '^== done' "$out/log" || true
}
run --profile paper --no-cache --jobs 2 --out "$out/paper" all ext
run --profile bench --no-cache --out "$out/obs" set1 --only fig5 \
    --trace "MDS GRIS (cache)/x=2"
run --profile bench --no-cache --out "$out/obs5" set5 \
    --trace "Hawkeye (agent churn)/x=1"

checked=0
differ=0
check() { # fresh committed
    checked=$((checked + 1))
    if ! cmp -s "$1" "$2"; then
        echo "differs: $2"
        differ=$((differ + 1))
    fi
}
for f in results/*; do
    check "$out/paper/${f#results/}" "$f"
done
for f in "$out"/paper/*; do
    [ -e "results/${f##*/}" ] || { echo "not committed: results/${f##*/}"; differ=$((differ + 1)); }
done
check "$out/obs/trace/set1-mds-gris-cache-x=2.trace.json" \
    crates/bench/fixtures/golden_trace.json
check "$out/obs5/trace/set5-hawkeye-agent-churn-x=1.trace.json" \
    crates/bench/fixtures/golden_set5_trace.json

echo "$checked files checked, $differ differ"
[ "$differ" -eq 0 ]
