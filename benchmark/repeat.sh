#!/usr/bin/env bash
# Repeatability proof: build everything in release, run the whole benchmark
# twice on the same commit, and compare the two result files. Exits 0 only if
# every row of the comparison is `within-bound` or `better`; a `worse` or
# `unresolved` row means this machine, right now, cannot resolve the bounds.
# Extra arguments go to both `pfbench run`s (for example `--seconds 5`).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo build --release --offline --manifest-path benchmark/Cargo.toml
pfbench="${CARGO_TARGET_DIR:-benchmark/target}/release/pfbench"

# `pfbench run` ends with "wrote <result file>".
run() {
    "$pfbench" run "$@" | tee /dev/stderr | sed -n 's/^wrote //p' | tail -n 1
}
first=$(run "$@")
second=$(run "$@")

report=$("$pfbench" compare "$first" "$second") || { echo "$report"; exit 1; }
echo "$report"
if grep -q 'unresolved' <<<"$report"; then
    echo "repeat: unresolved rows — the runs of one file spread wider than the bound"
    exit 1
fi
echo "repeat: $first and $second agree within the benchmark's bounds"
