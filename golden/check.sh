#!/usr/bin/env bash
# Golden report digests: turns "byte-identical to the parent commit" into
# a gate. Each row of golden/digests.tsv is
#
#   name <TAB> repro arguments <TAB> sha256 of the --json report <TAB> sha256 of stdout
#
# Stdout carries what the JSON does not, such as the minimized sweep repro.
#
#   golden/check.sh           recompute every row; print the rows that moved
#                             and exit 1 if any did
#   golden/check.sh --update  rewrite golden/digests.tsv with the new digests
#
# Both modes exit 1, leaving the table as it is, when a repro run exits
# non-zero.
#
# Needs a release build (`make build`); `make golden` and
# `make golden-update` run it. Reports and stdout land in target/golden/.
set -euo pipefail
cd "$(dirname "$0")/.."

table=golden/digests.tsv
out=target/golden
mkdir -p "$out"
update=0
if [ "${1:-}" = "--update" ]; then
    update=1
fi

digest() {
    if [ -f "$1" ]; then
        sha256sum < "$1" | cut -d' ' -f1
    else
        echo missing
    fi
}

fresh="$out/digests.tsv"
: > "$fresh"
moved=0
failed=""
while IFS= read -r line; do
    case "$line" in
    '#'* | '')
        printf '%s\n' "$line" >> "$fresh"
        continue
        ;;
    esac
    IFS=$'\t' read -r name args want_json want_stdout <<< "$line"
    report="$out/$name.json"
    rm -f "$report"
    status=0
    # shellcheck disable=SC2086 # args is a flag list
    ./target/release/repro $args --json "$report" > "$out/$name.stdout" 2> "$out/$name.stderr" || status=$?
    if [ "$status" -ne 0 ]; then
        failed="$failed $name"
    fi
    got_json=$(digest "$report")
    got_stdout=$(digest "$out/$name.stdout")
    printf '%s\t%s\t%s\t%s\n' "$name" "$args" "$got_json" "$got_stdout" >> "$fresh"
    for pair in "json:$want_json:$got_json" "stdout:$want_stdout:$got_stdout"; do
        IFS=: read -r what want got <<< "$pair"
        if [ "$want" != "$got" ]; then
            if [ "$moved" -eq 0 ]; then
                printf '%-24s %-7s %-14s %s\n' row output committed now
            fi
            printf '%-24s %-7s %-14.12s %.12s\n' "$name" "$what" "$want" "$got"
            moved=$((moved + 1))
        fi
    done
done < "$table"

if [ -n "$failed" ]; then
    # A failing run never becomes the committed expectation.
    echo "golden: repro exited non-zero on:$failed (stderr in $out/); $table left as it is"
    exit 1
elif [ "$update" -eq 1 ]; then
    cp "$fresh" "$table"
    echo "golden: rewrote $table ($moved digest(s) changed)"
elif [ "$moved" -gt 0 ]; then
    echo "golden: $moved digest(s) moved; new outputs are in $out/"
    exit 1
else
    echo "golden: every row byte-identical"
fi
