#!/usr/bin/env bash
# Line counter behind the CHANGES.md / ISSUE size claims: for each file,
# the non-blank, non-comment lines before its `mod tests`, then the total.
#
#   scripts/loc.sh crates/core/src/*.rs
#
# With no arguments: every `.rs` file under a `crates/*/src`.
set -euo pipefail
shopt -s globstar nullglob

[ $# -gt 0 ] || { cd "$(dirname "$0")/.." && set -- crates/*/src/**/*.rs; }
total=0
for f in "$@"; do
    n=$(sed '/^mod tests/,$d' "$f" | grep -cvE '^[[:space:]]*(//|$)' || true)
    printf '%6d %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d total\n' "$total"
