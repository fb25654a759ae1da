#!/usr/bin/env bash
# Line counter behind the CHANGES.md / ISSUE size claims: for each file,
# the non-blank, non-comment lines before its `mod tests`, then the total.
#
#   scripts/loc.sh crates/core/src/*.rs
set -euo pipefail

total=0
for f in "$@"; do
    n=$(sed '/^mod tests/,$d' "$f" | grep -cvE '^[[:space:]]*(//|$)' || true)
    printf '%6d %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d total\n' "$total"
