#!/usr/bin/env bash
# The benchmark's one command: build this package, then run it.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
#
# Without --workload it runs all six, each in its own process, and gathers
# their result files into benchmark/out/summary.json. The driver sets
# CARGO_TARGET_DIR; otherwise the build goes to benchmark/target.
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
commit=unknown
if [ -e "$here/../.git" ]; then
    commit="$(git -C "$here/.." rev-parse HEAD 2>/dev/null || echo unknown)"
fi
exec "$target/release/wino-benchmark" --out "$here/out" \
    --rustc "$(rustc -V 2>/dev/null || echo unknown)" --commit "$commit" "$@"
