#!/usr/bin/env bash
# Bench-level CI gates. Run from the repo root:
#
#   scripts/bench.sh --smoke    → the GEMM cliff gate (the Mono GEMM at the
#                                 widest planned n_blk must not run below
#                                 0.8x its own n_blk = 8 rate), then the
#                                 `fusion` binary at 3 reps for shape only
#                                 — it asserts ring, dual == staged bit for
#                                 bit itself, and the table must hold a ring
#                                 and a staged row, and a dual one on an L2
#                                 of 2 MiB or more — no timing gate: on a
#                                 shared host the spread is +-20 %
#   scripts/bench.sh --scaling-smoke
#                               → strong/weak thread sweep over the smoke
#                                 layers as CSV; the binary's --check gate
#                                 asserts parallel efficiency ≥ 0.6 at the
#                                 host thread count and barrier skew under
#                                 25 ms — see docs/scaling.md
#
# Environment: THREADS (scaling: the sweep's --max-threads), REPS
# (scaling, default 2), BENCH_TIMEOUT seconds (default 1800).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_TIMEOUT=${BENCH_TIMEOUT:-1800}

case "$*" in
    --smoke) MODE=smoke ;;
    --scaling-smoke) MODE=scaling ;;
    *)
        echo "usage: scripts/bench.sh --smoke | --scaling-smoke" >&2
        exit 2
        ;;
esac

run() {
    echo "==> $*"
    timeout --kill-after=30 "$BENCH_TIMEOUT" "$@"
}

run cargo build --offline --release -p wino-bench

if [ "$MODE" = scaling ]; then
    args=(--reps "${REPS:-2}" --check)
    [ -n "${THREADS:-}" ] && args+=(--max-threads "$THREADS")
    run target/release/scaling "${args[@]}"
    exit 0
fi

# Cliff gate: the GEMM micro-kernel at the panel heights the planner
# actually picks must keep up with the n_blk = 8 it is usually benched
# at (the n_blk x 1 register block ran 28-row panels at 0.45x). The
# bench compares the two in one process, so host-state noise cancels.
run cargo bench --offline -q -p wino-bench --bench gemm -- --check

# Fusion shape gate: every table layer plans, every schedule runs, and the
# ring-fused forward_fx and the dual ring's forward equal the staged calls
# (the binary panics otherwise). The rule must put layers on both sides of
# the L2, and `train3d_jit`'s layer on the dual ring wherever the L2 holds
# its working set (the table's `l2_bytes` column: 2 MiB or more).
run target/release/fusion --reps 3 | tee target/fusion_smoke.csv
grep -q ',ring,' target/fusion_smoke.csv && grep -q ',staged,' target/fusion_smoke.csv || {
    echo "error: fusion table lacks a ring or a staged row" >&2
    exit 1
}
grep -q ',dual,' target/fusion_smoke.csv \
    || awk -F, '$6 ~ /^[0-9]+$/ && $6 >= 2097152 { big = 1 } END { exit big }' target/fusion_smoke.csv || {
    echo "error: fusion table lacks a dual row on a 2 MiB L2" >&2
    exit 1
}
echo "OK: bench smoke gates"
