#!/usr/bin/env bash
# Perf-report driver: build the instrumented harness, run the `perf`
# binary over the layer catalogue, and validate the emitted JSON against
# the versioned schema (docs/bench-schema.md). Run from the repo root:
#
#   scripts/bench.sh            → BENCH_<date>.json at the repo root
#                                 (full scaled catalogue × {direct,
#                                 im2col, best-Winograd})
#   scripts/bench.sh --smoke    → target/BENCH_smoke.json (three pinned
#                                 layers, 1 rep, plus the first 2-D one
#                                 under stride 2 and under groups 2: the
#                                 routed engine — a strided layer's row
#                                 is its stride-1 plan plus the
#                                 subsample, labelled by the engine, e.g.
#                                 `winograd-mono F(4x4) s2x2` — against
#                                 the geometry-aware im2col row of the
#                                 same run — the CI gate; also fails
#                                 if the report says machine.simd =
#                                 "scalar" on a CPU with AVX2+FMA while
#                                 WINO_SIMD is unset, or if the Mono GEMM
#                                 at the widest planned n_blk runs below
#                                 0.8x its own n_blk = 8 rate; then runs
#                                 the `fusion` binary at 3 reps for shape
#                                 only — it asserts ring, dual == staged
#                                 bit for bit itself, and the table must
#                                 hold a ring and a staged row, and a dual
#                                 one on an L2 of 2 MiB or more — no timing
#                                 gate: this host's spread is +-20 %)
#   scripts/bench.sh --scaling-smoke
#                               → target/BENCH_scaling.json (strong/weak
#                                 thread sweep over the smoke layers; the
#                                 binary's --check gate asserts parallel
#                                 efficiency ≥ 0.6 at the host thread
#                                 count and barrier skew under the probe
#                                 budget — see docs/scaling.md)
#
# Environment: THREADS (default: all cores; scaling: the sweep's
# --max-threads), REPS (default 3; smoke modes: 1–2), BENCH_TIMEOUT
# seconds (default 1800).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_TIMEOUT=${BENCH_TIMEOUT:-1800}

MODE=full
for a in "$@"; do
    case "$a" in
        --smoke) MODE=smoke ;;
        --scaling-smoke) MODE=scaling ;;
        *)
            echo "usage: scripts/bench.sh [--smoke | --scaling-smoke]" >&2
            exit 2
            ;;
    esac
done

run() {
    echo "==> $*"
    timeout --kill-after=30 "$BENCH_TIMEOUT" "$@"
}

run cargo build --offline --release -p wino-bench

if [ "$MODE" = scaling ]; then
    out=target/BENCH_scaling.json
    args=(--date "$(date -u +%F)" --reps "${REPS:-2}" --check)
    [ -n "${THREADS:-}" ] && args+=(--max-threads "$THREADS")
    run target/release/scaling "${args[@]}" --out "$out"
    run target/release/scaling --validate "$out"
    echo "OK: $out"
    exit 0
fi

args=(--date "$(date -u +%F)")
[ -n "${THREADS:-}" ] && args+=(--threads "$THREADS")

if [ "$MODE" = smoke ]; then
    out=target/BENCH_smoke.json
    args+=(--reps "${REPS:-1}")
else
    out="BENCH_$(date -u +%F).json"
    args+=(--all --reps "${REPS:-3}")
fi

run target/release/perf "${args[@]}" --out "$out"
run target/release/perf --validate "$out"

# Wrong-ISA gate: numbers measured on the scalar backend of a vector
# machine are not numbers. /proc/cpuinfo is consulted rather than
# wino-simd so the check does not share a bug with what it checks.
if [ "$MODE" = smoke ] && [ -z "${WINO_SIMD:-}" ] \
    && grep -Eq '"simd": *"scalar"' "$out" \
    && grep -qw avx2 /proc/cpuinfo 2>/dev/null && grep -qw fma /proc/cpuinfo 2>/dev/null; then
    echo "error: $out reports machine.simd = scalar, but this CPU has AVX2+FMA" >&2
    exit 1
fi

# Cliff gate: the GEMM micro-kernel at the panel heights the planner
# actually picks must keep up with the n_blk = 8 it is usually benched
# at (the n_blk x 1 register block ran 28-row panels at 0.45x). The
# bench compares the two in one process, so host-state noise cancels.
if [ "$MODE" = smoke ]; then
    run cargo bench --offline -q -p wino-bench --bench gemm -- --check
fi

# Fusion shape gate: every table layer plans, every schedule runs, and the
# ring-fused forward_fx and the dual ring's forward equal the staged calls
# (the binary panics otherwise). The rule must put layers on both sides of
# the L2, and `train3d_jit`'s layer on the dual ring wherever the L2 holds
# its working set (the table's `l2_bytes` column: 2 MiB or more).
if [ "$MODE" = smoke ]; then
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
fi
echo "OK: $out"
