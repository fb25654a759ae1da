#!/usr/bin/env bash
# Full local gate: build, test (with and without fault injection) and lint,
# each under a timeout so a hung fork–join can never wedge CI. Run from
# the repo root: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Generous wall-clock caps: the watchdog-path tests sleep deliberately,
# but nothing here should come close to these bounds.
BUILD_TIMEOUT=${BUILD_TIMEOUT:-900}
TEST_TIMEOUT=${TEST_TIMEOUT:-900}
ANALYZE_TIMEOUT=${ANALYZE_TIMEOUT:-240}

run() {
    echo "==> $*"
    timeout --kill-after=30 "$1" "${@:2}"
}

# As `run`, for `cargo test` invocations that pass name filters: a filter
# that matches nothing still exits 0, so a renamed test would silently
# empty its gate. Fails unless the run reports at least one test passed.
run_filtered() {
    local log passed
    log=$(mktemp)
    run "$@" 2>&1 | tee "$log"
    passed=$(awk '/^test result:/ { n += $4 } END { print n + 0 }' "$log")
    rm -f "$log"
    if [ "$passed" -eq 0 ]; then
        echo "error: no test matched the filters of: ${*:2}" >&2
        return 1
    fi
}

run "$BUILD_TIMEOUT" cargo build --workspace --offline --release
run "$BUILD_TIMEOUT" cargo build --workspace --offline --all-targets
# Feature matrix: default × fault-inject. Instrumentation is not a build
# configuration — the span tests run in both (a run is instrumented iff
# its executor carries a collector).
run "$TEST_TIMEOUT" cargo test --workspace --offline -q
run "$TEST_TIMEOUT" cargo test --workspace --offline -q --features fault-inject
run "$BUILD_TIMEOUT" cargo clippy --workspace --offline --all-targets -- -D warnings
run "$BUILD_TIMEOUT" cargo clippy --workspace --offline --all-targets --features fault-inject -- -D warnings

# Span gate: the tests that say what the one instrumentation gate is — a
# probed pass reports a `fork-join` per `run_grid` and the stage spans
# (three back to back under the ring's one fork–join, and under the dual
# ring's second, after its input transform's), a plain executor records
# nothing and reads no clock, the `ProbedExecutor` wrapper records, and
# the bench-level fold sees every stage. Named, so a rename cannot empty it.
run_filtered "$TEST_TIMEOUT" cargo test --offline -q -p wino-conv --lib -- \
    conv::tests::forward_is_four_fork_joins \
    conv::tests::a_fused_pass_reports_three_stage_spans \
    conv::tests::a_dual_pass_reports_four_stage_spans \
    conv::tests::a_plain_executor_records_nothing
run_filtered "$TEST_TIMEOUT" cargo test --offline -q -p wino-sched probed::
run_filtered "$TEST_TIMEOUT" cargo test --offline -q -p wino-bench --test probe

# ISA matrix: one binary carries the scalar, AVX2 and AVX-512 kernels,
# and `WINO_SIMD` (a test seam — it can only lower the backend) pins
# which one runs, so every backend this host supports goes through the
# gates below. `WINO_SIMD=scalar` is also the only configuration in which
# an AVX-512 host exercises the planned Jit → Mono fallback.
#
# Differential gate: ≥300 random layers across the full (stride, dilation,
# groups) lattice through the dispatch layer against the f64 geometry
# oracle. The seed is pinned (0xd1ff2026, the test's default) so CI
# failures reproduce locally byte-for-byte; the minimal-shrink reporter
# names the offender.
#
# Dispatch-matrix gate: the exhaustive (rank, stride, dilation, groups)
# grid must route every representable combination to its specified engine
# (direct / grouped Winograd — at any stride: stride is an epilogue, not
# a route — or the designed im2col fallback with the right typed reason),
# match the oracle, and surface the same provenance through `Network`
# reports; the geometry edge cases (stride > extent, dilation past the
# padding, depthwise, non-divisible groups) ride in the same gate.
#
# Stride gate: on every backend a strided layer's output must equal, bit
# for bit, the hand-subsampled output of the same layer planned at
# stride 1 (rank 1–3, strides 2 / 3 / mixed / larger than the extent,
# even kernels, dense and grouped, Mono and — under avx512 — JIT, every
# executor).
#
# Plus the cross-implementation equivalence battery (Winograd, direct,
# im2col, FFT against the f64 oracle) and the executor/JIT agreement
# tests, which compare runs *within* one backend.
#
# Codelet gate: the stages run build-time generated transform codelets and
# nothing else, so (named below — a rename must touch this script) every
# row of the table, F(1..=8, 1..=5), must equal the reference interpreter
# element for element (× Bᵀ/G/Aᵀ × rank 1–3 × every dimension, mixed
# kernel widths per dimension, plain and streaming stores), every tile the
# search or a re-tiling ladder can reach for every kernel width of the
# table must plan, and the table's edge is the planner's edge: F(8, 5)
# plans, F(9, 3) and r = 6 are `BadTileSize`, and an r = 7 layer runs
# im2col with `plan-failed` through the dispatcher and `Network`. Beside
# them (by module): the N-D driver on strided views, and stage 1 / stage 3
# writing exactly what gather + interpreter + clipped copy produce on
# interior *and* edge tiles (pad 0, pad 1, the ragged 158 = 26·6 + 2
# shape, kernels other than 3 wide; planned on a host that streams every
# store and on one that streams none).
#
# Schedule gate: on every backend the ring-fused driver and the dual ring
# (`fused::forward_dual`: the input transform, then one fork–join whose
# tasks transform a block of kernels into their ring and multiply it
# there) must equal the public stage calls bit for bit — the ring on rank
# 1–3, ragged and straddling panels and tail panels; the dual on one and
# two reduction blocks, rank 2 and 3, column groups not a multiple of the
# thread count, rows past MAX_N_BLK and `train3d_jit`'s layer (the dual
# at one vector each way, the three stages at Eq. 11's) — Mono and, under
# avx512, JIT, every executor incl. the more-threads-than-panels and
# more-threads-than-column-groups fallbacks. The dual tests are named
# below as well, so a rename cannot empty that half.
#
# Store-flavour gate: which stores bypass the cache is the plan's decision
# (`WinogradLayer::streams`), so both flavours are reachable only in-crate:
# `conv::tests::both_store_flavours_…` plans each layer of the schedule
# gate on a host that streams everything and on one that streams nothing
# — pinned staged, ring and dual (`plan::Host::test`), Mono and JIT, every
# executor — and asserts one set of output bits.
#
# Micro-kernel gate: the register-tiled stage-2 kernels must equal their
# own 1 × 1-tile walk bit for bit on every backend up to the pinned one
# (AVX2 cuts a 30-row panel into five strips of six), and under avx512
# the JIT's machine code must equal the Rust kernel bit for bit (the JIT
# tests skip themselves below it).
isas=(scalar)
grep -qw avx2 /proc/cpuinfo 2>/dev/null && grep -qw fma /proc/cpuinfo 2>/dev/null && isas+=(avx2)
grep -qw avx512f /proc/cpuinfo 2>/dev/null && isas+=(avx512)
for isa in "${isas[@]}"; do
    run_filtered "$TEST_TIMEOUT" env WINO_SIMD="$isa" WINO_SWEEP_SEED=3523158054 \
        cargo test --offline -q --test properties differential_geometry_sweep
    run "$TEST_TIMEOUT" env WINO_SIMD="$isa" \
        cargo test --offline -q --test dispatch_matrix --test tile_edge_cases \
        --test pipeline_equivalence --test parallel_and_jit
    run_filtered "$TEST_TIMEOUT" env WINO_SIMD="$isa" \
        cargo test --offline -q --test fused_equivalence
    run_filtered "$TEST_TIMEOUT" env WINO_SIMD="$isa" \
        cargo test --offline -q --test fused_equivalence -- \
        dual_forward_equals_the_three_stages_bit_for_bit \
        fewer_column_groups_than_threads_runs_the_three_stages
    run_filtered "$TEST_TIMEOUT" env WINO_SIMD="$isa" \
        cargo test --offline -q -p wino-conv --lib -- \
        codelet::tests::whole_tiles_equal_the_interpreter_exactly \
        vecprog::tests::every_backend_matches_dense_oracle \
        select::tests::every_candidate_and_every_ladder_step_stays_inside_the_table \
        select::tests::plans_end_where_the_table_ends
    run_filtered "$TEST_TIMEOUT" env WINO_SIMD="$isa" \
        cargo test --offline -q --test dispatch_matrix \
        a_kernel_wider_than_the_codelet_table_runs_im2col_with_provenance
    run_filtered "$TEST_TIMEOUT" env WINO_SIMD="$isa" \
        cargo test --offline -q -p wino-conv --lib -- \
        codelet:: vecprog:: stage1:: stage3:: select:: \
        dispatch::tests::strided_output_is_the_subsampled_stride1_output
    run_filtered "$TEST_TIMEOUT" env WINO_SIMD="$isa" \
        cargo test --offline -q -p wino-conv --lib -- conv::tests::both_store_flavours
    run "$TEST_TIMEOUT" env WINO_SIMD="$isa" \
        cargo test --offline -q -p wino-gemm -p wino-jit --lib
done

# Accuracy gate: (a) every practical F(m, r) must measure within its
# exact a-priori conditioning bound (the `accuracy` binary exits non-zero
# on a violation; its integer-point rows are conditioning only — the
# engine plans the mixed schedule); (b) the
# three smoke layers must come through budget-driven tile selection and a
# sentinel-sampled forward with zero trips; (c) the sentinel sample and
# verdicts must be executor-deterministic under the pinned CI seed;
# (d) the denormal-storm and silent-corruption regressions must be
# caught and rescued under fault injection, and (e) injected allocation
# refusals must be re-tiled, rescued or typed on every route — the `oom_*`
# tests are the only drivers of the degradation table's memory rows (there
# is no plan-time budget), so they are named here.
run "$TEST_TIMEOUT" cargo run --offline --release -q -p wino-bench --bin accuracy
run "$TEST_TIMEOUT" cargo run --offline --release -q -p wino-bench --bin accuracy -- \
    --sentinel-smoke
run "$TEST_TIMEOUT" env WINO_SWEEP_SEED=3523158054 \
    cargo test --offline -q --test sentinel
run_filtered "$TEST_TIMEOUT" cargo test --offline -q --features fault-inject \
    --test fault_injection -- denormal_storm silent_corruption \
    oom_during_plan_seeding_is_deferred_not_fatal oom_ladder_depth_tracks_shot_count \
    oom_injection_disarmed_is_a_clean_run oom_during_a_grouped_layer_is_rescued_or_typed \
    oom_during_a_strided_layer_is_rescued_or_typed oom_during_a_sentinel_demotion_is_rescued_or_typed

# Documentation gate: rustdoc must build warning-free (broken intra-doc
# links are the usual regression).
RUSTDOCFLAGS="-D warnings" run "$BUILD_TIMEOUT" cargo doc --workspace --offline --no-deps

# Static analysis gate: the workspace — including the transform codelets
# wino-conv's build script generated for this build — must lint clean
# (100% SAFETY / ORDERING coverage) and the model checker must clear its interleaving
# floor on the release binary. The binary runs every scenario under
# bounded DFS *and* DPOR and fails on its own if the two disagree on a
# verdict, a re-injected bug goes uncaught, or DPOR explores more
# interleavings than DFS on any scenario.
run "$ANALYZE_TIMEOUT" cargo run --offline --release -q -p wino-analyze --bin wino-lint
run "$TEST_TIMEOUT" cargo test --offline -q -p wino-analyze
run "$ANALYZE_TIMEOUT" cargo run --offline --release -q -p wino-analyze --bin wino-model -- \
    --min-interleavings 10000

# Serve-model gate: the five serve-contract scenarios plus the
# re-injected leaked-waiter bug (drop guard ordered after the state
# store) — ≥10k interleavings across the serve suite, and the checker
# must catch the seeded bug.
run "$ANALYZE_TIMEOUT" cargo run --offline --release -q -p wino-analyze --bin wino-model -- \
    --scenario serve- --scenario reinject-leaked-waiter \
    --execs 10000 --random 2000 --min-interleavings 10000

# Topology gate: the sysfs parser must round-trip the pinned fixture
# trees (1-socket, 2-socket SMT, CCX) through the WINO_TOPOLOGY spec
# grammar — the contract that lets CI pin any machine shape it wants.
run_filtered "$TEST_TIMEOUT" cargo test --offline -q -p wino-sched topology

# Observability gate: an instrumented smoke run must emit a perf report
# that validates against the versioned schema (docs/bench-schema.md).
scripts/bench.sh --smoke

# Scaling gate: a strong/weak thread sweep over the smoke layers must
# emit a valid schema-v5 scaling report, hold parallel efficiency ≥ 0.6
# at the host thread count on at least one smoke layer, and keep barrier
# skew under the probe budget (docs/scaling.md).
scripts/bench.sh --scaling-smoke

# Memory-accounting gate: the analytic `MemoryFootprint` model must
# price the allocator's real traffic within 10% — the per-component
# exact-match unit tests (a ring, a dual and a staged plan's scratch:
# `footprint::tests::scratch_component_matches_observed_allocation`) plus
# the end-to-end cold-start prediction test (plan + kernel memoisation +
# forward) in wino-conv. The model prices
# what the allocator will hand out and feeds serve admission (the rlimit
# soak below); it is not a plan-time admission test.
run_filtered "$TEST_TIMEOUT" cargo test --offline -q -p wino-conv footprint

# Serving gate: a fault-injected overload soak — ≥10k requests fired at
# ~2× the measured sustainable rate, with worker panics, barrier stalls
# and poisoned stages armed throughout the first half. The binary itself
# asserts the robustness contract (zero escaped panics, every request
# resolved to a typed outcome, conservation of tallies, breaker trips
# AND full recovery, pool rebuilds, admitted p99 within deadline) and
# exits non-zero on any violation; the emitted BENCH_serve.json must
# then validate against the same versioned schema as the perf reports.
# stderr is captured (and replayed) so the rlimit gate below can parse
# the `# modeled_footprint_bytes` line.
run "$TEST_TIMEOUT" cargo run --offline --release -q -p wino-bench \
    --features fault-inject --bin serve_load -- \
    --soak --requests 10000 --out target/BENCH_serve.json \
    2> target/serve_load.stderr \
    || { cat target/serve_load.stderr >&2; exit 1; }
cat target/serve_load.stderr >&2
run "$TEST_TIMEOUT" cargo run --offline --release -q -p wino-bench --bin perf -- \
    --validate target/BENCH_serve.json

# Rlimit gate: replay the soak under a hard address-space cap sized from
# the modeled footprint — 1.5× modeled plus a fixed 1 GiB of headroom
# for the process image, thread stacks and allocator arenas
# (MALLOC_ARENA_MAX bounds glibc's per-arena VA reservations) — with
# byte-budget admission engaged. The contract: zero aborts under the
# cap (any allocation refusal must surface as a typed outcome, walked
# through the memory ladder), and the report must still validate. The
# serve_load binary was just built with fault-inject by the soak above.
modeled=$(awk '/^# modeled_footprint_bytes /{print $3}' target/serve_load.stderr | tail -n 1)
[ -n "$modeled" ] && [ "$modeled" -gt 0 ]
cap_kib=$(( (modeled * 3 / 2 + 1073741824) / 1024 ))
echo "==> rlimit soak: modeled ${modeled} B, ulimit -v ${cap_kib} KiB"
run "$TEST_TIMEOUT" env MALLOC_ARENA_MAX=2 bash -c \
    "ulimit -v $cap_kib; exec target/release/serve_load \
     --soak --requests 10000 --memory-ceiling-mib 64 \
     --out target/BENCH_serve_rlimit.json"
run "$TEST_TIMEOUT" cargo run --offline --release -q -p wino-bench --bin perf -- \
    --validate target/BENCH_serve_rlimit.json

# Benchmark gate: `benchmark/` is its own workspace, so nothing above
# compiles it — a rename in wino-conv / wino-serve would break the repo's
# benchmark silently. Build it, run its unit tests, and run every workload
# once with 1-second windows: shape only (it must link, run and emit a
# well-formed summary), no thresholds — those are the driver's, from
# BENCHMARK.json.
run "$BUILD_TIMEOUT" cargo build --release --offline --manifest-path benchmark/Cargo.toml
run "$TEST_TIMEOUT" cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
run "$TEST_TIMEOUT" bash benchmark/run.sh --quick

echo "All checks passed."
