//! Fault-injection harness: end-to-end exercises of every recovery path
//! in the execution layer, driven by the `wino_sched::fault` hooks.
//!
//! Compile and run with `cargo test --features fault-inject`. Without the
//! feature the whole file compiles to nothing — release builds carry no
//! injection hooks.
//!
//! The armed fault is process-global, so every test serialises itself via
//! [`fault::test_lock`] and disarms on entry and exit.

#![cfg(feature = "fault-inject")]

use std::time::{Duration, Instant};

use winograd_nd_repro::conv::{
    Activation, ConvOptions, ExecutionReport, FallbackPolicy, FallbackReason, LayerBackend,
    LayerSpec, Network, Stage2Backend, WinoError,
};
use winograd_nd_repro::probe::Counter;
use winograd_nd_repro::sched::fault::{self, CorruptKind, When};
use winograd_nd_repro::sched::{BarrierError, PoolError, SerialExecutor, StaticExecutor};
use winograd_nd_repro::tensor::{BlockedImage, BlockedKernels, SimpleImage, SimpleKernels};

const THREADS: usize = 4;

fn spec(m: &[usize]) -> LayerSpec {
    LayerSpec {
        out_channels: 16,
        kernel: vec![3, 3],
        padding: vec![1, 1],
        m: m.to_vec(),
        activation: Activation::None,
    }
}

fn test_net(m: &[usize], policy: &FallbackPolicy) -> Network {
    Network::with_policy(1, 16, &[8, 8], &[spec(m)], ConvOptions::default(), THREADS, policy)
        .expect("test layer must plan")
}

/// What a dense layer on the default stage-2 engine reports: the JIT on
/// an AVX-512 host, Mono below it.
fn engine() -> LayerBackend {
    match Stage2Backend::default() {
        Stage2Backend::Jit => LayerBackend::WinogradJit,
        Stage2Backend::Mono => LayerBackend::WinogradMono,
    }
}

fn test_data() -> (BlockedImage, BlockedKernels) {
    let img = SimpleImage::from_fn(1, 16, &[8, 8], |_, c, xy| {
        ((c * 7 + xy[0] * 3 + xy[1]) % 23) as f32 * 0.04 - 0.4
    });
    let ker = SimpleKernels::from_fn(16, 16, &[3, 3], |co, ci, xy| {
        ((co * 5 + ci * 11 + xy[0] + xy[1] * 2) % 17) as f32 * 0.05 - 0.4
    });
    (BlockedImage::from_simple(&img).unwrap(), BlockedKernels::from_simple(&ker).unwrap())
}

/// Ground truth: the same layer run cleanly with the serial executor.
fn clean_reference(m: &[usize]) -> BlockedImage {
    let mut net = test_net(m, &FallbackPolicy::strict());
    let (input, kernels) = test_data();
    net.forward(&input, &[kernels], &SerialExecutor).expect("clean reference run")
}

fn assert_close(got: &BlockedImage, want: &BlockedImage, tol: f32, ctx: &str) {
    let (g, w) = (got.as_slice(), want.as_slice());
    assert_eq!(g.len(), w.len(), "{ctx}: length mismatch");
    for (i, (a, b)) in g.iter().zip(w).enumerate() {
        assert!((a - b).abs() <= tol * b.abs().max(1.0), "{ctx}: elem {i}: {a} vs {b}");
    }
}

/// A worker panicking mid-layer surfaces as `WinoError::Pool` with the
/// faulting tid attributed — and the *same* pool then runs a clean layer,
/// because panics are contained and every participant still crosses the
/// end barrier.
#[test]
fn worker_panic_is_contained_and_pool_survives() {
    let _guard = fault::test_lock();
    fault::reset();

    let exec = StaticExecutor::new(THREADS);
    let mut net = test_net(&[2, 2], &FallbackPolicy::default());
    let (input, kernels) = test_data();

    fault::arm_panic(2, When::Next);
    let t0 = Instant::now();
    let err = net
        .run_layer(0, &input, &kernels, &exec, &FallbackPolicy::default())
        .expect_err("injected panic must surface");
    assert!(t0.elapsed() < Duration::from_secs(10), "panic path must not hang");
    match &err {
        WinoError::Pool(PoolError::Panicked { panics }) => {
            assert!(
                panics.iter().any(|(tid, msg)| *tid == 2 && msg.contains("injected fault")),
                "panic must be attributed to tid 2: {panics:?}"
            );
        }
        other => panic!("expected Pool(Panicked), got {other:?}"),
    }
    assert!(!exec.pool().is_dead(), "a contained panic must not kill the pool");

    // Same pool, clean layer: full recovery, correct numerics.
    let (out, report) = net
        .run_layer(0, &input, &kernels, &exec, &FallbackPolicy::default())
        .expect("pool must be reusable after a contained panic");
    assert_eq!(report.backend, engine());
    assert_eq!(report.fallback, None);
    assert_close(&out, &clean_reference(&[2, 2]), 1e-5, "post-panic rerun");

    fault::reset();
}

/// A participant that never reaches the end barrier trips the watchdog:
/// the caller gets `BarrierError::Timeout` with arrival accounting well
/// before the stall resolves, and the pool is dead (poisoned) afterwards.
#[test]
fn barrier_stall_trips_watchdog_and_poisons_pool() {
    let _guard = fault::test_lock();
    fault::reset();

    let deadline = Duration::from_millis(200);
    let exec = StaticExecutor::with_deadline(THREADS, deadline);
    let mut net = test_net(&[2, 2], &FallbackPolicy::default());
    let (input, kernels) = test_data();

    fault::arm_stall(1, When::Next, Duration::from_millis(1500));
    let t0 = Instant::now();
    let err = net
        .run_layer(0, &input, &kernels, &exec, &FallbackPolicy::default())
        .expect_err("stalled participant must trip the watchdog");
    let waited_for = t0.elapsed();
    assert!(
        waited_for < Duration::from_millis(1200),
        "watchdog must fire before the stall resolves (took {waited_for:?})"
    );
    match &err {
        WinoError::Pool(PoolError::Barrier(BarrierError::Timeout { arrived, expected, .. })) => {
            assert_eq!(*expected, THREADS, "calling thread is tid 0, workers 1..N");
            assert!(*arrived < *expected, "the stalled tid must be missing");
        }
        other => panic!("expected Pool(Barrier(Timeout)), got {other:?}"),
    }
    assert!(exec.pool().is_dead(), "a tripped watchdog must kill the pool");

    // The dead pool refuses further work instead of hanging.
    let err = net
        .run_layer(0, &input, &kernels, &exec, &FallbackPolicy::default())
        .expect_err("dead pool must refuse work");
    assert!(
        matches!(err, WinoError::Pool(PoolError::Unusable)),
        "expected Pool(Unusable), got {err:?}"
    );
    // Dropping `exec` at scope end must not hang even with the worker
    // still asleep — covered implicitly by the test completing.
    fault::reset();
}

/// A NaN injected into any of the three Winograd stages trips the numeric
/// guard; with the default policy the layer transparently re-executes via
/// im2col, matching the clean result, and the report says why.
#[test]
fn poisoned_stage_degrades_to_im2col() {
    let _guard = fault::test_lock();

    let reference = clean_reference(&[2, 2]);
    for stage in 1u8..=3 {
        fault::reset();
        let exec = StaticExecutor::new(THREADS);
        let mut net = test_net(&[2, 2], &FallbackPolicy::default());
        let (input, kernels) = test_data();

        fault::arm_poison_stage(stage);
        let (out, report) = net
            .run_layer(0, &input, &kernels, &exec, &FallbackPolicy::default())
            .unwrap_or_else(|e| panic!("stage {stage} poison must be rescued: {e}"));
        assert_eq!(report.backend, LayerBackend::Im2col, "stage {stage}");
        assert!(
            matches!(report.fallback, Some(FallbackReason::NumericGuard(_))),
            "stage {stage}: report must carry the guard reason, got {:?}",
            report.fallback
        );
        assert_close(&out, &reference, 1e-4, &format!("stage {stage} im2col rescue"));
    }
    fault::reset();
}

/// The same on the routes whose output stage 3 does not write itself — a
/// grouped layer's channel copies and a strided layer's subsample — under
/// a ReLU: the guard's one pass over the output sees the NaN before the
/// ReLU could hide it.
#[test]
fn poisoned_grouped_and_strided_layers_degrade_to_im2col() {
    let _guard = fault::test_lock();
    let policy = FallbackPolicy::default();
    for opts in [ConvOptions::default().with_groups(2), ConvOptions::default().with_stride(&[2, 2])] {
        let (_, input, kernels) = geo_net(opts, &policy);
        let spec = LayerSpec { out_channels: WIDE, activation: Activation::Relu, ..spec(&[2, 2]) };
        let net = || Network::with_policy(1, WIDE, &[8, 8], std::slice::from_ref(&spec), opts, THREADS, &policy);
        fault::reset();
        let exec = StaticExecutor::new(THREADS);
        let (reference, _) = net().unwrap().run_layer(0, &input, &kernels, &exec, &policy).expect("clean run");
        for stage in 1u8..=3 {
            fault::reset();
            fault::arm_poison_stage(stage);
            let (out, report) = net()
                .unwrap()
                .run_layer(0, &input, &kernels, &exec, &policy)
                .unwrap_or_else(|e| panic!("{opts:?} stage {stage} poison must be rescued: {e}"));
            assert_eq!(report.backend, LayerBackend::Im2col, "{opts:?} stage {stage}");
            assert!(matches!(report.fallback, Some(FallbackReason::NumericGuard(_))), "{opts:?} stage {stage}");
            assert_close(&out, &reference, 1e-4, &format!("{opts:?} stage {stage} im2col rescue"));
        }
    }
    fault::reset();
}

/// A layer with no valid Winograd plan (tile far larger than the image)
/// is planned and executed via im2col under the permissive policy, with
/// the plan failure visible in the report — and the output still matches
/// the clean Winograd reference.
#[test]
fn unplannable_layer_runs_via_im2col_with_visible_reason() {
    let _guard = fault::test_lock();
    fault::reset();

    let exec = StaticExecutor::new(THREADS);
    let mut net = test_net(&[40, 40], &FallbackPolicy::default());
    let (input, kernels) = test_data();

    let (out, report) = net
        .run_layer(0, &input, &kernels, &exec, &FallbackPolicy::default())
        .expect("im2col-planned layer must run");
    assert_eq!(report.backend, LayerBackend::Im2col);
    assert!(
        matches!(report.fallback, Some(FallbackReason::PlanFailed(_))),
        "report must carry the plan failure, got {:?}",
        report.fallback
    );
    assert_close(&out, &clean_reference(&[2, 2]), 1e-4, "im2col-planned layer");

    fault::reset();
}

/// Whole-net degradation reporting: one poisoned layer in a two-layer net
/// yields per-layer reports with the rescue attributed to the right layer.
#[test]
fn run_net_reports_attribute_fallbacks_per_layer() {
    let _guard = fault::test_lock();
    fault::reset();

    let exec = StaticExecutor::new(THREADS);
    let specs = [spec(&[2, 2]), spec(&[2, 2])];
    let mut net = Network::with_policy(
        1,
        16,
        &[8, 8],
        &specs,
        ConvOptions::default(),
        THREADS,
        &FallbackPolicy::default(),
    )
    .unwrap();
    let (input, kernels) = test_data();
    let kernel_sets = vec![kernels.clone(), kernels];

    // Clean run for reference.
    let (want, clean_reports) = net
        .run_net(&input, &kernel_sets, &exec, &FallbackPolicy::default())
        .expect("clean run");
    assert!(clean_reports.iter().all(|r: &ExecutionReport| r.fallback.is_none()));

    // Poison fires during layer 0's stage 2; layer 1 must run clean.
    fault::arm_poison_stage(2);
    let (got, reports) = net
        .run_net(&input, &kernel_sets, &exec, &FallbackPolicy::default())
        .expect("poisoned run must be rescued");
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[0].layer, 0);
    assert_eq!(reports[0].backend, LayerBackend::Im2col);
    assert!(matches!(reports[0].fallback, Some(FallbackReason::NumericGuard(_))));
    assert_eq!(reports[1].backend, engine());
    assert_eq!(reports[1].fallback, None);
    assert_close(&got, &want, 1e-4, "two-layer rescue");

    fault::reset();
}

/// The dual ring — a layer whose `V̂` outweighs its `Û`, run without ever
/// materialising `V̂` — honours the same hooks from inside its two
/// fork–joins: a NaN in any stage is caught by the guard and rescued by
/// im2col, and a finite corruption of its chunks trips the sentinel.
#[test]
fn the_dual_ring_honours_every_stage_hook() {
    use winograd_nd_repro::gemm::BlockShape;
    let _guard = fault::test_lock();

    // Two 16-channel reduction blocks (the ring turns the layer down),
    // 16 rows and four 16-wide column groups, one per thread.
    let block = Some(BlockShape { n_blk: 6, c_blk: 16, cp_blk: 16 });
    let opts = ConvOptions { block, ..Default::default() };
    let layer = [LayerSpec { out_channels: 64, ..spec(&[2, 2]) }];
    let net = |policy: &FallbackPolicy| {
        let net = Network::with_policy(1, 32, &[8, 8], &layer, opts, THREADS, policy).unwrap();
        assert!(net.layers()[0].plan.winograd().is_some_and(|p| p.is_dual()));
        net
    };
    let img = SimpleImage::from_fn(1, 32, &[8, 8], |_, c, xy| {
        ((c * 7 + xy[0] * 3 + xy[1]) % 23) as f32 * 0.04 - 0.4
    });
    let ker = SimpleKernels::from_fn(64, 32, &[3, 3], |co, ci, xy| {
        ((co * 5 + ci * 11 + xy[0] + xy[1] * 2) % 17) as f32 * 0.05 - 0.4
    });
    let (input, kernels) =
        (BlockedImage::from_simple(&img).unwrap(), BlockedKernels::from_simple(&ker).unwrap());
    fault::reset();
    let reference = net(&FallbackPolicy::strict())
        .forward(&input, std::slice::from_ref(&kernels), &SerialExecutor)
        .expect("clean reference run");

    for stage in 1u8..=3 {
        fault::reset();
        let policy = FallbackPolicy::default();
        fault::arm_poison_stage(stage);
        let (out, report) = net(&policy)
            .run_layer(0, &input, &kernels, &StaticExecutor::new(THREADS), &policy)
            .unwrap_or_else(|e| panic!("stage {stage} poison must be rescued: {e}"));
        assert_eq!(report.backend, LayerBackend::Im2col, "stage {stage}");
        assert!(matches!(report.fallback, Some(FallbackReason::NumericGuard(_))), "stage {stage}");
        assert_close(&out, &reference, 1e-4, &format!("stage {stage} im2col rescue"));
    }
    for kind in [CorruptKind::SilentBias, CorruptKind::BitFlip, CorruptKind::DenormalStorm] {
        fault::reset();
        let policy = sentinel_all();
        fault::arm_corrupt(2, kind, 1);
        let (out, report) = net(&policy)
            .run_layer(0, &input, &kernels, &StaticExecutor::new(THREADS), &policy)
            .unwrap_or_else(|e| panic!("{kind:?} must be rescued, not an error: {e}"));
        assert!(matches!(report.fallback, Some(FallbackReason::SentinelTrip(_))), "{kind:?}");
        assert_close(&out, &reference, 1e-4, &format!("{kind:?} rescue"));
    }
    fault::reset();
}

// ---------------------------------------------------------------------------
// Silent-corruption injection vs the accuracy sentinels. These corruptions
// are all *finite* — `check_finite` provably cannot see them — so they
// isolate the sentinel's sampled f64 re-verification as the only detector.
// ---------------------------------------------------------------------------

/// A sentinel policy that samples every output tile, so a corruption in
/// *any* tile is guaranteed to be seen (catch-rate tests should not be
/// probabilistic).
fn sentinel_all() -> FallbackPolicy {
    FallbackPolicy::with_sentinel(u32::MAX, 0x5e97)
}

/// Worst element-wise deviation between two images (to prove an
/// *undetected* corruption actually corrupted the output).
fn max_abs_diff(a: &BlockedImage, b: &BlockedImage) -> f32 {
    a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
}

/// Silent data corruption (a finite bias over part of the transformed
/// output) trips the sentinel, and the layer is re-executed to a correct
/// result with the trip recorded in the report. `m = [2, 2]` cannot be
/// demoted, so the ladder goes straight to im2col.
#[test]
fn silent_corruption_is_caught_and_rescued() {
    let _guard = fault::test_lock();

    let reference = clean_reference(&[2, 2]);
    for kind in [CorruptKind::SilentBias, CorruptKind::BitFlip, CorruptKind::DenormalStorm] {
        fault::reset();
        let exec = StaticExecutor::new(THREADS);
        let policy = sentinel_all();
        let mut net = test_net(&[2, 2], &policy);
        let (input, kernels) = test_data();

        let trips_before = Counter::SentinelTrips.get();
        fault::arm_corrupt(2, kind, 1);
        let (out, report) = net
            .run_layer(0, &input, &kernels, &exec, &policy)
            .unwrap_or_else(|e| panic!("{kind:?} must be rescued, not an error: {e}"));
        assert_eq!(report.backend, LayerBackend::Im2col, "{kind:?}");
        match report.fallback {
            Some(FallbackReason::SentinelTrip(e)) => {
                assert!(e.rel_err > e.bound, "{kind:?}: trip must exceed the a-priori bound");
            }
            other => panic!("{kind:?}: expected SentinelTrip, got {other:?}"),
        }
        assert!(Counter::SentinelTrips.get() > trips_before, "{kind:?}: trip counter");
        assert_close(&out, &reference, 1e-4, &format!("{kind:?} im2col rescue"));
    }
    fault::reset();
}

/// Negative control: with sampling disabled the same corruption sails
/// through undetected — wrong output, clean report, zero sentinel work.
/// (This is what makes the sentinel's catch rate a real claim.)
#[test]
fn corruption_with_sampling_disabled_goes_undetected() {
    let _guard = fault::test_lock();
    fault::reset();

    let reference = clean_reference(&[2, 2]);
    let exec = StaticExecutor::new(THREADS);
    let policy = FallbackPolicy::default(); // sentinel.samples == 0
    let mut net = test_net(&[2, 2], &policy);
    let (input, kernels) = test_data();

    let checked_before = Counter::SentinelTilesChecked.get();
    let trips_before = Counter::SentinelTrips.get();
    fault::arm_corrupt(2, CorruptKind::SilentBias, 1);
    let (out, report) = net
        .run_layer(0, &input, &kernels, &exec, &policy)
        .expect("finite corruption must not error without sentinels");
    assert_eq!(report.backend, engine());
    assert_eq!(report.fallback, None, "no detector ran, so nothing to report");
    assert!(
        max_abs_diff(&out, &reference) > 1.0,
        "the corruption must actually have landed in the output"
    );
    assert_eq!(Counter::SentinelTilesChecked.get(), checked_before, "samples=0 checks nothing");
    assert_eq!(Counter::SentinelTrips.get(), trips_before);

    fault::reset();
}

/// One corruption shot with a demotable tile: the ladder's first rung.
/// The re-run at `m - 2` is clean (the shot is spent), re-verifies, and
/// the report says `WinogradDemoted` with the original trip attached.
#[test]
fn sentinel_trip_demotes_the_tile_and_recovers() {
    let _guard = fault::test_lock();
    fault::reset();

    let reference = clean_reference(&[4, 4]);
    let exec = StaticExecutor::new(THREADS);
    let policy = sentinel_all();
    let mut net = test_net(&[4, 4], &policy);
    let (input, kernels) = test_data();

    let demotions_before = Counter::SentinelDemotions.get();
    fault::arm_corrupt(2, CorruptKind::SilentBias, 1);
    let (out, report) = net
        .run_layer(0, &input, &kernels, &exec, &policy)
        .expect("demotion must recover the layer");
    assert_eq!(report.backend, LayerBackend::WinogradDemoted);
    assert!(matches!(report.fallback, Some(FallbackReason::SentinelTrip(_))));
    assert!(Counter::SentinelDemotions.get() > demotions_before);
    assert_close(&out, &reference, 1e-4, "demoted re-run");

    fault::reset();
}

/// Two corruption shots: the demoted re-run is corrupted too, so the
/// ladder falls through its last rung to im2col — which runs no Winograd
/// stage 2 and therefore cannot be hit by the armed fault.
#[test]
fn persistent_corruption_falls_through_demotion_to_im2col() {
    let _guard = fault::test_lock();
    fault::reset();

    let reference = clean_reference(&[4, 4]);
    let exec = StaticExecutor::new(THREADS);
    let policy = sentinel_all();
    let mut net = test_net(&[4, 4], &policy);
    let (input, kernels) = test_data();

    let rescues_before = Counter::SentinelRescues.get();
    fault::arm_corrupt(2, CorruptKind::SilentBias, 2);
    let (out, report) = net
        .run_layer(0, &input, &kernels, &exec, &policy)
        .expect("im2col must rescue persistent corruption");
    assert_eq!(report.backend, LayerBackend::Im2col);
    assert!(matches!(report.fallback, Some(FallbackReason::SentinelTrip(_))));
    assert!(Counter::SentinelRescues.get() > rescues_before);
    assert_close(&out, &reference, 1e-4, "im2col rescue after corrupt demotion");

    fault::reset();
}

// ---------------------------------------------------------------------------
// OOM battery: injected allocation refusals (`wino_simd::fault`) against
// every layer of the resource-exhaustion story — plan-time scratch seeding,
// the run-time memory ladder, and the serving hot path; the only drivers
// of the table's memory rows. The memory injector is process-global like
// the worker-fault hooks, so these tests share [`fault::test_lock`].
// ---------------------------------------------------------------------------

use winograd_nd_repro::simd::fault as mem_fault;

/// Refused allocations during network construction hit only the scratch
/// pre-seeding, which is an optimisation: planning succeeds, the slots
/// stay empty, and the first forward after pressure lifts rebuilds them
/// and runs clean.
#[test]
fn oom_during_plan_seeding_is_deferred_not_fatal() {
    let _guard = fault::test_lock();
    fault::reset();
    mem_fault::reset();

    mem_fault::arm_fail_every(1, u32::MAX);
    let mut net = test_net(&[2, 2], &FallbackPolicy::default());
    let refused = mem_fault::injected_failures();
    assert!(refused > 0, "seeding must have consulted the armed injector");
    mem_fault::reset();

    let (input, kernels) = test_data();
    let (out, report) = net
        .run_layer(0, &input, &kernels, &SerialExecutor, &FallbackPolicy::default())
        .expect("pressure lifted: the unseeded net must run");
    assert_eq!(report.backend, engine());
    assert_eq!(report.fallback, None);
    assert_close(&out, &clean_reference(&[2, 2]), 1e-5, "post-seeding-refusal run");
}

/// The run-time degradation ladder, rung by rung: each additional
/// injected failure pushes the outcome one step further down — larger-`m`
/// re-tile (`WinogradDemoted`), then the im2col rescue, then the typed
/// `WinoError::Alloc`. The outcome class must be monotone in the shot
/// count, every rung must be reachable, and each successful rescue must
/// still be numerically correct.
#[test]
fn oom_ladder_depth_tracks_shot_count() {
    let _guard = fault::test_lock();
    fault::reset();

    let reference = clean_reference(&[2, 2]);
    let policy = FallbackPolicy::default();
    // 0 = demoted re-tile, 1 = im2col rescue, 2 = typed failure.
    let mut classes = Vec::new();
    for shots in 1..=8u32 {
        mem_fault::reset();
        let mut net = test_net(&[2, 2], &policy);
        let (input, kernels) = test_data();
        let demotions = Counter::MemoryDemotions.get();
        let rescues = Counter::MemoryRescues.get();
        mem_fault::arm_fail_every(1, shots);
        let class = match net.run_layer(0, &input, &kernels, &SerialExecutor, &policy) {
            Ok((out, report)) => {
                assert!(
                    matches!(report.fallback, Some(FallbackReason::Memory { .. })),
                    "shots={shots}: survivors must report the memory reason, got {:?}",
                    report.fallback
                );
                match report.backend {
                    LayerBackend::WinogradDemoted => {
                        assert!(
                            Counter::MemoryDemotions.get() > demotions,
                            "shots={shots}: demotion must be counted"
                        );
                        // Looser than the other rescues: the memory
                        // ladder re-tiles towards *larger* m (up to
                        // F(8,3)), whose transforms are markedly less
                        // accurate than the m=2 reference.
                        assert_close(&out, &reference, 1e-2, "demoted re-tile");
                        0
                    }
                    LayerBackend::Im2col => {
                        assert!(
                            Counter::MemoryRescues.get() > rescues,
                            "shots={shots}: rescue must be counted"
                        );
                        assert_close(&out, &reference, 1e-4, "im2col rescue");
                        1
                    }
                    other => panic!("shots={shots}: unexpected backend {other:?}"),
                }
            }
            Err(WinoError::Alloc(cause)) => {
                assert!(cause.injected, "shots={shots}: failure must be the injected one");
                2
            }
            Err(other) => panic!("shots={shots}: expected Alloc, got {other:?}"),
        };
        assert_eq!(
            mem_fault::injected_failures().min(1),
            1,
            "shots={shots}: at least one shot must have landed"
        );
        classes.push(class);
        mem_fault::reset();
    }
    assert_eq!(classes[0], 0, "one refusal must be absorbed by a re-tile: {classes:?}");
    assert!(classes.contains(&1), "the im2col rung must be reachable: {classes:?}");
    assert_eq!(*classes.last().unwrap(), 2, "total pressure must fail typed: {classes:?}");
    assert!(
        classes.windows(2).all(|w| w[0] <= w[1]),
        "ladder depth must be monotone in shot count: {classes:?}"
    );

    // Under total pressure with every rescue disabled, the very first
    // refusal is the typed error — no ladder, no abort.
    mem_fault::reset();
    let strict = FallbackPolicy::strict();
    let mut net = test_net(&[2, 2], &strict);
    let (input, kernels) = test_data();
    mem_fault::arm_fail_every(1, u32::MAX);
    let err = net
        .run_layer(0, &input, &kernels, &SerialExecutor, &strict)
        .expect_err("strict policy must surface the refusal");
    assert!(matches!(err, WinoError::Alloc(c) if c.injected), "got {err:?}");
    assert_eq!(mem_fault::injected_failures(), 1, "strict path stops at the first shot");
    mem_fault::reset();
}

/// Negative control: with the injector disarmed the identical layer runs
/// clean — no fallback, no ladder counters, zero injected failures. This
/// is what makes the battery's positive results attributable to the
/// injector rather than ambient allocator behaviour.
#[test]
fn oom_injection_disarmed_is_a_clean_run() {
    let _guard = fault::test_lock();
    fault::reset();
    mem_fault::reset();

    let demotions = Counter::MemoryDemotions.get();
    let rescues = Counter::MemoryRescues.get();
    let mut net = test_net(&[2, 2], &FallbackPolicy::default());
    let (input, kernels) = test_data();
    let (out, report) = net
        .run_layer(0, &input, &kernels, &SerialExecutor, &FallbackPolicy::default())
        .expect("clean run");
    assert_eq!(report.backend, engine());
    assert_eq!(report.fallback, None);
    assert_eq!(mem_fault::injected_failures(), 0);
    assert_eq!(Counter::MemoryDemotions.get(), demotions);
    assert_eq!(Counter::MemoryRescues.get(), rescues);
    assert_close(&out, &clean_reference(&[2, 2]), 1e-5, "disarmed control");
}

/// Denormal storm under the serial executor: the coordinator thread *is*
/// the compute thread, so the FTZ/DAZ guard engaged by the execution
/// layer covers all stage arithmetic. The storm's subnormals are still
/// numerically wrong (the true values they overwrote were not ~0), so
/// the sentinel must catch them — and the FTZ guard must demonstrably
/// have been engaged for the layer.
#[test]
fn denormal_storm_is_caught_under_serial_executor_with_ftz_engaged() {
    let _guard = fault::test_lock();
    fault::reset();

    let reference = clean_reference(&[2, 2]);
    let policy = sentinel_all();
    let mut net = test_net(&[2, 2], &policy);
    let (input, kernels) = test_data();

    let engaged_before = winograd_nd_repro::simd::denormals::engaged_count();
    fault::arm_corrupt(2, CorruptKind::DenormalStorm, 1);
    let (out, report) = net
        .run_layer(0, &input, &kernels, &SerialExecutor, &policy)
        .expect("storm must be rescued");
    assert_eq!(report.backend, LayerBackend::Im2col);
    assert!(matches!(report.fallback, Some(FallbackReason::SentinelTrip(_))));
    assert!(
        winograd_nd_repro::simd::denormals::engaged_count() > engaged_before,
        "the execution layer must engage the FTZ/DAZ guard around the layer"
    );
    assert_close(&out, &reference, 1e-4, "denormal-storm rescue");

    fault::reset();
}

// ---------------------------------------------------------------------------
// OOM battery, continued: the routes and rescues that used to allocate
// through aborting constructors (`Scratch::new` per grouped / strided
// forward and in the sentinel demotion). Every refusal must now surface as
// a typed `WinoError::Alloc` inside the engine and walk the degradation
// table: the outcome is a rescued, numerically correct output or the
// typed error — never an abort.
// ---------------------------------------------------------------------------

const WIDE: usize = 32;

/// A one-layer 32 → 32 channel network under `opts`' geometry, with its
/// grouped-convention kernels and input.
fn geo_net(opts: ConvOptions, policy: &FallbackPolicy) -> (Network, BlockedImage, BlockedKernels) {
    let spec = LayerSpec { out_channels: WIDE, ..spec(&[2, 2]) };
    let net = Network::with_policy(1, WIDE, &[8, 8], &[spec], opts, 1, policy)
        .expect("geometry layer must plan");
    let img = SimpleImage::from_fn(1, WIDE, &[8, 8], |_, c, xy| {
        ((c * 7 + xy[0] * 3 + xy[1]) % 23) as f32 * 0.04 - 0.4
    });
    let ker = SimpleKernels::from_fn(WIDE, WIDE / opts.groups, &[3, 3], |co, ci, xy| {
        ((co * 5 + ci * 11 + xy[0] + xy[1] * 2) % 17) as f32 * 0.05 - 0.4
    });
    (net, BlockedImage::from_simple(&img).unwrap(), BlockedKernels::from_simple(&ker).unwrap())
}

/// Arm `shots` consecutive refusals before one forward of a (warm)
/// geometry-routed layer, for every shot count up to total pressure.
/// Returns how many runs were rescued and how many failed typed.
fn oom_sweep_over_route(opts: ConvOptions, planned: LayerBackend) -> (u32, u32) {
    let policy = FallbackPolicy::default();
    let (mut net, input, kernels) = geo_net(opts, &policy);
    let (reference, report) = net
        .run_layer(0, &input, &kernels, &SerialExecutor, &policy)
        .expect("clean warm-up run");
    assert_eq!((report.backend, report.fallback), (planned, None));

    let (mut rescued, mut typed) = (0, 0);
    for shots in (1..=12).chain([u32::MAX]) {
        mem_fault::reset();
        mem_fault::arm_fail_every(1, shots);
        let outcome = net.run_layer(0, &input, &kernels, &SerialExecutor, &policy);
        assert!(mem_fault::injected_failures() >= 1, "shots={shots}: a shot must have landed");
        mem_fault::reset();
        match outcome {
            Ok((out, report)) => {
                assert!(
                    matches!(report.fallback, Some(FallbackReason::Memory { .. })),
                    "shots={shots}: survivors report the memory reason, got {:?}",
                    report.fallback
                );
                let tol = match report.backend {
                    LayerBackend::WinogradDemoted => 1e-2, // grown tiles round worse
                    LayerBackend::Im2col => 1e-4,
                    other => panic!("shots={shots}: unexpected backend {other:?}"),
                };
                assert_close(&out, &reference, tol, &format!("{planned:?} shots={shots}"));
                rescued += 1;
            }
            Err(WinoError::Alloc(cause)) => {
                assert!(cause.injected, "shots={shots}: failure must be the injected one");
                typed += 1;
            }
            Err(other) => panic!("shots={shots}: expected a rescue or Alloc, got {other:?}"),
        }
        // Pressure lifted: the layer is back on its planned route.
        let (out, report) = net
            .run_layer(0, &input, &kernels, &SerialExecutor, &policy)
            .expect("post-pressure run");
        assert_eq!((report.backend, report.fallback), (planned, None), "shots={shots}");
        assert_eq!(out.as_slice(), reference.as_slice(), "shots={shots}: recovery is exact");
    }
    (rescued, typed)
}

#[test]
fn oom_during_a_grouped_layer_is_rescued_or_typed() {
    let _guard = fault::test_lock();
    fault::reset();
    let opts = ConvOptions::default().with_groups(2);
    let (rescued, typed) = oom_sweep_over_route(opts, LayerBackend::WinogradGrouped);
    assert!(rescued > 0, "light pressure on a grouped layer must be absorbed");
    assert!(typed > 0, "total pressure must fail typed, not abort");

    // One refusal at each allocation of a warm forward in turn: #1 the
    // layer's output, then per group #2 its input copy, #3 its kernel copy
    // and #4 its output. Each lands — the copies too — and is rescued.
    let policy = FallbackPolicy::default();
    let (mut net, input, kernels) = geo_net(opts, &policy);
    let (reference, _) = net.run_layer(0, &input, &kernels, &SerialExecutor, &policy).unwrap();
    let allocs = 1 + 3 * opts.groups as u64;
    for k in 1..=allocs + 1 {
        mem_fault::reset();
        mem_fault::arm_fail_every(k, 1);
        let outcome = net.run_layer(0, &input, &kernels, &SerialExecutor, &policy);
        let landed = mem_fault::injected_failures();
        mem_fault::reset();
        let (out, report) =
            outcome.unwrap_or_else(|e| panic!("k={k}: one refusal must be absorbed, got {e:?}"));
        if k > allocs {
            assert_eq!(landed, 0, "a warm grouped forward allocates {allocs} buffers");
            assert_eq!((report.backend, report.fallback), (LayerBackend::WinogradGrouped, None));
            assert_eq!(out.as_slice(), reference.as_slice());
            continue;
        }
        assert_eq!(landed, 1, "k={k}: the refusal must reach the allocator");
        assert!(matches!(report.fallback, Some(FallbackReason::Memory { .. })), "k={k}");
        assert_close(&out, &reference, 1e-2, &format!("grouped, refusal #{k}"));
    }
}

#[test]
fn oom_during_a_strided_layer_is_rescued_or_typed() {
    let _guard = fault::test_lock();
    fault::reset();
    let opts = ConvOptions::default().with_stride(&[2, 2]);
    // Warm, each attempt's first allocation is its output, so `shots`
    // consecutive refusals take one attempt each: the planned F(2×2), the
    // re-tiled F(4×4) — where the 4×4 strided output caps the memory
    // ladder — and the im2col rescue. One and two shots are absorbed; from
    // the third on the rescue's own output is refused.
    let (rescued, typed) = oom_sweep_over_route(opts, engine());
    assert_eq!((rescued, typed), (2, 11));

    // Cold, a strided layer's scratch was seeded at plan time, as every
    // Winograd layer's is; the forward builds #1 the output, #2 the
    // stride-1 image, #3 the `V̂` its kernel transform grows in the
    // scratch. A single refusal on any of them drops the slot, re-tiles
    // and stands — and there is no #4.
    let policy = FallbackPolicy::default();
    let (mut reference_net, input, kernels) = geo_net(opts, &policy);
    let (reference, _) =
        reference_net.run_layer(0, &input, &kernels, &SerialExecutor, &policy).unwrap();
    for k in 1..=4 {
        let (mut net, ..) = geo_net(opts, &policy);
        assert!(net.scratch_bytes() > 0, "a strided layer's scratch is seeded at plan time");
        mem_fault::reset();
        mem_fault::arm_fail_every(k, 1);
        let (out, report) = net
            .run_layer(0, &input, &kernels, &SerialExecutor, &policy)
            .unwrap_or_else(|e| panic!("k={k}: a single refusal must be absorbed, got {e:?}"));
        let landed = mem_fault::injected_failures();
        mem_fault::reset();
        if k == 4 {
            assert_eq!(landed, 0, "a cold strided forward allocates three buffers");
            assert_eq!((report.backend, report.fallback), (engine(), None));
            assert_eq!(out.as_slice(), reference.as_slice());
            continue;
        }
        assert_eq!(landed, 1, "k={k}");
        assert_eq!(report.backend, LayerBackend::WinogradDemoted, "k={k}");
        assert!(matches!(report.fallback, Some(FallbackReason::Memory { .. })), "k={k}");
        assert_close(&out, &reference, 1e-2, &format!("strided re-tile, k={k}"));
        // Pressure lifted: back on the planned route, bit for bit.
        let (out, report) = net.run_layer(0, &input, &kernels, &SerialExecutor, &policy).unwrap();
        assert_eq!((report.backend, report.fallback), (engine(), None), "k={k}");
        assert_eq!(out.as_slice(), reference.as_slice(), "k={k}: recovery is exact");
    }
}

/// A refusal landing *inside* the sentinel demotion: the table moves on
/// to the im2col rescue, and the report still names the sentinel trip
/// that started the walk.
#[test]
fn oom_during_a_sentinel_demotion_is_rescued_or_typed() {
    let _guard = fault::test_lock();

    let reference = clean_reference(&[4, 4]);
    let policy = sentinel_all();
    // Allocation #1 is the planned attempt's output and #2 the `V̂` its
    // first training-mode pass grows in the network's scratch; #3 is the
    // demotion's output. The demoted F(2²) plan runs in the bytes the
    // planned F(4²) one holds — codelet buffers, ring and `V̂` — so it
    // allocates nothing else.
    let mut rescued = 0;
    for (k, shots) in [(3, 1), (3, 2), (3, u32::MAX)] {
        fault::reset();
        mem_fault::reset();
        let mut net = test_net(&[4, 4], &policy);
        let (input, kernels) = test_data();
        fault::arm_corrupt(2, CorruptKind::SilentBias, 1);
        mem_fault::arm_fail_every(k, shots);
        let outcome = net.run_layer(0, &input, &kernels, &SerialExecutor, &policy);
        let landed = mem_fault::injected_failures();
        mem_fault::reset();
        assert!(landed >= 1, "k={k} shots={shots}: a shot must have landed");
        match outcome {
            Ok((out, report)) => {
                assert_eq!(report.backend, LayerBackend::Im2col, "k={k} shots={shots}");
                assert!(
                    matches!(report.fallback, Some(FallbackReason::SentinelTrip(_))),
                    "k={k} shots={shots}: got {:?}",
                    report.fallback
                );
                assert_close(&out, &reference, 1e-4, "im2col rescue after a refused demotion");
                rescued += 1;
            }
            Err(WinoError::Alloc(cause)) => assert!(cause.injected, "k={k} shots={shots}"),
            Err(other) => panic!("k={k} shots={shots}: expected a rescue or Alloc, got {other:?}"),
        }
    }
    assert!(rescued >= 1, "a single refused demotion output must be rescued ({rescued} of 3)");

    // …and there is no #4: a shot aimed past the demotion's output finds
    // nothing to refuse, and the demoted re-run stands.
    fault::reset();
    let mut net = test_net(&[4, 4], &policy);
    let (input, kernels) = test_data();
    fault::arm_corrupt(2, CorruptKind::SilentBias, 1);
    mem_fault::arm_fail_every(4, 1);
    let (_, report) = net.run_layer(0, &input, &kernels, &SerialExecutor, &policy).unwrap();
    assert_eq!(mem_fault::injected_failures(), 0, "the demotion allocates one buffer");
    assert_eq!(report.backend, LayerBackend::WinogradDemoted);
    fault::reset();
}

/// The im2col route's lowering matrices go through the fallible seam: on
/// a dilated layer (designed to run im2col) a refused lowered input fails
/// the layer typed instead of aborting.
#[test]
fn oom_in_the_im2col_lowering_fails_typed() {
    let _guard = fault::test_lock();
    fault::reset();
    mem_fault::reset();

    let policy = FallbackPolicy::default();
    let (mut net, input, kernels) = geo_net(ConvOptions::default().with_dilation(&[2, 2]), &policy);
    let (_, report) = net
        .run_layer(0, &input, &kernels, &SerialExecutor, &policy)
        .expect("clean warm-up run");
    assert_eq!(report.backend, LayerBackend::Im2col);

    // Warm, allocation #1 is the output and #2 the lowered input `A`.
    mem_fault::arm_fail_every(2, 1);
    let outcome = net.run_layer(0, &input, &kernels, &SerialExecutor, &policy);
    let landed = mem_fault::injected_failures();
    mem_fault::reset();
    match outcome {
        Err(WinoError::Alloc(cause)) => assert!(cause.injected, "the refusal is the injected one"),
        other => panic!("expected a typed Alloc, got {:?}", other.map(|(_, r)| r.backend)),
    }
    assert_eq!(landed, 1);
}

/// Grouped layers hold a resident scratch: a repeat `run_net` allocates
/// the per-group operand copies and the outputs — and no scratch arena.
#[test]
fn grouped_network_repeat_run_allocates_no_scratch() {
    let _guard = fault::test_lock();
    mem_fault::reset();

    let policy = FallbackPolicy::default();
    let groups = 2;
    let opts = ConvOptions::default().with_groups(groups);
    let (mut net, input, kernels) = geo_net(opts, &policy);
    let kernels = [kernels];
    let calls = || winograd_nd_repro::simd::thread_alloc_calls();

    let before = calls();
    net.run_net(&input, &kernels, &SerialExecutor, &policy).unwrap();
    let cold = calls() - before;
    let resident = net.scratch_bytes();
    assert!(resident > 0, "the grouped layer must keep its scratch");

    // Per group: the input block, the kernel block and the group's
    // output; plus the layer output.
    let steady = 3 * groups as u64 + 1;
    assert!(cold > steady, "the first run builds the scratch ({cold} allocations)");
    for round in 0..3 {
        let before = calls();
        net.run_net(&input, &kernels, &SerialExecutor, &policy).unwrap();
        assert_eq!(calls() - before, steady, "round {round} rebuilt scratch");
        assert_eq!(net.scratch_bytes(), resident);
    }
}
