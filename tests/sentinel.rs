//! Sentinel determinism and zero-overhead guarantees.
//!
//! The accuracy sentinels (`wino_conv::sentinel`) are only trustworthy
//! evidence if they are *reproducible*: the same seed must check the
//! same output tiles and reach the same verdicts no matter which
//! executor produced the output. And when sampling
//! is disabled they must be provably free — no oracle convolutions, no
//! counter movement — so the default policy costs nothing.
//!
//! Like the differential sweep in `properties.rs`, the seed is pinned
//! but overridable with `WINO_SWEEP_SEED=<u64>` (the CI gate pins its
//! own); determinism must hold for *every* seed, so the override
//! explores the claim rather than weakening it.

use winograd_nd_repro::conv::{
    sample_units, verify_sample, Activation, ConvOptions, FallbackPolicy, LayerSpec, Network,
    Scratch, SentinelConfig, WinogradLayer,
};
use winograd_nd_repro::probe::Counter;
use winograd_nd_repro::sched::{Executor, SerialExecutor, StaticExecutor};
use winograd_nd_repro::tensor::{BlockedImage, BlockedKernels, ConvShape};
use winograd_nd_repro::workloads::{uniform_input, xavier_kernels};

fn sweep_seed() -> u64 {
    std::env::var("WINO_SWEEP_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xd1ff_2026)
}

fn layer_data(shape: &ConvShape, seed: u64) -> (BlockedImage, BlockedKernels) {
    let img = uniform_input(shape, seed ^ 0x11);
    let ker = xavier_kernels(shape, seed ^ 0x22);
    (BlockedImage::from_simple(&img).unwrap(), BlockedKernels::from_simple(&ker).unwrap())
}

/// Forward one plan under the given executor and return the output.
fn forward(
    plan: &WinogradLayer,
    input: &BlockedImage,
    kernels: &BlockedKernels,
    exec: &dyn Executor,
) -> BlockedImage {
    let mut out = plan.new_output().unwrap();
    let mut scratch = Scratch::new(plan, exec.threads());
    plan.forward(input, kernels, &mut out, &mut scratch, exec).unwrap();
    out
}

/// Same seed ⇒ identical sampled tile set and identical verdicts across
/// both executor kinds. The sample depends
/// only on (seed, layer index, geometry) — never on how the forward was
/// parallelised.
#[test]
fn sentinel_sample_and_verdicts_match_across_schedules_and_executors() {
    let seed = sweep_seed();
    let cfg = SentinelConfig::sampled(6, seed);
    let shape = ConvShape::new(2, 16, 16, &[12, 12], &[3, 3], &[1, 1]).unwrap();
    let (input, kernels) = layer_data(&shape, seed);

    let mut want_units: Option<Vec<usize>> = None;
    let mut want_checked: Option<usize> = None;
    let plan = WinogradLayer::new(shape, &[4, 4], ConvOptions::default()).unwrap();
    for threads in [1usize, 4] {
        let exec: Box<dyn Executor> = if threads == 1 {
            Box::new(SerialExecutor)
        } else {
            Box::new(StaticExecutor::new(threads))
        };
        let out = forward(&plan, &input, &kernels, exec.as_ref());

        let units = sample_units(&plan, &cfg, 0);
        match &want_units {
            None => want_units = Some(units),
            Some(w) => assert_eq!(
                &units, w,
                "{threads}t: sampled unit set must not depend on the executor"
            ),
        }
        let checked = verify_sample(&plan, &input, &kernels, &out, &cfg, 0)
            .unwrap_or_else(|e| panic!("{threads}t: clean forward tripped: {e}"));
        match want_checked {
            None => want_checked = Some(checked),
            Some(w) => assert_eq!(checked, w, "{threads}t"),
        }
    }
    assert_eq!(want_checked, Some(6));
}

/// A corruption trips the *same sampled unit* under every executor —
/// the verdict, like the sample, is a function of the seed and the data,
/// not of the execution strategy.
#[test]
fn corruption_trips_the_same_unit_under_every_schedule() {
    let seed = sweep_seed();
    let shape = ConvShape::new(1, 16, 16, &[12, 12], &[3, 3], &[1, 1]).unwrap();
    let (input, kernels) = layer_data(&shape, seed);

    let mut want_unit: Option<usize> = None;
    let plan = WinogradLayer::new(shape, &[4, 4], ConvOptions::default()).unwrap();
    // Sample everything so the verdict is exact, not probabilistic.
    let n = (plan.shape.batch * plan.grid.total_tiles()) as u32;
    let cfg = SentinelConfig::sampled(n, seed);
    for threads in [1usize, 4] {
        let exec: Box<dyn Executor> = if threads == 1 {
            Box::new(SerialExecutor)
        } else {
            Box::new(StaticExecutor::new(threads))
        };
        let mut out = forward(&plan, &input, &kernels, exec.as_ref());
        for v in out.as_mut_slice().iter_mut() {
            *v += 64.0; // finite, invisible to check_finite
        }
        let trip = verify_sample(&plan, &input, &kernels, &out, &cfg, 0)
            .expect_err("uniform corruption must trip");
        assert!(trip.rel_err > trip.bound);
        match want_unit {
            None => want_unit = Some(trip.unit),
            Some(w) => assert_eq!(
                trip.unit, w,
                "{threads}t: the first tripping unit must be deterministic"
            ),
        }
    }
}

/// `samples == 0` is provably free: the sampler builds nothing, the
/// verifier runs no oracle, and a full `Network` forward under the
/// default policy moves no sentinel counter. (The counters are compiled
/// unconditionally precisely so this claim is testable.)
#[test]
fn disabled_sentinel_does_no_work_at_all() {
    let off = SentinelConfig::off();
    let shape = ConvShape::new(1, 16, 16, &[8, 8], &[3, 3], &[1, 1]).unwrap();
    let (input, kernels) = layer_data(&shape, 7);
    let plan = WinogradLayer::new(shape, &[2, 2], ConvOptions::default()).unwrap();
    let out = forward(&plan, &input, &kernels, &SerialExecutor);

    assert!(sample_units(&plan, &off, 0).is_empty());
    assert_eq!(verify_sample(&plan, &input, &kernels, &out, &off, 0), Ok(0));

    // End-to-end: the default policy (sentinel off) must leave every
    // sentinel counter untouched across a whole layer execution.
    let checked_before = Counter::SentinelTilesChecked.get();
    let trips_before = Counter::SentinelTrips.get();
    let spec = LayerSpec {
        out_channels: 16,
        kernel: vec![3, 3],
        padding: vec![1, 1],
        m: vec![2, 2],
        activation: Activation::None,
    };
    let policy = FallbackPolicy::default();
    let mut net =
        Network::with_policy(1, 16, &[8, 8], &[spec], ConvOptions::default(), 1, &policy)
            .unwrap();
    let (out, report) = net.run_layer(0, &input, &kernels, &SerialExecutor, &policy).unwrap();
    assert!(report.fallback.is_none());
    std::hint::black_box(out.as_slice().first());
    assert_eq!(
        Counter::SentinelTilesChecked.get(),
        checked_before,
        "sample rate 0 must check zero tiles"
    );
    assert_eq!(Counter::SentinelTrips.get(), trips_before);
}
