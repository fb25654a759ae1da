//! Integration tests for the observability pipeline at the bench level:
//! report math against hand-computed FLOP/byte counts, and determinism
//! and stage coverage of instrumented runs.

use wino_bench::perf::{direct_work_model, im2col_work_model, probe_winograd};
use wino_conv::ConvOptions;
use wino_probe::{fold, MachineModel, SpanCategory, SpanEvent, StageReport, COORDINATOR};
use wino_sched::{Executor, SerialExecutor, StaticExecutor};
use wino_tensor::ConvShape;
use wino_workloads::{Layer, Network};

/// A VGG-interior-style 2-D layer: 64→64 channels, 56×56 image, 3×3
/// kernel, pad 1 (out 56×56). Small enough to hand-compute exactly.
fn vgg_shape() -> ConvShape {
    ConvShape::new(1, 64, 64, &[56, 56], &[3, 3], &[1, 1]).unwrap()
}

/// A C3D-style 3-D layer: 64→64 channels, 8×28×28 volume, 3×3×3 kernel,
/// pad 1 (out 8×28×28).
fn c3d_shape() -> ConvShape {
    ConvShape::new(1, 64, 64, &[8, 28, 28], &[3, 3, 3], &[1, 1, 1]).unwrap()
}

fn small_layer() -> Layer {
    Layer {
        network: Network::Vgg,
        label: "probe-test",
        shape: ConvShape::new(1, 16, 16, &[12, 12], &[3, 3], &[1, 1]).unwrap(),
    }
}

#[test]
fn direct_report_math_matches_hand_computed_vgg() {
    let shape = vgg_shape();
    // Hand-computed: out = 56·56 = 3136 positions, 64 batch·in-channel
    // MACs·9 taps each… direct_flops = 2 · B·C·C'·∏out·∏r.
    let flops: u128 = 2 * 64 * 64 * 3136 * 9;
    // Ideal-cache bytes: input 64·56·56, kernels 64·64·9, output 64·3136
    // f32 elements, each moved once.
    let bytes: u128 = 4 * (64 * 3136 + 64 * 64 * 9 + 64 * 3136);
    let wm = direct_work_model(&shape);
    let w = wm.get(SpanCategory::DirectKernel).unwrap();
    assert_eq!(w.flops, flops);
    assert_eq!(w.bytes, bytes);

    // Fold one synthetic 2 ms coordinator span: GFLOP/s and AI follow.
    let events = [SpanEvent {
        category: SpanCategory::DirectKernel,
        thread: COORDINATOR,
        start_ns: 0,
        end_ns: 2_000_000,
    }];
    let machine = MachineModel { peak_gflops: 1e6, mem_bw_gbps: 1e6, threads: 1 };
    let report = fold(&events, &wm, &machine);
    let row = &report.stages[0];
    let expect_gflops = flops as f64 / 2e-3 / 1e9;
    assert!((row.gflops.unwrap() - expect_gflops).abs() < 1e-6);
    assert!((row.arith_intensity.unwrap() - flops as f64 / bytes as f64).abs() < 1e-12);
    assert_eq!(row.bytes, Some(bytes));
}

#[test]
fn im2col_report_math_matches_hand_computed_c3d() {
    let shape = c3d_shape();
    // rows = B·∏out = 8·28·28 = 6272; inner = C·∏r = 64·27 = 1728.
    let (rows, inner, cp) = (6272u128, 1728u128, 64u128);
    let wm = im2col_work_model(&shape);
    let g = wm.get(SpanCategory::ElementwiseGemm).unwrap();
    assert_eq!(g.flops, 2 * rows * inner * cp);
    assert_eq!(g.bytes, 4 * (rows * inner + inner * cp + rows * cp));
    let l = wm.get(SpanCategory::Im2colLower).unwrap();
    assert_eq!(l.flops, 0);
    // input + lowered A + kernels (read + lowered) + product + output.
    let in_elems = 64u128 * 8 * 28 * 28;
    let out_elems = 64u128 * 6272;
    assert_eq!(l.bytes, 4 * (in_elems + rows * inner + 2 * inner * cp + rows * cp + out_elems));
}

/// Span counts and categories of one instrumented pass, as a
/// deterministic fingerprint: (category name, spans) per stage row.
fn fingerprint(report: &StageReport) -> Vec<(&'static str, usize)> {
    report.stages.iter().map(|s| (s.category.name(), s.spans)).collect()
}

#[test]
fn instrumented_runs_are_deterministic() {
    let layer = small_layer();
    let machine = MachineModel::assumed();
    for exec in [
        Box::new(SerialExecutor) as Box<dyn Executor>,
        Box::new(StaticExecutor::new(2)) as Box<dyn Executor>,
    ] {
        let a = probe_winograd(&layer, &[4, 4], ConvOptions::default(), exec.as_ref(), &machine)
            .expect("plan accepted and events recorded");
        let b = probe_winograd(&layer, &[4, 4], ConvOptions::default(), exec.as_ref(), &machine)
            .expect("plan accepted and events recorded");
        assert_eq!(fingerprint(&a), fingerprint(&b), "executor {}", exec.name());
        assert_eq!(a.barrier.fork_joins, b.barrier.fork_joins);
    }
}

#[test]
fn winograd_report_covers_all_pipeline_stages() {
    let layer = small_layer();
    let report = probe_winograd(
        &layer,
        &[4, 4],
        ConvOptions::default(),
        &SerialExecutor,
        &MachineModel::assumed(),
    )
    .expect("plan accepted and events recorded");
    let names: Vec<&str> = report.stages.iter().map(|s| s.category.name()).collect();
    for want in ["input-transform", "kernel-transform", "elementwise-gemm", "output-transform"] {
        assert!(names.contains(&want), "missing stage {want} in {names:?}");
    }
    assert!(report.total_wall_ms > 0.0);
    // The work model covers every pipeline stage, so each carries
    // GFLOP/s + intensity (the schema's with_work requirement).
    for s in report.stages.iter().filter(|s| s.category.is_stage()) {
        assert!(s.gflops.is_some() && s.arith_intensity.is_some(), "{}", s.category.name());
    }
}
