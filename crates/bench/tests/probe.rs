//! Integration tests for the observability pipeline at the bench level:
//! determinism and stage coverage of instrumented runs.

use wino_bench::layer_data;
use wino_conv::{ConvOptions, Scratch, WinogradLayer};
use wino_probe::{fold, MachineModel, StageReport};
use wino_sched::{Executor, ProbedExecutor, SerialExecutor, StaticExecutor};
use wino_tensor::ConvShape;
use wino_workloads::{Layer, Network};

fn small_layer() -> Layer {
    Layer {
        network: Network::Vgg,
        label: "probe-test",
        shape: ConvShape::new(1, 16, 16, &[12, 12], &[3, 3], &[1, 1]).unwrap(),
    }
}

/// One instrumented F(4×4) pass of [`small_layer`], folded against the
/// plan's own work model.
fn probe_winograd(exec: &dyn Executor) -> StageReport {
    let layer = small_layer();
    let plan = WinogradLayer::new(layer.shape.clone(), &[4, 4], ConvOptions::default()).unwrap();
    let (input, kernels) = layer_data(&layer, 42);
    let mut output = plan.new_output().unwrap();
    let mut probed = ProbedExecutor::new(exec);
    let mut scratch = Scratch::new(&plan, probed.threads());
    plan.forward(&input, &kernels, &mut output, &mut scratch, &probed).unwrap();
    fold(&probed.take_events(), &plan.work_model(), &MachineModel::assumed())
}

/// Span counts and categories of one instrumented pass, as a
/// deterministic fingerprint: (category name, spans) per stage row.
fn fingerprint(report: &StageReport) -> Vec<(&'static str, usize)> {
    report.stages.iter().map(|s| (s.category.name(), s.spans)).collect()
}

#[test]
fn instrumented_runs_are_deterministic() {
    for exec in [
        Box::new(SerialExecutor) as Box<dyn Executor>,
        Box::new(StaticExecutor::new(2)) as Box<dyn Executor>,
    ] {
        let a = probe_winograd(exec.as_ref());
        let b = probe_winograd(exec.as_ref());
        assert_eq!(fingerprint(&a), fingerprint(&b), "executor {}", exec.name());
        assert_eq!(a.barrier.fork_joins, b.barrier.fork_joins);
    }
}

#[test]
fn winograd_report_covers_all_pipeline_stages() {
    let report = probe_winograd(&SerialExecutor);
    let names: Vec<&str> = report.stages.iter().map(|s| s.category.name()).collect();
    for want in ["input-transform", "kernel-transform", "elementwise-gemm", "output-transform"] {
        assert!(names.contains(&want), "missing stage {want} in {names:?}");
    }
    assert!(report.total_wall_ms > 0.0);
    // The work model covers every pipeline stage, so each carries
    // GFLOP/s + intensity.
    for s in report.stages.iter().filter(|s| s.category.is_stage()) {
        assert!(s.gflops.is_some() && s.arith_intensity.is_some(), "{}", s.category.name());
    }
}
