//! Integration tests for the observability pipeline at the bench level:
//! determinism and stage coverage of instrumented runs.

use std::collections::BTreeMap;

use wino_bench::layer_data;
use wino_conv::{ConvOptions, Scratch, WinogradLayer};
use wino_probe::{barrier_stats, SpanCategory, SpanEvent, COORDINATOR};
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

/// The plan of [`small_layer`] and the spans of one instrumented F(4×4)
/// pass of it.
fn probe_winograd(exec: &dyn Executor) -> (WinogradLayer, Vec<SpanEvent>) {
    let layer = small_layer();
    let plan = WinogradLayer::new(layer.shape.clone(), &[4, 4], ConvOptions::default()).unwrap();
    let (input, kernels) = layer_data(&layer, 42);
    let mut output = plan.new_output().unwrap();
    let mut probed = ProbedExecutor::new(exec);
    let mut scratch = Scratch::new(&plan, probed.threads());
    plan.forward(&input, &kernels, &mut output, &mut scratch, &probed).unwrap();
    (plan, probed.take_events())
}

/// Span counts per category of one instrumented pass, as a deterministic
/// fingerprint.
fn fingerprint(events: &[SpanEvent]) -> BTreeMap<SpanCategory, usize> {
    let mut counts = BTreeMap::new();
    for e in events {
        *counts.entry(e.category).or_default() += 1;
    }
    counts
}

#[test]
fn instrumented_runs_are_deterministic() {
    for exec in [
        Box::new(SerialExecutor) as Box<dyn Executor>,
        Box::new(StaticExecutor::new(2)) as Box<dyn Executor>,
    ] {
        let (_, a) = probe_winograd(exec.as_ref());
        let (_, b) = probe_winograd(exec.as_ref());
        assert_eq!(fingerprint(&a), fingerprint(&b), "executor {}", exec.name());
        let fork_joins = barrier_stats(&a).fork_joins;
        assert!(fork_joins > 0, "executor {}", exec.name());
        assert_eq!(fork_joins, barrier_stats(&b).fork_joins);
    }
}

#[test]
fn winograd_report_covers_all_pipeline_stages() {
    let (plan, events) = probe_winograd(&SerialExecutor);
    let stages: Vec<&SpanEvent> =
        events.iter().filter(|e| e.thread == COORDINATOR && e.category.is_stage()).collect();
    let names: Vec<&str> = stages.iter().map(|e| e.category.name()).collect();
    for want in ["input-transform", "kernel-transform", "elementwise-gemm", "output-transform"] {
        assert!(names.contains(&want), "missing stage {want} in {names:?}");
    }
    assert!(stages.iter().map(|e| e.duration_ns()).sum::<u64>() > 0);
    // The work model covers every recorded pipeline stage.
    let work = plan.work_model();
    for e in &stages {
        assert!(work.get(e.category).is_some(), "{}", e.category.name());
    }
}
