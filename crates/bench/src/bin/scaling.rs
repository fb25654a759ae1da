//! Strong/weak-scaling harness: the measured evidence behind
//! `docs/scaling.md` and the `--scaling-smoke` CI gate.
//!
//! For each smoke layer, one fixed Winograd plan is timed at every
//! thread count in a 1..=N sweep, twice: **strong** (fixed problem) and
//! **weak** (batch grows with the thread count). Each point runs serial
//! at 1 thread and on one flat static pool past it; one extra
//! instrumented pass per strong point records fork–join barrier skew.
//! Points print as CSV rows ([`ScalingPoint::COLUMNS`]); the per-layer
//! Amdahl serial-fraction fits go to stderr.
//!
//! ```text
//! cargo run -p wino-bench --release --bin scaling -- [--max-threads N] [--reps N] [--check]
//! ```
//!
//! `--check` makes the run a gate: at the host thread count, at least
//! one smoke layer must reach parallel efficiency ≥ [`EFFICIENCY_FLOOR`],
//! and no gate point's probed barrier skew may exceed
//! [`SKEW_BUDGET_US`]. Exit 1 on violation — and before the sweep when
//! `--max-threads` never reaches the host thread count.

use wino_bench::scaling::{
    check_reaches_host, executor_for, fit_serial_fraction, thread_counts, ScalingPoint,
};
use wino_bench::{run_winograd, Args, Rows};
use wino_conv::ConvOptions;
use wino_probe::barrier_stats;
use wino_sched::{configured_threads, Executor, ProbedExecutor};
use wino_tensor::ConvShape;
use wino_workloads::{scaled_catalog, Layer};

/// The pinned smoke subset: one 2-D mid-net layer, one batch-1
/// segmentation layer, one 3-D spatiotemporal layer.
const SMOKE_LAYERS: [&str; 3] = ["VGG 3.2", "FusionNet 2.2", "C3D C3b"];

/// Parallel-efficiency floor of the `--check` gate. See `docs/scaling.md`
/// for how the number was chosen.
const EFFICIENCY_FLOOR: f64 = 0.6;

/// Barrier-skew budget (µs) of the `--check` gate: the worst single
/// fork–join skew a smoke layer may show. Smoke layers complete a
/// fork–join in hundreds of µs, so 25 ms of skew means a participant was
/// descheduled for a whole timeslice (oversubscription), not load
/// imbalance; CI hosts routinely show a handful of ms.
const SKEW_BUDGET_US: f64 = 25_000.0;

/// One instrumented pass: (max_skew_us, mean_skew_us) across its
/// fork–joins. `None` when the plan/forward fails.
fn barrier_skew(layer: &Layer, m: &[usize], exec: &dyn Executor) -> Option<(f64, f64)> {
    let plan = wino_conv::WinogradLayer::new(layer.shape.clone(), m, ConvOptions::default()).ok()?;
    let (input, kernels) = wino_bench::layer_data(layer, 42);
    let mut output = plan.new_output().ok()?;
    let mut probed = ProbedExecutor::new(exec);
    let mut scratch = wino_conv::Scratch::new(&plan, probed.threads());
    plan.forward(&input, &kernels, &mut output, &mut scratch, &probed).ok()?;
    std::hint::black_box(output.as_slice().first());
    let barrier = barrier_stats(&probed.take_events());
    Some((barrier.max_skew_us, barrier.mean_skew_us))
}

/// The layer with its batch grown to `factor ×` for a weak-scaling point.
fn grown(layer: &Layer, factor: usize) -> Layer {
    let s = &layer.shape;
    Layer {
        network: layer.network,
        label: layer.label,
        shape: ConvShape::new(
            s.batch * factor,
            s.in_channels,
            s.out_channels,
            &s.image_dims,
            &s.kernel_dims,
            &s.padding,
        )
        .expect("growing the batch keeps a valid shape"),
    }
}

fn main() {
    let args = Args::from_env();
    let reps = args.usize_or("--reps", 3);
    let check = args.flag("--check");
    let host = configured_threads();
    let max = args.usize_or("--max-threads", host);
    if check {
        if let Err(e) = check_reaches_host(host, max) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
    let counts = thread_counts(max);

    let layers: Vec<Layer> = scaled_catalog()
        .into_iter()
        .filter(|l| SMOKE_LAYERS.contains(&l.id().as_str()))
        .collect();
    assert!(!layers.is_empty(), "smoke layer selection is empty");

    eprintln!("# sweep: threads {counts:?}, host threads {host}, reps {reps}");
    let mut out = Rows::new(&ScalingPoint::COLUMNS);
    let mut strong_points: Vec<ScalingPoint> = Vec::new();

    for layer in &layers {
        // One fixed plan per layer — F(2) per dimension is accepted by
        // every catalogue shape, and scaling ratios only need the plan to
        // be *constant* across the sweep, not optimal.
        let m = vec![2usize; layer.rank()];
        let mut strong: Vec<(usize, f64)> = Vec::new();
        let mut weak_t1 = None;

        for &n in &counts {
            let (exec, kind) = executor_for(n);

            // Strong: fixed problem.
            let Some(meas) = run_winograd(layer, &m, false, ConvOptions::default(), exec.as_ref(), reps)
            else {
                eprintln!("warning: plan rejected for {} — layer skipped", layer.id());
                break;
            };
            strong.push((n, meas.timing.best_ms));
            let speedup = strong[0].1 / meas.timing.best_ms;
            let skew = barrier_skew(layer, &m, exec.as_ref());
            let point = ScalingPoint {
                layer: layer.id(),
                mode: "strong",
                threads: n,
                batch: layer.shape.batch,
                executor: kind,
                best_ms: meas.timing.best_ms,
                mean_ms: meas.timing.mean_ms,
                speedup,
                efficiency: speedup / n as f64,
                max_skew_us: skew.map(|s| s.0),
                mean_skew_us: skew.map(|s| s.1),
            };
            out.push(&point.cells());
            strong_points.push(point);

            // Weak: batch grows n× so per-thread work is constant.
            let big = grown(layer, n);
            let Some(meas) = run_winograd(&big, &m, false, ConvOptions::default(), exec.as_ref(), reps)
            else {
                eprintln!("warning: weak-scaled plan rejected for {} at n={n}", layer.id());
                continue;
            };
            if n == 1 {
                weak_t1 = Some(meas.timing.best_ms);
            }
            let efficiency = weak_t1.unwrap_or(meas.timing.best_ms) / meas.timing.best_ms;
            out.push(
                &ScalingPoint {
                    layer: layer.id(),
                    mode: "weak",
                    threads: n,
                    batch: big.shape.batch,
                    executor: kind,
                    best_ms: meas.timing.best_ms,
                    mean_ms: meas.timing.mean_ms,
                    speedup: efficiency * n as f64,
                    efficiency,
                    max_skew_us: None,
                    mean_skew_us: None,
                }
                .cells(),
            );
        }

        if let Some(s) = fit_serial_fraction(&strong) {
            eprintln!("# {} Amdahl serial fraction: {s:.4}", layer.id());
        }
    }
    assert!(!strong_points.is_empty(), "sweep produced no points");

    if check {
        // The gate looks at the strong points at the host's own thread
        // count: that is the configuration users actually run.
        let gate: Vec<&ScalingPoint> = strong_points.iter().filter(|p| p.threads == host).collect();
        if gate.is_empty() {
            eprintln!("GATE FAIL: no strong point at the host thread count {host} (every plan rejected?)");
            std::process::exit(1);
        }
        let best_eff = gate.iter().map(|p| p.efficiency).fold(0.0f64, f64::max);
        let worst_skew = gate.iter().filter_map(|p| p.max_skew_us).fold(0.0f64, f64::max);
        let mut failed = false;
        if best_eff < EFFICIENCY_FLOOR {
            eprintln!(
                "GATE FAIL: best parallel efficiency {best_eff:.3} at {host} thread(s) \
                 is below the floor {EFFICIENCY_FLOOR}"
            );
            failed = true;
        }
        if worst_skew > SKEW_BUDGET_US {
            eprintln!(
                "GATE FAIL: barrier skew {worst_skew:.0} µs at {host} thread(s) exceeds \
                 the {SKEW_BUDGET_US:.0} µs budget"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "# gate OK: efficiency {best_eff:.3} ≥ {EFFICIENCY_FLOOR}, worst skew {worst_skew:.0} µs \
             ≤ {SKEW_BUDGET_US:.0} µs"
        );
    }
}
