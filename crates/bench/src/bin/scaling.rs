//! Strong/weak-scaling harness: the measured evidence behind
//! `docs/scaling.md` and the `--scaling-smoke` CI gate.
//!
//! For each smoke layer, one fixed Winograd plan is timed at every
//! thread count in a 1..=N sweep, twice: **strong** (fixed problem) and
//! **weak** (batch grows with the thread count). Each point's executor
//! is shaped by the detected topology (serial at 1, flat static within
//! one domain, a sharded pool across domains); one extra instrumented
//! pass per strong point records fork–join barrier skew.
//! Points, per-layer Amdahl serial-fraction fits, and the topology
//! provenance land in a schema-v4 `BENCH_scaling.json`.
//!
//! ```text
//! cargo run -p wino-bench --release --bin scaling -- \
//!     [--max-threads N] [--reps N] [--floor F] [--check] [--out FILE] [--date YYYY-MM-DD]
//! cargo run -p wino-bench --bin scaling -- --validate FILE
//! ```
//!
//! `--check` makes the run a gate: at the host thread count, at least
//! one smoke layer must reach parallel efficiency ≥ the floor (default
//! 0.6), and no gate point's probed barrier skew may exceed
//! [`wino_probe::SMOKE_SKEW_BUDGET_US`]. Exit 1 on violation.

use wino_bench::perf::{calibrate, today_utc};
use wino_bench::scaling::{executor_for, fit_serial_fraction, scaling_document, ScalingPoint};
use wino_bench::{make_executor, run_winograd, Args};
use wino_conv::ConvOptions;
use wino_probe::{
    fold, parse_json, validate_schema, Json, MachineModel, WorkModel, SCHEMA_VERSION,
    SMOKE_SKEW_BUDGET_US,
};
use wino_sched::{configured_threads, Executor, ProbedExecutor, Topology};
use wino_tensor::ConvShape;
use wino_workloads::{scaled_catalog, Layer};

/// The same pinned smoke subset as the perf harness: one 2-D mid-net
/// layer, one batch-1 segmentation layer, one 3-D spatiotemporal layer.
const SMOKE_LAYERS: [&str; 3] = ["VGG 3.2", "FusionNet 2.2", "C3D C3b"];

/// Default parallel-efficiency floor of the `--check` gate. See
/// `docs/scaling.md` for how the number was chosen.
const DEFAULT_FLOOR: f64 = 0.6;

fn validate_file(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let doc = parse_json(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(1);
    });
    match validate_schema(&doc) {
        Ok(()) => {
            let n = doc
                .get("scaling")
                .and_then(|s| s.get("points"))
                .and_then(Json::as_arr)
                .map(<[Json]>::len)
                .unwrap_or(0);
            println!("{path}: valid (schema_version {SCHEMA_VERSION}, {n} scaling points)");
            std::process::exit(0);
        }
        Err(errs) => {
            eprintln!("{path}: INVALID —");
            for e in &errs {
                eprintln!("  - {e}");
            }
            std::process::exit(1);
        }
    }
}

/// The sweep's thread counts: 1, the powers of two up to `max`, and
/// `max` itself — the classic scaling-plot x-axis, deduplicated.
fn thread_counts(max: usize) -> Vec<usize> {
    let mut counts = vec![1];
    let mut n = 2;
    while n < max {
        counts.push(n);
        n *= 2;
    }
    if max > 1 {
        counts.push(max);
    }
    counts
}

/// One instrumented pass: (max_skew_us, mean_skew_us) across its
/// fork–joins. `None` when the plan/forward fails. The fold uses an
/// empty work model — only the
/// barrier statistics are read, no roofline is needed.
fn barrier_skew(layer: &Layer, m: &[usize], exec: &dyn Executor) -> Option<(f64, f64)> {
    let plan = wino_conv::WinogradLayer::new(layer.shape.clone(), m, ConvOptions::default()).ok()?;
    let (input, kernels) = wino_bench::layer_data(layer, 42);
    let mut output = plan.new_output().ok()?;
    let mut probed = ProbedExecutor::new(exec);
    let mut scratch = wino_conv::Scratch::new(&plan, probed.threads());
    plan.forward(&input, &kernels, &mut output, &mut scratch, &probed).ok()?;
    std::hint::black_box(output.as_slice().first());
    let events = probed.take_events();
    let machine = MachineModel { peak_gflops: 1.0, mem_bw_gbps: 1.0, threads: exec.threads() };
    let report = fold(&events, &WorkModel::new(), &machine);
    Some((report.barrier.max_skew_us, report.barrier.mean_skew_us))
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
    if let Some(path) = args.value("--validate") {
        validate_file(path);
    }

    let reps = args.usize_or("--reps", 3);
    let floor = args
        .value("--floor")
        .map(|v| v.parse::<f64>().expect("--floor takes a number"))
        .unwrap_or(DEFAULT_FLOOR);
    let check = args.flag("--check");
    let topo = Topology::detect();
    let host = configured_threads();
    let max = args.usize_or("--max-threads", host);
    let counts = thread_counts(max);

    let layers: Vec<Layer> = scaled_catalog()
        .into_iter()
        .filter(|l| SMOKE_LAYERS.contains(&l.id().as_str()))
        .collect();
    assert!(!layers.is_empty(), "smoke layer selection is empty");

    eprintln!(
        "# topology: {} domain(s), {} cpu(s), smt {}, source {} ({})",
        topo.domains().len(),
        topo.total_cpus(),
        topo.smt_per_core(),
        topo.source().name(),
        topo.to_spec(),
    );
    eprintln!("# sweep: threads {counts:?}, host threads {host}, reps {reps}");

    // The machine block reuses the perf harness's calibration, run on the
    // full-width executor so roofline context matches the widest points.
    eprintln!("# calibrating machine model…");
    let machine = calibrate(make_executor(&args).as_ref());

    let mut points: Vec<ScalingPoint> = Vec::new();
    let mut fits: Vec<(String, f64)> = Vec::new();

    for layer in &layers {
        // One fixed plan per layer — F(2) per dimension is accepted by
        // every catalogue shape, and scaling ratios only need the plan to
        // be *constant* across the sweep, not optimal.
        let m = vec![2usize; layer.rank()];
        let mut strong: Vec<(usize, f64)> = Vec::new();

        for &n in &counts {
            let (exec, kind) = executor_for(&topo, n);

            // Strong: fixed problem.
            let Some(meas) = run_winograd(layer, &m, false, ConvOptions::default(), exec.as_ref(), reps)
            else {
                eprintln!("warning: plan rejected for {} — layer skipped", layer.id());
                break;
            };
            strong.push((n, meas.timing.best_ms));
            let t1 = strong[0].1;
            let speedup = t1 / meas.timing.best_ms;
            let skew = barrier_skew(layer, &m, exec.as_ref());
            eprintln!(
                "# {} strong n={n} [{kind}]: {:.3} ms (speedup {speedup:.2}, eff {:.2})",
                layer.id(),
                meas.timing.best_ms,
                speedup / n as f64,
            );
            points.push(ScalingPoint {
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
            });

            // Weak: batch grows n× so per-thread work is constant.
            let big = grown(layer, n);
            let Some(meas) = run_winograd(&big, &m, false, ConvOptions::default(), exec.as_ref(), reps)
            else {
                eprintln!("warning: weak-scaled plan rejected for {} at n={n}", layer.id());
                continue;
            };
            let t1w = points
                .iter()
                .find(|p| p.layer == layer.id() && p.mode == "weak" && p.threads == 1)
                .map_or(meas.timing.best_ms, |p| p.best_ms);
            let efficiency = t1w / meas.timing.best_ms;
            eprintln!(
                "# {} weak n={n} batch={} [{kind}]: {:.3} ms (eff {efficiency:.2})",
                layer.id(),
                big.shape.batch,
                meas.timing.best_ms,
            );
            points.push(ScalingPoint {
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
            });
        }

        if let Some(s) = fit_serial_fraction(&strong) {
            eprintln!("# {} Amdahl serial fraction: {s:.4}", layer.id());
            fits.push((layer.id(), s));
        }
    }
    assert!(!points.is_empty(), "sweep produced no points");

    let date = args.value("--date").map(str::to_string).unwrap_or_else(today_utc);
    let doc =
        scaling_document("wino-bench scaling", &date, &machine, &topo, host, floor, &points, &fits);

    // Self-check before writing, exactly like the perf harness.
    let rendered = doc.render_pretty();
    let reparsed = parse_json(&rendered).expect("emitted JSON must re-parse");
    if let Err(errs) = validate_schema(&reparsed) {
        eprintln!("error: assembled report fails its own schema:");
        for e in &errs {
            eprintln!("  - {e}");
        }
        std::process::exit(1);
    }

    match args.value("--out") {
        Some(path) => {
            std::fs::write(path, &rendered).expect("write report");
            eprintln!("# wrote {path} ({} points)", points.len());
        }
        None => print!("{rendered}"),
    }

    if check {
        // The gate looks at the strong points at the host's own thread
        // count: that is the configuration users actually run.
        let gate: Vec<&ScalingPoint> =
            points.iter().filter(|p| p.mode == "strong" && p.threads == host).collect();
        assert!(!gate.is_empty(), "no strong point at host thread count {host}");
        let best_eff = gate.iter().map(|p| p.efficiency).fold(0.0f64, f64::max);
        let worst_skew = gate.iter().filter_map(|p| p.max_skew_us).fold(0.0f64, f64::max);
        let mut failed = false;
        if best_eff < floor {
            eprintln!(
                "GATE FAIL: best parallel efficiency {best_eff:.3} at {host} thread(s) \
                 is below the floor {floor}"
            );
            failed = true;
        }
        if worst_skew > SMOKE_SKEW_BUDGET_US {
            eprintln!(
                "GATE FAIL: barrier skew {worst_skew:.0} µs at {host} thread(s) exceeds \
                 the {SMOKE_SKEW_BUDGET_US:.0} µs budget"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "# gate OK: efficiency {best_eff:.3} ≥ {floor}, worst skew {worst_skew:.0} µs \
             ≤ {SMOKE_SKEW_BUDGET_US:.0} µs"
        );
    }
}
