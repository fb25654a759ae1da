//! Perf-report harness: the stage-breakdown evidence behind the paper's
//! §5 discussion, emitted as a schema-versioned `BENCH_*.json` document
//! (see `docs/bench-schema.md`).
//!
//! For each selected layer, three implementations are timed
//! (direct, im2col-GEMM, best-Winograd over the tile sweep) and then one
//! pass of each is re-run under a `ProbedExecutor`; the recorded spans
//! are folded with the per-stage work models into wall/CPU time,
//! GFLOP/s, arithmetic intensity and roofline estimates, plus
//! barrier-imbalance statistics. The machine model is calibrated at
//! startup with GEMM and bandwidth microbenchmarks.
//!
//! ```text
//! cargo run -p wino-bench --release --bin perf -- \
//!     [--smoke | --all] [--threads N] [--reps N] [--out FILE] [--date YYYY-MM-DD]
//! cargo run -p wino-bench --bin perf -- --validate FILE
//! ```

use wino_bench::perf::{
    calibrate, layer_entry, perf_document, probe_direct, probe_dispatch, probe_execution,
    probe_im2col, probe_im2col_geo, probe_winograd, today_utc, Accuracy,
};
use wino_bench::{
    direct_output, dispatch_output, geo_layer_truth, im2col_geo_output, im2col_output,
    layer_truth, make_executor, max_rel_error, run_baseline_im2col, run_baseline_im2col_geo,
    run_direct, run_dispatch, run_winograd, winograd_output, Args, Measurement,
};
use wino_conv::{plan_dispatch, ConvOptions, ExecutionReport, FallbackPolicy, LayerBackend};
use wino_probe::{parse_json, validate_schema, Json, StageReport, SCHEMA_VERSION};
use wino_sched::Executor;
use wino_workloads::{scaled_catalog, tile_sweep, Layer};

/// The pinned `--smoke` subset: one 2-D mid-net layer, one batch-1
/// segmentation layer, one 3-D spatiotemporal layer.
const SMOKE_LAYERS: [&str; 3] = ["VGG 3.2", "FusionNet 2.2", "C3D C3b"];

fn validate_file(path: &str) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let doc = match parse_json(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            std::process::exit(1);
        }
    };
    match validate_schema(&doc) {
        Ok(()) => {
            let n = doc.get("layers").and_then(Json::as_arr).map(<[Json]>::len).unwrap_or(0);
            println!("{path}: valid (schema_version {SCHEMA_VERSION}, {n} layer entries)");
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

/// Best Winograd tile for a layer by measured time over the sweep.
fn best_winograd(layer: &Layer, exec: &dyn Executor, reps: usize) -> Option<(Vec<usize>, Measurement)> {
    let mut best: Option<(Vec<usize>, Measurement)> = None;
    for m in tile_sweep(layer.rank()) {
        let Some(meas) = run_winograd(layer, &m, false, ConvOptions::default(), exec, reps) else {
            continue;
        };
        if best.as_ref().is_none_or(|(_, b)| meas.timing.best_ms < b.timing.best_ms) {
            best = Some((m, meas));
        }
    }
    best
}

fn main() {
    let args = Args::from_env();
    if let Some(path) = args.value("--validate") {
        validate_file(path);
    }

    let reps = args.usize_or("--reps", 3);
    let exec = make_executor(&args);
    let all = args.flag("--all");
    let layers: Vec<Layer> = scaled_catalog()
        .into_iter()
        .filter(|l| all || SMOKE_LAYERS.contains(&l.id().as_str()))
        .collect();
    assert!(!layers.is_empty(), "layer selection is empty");

    eprintln!("# calibrating machine model ({} threads)…", exec.threads());
    let machine = calibrate(exec.as_ref());
    // Two different ceilings, printed together so they are never
    // confused: the roofline's "peak" is what the shipped GEMM kernel
    // reaches in cache; the FMA-issue peak is what no kernel can pass.
    eprintln!(
        "# peak {:.1} GFLOP/s (shipped GEMM kernel, in cache, {} threads), bandwidth {:.1} GB/s",
        machine.peak_gflops,
        exec.threads(),
        machine.mem_bw_gbps
    );
    eprintln!(
        "# FMA-issue peak {:.1} GFLOP/s (one thread, registers only — not in the report)",
        wino_bench::perf::fma_issue_peak_gflops()
    );

    let mut entries: Vec<Json> = Vec::new();
    let mut push = |meas: &Measurement,
                    report: Option<StageReport>,
                    accuracy: Accuracy,
                    execution: Option<ExecutionReport>| {
        let Some(report) = report else {
            eprintln!("warning: no events folded for {} / {}", meas.layer, meas.implementation);
            return;
        };
        eprintln!(
            "\n== {} / {} ({:.3} ms best{}) ==\n{}",
            meas.layer,
            meas.implementation,
            meas.timing.best_ms,
            accuracy
                .max_rel_error
                .map(|e| format!(", max rel err {e:.2e}"))
                .unwrap_or_default(),
            report.to_table()
        );
        entries.push(layer_entry(meas, &report, accuracy, execution.as_ref()));
    };

    for layer in &layers {
        eprintln!("# {} …", layer.id());
        // The f64 oracle is one direct pass per layer, shared by every
        // implementation's max_rel_error column.
        eprintln!("#   computing f64 ground truth…");
        let truth = layer_truth(layer);
        let err_of = |out: &wino_tensor::BlockedImage| Some(max_rel_error(out, &truth));

        let d = run_direct(layer, exec.as_ref(), reps);
        let d_acc = Accuracy {
            max_rel_error: err_of(&direct_output(layer, exec.as_ref())),
            predicted_bound: None,
        };
        // The direct baseline sits outside the degradation ladder — no
        // execution provenance to report.
        push(&d, Some(probe_direct(layer, exec.as_ref(), &machine)), d_acc, None);

        let i = run_baseline_im2col(layer, exec.as_ref(), reps);
        let i_acc = Accuracy {
            max_rel_error: err_of(&im2col_output(layer, exec.as_ref())),
            predicted_bound: None,
        };
        push(
            &i,
            Some(probe_im2col(layer, exec.as_ref(), &machine)),
            i_acc,
            Some(ExecutionReport { layer: 0, backend: LayerBackend::Im2col, fallback: None }),
        );

        match best_winograd(layer, exec.as_ref(), reps) {
            Some((m, meas)) => {
                let opts = ConvOptions::default();
                let acc = winograd_output(layer, &m, opts, exec.as_ref())
                    .map(|(out, bound)| Accuracy {
                        max_rel_error: err_of(&out),
                        predicted_bound: Some(bound),
                    })
                    .unwrap_or_default();
                push(
                    &meas,
                    probe_winograd(layer, &m, opts, exec.as_ref(), &machine),
                    acc,
                    probe_execution(layer, &m, opts, exec.as_ref()),
                );
            }
            None => eprintln!("warning: no Winograd plan accepted for {}", layer.id()),
        }
    }

    // Dispatch-matrix scenario rows: the first 2-D layer of the
    // selection re-measured under a stride-2 and a grouped geometry —
    // the routed Winograd engine (its stride-1 plan plus the subsample /
    // grouped) against the geometry-aware im2col fallback it must beat. Each pair shares one
    // f64 oracle; execution provenance is the dispatcher's own
    // plan-time (backend, reason), which the net-report tests prove is
    // what `Network` would report.
    if let Some(layer) = layers.iter().find(|l| l.rank() == 2) {
        let scenarios = [
            ConvOptions::default().with_stride(&[2, 2]),
            ConvOptions::default().with_groups(2),
        ];
        for opts in scenarios {
            eprintln!("# {} geometry scenario …", layer.id());
            let truth = geo_layer_truth(layer, opts);
            let err_of = |out: &wino_tensor::BlockedImage| Some(max_rel_error(out, &truth));

            // Best tile by measured dispatch time over the sweep.
            let mut best: Option<(Vec<usize>, Measurement)> = None;
            for m in tile_sweep(2) {
                let Some(meas) = run_dispatch(layer, &m, opts, exec.as_ref(), reps) else {
                    continue;
                };
                if best.as_ref().is_none_or(|(_, b)| meas.timing.best_ms < b.timing.best_ms) {
                    best = Some((m, meas));
                }
            }
            match best {
                Some((m, meas)) => {
                    let acc = Accuracy {
                        max_rel_error: dispatch_output(layer, &m, opts, exec.as_ref())
                            .as_ref()
                            .and_then(&err_of),
                        predicted_bound: None,
                    };
                    let execution = plan_dispatch(
                        &layer.shape,
                        &m,
                        opts,
                        &FallbackPolicy::default(),
                    )
                    .ok()
                    .map(|(dp, fb)| ExecutionReport {
                        layer: 0,
                        backend: dp.backend(),
                        fallback: fb,
                    });
                    push(
                        &meas,
                        probe_dispatch(layer, &m, opts, exec.as_ref(), &machine),
                        acc,
                        execution,
                    );
                }
                None => eprintln!("warning: no dispatch plan accepted for {}", layer.id()),
            }

            if let Some(meas) = run_baseline_im2col_geo(layer, opts, exec.as_ref(), reps) {
                let acc = Accuracy {
                    max_rel_error: im2col_geo_output(layer, opts, exec.as_ref())
                        .as_ref()
                        .and_then(&err_of),
                    predicted_bound: None,
                };
                push(
                    &meas,
                    probe_im2col_geo(layer, opts, exec.as_ref(), &machine),
                    acc,
                    Some(ExecutionReport { layer: 0, backend: LayerBackend::Im2col, fallback: None }),
                );
            }
        }
    }

    let date = args.value("--date").map(str::to_string).unwrap_or_else(today_utc);
    let doc = perf_document("wino-bench perf", &date, &machine, entries);

    // Self-check before writing: an emitted report must round-trip
    // through the parser and pass its own schema validator.
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
            eprintln!("# wrote {path} ({} layer entries)", doc.get("layers").and_then(Json::as_arr).map(<[Json]>::len).unwrap_or(0));
        }
        None => print!("{rendered}"),
    }
}
