//! Figure 5 harness: per-layer runtimes of every implementation.
//!
//! For each Table 2 layer, measures our Winograd implementation over the
//! `F(m, r)` sweep (training and inference-"FX" variants), the vectorised
//! direct convolution and the im2col + GEMM convolution — printing one CSV
//! row per (layer, implementation) with best/mean milliseconds and
//! effective GFLOP/s, plus the speedup of the best Winograd variant over
//! the best non-Winograd baseline. The paper's FFT rows on the 3-D layers
//! are not measured (EXPERIMENTS.md, Fig. 5).
//!
//! ```text
//! cargo run -p wino-bench --release --bin fig5 -- [--full] [--threads N]
//!     [--reps N] [--net VGG|FusionNet|C3D|3DUNet] [--jit] [--list]
//! ```
//!
//! Defaults to the scaled catalogue (see `wino_workloads::scaled_catalog`);
//! `--full` uses the paper's exact layer sizes (needs ≥16 GB and a lot of
//! patience on few cores).

use wino_bench::{
    make_executor, run_baseline_im2col, run_baseline_im2col_geo, run_direct, run_dispatch,
    run_winograd, Args, Measurement, Rows,
};
use wino_conv::ConvOptions;
use wino_workloads::{full_catalog, scaled_catalog, tile_sweep};

fn main() {
    let args = Args::from_env();
    let layers = if args.flag("--full") { full_catalog() } else { scaled_catalog() };
    let net_filter = args.value("--net").map(str::to_string);
    let reps = args.usize_or("--reps", 3);
    let exec = make_executor(&args);

    if args.flag("--list") {
        println!("network,layer,batch,C,C',image,kernel,padding,direct_gflop");
        for l in &layers {
            let s = &l.shape;
            println!(
                "{},{},{},{},{},{:?},{:?},{:?},{:.2}",
                l.network.name(),
                l.label,
                s.batch,
                s.in_channels,
                s.out_channels,
                s.image_dims,
                s.kernel_dims,
                s.padding,
                s.direct_flops() as f64 / 1e9
            );
        }
        return;
    }

    eprintln!(
        "# fig5: {} layers, {} threads, {} reps, backend {}",
        layers.len(),
        exec.threads(),
        reps,
        wino_simd::backend_name()
    );
    let mut out =
        Rows::new(&["layer", "impl", "best_ms", "mean_ms", "effective_gflops", "speedup_vs_best_baseline"]);

    for layer in &layers {
        if let Some(f) = &net_filter {
            if !layer.network.name().eq_ignore_ascii_case(f) {
                continue;
            }
        }
        let mut rows: Vec<Measurement> = Vec::new();

        // Baselines first (the speedup denominators).
        rows.push(run_direct(layer, exec.as_ref(), reps));
        rows.push(run_baseline_im2col(layer, exec.as_ref(), reps));
        let best_baseline = rows
            .iter()
            .map(|m| m.timing.best_ms)
            .fold(f64::INFINITY, f64::min);

        // Our implementation across the F(m, r) sweep.
        for m in tile_sweep(layer.rank()) {
            if let Some(meas) =
                run_winograd(layer, &m, false, ConvOptions::default(), exec.as_ref(), reps)
            {
                rows.push(meas);
            }
            if let Some(meas) =
                run_winograd(layer, &m, true, ConvOptions::default(), exec.as_ref(), reps)
            {
                rows.push(meas);
            }
        }

        // Optional: the machine-code (JIT) stage-2 backend on F(4ᵈ).
        if args.flag("--jit") && wino_simd::cpu_has_avx512f() {
            let opts = ConvOptions { stage2: wino_conv::Stage2Backend::Jit, ..Default::default() };
            let m = vec![4usize; layer.rank()];
            if let Some(mut meas) = run_winograd(layer, &m, false, opts, exec.as_ref(), reps) {
                meas.implementation = format!("{} [jit]", meas.implementation);
                rows.push(meas);
            }
        }

        for m in &rows {
            let speedup = if m.implementation.starts_with("winograd") {
                format!("{:.2}", best_baseline / m.timing.best_ms)
            } else {
                String::new()
            };
            let mut cells = m.csv_cells();
            cells.push(speedup);
            out.push(&cells);
        }

        // Dispatch-matrix rows: the same layer under stride 2 and under
        // groups 2, our routed engine vs the geometry-aware im2col
        // baseline. Each pair carries its own speedup denominator — a
        // strided layer does ~1/∏s of the dense work, so the identity
        // baselines above are not comparable.
        for opts in [
            ConvOptions::default().with_stride(&vec![2; layer.rank()]),
            ConvOptions::default().with_groups(2),
        ] {
            let Some(base) = run_baseline_im2col_geo(layer, opts, exec.as_ref(), reps) else {
                continue;
            };
            let denom = base.timing.best_ms;
            let mut geo_rows = vec![base];
            let m = vec![4usize; layer.rank()];
            if let Some(meas) = run_dispatch(layer, &m, opts, exec.as_ref(), reps) {
                geo_rows.push(meas);
            }
            for m in &geo_rows {
                let speedup = if m.implementation.starts_with("winograd") {
                    format!("{:.2}", denom / m.timing.best_ms)
                } else {
                    String::new()
                };
                let mut cells = m.csv_cells();
                cells.push(speedup);
                out.push(&cells);
            }
        }
    }
}
