//! Ablation harness for the individual optimisation claims the paper
//! makes outside its numbered figures:
//!
//! * `blocking-model`   — Eq. 11 compute-to-memory ratios vs measured
//!   throughput across `(C_blk, C'_blk)` (§4.3.2).
//! * `scheduling`       — static GCD partition + spin barrier vs rayon
//!   work stealing vs serial (§4.5).
//! * `budden-net`       — throughput (MVox/s) on the Budden et al. 4×4
//!   sample network (§5.1), Winograd vs direct.
//!
//! ```text
//! cargo run -p wino-bench --release --bin ablations -- <subcommand> [--threads N] [--reps N] [--json]
//! ```
//!
//! `--json` replaces each subcommand's CSV with a JSON array of the same
//! rows.
//!
//! (§4.2.1's non-temporal stores have no row: which stores bypass the
//! cache is the plan's decision, `WinogradLayer::streams`, not an option —
//! EXPERIMENTS.md, "§4.2.1 — store flavour is a rule", keeps the table.)

use wino_bench::{make_executor, run_direct, run_winograd, Args, Rows};
use wino_conv::ConvOptions;
use wino_gemm::{batched_gemm, candidate_shapes, BlockShape};
use wino_sched::{DynamicExecutor, Executor, SerialExecutor, StaticExecutor};
use wino_tensor::BlockedMatrices;
use wino_workloads::{budden_sample_net, mvox_per_sec, scaled_catalog, time_best};

fn blocking_model(reps: usize, json: bool) {
    // Serial on purpose: the model is per-core.
    let mut out = Rows::new(json, &["n_blk", "c_blk", "cp_blk", "eq11_ratio_beta1", "gflops"]);
    let (t, rows, c, cp) = (8usize, 1024usize, 512usize, 512usize);
    let mut shapes: Vec<BlockShape> = candidate_shapes(c, cp, rows)
        .into_iter()
        .filter(|s| s.n_blk == 8)
        .collect();
    shapes.sort_by(|a, b| {
        a.compute_to_memory_ratio(true)
            .partial_cmp(&b.compute_to_memory_ratio(true))
            .unwrap()
    });
    shapes.dedup_by_key(|s| (s.c_blk, s.cp_blk));
    for s in shapes {
        let mut u = BlockedMatrices::new(t, rows, c, s.n_blk, s.c_blk);
        let mut v = BlockedMatrices::new(t, c, cp, s.c_blk, s.cp_blk);
        let mut x = BlockedMatrices::new(t, rows, cp, s.n_blk, s.cp_blk);
        for (i, f) in u.as_mut_slice().iter_mut().enumerate() {
            *f = (i % 31) as f32 * 0.01;
        }
        for (i, f) in v.as_mut_slice().iter_mut().enumerate() {
            *f = (i % 17) as f32 * 0.01;
        }
        let timing = time_best(reps, || batched_gemm(&u, &v, &mut x));
        let gflops = 2.0 * (t * rows * c * cp) as f64 / (timing.best_ms * 1e-3) / 1e9;
        out.push(&[
            s.n_blk.to_string(),
            s.c_blk.to_string(),
            s.cp_blk.to_string(),
            format!("{:.2}", s.compute_to_memory_ratio(true)),
            format!("{gflops:.2}"),
        ]);
    }
    out.finish();
}

fn scheduling(threads: usize, reps: usize, json: bool) {
    let mut out = Rows::new(json, &["layer", "executor", "threads", "full_ms"]);
    let layer =
        scaled_catalog().into_iter().find(|l| l.id() == "VGG 3.2").expect("layer in scaled catalogue");
    let m = vec![4usize; 2];
    let execs: Vec<(Box<dyn Executor>, &str)> = vec![
        (Box::new(SerialExecutor), "serial"),
        (Box::new(StaticExecutor::new(threads)), "static"),
        (Box::new(DynamicExecutor::new(threads)), "dynamic"),
    ];
    for (exec, name) in &execs {
        let meas =
            run_winograd(&layer, &m, false, ConvOptions::default(), exec.as_ref(), reps).unwrap();
        out.push(&[
            layer.id(),
            (*name).to_string(),
            exec.threads().to_string(),
            format!("{:.3}", meas.timing.best_ms),
        ]);
    }
    out.finish();
}

fn budden_net(exec: &dyn Executor, reps: usize, image: usize, json: bool) {
    let mut out = Rows::new(json, &["layer", "impl", "best_ms", "mvox_per_s"]);
    for layer in budden_sample_net(image) {
        // 4×4 kernels: F(3×3, 4×4) gives α = 6 tiles.
        let meas = run_winograd(&layer, &[3, 3], false, ConvOptions::default(), exec, reps)
            .expect("4x4 kernels plan");
        out.push(&[
            layer.id(),
            "winograd F(3x3;4x4)".to_string(),
            format!("{:.3}", meas.timing.best_ms),
            format!("{:.1}", mvox_per_sec(&layer.shape, meas.timing.best_ms)),
        ]);
        let d = run_direct(&layer, exec, reps);
        out.push(&[
            layer.id(),
            "direct".to_string(),
            format!("{:.3}", d.timing.best_ms),
            format!("{:.1}", mvox_per_sec(&layer.shape, d.timing.best_ms)),
        ]);
    }
    out.finish();
}

fn main() {
    let args = Args::from_env();
    let reps = args.usize_or("--reps", 3);
    let exec = make_executor(&args);
    let sub = args.positional().first().map(|s| s.to_string()).unwrap_or_default();
    let json = args.flag("--json");
    match sub.as_str() {
        "blocking-model" => blocking_model(reps, json),
        "scheduling" => {
            let threads = args.usize_or("--threads", wino_sched::configured_threads());
            scheduling(threads.max(2), reps, json)
        }
        "budden-net" => budden_net(exec.as_ref(), reps, args.usize_or("--image", 256), json),
        other => {
            eprintln!(
                "unknown subcommand {other:?}; expected one of: blocking-model, scheduling, \
                 budden-net"
            );
            std::process::exit(2);
        }
    }
}
