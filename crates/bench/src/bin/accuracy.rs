//! Accuracy table: a-priori error bounds vs measured errors for every
//! practical `F(m, r)`.
//!
//! For each `m ∈ {2, 4, 6, 8}` and `r ∈ {3, 5}` one synthetic layer is
//! convolved and its measured max relative error (against the f64 direct
//! oracle) is printed next to the exact-conditioning bound the planner
//! and the runtime sentinels use
//! ([`wino_conv::WinogradLayer::predicted_bound`], built from
//! [`wino_transforms::Conditioning`]). Every measured row must satisfy
//! `measured ≤ predicted` — the binary exits non-zero otherwise, so the
//! table doubles as the accuracy gate in `scripts/check.sh`.
//!
//! The engine plans the mixed (Wincnn-style) interpolation points only.
//! The `integer` rows are the conditioning ablation's other half, from
//! [`Conditioning`] alone: the exact γ of the integer schedule and the
//! bound it would predict for the same layer, with no measured column.
//!
//! ```text
//! cargo run -p wino-bench --release --bin accuracy -- [--threads N]
//! cargo run -p wino-bench --release --bin accuracy -- --sentinel-smoke
//! ```
//!
//! `--sentinel-smoke` instead runs the three pinned smoke layers through
//! budget-driven tile selection with runtime sentinels sampling, exiting
//! non-zero on any trip (see [`sentinel_smoke`]).
//!
//! Columns: `m, r, points, gamma, predicted_bound, measured_rel_err,
//! headroom` (headroom = predicted / measured; ≥ 1 when the bound holds;
//! both empty on an `integer` row).

use wino_baseline::{direct_f64, element_errors};
use wino_bench::{make_executor, Args, Rows};
use wino_conv::select::{candidate_tiles, Purpose};
use wino_conv::{verify_sample, ConvOptions, Scratch, SentinelConfig, WinogradLayer};
use wino_sched::Executor;
use wino_tensor::{BlockedImage, BlockedKernels, ConvShape};
use wino_transforms::{Conditioning, PointSchedule};
use wino_workloads::{scaled_catalog, uniform_input, xavier_kernels};

/// Measured max relative error of one `F(m×m, r×r)` forward against the
/// f64 oracle, plus the plan's predicted bound.
fn measure(
    shape: &ConvShape,
    m: usize,
    truth_max: f64,
    truth: &wino_tensor::SimpleImage,
    exec: &dyn Executor,
) -> (f64, f64) {
    let plan = WinogradLayer::new(shape.clone(), &[m, m], ConvOptions::default())
        .expect("accuracy plans are valid");
    let img = uniform_input(shape, 2024);
    let ker = xavier_kernels(shape, 7);
    let input = BlockedImage::from_simple(&img).unwrap();
    let kernels = BlockedKernels::from_simple(&ker).unwrap();
    let mut out = plan.new_output().unwrap();
    let mut scratch = Scratch::new(&plan, exec.threads());
    plan.forward(&input, &kernels, &mut out, &mut scratch, exec).expect("accuracy forward");
    let (max_abs, _) = element_errors(&out.to_simple(), truth);
    (max_abs / truth_max.max(1.0), plan.predicted_bound())
}

/// `--sentinel-smoke`: the end-to-end half of the CI accuracy gate. Each
/// pinned smoke layer (the same trio `scripts/bench.sh --smoke` times) is
/// planned at the largest tile its accuracy budget admits — the last
/// [`candidate_tiles`] entry that plans under [`Purpose::Inference`],
/// whose cap comes from the exact conditioning, not a table — run once,
/// and a pinned-seed sample of its output tiles is re-verified against
/// the f64 oracle. A clean build must produce zero trips; any trip —
/// i.e. an error above the plan's a-priori bound — exits non-zero.
fn sentinel_smoke(exec: &dyn Executor) -> ! {
    const SMOKE_LAYERS: [&str; 3] = ["VGG 3.2", "FusionNet 2.2", "C3D C3b"];
    let cfg = SentinelConfig::sampled(8, 0xd1ff_2026);
    let mut failures = 0usize;
    for layer in scaled_catalog().into_iter().filter(|l| SMOKE_LAYERS.contains(&l.id().as_str()))
    {
        let shape = &layer.shape;
        let plan = candidate_tiles(shape, Purpose::Inference)
            .iter()
            .rev()
            .find_map(|m| WinogradLayer::new(shape.clone(), m, ConvOptions::default()).ok())
            .expect("smoke layers must plan");
        let img = uniform_input(shape, 42);
        let ker = xavier_kernels(shape, 42 ^ 0xabcd);
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = BlockedKernels::from_simple(&ker).unwrap();
        let mut out = plan.new_output().unwrap();
        let mut scratch = Scratch::new(&plan, exec.threads());
        plan.forward(&input, &kernels, &mut out, &mut scratch, exec).expect("smoke forward");
        match verify_sample(&plan, &input, &kernels, &out, &cfg, 0) {
            Ok(checked) => eprintln!(
                "# {}: budget-selected m = {:?}, {checked} sentinel tiles clean \
                 (bound {:.2e})",
                layer.id(),
                plan.grid.m,
                plan.predicted_bound()
            ),
            Err(e) => {
                failures += 1;
                eprintln!("SENTINEL TRIP on {}: {e}", layer.id());
            }
        }
    }
    if failures > 0 {
        eprintln!("error: {failures} sentinel trip(s) on a clean build");
        std::process::exit(1);
    }
    eprintln!("# sentinel smoke: all layers clean");
    std::process::exit(0);
}

fn main() {
    let args = Args::from_env();
    let exec = make_executor(&args);
    if args.flag("--sentinel-smoke") {
        sentinel_smoke(exec.as_ref());
    }
    let mut sink =
        Rows::new(&["m", "r", "points", "gamma", "predicted_bound", "measured_rel_err", "headroom"]);

    let mut violations = 0usize;
    for r in [3usize, 5] {
        // "Same" padding keeps the output grid the image grid; C = 32 is
        // enough accumulation depth to exercise the channel reduction.
        let pad = r / 2;
        let shape = ConvShape::new(1, 32, 32, &[24, 24], &[r, r], &[pad, pad]).unwrap();
        eprintln!("# r = {r}: computing f64 ground truth…");
        let img = uniform_input(&shape, 2024);
        let ker = xavier_kernels(&shape, 7);
        let truth = direct_f64(&img, &ker, &shape.padding);
        let truth_max = truth.data.iter().fold(0.0f64, |a, &v| a.max((v as f64).abs()));

        for m in [2usize, 4, 6, 8] {
            let gamma = Conditioning::for_schedule(m, r, PointSchedule::Mixed).gamma;
            let (measured, predicted) = measure(&shape, m, truth_max, &truth, exec.as_ref());
            if measured > predicted {
                violations += 1;
                eprintln!(
                    "VIOLATION: F({m}²,{r}²): measured {measured:.3e} exceeds predicted bound \
                     {predicted:.3e}"
                );
            }
            sink.push(&[
                m.to_string(),
                r.to_string(),
                "mixed".into(),
                format!("{gamma:.4e}"),
                format!("{predicted:.4e}"),
                format!("{measured:.4e}"),
                format!("{:.1}", predicted / measured.max(f64::MIN_POSITIVE)),
            ]);
        }
        for m in [2usize, 4, 6, 8] {
            // `predicted_bound`'s formula, with the integer schedule's γ
            // in both dimensions.
            let gamma = Conditioning::for_schedule(m, r, PointSchedule::Integer).gamma;
            let terms = (shape.in_channels * r * r) as f64;
            let predicted = f64::from(f32::EPSILON) * gamma * gamma * terms;
            sink.push(&[
                m.to_string(),
                r.to_string(),
                "integer".into(),
                format!("{gamma:.4e}"),
                format!("{predicted:.4e}"),
                String::new(),
                String::new(),
            ]);
        }
    }
    if violations > 0 {
        eprintln!("error: {violations} bound violation(s)");
        std::process::exit(1);
    }
    eprintln!("# all measured errors within their a-priori bounds");
}
