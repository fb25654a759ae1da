//! Perf-report support: machine calibration, baseline work models,
//! probed (instrumented) runs, and `BENCH_*.json` document assembly.
//!
//! The flow (`src/bin/perf.rs`, `scripts/bench.sh`):
//!
//! 1. [`calibrate`] measures attainable GEMM GFLOP/s and memory
//!    bandwidth with microbenchmarks — the [`MachineModel`] behind every
//!    roofline number in a report (a *software* roofline; no datasheet
//!    values).
//! 2. The timed runners in the crate root produce [`Measurement`]s from
//!    uninstrumented executors, exactly as the figure binaries do.
//! 3. [`probe_winograd`] / [`probe_direct`] / [`probe_im2col`] repeat one
//!    pass under a [`wino_sched::ProbedExecutor`] and fold the recorded
//!    spans with the per-stage work model into a
//!    [`wino_probe::StageReport`].
//! 4. [`layer_entry`] + [`perf_document`] assemble the versioned JSON
//!    validated by [`wino_probe::validate_schema`] and documented in
//!    `docs/bench-schema.md`.

use std::time::{SystemTime, UNIX_EPOCH};

use wino_baseline::{direct_conv, im2col_conv, im2col_conv_geo};
use wino_conv::{
    plan_dispatch, Activation, ConvOptions, ExecutionReport, FallbackPolicy, LayerSpec, Network,
    Scratch, WinogradLayer,
};
use wino_probe::{
    fold, Json, MachineModel, SpanCategory, StageReport, StageWork, WorkModel, SCHEMA_VERSION,
};
use wino_sched::{Executor, ProbedExecutor};
use wino_tensor::{BlockedImage, BlockedMatrices, ConvShape};
use wino_workloads::{time_best, Layer};

use crate::{geo_layer_data, layer_data, Measurement};

/// Today's UTC date as `YYYY-MM-DD` (no external time crates: civil date
/// from the days-since-epoch count, Gregorian calendar).
pub fn today_utc() -> String {
    let secs =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs() as i64).unwrap_or(0);
    let z = secs.div_euclid(86_400) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

struct MutPtr(*mut f32);
// SAFETY: calibration tasks write disjoint slots of the sums buffer.
unsafe impl Sync for MutPtr {}
// SAFETY: the pointer targets a caller-owned buffer that outlives the
// fork–join moving this handle between threads.
unsafe impl Send for MutPtr {}
impl MutPtr {
    // A method (not direct field access) so closures capture the Sync
    // wrapper rather than the raw pointer field.
    fn get(&self) -> *mut f32 {
        self.0
    }
}

/// Independent accumulators updated in registers only: nothing to load,
/// so the rate is what the FMA ports issue.
struct FmaLoop {
    iters: usize,
}

impl wino_simd::Kernel for FmaLoop {
    type Output = f32;

    #[inline(always)]
    fn run<V: wino_simd::Simd16>(self) -> f32 {
        // Twelve chains cover two ports at four or five cycles of latency.
        let (a, b) = (V::splat(std::hint::black_box(0.999)), V::splat(1e-3));
        let mut acc = [V::splat(1.0); FMA_CHAINS];
        for _ in 0..self.iters {
            for c in acc.iter_mut() {
                *c = a.mul_add(*c, b);
            }
        }
        acc.iter().map(|c| c.to_array()[0]).sum()
    }
}

const FMA_CHAINS: usize = 12;

/// FMA-issue peak of **one thread** on the active backend, in GFLOP/s:
/// a register-only loop of independent 16-lane FMAs. This is the
/// ceiling no kernel can pass; [`MachineModel::peak_gflops`] (from
/// [`calibrate`]) is what the shipped GEMM kernel reaches below it.
pub fn fma_issue_peak_gflops() -> f64 {
    let iters = 2_000_000;
    let timing = time_best(3, || {
        std::hint::black_box(wino_simd::dispatch(FmaLoop { iters }));
    });
    (2 * 16 * FMA_CHAINS * iters) as f64 / (timing.best_ms * 1e-3) / 1e9
}

/// Microbenchmark the machine: attainable all-core GEMM GFLOP/s (the
/// shipped monomorphised block-panel kernel on an in-cache problem — so
/// `peak_gflops` is that kernel's rate, not the FMA-issue peak, and
/// moves when the kernel does; see [`fma_issue_peak_gflops`]) and
/// read bandwidth from DRAM (a 64 MiB parallel reduction). Both use the
/// supplied executor, so the model matches the thread count of the runs
/// it will be folded against.
pub fn calibrate(exec: &dyn Executor) -> MachineModel {
    // Peak: t × (rows·c · c·cp) batched GEMM, multi-block in every
    // dimension, sized to live in cache (~1.3 MB of panels).
    let (t, rows, c, cp) = (8usize, 512usize, 128usize, 128usize);
    let mut u = BlockedMatrices::new(t, rows, c, 8, 64);
    let mut v = BlockedMatrices::new(t, c, cp, 64, 64);
    let mut x = BlockedMatrices::new(t, rows, cp, 8, 64);
    for (i, f) in u.as_mut_slice().iter_mut().enumerate() {
        *f = (i % 29) as f32 * 0.03 - 0.4;
    }
    for (i, f) in v.as_mut_slice().iter_mut().enumerate() {
        *f = (i % 23) as f32 * 0.05 - 0.5;
    }
    let timing = time_best(3, || {
        wino_gemm::batched_gemm_parallel(&u, &v, &mut x, exec).expect("calibration gemm failed");
    });
    std::hint::black_box(x.as_slice().first());
    let peak_gflops = 2.0 * (t * rows * c * cp) as f64 / (timing.best_ms * 1e-3) / 1e9;

    // Bandwidth: sum a buffer far larger than any cache, split into
    // many more chunks than threads so static partitioning stays even.
    let words = 16usize << 20; // 64 MiB of f32
    let src = vec![1.0f32; words];
    let tasks = exec.threads().max(1) * 8;
    let chunk = words.div_ceil(tasks);
    let mut sums = vec![0.0f32; tasks];
    let ptr = MutPtr(sums.as_mut_ptr());
    let timing = time_best(3, || {
        exec.run_grid(&[tasks], &|_slot, i| {
            let lo = (i * chunk).min(words);
            let hi = ((i + 1) * chunk).min(words);
            // Eight independent accumulators so the loads, not the
            // f32-add dependency chain, limit throughput.
            let mut acc = [0.0f32; 8];
            let mut j = lo;
            while j + 8 <= hi {
                for (k, a) in acc.iter_mut().enumerate() {
                    *a += src[j + k];
                }
                j += 8;
            }
            let mut s: f32 = acc.iter().sum();
            while j < hi {
                s += src[j];
                j += 1;
            }
            // SAFETY: each task writes only its own slot `i`.
            unsafe { *ptr.get().add(i) = s };
        })
        .expect("calibration bandwidth pass failed");
    });
    std::hint::black_box(sums.first());
    let mem_bw_gbps = (words * 4) as f64 / (timing.best_ms * 1e-3) / 1e9;

    MachineModel { peak_gflops, mem_bw_gbps, threads: exec.threads() }
}

/// Work model of the vectorised direct baseline: all FLOPs in the single
/// `direct-kernel` stage; ideal-cache bytes = input + kernels + output,
/// each moved once.
pub fn direct_work_model(shape: &ConvShape) -> WorkModel {
    let in_elems = shape.batch * shape.in_channels * prod(&shape.image_dims);
    let ker_elems = shape.in_channels * shape.out_channels * prod(&shape.kernel_dims);
    let out_elems = shape.batch * shape.out_channels * prod(&shape.out_dims());
    let mut wm = WorkModel::new();
    wm.set(
        SpanCategory::DirectKernel,
        StageWork {
            flops: shape.direct_flops(),
            bytes: 4 * (in_elems + ker_elems + out_elems) as u128,
        },
    );
    wm
}

/// Work model of the im2col baseline. The GEMM stage carries the
/// arithmetic (`2 · rows · inner · C'`, rows = B·∏out, inner = C·∏r);
/// `im2col-lower` is pure data movement — lowering the input and kernels
/// on the way in, scattering the product on the way out.
pub fn im2col_work_model(shape: &ConvShape) -> WorkModel {
    let out_vol = prod(&shape.out_dims());
    let rows = shape.batch * out_vol;
    let inner = shape.in_channels * prod(&shape.kernel_dims);
    let cp = shape.out_channels;
    let in_elems = shape.batch * shape.in_channels * prod(&shape.image_dims);
    let ker_elems = inner * cp;
    let out_elems = shape.batch * cp * out_vol;
    let mut wm = WorkModel::new();
    wm.set(
        SpanCategory::Im2colLower,
        StageWork {
            flops: 0,
            bytes: 4 * (in_elems + rows * inner + ker_elems * 2 + rows * cp + out_elems) as u128,
        },
    );
    wm.set(
        SpanCategory::ElementwiseGemm,
        StageWork {
            flops: 2 * (rows * inner * cp) as u128,
            bytes: 4 * (rows * inner + inner * cp + rows * cp) as u128,
        },
    );
    wm
}

fn prod(dims: &[usize]) -> usize {
    dims.iter().product()
}

/// One instrumented Winograd pass, folded against the plan's own
/// [`WinogradLayer::work_model`]. `None` if the plan is rejected or the
/// forward fails.
pub fn probe_winograd(
    layer: &Layer,
    m: &[usize],
    opts: ConvOptions,
    exec: &dyn Executor,
    machine: &MachineModel,
) -> Option<StageReport> {
    let plan = WinogradLayer::new(layer.shape.clone(), m, opts).ok()?;
    let (input, kernels) = layer_data(layer, 42);
    let mut output = plan.new_output().ok()?;
    let mut probed = ProbedExecutor::new(exec);
    let mut scratch = Scratch::new(&plan, probed.threads());
    plan.forward(&input, &kernels, &mut output, &mut scratch, &probed).ok()?;
    std::hint::black_box(output.as_slice().first());
    Some(fold(&probed.take_events(), &plan.work_model(), machine))
}

/// One instrumented direct-convolution pass, folded against
/// [`direct_work_model`].
pub fn probe_direct(layer: &Layer, exec: &dyn Executor, machine: &MachineModel) -> StageReport {
    let (input, kernels) = layer_data(layer, 42);
    let mut output =
        BlockedImage::zeros(layer.shape.batch, layer.shape.out_channels, &layer.shape.out_dims())
            .expect("catalogue output is allocatable");
    let mut probed = ProbedExecutor::new(exec);
    direct_conv(&input, &kernels, &layer.shape.padding, &mut output, &probed)
        .expect("probed direct_conv failed");
    std::hint::black_box(output.as_slice().first());
    fold(&probed.take_events(), &direct_work_model(&layer.shape), machine)
}

/// One instrumented im2col pass, folded against [`im2col_work_model`].
pub fn probe_im2col(layer: &Layer, exec: &dyn Executor, machine: &MachineModel) -> StageReport {
    let (input, kernels) = layer_data(layer, 42);
    let mut output =
        BlockedImage::zeros(layer.shape.batch, layer.shape.out_channels, &layer.shape.out_dims())
            .expect("catalogue output is allocatable");
    let mut probed = ProbedExecutor::new(exec);
    im2col_conv(&input, &kernels, &layer.shape.padding, &mut output, &probed)
        .expect("probed im2col_conv failed");
    std::hint::black_box(output.as_slice().first());
    fold(&probed.take_events(), &im2col_work_model(&layer.shape), machine)
}

/// One instrumented pass through the dispatch layer's routed engine
/// (dense / grouped Winograd, subsampled under a stride, or the designed
/// im2col fallback),
/// folded against [`wino_conv::DispatchPlan::work_model`]. `None` if the
/// layer is unrepresentable under `opts`' geometry.
pub fn probe_dispatch(
    layer: &Layer,
    m: &[usize],
    opts: ConvOptions,
    exec: &dyn Executor,
    machine: &MachineModel,
) -> Option<StageReport> {
    let (dp, _) = plan_dispatch(&layer.shape, m, opts, &FallbackPolicy::default()).ok()?;
    let (input, kernels) = geo_layer_data(layer, dp.geo.groups, 42);
    let mut output = dp.new_output().ok()?;
    let mut probed = ProbedExecutor::new(exec);
    dp.forward(&input, &kernels, &mut output, &probed).ok()?;
    std::hint::black_box(output.as_slice().first());
    Some(fold(&probed.take_events(), &dp.work_model(), machine))
}

/// One instrumented geometry-aware im2col pass, folded against the same
/// geometry's [`wino_conv::DispatchPlan::im2col_work_model`] — the
/// baseline side of every dispatch comparison row. `None` if the layer is
/// unrepresentable under `opts`' geometry.
pub fn probe_im2col_geo(
    layer: &Layer,
    opts: ConvOptions,
    exec: &dyn Executor,
    machine: &MachineModel,
) -> Option<StageReport> {
    // The dispatch plan is only borrowed for its geometry-normalised
    // shape/out-dims/work-model bookkeeping; the timed engine below is
    // the plain im2col baseline, whatever route the plan would take.
    let (dp, _) =
        plan_dispatch(&layer.shape, &vec![2; layer.rank()], opts, &FallbackPolicy::default())
            .ok()?;
    let (input, kernels) = geo_layer_data(layer, dp.geo.groups, 42);
    let mut output = dp.new_output().ok()?;
    let mut probed = ProbedExecutor::new(exec);
    im2col_conv_geo(&input, &kernels, &layer.shape.padding, &dp.geo, &mut output, &probed).ok()?;
    std::hint::black_box(output.as_slice().first());
    Some(fold(&probed.take_events(), &dp.im2col_work_model(), machine))
}

/// One uninstrumented pass through the `Network` execution path to learn
/// what the degradation machinery actually did for this layer — the
/// [`ExecutionReport`] behind the row's schema-v3 `execution` object.
/// `None` if no plan exists even under the default fallback policy.
pub fn probe_execution(
    layer: &Layer,
    m: &[usize],
    opts: ConvOptions,
    exec: &dyn Executor,
) -> Option<ExecutionReport> {
    let s = &layer.shape;
    let spec = LayerSpec {
        out_channels: s.out_channels,
        kernel: s.kernel_dims.clone(),
        padding: s.padding.clone(),
        m: m.to_vec(),
        activation: Activation::None,
    };
    let policy = FallbackPolicy::default();
    let mut net = Network::with_policy(
        s.batch,
        s.in_channels,
        &s.image_dims,
        std::slice::from_ref(&spec),
        opts,
        exec.threads(),
        &policy,
    )
    .ok()?;
    let (input, kernels) = layer_data(layer, 42);
    let (_, reports) = net.run_net(&input, std::slice::from_ref(&kernels), exec, &policy).ok()?;
    reports.into_iter().next()
}

/// The schema-v3 `execution` object of one report row: which backend
/// produced the output and (when degraded) why.
pub fn execution_json(report: &ExecutionReport) -> Json {
    let mut fields = vec![("backend".into(), Json::Str(report.backend.name().to_string()))];
    if let Some(f) = &report.fallback {
        fields.push(("fallback".into(), Json::Str(f.code().to_string())));
    }
    Json::Obj(fields)
}

/// Schema-v2 accuracy columns of one report row. Both fields are
/// optional in the schema; `Accuracy::default()` emits neither (e.g.
/// when the oracle pass failed).
#[derive(Clone, Copy, Debug, Default)]
pub struct Accuracy {
    /// Measured max relative error vs the f64 oracle
    /// ([`crate::max_rel_error`]).
    pub max_rel_error: Option<f64>,
    /// The plan's a-priori bound ([`WinogradLayer::predicted_bound`]);
    /// only Winograd rows have one.
    pub predicted_bound: Option<f64>,
}

/// One `layers[]` element of the perf-report schema: the timed
/// measurement plus the folded stage breakdown of an instrumented pass,
/// the (schema v2) measured-vs-predicted accuracy columns and the
/// (schema v3) execution provenance.
pub fn layer_entry(
    meas: &Measurement,
    report: &StageReport,
    accuracy: Accuracy,
    execution: Option<&ExecutionReport>,
) -> Json {
    let mut fields = vec![
        ("layer".into(), Json::Str(meas.layer.clone())),
        ("impl".into(), Json::Str(meas.implementation.clone())),
        ("best_ms".into(), Json::Num(meas.timing.best_ms)),
        ("mean_ms".into(), Json::Num(meas.timing.mean_ms)),
        ("effective_gflops".into(), Json::Num(meas.gflops)),
        ("reps".into(), Json::Num(meas.timing.reps as f64)),
    ];
    if let Some(e) = accuracy.max_rel_error {
        fields.push(("max_rel_error".into(), Json::Num(e)));
    }
    if let Some(b) = accuracy.predicted_bound {
        fields.push(("predicted_bound".into(), Json::Num(b)));
    }
    if let Some(e) = execution {
        fields.push(("execution".into(), execution_json(e)));
    }
    fields.extend([
        ("total_stage_wall_ms".into(), Json::Num(report.total_wall_ms)),
        ("stages".into(), report.stages_json()),
        ("barrier".into(), report.barrier_json()),
    ]);
    Json::Obj(fields)
}

/// The schema-v5 top-level `memory` object: the analytic footprint model
/// next to the observed allocator tallies, so a report reader can judge
/// the model against what the process actually did. `budget_bytes` is
/// the configured admission ceiling, when one was set.
pub fn memory_json(modeled_bytes: usize, budget_bytes: Option<usize>) -> Json {
    use wino_probe::Counter;
    let mut fields = vec![
        ("modeled_bytes".into(), Json::Num(modeled_bytes as f64)),
        ("alloc_bytes_peak".into(), Json::Num(Counter::AllocBytesPeak.get() as f64)),
        ("alloc_calls".into(), Json::Num(Counter::AllocCalls.get() as f64)),
        ("demotions".into(), Json::Num(Counter::MemoryDemotions.get() as f64)),
        ("rescues".into(), Json::Num(Counter::MemoryRescues.get() as f64)),
    ];
    if let Some(b) = budget_bytes {
        fields.push(("budget_bytes".into(), Json::Num(b as f64)));
    }
    #[cfg(feature = "fault-inject")]
    fields.push((
        "injected_failures".into(),
        Json::Num(wino_simd::fault::injected_failures() as f64),
    ));
    Json::Obj(fields)
}

/// Assemble a complete schema-version-[`SCHEMA_VERSION`] document.
pub fn perf_document(
    generated_by: &str,
    date: &str,
    machine: &MachineModel,
    layers: Vec<Json>,
) -> Json {
    Json::Obj(vec![
        ("schema_version".into(), Json::Num(SCHEMA_VERSION as f64)),
        ("generated_by".into(), Json::Str(generated_by.to_string())),
        ("date".into(), Json::Str(date.to_string())),
        (
            "machine".into(),
            Json::Obj(vec![
                ("peak_gflops".into(), Json::Num(machine.peak_gflops)),
                ("mem_bw_gbps".into(), Json::Num(machine.mem_bw_gbps)),
                ("threads".into(), Json::Num(machine.threads as f64)),
                ("simd".into(), Json::Str(wino_simd::backend_name().to_string())),
            ]),
        ),
        ("layers".into(), Json::Arr(layers)),
        (
            // Sentinel tallies across the whole run (v2). All zero in a
            // plain timing run — the timed passes never enable sampling —
            // but a probed run with sentinels on lands its evidence here.
            "counters".into(),
            Json::Obj(
                wino_probe::Counter::ALL
                    .iter()
                    .map(|c| (c.name().to_string(), Json::Num(c.get() as f64)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_formula_matches_known_days() {
        // 2026-08-07 is 20_672 days after 1970-01-01; spot-check the
        // civil-from-days math via a fixed divisor rather than the clock.
        let fmt = |days: i64| {
            let z = days + 719_468;
            let era = z.div_euclid(146_097);
            let doe = z.rem_euclid(146_097);
            let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
            let y = yoe + era * 400;
            let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
            let mp = (5 * doy + 2) / 153;
            let d = doy - (153 * mp + 2) / 5 + 1;
            let m = if mp < 10 { mp + 3 } else { mp - 9 };
            let y = if m <= 2 { y + 1 } else { y };
            format!("{y:04}-{m:02}-{d:02}")
        };
        assert_eq!(fmt(0), "1970-01-01");
        assert_eq!(fmt(19_723), "2024-01-01"); // leap year start
        assert_eq!(fmt(20_672), "2026-08-07");
        // And the live function at least has the right shape.
        let today = today_utc();
        assert_eq!(today.len(), 10);
        assert_eq!(today.as_bytes()[4], b'-');
        assert_eq!(today.as_bytes()[7], b'-');
    }

    #[test]
    fn direct_work_model_formulas() {
        // 1×16×16, 10×10 image, 3×3 kernel, pad 0 → out 8×8.
        let s = ConvShape::new(1, 16, 16, &[10, 10], &[3, 3], &[0, 0]).unwrap();
        let wm = direct_work_model(&s);
        let w = wm.get(SpanCategory::DirectKernel).unwrap();
        // direct flops = 2·16·16·64·9.
        assert_eq!(w.flops, 2 * 16 * 16 * 64 * 9);
        // bytes = 4·(1600 + 2304 + 1024) input/kernels/output f32s.
        assert_eq!(w.bytes, 4 * (16 * 100 + 16 * 16 * 9 + 16 * 64));
    }

    #[test]
    fn im2col_work_model_gemm_stage() {
        let s = ConvShape::new(1, 16, 16, &[10, 10], &[3, 3], &[0, 0]).unwrap();
        let wm = im2col_work_model(&s);
        let g = wm.get(SpanCategory::ElementwiseGemm).unwrap();
        // rows = 64, inner = 16·9 = 144, cp = 16.
        assert_eq!(g.flops, 2 * 64 * 144 * 16);
        assert_eq!(g.bytes, 4 * (64 * 144 + 144 * 16 + 64 * 16));
        let l = wm.get(SpanCategory::Im2colLower).unwrap();
        assert_eq!(l.flops, 0);
        assert!(l.bytes > 0);
    }

    #[test]
    fn perf_document_validates_with_stub_layer() {
        let machine = MachineModel { peak_gflops: 50.0, mem_bw_gbps: 12.0, threads: 2 };
        let stage = Json::Obj(vec![
            ("stage".into(), Json::Str("direct-kernel".into())),
            ("wall_ms".into(), Json::Num(1.0)),
            ("cpu_ms".into(), Json::Num(0.0)),
            ("spans".into(), Json::Num(1.0)),
            ("gflops".into(), Json::Num(10.0)),
            ("arith_intensity".into(), Json::Num(2.0)),
        ]);
        let layer = Json::Obj(vec![
            ("layer".into(), Json::Str("VGG 3.2".into())),
            ("impl".into(), Json::Str("direct".into())),
            ("best_ms".into(), Json::Num(1.0)),
            ("mean_ms".into(), Json::Num(1.1)),
            ("effective_gflops".into(), Json::Num(9.0)),
            ("reps".into(), Json::Num(3.0)),
            (
                "execution".into(),
                execution_json(&ExecutionReport {
                    layer: 0,
                    backend: wino_conv::LayerBackend::Im2col,
                    fallback: None,
                }),
            ),
            ("stages".into(), Json::Arr(vec![stage])),
            (
                "barrier".into(),
                Json::Obj(vec![
                    ("fork_joins".into(), Json::Num(1.0)),
                    ("max_skew_us".into(), Json::Num(0.0)),
                    ("mean_skew_us".into(), Json::Num(0.0)),
                    ("total_wait_ms".into(), Json::Num(0.0)),
                ]),
            ),
        ]);
        let doc = perf_document("unit-test", "2026-08-07", &machine, vec![layer]);
        let reparsed = wino_probe::parse_json(&doc.render_pretty()).unwrap();
        wino_probe::validate_schema(&reparsed).unwrap();
    }

    #[test]
    fn calibration_is_positive_and_finite() {
        let m = calibrate(&wino_sched::SerialExecutor);
        assert!(m.peak_gflops.is_finite() && m.peak_gflops > 0.0);
        assert!(m.mem_bw_gbps.is_finite() && m.mem_bw_gbps > 0.0);
        assert_eq!(m.threads, 1);
    }
}
