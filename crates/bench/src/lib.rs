//! # wino-bench
//!
//! Shared plumbing for the benchmark binaries that regenerate the paper's
//! tables and figures (see `EXPERIMENTS.md` for the index):
//!
//! * timed runners ([`run_winograd`], [`run_direct`], [`run_baseline_im2col`],
//!   [`run_fft`]) producing [`Measurement`] rows with the Fig. 5
//!   direct-FLOPs effective-GFLOP/s normaliser,
//! * the [`perf`] module: machine calibration, per-stage work models and
//!   instrumented runs under a `ProbedExecutor`, and the versioned
//!   `BENCH_*.json` document assembly (`docs/bench-schema.md`),
//! * a tiny flag parser ([`Args`]) and executor factory
//!   ([`make_executor`]) shared by every binary.
//!
//! ```
//! use wino_bench::Measurement;
//! use wino_workloads::Timing;
//!
//! let m = Measurement {
//!     layer: "VGG 3.2".into(),
//!     implementation: "direct".into(),
//!     timing: Timing { best_ms: 1.0, mean_ms: 1.5, reps: 3 },
//!     gflops: 42.0,
//! };
//! assert_eq!(Measurement::csv_header(), "layer,impl,best_ms,mean_ms,effective_gflops");
//! assert_eq!(m.to_csv(), "VGG 3.2,direct,1.000,1.500,42.00");
//! ```

pub mod perf;
pub mod scaling;

use wino_baseline::{direct_conv, im2col_conv, im2col_conv_geo};
use wino_conv::{
    plan_dispatch, Activation, ConvOptions, FallbackPolicy, LayerSpec, Network, Scratch,
    WinogradLayer,
};
use wino_sched::Executor;
use wino_tensor::{BlockedImage, BlockedKernels, ConvGeometry, ConvShape, SimpleImage};
use wino_workloads::{effective_gflops, time_best, uniform_input, xavier_kernels, Layer, Timing};

/// One measured row of a Fig. 5-style report.
#[derive(Clone, Debug)]
pub struct Measurement {
    pub layer: String,
    pub implementation: String,
    pub timing: Timing,
    pub gflops: f64,
}

impl Measurement {
    pub fn csv_header() -> &'static str {
        "layer,impl,best_ms,mean_ms,effective_gflops"
    }

    /// The [`Measurement::csv_header`] columns as formatted cells.
    pub fn csv_cells(&self) -> Vec<String> {
        vec![
            self.layer.clone(),
            self.implementation.clone(),
            format!("{:.3}", self.timing.best_ms),
            format!("{:.3}", self.timing.mean_ms),
            format!("{:.2}", self.gflops),
        ]
    }

    pub fn to_csv(&self) -> String {
        self.csv_cells().join(",")
    }
}

/// Row sink shared by the figure binaries: CSV on stdout by default, or
/// (with `--json`) a buffered array of objects — one per row, keyed by
/// column name — printed by [`Rows::finish`]. Cells that parse as
/// numbers become JSON numbers; empty cells become `null`.
pub struct Rows {
    columns: &'static [&'static str],
    json: bool,
    buf: Vec<wino_probe::Json>,
}

impl Rows {
    pub fn new(json: bool, columns: &'static [&'static str]) -> Rows {
        if !json {
            println!("{}", columns.join(","));
        }
        Rows { columns, json, buf: Vec::new() }
    }

    /// Emit one row of preformatted cells (must match the column count).
    pub fn push(&mut self, values: &[String]) {
        use wino_probe::Json;
        assert_eq!(values.len(), self.columns.len(), "row width != column count");
        if self.json {
            let fields = self
                .columns
                .iter()
                .zip(values)
                .map(|(c, v)| {
                    let cell = if v.is_empty() {
                        Json::Null
                    } else {
                        v.parse::<f64>().map(Json::Num).unwrap_or_else(|_| Json::Str(v.clone()))
                    };
                    ((*c).to_string(), cell)
                })
                .collect();
            self.buf.push(Json::Obj(fields));
        } else {
            println!("{}", values.join(","));
        }
    }

    /// Print the buffered JSON array (no-op in CSV mode).
    pub fn finish(self) {
        if self.json {
            print!("{}", wino_probe::Json::Arr(self.buf).render_pretty());
        }
    }
}

fn measurement(layer: &Layer, name: String, shape: &ConvShape, timing: Timing) -> Measurement {
    Measurement {
        layer: layer.id(),
        implementation: name,
        gflops: effective_gflops(shape, timing.best_ms),
        timing,
    }
}

/// Deterministic blocked input/kernels for a layer.
pub fn layer_data(layer: &Layer, seed: u64) -> (BlockedImage, BlockedKernels) {
    let img = uniform_input(&layer.shape, seed);
    let ker = xavier_kernels(&layer.shape, seed ^ 0xabcd);
    (
        BlockedImage::from_simple(&img).expect("catalogue layers are blockable"),
        BlockedKernels::from_simple(&ker).expect("catalogue kernels are blockable"),
    )
}

/// f64 ground truth for a layer's deterministic bench data (the same
/// seed-42 input/kernels every `run_*` runner times). One `direct_f64`
/// pass per layer — compute it once and reuse it across implementations.
pub fn layer_truth(layer: &Layer) -> SimpleImage {
    let img = uniform_input(&layer.shape, 42);
    let ker = xavier_kernels(&layer.shape, 42 ^ 0xabcd);
    wino_baseline::direct_f64(&img, &ker, &layer.shape.padding)
}

/// Max relative output error against a [`layer_truth`] oracle:
/// `max|got − truth| / max(‖truth‖∞, 1)` — the same normalisation the
/// runtime accuracy sentinels use, so report numbers are directly
/// comparable to `predicted_bound`.
pub fn max_rel_error(out: &BlockedImage, truth: &SimpleImage) -> f64 {
    let (max_abs, _) = wino_baseline::element_errors(&out.to_simple(), truth);
    let inf = truth.data.iter().fold(0.0f64, |a, &v| a.max((v as f64).abs()));
    max_abs / inf.max(1.0)
}

/// One untimed Winograd forward on the bench data, returning the output
/// plus the plan's a-priori error bound. `None` if the plan is rejected.
pub fn winograd_output(
    layer: &Layer,
    m: &[usize],
    opts: ConvOptions,
    exec: &dyn Executor,
) -> Option<(BlockedImage, f64)> {
    let plan = WinogradLayer::new(layer.shape.clone(), m, opts).ok()?;
    let (input, kernels) = layer_data(layer, 42);
    let mut output = plan.new_output().ok()?;
    let mut scratch = Scratch::new(&plan, exec.threads());
    plan.forward(&input, &kernels, &mut output, &mut scratch, exec).ok()?;
    let bound = plan.predicted_bound();
    Some((output, bound))
}

/// One untimed direct-convolution forward on the bench data.
pub fn direct_output(layer: &Layer, exec: &dyn Executor) -> BlockedImage {
    let (input, kernels) = layer_data(layer, 42);
    let mut output =
        BlockedImage::zeros(layer.shape.batch, layer.shape.out_channels, &layer.shape.out_dims())
            .unwrap();
    direct_conv(&input, &kernels, &layer.shape.padding, &mut output, exec)
        .expect("accuracy direct_conv failed");
    output
}

/// One untimed im2col forward on the bench data.
pub fn im2col_output(layer: &Layer, exec: &dyn Executor) -> BlockedImage {
    let (input, kernels) = layer_data(layer, 42);
    let mut output =
        BlockedImage::zeros(layer.shape.batch, layer.shape.out_channels, &layer.shape.out_dims())
            .unwrap();
    im2col_conv(&input, &kernels, &layer.shape.padding, &mut output, exec)
        .expect("accuracy im2col_conv failed");
    output
}

/// Row-name suffix encoding a non-identity geometry (`" s2x2"`,
/// `" d2x2"`, `" g4"`); empty for the identity, so geometry rows never
/// collide with the plain runners' labels.
fn geo_suffix(geo: &ConvGeometry) -> String {
    let join =
        |v: &[usize]| v.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("x");
    let mut s = String::new();
    if geo.stride.iter().any(|&x| x != 1) {
        s.push_str(&format!(" s{}", join(&geo.stride)));
    }
    if geo.dilation.iter().any(|&x| x != 1) {
        s.push_str(&format!(" d{}", join(&geo.dilation)));
    }
    if geo.groups > 1 {
        s.push_str(&format!(" g{}", geo.groups));
    }
    s
}

/// Effective GFLOP/s under a geometry: the *geometry's* direct-conv FLOP
/// count (strided layers do `1/∏s` of the dense work, grouped `1/G`)
/// over the best time — the identity-geometry [`effective_gflops`]
/// normaliser would overstate strided rows 4×.
fn geo_gflops(direct_flops: u128, ms: f64) -> f64 {
    direct_flops as f64 / (ms * 1e-3) / 1e9
}

/// Deterministic blocked input/kernels for a layer under the grouped
/// kernel convention: `kernels.in_channels == C / groups` (identical to
/// [`layer_data`] when `groups == 1`).
pub fn geo_layer_data(layer: &Layer, groups: usize, seed: u64) -> (BlockedImage, BlockedKernels) {
    let s = &layer.shape;
    let img = uniform_input(s, seed);
    let gshape = ConvShape::new(
        s.batch,
        s.in_channels / groups.max(1),
        s.out_channels,
        &s.image_dims,
        &s.kernel_dims,
        &s.padding,
    )
    .expect("per-group shape of a catalogue layer is valid");
    let ker = xavier_kernels(&gshape, seed ^ 0xabcd);
    (
        BlockedImage::from_simple(&img).expect("catalogue layers are blockable"),
        BlockedKernels::from_simple(&ker).expect("catalogue kernels are blockable"),
    )
}

/// f64 ground truth for [`geo_layer_data`]'s seed-42 bench data under
/// the geometry carried by `opts` — the oracle behind every geometry
/// row's `max_rel_error` column.
pub fn geo_layer_truth(layer: &Layer, opts: ConvOptions) -> SimpleImage {
    let s = &layer.shape;
    let geo = opts.geometry(s.rank());
    let img = uniform_input(s, 42);
    let gshape = ConvShape::new(
        s.batch,
        s.in_channels / geo.groups,
        s.out_channels,
        &s.image_dims,
        &s.kernel_dims,
        &s.padding,
    )
    .expect("per-group shape of a catalogue layer is valid");
    let ker = xavier_kernels(&gshape, 42 ^ 0xabcd);
    wino_baseline::direct_f64_geo(&img, &ker, &s.padding, &geo)
}

/// One untimed dispatched forward on the geometry bench data. `None` if
/// the layer is unrepresentable under `opts` or the route fails.
pub fn dispatch_output(
    layer: &Layer,
    m: &[usize],
    opts: ConvOptions,
    exec: &dyn Executor,
) -> Option<BlockedImage> {
    let (dp, _) = plan_dispatch(&layer.shape, m, opts, &FallbackPolicy::default()).ok()?;
    let (input, kernels) = geo_layer_data(layer, dp.geo.groups, 42);
    let mut output = dp.new_output().ok()?;
    dp.forward(&input, &kernels, &mut output, exec).ok()?;
    Some(output)
}

/// Time the dispatch layer's routed engine (dense / grouped Winograd,
/// subsampled under a stride, or the designed im2col fallback) for one
/// tile choice under the geometry carried by `opts`, as a one-layer
/// [`Network`] runs it: the layer's scratch — and a strided layer's
/// stride-1 image — stay resident across the reps, as
/// [`run_winograd`]'s `Scratch` does and as `wino-serve` holds them;
/// each rep allocates the output it returns. The row is labelled by the
/// route's reported backend plus the geometry suffix
/// (`"winograd-mono F(4x4) s2x2"`); GFLOP/s use the geometry's own
/// direct-FLOP normaliser. `None` if the layer is unrepresentable under
/// `opts`.
pub fn run_dispatch(
    layer: &Layer,
    m: &[usize],
    opts: ConvOptions,
    exec: &dyn Executor,
    reps: usize,
) -> Option<Measurement> {
    let s = &layer.shape;
    let spec = LayerSpec {
        out_channels: s.out_channels,
        kernel: s.kernel_dims.clone(),
        padding: s.padding.clone(),
        m: m.to_vec(),
        activation: Activation::None,
    };
    let policy = FallbackPolicy::default();
    let (c, dims, threads) = (s.in_channels, &s.image_dims, exec.threads());
    let mut net = Network::with_policy(s.batch, c, dims, &[spec], opts, threads, &policy).ok()?;
    let dp = &net.layers()[0].plan;
    let (input, kernels) = geo_layer_data(layer, dp.geo.groups, 42);
    let m_str: Vec<String> = m.iter().map(|x| x.to_string()).collect();
    let name = format!("{} F({}){}", dp.backend().name(), m_str.join("x"), geo_suffix(&dp.geo));
    let flops = dp.direct_flops();
    let unguarded = FallbackPolicy::strict(); // time the engine, not the numeric guard
    let timing = time_best(reps, || {
        let out = net.run_layer(0, &input, &kernels, exec, &unguarded);
        std::hint::black_box(out.expect("benchmark dispatch forward failed"));
    });
    let gflops = geo_gflops(flops, timing.best_ms);
    Some(Measurement { layer: layer.id(), implementation: name, timing, gflops })
}

/// One untimed geometry-aware im2col forward on the geometry bench data.
pub fn im2col_geo_output(layer: &Layer, opts: ConvOptions, exec: &dyn Executor) -> Option<BlockedImage> {
    let s = &layer.shape;
    let geo = opts.geometry(s.rank());
    let (input, kernels) = geo_layer_data(layer, geo.groups, 42);
    let mut output =
        BlockedImage::zeros(s.batch, s.out_channels, &geo.out_dims(s).ok()?).ok()?;
    im2col_conv_geo(&input, &kernels, &s.padding, &geo, &mut output, exec).ok()?;
    Some(output)
}

/// Time the geometry-aware im2col + GEMM baseline — the universal
/// fallback every dispatch route is judged against. `None` if the layer
/// is unrepresentable under `opts`.
pub fn run_baseline_im2col_geo(
    layer: &Layer,
    opts: ConvOptions,
    exec: &dyn Executor,
    reps: usize,
) -> Option<Measurement> {
    let s = &layer.shape;
    let geo = opts.geometry(s.rank());
    geo.validate(s).ok()?;
    let (input, kernels) = geo_layer_data(layer, geo.groups, 42);
    let mut output =
        BlockedImage::zeros(s.batch, s.out_channels, &geo.out_dims(s).ok()?).ok()?;
    let timing = time_best(reps, || {
        im2col_conv_geo(&input, &kernels, &s.padding, &geo, &mut output, exec)
            .expect("benchmark im2col_conv_geo failed");
    });
    std::hint::black_box(output.as_slice().first());
    let gflops = geo_gflops(2 * geo.direct_macs(s).ok()?, timing.best_ms);
    Some(Measurement {
        layer: layer.id(),
        implementation: format!("im2col-gemm{}", geo_suffix(&geo)),
        timing,
        gflops,
    })
}

/// Time our Winograd implementation for one tile choice. Returns `None`
/// if the plan is rejected (e.g. tile too large for the layer).
pub fn run_winograd(
    layer: &Layer,
    m: &[usize],
    fx: bool,
    opts: ConvOptions,
    exec: &dyn Executor,
    reps: usize,
) -> Option<Measurement> {
    let plan = WinogradLayer::new(layer.shape.clone(), m, opts).ok()?;
    let (input, kernels) = layer_data(layer, 42);
    let mut output = plan.new_output().ok()?;
    let mut scratch = Scratch::new(&plan, exec.threads());
    let m_str: Vec<String> = m.iter().map(|x| x.to_string()).collect();
    let name = if fx {
        format!("winograd-fx F({})", m_str.join("x"))
    } else {
        format!("winograd F({})", m_str.join("x"))
    };
    let timing = if fx {
        let tk = plan.prepare_kernels(&kernels, &mut scratch, exec).ok()?;
        time_best(reps, || {
            plan.forward_fx(&input, &tk, &mut output, &mut scratch, exec)
                .expect("benchmark forward failed");
        })
    } else {
        time_best(reps, || {
            plan.forward(&input, &kernels, &mut output, &mut scratch, exec)
                .expect("benchmark forward failed");
        })
    };
    std::hint::black_box(output.as_slice().first());
    Some(measurement(layer, name, &layer.shape, timing))
}

/// Time the vectorised direct-convolution baseline.
pub fn run_direct(layer: &Layer, exec: &dyn Executor, reps: usize) -> Measurement {
    let (input, kernels) = layer_data(layer, 42);
    let mut output =
        BlockedImage::zeros(layer.shape.batch, layer.shape.out_channels, &layer.shape.out_dims())
            .unwrap();
    let timing = time_best(reps, || {
        direct_conv(&input, &kernels, &layer.shape.padding, &mut output, exec)
            .expect("benchmark direct_conv failed");
    });
    std::hint::black_box(output.as_slice().first());
    measurement(layer, "direct".into(), &layer.shape, timing)
}

/// Time the im2col + GEMM baseline.
pub fn run_baseline_im2col(layer: &Layer, exec: &dyn Executor, reps: usize) -> Measurement {
    let (input, kernels) = layer_data(layer, 42);
    let mut output =
        BlockedImage::zeros(layer.shape.batch, layer.shape.out_channels, &layer.shape.out_dims())
            .unwrap();
    let timing = time_best(reps, || {
        im2col_conv(&input, &kernels, &layer.shape.padding, &mut output, exec)
            .expect("benchmark im2col_conv failed");
    });
    std::hint::black_box(output.as_slice().first());
    measurement(layer, "im2col-gemm".into(), &layer.shape, timing)
}

/// Time the FFT baseline (operates on interchange tensors).
pub fn run_fft(layer: &Layer, exec: &dyn Executor, reps: usize) -> Measurement {
    let img = uniform_input(&layer.shape, 42);
    let ker = xavier_kernels(&layer.shape, 42 ^ 0xabcd);
    let timing = time_best(reps, || {
        let out = wino_fft::fft_conv(&img, &ker, &layer.shape.padding, exec)
            .expect("benchmark fft_conv failed");
        std::hint::black_box(out.data.first().copied());
    });
    measurement(layer, "fft".into(), &layer.shape, timing)
}

/// Minimal flag parser: `--key value` pairs plus bare flags.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    pub fn from_env() -> Args {
        Args { raw: std::env::args().skip(1).collect() }
    }

    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }

    pub fn value(&self, name: &str) -> Option<&str> {
        self.raw
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.raw.get(i + 1))
            .map(|s| s.as_str())
    }

    pub fn usize_or(&self, name: &str, default: usize) -> usize {
        self.value(name).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    pub fn positional(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut skip = false;
        for (i, a) in self.raw.iter().enumerate() {
            if skip {
                skip = false;
                continue;
            }
            if let Some(stripped) = a.strip_prefix("--") {
                // Known value-taking flags consume the next token.
                if ["threads", "reps", "net", "image", "out", "date", "rows", "t", "validate"]
                    .contains(&stripped)
                {
                    skip = true;
                }
                let _ = i;
                continue;
            }
            out.push(a.as_str());
        }
        out
    }
}

/// Build the requested executor (`--threads N`, default: the detected
/// topology's CPU count via [`wino_sched::configured_threads`], which
/// honours the `WINO_THREADS` override; `1` gives the serial executor).
pub fn make_executor(args: &Args) -> Box<dyn Executor> {
    let threads = args.usize_or("--threads", wino_sched::configured_threads());
    if threads <= 1 {
        Box::new(wino_sched::SerialExecutor)
    } else {
        Box::new(wino_sched::StaticExecutor::new(threads))
    }
}
