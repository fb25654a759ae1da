//! What a run produced, and how it is printed: a table of the metrics by
//! name and unit, a result file with the `info` block, and the one-line
//! JSON object the driver reads last.

use std::path::Path;

use wino_probe::Json;

use crate::names::{END_TO_END, PER_LAYER};
use crate::probes::Layers;
use crate::stats::{block_spread, percentile, sorted};
use crate::trace::Tracer;
use crate::verify::Check;
use crate::workloads::Workload;
use crate::Res;

/// A closed loop is `disturbed` when its per-second block medians differ
/// by more than this share of their median.
pub const BLOCK_SPREAD_LIMIT: f64 = 0.25;
/// An open loop is `disturbed` when the generator's p99 lag exceeds this.
pub const LAG_LIMIT_MS: f64 = 5.0;
/// The tail percentile: fixed, so that a faster op does not move the
/// metric by changing its own definition. Ten samples lie beyond it
/// from 200 samples on.
pub const TAIL_PERCENTILE: u32 = 95;

pub struct RunCfg {
    pub seed: u64,
    /// The timed window (the traced run splits it between its phases).
    pub seconds: f64,
    pub warmup_s: f64,
    /// `min(nproc, 2)`: pool threads of the closed-loop workloads.
    pub threads: usize,
}

/// Request accounting of a serve window; every attempted request is in
/// exactly one of `met`, `shed`, `missed`, `failed`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeTally {
    /// Verified responses inside the deadline.
    pub met: u64,
    /// Refused at submit with a load-shedding error.
    pub shed: u64,
    /// Admitted, then resolved late or shed from the queue.
    pub missed: u64,
    /// Engine errors and responses that failed verification.
    pub failed: u64,
}

/// An untraced run, before it is folded into the end-to-end metrics.
pub struct Outcome {
    /// The latency sample, one entry per op that completed, verified and
    /// (serve) met its deadline: the ops of the quietest third of the
    /// window's seconds for a closed loop, every request for an open one.
    pub latencies_ms: Vec<f64>,
    /// Such ops per second, over the same seconds.
    pub goodput_ops_s: f64,
    /// Such ops in the whole window.
    pub good: u64,
    pub attempted: u64,
    /// Errored, or failed verification.
    pub failed: u64,
    pub check: Check,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    /// Closed loops: median latency of every whole second of the window.
    pub block_medians_ms: Option<Vec<f64>>,
    /// Open loops: p99 and max of the generator's lag behind its schedule.
    pub lag_ms: Option<(f64, f64)>,
    pub fallbacks: u64,
    pub serve: Option<ServeTally>,
}

impl Outcome {
    pub fn disturbed(&self) -> bool {
        self.block_medians_ms
            .as_ref()
            .is_some_and(|b| block_spread(b) > BLOCK_SPREAD_LIMIT)
            || self.lag_ms.is_some_and(|(p99, _)| p99 > LAG_LIMIT_MS)
    }

    /// Serve only: requests shed or resolved late, by design under overload.
    pub fn refused(&self) -> u64 {
        self.serve.map_or(0, |t| t.shed + t.missed)
    }

    /// Median and p95 of the latency sample (0 when it is empty).
    pub fn p50_p95_ms(&self) -> (f64, f64) {
        if self.latencies_ms.is_empty() {
            return (0.0, 0.0);
        }
        let lat = sorted(self.latencies_ms.clone());
        (percentile(&lat, 50), percentile(&lat, TAIL_PERCENTILE))
    }

    /// The seven end-to-end metrics, in `names::END_TO_END` order.
    /// `setup_s` is the median over this process and its set-up children.
    pub fn metrics(&self, (p50, p95): (f64, f64), setup_s: f64) -> Vec<f64> {
        vec![
            p50,
            if p50 > 0.0 { p95 / p50 } else { 0.0 },
            self.goodput_ops_s,
            self.good as f64 / self.attempted.max(1) as f64,
            self.check.rms_rel_err(),
            setup_s,
            self.peak_rss_mb,
        ]
    }
}

/// A traced run.
pub struct TracedOutcome {
    pub layers: Layers,
    pub tracer: Tracer,
    pub check: Check,
    pub attempted: u64,
    pub failed: u64,
    /// Median of the run's own untraced phase, the base of `trace.overhead_share`.
    pub untraced_p50_ms: f64,
    pub samples: usize,
}

/// `VmHWM` of this process in MiB (0 where `/proc` has no such line).
pub fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let kb = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn text(s: &str) -> Json {
    Json::Str(s.into())
}

/// What the numbers depend on besides the code.
pub fn info(w: &Workload, cfg: &RunCfg, rustc: &str, commit: &str) -> Res<Json> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Json::Obj(vec![
        ("workload".into(), text(w.name)),
        ("seed".into(), num(cfg.seed as f64)),
        ("seconds".into(), num(cfg.seconds)),
        ("nproc".into(), num(nproc as f64)),
        (
            "threads".into(),
            num(if w.is_serve() {
                1.0
            } else {
                cfg.threads as f64
            }),
        ),
        ("simd".into(), text(wino_simd::backend_name())),
        ("avx512f".into(), Json::Bool(wino_simd::cpu_has_avx512f())),
        ("avx2_fma".into(), Json::Bool(wino_simd::cpu_has_avx2_fma())),
        ("rustc".into(), text(rustc)),
        ("commit".into(), text(commit)),
        (
            "direct_flops_per_op".into(),
            num(w.direct_flops_per_op()? as f64),
        ),
    ]))
}

/// Print each metric by name and unit, and collect them for the result line.
fn print_metrics<'a>(rows: impl Iterator<Item = (&'a str, &'a str, f64)>) -> Json {
    Json::Obj(
        rows.map(|(name, unit, value)| {
            println!("{name:<34} {value:>16.6} {unit}");
            (
                name.into(),
                Json::Obj(vec![
                    ("value".into(), num(value)),
                    ("unit".into(), text(unit)),
                ]),
            )
        })
        .collect(),
    )
}

/// The driver's object: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), num(attempted as f64)),
        ("failed".into(), num(failed as f64)),
        ("metrics".into(), metrics),
    ])
}

fn write(dir: &Path, file: String, text: String) -> Res<()> {
    std::fs::create_dir_all(dir)?;
    Ok(std::fs::write(dir.join(file), text)?)
}

/// Print an untraced run, write `<workload>.json`, and return the
/// driver's line with whether the outputs were correct.
pub fn emit(
    w: &Workload,
    o: &Outcome,
    setup_samples_s: &[f64],
    info: Json,
    dir: &Path,
) -> Res<(Json, bool)> {
    let setup_s = crate::stats::median(setup_samples_s);
    let (p50, p95) = o.p50_p95_ms();
    let values = o.metrics((p50, p95), setup_s);
    let metrics = print_metrics(
        END_TO_END
            .iter()
            .zip(&values)
            .map(|(m, &v)| (m.name, m.unit, v)),
    );
    let correct = o.check.passes(w.err_ceiling) && o.failed == 0;
    let line = result_line(correct, o.attempted, o.failed, metrics);
    let samples = o.latencies_ms.len();
    let beyond = samples - (samples * TAIL_PERCENTILE as usize).div_ceil(100);
    let mut doc = vec![
        ("info".into(), info),
        ("result".into(), line.clone()),
        ("latency_samples".into(), num(samples as f64)),
        ("latency_p95_ms".into(), num(p95)),
        ("samples_beyond_p95".into(), num(beyond as f64)),
        ("max_rel_err".into(), num(o.check.max_rel_err())),
        (
            "fail_share".into(),
            num((o.refused() + o.failed) as f64 / o.attempted.max(1) as f64),
        ),
        ("refused".into(), num(o.refused() as f64)),
        ("err_ceiling".into(), num(w.err_ceiling)),
        ("finite".into(), Json::Bool(o.check.finite)),
        ("fallbacks".into(), num(o.fallbacks as f64)),
        (
            "setup_samples_s".into(),
            Json::Arr(setup_samples_s.iter().map(|&s| num(s)).collect()),
        ),
        ("disturbed".into(), Json::Bool(o.disturbed())),
    ];
    if let Some(blocks) = &o.block_medians_ms {
        doc.push(("block_median_spread".into(), num(block_spread(blocks))));
        doc.push((
            "block_medians_ms".into(),
            Json::Arr(blocks.iter().map(|&b| num(b)).collect()),
        ));
    }
    if let Some((p99, max)) = o.lag_ms {
        doc.push(("loadgen_lag_p99_ms".into(), num(p99)));
        doc.push(("loadgen_lag_max_ms".into(), num(max)));
    }
    if let Some(t) = o.serve {
        doc.push((
            "requests".into(),
            Json::Obj(vec![
                ("attempted".into(), num(o.attempted as f64)),
                ("met".into(), num(t.met as f64)),
                ("shed".into(), num(t.shed as f64)),
                ("missed".into(), num(t.missed as f64)),
                ("failed".into(), num(t.failed as f64)),
            ]),
        ));
    }
    println!(
        "latency samples {samples} ({beyond} beyond p95), max_rel_err {:e}, refused {}, failed {}, disturbed {}",
        o.check.max_rel_err(),
        o.refused(),
        o.failed,
        o.disturbed()
    );
    write(
        dir,
        format!("{}.json", w.name),
        Json::Obj(doc).render_pretty(),
    )?;
    Ok((line, correct))
}

/// Print a traced run, write `<workload>.trace.json` (spans) and
/// `<workload>.layers.json` (their summary), and return the driver's line.
pub fn emit_traced(w: &Workload, t: &TracedOutcome, info: Json, dir: &Path) -> Res<(Json, bool)> {
    let metrics = print_metrics(
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, t.layers.get(m.name))),
    );
    let correct = t.check.passes(w.err_ceiling) && t.failed == 0;
    let line = result_line(correct, t.attempted, t.failed, metrics);
    let summary = Json::Obj(vec![
        ("info".into(), info),
        ("result".into(), line.clone()),
        ("untraced_p50_ms".into(), num(t.untraced_p50_ms)),
        ("untraced_samples".into(), num(t.samples as f64)),
        ("max_rel_err".into(), num(t.check.max_rel_err())),
    ]);
    write(
        dir,
        format!("{}.layers.json", w.name),
        summary.render_pretty(),
    )?;
    let spans = Json::Obj(vec![
        ("workload".into(), text(w.name)),
        ("spans".into(), t.tracer.to_json()),
    ]);
    // Thousands of spans: one line, not one line per field.
    write(dir, format!("{}.trace.json", w.name), spans.render())?;
    Ok((line, correct))
}
