//! Strong/weak-scaling sweep support: the sweep's thread counts and
//! per-thread-count executors, speedup/efficiency accounting, the
//! least-squares Amdahl fit, and assembly of the schema-v5 `scaling`
//! document (`docs/bench-schema.md`, `src/bin/scaling.rs`).
//!
//! Two sweep modes (the classic pair — see `docs/scaling.md`):
//!
//! * **strong**: the problem is fixed and the thread count grows.
//!   `speedup(n) = T(1)/T(n)`, `efficiency(n) = speedup(n)/n`.
//! * **weak**: the problem grows with the threads (batch `n·b₀` on `n`
//!   threads), so per-thread work is constant. `efficiency(n) =
//!   T(1)/T(n)` — ideal weak scaling holds the wall time flat — and the
//!   reported `speedup` is the scaled speedup `n·T(1)/T(n)`.

use wino_probe::{Json, MachineModel};
use wino_sched::{Executor, SerialExecutor, StaticExecutor};

/// One measured point of a scaling sweep (`scaling.points[i]` in the
/// schema-v5 report).
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    pub layer: String,
    /// `"strong"` or `"weak"` ([`wino_probe::SCALING_MODES`]).
    pub mode: &'static str,
    pub threads: usize,
    /// Batch size of the (possibly grown) problem at this point.
    pub batch: usize,
    /// Executor kind the point ran under (`serial` or `static`).
    pub executor: &'static str,
    pub best_ms: f64,
    pub mean_ms: f64,
    pub speedup: f64,
    pub efficiency: f64,
    /// Worst/mean fork–join arrival skew (µs) of one probed pass (strong
    /// points only).
    pub max_skew_us: Option<f64>,
    pub mean_skew_us: Option<f64>,
}

impl ScalingPoint {
    /// The point as a schema-v5 `scaling.points[]` element.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("layer".into(), Json::Str(self.layer.clone())),
            ("mode".into(), Json::Str(self.mode.into())),
            ("threads".into(), Json::Num(self.threads as f64)),
            ("batch".into(), Json::Num(self.batch as f64)),
            ("executor".into(), Json::Str(self.executor.into())),
            ("best_ms".into(), Json::Num(self.best_ms)),
            ("mean_ms".into(), Json::Num(self.mean_ms)),
            ("speedup".into(), Json::Num(self.speedup)),
            ("efficiency".into(), Json::Num(self.efficiency)),
        ];
        if let Some(s) = self.max_skew_us {
            fields.push(("max_skew_us".into(), Json::Num(s)));
        }
        if let Some(s) = self.mean_skew_us {
            fields.push(("mean_skew_us".into(), Json::Num(s)));
        }
        Json::Obj(fields)
    }
}

/// The sweep's thread counts: 1, the powers of two up to `max`, and
/// `max` itself — the classic scaling-plot x-axis, deduplicated.
pub fn thread_counts(max: usize) -> Vec<usize> {
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

/// `--check` gates on the strong points at the host thread count: refuse,
/// before any layer is timed, a `--max-threads` whose sweep never reaches
/// it.
pub fn check_reaches_host(host: usize, max: usize) -> Result<(), String> {
    if thread_counts(max).contains(&host) {
        return Ok(());
    }
    Err(format!(
        "--check gates at the host thread count {host}, but --max-threads {max} sweeps {:?}",
        thread_counts(max)
    ))
}

/// Build the executor a sweep point with `n` threads runs under: the
/// serial executor at `n ≤ 1` (the scaling baseline must pay no fork–join
/// cost it does not need), one flat [`StaticExecutor`] otherwise. Returns
/// the executor plus its schema `executor` label.
pub fn executor_for(n: usize) -> (Box<dyn Executor>, &'static str) {
    if n <= 1 {
        return (Box::new(SerialExecutor), "serial");
    }
    (Box::new(StaticExecutor::new(n)), "static")
}

/// Least-squares Amdahl fit over strong-scaling `(threads, best_ms)`
/// points: with `T(n) = T(1)·(s + (1−s)/n)`, the normalised residual
/// `T(n)/T(1) − 1/n = s·(1 − 1/n)` is linear in `s`, so
/// `s* = Σ yᵢxᵢ / Σ xᵢ²` with `x = 1 − 1/n`, `y = T(n)/T(1) − 1/n`,
/// clamped to `[0, 1]` (measurement noise can push the raw estimate
/// slightly outside). `None` without a 1-thread baseline or a second
/// distinct thread count — one point fits anything.
pub fn fit_serial_fraction(points: &[(usize, f64)]) -> Option<f64> {
    let t1 = points
        .iter()
        .filter(|(n, _)| *n == 1)
        .map(|&(_, t)| t)
        .fold(f64::INFINITY, f64::min);
    if !t1.is_finite() || t1 <= 0.0 {
        return None;
    }
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for &(n, t) in points.iter().filter(|(n, _)| *n > 1) {
        let x = 1.0 - 1.0 / n as f64;
        let y = t / t1 - 1.0 / n as f64;
        num += y * x;
        den += x * x;
    }
    if den == 0.0 {
        return None;
    }
    Some((num / den).clamp(0.0, 1.0))
}

/// Assemble a complete schema-v5 scaling document: the standard header
/// ([`crate::perf::perf_document`]'s machine block), every point, and the
/// per-layer Amdahl fits.
pub fn scaling_document(
    generated_by: &str,
    date: &str,
    machine: &MachineModel,
    host_threads: usize,
    efficiency_floor: f64,
    points: &[ScalingPoint],
    fits: &[(String, f64)],
) -> Json {
    let scaling = Json::Obj(vec![
        ("host_threads".into(), Json::Num(host_threads as f64)),
        ("efficiency_floor".into(), Json::Num(efficiency_floor)),
        ("skew_budget_us".into(), Json::Num(wino_probe::SMOKE_SKEW_BUDGET_US)),
        ("points".into(), Json::Arr(points.iter().map(ScalingPoint::to_json).collect())),
        (
            "fits".into(),
            Json::Arr(
                fits.iter()
                    .map(|(layer, s)| {
                        Json::Obj(vec![
                            ("layer".into(), Json::Str(layer.clone())),
                            ("serial_fraction".into(), Json::Num(*s)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Json::Obj(vec![
        ("schema_version".into(), Json::Num(wino_probe::SCHEMA_VERSION as f64)),
        ("generated_by".into(), Json::Str(generated_by.into())),
        ("date".into(), Json::Str(date.into())),
        (
            "machine".into(),
            Json::Obj(vec![
                ("peak_gflops".into(), Json::Num(machine.peak_gflops)),
                ("mem_bw_gbps".into(), Json::Num(machine.mem_bw_gbps)),
                ("threads".into(), Json::Num(machine.threads as f64)),
                ("simd".into(), Json::Str(wino_simd::backend_name().into())),
            ]),
        ),
        ("scaling".into(), scaling),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amdahl_fit_recovers_known_fractions() {
        // Synthetic T(n) = T1·(s + (1−s)/n) must fit back exactly.
        for s in [0.0, 0.1, 0.25, 1.0] {
            let t1 = 8.0;
            let pts: Vec<(usize, f64)> =
                [1usize, 2, 4, 8].iter().map(|&n| (n, t1 * (s + (1.0 - s) / n as f64))).collect();
            let got = fit_serial_fraction(&pts).unwrap();
            assert!((got - s).abs() < 1e-12, "s={s} got={got}");
        }
    }

    #[test]
    fn amdahl_fit_needs_baseline_and_second_point() {
        assert_eq!(fit_serial_fraction(&[]), None);
        assert_eq!(fit_serial_fraction(&[(1, 5.0)]), None);
        assert_eq!(fit_serial_fraction(&[(2, 5.0), (4, 3.0)]), None); // no T(1)
        assert!(fit_serial_fraction(&[(1, 5.0), (2, 5.0)]).is_some());
    }

    #[test]
    fn amdahl_fit_clamps_superlinear_noise() {
        // Better-than-linear measurements (cache effects) → clamp at 0.
        let pts = [(1, 8.0), (2, 3.5), (4, 1.6)];
        assert_eq!(fit_serial_fraction(&pts), Some(0.0));
    }

    #[test]
    fn executor_is_serial_at_one_thread_and_static_past_it() {
        for (n, kind) in [(0, "serial"), (1, "serial"), (2, "static"), (5, "static")] {
            let (exec, got) = executor_for(n);
            assert_eq!(got, kind, "n={n}");
            assert_eq!(exec.threads(), n.max(1), "n={n}");
        }
    }

    #[test]
    fn check_needs_a_sweep_that_reaches_the_host_width() {
        assert_eq!(thread_counts(1), vec![1]);
        assert_eq!(thread_counts(6), vec![1, 2, 4, 6]);
        assert_eq!(check_reaches_host(2, 2), Ok(()));
        assert_eq!(check_reaches_host(4, 8), Ok(()));
        assert_eq!(check_reaches_host(1, 1), Ok(()));
        // Below the host width, and past it without sweeping it.
        for (host, max) in [(2, 1), (3, 8)] {
            let err = check_reaches_host(host, max).unwrap_err();
            assert!(err.contains(&format!("count {host}")) && err.contains(&format!("--max-threads {max}")), "{err}");
        }
    }

    #[test]
    fn scaling_document_passes_its_own_schema() {
        let machine = MachineModel { peak_gflops: 50.0, mem_bw_gbps: 12.0, threads: 4 };
        let points = vec![
            ScalingPoint {
                layer: "VGG 3.2".into(),
                mode: "strong",
                threads: 1,
                batch: 2,
                executor: "serial",
                best_ms: 4.0,
                mean_ms: 4.1,
                speedup: 1.0,
                efficiency: 1.0,
                max_skew_us: Some(0.0),
                mean_skew_us: Some(0.0),
            },
            ScalingPoint {
                layer: "VGG 3.2".into(),
                mode: "weak",
                threads: 4,
                batch: 8,
                executor: "static",
                best_ms: 4.4,
                mean_ms: 4.6,
                speedup: 3.6,
                efficiency: 0.91,
                max_skew_us: None,
                mean_skew_us: None,
            },
        ];
        let fits = vec![("VGG 3.2".to_string(), 0.12)];
        let doc = scaling_document(
            "unit-test",
            "2026-08-09",
            &machine,
            4,
            0.6,
            &points,
            &fits,
        );
        let reparsed = wino_probe::parse_json(&doc.render_pretty()).unwrap();
        wino_probe::validate_schema(&reparsed).unwrap();
    }
}
