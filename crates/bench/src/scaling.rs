//! Strong/weak-scaling sweep support: per-thread-count executors built
//! from the detected topology, speedup/efficiency accounting, the
//! least-squares Amdahl fit, and assembly of the schema-v4 `scaling`
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
use wino_sched::{
    render_cpulist, Executor, SerialExecutor, ShardedPool, StaticExecutor, Topology,
};

/// One measured point of a scaling sweep (`scaling.points[i]` in the
/// schema-v4 report).
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    pub layer: String,
    /// `"strong"` or `"weak"` ([`wino_probe::SCALING_MODES`]).
    pub mode: &'static str,
    pub threads: usize,
    /// Batch size of the (possibly grown) problem at this point.
    pub batch: usize,
    /// Executor kind the point ran under (`serial`/`static`/`sharded`).
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
    /// The point as a schema-v4 `scaling.points[]` element.
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

/// Build the executor a sweep point with `n` threads runs under, shaped
/// by the host topology. `n = 1` is the serial executor (the scaling
/// baseline must pay no fork–join cost it does not need); on a
/// single-domain machine — or when `n` does not reach past the first
/// domain, or oversubscribes the topology — a flat [`StaticExecutor`];
/// otherwise a [`ShardedPool`] over the first `n` CPUs in domain order,
/// preserving the domain boundaries between them. Returns the executor
/// plus its schema `executor` label.
pub fn executor_for(topo: &Topology, n: usize) -> (Box<dyn Executor>, &'static str) {
    if n <= 1 {
        return (Box::new(SerialExecutor), "serial");
    }
    let mut groups: Vec<&[usize]> = Vec::new();
    let mut left = n;
    for d in topo.domains() {
        if left == 0 {
            break;
        }
        let take = d.cpus.len().min(left);
        groups.push(&d.cpus[..take]);
        left -= take;
    }
    if left > 0 || groups.len() <= 1 {
        // Oversubscribed (more threads than the topology has CPUs) or
        // confined to one domain: sharding buys nothing.
        return (Box::new(StaticExecutor::new(n)), "static");
    }
    let spec: Vec<String> = groups.iter().map(|g| render_cpulist(g)).collect();
    let topo = Topology::from_spec(&spec.join(";"))
        .expect("cpulists rendered from a valid topology re-parse");
    (Box::new(ShardedPool::new(&topo)), "sharded")
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

/// Assemble a complete schema-v4 scaling document: the standard header
/// ([`crate::perf::perf_document`]'s machine block), the topology the
/// sweep saw, every point, and the per-layer Amdahl fits.
#[allow(clippy::too_many_arguments)]
pub fn scaling_document(
    generated_by: &str,
    date: &str,
    machine: &MachineModel,
    topo: &Topology,
    host_threads: usize,
    efficiency_floor: f64,
    points: &[ScalingPoint],
    fits: &[(String, f64)],
) -> Json {
    let topology = Json::Obj(vec![
        ("domains".into(), Json::Num(topo.domains().len() as f64)),
        ("cpus".into(), Json::Num(topo.total_cpus() as f64)),
        ("smt".into(), Json::Num(topo.smt_per_core() as f64)),
        ("source".into(), Json::Str(topo.source().name().into())),
        ("spec".into(), Json::Str(topo.to_spec())),
    ]);
    let scaling = Json::Obj(vec![
        ("host_threads".into(), Json::Num(host_threads as f64)),
        ("efficiency_floor".into(), Json::Num(efficiency_floor)),
        ("skew_budget_us".into(), Json::Num(wino_probe::SMOKE_SKEW_BUDGET_US)),
        ("topology".into(), topology),
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
    fn executor_choice_tracks_topology_shape() {
        let flat = Topology::flat(8);
        assert_eq!(executor_for(&flat, 1).1, "serial");
        assert_eq!(executor_for(&flat, 4).1, "static");

        let two = Topology::from_spec("2x4").unwrap();
        // Within the first domain: flat. Past it: sharded. Beyond the
        // machine: flat again (oversubscribed).
        assert_eq!(executor_for(&two, 3).1, "static");
        let (exec, kind) = executor_for(&two, 6);
        assert_eq!(kind, "sharded");
        assert_eq!(exec.threads(), 6);
        assert_eq!(executor_for(&two, 9).1, "static");
    }

    #[test]
    fn sharded_point_executor_covers_a_grid() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let topo = Topology::from_spec("2x2").unwrap();
        let (exec, kind) = executor_for(&topo, 4);
        assert_eq!(kind, "sharded");
        let hits = AtomicUsize::new(0);
        exec.run_grid(&[6, 5], &|_s, _i| {
            // ORDERING: pure counter; the run_grid join orders it.
            hits.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 30);
    }

    #[test]
    fn scaling_document_passes_its_own_schema() {
        let machine = MachineModel { peak_gflops: 50.0, mem_bw_gbps: 12.0, threads: 4 };
        let topo = Topology::from_spec("2x2").unwrap();
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
                executor: "sharded",
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
            &topo,
            4,
            0.6,
            &points,
            &fits,
        );
        let reparsed = wino_probe::parse_json(&doc.render_pretty()).unwrap();
        wino_probe::validate_schema(&reparsed).unwrap();
    }
}
