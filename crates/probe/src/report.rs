//! The analysis half: fold raw span events into a [`StageReport`].
//!
//! A report answers the paper's §5 question — *where does the time go?* —
//! per stage: wall time, worker CPU time, effective GFLOP/s, arithmetic
//! intensity, bytes moved, and a software-roofline attainable rate; plus
//! barrier-imbalance statistics per fork–join (the §4.5 static-scheduling
//! story measured rather than asserted).
//!
//! ## What the numbers mean
//!
//! * **wall_ms** — sum of the *coordinator* spans of a category. Stage
//!   functions record exactly one coordinator span per invocation around
//!   their fork–join, so over one convolution these are disjoint and sum
//!   to pipeline wall time.
//! * **cpu_ms** — sum of worker-thread spans of the category (e.g.
//!   `tile-extract` gathers). CPU seconds, not wall seconds: with `P`
//!   busy threads, `cpu_ms ≈ P × wall share`.
//! * **gflops** — `flops / wall`, with `flops` supplied by a
//!   [`WorkModel`] (the *algorithm's* operation count for that stage, so
//!   Winograd stages report real work, while a whole-layer
//!   effective-GFLOP/s number keeps the Fig. 5 direct-FLOPs normaliser).
//! * **arith_intensity** — `flops / bytes` with `bytes` the model's
//!   ideal-cache traffic estimate (each buffer moved once per pass);
//!   see `WinogradLayer::work_model` for the per-stage formulas.
//! * **roofline_gflops** — `min(peak, intensity × bandwidth)` under a
//!   supplied [`MachineModel`]; a *software* roofline: peak and bandwidth
//!   come from microbenchmarks, not vendor datasheets.
//! * **barrier** — per fork–join, workers record when they arrived at
//!   the end barrier; skew is `max − min` arrival within one fork–join,
//!   and `total_wait_ms` sums every worker's arrival→join wait.

use crate::event::{SpanCategory, SpanEvent, ALL_CATEGORIES, COORDINATOR};

/// Operation/traffic estimate for one stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageWork {
    /// Floating-point operations the stage performs (multiply and add
    /// counted separately, i.e. one FMA = 2).
    pub flops: u128,
    /// Bytes moved under an ideal-cache model: every input buffer read
    /// once, every output buffer written once.
    pub bytes: u128,
}

/// Per-category work estimates, supplied by whoever knows the algorithm
/// (`WinogradLayer::work_model`, the baseline runners, …).
#[derive(Clone, Debug, Default)]
pub struct WorkModel {
    entries: Vec<(SpanCategory, StageWork)>,
}

impl WorkModel {
    pub fn new() -> WorkModel {
        WorkModel { entries: Vec::new() }
    }

    /// Set the work for a category (last set wins).
    pub fn set(&mut self, category: SpanCategory, work: StageWork) -> &mut Self {
        self.entries.retain(|(c, _)| *c != category);
        self.entries.push((category, work));
        self
    }

    pub fn get(&self, category: SpanCategory) -> Option<StageWork> {
        self.entries.iter().find(|(c, _)| *c == category).map(|(_, w)| *w)
    }

    /// Total modelled flops across stages.
    pub fn total_flops(&self) -> u128 {
        self.entries.iter().map(|(_, w)| w.flops).sum()
    }
}

/// Microbenchmark-derived machine characteristics for the roofline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineModel {
    /// Attainable all-core compute rate, GFLOP/s.
    pub peak_gflops: f64,
    /// Attainable memory bandwidth, GB/s.
    pub mem_bw_gbps: f64,
    /// Worker threads the measurement used.
    pub threads: usize,
}

impl MachineModel {
    /// A deliberately conservative placeholder (one core, scalar-ish) for
    /// contexts that cannot calibrate. Real reports should use measured
    /// values — `wino_bench::perf::calibrate` measures them.
    pub fn assumed() -> MachineModel {
        MachineModel { peak_gflops: 8.0, mem_bw_gbps: 10.0, threads: 1 }
    }

    /// Roofline-attainable GFLOP/s at a given arithmetic intensity
    /// (FLOP/byte): `min(peak, intensity × bandwidth)`.
    pub fn attainable_gflops(&self, intensity: f64) -> f64 {
        (intensity * self.mem_bw_gbps).min(self.peak_gflops)
    }
}

/// One stage row of a report.
#[derive(Clone, Debug)]
pub struct StageRow {
    pub category: SpanCategory,
    /// Coordinator wall time of this stage, milliseconds.
    pub wall_ms: f64,
    /// Summed worker-thread span time, milliseconds (CPU time).
    pub cpu_ms: f64,
    /// Number of spans recorded for the category (all threads).
    pub spans: usize,
    /// Modelled stage flops / wall time, if the work model covers it and
    /// wall time is non-zero.
    pub gflops: Option<f64>,
    /// Modelled flops / modelled bytes.
    pub arith_intensity: Option<f64>,
    /// Modelled bytes moved.
    pub bytes: Option<u128>,
    /// Roofline-attainable GFLOP/s at this stage's intensity.
    pub roofline_gflops: Option<f64>,
}

/// Barrier-imbalance statistics over every fork–join in the window.
#[derive(Clone, Copy, Debug, Default)]
pub struct BarrierStats {
    /// Fork–joins observed.
    pub fork_joins: usize,
    /// Worst max−min arrival skew across fork–joins, microseconds.
    pub max_skew_us: f64,
    /// Mean of the per-fork–join skews, microseconds.
    pub mean_skew_us: f64,
    /// Total worker time spent waiting at end barriers, milliseconds
    /// (CPU time, summed over workers).
    pub total_wait_ms: f64,
}

/// The folded result: per-stage accounting plus barrier statistics.
#[derive(Clone, Debug)]
pub struct StageReport {
    /// Stages with at least one span, in taxonomy order.
    pub stages: Vec<StageRow>,
    pub barrier: BarrierStats,
    /// Sum of stage wall times, milliseconds.
    pub total_wall_ms: f64,
    /// Machine model the roofline used.
    pub machine: MachineModel,
}

const NS_PER_MS: f64 = 1e6;

/// Fold raw events into a [`StageReport`].
///
/// Events may span several convolutions (e.g. all reps of a benchmark);
/// wall and CPU times then accumulate accordingly, which is the desired
/// behaviour for "time per rep × reps" accounting. Work models describe
/// *one* pass, so callers who fold multi-rep event sets should scale the
/// model or (as `wino-bench` does) fold a single instrumented run.
pub fn fold(events: &[SpanEvent], work: &WorkModel, machine: &MachineModel) -> StageReport {
    let mut stages = Vec::new();
    let mut total_wall_ms = 0.0;
    for cat in ALL_CATEGORIES {
        if !cat.is_stage() && cat != SpanCategory::TileExtract {
            continue;
        }
        let mut wall_ns = 0u64;
        let mut cpu_ns = 0u64;
        let mut spans = 0usize;
        for e in events.iter().filter(|e| e.category == cat) {
            spans += 1;
            if e.thread == COORDINATOR {
                wall_ns += e.duration_ns();
            } else {
                cpu_ns += e.duration_ns();
            }
        }
        if spans == 0 {
            continue;
        }
        let wall_ms = wall_ns as f64 / NS_PER_MS;
        let work_entry = work.get(cat);
        let gflops = work_entry.filter(|_| wall_ns > 0).map(|w| {
            w.flops as f64 / (wall_ms * 1e-3) / 1e9
        });
        let arith_intensity =
            work_entry.filter(|w| w.bytes > 0).map(|w| w.flops as f64 / w.bytes as f64);
        let roofline_gflops = arith_intensity.map(|ai| machine.attainable_gflops(ai));
        if cat.is_stage() {
            total_wall_ms += wall_ms;
        }
        stages.push(StageRow {
            category: cat,
            wall_ms,
            cpu_ms: cpu_ns as f64 / NS_PER_MS,
            spans,
            gflops,
            arith_intensity,
            bytes: work_entry.map(|w| w.bytes),
            roofline_gflops,
        });
    }
    StageReport {
        stages,
        barrier: barrier_stats(events),
        total_wall_ms,
        machine: *machine,
    }
}

/// Pair `ForkJoin` windows with the `BarrierWait` spans inside them.
fn barrier_stats(events: &[SpanEvent]) -> BarrierStats {
    let mut stats = BarrierStats::default();
    let mut skew_sum = 0.0f64;
    let mut total_wait_ns = 0u64;
    for fj in events.iter().filter(|e| e.category == SpanCategory::ForkJoin) {
        stats.fork_joins += 1;
        // Arrival time = start of each worker's BarrierWait span within
        // this fork–join window.
        let mut min_arr = u64::MAX;
        let mut max_arr = 0u64;
        for w in events.iter().filter(|e| {
            e.category == SpanCategory::BarrierWait
                && e.start_ns >= fj.start_ns
                && e.end_ns <= fj.end_ns
        }) {
            min_arr = min_arr.min(w.start_ns);
            max_arr = max_arr.max(w.start_ns);
            total_wait_ns += w.duration_ns();
        }
        if max_arr >= min_arr && min_arr != u64::MAX {
            skew_sum += (max_arr - min_arr) as f64 / 1e3;
            stats.max_skew_us = stats.max_skew_us.max((max_arr - min_arr) as f64 / 1e3);
        }
    }
    if stats.fork_joins > 0 {
        stats.mean_skew_us = skew_sum / stats.fork_joins as f64;
    }
    stats.total_wait_ms = total_wait_ns as f64 / NS_PER_MS;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(category: SpanCategory, thread: u32, start_ns: u64, end_ns: u64) -> SpanEvent {
        SpanEvent { category, thread, start_ns, end_ns }
    }

    #[test]
    fn fold_computes_gflops_and_intensity() {
        // One 2 ms gemm stage doing 4 GFLOP over 1 GB.
        let events = [ev(SpanCategory::ElementwiseGemm, COORDINATOR, 0, 2_000_000)];
        let mut work = WorkModel::new();
        work.set(
            SpanCategory::ElementwiseGemm,
            StageWork { flops: 4_000_000_000, bytes: 1_000_000_000 },
        );
        let machine = MachineModel { peak_gflops: 100.0, mem_bw_gbps: 50.0, threads: 4 };
        let r = fold(&events, &work, &machine);
        assert_eq!(r.stages.len(), 1);
        let s = &r.stages[0];
        // 4 GFLOP in 2 ms = 2000 GFLOP/s.
        assert!((s.gflops.unwrap() - 2000.0).abs() < 1e-9);
        // AI = 4e9 / 1e9 = 4 FLOP/byte → roofline min(100, 4*50) = 100.
        assert!((s.arith_intensity.unwrap() - 4.0).abs() < 1e-12);
        assert!((s.roofline_gflops.unwrap() - 100.0).abs() < 1e-9);
        assert_eq!(s.bytes, Some(1_000_000_000));
        assert!((r.total_wall_ms - 2.0).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_roofline() {
        let m = MachineModel { peak_gflops: 100.0, mem_bw_gbps: 10.0, threads: 1 };
        // AI 0.5 → 5 GFLOP/s attainable, memory bound.
        assert!((m.attainable_gflops(0.5) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn barrier_skew_from_fork_join_windows() {
        let events = [
            ev(SpanCategory::ForkJoin, COORDINATOR, 0, 1000),
            ev(SpanCategory::BarrierWait, 0, 400, 1000), // arrived at 400
            ev(SpanCategory::BarrierWait, 1, 900, 1000), // arrived at 900
            ev(SpanCategory::ForkJoin, COORDINATOR, 2000, 3000),
            ev(SpanCategory::BarrierWait, 0, 2950, 3000),
            ev(SpanCategory::BarrierWait, 1, 2850, 3000),
        ];
        let r = fold(&events, &WorkModel::new(), &MachineModel::assumed());
        assert_eq!(r.barrier.fork_joins, 2);
        // Skews: 500 ns = 0.5 µs and 100 ns = 0.1 µs.
        assert!((r.barrier.max_skew_us - 0.5).abs() < 1e-9);
        assert!((r.barrier.mean_skew_us - 0.3).abs() < 1e-9);
        // Waits: 600 + 100 + 50 + 150 = 900 ns.
        assert!((r.barrier.total_wait_ms - 0.0009).abs() < 1e-12);
    }

    #[test]
    fn cpu_vs_wall_split() {
        let events = [
            ev(SpanCategory::TileExtract, 0, 0, 500),
            ev(SpanCategory::TileExtract, 1, 0, 700),
            ev(SpanCategory::InputTransform, COORDINATOR, 0, 1000),
        ];
        let r = fold(&events, &WorkModel::new(), &MachineModel::assumed());
        let tile = r.stages.iter().find(|s| s.category == SpanCategory::TileExtract).unwrap();
        assert_eq!(tile.spans, 2);
        assert!((tile.cpu_ms - 0.0012).abs() < 1e-12);
        assert_eq!(tile.wall_ms, 0.0);
        // tile-extract is a sub-span: not in total wall.
        assert!((r.total_wall_ms - 0.001).abs() < 1e-12);
    }

    #[test]
    fn work_model_set_overwrites() {
        let mut w = WorkModel::new();
        w.set(SpanCategory::ElementwiseGemm, StageWork { flops: 1, bytes: 1 });
        w.set(SpanCategory::ElementwiseGemm, StageWork { flops: 2, bytes: 3 });
        assert_eq!(w.get(SpanCategory::ElementwiseGemm).unwrap().flops, 2);
        assert_eq!(w.total_flops(), 2);
    }
}
