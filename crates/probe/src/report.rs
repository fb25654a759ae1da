//! The analysis half: what recorded spans are divided by, and what the
//! fork–joins among them say.
//!
//! * [`WorkModel`] — per stage, the *algorithm's* floating-point
//!   operations and ideal-cache bytes for one pass, supplied by whoever
//!   knows the algorithm (`WinogradLayer::work_model`; the per-stage
//!   formulas live in `wino-conv`'s `work.rs`). The benchmark's traced
//!   report divides them by the stage's span time for its `gflops` and
//!   `computed_gbps`.
//! * [`barrier_stats`] — per fork–join, workers record when they arrived
//!   at the end barrier; skew is `max − min` arrival within one
//!   fork–join, and `total_wait_ms` sums every worker's arrival→join
//!   wait (the §4.5 static-scheduling story measured rather than
//!   asserted).

use crate::event::{SpanCategory, SpanEvent};

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

/// Pair `ForkJoin` windows with the `BarrierWait` spans inside them.
pub fn barrier_stats(events: &[SpanEvent]) -> BarrierStats {
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
    stats.total_wait_ms = total_wait_ns as f64 / 1e6;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::COORDINATOR;

    fn ev(category: SpanCategory, thread: u32, start_ns: u64, end_ns: u64) -> SpanEvent {
        SpanEvent { category, thread, start_ns, end_ns }
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
        let b = barrier_stats(&events);
        assert_eq!(b.fork_joins, 2);
        // Skews: 500 ns = 0.5 µs and 100 ns = 0.1 µs.
        assert!((b.max_skew_us - 0.5).abs() < 1e-9);
        assert!((b.mean_skew_us - 0.3).abs() < 1e-9);
        // Waits: 600 + 100 + 50 + 150 = 900 ns.
        assert!((b.total_wait_ms - 0.0009).abs() < 1e-12);
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
