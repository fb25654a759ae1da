//! An instrumented [`Executor`] wrapper: records one `fork-join` span per
//! grid plus a `barrier-wait` span per participating worker, and exposes
//! its collector through [`Executor::probe`] so stage code can record
//! categorised spans (see `wino-probe`).
//!
//! Design notes (DESIGN.md §8):
//!
//! * The wrapper owns its [`Collector`] outright — it is created in
//!   [`ProbedExecutor::new`] and never shared — so
//!   [`ProbedExecutor::take_events`] can be a *safe* method: `&mut self`
//!   proves no `probe()` borrow (and hence no in-flight recording)
//!   exists.
//! * Worker arrival times are captured with one relaxed atomic store per
//!   task — the cheapest possible hot-path footprint; the coordinator
//!   reads them only after the inner `run_grid` joined, which is the
//!   synchronisation point.
//! * Whether a run is instrumented has one gate: whether its executor
//!   carries a collector. Stage code asks [`Executor::probe`] once per
//!   call and takes every timestamp through the helpers below
//!   ([`span_start`], [`record_coord`], [`record_coord_span`],
//!   [`record_slot`]), which read no clock and write no buffer when
//!   handed `None` — so a run on a plain executor pays one predictable
//!   branch per span site and nothing else. `wino-lint`'s
//!   `clock-through-span-helpers` rule keeps direct clock reads out of
//!   the convolution crates.
//!
//! A `ProbedExecutor` must not execute two grids concurrently (no
//! executor in this crate supports that anyway: the static pool's
//! barriers assume one job at a time). The coordinator buffer and the
//! arrival array rely on that exclusivity.

use std::sync::atomic::{AtomicU64, Ordering};

use wino_probe::{now_ns, Collector, SpanCategory, COORDINATOR};

use crate::pool::PoolError;
use crate::Executor;

/// Timestamp for a later `record_*` call on the same `probe`: 0, without
/// reading the clock, when the run carries no collector.
#[inline]
pub fn span_start(probe: Option<&Collector>) -> u64 {
    probe.map_or(0, |_| now_ns())
}

/// Record a coordinator span of `cat` from `start` to now, if the run
/// carries a collector.
///
/// # Safety
/// Must be called from the fork-issuing thread with no fork–join on
/// `probe`'s executor in flight — the position of stage code right after
/// `run_grid` returns — so that the coordinator buffer is exclusive.
#[inline]
pub unsafe fn record_coord(probe: Option<&Collector>, cat: SpanCategory, start: u64) {
    // SAFETY: forwarded contract.
    unsafe { record_coord_span(probe, cat, start, span_start(probe)) };
}

/// [`record_coord`] with an explicit end — for the fused fork–join, whose
/// one interval is reported as three stage spans.
///
/// # Safety
/// See [`record_coord`].
#[inline]
pub unsafe fn record_coord_span(probe: Option<&Collector>, cat: SpanCategory, start: u64, end: u64) {
    if let Some(c) = probe {
        // SAFETY: coordinator thread between fork–joins per this
        // function's contract, so the coordinator buffer is exclusive.
        unsafe { c.record(COORDINATOR, cat, start, end) };
    }
}

/// Record a worker span of `cat` from `start` to now under `slot`, if the
/// run carries a collector.
///
/// # Safety
/// Must be called from inside a `run_grid` task of `probe`'s executor
/// that holds `slot` (the Executor slot-exclusivity contract makes the
/// slot's buffer exclusive).
#[inline]
pub unsafe fn record_slot(probe: Option<&Collector>, slot: usize, cat: SpanCategory, start: u64) {
    if let Some(c) = probe {
        // SAFETY: the caller holds `slot`, so its buffer is exclusively
        // this thread's for the call.
        unsafe { c.record(slot as u32, cat, start, now_ns()) };
    }
}

/// Wraps any executor and records fork–join + barrier-wait spans.
pub struct ProbedExecutor<E> {
    inner: E,
    collector: Collector,
    /// Per-slot arrival timestamp of the current grid (ns; 0 = did not
    /// participate). Written by workers, read by the coordinator after
    /// the join.
    arrivals: Vec<AtomicU64>,
}

impl<E: Executor> ProbedExecutor<E> {
    pub fn new(inner: E) -> ProbedExecutor<E> {
        let threads = inner.threads();
        ProbedExecutor {
            inner,
            collector: Collector::new(threads),
            arrivals: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The wrapped executor.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Merge and clear every recorded span, sorted by start time. Safe:
    /// `&mut self` guarantees no `probe()` reference (and so no recorder)
    /// is alive, and the collector is owned exclusively by this wrapper.
    pub fn take_events(&mut self) -> Vec<wino_probe::SpanEvent> {
        // SAFETY: `&mut self` means no outstanding `&self` borrows — no
        // `run_grid` is executing and no `probe()` reference escapes, and
        // the collector was created here and never shared otherwise.
        unsafe { self.collector.drain() }
    }
}

impl<E: Executor> Executor for ProbedExecutor<E> {
    fn run_grid(
        &self,
        dims: &[usize],
        task: &(dyn Fn(usize, usize) + Sync),
    ) -> Result<(), PoolError> {
        for a in &self.arrivals {
            // ORDERING: Relaxed — the grid's fork (inside inner.run_grid)
            // publishes this reset to workers; timestamps are only read
            // back after the join below.
            a.store(0, Ordering::Relaxed);
        }
        let t_fork = now_ns();
        let result = self.inner.run_grid(dims, &|slot, idx| {
            task(slot, idx);
            // ORDERING: Relaxed — last-write-wins arrival timestamp; the
            // inner executor's join is the happens-before edge to the
            // coordinator's read.
            self.arrivals[slot].store(now_ns().max(1), Ordering::Relaxed);
        });
        let t_join = now_ns();
        // SAFETY: the inner run_grid joined every worker, so no task is
        // recording; the coordinator buffer and the worker buffers are
        // exclusively ours until this method returns.
        unsafe {
            self.collector.record(COORDINATOR, SpanCategory::ForkJoin, t_fork, t_join);
            for (slot, a) in self.arrivals.iter().enumerate() {
                // ORDERING: Relaxed — see the store above; the join
                // already ordered these writes before this read.
                let arrival = a.load(Ordering::Relaxed);
                if arrival != 0 {
                    self.collector.record(slot as u32, SpanCategory::BarrierWait, arrival, t_join);
                }
            }
        }
        result
    }

    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn probe(&self) -> Option<&Collector> {
        Some(&self.collector)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SerialExecutor, StaticExecutor};
    use wino_probe::SpanEvent;

    fn by_cat(events: &[SpanEvent], cat: SpanCategory) -> Vec<&SpanEvent> {
        events.iter().filter(|e| e.category == cat).collect()
    }

    #[test]
    fn records_fork_join_and_barrier_waits() {
        let mut e = ProbedExecutor::new(StaticExecutor::new(3));
        e.run_grid(&[32], &|_, _| {}).unwrap();
        e.run_grid(&[8, 8], &|_, _| {}).unwrap();
        let events = e.take_events();
        assert_eq!(by_cat(&events, SpanCategory::ForkJoin).len(), 2);
        // Every slot got work on both grids (32 and 64 tasks over 3
        // threads), so 3 waits per fork–join.
        assert_eq!(by_cat(&events, SpanCategory::BarrierWait).len(), 6);
        for w in by_cat(&events, SpanCategory::BarrierWait) {
            assert!((w.thread as usize) < 3);
        }
        // Drained: a second take is empty.
        assert!(e.take_events().is_empty());
    }

    #[test]
    fn delegates_behaviour() {
        let e = ProbedExecutor::new(SerialExecutor);
        assert_eq!(e.threads(), 1);
        assert_eq!(e.name(), "serial");
        assert!(e.probe().is_some());
        let hits = std::sync::atomic::AtomicUsize::new(0);
        e.run_grid(&[5, 5], &|_, _| {
            // ORDERING: Relaxed — test counter, read after join.
            hits.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        // ORDERING: Relaxed — all writers joined by run_grid.
        assert_eq!(hits.load(Ordering::Relaxed), 25);
    }

    #[test]
    fn propagates_task_panics() {
        let e = ProbedExecutor::new(SerialExecutor);
        let err = e
            .run_grid(&[4], &|_, i| {
                if i == 2 {
                    panic!("boom");
                }
            })
            .expect_err("panic must surface");
        assert!(matches!(err, PoolError::Panicked { .. }));
    }

    #[test]
    fn boxed_dyn_executor_is_wrappable() {
        let inner: Box<dyn Executor> = Box::new(StaticExecutor::new(2));
        let mut e = ProbedExecutor::new(inner);
        e.run_grid(&[16], &|_, _| {}).unwrap();
        assert_eq!(e.threads(), 2);
        assert_eq!(e.name(), "static");
        assert!(!e.take_events().is_empty());
    }
}
