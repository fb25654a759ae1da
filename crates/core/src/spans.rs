//! Probe-span recording helpers for the stage functions.
//!
//! Stage code records one *coordinator* span per invocation around its
//! fork–join (category = the stage), plus optional per-task worker spans
//! (e.g. `tile-extract`); the ring-fused driver, whose one fork–join does
//! the work of three stages, cuts its interval into three such spans. The
//! collector comes from [`wino_sched::Executor::probe`] — plain executors
//! return `None` and everything here is free;
//! `wino_sched::ProbedExecutor` returns its collector. With `wino-probe`'s
//! `enabled` feature off, every call const-folds to nothing.

use wino_probe::{SpanCategory, COORDINATOR};
use wino_sched::Executor;

/// Timestamp for a later [`record_coord`] / [`record_slot`] call.
/// Zero (and free) when probing is disabled.
#[inline(always)]
pub(crate) fn span_start() -> u64 {
    wino_probe::now_ns()
}

/// Record a coordinator span of `cat` from `start` to now on `exec`'s
/// collector, if it has one. Must be called from the fork-issuing thread
/// with no fork–join in flight — which is exactly the position of stage
/// code right after `run_grid` returns.
#[inline]
pub(crate) fn record_coord(exec: &dyn Executor, cat: SpanCategory, start: u64) {
    record_coord_span(exec, cat, start, wino_probe::now_ns());
}

/// [`record_coord`] with an explicit end — for the fused fork–join, whose
/// one interval is reported as three stage spans.
#[inline]
pub(crate) fn record_coord_span(exec: &dyn Executor, cat: SpanCategory, start: u64, end: u64) {
    if !wino_probe::ENABLED {
        return;
    }
    if let Some(c) = exec.probe() {
        // SAFETY: called on the coordinator thread between fork–joins per
        // this function's contract, so the coordinator buffer is exclusive.
        unsafe { c.record(COORDINATOR, cat, start, end) };
    }
}

/// Record a worker span of `cat` from `start` to now under `slot`. Must be
/// called from inside a `run_grid` task holding that slot (the Executor
/// slot-exclusivity contract makes the buffer exclusive).
#[inline]
pub(crate) fn record_slot(
    collector: Option<&wino_probe::Collector>,
    slot: usize,
    cat: SpanCategory,
    start: u64,
) {
    if !wino_probe::ENABLED {
        return;
    }
    if let Some(c) = collector {
        // SAFETY: the caller holds `slot` per the Executor contract, so
        // slot's buffer is exclusively this thread's for the call.
        unsafe { c.record(slot as u32, cat, start, wino_probe::now_ns()) };
    }
}
