//! The recording API end to end from outside the crate: every entry point
//! an instrumented hot path uses, then the fold a bench binary applies.

use wino_probe::{fold, Collector, MachineModel, SpanCategory, WorkModel, COORDINATOR};

#[test]
fn recorded_spans_drain_and_fold() {
    let c = Collector::new(8);
    assert_eq!(c.slots(), 8);

    let t0 = wino_probe::now_ns();
    let t1 = wino_probe::now_ns();
    // SAFETY: single-threaded test — buffer access is exclusive.
    unsafe {
        c.record(0, SpanCategory::InputTransform, t0, t1);
        c.record(7, SpanCategory::TileExtract, t0, t1);
        c.record(COORDINATOR, SpanCategory::ForkJoin, t0, t1);
    }
    // SAFETY: nothing records concurrently.
    let events = unsafe { c.drain() };
    assert_eq!(events.len(), 3, "every span is kept");

    let report = fold(&events, &WorkModel::new(), &MachineModel::assumed());
    assert_eq!(report.barrier.fork_joins, 1);
}
