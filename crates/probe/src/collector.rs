//! The per-thread, append-only event store.
//!
//! A [`Collector`] holds one `Vec<SpanEvent>` per executor slot plus one
//! for the coordinator. Recording appends to the caller's own buffer —
//! no locks, no atomics, no cross-thread traffic on the hot path. The
//! price is a contract, identical to the one `wino-conv`'s `Scratch`
//! thread buffers already impose: a given buffer is touched by at most
//! one thread at a time (the Executor slot contract for worker buffers;
//! single-threaded fork-issuing for the coordinator buffer). Buffers are
//! merged only at fork–join boundaries, when every worker has provably
//! exited the job closure.
//!
//! A collector exists only where a run is instrumented (inside a
//! `wino_sched::ProbedExecutor`); code that is handed none records nothing.

use std::cell::UnsafeCell;

use crate::event::{SpanCategory, SpanEvent, COORDINATOR};

/// Per-slot span buffers. See the module docs for the threading contract.
#[derive(Debug)]
pub struct Collector {
    slots: usize,
    /// `slots + 1` buffers: index `slots` is the coordinator's.
    bufs: Vec<UnsafeCell<Vec<SpanEvent>>>,
}

// SAFETY: every buffer is accessed by at most one thread at a time — the
// Executor slot contract guarantees it for worker buffers (slot i is held
// by one task at a time), and the coordinator buffer is written only by
// the thread issuing fork–joins, never from inside a job closure. `drain`
// additionally requires that no fork–join is in flight.
unsafe impl Sync for Collector {}

impl Collector {
    /// A collector for executors of up to `slots` worker slots.
    pub fn new(slots: usize) -> Collector {
        Collector {
            slots,
            bufs: (0..slots + 1).map(|_| UnsafeCell::new(Vec::new())).collect(),
        }
    }

    /// Number of worker slots this collector serves.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Append one span to `thread`'s buffer ([`COORDINATOR`] for the
    /// fork-issuing thread).
    ///
    /// # Safety
    /// At most one thread may record to a given `thread` id at a time,
    /// and `thread` must be `< slots` or [`COORDINATOR`]. Worker slots
    /// satisfy this through the Executor slot contract; the coordinator
    /// id must only be used outside in-flight fork–joins.
    #[inline]
    pub unsafe fn record(&self, thread: u32, category: SpanCategory, start_ns: u64, end_ns: u64) {
        let idx = if thread == COORDINATOR { self.slots } else { thread as usize };
        // SAFETY: exclusive buffer access per this function's contract.
        let buf = unsafe { &mut *self.bufs[idx].get() };
        buf.push(SpanEvent { category, thread, start_ns, end_ns });
    }

    /// Merge and clear every per-thread buffer, returning the events
    /// sorted by start time.
    ///
    /// # Safety
    /// No thread may be recording into this collector during the call —
    /// in executor terms, no fork–join sharing this collector may be in
    /// flight. Calling it after a `run_grid` returned (its join is the
    /// synchronisation point) satisfies this.
    pub unsafe fn drain(&self) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        for b in &self.bufs {
            // SAFETY: no concurrent recording per this function's
            // contract, so the exclusive reference is unique.
            out.append(unsafe { &mut *b.get() });
        }
        out.sort_by_key(|e| (e.start_ns, e.thread));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_drain() {
        let c = Collector::new(2);
        // SAFETY: single-threaded test — trivially exclusive.
        unsafe {
            c.record(0, SpanCategory::InputTransform, 10, 20);
            c.record(1, SpanCategory::ElementwiseGemm, 5, 8);
            c.record(COORDINATOR, SpanCategory::ForkJoin, 0, 30);
        }
        // SAFETY: no recording in flight.
        let events = unsafe { c.drain() };
        assert_eq!(events.len(), 3);
        // Sorted by start time.
        assert_eq!(events[0].category, SpanCategory::ForkJoin);
        assert_eq!(events[1].start_ns, 5);
        assert_eq!(events[2].thread, 0);
        // Drained: second drain is empty.
        // SAFETY: no recording in flight.
        assert!(unsafe { c.drain() }.is_empty());
    }

    #[test]
    fn concurrent_slots_do_not_interfere() {
        let c = Collector::new(4);
        std::thread::scope(|s| {
            for slot in 0..4u32 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..100 {
                        // SAFETY: each spawned thread owns exactly one slot.
                        unsafe { c.record(slot, SpanCategory::TileExtract, i, i + 1) };
                    }
                });
            }
        });
        // SAFETY: all writers joined by the scope.
        assert_eq!(unsafe { c.drain() }.len(), 400);
    }
}
