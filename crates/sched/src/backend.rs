//! Execution backends: the paper's static scheduler and a serial
//! executor.
//!
//! Both backends share one failure contract: `run_grid` returns
//! `Err(PoolError::Panicked { .. })` if any task panicked (the panic is
//! contained, never propagated), and the static backend additionally
//! surfaces barrier watchdog failures as `PoolError::Barrier`. On `Ok(())`
//! every flat index was executed exactly once; on `Err` the grid may be
//! partially executed and the output buffers must be treated as garbage.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::pool::PoolError;
use crate::{GridPartition, ThreadPool};

/// Runs D-dimensional grids of equal tasks. Implementations must invoke
/// the task closure exactly once for every flat task index (when they
/// return `Ok`).
pub trait Executor: Sync {
    /// Run `task(slot, flat_index)` for every cell of the grid `dims`.
    ///
    /// `slot` identifies the executing thread: it is in `0..self.threads()`
    /// and no two concurrently running tasks share a slot — callers may use
    /// it to index per-thread scratch without locks. `task` must be safe to
    /// call concurrently from multiple threads on distinct indices.
    ///
    /// Panics inside `task` are contained and reported as
    /// [`PoolError::Panicked`]; they never unwind through this call.
    fn run_grid(
        &self,
        dims: &[usize],
        task: &(dyn Fn(usize, usize) + Sync),
    ) -> Result<(), PoolError>;

    /// Number of thread slots this executor uses (1 for serial).
    fn threads(&self) -> usize;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// The span collector this executor records into, if instrumented.
    /// Plain executors are not; wrap one in
    /// [`crate::ProbedExecutor`] to collect stage spans and fork–join
    /// timings. Stage code uses this hook to record categorised spans
    /// without threading a collector through every signature.
    fn probe(&self) -> Option<&wino_probe::Collector> {
        None
    }
}

impl<E: Executor + ?Sized> Executor for &E {
    fn run_grid(
        &self,
        dims: &[usize],
        task: &(dyn Fn(usize, usize) + Sync),
    ) -> Result<(), PoolError> {
        (**self).run_grid(dims, task)
    }

    fn threads(&self) -> usize {
        (**self).threads()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn probe(&self) -> Option<&wino_probe::Collector> {
        (**self).probe()
    }
}

impl<E: Executor + ?Sized> Executor for Box<E> {
    fn run_grid(
        &self,
        dims: &[usize],
        task: &(dyn Fn(usize, usize) + Sync),
    ) -> Result<(), PoolError> {
        (**self).run_grid(dims, task)
    }

    fn threads(&self) -> usize {
        (**self).threads()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn probe(&self) -> Option<&wino_probe::Collector> {
        (**self).probe()
    }
}

/// Single-threaded executor: iterates the grid in row-major order.
pub struct SerialExecutor;

impl Executor for SerialExecutor {
    fn run_grid(
        &self,
        dims: &[usize],
        task: &(dyn Fn(usize, usize) + Sync),
    ) -> Result<(), PoolError> {
        let total: usize = dims.iter().product();
        let result = catch_unwind(AssertUnwindSafe(|| {
            for i in 0..total {
                task(0, i);
            }
        }));
        wino_simd::sfence();
        match result {
            Ok(()) => Ok(()),
            Err(payload) => {
                let msg = crate::pool::panic_message(payload);
                Err(PoolError::Panicked { panics: vec![(0, msg)] })
            }
        }
    }

    fn threads(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "serial"
    }
}

/// The paper's scheduler: recursive-GCD static partition executed by the
/// persistent fork–join pool with the custom spin barrier.
pub struct StaticExecutor {
    pool: ThreadPool,
}

impl StaticExecutor {
    pub fn new(threads: usize) -> StaticExecutor {
        StaticExecutor { pool: ThreadPool::new(threads) }
    }

    /// As [`StaticExecutor::new`] with an explicit barrier watchdog
    /// deadline (see [`ThreadPool::with_deadline`]).
    pub fn with_deadline(threads: usize, deadline: std::time::Duration) -> StaticExecutor {
        StaticExecutor { pool: ThreadPool::with_deadline(threads, deadline) }
    }

    /// The underlying fork–join pool.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }
}

impl Executor for StaticExecutor {
    fn run_grid(
        &self,
        dims: &[usize],
        task: &(dyn Fn(usize, usize) + Sync),
    ) -> Result<(), PoolError> {
        let partition = GridPartition::new(dims, self.pool.n_threads());
        self.pool.run(|tid| {
            partition.boxes[tid].for_each_flat(dims, |idx| task(tid, idx));
        })
    }

    fn threads(&self) -> usize {
        self.pool.n_threads()
    }

    fn name(&self) -> &'static str {
        "static"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn check_covers(e: &dyn Executor, dims: &[usize]) {
        let total: usize = dims.iter().product();
        let hits: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
        let max_slot = AtomicUsize::new(0);
        e.run_grid(dims, &|slot, i| {
            assert!(slot < e.threads(), "slot {slot} out of range");
            // ORDERING: Relaxed — test counter, read only after run_grid
            // returns (its join is the synchronisation point).
            max_slot.fetch_max(slot, Ordering::Relaxed);
            // ORDERING: Relaxed — same as above.
            hits[i].fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        for (i, h) in hits.iter().enumerate() {
            // ORDERING: Relaxed — all writers joined inside run_grid.
            assert_eq!(h.load(Ordering::Relaxed), 1, "task {i} run {} times", h.load(Ordering::Relaxed));
        }
    }

    #[test]
    fn serial_covers() {
        check_covers(&SerialExecutor, &[3, 4, 5]);
    }

    #[test]
    fn borrowed_dyn_executor_is_an_executor() {
        // `&dyn Executor` implements Executor, so borrowed executors can
        // be wrapped (e.g. by ProbedExecutor) without taking ownership.
        let e = StaticExecutor::new(2);
        let borrowed: &dyn Executor = &e;
        check_covers(&borrowed, &[4, 4]);
        assert_eq!(borrowed.threads(), 2);
        assert_eq!(Executor::name(&borrowed), "static");
    }

    #[test]
    fn static_covers() {
        let e = StaticExecutor::new(4);
        check_covers(&e, &[8, 4, 7]);
        check_covers(&e, &[5]);
        check_covers(&e, &[3, 3, 3]);
    }

    #[test]
    fn static_reuses_pool_across_grids() {
        let e = StaticExecutor::new(3);
        for _ in 0..20 {
            check_covers(&e, &[4, 9]);
        }
    }

    #[test]
    fn static_slot_is_stable_within_task_box() {
        // The static executor runs each thread's whole box under one slot.
        let e = StaticExecutor::new(2);
        let slots = std::sync::Mutex::new(vec![usize::MAX; 16]);
        e.run_grid(&[16], &|slot, i| {
            slots.lock().unwrap()[i] = slot;
        })
        .unwrap();
        let slots = slots.into_inner().unwrap();
        // Two contiguous halves, one per thread.
        assert!(slots[..8].iter().all(|&s| s == slots[0]));
        assert!(slots[8..].iter().all(|&s| s == slots[8]));
    }

    #[test]
    fn names_and_threads() {
        assert_eq!(SerialExecutor.threads(), 1);
        assert_eq!(SerialExecutor.name(), "serial");
        let e = StaticExecutor::new(2);
        assert_eq!(e.threads(), 2);
        assert_eq!(e.name(), "static");
    }

    #[test]
    fn serial_contains_task_panics() {
        let err = SerialExecutor
            .run_grid(&[10], &|_, i| {
                if i == 3 {
                    panic!("task 3 fails");
                }
            })
            .expect_err("task panicked");
        match err {
            PoolError::Panicked { panics } => assert!(panics[0].1.contains("task 3")),
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn static_contains_task_panics_and_stays_usable() {
        let e = StaticExecutor::new(4);
        let err = e
            .run_grid(&[64], &|_, i| {
                if i == 17 {
                    panic!("grid task 17");
                }
            })
            .expect_err("task panicked");
        assert!(matches!(err, PoolError::Panicked { .. }));
        check_covers(&e, &[8, 8]);
    }
}
