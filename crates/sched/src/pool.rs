//! Persistent fork–join thread pool with statically pre-assigned work
//! (§4.5), hardened for long-running server use.
//!
//! The pool holds `n − 1` worker threads plus the calling thread. Each
//! parallel region is exactly one fork–join: the main thread publishes a
//! job, everyone crosses the start [`SpinBarrier`], runs its statically
//! assigned share, flushes streaming stores, and crosses the end barrier.
//! No work stealing, no queues — per the paper, load balance comes from the
//! static [`crate::GridPartition`], and synchronisation cost is two spins.
//!
//! # Failure model
//!
//! The paper assumes a dedicated machine and perfect jobs; a production
//! server gets neither, so every participant (workers *and* tid 0) runs
//! its job share inside `catch_unwind` and **always crosses the end
//! barrier**. Panics are collected into a shared slot and surface as
//! [`PoolError::Panicked`] from [`ThreadPool::run`]; the pool remains
//! fully usable for subsequent fork–joins. Only a participant that is
//! truly gone (killed thread, runaway stall) trips the barrier watchdog —
//! the pool then poisons both barriers so every thread unwinds promptly,
//! marks itself [`PoolError::Unusable`], and `Drop` detaches instead of
//! joining threads that may never return. Because each job borrows the
//! caller's closure for the duration of the fork–join, an end-barrier
//! timeout does not return until every participant has provably exited
//! its job share; a participant wedged *inside* the closure past a grace
//! period aborts the process rather than let `run` return while the
//! borrow is live.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::barrier::{BarrierError, SpinBarrier};
use crate::handoff::JobExitLatch;

/// Default watchdog deadline for one barrier crossing. The end-barrier
/// wait subsumes the other participants' entire job share, so this must
/// comfortably exceed the largest per-thread work item plus scheduling
/// noise on an oversubscribed machine.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);

/// The process-wide default watchdog deadline: `WINO_WATCHDOG_MS`
/// (a positive integer, milliseconds) when set and parseable, otherwise
/// [`DEFAULT_DEADLINE`]. Read on every call — pool construction is rare,
/// and not caching keeps the override testable — and used by
/// [`ThreadPool::new`] so long soaks on contended CI machines can widen
/// the watchdog without code changes. An explicit
/// [`ThreadPool::with_deadline`] always wins over the environment.
pub fn default_deadline() -> Duration {
    match std::env::var("WINO_WATCHDOG_MS") {
        Ok(ms) => match ms.trim().parse::<u64>() {
            Ok(ms) if ms > 0 => Duration::from_millis(ms),
            _ => DEFAULT_DEADLINE,
        },
        Err(_) => DEFAULT_DEADLINE,
    }
}

/// Why a fork–join failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// One or more participants panicked while running the job. Contains
    /// `(tid, panic message)` per panicking participant, in tid order.
    /// The pool is still usable.
    Panicked { panics: Vec<(usize, String)> },
    /// A barrier watchdog fired: a participant never reached the
    /// fork–join barrier. The pool is dead afterwards.
    Barrier(BarrierError),
    /// The pool was disabled by an earlier barrier failure; no further
    /// fork–joins will run.
    Unusable,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Panicked { panics } => {
                write!(f, "{} participant(s) panicked:", panics.len())?;
                for (tid, msg) in panics {
                    write!(f, " [tid {tid}: {msg}]")?;
                }
                Ok(())
            }
            PoolError::Barrier(e) => write!(f, "fork-join barrier failure: {e}"),
            PoolError::Unusable => write!(f, "thread pool disabled by an earlier barrier failure"),
        }
    }
}

impl std::error::Error for PoolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PoolError::Barrier(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BarrierError> for PoolError {
    fn from(e: BarrierError) -> Self {
        PoolError::Barrier(e)
    }
}

/// Type-erased job pointer: a borrowed `Fn(usize)` whose lifetime is
/// guaranteed by the fork–join protocol (the publisher cannot return from
/// `run` until every worker has crossed the end barrier).
type JobPtr = *const (dyn Fn(usize) + Sync);

struct Shared {
    start: SpinBarrier,
    end: SpinBarrier,
    job: UnsafeCell<Option<JobPtr>>,
    shutdown: AtomicBool,
    /// Panic payloads collected during the current fork–join, drained by
    /// tid 0 after the end barrier.
    panics: Mutex<Vec<(usize, String)>>,
    /// Completed fork–join count; also the epoch used by fault injection.
    epoch: AtomicU64,
    /// Counts participants out of the borrowed job closure. Tid 0 resets
    /// it after each successful end-barrier crossing; on an end-barrier
    /// timeout it gates `run`'s return (see [`ThreadPool::await_job_exit`]
    /// and the [`crate::handoff`] module docs).
    job_done: JobExitLatch,
}

// SAFETY: `job` is only written by the main thread strictly before the
// start barrier and only read by workers strictly after it; the barrier's
// release/acquire pair orders those accesses.
unsafe impl Sync for Shared {}
// SAFETY: the raw `job` pointer is the only non-Send field; ownership of
// the pointee stays with `run`, which outlives every worker access.
unsafe impl Send for Shared {}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one participant's share of the job with panic containment; records
/// any panic in the shared slot instead of unwinding into the barrier.
fn run_job(shared: &Shared, tid: usize, epoch: u64, job: &(dyn Fn(usize) + Sync)) {
    let _ = epoch; // used only by the fault hooks
    let result = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "fault-inject")]
        crate::fault::before_job(tid, epoch);
        job(tid);
    }));
    // The closure borrow is dead from here on: counting out through the
    // latch is what lets `run` return (dropping the closure) on the
    // timeout path — even if this thread then stalls before the end
    // barrier (e.g. in the `after_job` fault hook).
    shared.job_done.record_exit();
    if let Err(payload) = result {
        let mut slot = shared.panics.lock().unwrap_or_else(|e| e.into_inner());
        slot.push((tid, panic_message(payload)));
    }
    #[cfg(feature = "fault-inject")]
    crate::fault::after_job(tid, epoch);
}

/// A fixed-size fork–join pool.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    n_threads: usize,
    deadline: Duration,
    /// Set after a barrier failure: the participant set is broken and no
    /// further fork–join can complete.
    dead: AtomicBool,
}

impl ThreadPool {
    /// Create a pool of `n_threads` total participants (including the
    /// calling thread), so `n_threads - 1` OS threads are spawned, with
    /// the default watchdog deadline ([`default_deadline`] — the
    /// `WINO_WATCHDOG_MS` environment override, or [`DEFAULT_DEADLINE`]).
    ///
    /// # Panics
    /// Panics if `n_threads == 0`.
    pub fn new(n_threads: usize) -> ThreadPool {
        ThreadPool::with_deadline(n_threads, default_deadline())
    }

    /// As [`ThreadPool::new`] with an explicit barrier watchdog deadline.
    pub fn with_deadline(n_threads: usize, deadline: Duration) -> ThreadPool {
        assert!(n_threads > 0);
        let shared = Arc::new(Shared {
            start: SpinBarrier::new(n_threads),
            end: SpinBarrier::new(n_threads),
            job: UnsafeCell::new(None),
            shutdown: AtomicBool::new(false),
            panics: Mutex::new(Vec::new()),
            epoch: AtomicU64::new(0),
            job_done: JobExitLatch::new(),
        });
        let workers = (1..n_threads)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("wino-worker-{tid}"))
                    .spawn(move || worker_loop(&shared, tid))
                    .expect("failed to spawn worker")
            })
            .collect();
        ThreadPool { shared, workers, n_threads, deadline, dead: AtomicBool::new(false) }
    }

    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// The configured barrier watchdog deadline.
    pub fn deadline(&self) -> Duration {
        self.deadline
    }

    /// Whether the pool has been disabled by a barrier failure.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Active liveness probe: one empty fork–join across every
    /// participant. `Ok(())` proves each worker is parked at the start
    /// barrier and able to complete a round trip within the watchdog
    /// deadline; `Err` is the same typed failure [`ThreadPool::run`]
    /// would report (`Unusable` for an already-dead pool, `Barrier` for a
    /// participant that has silently died since the last job). Long-lived
    /// servers call this after a pool-level failure to decide whether the
    /// pool must be rebuilt.
    pub fn health_check(&self) -> Result<(), PoolError> {
        self.run(|_| {})
    }

    pub(crate) fn mark_dead(&self) {
        self.dead.store(true, Ordering::Release);
        // Unwind every parked or spinning participant promptly.
        self.shared.start.poison();
        self.shared.end.poison();
    }

    /// One fork–join: run `f(tid)` on every thread (tid `0..n_threads`,
    /// the calling thread is tid 0), returning after all have finished.
    /// Streaming stores issued inside `f` are globally visible on return.
    ///
    /// A panic inside `f` on any participant is contained: every thread
    /// still reaches the end barrier, and the panics are reported as
    /// [`PoolError::Panicked`] — the pool stays usable. A participant that
    /// never reaches a barrier (killed or stalled thread) trips the
    /// watchdog within [`Self::deadline`]; the pool is then permanently
    /// [`PoolError::Unusable`]. In that case the error is not returned
    /// until every participant has exited `f` (so the borrow of `f` and
    /// anything it captures is dead); a participant wedged inside `f`
    /// beyond a grace period aborts the process.
    pub fn run<F: Fn(usize) + Sync>(&self, f: F) -> Result<(), PoolError> {
        if self.is_dead() {
            return Err(PoolError::Unusable);
        }
        let epoch = self.shared.epoch.fetch_add(1, Ordering::AcqRel);
        if self.n_threads == 1 {
            run_job(&self.shared, 0, epoch, &f);
            self.shared.job_done.reset();
            wino_simd::sfence();
            return self.drain_panics();
        }
        let ptr: *const (dyn Fn(usize) + Sync + '_) = &f;
        // SAFETY: only the main thread writes `job`, and only outside a
        // fork–join region (workers are parked at the start barrier).
        // Erasing the lifetime is sound because `run` does not return
        // while any participant can still dereference the job:
        // * on the successful path, every worker has crossed the end
        //   barrier (its job share is long done);
        // * a start-barrier `Timeout` means the poison-CAS beat the
        //   generation CAS, so no worker was released into the job at
        //   all (see `SpinBarrier::wait_deadline`);
        // * an end-barrier timeout blocks in `await_job_exit` until every
        //   participant's `job_done` increment proves the borrow dead —
        //   or aborts the process if one is wedged inside the closure.
        let ptr: JobPtr =
            unsafe { std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), JobPtr>(ptr) };
        // SAFETY: exclusive access — workers only read `job` between the
        // barriers, and they are parked at the start barrier here.
        unsafe {
            *self.shared.job.get() = Some(ptr);
        }
        if let Err(e) = self.shared.start.wait_deadline(Some(self.deadline)) {
            self.mark_dead();
            return Err(e.into());
        }
        run_job(&self.shared, 0, epoch, &f);
        wino_simd::sfence();
        if let Err(e) = self.shared.end.wait_deadline(Some(self.deadline)) {
            self.mark_dead();
            self.await_job_exit();
            return Err(e.into());
        }
        // Workers are parked at the start barrier again; reset the exit
        // count for the next fork–join.
        self.shared.job_done.reset();
        self.drain_panics()
    }

    /// Block until every participant has exited the current job closure
    /// (all crossed the start barrier, so all will run it exactly once).
    /// Called after an end-barrier timeout: the barriers are already
    /// poisoned, but a participant that is merely slow — or stalled
    /// *between* its job share and the end barrier — may still hold the
    /// type-erased borrow of the caller's closure; returning from `run`
    /// before it lets go would leave it dereferencing freed memory. A
    /// participant still inside the closure after a further grace period
    /// is wedged for good, and aborting is the only sound option left.
    fn await_job_exit(&self) {
        let grace = self.deadline.max(Duration::from_secs(1));
        if self.shared.job_done.await_all(self.n_threads, grace).is_err() {
            eprintln!(
                "wino-sched: fatal: a participant is still executing its job share \
                 {grace:?} after the end-barrier watchdog fired; aborting, as \
                 returning would free buffers the stuck thread still references"
            );
            std::process::abort();
        }
    }

    fn drain_panics(&self) -> Result<(), PoolError> {
        let mut slot = self.shared.panics.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_empty() {
            Ok(())
        } else {
            let mut panics = std::mem::take(&mut *slot);
            panics.sort_by_key(|(tid, _)| *tid);
            Err(PoolError::Panicked { panics })
        }
    }
}

fn worker_loop(shared: &Shared, tid: usize) {
    loop {
        // Unbounded wait while idle (no watchdog churn between layers);
        // a poisoned barrier unparks us immediately.
        if shared.start.wait_deadline(None).is_err() {
            return;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let epoch = shared.epoch.load(Ordering::Acquire).wrapping_sub(1);
        // SAFETY: the start barrier ordered this read after the main
        // thread's write; the job pointer stays valid until this thread's
        // `job_done` increment inside `run_job` (which is what allows the
        // publisher to return and drop the closure).
        let job = unsafe { (*shared.job.get()).expect("job published before barrier") };
        // SAFETY: dereferencing the type-erased borrow; validity as above.
        run_job(shared, tid, epoch, unsafe { &*job });
        // Make this worker's streaming stores visible before the join.
        wino_simd::sfence();
        if shared.end.wait_deadline(None).is_err() {
            return;
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        if self.n_threads <= 1 {
            return;
        }
        if self.is_dead() {
            // Workers have unwound (or are unwinding) through the
            // poisoned barriers; one may still be stalled inside a job we
            // cannot interrupt. Detach instead of risking a join that
            // never returns.
            self.workers.clear();
            return;
        }
        self.shared.shutdown.store(true, Ordering::Release);
        match self.shared.start.wait_deadline(Some(self.deadline)) {
            Ok(_) => {
                for w in self.workers.drain(..) {
                    let _ = w.join();
                }
            }
            Err(_) => {
                // A worker died without tripping a run-time watchdog
                // (e.g. the pool was never used after the fault). The
                // barrier is now poisoned, so live workers exit on their
                // own; detach the handles.
                self.workers.clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    impl PoolError {
        /// The tids reported as panicked (empty for non-panic errors).
        fn panicking_tids(&self) -> Vec<usize> {
            match self {
                PoolError::Panicked { panics } => panics.iter().map(|(t, _)| *t).collect(),
                _ => Vec::new(),
            }
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let count = AtomicUsize::new(0);
        pool.run(|tid| {
            assert_eq!(tid, 0);
            // ORDERING: Relaxed — test counter; run()'s fork–join orders it.
            count.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        // ORDERING: Relaxed — read after run() returned.
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn every_tid_runs_exactly_once_per_forkjoin() {
        let pool = ThreadPool::new(4);
        for _ in 0..50 {
            let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            pool.run(|tid| {
                // ORDERING: Relaxed — test counter; run()'s fork–join orders it.
                hits[tid].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            for (tid, h) in hits.iter().enumerate() {
                // ORDERING: Relaxed — read after run() returned.
                assert_eq!(h.load(Ordering::Relaxed), 1, "tid {tid}");
            }
        }
    }

    #[test]
    fn results_are_visible_after_run() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0usize; 1024];
        {
            let chunks: Vec<_> = data.chunks_mut(256).collect();
            // Hand each thread a disjoint chunk through a lock-free cell.
            let cell = std::sync::Mutex::new(chunks);
            pool.run(|tid| {
                let chunk = {
                    let mut guard = cell.lock().unwrap();
                    guard.pop()
                };
                if let Some(chunk) = chunk {
                    for (i, x) in chunk.iter_mut().enumerate() {
                        *x = tid * 1000 + i;
                    }
                }
            })
            .unwrap();
        }
        // All four chunks written (values nonzero except index 0 of some).
        assert!(data[1] != 0 && data[257] != 0 && data[513] != 0 && data[769] != 0);
    }

    #[test]
    fn sequential_runs_do_not_deadlock() {
        let pool = ThreadPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.run(|_| {
                // ORDERING: Relaxed — test counter; run()'s fork–join orders it.
                total.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        // ORDERING: Relaxed — read after run() returned.
        assert_eq!(total.load(Ordering::Relaxed), 600);
        assert_eq!(pool.shared.epoch.load(Ordering::Acquire), 200);
    }

    #[test]
    fn drop_joins_workers() {
        for _ in 0..10 {
            let pool = ThreadPool::new(4);
            pool.run(|_| {}).unwrap();
            drop(pool); // must not hang or leak
        }
    }

    #[test]
    fn nested_data_parallel_work() {
        let pool = ThreadPool::new(4);
        let acc = AtomicUsize::new(0);
        pool.run(|tid| {
            // Simulate per-thread statically assigned iteration.
            let mut local = 0;
            for i in 0..1000 {
                if i % 4 == tid {
                    local += i;
                }
            }
            // ORDERING: Relaxed — test counter; run()'s fork–join orders it.
            acc.fetch_add(local, Ordering::Relaxed);
        })
        .unwrap();
        // ORDERING: Relaxed — read after run() returned.
        assert_eq!(acc.load(Ordering::Relaxed), (0..1000).sum::<usize>());
    }

    // ---- panic containment ----

    #[test]
    fn single_worker_panic_is_reported_not_hung() {
        let pool = ThreadPool::new(4);
        let err = pool
            .run(|tid| {
                if tid == 2 {
                    panic!("boom on {tid}");
                }
            })
            .expect_err("tid 2 panicked");
        match &err {
            PoolError::Panicked { panics } => {
                assert_eq!(panics.len(), 1);
                assert_eq!(panics[0].0, 2);
                assert!(panics[0].1.contains("boom on 2"), "message: {}", panics[0].1);
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(err.panicking_tids(), vec![2]);
        // The pool must still work.
        let count = AtomicUsize::new(0);
        pool.run(|_| {
            // ORDERING: Relaxed — test counter; run()'s fork–join orders it.
            count.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        // ORDERING: Relaxed — read after run() returned.
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn panic_on_main_participant_is_contained() {
        let pool = ThreadPool::new(3);
        let err = pool
            .run(|tid| {
                if tid == 0 {
                    panic!("main-thread job failure");
                }
            })
            .expect_err("tid 0 panicked");
        assert_eq!(err.panicking_tids(), vec![0]);
        pool.run(|_| {}).unwrap();
    }

    #[test]
    fn all_participants_panicking_reports_every_tid() {
        let pool = ThreadPool::new(4);
        let err = pool.run(|tid| panic!("tid {tid} dies")).expect_err("all panicked");
        assert_eq!(err.panicking_tids(), vec![0, 1, 2, 3]);
        pool.run(|_| {}).unwrap();
    }

    #[test]
    fn pool_survives_100_alternating_panicking_and_clean_forkjoins() {
        let pool = ThreadPool::new(4);
        let clean = AtomicUsize::new(0);
        for round in 0..100 {
            if round % 2 == 0 {
                let err = pool
                    .run(|tid| {
                        if tid == round % 4 {
                            panic!("round {round}");
                        }
                    })
                    .expect_err("one tid panics on even rounds");
                assert_eq!(err.panicking_tids(), vec![round % 4]);
            } else {
                pool.run(|_| {
                    // ORDERING: Relaxed — test counter; run()'s fork–join orders it.
                    clean.fetch_add(1, Ordering::Relaxed);
                })
                .unwrap();
            }
        }
        // ORDERING: Relaxed — read after run() returned.
        assert_eq!(clean.load(Ordering::Relaxed), 50 * 4);
        assert!(!pool.is_dead());
    }

    #[test]
    fn panic_in_single_thread_pool_is_contained() {
        let pool = ThreadPool::new(1);
        let err = pool.run(|_| panic!("inline")).expect_err("inline job panicked");
        assert_eq!(err.panicking_tids(), vec![0]);
        pool.run(|_| {}).unwrap();
    }

    #[test]
    fn non_string_panic_payload_is_reported() {
        let pool = ThreadPool::new(2);
        let err = pool
            .run(|tid| {
                if tid == 1 {
                    std::panic::panic_any(42usize);
                }
            })
            .expect_err("panicked with non-string payload");
        match err {
            PoolError::Panicked { panics } => {
                assert_eq!(panics[0].1, "non-string panic payload");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    // ---- watchdog / drop robustness ----

    #[test]
    fn dead_pool_fails_fast_and_drop_does_not_hang() {
        // Simulate a dead participant by poisoning the barriers directly
        // (the non-fault-injected stand-in for a killed worker).
        let pool = ThreadPool::with_deadline(4, Duration::from_millis(100));
        pool.run(|_| {}).unwrap();
        pool.mark_dead();
        assert_eq!(pool.run(|_| {}), Err(PoolError::Unusable));
        assert_eq!(pool.run(|_| {}), Err(PoolError::Unusable));
        drop(pool); // must detach, not deadlock
    }

    #[test]
    fn end_barrier_timeout_waits_for_slow_job_before_returning() {
        // A worker still *inside* its job share when the end-barrier
        // watchdog fires: `run` must not return (dropping the closure and
        // the captured buffer) until the worker has exited the closure.
        let pool = ThreadPool::with_deadline(2, Duration::from_millis(50));
        let buffer = vec![7u8; 4096];
        let finished = AtomicUsize::new(0);
        let t0 = Instant::now();
        let err = pool
            .run(|tid| {
                if tid == 1 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                // Touch the captured buffer right up to the end of the
                // job — a use-after-free if `run` returned early.
                assert_eq!(buffer[tid], 7);
                finished.fetch_add(1, Ordering::SeqCst);
            })
            .expect_err("watchdog must fire before the slow worker finishes");
        assert!(matches!(err, PoolError::Barrier(BarrierError::Timeout { .. })), "{err:?}");
        // `run` returned only after both participants left the closure…
        assert_eq!(finished.load(Ordering::SeqCst), 2);
        assert!(t0.elapsed() >= Duration::from_millis(400), "returned while job ran");
        // …and the pool is dead (the watchdog did fire).
        assert!(pool.is_dead());
        drop(pool);
    }

    #[test]
    fn drop_tolerates_exited_workers() {
        // Worker threads that already unwound through a poisoned start
        // barrier must not deadlock Drop's shutdown handshake.
        let pool = ThreadPool::with_deadline(3, Duration::from_millis(100));
        pool.shared.start.poison();
        // Give the workers a moment to observe the poison and exit.
        std::thread::sleep(Duration::from_millis(50));
        drop(pool); // start.wait_deadline errors; handles are detached
    }

    #[test]
    fn health_check_reports_liveness() {
        let pool = ThreadPool::new(3);
        pool.health_check().unwrap();
        // Still usable for real work afterwards.
        pool.run(|_| {}).unwrap();
        // A dead pool fails the probe with the typed unusable error.
        pool.mark_dead();
        assert_eq!(pool.health_check(), Err(PoolError::Unusable));
    }

    #[test]
    fn watchdog_env_override_and_default() {
        // Serialised against other env-sensitive logic by using a value
        // far above every deadline used in this suite: a concurrently
        // constructed pool only ever gets a *longer* watchdog.
        std::env::set_var("WINO_WATCHDOG_MS", "120000");
        assert_eq!(default_deadline(), Duration::from_millis(120_000));
        let pool = ThreadPool::new(2);
        assert_eq!(pool.deadline(), Duration::from_millis(120_000));
        pool.run(|_| {}).unwrap();
        drop(pool);
        // Unparseable and non-positive values fall back to the default.
        std::env::set_var("WINO_WATCHDOG_MS", "not-a-number");
        assert_eq!(default_deadline(), DEFAULT_DEADLINE);
        std::env::set_var("WINO_WATCHDOG_MS", "0");
        assert_eq!(default_deadline(), DEFAULT_DEADLINE);
        // Unset: the default path (also what every other test exercises).
        std::env::remove_var("WINO_WATCHDOG_MS");
        assert_eq!(default_deadline(), DEFAULT_DEADLINE);
        let pool = ThreadPool::new(2);
        assert_eq!(pool.deadline(), DEFAULT_DEADLINE);
    }

    #[test]
    fn error_display_formats() {
        let e = PoolError::Panicked { panics: vec![(2, "boom".into())] };
        let s = e.to_string();
        assert!(s.contains("tid 2") && s.contains("boom"), "{s}");
        let e = PoolError::Barrier(BarrierError::Poisoned);
        assert!(e.to_string().contains("poisoned"));
        assert!(PoolError::Unusable.to_string().contains("disabled"));
    }
}
