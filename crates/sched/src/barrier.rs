//! The custom busy-wait barrier (§4.2, §4.5, "Efficient fork–join
//! synchronization") with a watchdog deadline.
//!
//! The paper replaces Cilk/OpenMP/pthread barriers with a SPIRAL-style
//! busy-wait barrier built from C++11 atomics; synchronisation completes in
//! "a fraction of cycles" of the library primitives. This is the Rust
//! equivalent: a sense-reversing central counter barrier using only
//! `AtomicUsize`.
//!
//! Two pragmatic extensions over the paper's dedicated-machine setting:
//!
//! 1. After a bounded number of pure spins the waiter yields to the OS
//!    scheduler. On a dedicated manycore machine the yield never triggers;
//!    on an oversubscribed box (CI, this dev machine) it prevents
//!    pathological timeslice waits without giving up the fast path.
//! 2. **Watchdog deadline** ([`SpinBarrier::wait_deadline`]): a production
//!    server cannot afford an infinite spin when a participant dies. Once
//!    the waiter has entered the yield regime it checks a wall-clock
//!    deadline; on expiry it *poisons* the barrier and returns
//!    [`BarrierError::Timeout`] carrying how long it waited and how many
//!    participants had arrived. Every subsequent or concurrent wait on a
//!    poisoned barrier fails fast with [`BarrierError::Poisoned`] instead
//!    of spinning on state that can never advance.
//!
//! The barrier is generic over the [`Atomics`] environment so that the
//! *identical* algorithm that ships ([`SpinBarrier`] =
//! [`SpinBarrierIn<StdAtomics>`]) is also what `wino-analyze`'s
//! deterministic model checker explores under every bounded interleaving
//! (`SpinBarrierIn<ModelAtomics>`). All backoff and time-dependence lives
//! behind [`Atomics::spin`]; this file contains no clock reads.

use std::sync::atomic::Ordering;
use std::time::Duration;

use crate::atomics::{AtomicUsizeOps, Atomics, StdAtomics};

/// Why a barrier wait failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierError {
    /// The watchdog deadline expired before all participants arrived.
    /// The barrier is now poisoned.
    Timeout {
        /// How long this waiter busy-waited before giving up.
        waited: Duration,
        /// Participants that had arrived in this generation (including
        /// the reporting waiter) when the watchdog fired. Approximate:
        /// captured just before poisoning, so a concurrent late arriver
        /// may be missed.
        arrived: usize,
        /// Participants required to release the barrier.
        expected: usize,
    },
    /// The barrier was poisoned by an earlier timeout; waiting on it can
    /// never succeed.
    Poisoned,
}

impl std::fmt::Display for BarrierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BarrierError::Timeout { waited, arrived, expected } => write!(
                f,
                "barrier timeout after {waited:?}: {arrived} of {expected} participants arrived"
            ),
            BarrierError::Poisoned => write!(f, "barrier poisoned by an earlier timeout"),
        }
    }
}

impl std::error::Error for BarrierError {}

/// High bit of [`SpinBarrierIn::state`]: set once the barrier is poisoned.
/// Keeping the poison flag in the *same* word as the generation counter
/// makes poisoning and generation completion mutually exclusive (both are
/// CAS transitions from the un-poisoned current generation): a watchdog
/// can never poison a crossing that actually succeeded, and a successful
/// poison guarantees no participant was released for that generation.
const POISON: usize = 1 << (usize::BITS - 1);

/// A reusable busy-wait barrier for a fixed set of participants, generic
/// over the [`Atomics`] environment (see the module docs).
pub struct SpinBarrierIn<A: Atomics = StdAtomics> {
    /// Threads arrived in the current generation.
    count: A::AtomicUsize,
    /// Completed generations in the low bits (waiters spin on this) plus
    /// the [`POISON`] flag in the high bit.
    state: A::AtomicUsize,
    total: usize,
}

/// The production barrier: the generic algorithm over real atomics and the
/// wall-clock watchdog.
pub type SpinBarrier = SpinBarrierIn<StdAtomics>;

impl<A: Atomics> SpinBarrierIn<A> {
    /// Barrier for `total` participants.
    ///
    /// # Panics
    /// Panics if `total == 0`.
    pub fn new(total: usize) -> SpinBarrierIn<A> {
        assert!(total > 0, "barrier needs at least one participant");
        SpinBarrierIn {
            count: A::AtomicUsize::new(0),
            state: A::AtomicUsize::new(0),
            total,
        }
    }

    /// Mark the barrier unusable; concurrent and future waiters fail fast
    /// with [`BarrierError::Poisoned`]. Unlike the watchdog's poison-CAS,
    /// this unconditionally kills the barrier whatever generation it is in.
    pub fn poison(&self) {
        self.state.fetch_or(POISON, Ordering::AcqRel);
    }

    /// Block (busy-wait) until all `total` participants have called
    /// `wait` in this generation. Returns `true` on exactly one
    /// participant per generation (the last to arrive).
    ///
    /// This is the paper-faithful unbounded wait; prefer
    /// [`Self::wait_deadline`] anywhere a participant could be missing.
    ///
    /// # Panics
    /// Panics if the barrier is (or becomes) poisoned — an unbounded wait
    /// on a poisoned barrier can never complete.
    pub fn wait(&self) -> bool {
        match self.wait_deadline(None) {
            Ok(leader) => leader,
            Err(e) => panic!("SpinBarrier::wait on a poisoned barrier: {e}"),
        }
    }

    /// As [`Self::wait`], but with an optional watchdog deadline measured
    /// from the moment the waiter enters the yield regime (so the
    /// uncontended fast path never reads the clock).
    ///
    /// On expiry the barrier is poisoned and `Timeout { waited, arrived,
    /// expected }` is returned. If another waiter's watchdog fired first
    /// (or [`Self::poison`] was called), returns `Poisoned` promptly.
    pub fn wait_deadline(&self, deadline: Option<Duration>) -> Result<bool, BarrierError> {
        let gen = self.state.load(Ordering::Acquire);
        if gen & POISON != 0 {
            return Err(BarrierError::Poisoned);
        }
        // ORDERING: AcqRel — the RMW chain makes every pre-barrier write of
        // every earlier arriver visible to the last arriver.
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.total {
            // ORDERING: Relaxed — the reset is published by the Release
            // generation-CAS below before any spinner can re-enter the
            // next generation; no one reads `count` racily for ordering.
            self.count.store(0, Ordering::Relaxed);
            // CAS, not store: a concurrently-successful watchdog poison
            // must win, in which case this crossing never completes and
            // every participant (including this one) reports Poisoned.
            // On success the Release publishes all pre-barrier writes
            // (transitively, via the RMW chain) to the spinners' Acquire
            // loads below.
            let next = gen.wrapping_add(1) & !POISON;
            return match self.state.compare_exchange(
                gen,
                next,
                Ordering::Release,
                Ordering::Acquire,
            ) {
                Ok(_) => Ok(true),
                Err(_) => Err(BarrierError::Poisoned),
            };
        }
        let mut spin = A::SpinState::default();
        loop {
            let s = self.state.load(Ordering::Acquire);
            if s & POISON != 0 {
                return Err(BarrierError::Poisoned);
            }
            if s != gen {
                return Ok(false);
            }
            if let Some(waited) = A::spin(&mut spin, deadline) {
                // Capture the arrival count before poisoning (the leader
                // resets it as part of completing); our own arrival is a
                // floor on the true value.
                // ORDERING: Relaxed — diagnostic snapshot only; the value
                // is advisory and never used for synchronisation.
                let seen = self.count.load(Ordering::Relaxed).max(arrived);
                // Poison via CAS from the un-poisoned current generation:
                // exactly one of {this poison, the leader's completion}
                // can win.
                return match self.state.compare_exchange(
                    gen,
                    gen | POISON,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => Err(BarrierError::Timeout {
                        waited,
                        arrived: seen,
                        expected: self.total,
                    }),
                    // Lost to a concurrent poison: fail fast.
                    Err(s) if s & POISON != 0 => Err(BarrierError::Poisoned),
                    // Lost to the leader: the crossing succeeded.
                    Err(_) => Ok(false),
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::time::Instant;

    impl<A: Atomics> SpinBarrierIn<A> {
        /// Whether a watchdog has poisoned this barrier.
        fn is_poisoned(&self) -> bool {
            self.state.load(Ordering::Acquire) & POISON != 0
        }
    }

    #[test]
    fn single_participant_never_blocks() {
        let b = SpinBarrier::new(1);
        for _ in 0..100 {
            assert!(b.wait());
        }
    }

    #[test]
    fn all_threads_pass_each_generation_together() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 200;
        let barrier = Arc::new(SpinBarrier::new(THREADS));
        let phase = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let barrier = Arc::clone(&barrier);
            let phase = Arc::clone(&phase);
            handles.push(std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    // Before the barrier: phase must still be `round`.
                    assert_eq!(phase.load(Ordering::SeqCst), round as u64);
                    if barrier.wait() {
                        // Exactly one thread advances the phase per round.
                        phase.fetch_add(1, Ordering::SeqCst);
                    }
                    barrier.wait(); // second barrier so the check above is safe
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(phase.load(Ordering::SeqCst), ROUNDS as u64);
    }

    #[test]
    fn exactly_one_leader_per_generation() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 100;
        let barrier = Arc::new(SpinBarrier::new(THREADS));
        let leaders = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let barrier = Arc::clone(&barrier);
            let leaders = Arc::clone(&leaders);
            handles.push(std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    if barrier.wait() {
                        // ORDERING: Relaxed — test-local counter; the
                        // final value is read after `join`, which is
                        // already a synchronisation point.
                        leaders.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // ORDERING: Relaxed — all writers joined above.
        assert_eq!(leaders.load(Ordering::Relaxed), ROUNDS as u64);
    }

    #[test]
    fn barrier_publishes_writes() {
        // Data written before wait() by one thread must be visible after
        // wait() on another.
        const THREADS: usize = 2;
        let barrier = Arc::new(SpinBarrier::new(THREADS));
        let data = Arc::new(racy_cell());
        let b2 = Arc::clone(&barrier);
        let d2 = Arc::clone(&data);
        let h = std::thread::spawn(move || {
            // SAFETY: this store happens strictly before the first barrier
            // crossing; the reader only loads after crossing the same
            // barrier, so the accesses never race.
            unsafe { *d2.0.get() = 42 };
            b2.wait();
            b2.wait();
        });
        barrier.wait();
        // SAFETY: read after the barrier crossing that ordered it with the
        // writer's pre-barrier store (see above).
        let v = unsafe { *data.0.get() };
        assert_eq!(v, 42);
        barrier.wait();
        h.join().unwrap();
    }

    struct RacyCell(std::cell::UnsafeCell<u64>);
    // SAFETY: the test serialises all access through barrier crossings;
    // `RacyCell` exists precisely to test that ordering.
    unsafe impl Sync for RacyCell {}
    fn racy_cell() -> RacyCell {
        RacyCell(std::cell::UnsafeCell::new(0))
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_panics() {
        let _ = SpinBarrier::new(0);
    }

    // ---- watchdog / poisoning ----

    #[test]
    fn timeout_reports_arrived_and_expected() {
        // 3 participants, only 2 ever arrive: the watchdog must fire and
        // report 2/3.
        let barrier = Arc::new(SpinBarrier::new(3));
        let b2 = Arc::clone(&barrier);
        let other = std::thread::spawn(move || b2.wait_deadline(Some(Duration::from_secs(5))));
        let err = barrier
            .wait_deadline(Some(Duration::from_millis(50)))
            .expect_err("must time out: third participant never arrives");
        match err {
            BarrierError::Timeout { waited, arrived, expected } => {
                assert!(waited >= Duration::from_millis(50), "waited {waited:?}");
                assert_eq!(arrived, 2);
                assert_eq!(expected, 3);
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        // The second waiter observes the poison promptly rather than
        // spinning out its own (much longer) deadline.
        let second = other.join().unwrap();
        assert_eq!(second, Err(BarrierError::Poisoned));
    }

    #[test]
    fn poisoned_barrier_fails_fast_on_reuse() {
        let barrier = SpinBarrier::new(2);
        barrier.poison();
        assert!(barrier.is_poisoned());
        let t0 = Instant::now();
        for _ in 0..100 {
            assert_eq!(barrier.wait_deadline(None), Err(BarrierError::Poisoned));
            assert_eq!(
                barrier.wait_deadline(Some(Duration::from_secs(10))),
                Err(BarrierError::Poisoned)
            );
        }
        // Fail-fast: 200 poisoned waits must not busy-wait anything close
        // to a deadline.
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn timeout_poisons_for_later_waiters() {
        let barrier = SpinBarrier::new(2);
        let err = barrier.wait_deadline(Some(Duration::from_millis(20))).unwrap_err();
        assert!(matches!(err, BarrierError::Timeout { arrived: 1, expected: 2, .. }));
        assert_eq!(barrier.wait_deadline(None), Err(BarrierError::Poisoned));
    }

    #[test]
    #[should_panic(expected = "poisoned")]
    fn unbounded_wait_panics_on_poison() {
        let barrier = SpinBarrier::new(2);
        barrier.poison();
        barrier.wait();
    }

    #[test]
    fn deadline_wait_succeeds_when_all_arrive() {
        const THREADS: usize = 4;
        let barrier = Arc::new(SpinBarrier::new(THREADS));
        let mut handles = Vec::new();
        for _ in 0..THREADS - 1 {
            let b = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    b.wait_deadline(Some(Duration::from_secs(5))).unwrap();
                }
            }));
        }
        for _ in 0..50 {
            barrier.wait_deadline(Some(Duration::from_secs(5))).unwrap();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(!barrier.is_poisoned());
    }
}
