//! The `Atomics` seam: the synchronisation substrate (barrier, job-exit
//! latch) is written once, generically, against this trait, and
//! instantiated twice —
//!
//! * [`StdAtomics`]: real `std::sync::atomic` types plus a wall-clock
//!   watchdog. This is what ships; `SpinBarrier` is
//!   `SpinBarrierIn<StdAtomics>`.
//! * `ModelAtomics` (in `wino-analyze`): shim atomics that report every
//!   access to a deterministic scheduler so a loom-style model checker can
//!   enumerate interleavings of the *same source code* that runs in
//!   production.
//!
//! The seam is deliberately tiny: the ops the barrier/latch actually use,
//! plus one `spin` hook that owns all time-dependence (backoff, yield,
//! watchdog deadline). Keeping `Instant`/`yield_now` behind the trait is
//! what makes the algorithms checkable — virtual time in the model is a
//! bounded step counter, so every schedule terminates.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// The subset of `std::sync::atomic::AtomicUsize`'s API the scheduling
/// substrate uses. Implementations must provide genuinely atomic
/// operations with at least the requested ordering.
pub trait AtomicUsizeOps: Send + Sync {
    fn new(v: usize) -> Self;
    fn load(&self, order: Ordering) -> usize;
    fn store(&self, v: usize, order: Ordering);
    fn fetch_add(&self, v: usize, order: Ordering) -> usize;
    fn fetch_or(&self, v: usize, order: Ordering) -> usize;
    fn compare_exchange(
        &self,
        current: usize,
        new: usize,
        success: Ordering,
        failure: Ordering,
    ) -> Result<usize, usize>;
}

impl AtomicUsizeOps for std::sync::atomic::AtomicUsize {
    #[inline]
    fn new(v: usize) -> Self {
        std::sync::atomic::AtomicUsize::new(v)
    }
    #[inline]
    fn load(&self, order: Ordering) -> usize {
        std::sync::atomic::AtomicUsize::load(self, order)
    }
    #[inline]
    fn store(&self, v: usize, order: Ordering) {
        std::sync::atomic::AtomicUsize::store(self, v, order)
    }
    #[inline]
    fn fetch_add(&self, v: usize, order: Ordering) -> usize {
        std::sync::atomic::AtomicUsize::fetch_add(self, v, order)
    }
    #[inline]
    fn fetch_or(&self, v: usize, order: Ordering) -> usize {
        std::sync::atomic::AtomicUsize::fetch_or(self, v, order)
    }
    #[inline]
    fn compare_exchange(
        &self,
        current: usize,
        new: usize,
        success: Ordering,
        failure: Ordering,
    ) -> Result<usize, usize> {
        std::sync::atomic::AtomicUsize::compare_exchange(self, current, new, success, failure)
    }
}

/// An execution environment for the busy-wait synchronisation code: atomic
/// word types plus the one backoff/watchdog hook.
///
/// The `deadline` passed to [`Atomics::spin`] is interpreted in the
/// implementation's own timebase: wall-clock for [`StdAtomics`], *virtual
/// time* (one nanosecond per spin step) for the model checker's
/// `ModelAtomics`. Algorithms must treat it as opaque. Both timebases
/// count it from the start of the wait (the model from its first spin,
/// `StdAtomics` from its 64th at the latest): a wait told to give up
/// after `d` gives up after `d`, however the implementation backs off
/// meanwhile.
pub trait Atomics: 'static {
    type AtomicUsize: AtomicUsizeOps;
    /// Per-wait-loop backoff state; fresh (`Default`) at the start of each
    /// blocking wait.
    type SpinState: Default;

    /// One iteration of a busy-wait loop: backoff (spin hint, OS yield, or
    /// model-scheduler yield point) and watchdog check. Returns
    /// `Some(waited)` once `deadline`, counted from the start of the wait
    /// on this `state`, has expired, `None` while the caller should keep
    /// waiting.
    fn spin(state: &mut Self::SpinState, deadline: Option<Duration>) -> Option<Duration>;
}

/// The clock seam: code that compares deadlines or measures queue ages
/// names its timebase through this trait instead of calling
/// `Instant::now()` directly, so the same source can run against the
/// wall clock in production ([`StdClock`]) and against *virtual time*
/// under the model checker (`ModelClock` in `wino-analyze`, where one
/// tick is one scheduler step and "has the deadline passed?" becomes an
/// explorable schedule choice rather than a wall-clock read).
///
/// The trait is deliberately minimal — an opaque, totally-ordered
/// instant plus saturating arithmetic. Durations keep their `std`
/// meaning; only the origin and rate of `now` are abstracted.
pub trait Clock: 'static {
    /// An opaque point in this clock's timebase.
    type Instant: Copy + PartialOrd + Send + Sync + std::fmt::Debug;

    /// The current instant.
    fn now() -> Self::Instant;

    /// `t + d` (saturating at the timebase's maximum).
    fn add(t: Self::Instant, d: Duration) -> Self::Instant;

    /// `later - earlier`, or `Duration::ZERO` if `later < earlier`.
    fn since(later: Self::Instant, earlier: Self::Instant) -> Duration;
}

/// The production timebase: `std::time::Instant`.
pub struct StdClock;

impl Clock for StdClock {
    type Instant = Instant;

    #[inline]
    fn now() -> Instant {
        Instant::now()
    }
    #[inline]
    fn add(t: Instant, d: Duration) -> Instant {
        t.checked_add(d).unwrap_or(t)
    }
    #[inline]
    fn since(later: Instant, earlier: Instant) -> Duration {
        later.saturating_duration_since(earlier)
    }
}

/// Pure spins before falling back to `yield_now` (tuned conservatively:
/// real barrier crossings complete within tens of spins when cores are
/// dedicated).
const SPINS_BEFORE_YIELD: u32 = 1 << 14;

/// Pause spins between clock reads of a deadline-bearing wait. The clock
/// starts at the wait's `CLOCK_EVERY`-th spin, so a crossing that
/// completes sooner reads no clock at all; the pauses before it (a few
/// microseconds) are the only part of a wait its deadline does not count.
const CLOCK_EVERY: u32 = 64;

/// Backoff state for [`StdAtomics`]: spin counter plus the lazily-started
/// watchdog clock.
#[derive(Default)]
pub struct StdSpinState {
    spins: u32,
    waiting_since: Option<Instant>,
}

/// The production environment: real atomics, `spin_loop`/`yield_now`
/// backoff, wall-clock watchdog.
pub struct StdAtomics;

impl Atomics for StdAtomics {
    type AtomicUsize = std::sync::atomic::AtomicUsize;
    type SpinState = StdSpinState;

    #[inline]
    fn spin(state: &mut StdSpinState, deadline: Option<Duration>) -> Option<Duration> {
        std::hint::spin_loop();
        // Saturating: a `None` wait may outlast 2³² spins (an idle
        // batcher), and a saturated count stays in the yield phase.
        state.spins = state.spins.saturating_add(1);
        let yielding = state.spins >= SPINS_BEFORE_YIELD;
        if yielding {
            std::thread::yield_now();
        }
        if let Some(limit) = deadline {
            // Every `CLOCK_EVERY` pauses, and after every yield (one
            // syscall, which may give the core away for long).
            if yielding || state.spins.is_multiple_of(CLOCK_EVERY) {
                let t0 = *state.waiting_since.get_or_insert_with(Instant::now);
                let waited = t0.elapsed();
                if waited >= limit {
                    return Some(waited);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_deadline_runs_from_the_start_of_the_wait() {
        // A zero deadline expires at the first clock read, long before
        // the pause → yield backoff.
        let mut st = StdSpinState::default();
        let expired_at =
            (1..=CLOCK_EVERY).find(|_| StdAtomics::spin(&mut st, Some(Duration::ZERO)).is_some());
        assert_eq!(expired_at, Some(CLOCK_EVERY));
        // A wait without a deadline never expires (and reads no clock).
        let mut st = StdSpinState::default();
        for _ in 0..(2 * SPINS_BEFORE_YIELD) {
            assert!(StdAtomics::spin(&mut st, None).is_none());
        }
        assert!(st.waiting_since.is_none());
        // A 2-ms wait never expires early.
        let limit = Duration::from_millis(2);
        let mut st = StdSpinState::default();
        let t0 = Instant::now();
        let waited = loop {
            if let Some(waited) = StdAtomics::spin(&mut st, Some(limit)) {
                break waited;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "watchdog never fired"
            );
        };
        assert!(waited >= limit, "expired after {waited:?} of {limit:?}");
    }

    #[test]
    fn a_wait_past_u32_max_spins_keeps_its_deadline() {
        let mut st = StdSpinState {
            spins: u32::MAX - 1,
            waiting_since: None,
        };
        for _ in 0..3 {
            assert!(StdAtomics::spin(&mut st, None).is_none());
        }
        assert_eq!(st.spins, u32::MAX);
        assert!(StdAtomics::spin(&mut st, Some(Duration::ZERO)).is_some());
    }
}
