//! Deterministic allocation-failure injection (`fault-inject` builds).
//!
//! The OOM analogue of `wino-sched`'s worker-fault hooks: tests arm the
//! injector and every subsequent `AlignedVec::try_zeroed` call consults it
//! before touching the system allocator. Armed, it fails every k-th
//! injectable allocation (models intermittent pressure; `k = 1` fails
//! everything).
//!
//! It carries a shot count: each injected failure consumes one shot and
//! the injector disarms when they run out, so a test can prove "exactly n
//! failures deep" ladder behaviour. Only `try_zeroed` is injectable — the
//! infallible wrappers bypass the injector by design, so arming faults can
//! never abort the process.

use std::sync::Mutex;

#[derive(Clone, Copy, Debug)]
struct State {
    /// Fail when `seen_calls % k == 0` (1-based call index); `None` while
    /// disarmed.
    every: Option<u64>,
    /// Remaining injected failures before the injector disarms.
    shots: u32,
    /// Injectable allocations observed since arming.
    seen_calls: u64,
    /// Total failures injected since the last [`reset`].
    injected: u64,
}

const IDLE: State = State { every: None, shots: 0, seen_calls: 0, injected: 0 };

static STATE: Mutex<State> = Mutex::new(IDLE);

/// Fail every `k`-th injectable allocation (1-based; `k = 1` fails every
/// one), for up to `shots` failures.
pub fn arm_fail_every(k: u64, shots: u32) {
    let mut s = STATE.lock().unwrap_or_else(|e| e.into_inner());
    *s = State { every: Some(k.max(1)), shots, ..IDLE };
}

/// Disarm the injector and zero its tallies.
pub fn reset() {
    *STATE.lock().unwrap_or_else(|e| e.into_inner()) = IDLE;
}

/// Failures injected since the last [`reset`] (survives disarming, so a
/// test can confirm how many shots actually landed).
pub fn injected_failures() -> u64 {
    STATE.lock().unwrap_or_else(|e| e.into_inner()).injected
}

/// Consulted by `AlignedVec::try_zeroed` for every injectable allocation.
/// Returns true when this allocation must fail.
pub(crate) fn should_fail() -> bool {
    let mut s = STATE.lock().unwrap_or_else(|e| e.into_inner());
    let Some(k) = s.every else { return false };
    if s.shots == 0 {
        s.every = None;
        return false;
    }
    s.seen_calls += 1;
    let fail = s.seen_calls.is_multiple_of(k);
    if fail {
        s.shots -= 1;
        s.injected += 1;
        if s.shots == 0 {
            s.every = None;
        }
    }
    fail
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AlignedVec;

    // The injector is process-global; tests that arm it must serialise.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn every_kth_fails_on_schedule_and_shots_disarm() {
        let _g = lock();
        reset();
        arm_fail_every(3, 2);
        let outcomes: Vec<bool> =
            (0..9).map(|_| AlignedVec::try_zeroed(8).is_ok()).collect();
        // Calls 3 and 6 fail (two shots), then the injector disarms.
        assert_eq!(outcomes, [true, true, false, true, true, false, true, true, true]);
        assert_eq!(injected_failures(), 2);
        reset();
    }

    #[test]
    fn infallible_constructors_ignore_the_injector() {
        let _g = lock();
        reset();
        arm_fail_every(1, u32::MAX);
        // Would abort if the injector fired here.
        let v = AlignedVec::zeroed(64);
        assert_eq!(v.len(), 64);
        let w = AlignedVec::from_slice(&[1.0, 2.0]);
        assert_eq!(w.as_slice(), &[1.0, 2.0]);
        reset();
    }
}
