//! Deterministic fault injection for the recovery-path tests.
//!
//! Compiled only with the `fault-inject` feature; release builds carry no
//! hooks. The model is a process-global, one-shot *armed fault*: a test
//! arms exactly one fault, runs the scenario, and the fault disarms itself
//! when it fires. Three injection points cover every recovery path of the
//! execution layer:
//!
//! * **Panic on tid `k` at fork–join `n`** — exercises the
//!   `catch_unwind` containment in [`crate::ThreadPool::run`];
//! * **Barrier stall on tid `k` at fork–join `n`** — the job completes
//!   but the participant sleeps before the end barrier, exercising the
//!   [`crate::SpinBarrier`] watchdog and pool poisoning;
//! * **Poison value in stage `s` output** — consumed by the convolution
//!   stages (`wino-conv`), which overwrite one transformed value with a
//!   NaN, exercising the numeric guard and the im2col fallback;
//! * **Silent corruption in stage `s` output** ([`arm_corrupt`]) — the
//!   stage perturbs its output with *finite* wrong values (a flipped
//!   mantissa bit, a run of denormals, or an additive bias), which the
//!   NaN/Inf guard cannot see: only the accuracy sentinels can. Armed
//!   with a shot count so a demoted re-run can be corrupted again,
//!   forcing the degradation ladder all the way to the im2col rescue.
//!
//! Because the state is global, tests that inject faults must serialise
//! themselves (see [`test_lock`]); the workspace's fault tests take that
//! lock around each scenario.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

// The allocation-failure injector lives next to the allocator it arms
// (`wino-simd`); re-exported here so fault batteries have one façade —
// and one [`test_lock`] — for every injectable failure in the engine.
pub use wino_simd::fault::{arm_fail_every, injected_failures, reset as reset_alloc};

/// Which fork–join (pool epoch) a fault targets. Pools count fork–joins
/// from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum When {
    /// Fire at the given pool epoch.
    AtForkJoin(u64),
    /// Fire at the next fork–join, whatever its epoch.
    Next,
}

impl When {
    fn matches(self, epoch: u64) -> bool {
        match self {
            When::AtForkJoin(n) => n == epoch,
            When::Next => true,
        }
    }
}

/// The flavour of finite (guard-invisible) corruption [`arm_corrupt`]
/// injects. The concrete perturbation is applied by the consuming stage
/// (`wino-conv`); this is only the selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// Flip a high mantissa bit of one element: large, finite, local.
    BitFlip,
    /// Overwrite a stretch of elements with subnormals.
    DenormalStorm,
    /// Add a finite bias to a block of elements.
    SilentBias,
}

#[derive(Default)]
struct State {
    panic_at: Option<(usize, When)>,
    stall_at: Option<(usize, When, Duration)>,
    poison_stage: Option<u8>,
    corrupt: Option<(u8, CorruptKind, u32)>,
}

static STATE: Mutex<State> = Mutex::new(State {
    panic_at: None,
    stall_at: None,
    poison_stage: None,
    corrupt: None,
});

fn state() -> MutexGuard<'static, State> {
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Serialisation lock for fault tests: the armed fault is process-global,
/// so concurrently running tests would steal each other's faults.
pub fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Arm: panic on thread `tid` when it executes its job share at `when`.
pub fn arm_panic(tid: usize, when: When) {
    state().panic_at = Some((tid, when));
}

/// Arm: after finishing its job share at `when`, thread `tid` sleeps for
/// `dur` before reaching the end barrier (a stalled participant).
pub fn arm_stall(tid: usize, when: When, dur: Duration) {
    state().stall_at = Some((tid, when, dur));
}

/// Arm: the convolution stage numbered `stage` (1 = input transform,
/// 2 = multiply, 3 = inverse transform) overwrites one output value with
/// NaN on its next execution.
pub fn arm_poison_stage(stage: u8) {
    state().poison_stage = Some(stage);
}

/// Disarm everything (call between scenarios), the allocation injector
/// included.
pub fn reset() {
    *state() = State::default();
    wino_simd::fault::reset();
}

/// Pool hook: runs inside the `catch_unwind` envelope, immediately before
/// the job closure.
#[doc(hidden)]
pub fn before_job(tid: usize, epoch: u64) {
    let fire = {
        let mut s = state();
        match s.panic_at {
            Some((t, when)) if t == tid && when.matches(epoch) => {
                s.panic_at = None;
                true
            }
            _ => false,
        }
    };
    if fire {
        panic!("injected fault: panic on tid {tid} at fork-join {epoch}");
    }
}

/// Pool hook: runs after the job closure (outside `catch_unwind`), before
/// the end barrier.
#[doc(hidden)]
pub fn after_job(tid: usize, epoch: u64) {
    let dur = {
        let mut s = state();
        match s.stall_at {
            Some((t, when, d)) if t == tid && when.matches(epoch) => {
                s.stall_at = None;
                Some(d)
            }
            _ => None,
        }
    };
    if let Some(d) = dur {
        std::thread::sleep(d);
    }
}

/// Stage hook (consumed by `wino-conv`): returns `true` exactly once if a
/// poison fault is armed for `stage`.
pub fn take_poison_stage(stage: u8) -> bool {
    let mut s = state();
    if s.poison_stage == Some(stage) {
        s.poison_stage = None;
        true
    } else {
        false
    }
}

/// Arm: the convolution stage numbered `stage` silently corrupts its
/// output with `kind` on each of its next `shots` executions. Multiple
/// shots let a test corrupt both the original forward *and* the demoted
/// re-verification run.
pub fn arm_corrupt(stage: u8, kind: CorruptKind, shots: u32) {
    state().corrupt = if shots == 0 { None } else { Some((stage, kind, shots)) };
}

/// Stage hook (consumed by `wino-conv`): returns the armed corruption for
/// `stage`, decrementing its shot count; disarms when the shots run out.
pub fn take_corruption(stage: u8) -> Option<CorruptKind> {
    let mut s = state();
    match s.corrupt {
        Some((st, kind, shots)) if st == stage => {
            s.corrupt = if shots > 1 { Some((st, kind, shots - 1)) } else { None };
            Some(kind)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_are_one_shot() {
        let _g = test_lock();
        reset();
        arm_poison_stage(2);
        assert!(!take_poison_stage(1), "wrong stage must not consume");
        assert!(take_poison_stage(2));
        assert!(!take_poison_stage(2), "fault disarms after firing");
        reset();
    }

    #[test]
    fn corruption_shots_count_down() {
        let _g = test_lock();
        reset();
        arm_corrupt(2, CorruptKind::SilentBias, 2);
        assert_eq!(take_corruption(1), None, "wrong stage must not consume");
        assert_eq!(take_corruption(2), Some(CorruptKind::SilentBias));
        assert_eq!(take_corruption(2), Some(CorruptKind::SilentBias));
        assert_eq!(take_corruption(2), None, "disarms when shots run out");
        arm_corrupt(2, CorruptKind::BitFlip, 0);
        assert_eq!(take_corruption(2), None, "0 shots arms nothing");
        reset();
    }

    #[test]
    fn when_matching() {
        assert!(When::Next.matches(0));
        assert!(When::Next.matches(17));
        assert!(When::AtForkJoin(3).matches(3));
        assert!(!When::AtForkJoin(3).matches(4));
    }
}
