//! The monotonic time source for span timestamps.
//!
//! [`now_ns`] is nanoseconds since a process-local epoch, read from
//! [`std::time::Instant`] (monotonic, immune to wall-clock steps), so
//! reports are comparable across hosts. It always reads the clock: a hot
//! path that must not pay for that when nobody collects takes its
//! timestamps through `wino_sched::probed::span_start`, which reads it
//! only when handed a collector.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process (monotonic).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
