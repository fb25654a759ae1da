//! Always-on monotonic counters for rare, discrete events.
//!
//! The span substrate ([`crate::Collector`]) measures *time*, and only on
//! a run that carries a collector; the numerical-robustness subsystem
//! additionally needs to *count* things that are cheap, rare and
//! semantically load-bearing — how many output tiles the accuracy
//! sentinels re-verified, how many tripped, how the degradation ladder
//! resolved them. Tests assert on these (e.g. "sample rate 0 ⇒ zero
//! tiles checked"), so unlike spans they count on every run:
//! one relaxed atomic add per *sampled tile*, nothing per output element.
//!
//! Counters are process-global and monotonic. Beside the sentinel family sit the
//! allocator tallies and the memory ladder's outcomes. (The serving
//! layer keeps its tallies per server, in `wino_serve::ServeStats`.)

use std::sync::atomic::{AtomicU64, Ordering};

/// The counted event kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Output tiles re-verified against the f64 oracle by the sentinels.
    SentinelTilesChecked,
    /// Sampled tiles whose relative error exceeded the predicted bound.
    SentinelTrips,
    /// Layers demoted to a smaller tile size after a sentinel trip.
    SentinelDemotions,
    /// Layers rescued by the im2col baseline after demotion also failed.
    SentinelRescues,
    /// High-water mark of live `AlignedVec` bytes (recorded with
    /// [`Counter::record_max`] by `wino-simd` at every allocation).
    AllocBytesPeak,
    /// Aligned-buffer allocations performed (every `AlignedVec`
    /// constructed, fallible or not; zero-length buffers excluded).
    AllocCalls,
    /// Layers re-tiled to a smaller footprint because an allocation was
    /// refused.
    MemoryDemotions,
    /// Layers rescued by the im2col baseline after a memory demotion
    /// also failed to allocate.
    MemoryRescues,
}

const N: usize = 8;

static COUNTERS: [AtomicU64; N] = [const { AtomicU64::new(0) }; N];

impl Counter {
    /// All counters, in reporting order.
    pub const ALL: [Counter; N] = [
        Counter::SentinelTilesChecked,
        Counter::SentinelTrips,
        Counter::SentinelDemotions,
        Counter::SentinelRescues,
        Counter::AllocBytesPeak,
        Counter::AllocCalls,
        Counter::MemoryDemotions,
        Counter::MemoryRescues,
    ];

    /// Stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::SentinelTilesChecked => "sentinel-tiles-checked",
            Counter::SentinelTrips => "sentinel-trips",
            Counter::SentinelDemotions => "sentinel-demotions",
            Counter::SentinelRescues => "sentinel-rescues",
            Counter::AllocBytesPeak => "alloc-bytes-peak",
            Counter::AllocCalls => "alloc-calls",
            Counter::MemoryDemotions => "memory-demotions",
            Counter::MemoryRescues => "memory-rescues",
        }
    }

    fn cell(self) -> &'static AtomicU64 {
        &COUNTERS[self as usize]
    }

    /// Add `n` to the counter.
    pub fn add(self, n: u64) {
        // Monotonic tally: no ordering requirement beyond atomicity.
        self.cell().fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the counter to `v` if it is currently lower (high-water
    /// marks such as [`Counter::AllocBytesPeak`]).
    pub fn record_max(self, v: u64) {
        // Monotonic high-water mark: atomicity is all that matters.
        self.cell().fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.cell().load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Zero every counter.
    fn reset_all() {
        for c in Counter::ALL {
            c.cell().store(0, Ordering::Relaxed);
        }
    }

    // Counters are process-global; tests that write them must not
    // interleave (reset_all would erase a sibling's tallies mid-assert).
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_tally_and_reset() {
        let _g = lock();
        reset_all();
        Counter::SentinelTilesChecked.add(3);
        Counter::SentinelTilesChecked.add(2);
        Counter::SentinelTrips.add(1);
        assert_eq!(Counter::SentinelTilesChecked.get(), 5);
        assert_eq!(Counter::SentinelTrips.get(), 1);
        assert_eq!(Counter::SentinelRescues.get(), 0);
        reset_all();
        for c in Counter::ALL {
            assert_eq!(c.get(), 0, "{} not reset", c.name());
        }
    }

    #[test]
    fn record_max_keeps_high_water() {
        let _g = lock();
        reset_all();
        Counter::AllocBytesPeak.record_max(5);
        Counter::AllocBytesPeak.record_max(3);
        assert_eq!(Counter::AllocBytesPeak.get(), 5, "lower value must not shrink the mark");
        Counter::AllocBytesPeak.record_max(9);
        assert_eq!(Counter::AllocBytesPeak.get(), 9);
        reset_all();
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
