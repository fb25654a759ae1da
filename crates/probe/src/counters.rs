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
//! Counters are process-global and monotonic. Beside the sentinel family
//! sit the memory ladder's outcomes. (Allocations are tallied per thread,
//! by `wino_simd::thread_alloc_{calls,bytes}`; the serving layer keeps
//! its tallies per server, in `wino_serve::ServeStats`.)

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
    /// Layers re-tiled to a smaller footprint because an allocation was
    /// refused.
    MemoryDemotions,
    /// Layers rescued by the im2col baseline after a memory demotion
    /// also failed to allocate.
    MemoryRescues,
}

const N: usize = 6;

static COUNTERS: [AtomicU64; N] = [const { AtomicU64::new(0) }; N];

impl Counter {
    fn cell(self) -> &'static AtomicU64 {
        &COUNTERS[self as usize]
    }

    /// Add `n` to the counter.
    pub fn add(self, n: u64) {
        // Monotonic tally: no ordering requirement beyond atomicity.
        self.cell().fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.cell().load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Counter {
        /// All counters.
        const ALL: [Counter; N] = [
            Counter::SentinelTilesChecked,
            Counter::SentinelTrips,
            Counter::SentinelDemotions,
            Counter::SentinelRescues,
            Counter::MemoryDemotions,
            Counter::MemoryRescues,
        ];

        /// Stable kebab-case name.
        fn name(self) -> &'static str {
            match self {
                Counter::SentinelTilesChecked => "sentinel-tiles-checked",
                Counter::SentinelTrips => "sentinel-trips",
                Counter::SentinelDemotions => "sentinel-demotions",
                Counter::SentinelRescues => "sentinel-rescues",
                Counter::MemoryDemotions => "memory-demotions",
                Counter::MemoryRescues => "memory-rescues",
            }
        }
    }

    /// Zero every counter.
    fn reset_all() {
        for c in Counter::ALL {
            c.cell().store(0, Ordering::Relaxed);
        }
    }

    // Counters are process-global: this is the one test that writes them.
    #[test]
    fn counters_tally_and_reset() {
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
    fn names_are_unique() {
        let names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
