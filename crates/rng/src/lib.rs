//! # wino-rng
//!
//! A tiny, dependency-free, seeded pseudo-random number generator used by
//! the data generators and the property-style tests. The workspace builds
//! in network-isolated environments where no external registry crate is
//! available, so this replaces `rand`'s `StdRng` for our purposes:
//! deterministic, splittable, and good enough statistically for test-data
//! generation (it is *not* cryptographic).
//!
//! The core is xoshiro256++ (Blackman & Vigna), seeded through SplitMix64
//! exactly as its authors recommend, so a single `u64` seed expands to a
//! well-mixed 256-bit state.

/// SplitMix64 step — used for seeding and as a cheap standalone mixer.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// xoshiro256++ PRNG with a `u64` seed.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Deterministic generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)`. `bound` must be nonzero.
    #[inline]
    pub fn below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        // 128-bit multiply keeps the modulo bias negligible (< 2^-64).
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as usize
    }

    /// Uniform integer in `[lo, hi]` (inclusive). Requires `lo <= hi`.
    #[inline]
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)` with 24 bits of precision.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform `f32` in `[lo, hi)`.
    #[inline]
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + self.next_f32() * (hi - lo)
    }

    /// Uniform `bool`.
    #[inline]
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::seed_from_u64(42);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::seed_from_u64(42);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::seed_from_u64(43);
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn floats_in_range() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.range_f32(-0.1, 0.1);
            assert!((-0.1..0.1).contains(&x), "{x}");
            let y = r.next_f64();
            assert!((0.0..1.0).contains(&y), "{y}");
        }
    }

    #[test]
    fn integer_ranges_cover_bounds() {
        let mut r = Rng::seed_from_u64(11);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let v = r.range_usize(2, 7);
            assert!((2..=7).contains(&v));
            seen[v - 2] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of a small range hit");
    }

    #[test]
    fn mean_is_roughly_centred() {
        let mut r = Rng::seed_from_u64(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
