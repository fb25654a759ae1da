//! The blocking-parameter model (§4.3.2, Eq. 11).
//!
//! Each micro-kernel invocation `X̂ = βX̂ + Û·V̂` performs
//! `2·n_blk·C_blk·C'_blk` FLOPs while moving `n_blk·C_blk` floats of `Û`,
//! `(β+1)·n_blk·C'_blk` floats of `X̂` (load + store when β = 1) — `V̂`
//! stays in L2. The compute-to-memory ratio is therefore
//!
//! ```text
//!   2·C_blk·C'_blk / ((β+1)·C'_blk + C_blk)     (Eq. 11)
//! ```
//!
//! and must exceed the machine's FLOP-to-float-bandwidth ratio (≈45 for the
//! Xeon Phi 7210: 4.5 TFLOPS / 100 GFloat/s) or the kernel is memory-bound.
//! The constraints on the search space come from §4.3.2 verbatim.

use crate::micro::MAX_N_BLK;

/// A choice of the three blocking parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BlockShape {
    /// Panel height: rows of `Û`/`X̂` per micro-kernel call (6 up to
    /// [`MAX_N_BLK`]; the kernel cuts them into register-tile strips).
    pub n_blk: usize,
    /// Reduction block (`C_blk`), multiple of 16.
    pub c_blk: usize,
    /// Output-column block (`C'_blk`), multiple of 16.
    pub cp_blk: usize,
}

/// The Xeon Phi 7210's compute-to-memory ratio from the paper:
/// ≈4.5 TFLOPS / (400 GB/s ÷ 4 B) = 45 FLOPs per float moved.
pub const KNL_MACHINE_RATIO: f64 = 45.0;

/// Hard bound on `C_blk · C'_blk` (L2 budget for `V̂`): `128²` floats.
pub const MAX_V_ELEMS: usize = 128 * 128;

impl BlockShape {
    /// Eq. 11: FLOPs per float moved for one micro-kernel call.
    pub fn compute_to_memory_ratio(&self, beta: bool) -> f64 {
        let b = if beta { 1.0 } else { 0.0 };
        let (cb, cpb) = (self.c_blk as f64, self.cp_blk as f64);
        2.0 * cb * cpb / ((b + 1.0) * cpb + cb)
    }

    /// Bytes of L2 occupied by one `V̂` block.
    pub fn v_bytes(&self) -> usize {
        self.c_blk * self.cp_blk * 4
    }

    /// Whether the shape is compute-bound on a machine with the given
    /// FLOP/float ratio (steady state: β = 1).
    pub fn is_compute_bound(&self, machine_ratio: f64) -> bool {
        self.compute_to_memory_ratio(true) >= machine_ratio
    }

    /// Rows of padding introduced when multiplying `rows` panel rows.
    pub fn row_padding(&self, rows: usize) -> usize {
        let rem = rows % self.n_blk;
        if rem == 0 {
            0
        } else {
            self.n_blk - rem
        }
    }
}

/// Enumerate every legal `(n_blk, C_blk, C'_blk)` for a layer with `c`
/// input channels, `cp` output channels and `rows` panel rows, applying
/// the paper's constraints:
///
/// * `6 ≤ n_blk ≤ 30` (FMA-latency floor; the paper's register ceiling,
///   [`MAX_N_BLK`] — on every backend, since the micro-kernel bounds its
///   own register use with strips of the panel) — relaxed to `rows` when
///   the panel is shorter than 6 rows;
/// * `C_blk | c`, `C'_blk | cp`, both multiples of 16, each in `[32, 512]`
///   (relaxed to 16 when the channel count itself is 16);
/// * `C_blk · C'_blk ≤ 128²`.
pub fn candidate_shapes(c: usize, cp: usize, rows: usize) -> Vec<BlockShape> {
    assert!(c.is_multiple_of(16) && cp.is_multiple_of(16), "channels must be multiples of 16");
    let channel_blocks = |n: usize| -> Vec<usize> {
        let lo = if n < 32 { 16 } else { 32 };
        (1..=n)
            .filter(|&b| n.is_multiple_of(b) && b % 16 == 0 && b >= lo && b <= 512)
            .collect()
    };
    let nb_lo = 6.min(rows.max(1));
    let nb_hi = MAX_N_BLK.min(rows.max(1)).max(nb_lo);
    let mut out = Vec::new();
    for &cb in &channel_blocks(c) {
        for &cpb in &channel_blocks(cp) {
            if cb * cpb > MAX_V_ELEMS {
                continue;
            }
            for nb in nb_lo..=nb_hi {
                out.push(BlockShape { n_blk: nb, c_blk: cb, cp_blk: cpb });
            }
        }
    }
    out
}

/// Model-guided default (no timing): the candidate maximising the Eq. 11
/// ratio, tie-broken by squarer blocks (ratio ties are common — e.g.
/// 256×64 and 128×128 both score 85.33 — and square `V̂` blocks amortise
/// better across both panel directions), then least row padding, then
/// larger `n_blk`.
pub fn default_shape(c: usize, cp: usize, rows: usize) -> BlockShape {
    let cands = candidate_shapes(c, cp, rows);
    assert!(!cands.is_empty(), "no legal blocking for C={c}, C'={cp}");
    let squareness = |s: &BlockShape| s.c_blk.abs_diff(s.cp_blk);
    *cands
        .iter()
        .max_by(|a, b| {
            let ra = a.compute_to_memory_ratio(true);
            let rb = b.compute_to_memory_ratio(true);
            ra.partial_cmp(&rb)
                .unwrap()
                .then(squareness(b).cmp(&squareness(a)))
                .then((b.row_padding(rows)).cmp(&a.row_padding(rows)))
                .then(a.n_blk.cmp(&b.n_blk))
        })
        .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq11_reproduces_paper_numbers() {
        // §4.3.2: C_blk = C'_blk = 128, β = 1 → 85.33; 64/64 → 42.67.
        let s = BlockShape { n_blk: 8, c_blk: 128, cp_blk: 128 };
        assert!((s.compute_to_memory_ratio(true) - 85.33).abs() < 0.01);
        let s = BlockShape { n_blk: 8, c_blk: 64, cp_blk: 64 };
        assert!((s.compute_to_memory_ratio(true) - 42.67).abs() < 0.01);
    }

    #[test]
    fn compute_bound_classification() {
        let big = BlockShape { n_blk: 8, c_blk: 128, cp_blk: 128 };
        assert!(big.is_compute_bound(KNL_MACHINE_RATIO));
        let small = BlockShape { n_blk: 8, c_blk: 64, cp_blk: 64 };
        assert!(!small.is_compute_bound(KNL_MACHINE_RATIO));
    }

    #[test]
    fn v_fits_l2_budget() {
        // 128×128 V̂ needs 64 KB, within the paper's 1 MB-per-2-cores L2.
        let s = BlockShape { n_blk: 8, c_blk: 128, cp_blk: 128 };
        assert_eq!(s.v_bytes(), 64 * 1024);
    }

    #[test]
    fn candidates_respect_constraints() {
        for (c, cp) in [(64, 64), (128, 256), (512, 512), (16, 32)] {
            let cands = candidate_shapes(c, cp, 1000);
            assert!(!cands.is_empty(), "C={c} C'={cp}");
            for s in cands {
                assert!(s.n_blk >= 6 && s.n_blk <= MAX_N_BLK);
                assert_eq!(c % s.c_blk, 0);
                assert_eq!(cp % s.cp_blk, 0);
                assert_eq!(s.c_blk % 16, 0);
                assert_eq!(s.cp_blk % 16, 0);
                assert!(s.c_blk * s.cp_blk <= MAX_V_ELEMS);
                assert!(s.c_blk <= 512 && s.cp_blk <= 512);
            }
        }
    }

    #[test]
    fn small_channel_counts_relax_floor() {
        // C = 16 cannot reach the preferred 32 floor.
        let cands = candidate_shapes(16, 16, 100);
        assert!(cands.iter().all(|s| s.c_blk == 16 && s.cp_blk == 16));
        assert!(!cands.is_empty());
    }

    #[test]
    fn short_panels_relax_n_blk() {
        let cands = candidate_shapes(64, 64, 3);
        assert!(cands.iter().all(|s| s.n_blk <= 3));
        assert!(!cands.is_empty());
    }

    #[test]
    fn default_shape_prefers_high_ratio() {
        // With C = C' = 512, the ratio-maximal legal choice is 128×128.
        let s = default_shape(512, 512, 960);
        assert_eq!((s.c_blk, s.cp_blk), (128, 128));
        assert!(s.n_blk >= 6);
    }

    #[test]
    fn default_shape_is_legal_on_every_layer() {
        let channels = [16, 32, 64, 128, 256, 512, 1024];
        for c in channels {
            for cp in channels {
                for rows in [1, 5, 6, 9, 30, 31, 1600] {
                    let s = default_shape(c, cp, rows);
                    let at = format!("C={c} C'={cp} rows={rows}: {s:?}");
                    assert_eq!((c % s.c_blk, cp % s.cp_blk), (0, 0), "{at}");
                    assert!(s.c_blk * s.cp_blk <= MAX_V_ELEMS, "{at}");
                    assert!((6.min(rows)..=MAX_N_BLK.min(rows)).contains(&s.n_blk), "{at}");
                }
            }
        }
    }

    #[test]
    fn row_padding() {
        let s = BlockShape { n_blk: 8, c_blk: 64, cp_blk: 64 };
        assert_eq!(s.row_padding(64), 0);
        assert_eq!(s.row_padding(65), 7);
        assert_eq!(s.row_padding(63), 1);
    }
}
