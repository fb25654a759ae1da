//! Exact a-priori error model for `F(m, r)`.
//!
//! Winograd's arithmetic saving comes from evaluating the correlation
//! through the transform triple `y = Aᵀ[(G·g) ⊙ (Bᵀ·d)]`, and the price
//! is conditioning: the transform matrices for large tiles carry large
//! entries (Vandermonde-style growth in the interpolation points), so
//! element-wise rounding errors of the f32 evaluation are *amplified* on
//! the way back through `Aᵀ`. The paper's Table 3 shows the effect
//! empirically; related work (Barabasz et al., "Error Analysis and
//! Improving the Accuracy of Winograd Convolution for DNNs"; Maji et
//! al.; Liu & Mattina, see PAPERS.md) treats it as the central weakness
//! of large-tile FP32 Winograd.
//!
//! This module computes a worst-case **amplification factor** γ(m, r)
//! directly from the exact-rational matrices, before any f32 rounding
//! exists:
//!
//! ```text
//! γ(m, r) = max_i Σ_j |Aᵀ_ij| · ‖G_j‖₁ · ‖Bᵀ_j‖₁
//! ```
//!
//! i.e. the worst row-wise 1-norm of the `A·(G ⊗ B)`-style product that
//! maps (input, kernel) perturbations to output perturbations. For unit
//! data this bounds how much a relative elementwise error introduced at
//! the Hadamard stage can grow in the output; it is exactly 1·‖g‖₁ = r
//! for the direct method and grows super-linearly in m for Winograd.
//! Row norms are accumulated exactly in [`Rational`] (no rounding), and
//! only the final per-row combination is done in f64 — the triple
//! products can overflow an i128 denominator for the largest tiles.
//!
//! The factors compose multiplicatively across dimensions and feed two
//! consumers in `wino-conv`:
//!
//! * **tile selection**: a `Purpose`'s accuracy budget caps the
//!   per-dimension γ(m, r)·ε of the tiles `candidate_tiles` offers, and
//! * **runtime sentinels**: a layer-level predicted bound (γ product ×
//!   accumulation length × ε) is the trip threshold for sampled output
//!   verification against the f64 oracle.

use crate::matgen::Transform1D;
use crate::points::PointSchedule;
use crate::rational::Rational;

/// The a-priori conditioning of one `F(m, r)` transform triple: how much
/// the transforms can amplify element-wise rounding error, computed from
/// the exact rational matrices.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Conditioning {
    /// Outputs per tile.
    pub m: usize,
    /// Filter taps.
    pub r: usize,
    /// Tile size `α = m + r − 1`.
    pub alpha: usize,
    /// Worst row-wise amplification factor γ(m, r) ≥ 1 (see module docs).
    pub gamma: f64,
}

impl Conditioning {
    /// Conditioning of an already-generated transform triple.
    pub fn of(t: &Transform1D) -> Conditioning {
        // Exact 1-norm of a rational row.
        let row_norm = |row: &[Rational]| -> f64 {
            let mut s = Rational::ZERO;
            for &v in row {
                s += v.abs();
            }
            s.to_f64()
        };
        let g_norms: Vec<f64> = (0..t.alpha).map(|j| row_norm(t.g.row(j))).collect();
        let b_norms: Vec<f64> = (0..t.alpha).map(|j| row_norm(t.bt.row(j))).collect();
        let mut gamma = 0.0f64;
        for i in 0..t.m {
            let mut acc = 0.0;
            for j in 0..t.alpha {
                acc += t.at.at(i, j).abs().to_f64() * g_norms[j] * b_norms[j];
            }
            gamma = gamma.max(acc);
        }
        Conditioning { m: t.m, r: t.r, alpha: t.alpha, gamma }
    }

    /// Generate the transform for `F(m, r)` under `schedule` and return
    /// its conditioning. Generation is exact and cheap for practical
    /// tiles (α ≤ 25), so callers need not cache.
    pub fn for_schedule(m: usize, r: usize, schedule: PointSchedule) -> Conditioning {
        Conditioning::of(&Transform1D::generate_with_points(
            m,
            r,
            &schedule.points(m + r - 2),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_is_at_least_the_direct_methods_r() {
        // The direct method's amplification for an r-tap correlation is
        // ‖g‖₁-style, i.e. r; Winograd can only be worse.
        for r in [2, 3, 4, 5] {
            for m in 2..=6 {
                let c = Conditioning::for_schedule(m, r, PointSchedule::Mixed);
                assert!(c.gamma >= r as f64, "γ({m},{r}) = {} < r", c.gamma);
            }
        }
    }

    #[test]
    fn gamma_grows_strictly_with_tile_size() {
        // The bound-driven planner demotes tiles in steps of 2, and the
        // practical catalogue is the even tiles — γ must be strictly
        // monotone over m ∈ {2, 4, 6, 8}. (Over *all* integers it is
        // not quite: the mixed schedule's γ(7,5) slightly exceeds
        // γ(8,5), because adding the point pair ±4 for m=8 happens to
        // balance the Vandermonde rows better than m=7's lone +4.)
        for r in [3, 5] {
            for schedule in [PointSchedule::Mixed, PointSchedule::Integer] {
                let mut last = 0.0;
                for m in [2, 4, 6, 8] {
                    let c = Conditioning::for_schedule(m, r, schedule);
                    assert!(
                        c.gamma > last,
                        "γ not strictly monotone at F({m},{r}) {schedule:?}: {} ≤ {last}",
                        c.gamma
                    );
                    last = c.gamma;
                }
            }
        }
    }

    #[test]
    fn mixed_points_condition_better_than_integer_for_large_tiles() {
        // The reason the fractional schedule exists (§4.2.1): integer
        // Vandermonde points blow up much faster.
        for r in [3, 5] {
            let mixed = Conditioning::for_schedule(6, r, PointSchedule::Mixed);
            let integer = Conditioning::for_schedule(6, r, PointSchedule::Integer);
            assert!(
                integer.gamma > 4.0 * mixed.gamma,
                "F(6,{r}): integer γ {} not ≫ mixed γ {}",
                integer.gamma,
                mixed.gamma
            );
        }
    }

    #[test]
    fn conditioning_matches_between_of_and_for_schedule() {
        let t = Transform1D::generate(4, 3);
        let a = Conditioning::of(&t);
        let b = Conditioning::for_schedule(4, 3, PointSchedule::Mixed);
        assert_eq!(a, b);
        assert_eq!(a.alpha, 6);
    }
}
