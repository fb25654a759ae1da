//! # wino-transforms
//!
//! Exact generation of Winograd minimal-filtering transform matrices for
//! arbitrary `F(m, r)` (§2.2, §4.2.1 of the paper), plus the "codelet"
//! compiler that turns them into minimal-operation straight-line programs.
//!
//! This crate plays the role of **Wincnn + the paper's templated codelet
//! generator**: it produces, for any output-tile size `m` and kernel size
//! `r`,
//!
//! * the exact rational matrices `Aᵀ` (inverse transform), `G` (kernel
//!   transform) and `Bᵀ` (input transform),
//! * their `f32` forms,
//! * sparse [`program::MatrixProgram`]s that skip structural zeros and turn
//!   ±1 coefficients into adds, and
//! * [`pairing::PairedProgram`]s implementing the Fig. 2 common-pair
//!   optimisation that shares products between `u + v` / `u - v` row pairs,
//!   and
//! * their straight-line Rust source ([`emit`]), which `wino-conv` compiles
//!   in at build time as the codelets its transform stages run.
//!
//! The construction is validated *exactly* (no floating point) against
//! brute-force correlation for every tile/kernel size in the practical
//! range.
//!
//! ```
//! use wino_transforms::FmrPlan;
//!
//! // F(4, 3): 4 outputs per tile for a 3-tap kernel, tile size 6.
//! let plan = FmrPlan::new(4, 3);
//! assert_eq!(plan.transform.alpha, 6);
//! // 6 multiplications instead of 12 for the direct method:
//! assert_eq!(plan.transform.alpha, plan.m() + plan.r() - 1);
//! ```

pub mod conditioning;
pub mod emit;
pub mod matgen;
pub mod pairing;
pub mod points;
pub mod program;
pub mod rational;

pub use conditioning::Conditioning;
pub use matgen::{direct_correlation, F32Matrix, RatMatrix, Transform1D};
pub use pairing::{PairNode, PairedProgram};
pub use points::{default_points, integer_points, PointSchedule};
pub use program::{MatrixProgram, OpCount, RowProgram, Term};
pub use rational::Rational;

/// Everything needed to apply `F(m, r)` along one dimension: the exact
/// transform plus compiled (and pair-optimised) programs for each of the
/// three matrices.
#[derive(Clone, Debug)]
pub struct FmrPlan {
    /// The exact rational transform triple.
    pub transform: Transform1D,
    /// The interpolation-point schedule the triple was generated with.
    pub schedule: PointSchedule,
    /// Compiled input transform `Bᵀ` (α → α).
    pub bt: PairedProgram,
    /// Compiled kernel transform `G` (r → α).
    pub g: PairedProgram,
    /// Compiled inverse transform `Aᵀ` (α → m).
    pub at: PairedProgram,
}

impl FmrPlan {
    /// Build the plan for `F(m, r)` with the default point schedule.
    pub fn new(m: usize, r: usize) -> FmrPlan {
        Self::with_schedule(m, r, PointSchedule::Mixed)
    }

    /// Build the plan with an explicit interpolation-point schedule (the
    /// accuracy ablation knob).
    pub fn with_schedule(m: usize, r: usize, schedule: PointSchedule) -> FmrPlan {
        let transform =
            Transform1D::generate_with_points(m, r, &schedule.points(m + r - 2));
        let compile =
            |mat: &RatMatrix| PairedProgram::optimize(&MatrixProgram::compile(&mat.to_f32()));
        FmrPlan {
            bt: compile(&transform.bt),
            g: compile(&transform.g),
            at: compile(&transform.at),
            transform,
            schedule,
        }
    }

    pub fn m(&self) -> usize {
        self.transform.m
    }

    pub fn r(&self) -> usize {
        self.transform.r
    }

    /// Tile size `α = m + r - 1`.
    pub fn alpha(&self) -> usize {
        self.transform.alpha
    }

    /// The a-priori conditioning (worst-case error amplification) of
    /// this transform triple — see [`Conditioning`].
    pub fn conditioning(&self) -> Conditioning {
        Conditioning::of(&self.transform)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_pipeline_computes_correlation_in_f32() {
        // End-to-end through the compiled programs, checked against direct
        // correlation computed in f64.
        for (m, r) in [(2, 3), (4, 3), (6, 3), (2, 2), (4, 4), (3, 5)] {
            let plan = FmrPlan::new(m, r);
            let alpha = plan.alpha();
            let d: Vec<f32> = (0..alpha).map(|i| ((i * 13 % 7) as f32 - 3.0) * 0.11).collect();
            let g: Vec<f32> = (0..r).map(|i| ((i * 5 % 3) as f32 - 1.0) * 0.4).collect();

            let mut dt = vec![0.0f32; alpha];
            let mut gt = vec![0.0f32; alpha];
            plan.bt.apply(&d, &mut dt);
            plan.g.apply(&g, &mut gt);
            let prod: Vec<f32> = dt.iter().zip(&gt).map(|(a, b)| a * b).collect();
            let mut y = vec![0.0f32; m];
            plan.at.apply(&prod, &mut y);

            for s in 0..m {
                let want: f64 =
                    (0..r).map(|k| d[s + k] as f64 * g[k] as f64).sum();
                assert!(
                    (y[s] as f64 - want).abs() < 1e-4 * want.abs().max(1.0),
                    "F({m},{r}) output {s}: {} vs {}",
                    y[s],
                    want
                );
            }
        }
    }

    #[test]
    fn plan_accessors() {
        let p = FmrPlan::new(6, 3);
        assert_eq!(p.m(), 6);
        assert_eq!(p.r(), 3);
        assert_eq!(p.alpha(), 8);
        assert_eq!(p.bt.n_in, 8);
        assert_eq!(p.bt.n_out, 8);
        assert_eq!(p.g.n_in, 3);
        assert_eq!(p.g.n_out, 8);
        assert_eq!(p.at.n_in, 8);
        assert_eq!(p.at.n_out, 6);
    }
}
