//! Empirical block-size selection (§4.3.2).
//!
//! "Being so delicately inter-dependent, we take the strategy of FFTW and
//! determine the values of n_blk, C_blk and C'_blk … empirically for each
//! particular layer shape." — the tuner times the real batched GEMM for
//! candidate shapes (ranked by the Eq. 11 model so the search stays small)
//! and records the winner in the [`crate::Wisdom`] store.

use std::time::Instant;

use wino_sched::Executor;
use wino_tensor::BlockedMatrices;

use crate::blocked::batched_gemm_parallel;
use crate::model::{candidate_shapes, default_shape, BlockShape};
use crate::wisdom::Wisdom;

/// Search configuration.
#[derive(Clone, Copy, Debug)]
pub struct TuneConfig {
    /// Timed repetitions per candidate (best-of).
    pub reps: usize,
    /// Candidates tried (top of the model ranking).
    pub max_candidates: usize,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig { reps: 3, max_candidates: 12 }
    }
}

/// Result of a tuning run.
#[derive(Clone, Copy, Debug)]
pub struct TuneResult {
    pub shape: BlockShape,
    /// Best observed throughput for the winning shape.
    pub gflops: f64,
}

/// Time one shape: seconds for the full batched product (best of `reps`).
pub fn time_shape(
    t_count: usize,
    rows: usize,
    c: usize,
    cp: usize,
    shape: BlockShape,
    exec: &dyn Executor,
    reps: usize,
) -> f64 {
    let mut u = BlockedMatrices::new(t_count, rows, c, shape.n_blk, shape.c_blk);
    let mut v = BlockedMatrices::new(t_count, c, cp, shape.c_blk, shape.cp_blk);
    let mut x = BlockedMatrices::new(t_count, rows, cp, shape.n_blk, shape.cp_blk);
    // Deterministic non-trivial contents.
    for (i, f) in u.as_mut_slice().iter_mut().enumerate() {
        *f = ((i * 2654435761) >> 16 & 0xff) as f32 / 255.0 - 0.5;
    }
    for (i, f) in v.as_mut_slice().iter_mut().enumerate() {
        *f = ((i * 0x9E3779B9) >> 16 & 0xff) as f32 / 255.0 - 0.5;
    }
    // Warm-up. Timing a degraded pool would be meaningless, so execution
    // failures abort the tuning run.
    batched_gemm_parallel(&u, &v, &mut x, exec).expect("tuning GEMM failed");
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        batched_gemm_parallel(&u, &v, &mut x, exec).expect("tuning GEMM failed");
        best = best.min(t0.elapsed().as_secs_f64());
    }
    std::hint::black_box(x.as_slice()[0]);
    best
}

fn problem_flops(t_count: usize, rows: usize, c: usize, cp: usize) -> f64 {
    2.0 * t_count as f64 * rows as f64 * c as f64 * cp as f64
}

/// Pick the fastest blocking for a `T × (rows × c · c × cp)` batched
/// product on `exec`.
pub fn autotune(
    t_count: usize,
    rows: usize,
    c: usize,
    cp: usize,
    exec: &dyn Executor,
    cfg: TuneConfig,
) -> TuneResult {
    let mut cands = candidate_shapes(c, cp, rows);
    // Rank by the model (steady-state ratio), then by padding waste.
    cands.sort_by(|a, b| {
        b.compute_to_memory_ratio(true)
            .partial_cmp(&a.compute_to_memory_ratio(true))
            .unwrap()
            .then(a.row_padding(rows).cmp(&b.row_padding(rows)))
    });
    // Keep shape diversity: skip near-duplicate (c_blk, cp_blk) pairs with
    // adjacent n_blk so the budget covers distinct block geometries.
    let mut pruned: Vec<BlockShape> = Vec::new();
    for s in cands {
        if pruned.len() >= cfg.max_candidates {
            break;
        }
        if pruned
            .iter()
            .any(|p| p.c_blk == s.c_blk && p.cp_blk == s.cp_blk && p.n_blk.abs_diff(s.n_blk) < 4)
        {
            continue;
        }
        pruned.push(s);
    }
    let fallback = default_shape(c, cp, rows);
    if !pruned.contains(&fallback) {
        pruned.push(fallback);
    }

    let flops = problem_flops(t_count, rows, c, cp);
    let mut best = TuneResult { shape: fallback, gflops: 0.0 };
    for shape in pruned {
        let secs = time_shape(t_count, rows, c, cp, shape, exec, cfg.reps);
        let gflops = flops / secs / 1e9;
        if gflops > best.gflops {
            best = TuneResult { shape, gflops };
        }
    }
    best
}

/// [`autotune`] with wisdom caching: returns the remembered shape when the
/// problem was tuned before, otherwise tunes and records. A remembered
/// shape that does not divide `c` / `cp` (a stale or hand-edited file) is
/// a miss: the problem is re-tuned and the entry overwritten.
pub fn autotune_with_wisdom(
    wisdom: &Wisdom,
    t_count: usize,
    rows: usize,
    c: usize,
    cp: usize,
    exec: &dyn Executor,
    cfg: TuneConfig,
) -> BlockShape {
    let key = Wisdom::key(rows, c, cp, t_count, exec.threads());
    if let Some(shape) = wisdom.get(&key) {
        if c.is_multiple_of(shape.c_blk) && cp.is_multiple_of(shape.cp_blk) {
            return shape;
        }
    }
    let result = autotune(t_count, rows, c, cp, exec, cfg);
    wisdom.insert(key, result.shape);
    result.shape
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_sched::SerialExecutor;

    #[test]
    fn autotune_returns_legal_shape() {
        let cfg = TuneConfig { reps: 1, max_candidates: 4 };
        let r = autotune(4, 64, 64, 64, &SerialExecutor, cfg);
        assert!(r.shape.n_blk >= 1 && r.shape.n_blk <= 30);
        assert_eq!(64 % r.shape.c_blk, 0);
        assert_eq!(64 % r.shape.cp_blk, 0);
        assert!(r.gflops > 0.0);
    }

    #[test]
    fn wisdom_caches_result() {
        let w = Wisdom::new();
        let cfg = TuneConfig { reps: 1, max_candidates: 2 };
        let s1 = autotune_with_wisdom(&w, 2, 32, 32, 32, &SerialExecutor, cfg);
        assert_eq!(w.len(), 1);
        let s2 = autotune_with_wisdom(&w, 2, 32, 32, 32, &SerialExecutor, cfg);
        assert_eq!(s1, s2);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn stale_hit_that_does_not_divide_the_channels_is_retuned() {
        // A shape remembered for another layer (or edited by hand) under
        // this key: 64 divides neither C = 32 nor C' = 32.
        let w = Wisdom::new();
        let key = Wisdom::key(32, 32, 32, 2, 1);
        w.insert(key.clone(), BlockShape { n_blk: 8, c_blk: 64, cp_blk: 64 });
        let cfg = TuneConfig { reps: 1, max_candidates: 2 };
        let s = autotune_with_wisdom(&w, 2, 32, 32, 32, &SerialExecutor, cfg);
        assert_eq!((32 % s.c_blk, 32 % s.cp_blk), (0, 0));
        assert_eq!(w.get(&key), Some(s), "the stale entry is overwritten");
    }

    #[test]
    fn time_shape_is_positive() {
        let s = BlockShape { n_blk: 8, c_blk: 16, cp_blk: 16 };
        let secs = time_shape(1, 16, 16, 16, s, &SerialExecutor, 1);
        assert!(secs > 0.0 && secs.is_finite());
    }
}
