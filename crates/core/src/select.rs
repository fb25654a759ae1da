//! Automatic `F(m, r)` tile-size selection and plan-time fallback.
//!
//! §5.1 shows that the best tile size depends on the layer: large `m`
//! saves multiplications but pads the output grid (ceil-division
//! overhang) and grows the transform cost quadratically. The paper picks
//! `m` per layer empirically (the Fig. 5 sweep, which `fig5` runs); this
//! module enumerates the candidate tile vectors such a sweep may try
//! ([`candidate_tiles`]). Numerical limits from Table 3 (f32: `m ≤ 6` per
//! dimension for training, `m ≤ 8` for inference) bound the search space.
//!
//! The module also hosts the one degradation table (DESIGN.md §5):
//! `degrade` maps a (candidate, cause) pair to the next candidate — every
//! row under [`FallbackPolicy::default`], none but the sentinel's under
//! [`FallbackPolicy::strict`] — and `plan_walk` is the plan-time walk over
//! it that [`plan_with_fallback`] and [`crate::dispatch::plan_dispatch`]
//! share. The run-time walk lives in [`crate::net`], which owns layer
//! execution.

use wino_tensor::ConvShape;
use wino_transforms::{Conditioning, PointSchedule};

use crate::plan::{AccuracyBudget, ConvOptions, PlanError, Stage2Backend, WinogradLayer};
use crate::sentinel::SentinelConfig;

/// How the execution layer meets a failure: with the next row of the
/// degradation table, or with the typed error. One switch, two presets —
/// the only two values any caller runs:
///
/// * [`FallbackPolicy::default`] degrades: a JIT plan failure retries on
///   [`Stage2Backend::Mono`], a refused allocation re-tiles, a layer with
///   no Winograd plan runs via im2col, and every layer output is guarded
///   for NaN/Inf with an im2col rescue.
/// * [`FallbackPolicy::strict`] surfaces every failure as its typed error
///   (the behaviour of the plain [`WinogradLayer::new`] /
///   [`crate::Network::new`] APIs).
///
/// The accuracy sentinel is orthogonal to the switch
/// ([`FallbackPolicy::with_sentinel`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FallbackPolicy {
    /// Walk the degradation table (`default()`) or surface the failure
    /// (`strict()`).
    pub degrade: bool,
    /// Accuracy-sentinel sampling: re-verify a seeded random sample of
    /// output tiles against the f64 oracle after each layer forward. A
    /// trip demotes the tile once, then rescues through im2col — under
    /// either preset. Disabled (`samples == 0`) by default — the spot
    /// check costs an f64 direct convolution per sampled tile.
    pub sentinel: SentinelConfig,
}

impl Default for FallbackPolicy {
    /// Every degradation on, sentinels off.
    fn default() -> Self {
        FallbackPolicy { degrade: true, sentinel: SentinelConfig::off() }
    }
}

impl FallbackPolicy {
    /// No degradation: every failure is a hard error.
    pub fn strict() -> Self {
        FallbackPolicy { degrade: false, sentinel: SentinelConfig::off() }
    }

    /// Default degradations plus sentinel sampling of `samples` tiles per
    /// layer under `seed`.
    pub fn with_sentinel(samples: u32, seed: u64) -> Self {
        FallbackPolicy { sentinel: SentinelConfig::sampled(samples, seed), ..Default::default() }
    }
}

/// One row of the degradation table: what a layer runs on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Candidate {
    /// A Winograd route — direct or grouped, as the geometry dictates,
    /// subsampled under a stride — at tile `m` on stage-2 engine `stage2`. `retile` counts
    /// the re-tile steps taken from the planned tile (grown for memory:
    /// positive; shrunk for accuracy: negative); a walk only ever moves
    /// away from zero, which is what keeps it from revisiting a tile.
    Winograd { m: Vec<usize>, stage2: Stage2Backend, retile: i8 },
    /// The geometry-aware im2col baseline: the last row of every column.
    Im2col,
}

/// Why the current candidate cannot stand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Cause {
    /// JIT code generation failed ([`PlanError::Jit`]).
    Jit,
    /// Any other plan failure.
    Plan,
    /// The allocator refused a buffer (a run-time cause only).
    Memory,
    /// The numeric guard found NaN/Inf in the output.
    NonFinite,
    /// A sampled output tile exceeded its a-priori error bound.
    Sentinel,
    /// The serve breaker stands this many rungs below the configured
    /// engine (asked of the *configured* candidate, not walked).
    BreakerRung(u8),
}

impl From<&PlanError> for Cause {
    fn from(e: &PlanError) -> Cause {
        match e {
            PlanError::Jit { .. } => Cause::Jit,
            _ => Cause::Plan,
        }
    }
}

/// The accuracy ladder's step for one dimension: `m − 2`, floor 2.
fn shrink_dim(m: usize) -> usize {
    if m <= 2 { m } else { (m - 2).max(2) }
}

/// The memory ladder's step: `m + 2` in every dimension that stays within
/// [`SEARCH_MAX_M`] and the output extent. Growing is the memory-cheap
/// direction — the transformed-data scratch scales with
/// `∏((m_d+r_d−1)/m_d)`, which shrinks as the tile grows.
fn grow_tile(m: &[usize], out_dims: &[usize]) -> Vec<usize> {
    let cap = |d: usize| SEARCH_MAX_M.min(out_dims[d]);
    m.iter().enumerate().map(|(d, &v)| if v + 2 <= cap(d) { v + 2 } else { v }).collect()
}

/// The degradation table (DESIGN.md §5): the candidate that replaces
/// `cur` when `cause` rules it out, or `None` when `policy` allows no
/// further row and the failure must surface. Pure; every ladder in the
/// workspace — plan-time fallback, run-time rescue, the serve breaker's
/// rungs — is a walk over this function.
pub(crate) fn degrade(
    cur: &Candidate,
    cause: Cause,
    out_dims: &[usize],
    policy: &FallbackPolicy,
) -> Option<Candidate> {
    let Candidate::Winograd { m, stage2, retile } = cur else {
        return None; // im2col is the bottom of every column
    };
    let at = |m: Vec<usize>, stage2, step: i8| {
        Some(Candidate::Winograd { m, stage2, retile: retile + step })
    };
    match cause {
        // The sentinel rows stand under either preset: `samples` alone
        // governs them.
        Cause::Sentinel if policy.sentinel.samples == 0 => None,
        Cause::Sentinel => {
            let shrunk: Vec<usize> = m.iter().map(|&v| shrink_dim(v)).collect();
            if *retile == 0 && shrunk != *m {
                at(shrunk, *stage2, -1)
            } else {
                Some(Candidate::Im2col)
            }
        }
        _ if !policy.degrade => None,
        Cause::Jit | Cause::BreakerRung(1) if *stage2 == Stage2Backend::Jit => {
            at(m.clone(), Stage2Backend::Mono, 0)
        }
        Cause::BreakerRung(0 | 1) => None,
        Cause::Memory => {
            let grown = grow_tile(m, out_dims);
            if *retile >= 0 && grown != *m {
                at(grown, *stage2, 1)
            } else {
                Some(Candidate::Im2col)
            }
        }
        Cause::Jit | Cause::Plan | Cause::NonFinite | Cause::BreakerRung(_) => {
            Some(Candidate::Im2col)
        }
    }
}

/// The plan-time walk over [`degrade`]: `build` the `start` candidate and,
/// on a plan error, whichever candidate the table offers next. Returns
/// what was built and the first error the walk absorbed (`None` = `start`
/// planned cleanly). Geometry errors
/// ([`PlanError::Shape`]) always fail: no candidate can execute an
/// ill-formed layer.
pub(crate) fn plan_walk<T>(
    start: Candidate,
    out_dims: &[usize],
    policy: &FallbackPolicy,
    mut build: impl FnMut(&Candidate) -> Result<T, PlanError>,
) -> Result<(T, Option<PlanError>), PlanError> {
    let (mut cand, mut first) = (start, None);
    loop {
        match build(&cand) {
            Ok(built) => return Ok((built, first)),
            Err(e @ PlanError::Shape(_)) => return Err(e),
            Err(e) => {
                cand = degrade(&cand, Cause::from(&e), out_dims, policy).ok_or(e)?;
                first.get_or_insert(e);
            }
        }
    }
}

/// Plan a layer on the Winograd rows of the degradation table.
///
/// `Ok((plan, Some(e)))` means the requested plan failed with `e` and the
/// returned plan carries a downgrade: [`Stage2Backend::Mono`] after a JIT
/// failure under [`FallbackPolicy::default`]. The walk stops before the
/// im2col row: any other failure (or a retry that also fails) is returned
/// as `Err` — the caller decides whether im2col absorbs it.
pub fn plan_with_fallback(
    shape: &ConvShape,
    m: &[usize],
    opts: ConvOptions,
    policy: &FallbackPolicy,
) -> Result<(WinogradLayer, Option<PlanError>), PlanError> {
    let start = Candidate::Winograd { m: m.to_vec(), stage2: opts.stage2, retile: 0 };
    let mut last = None;
    plan_walk(start, &shape.out_dims(), policy, |cand| match cand {
        Candidate::Winograd { m, stage2, .. } => {
            let mut opts = opts;
            opts.stage2 = *stage2;
            let plan = WinogradLayer::new(shape.clone(), m, opts);
            last = plan.as_ref().err().copied();
            plan
        }
        // The im2col row is not built: the failure that led to it surfaces.
        Candidate::Im2col => Err(last.expect("im2col follows a failed Winograd row")),
    })
}

/// What the selected plan will be used for — a preset over
/// [`AccuracyBudget`]s. The largest admissible tile per dimension is no
/// longer a hard-coded table: it is *derived* from the exact transform
/// conditioning (`γ(m, r) · ε ≤ budget`, see
/// [`wino_transforms::Conditioning`]), which reproduces Table 3's f32
/// limits (`m ≤ 6` for training, `m ≤ 8` for inference, at `r = 3`) and
/// generalises them to every kernel size instead of assuming 3×3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Purpose {
    /// Error feeds back through gradients, so amplification must stay
    /// near rounding level: budget 1e-5 (admits `γ·ε` up to 1e-5, i.e.
    /// `m ≤ 6` for `r = 3` under the mixed point schedule).
    Training,
    /// A forward-only pass tolerates an order of magnitude more: budget
    /// 2e-4 (`m ≤ 8` for `r = 3`).
    Inference,
}

/// The exact amplification factor of the `F(m, r)` the engine would plan.
fn gamma(m: usize, r: usize) -> f64 {
    Conditioning::for_schedule(m, r, PointSchedule::Mixed).gamma
}

/// The largest tile the search may try per dimension, whatever the
/// budget admits: the edge of the generated-codelet table, i.e. of what
/// plans at all (beyond `m = 8` the f32 transforms are useless even for
/// inference, Table 3).
pub(crate) const SEARCH_MAX_M: usize = crate::codelet::TABLE_MAX_M;

impl Purpose {
    /// The accuracy budget this preset stands for.
    pub fn budget(self) -> AccuracyBudget {
        match self {
            Purpose::Training => AccuracyBudget::new(1e-5),
            Purpose::Inference => AccuracyBudget::new(2e-4),
        }
    }

    /// Largest `m ≤` [`SEARCH_MAX_M`] whose `F(m, r)` conditioning fits
    /// the budget (0 if even `m = 2` does not fit).
    fn max_m(self, r: usize) -> usize {
        let budget = self.budget();
        (2..=SEARCH_MAX_M)
            .rev()
            .find(|&m| budget.admits_gamma(gamma(m, r)))
            .unwrap_or(0)
    }
}

/// Candidate tile vectors for a layer: uniform tiles `2..=8` per
/// dimension, clipped so no dimension's tile exceeds its output extent
/// (larger would be pure padding) nor the purpose's budget-derived
/// conditioning cap for that dimension's kernel size.
pub fn candidate_tiles(shape: &ConvShape, purpose: Purpose) -> Vec<Vec<usize>> {
    let out = shape.out_dims();
    let rank = shape.rank();
    let caps: Vec<usize> = shape.kernel_dims.iter().map(|&r| purpose.max_m(r)).collect();
    let mut cands = Vec::new();
    for m in 2..=SEARCH_MAX_M {
        let tile: Vec<usize> = (0..rank).map(|d| m.min(out[d]).min(caps[d])).collect();
        if tile.contains(&0) {
            // A conditioning cap of 0: no tile fits the budget at all.
            continue;
        }
        if !cands.contains(&tile) {
            cands.push(tile);
        }
    }
    cands
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_respect_purpose_and_extent() {
        // The budget-derived caps must reproduce Table 3's hard-coded
        // limits for r = 3: training m ≤ 6, inference m ≤ 8.
        let s = ConvShape::new(1, 16, 16, &[20, 20], &[3, 3], &[1, 1]).unwrap();
        let train = candidate_tiles(&s, Purpose::Training);
        assert!(train.iter().all(|m| m.iter().all(|&x| x <= 6)));
        assert_eq!(train.len(), 5); // m = 2..=6
        let infer = candidate_tiles(&s, Purpose::Inference);
        assert_eq!(infer.len(), 7); // m = 2..=8

        // Tiny output: tiles clipped to the output extent, deduplicated.
        let tiny = ConvShape::new(1, 16, 16, &[5, 5], &[3, 3], &[0, 0]).unwrap();
        let c = candidate_tiles(&tiny, Purpose::Inference);
        assert!(c.iter().all(|m| m.iter().all(|&x| x <= 3)));
        assert_eq!(c.len(), 2); // [2,2] and [3,3]
    }

    /// Every tile the search can propose, for every kernel width of the
    /// table and both purposes, plans — i.e. has generated codelets —
    /// including the extent-clipped `m = 1` of a one-deep dimension and
    /// mixed per-dimension sizes; and neither re-tiling ladder steps
    /// outside the table.
    #[test]
    fn every_candidate_and_every_ladder_step_stays_inside_the_table() {
        use crate::codelet::{in_table, resolve, TABLE_MAX_R};
        let opts = ConvOptions::default();
        let shapes: [&[usize]; 5] = [&[40], &[20, 20], &[5, 5], &[1, 9, 30], &[3, 8, 8]];
        let mut seen = std::collections::BTreeSet::new();
        for r in 1..=TABLE_MAX_R {
            for img in shapes {
                let rank = img.len();
                let s = ConvShape::new(1, 16, 16, img, &vec![r; rank], &vec![r / 2; rank]).unwrap();
                for purpose in [Purpose::Training, Purpose::Inference] {
                    let tiles = candidate_tiles(&s, purpose);
                    assert!(!tiles.is_empty(), "r={r} {img:?} {purpose:?}");
                    for m in tiles {
                        let layer = WinogradLayer::new(s.clone(), &m, opts)
                            .unwrap_or_else(|e| panic!("r={r} {img:?}: candidate {m:?}: {e}"));
                        seen.extend(layer.plans.iter().map(resolve));
                    }
                }
            }
        }
        // The sweep reached every tile size at r = 3 and the table's far
        // corner (inference admits `m = 8` even at r = 5).
        for m in 1..=SEARCH_MAX_M {
            assert!(seen.contains(&(m, 3)), "F({m}, 3) never proposed");
        }
        assert!(seen.contains(&(SEARCH_MAX_M, TABLE_MAX_R)), "{seen:?}");

        for m in 1..=SEARCH_MAX_M {
            assert!((1..=m).contains(&shrink_dim(m)), "shrink_dim({m})");
            for g in grow_tile(&[m, m], &[100, 3]) {
                assert!(g >= m.min(3) && in_table(g, 1), "grow_tile([{m}, {m}]) -> {g}");
            }
        }
    }

    /// The edge of what plans is the edge of the table: `F(8, 5)` plans,
    /// one step past either side is `BadTileSize`, whatever the policy's
    /// Winograd rows offer.
    #[test]
    fn plans_end_where_the_table_ends() {
        let opts = ConvOptions::default();
        let plan = |img: &[usize], ker: &[usize], m: &[usize]| {
            let s = ConvShape::new(1, 16, 16, img, ker, &vec![0; img.len()]).unwrap();
            WinogradLayer::new(s, m, opts).map(|l| l.grid.tile_dims.clone())
        };
        assert_eq!(plan(&[20, 20], &[5, 5], &[8, 8]).unwrap(), vec![12, 12]);
        assert_eq!(plan(&[20, 20], &[3, 2], &[4, 3]).unwrap(), vec![6, 4]);
        assert_eq!(plan(&[20, 20], &[3, 3], &[9, 4]).unwrap_err(), PlanError::BadTileSize { dim: 0, m: 9 });
        assert_eq!(plan(&[20, 20], &[3, 6], &[4, 4]).unwrap_err(), PlanError::BadTileSize { dim: 1, m: 4 });
    }

    #[test]
    fn budget_caps_follow_conditioning_not_a_table() {
        // r = 5 transforms are much worse conditioned: the training
        // budget that allows m = 6 at r = 3 only admits m = 3 at r = 5
        // (γ(4,5)·ε ≈ 1.03e-5 > 1e-5). A hard-coded "m ≤ 6" table would
        // get this wrong.
        let s5 = ConvShape::new(1, 16, 16, &[20, 20], &[5, 5], &[2, 2]).unwrap();
        let train5 = candidate_tiles(&s5, Purpose::Training);
        assert!(
            train5.iter().all(|m| m.iter().all(|&x| x <= 3)),
            "r=5 training candidates exceed the conditioning cap: {train5:?}"
        );
        assert!(!train5.is_empty());
    }

    #[test]
    fn tight_budget_rejects_m8_and_plans_m4() {
        // γ(4,3)·ε ≈ 5.7e-6 fits a 6e-6 budget; γ(6,3)·ε ≈ 8.1e-6 does
        // not — so the planner rejects F(8×8, 3×3) and plans F(4×4, 3×3).
        let s = ConvShape::new(1, 16, 16, &[20, 20], &[3, 3], &[1, 1]).unwrap();
        let opts = ConvOptions::default();
        let tight = AccuracyBudget::new(6e-6);
        let tight_opts = ConvOptions { budget: Some(tight), ..opts };
        assert!(matches!(
            WinogradLayer::new(s.clone(), &[8, 8], tight_opts),
            Err(PlanError::AccuracyBudget { dim: 0, m: 8 })
        ));
        assert!(WinogradLayer::new(s, &[4, 4], tight_opts).is_ok());
    }

    #[test]
    fn policy_defaults_and_strict() {
        // One switch; the sentinel rides beside it and is off in both presets.
        let (p, s) = (FallbackPolicy::default(), FallbackPolicy::strict());
        assert!(p.degrade && !s.degrade);
        assert_eq!((p.sentinel, s.sentinel), (SentinelConfig::off(), SentinelConfig::off()));
        let sampled = FallbackPolicy::with_sentinel(4, 1);
        assert_eq!(sampled, FallbackPolicy { sentinel: SentinelConfig::sampled(4, 1), ..p });
    }

    const CAUSES: [Cause; 8] = [
        Cause::Jit,
        Cause::Plan,
        Cause::Memory,
        Cause::NonFinite,
        Cause::Sentinel,
        Cause::BreakerRung(0),
        Cause::BreakerRung(1),
        Cause::BreakerRung(2),
    ];

    fn wino(m: &[usize], stage2: Stage2Backend, retile: i8) -> Candidate {
        Candidate::Winograd { m: m.to_vec(), stage2, retile }
    }

    /// Every candidate the table can hold for a 2-D layer with a
    /// `cap`-wide output: tiles 2..=8 × both engines × planned / grown /
    /// shrunk, plus im2col.
    fn all_candidates() -> Vec<Candidate> {
        let mut all = vec![Candidate::Im2col];
        for m in 2..=8 {
            for stage2 in [Stage2Backend::Jit, Stage2Backend::Mono] {
                for retile in [-1, 0, 1, 2] {
                    all.push(wino(&[m, m], stage2, retile));
                }
            }
        }
        all
    }

    #[test]
    fn degrade_strict_policy_never_offers_a_candidate() {
        let strict = FallbackPolicy::strict();
        for cand in all_candidates() {
            for cause in CAUSES {
                assert_eq!(degrade(&cand, cause, &[20, 20], &strict), None, "{cand:?} {cause:?}");
            }
        }
    }

    #[test]
    fn degrade_table_keeps_the_pinned_orders() {
        use Stage2Backend::{Jit, Mono};
        let out = [20, 5];
        let all = FallbackPolicy::with_sentinel(4, 1);
        let step = |c: &Candidate, cause| degrade(c, cause, &out, &all);

        // im2col is the bottom of every column.
        for cause in CAUSES {
            assert_eq!(step(&Candidate::Im2col, cause), None, "{cause:?}");
        }
        // JIT → Mono at the same tile; a Mono plan that fails has only im2col.
        assert_eq!(step(&wino(&[6, 4], Jit, 0), Cause::Jit), Some(wino(&[6, 4], Mono, 0)));
        assert_eq!(step(&wino(&[6, 4], Mono, 0), Cause::Jit), Some(Candidate::Im2col));
        assert_eq!(step(&wino(&[6, 4], Jit, 0), Cause::Plan), Some(Candidate::Im2col));
        // Memory: m + 2 per dimension, capped at min(8, out_d), then im2col.
        assert_eq!(step(&wino(&[2, 2], Mono, 0), Cause::Memory), Some(wino(&[4, 4], Mono, 1)));
        assert_eq!(step(&wino(&[4, 4], Mono, 1), Cause::Memory), Some(wino(&[6, 4], Mono, 2)));
        assert_eq!(step(&wino(&[6, 4], Mono, 2), Cause::Memory), Some(wino(&[8, 4], Mono, 3)));
        assert_eq!(step(&wino(&[8, 4], Mono, 3), Cause::Memory), Some(Candidate::Im2col));
        // Sentinel: m − 2 once with floor 2, then im2col.
        assert_eq!(step(&wino(&[6, 3], Jit, 0), Cause::Sentinel), Some(wino(&[4, 2], Jit, -1)));
        assert_eq!(step(&wino(&[4, 2], Jit, -1), Cause::Sentinel), Some(Candidate::Im2col));
        assert_eq!(step(&wino(&[2, 2], Mono, 0), Cause::Sentinel), Some(Candidate::Im2col));
        // Non-finite output: im2col straight away.
        assert_eq!(step(&wino(&[4, 4], Mono, 0), Cause::NonFinite), Some(Candidate::Im2col));
        // The two re-tile directions never mix.
        assert_eq!(step(&wino(&[4, 2], Mono, -1), Cause::Memory), Some(Candidate::Im2col));
        assert_eq!(step(&wino(&[4, 4], Mono, 1), Cause::Sentinel), Some(Candidate::Im2col));
        // Breaker rungs, asked of the configured candidate.
        assert_eq!(step(&wino(&[4, 4], Jit, 0), Cause::BreakerRung(0)), None);
        let mono = wino(&[4, 4], Mono, 0);
        assert_eq!(step(&wino(&[4, 4], Jit, 0), Cause::BreakerRung(1)), Some(mono));
        assert_eq!(step(&wino(&[4, 4], Mono, 0), Cause::BreakerRung(1)), None);
        assert_eq!(step(&wino(&[4, 4], Jit, 0), Cause::BreakerRung(2)), Some(Candidate::Im2col));

    }

    /// `degrade` at `out = [20, 5]` for every candidate of
    /// [`all_candidates`] (rows, in order) × every cause of [`CAUSES`]
    /// (columns, in order) under `with_sentinel(4, 1)` — generated at
    /// 49e6796, when the policy still had five per-row flags and a
    /// sentinel demotion switch. `-` none, `i` im2col, `{m0}x{m1}{J|M}{retile:+}` a
    /// Winograd row.
    const PARENT_TABLE: &str = "\
i       -      -      -      -      -      -      -      -
2x2J-1  2x2M-1 i      i      i      i      -      2x2M-1 i
2x2J+0  2x2M+0 i      4x4J+1 i      i      -      2x2M+0 i
2x2J+1  2x2M+1 i      4x4J+2 i      i      -      2x2M+1 i
2x2J+2  2x2M+2 i      4x4J+3 i      i      -      2x2M+2 i
2x2M-1  i      i      i      i      i      -      -      i
2x2M+0  i      i      4x4M+1 i      i      -      -      i
2x2M+1  i      i      4x4M+2 i      i      -      -      i
2x2M+2  i      i      4x4M+3 i      i      -      -      i
3x3J-1  3x3M-1 i      i      i      i      -      3x3M-1 i
3x3J+0  3x3M+0 i      5x5J+1 i      2x2J-1 -      3x3M+0 i
3x3J+1  3x3M+1 i      5x5J+2 i      i      -      3x3M+1 i
3x3J+2  3x3M+2 i      5x5J+3 i      i      -      3x3M+2 i
3x3M-1  i      i      i      i      i      -      -      i
3x3M+0  i      i      5x5M+1 i      2x2M-1 -      -      i
3x3M+1  i      i      5x5M+2 i      i      -      -      i
3x3M+2  i      i      5x5M+3 i      i      -      -      i
4x4J-1  4x4M-1 i      i      i      i      -      4x4M-1 i
4x4J+0  4x4M+0 i      6x4J+1 i      2x2J-1 -      4x4M+0 i
4x4J+1  4x4M+1 i      6x4J+2 i      i      -      4x4M+1 i
4x4J+2  4x4M+2 i      6x4J+3 i      i      -      4x4M+2 i
4x4M-1  i      i      i      i      i      -      -      i
4x4M+0  i      i      6x4M+1 i      2x2M-1 -      -      i
4x4M+1  i      i      6x4M+2 i      i      -      -      i
4x4M+2  i      i      6x4M+3 i      i      -      -      i
5x5J-1  5x5M-1 i      i      i      i      -      5x5M-1 i
5x5J+0  5x5M+0 i      7x5J+1 i      3x3J-1 -      5x5M+0 i
5x5J+1  5x5M+1 i      7x5J+2 i      i      -      5x5M+1 i
5x5J+2  5x5M+2 i      7x5J+3 i      i      -      5x5M+2 i
5x5M-1  i      i      i      i      i      -      -      i
5x5M+0  i      i      7x5M+1 i      3x3M-1 -      -      i
5x5M+1  i      i      7x5M+2 i      i      -      -      i
5x5M+2  i      i      7x5M+3 i      i      -      -      i
6x6J-1  6x6M-1 i      i      i      i      -      6x6M-1 i
6x6J+0  6x6M+0 i      8x6J+1 i      4x4J-1 -      6x6M+0 i
6x6J+1  6x6M+1 i      8x6J+2 i      i      -      6x6M+1 i
6x6J+2  6x6M+2 i      8x6J+3 i      i      -      6x6M+2 i
6x6M-1  i      i      i      i      i      -      -      i
6x6M+0  i      i      8x6M+1 i      4x4M-1 -      -      i
6x6M+1  i      i      8x6M+2 i      i      -      -      i
6x6M+2  i      i      8x6M+3 i      i      -      -      i
7x7J-1  7x7M-1 i      i      i      i      -      7x7M-1 i
7x7J+0  7x7M+0 i      i      i      5x5J-1 -      7x7M+0 i
7x7J+1  7x7M+1 i      i      i      i      -      7x7M+1 i
7x7J+2  7x7M+2 i      i      i      i      -      7x7M+2 i
7x7M-1  i      i      i      i      i      -      -      i
7x7M+0  i      i      i      i      5x5M-1 -      -      i
7x7M+1  i      i      i      i      i      -      -      i
7x7M+2  i      i      i      i      i      -      -      i
8x8J-1  8x8M-1 i      i      i      i      -      8x8M-1 i
8x8J+0  8x8M+0 i      i      i      6x6J-1 -      8x8M+0 i
8x8J+1  8x8M+1 i      i      i      i      -      8x8M+1 i
8x8J+2  8x8M+2 i      i      i      i      -      8x8M+2 i
8x8M-1  i      i      i      i      i      -      -      i
8x8M+0  i      i      i      i      6x6M-1 -      -      i
8x8M+1  i      i      i      i      i      -      -      i
8x8M+2  i      i      i      i      i      -      -      i";

    fn cell(c: &Option<Candidate>) -> String {
        match c {
            None => "-".into(),
            Some(Candidate::Im2col) => "i".into(),
            Some(Candidate::Winograd { m, stage2, retile }) => {
                let engine = if *stage2 == Stage2Backend::Jit { "J" } else { "M" };
                format!("{}x{}{engine}{retile:+}", m[0], m[1])
            }
        }
    }

    /// The parent's answer, cell for cell, under every preset — and under
    /// `strict()` with sampling on, where only the sentinel column walks.
    #[test]
    fn degrade_table_is_the_parents_under_every_preset() {
        let sampled_strict =
            FallbackPolicy { sentinel: SentinelConfig::sampled(4, 1), ..FallbackPolicy::strict() };
        // (preset, non-sentinel columns stand, sentinel column stands)
        let presets = [
            (FallbackPolicy::default(), true, false),
            (FallbackPolicy::strict(), false, false),
            (FallbackPolicy::with_sentinel(4, 1), true, true),
            (sampled_strict, false, true),
        ];
        let rows: Vec<&str> = PARENT_TABLE.lines().collect();
        let cands = all_candidates();
        assert_eq!(rows.len(), cands.len());
        for (cand, row) in cands.iter().zip(rows) {
            let mut cells = row.split_whitespace();
            assert_eq!(cells.next(), Some(cell(&Some(cand.clone()))).as_deref(), "row order");
            let pinned: Vec<&str> = cells.collect();
            assert_eq!(pinned.len(), CAUSES.len(), "{row}");
            for (&cause, &want) in CAUSES.iter().zip(&pinned) {
                for (policy, rows_stand, sentinel_stands) in presets {
                    let stands = if cause == Cause::Sentinel { sentinel_stands } else { rows_stand };
                    let want = if stands { want } else { "-" };
                    let got = cell(&degrade(cand, cause, &[20, 5], &policy));
                    assert_eq!(got, want, "{policy:?}: {cand:?} on {cause:?}");
                }
            }
        }
    }

    /// Memory grows `m`, accuracy shrinks it: whatever order the causes
    /// arrive in, one walk must never stand on the same (tile, engine)
    /// twice, and must end.
    #[test]
    fn degrade_walks_never_revisit_a_candidate() {
        let policy = FallbackPolicy::with_sentinel(4, 1);
        let run_time = [Cause::Jit, Cause::Plan, Cause::Memory, Cause::NonFinite, Cause::Sentinel];
        let mut rng = wino_rng::Rng::seed_from_u64(0x7ab1e);
        for start in all_candidates().into_iter().filter(|c| {
            matches!(c, Candidate::Winograd { retile: 0, .. })
        }) {
            for _ in 0..64 {
                let mut seen = vec![];
                let mut cand = Some(start.clone());
                while let Some(c) = cand {
                    let key = match &c {
                        Candidate::Winograd { m, stage2, .. } => Some((m.clone(), *stage2)),
                        Candidate::Im2col => None,
                    };
                    assert!(!seen.contains(&key), "{start:?} revisits {c:?} after {seen:?}");
                    seen.push(key);
                    assert!(seen.len() <= 8, "{start:?}: walk does not end: {seen:?}");
                    let cause = run_time[rng.range_usize(0, run_time.len() - 1)];
                    cand = degrade(&c, cause, &[20, 20], &policy);
                }
            }
        }
    }

    #[test]
    fn plan_fallback_passes_through_clean_plans() {
        let s = ConvShape::new(1, 16, 16, &[10, 10], &[3, 3], &[1, 1]).unwrap();
        let (plan, fb) =
            plan_with_fallback(&s, &[2, 2], ConvOptions::default(), &FallbackPolicy::default())
                .unwrap();
        assert!(fb.is_none());
        assert_eq!(plan.opts.stage2, Stage2Backend::Mono);
    }

    #[test]
    fn plan_fallback_downgrades_a_jit_plan_to_mono() {
        if wino_simd::cpu_has_avx512f() {
            // The JIT plan would succeed here; the downgrade path is
            // covered on non-AVX-512 hosts and by the net-level tests.
            return;
        }
        let s = ConvShape::new(1, 16, 16, &[10, 10], &[3, 3], &[1, 1]).unwrap();
        let opts = ConvOptions { stage2: Stage2Backend::Jit, ..Default::default() };
        let (plan, fb) =
            plan_with_fallback(&s, &[2, 2], opts, &FallbackPolicy::default()).unwrap();
        assert_eq!(plan.opts.stage2, Stage2Backend::Mono);
        assert!(matches!(fb, Some(PlanError::Jit { .. })));

        // Strict policy: the JIT failure surfaces.
        assert!(matches!(
            plan_with_fallback(&s, &[2, 2], opts, &FallbackPolicy::strict()),
            Err(PlanError::Jit { .. })
        ));
    }

    #[test]
    fn plan_fallback_does_not_mask_other_errors() {
        let s = ConvShape::new(1, 16, 16, &[10, 10], &[3, 3], &[1, 1]).unwrap();
        // Tile too large: not a JIT failure, must propagate unchanged.
        assert!(matches!(
            plan_with_fallback(&s, &[40, 4], ConvOptions::default(), &FallbackPolicy::default()),
            Err(PlanError::BadTileSize { .. })
        ));
    }
}
