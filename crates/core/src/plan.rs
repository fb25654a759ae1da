//! Layer plans and scratch buffers.
//!
//! A [`WinogradLayer`] fixes everything known at "instantiation time" in
//! the paper's C++ artifact: the layer shape, the `F(m, r)` transform
//! programs per dimension, the stage-2 blocking parameters, which of
//! the two schedules runs the layer — the paper's three stages, or, when
//! `V̂` plus a per-thread ring fit the L2, the ring-fused driver of
//! `fused.rs` ([`WinogradLayer::is_fused`]) — and whether its stores
//! bypass the cache ([`WinogradLayer::streams`]). A [`Scratch`] is the
//! paper's auxiliary buffer (§4.4 "Memory overhead"), reused across
//! layers. For a staged plan it holds `I` (transformed inputs), `W`
//! (transformed kernels), `I'_tmp` and tile-major `I'`; for a fused plan
//! it holds `W` and one ring per thread slot, and the layer-sized three
//! appear only if a staged function is ever called on it.

// Index-based loops are the idiom throughout: most walk several
// arrays with derived offsets, where iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]
use std::cell::UnsafeCell;

use wino_gemm::{default_shape, BlockShape};
use wino_simd::{AlignedVec, S};
use wino_tensor::{BlockedMatrices, ConvShape, ShapeError, TileGrid};
use wino_transforms::FmrPlan;

use crate::layout::TileMajor;

/// Maximum supported spatial rank (the stages use fixed-size index
/// buffers; 6 covers any practical ConvNet with room to spare).
pub const MAX_RANK: usize = 6;

/// A target on the numerical quality of a plan: the worst relative
/// error the caller is willing to accept from the Winograd evaluation,
/// enforced a priori from the exact-rational conditioning of the
/// transforms ([`wino_transforms::Conditioning`]).
///
/// The check is per dimension: a plan is admitted only if every
/// dimension's amplification factor satisfies `γ(m_d, r_d) · ε ≤
/// max_rel_error` (ε = [`f32::EPSILON`]). Because γ is strictly
/// increasing over the practical even tile sizes, a budget induces a
/// per-(r, point-schedule) *derived* maximum tile size — this is what
/// replaced the old hard-coded `Purpose::max_m` table (the presets in
/// [`crate::select::Purpose::budget`] reproduce it exactly for r = 3).
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct AccuracyBudget {
    /// Target worst-case relative error (> 0).
    pub max_rel_error: f64,
}

impl AccuracyBudget {
    /// Budget admitting tiles whose per-dimension amplification fits
    /// `max_rel_error`.
    pub fn new(max_rel_error: f64) -> AccuracyBudget {
        AccuracyBudget { max_rel_error }
    }

    /// Whether a 1-D transform with amplification factor `gamma`
    /// fits this budget.
    pub fn admits_gamma(self, gamma: f64) -> bool {
        gamma * f64::from(f32::EPSILON) <= self.max_rel_error
    }
}

/// Which engine executes stage 2's micro-kernels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Stage2Backend {
    /// Const-generic monomorphised Rust kernels (`wino-gemm`). Default.
    #[default]
    Mono,
    /// Run-time generated machine code (`wino-jit`) — the paper's JIT,
    /// including the in-kernel streaming scatter. Requires AVX-512F at
    /// runtime; planning fails with [`PlanError::Jit`] otherwise.
    Jit,
}

/// Tuning and ablation switches.
#[derive(Clone, Copy, Debug)]
pub struct ConvOptions {
    /// Explicit blocking parameters; `None` uses the Eq. 11 model
    /// default. `examples/autotune_wisdom.rs` shows how to feed a tuned
    /// or remembered shape (`wino_gemm::autotune_with_wisdom`) in here.
    pub block: Option<BlockShape>,
    /// Stage-2 kernel engine.
    pub stage2: Stage2Backend,
    /// A-priori accuracy budget. `None` (the default) admits any tile;
    /// `Some(b)` makes planning fail with [`PlanError::AccuracyBudget`]
    /// when a dimension's predicted amplification exceeds the budget.
    pub budget: Option<AccuracyBudget>,
    /// Output sampling step per spatial dimension (entries beyond the
    /// layer's rank are ignored; all 1s by default). A strided layer
    /// still runs Winograd: [`crate::dispatch`] executes its stride-1
    /// plan and keeps every `s`-th output site. [`WinogradLayer::new`]
    /// itself only accepts the identity geometry.
    ///
    /// ```
    /// use wino_conv::ConvOptions;
    /// let opts = ConvOptions::default().with_stride(&[2, 2]);
    /// assert_eq!(opts.stride[..2], [2, 2]);
    /// assert_eq!(opts.stride[2..], [1, 1, 1, 1]); // beyond-rank entries stay 1
    /// assert!(!opts.geometry(2).is_identity());
    /// // Entries past MAX_RANK are ignored like any other beyond-rank entry.
    /// assert_eq!(ConvOptions::default().with_stride(&[2; 9]).stride, [2; 6]);
    /// ```
    pub stride: [usize; MAX_RANK],
    /// Kernel tap spacing per spatial dimension (entries beyond the
    /// layer's rank are ignored; all 1s by default). Dilation is outside
    /// what the Winograd transform stencils can express, so dilated
    /// layers dispatch to the im2col baseline with typed provenance.
    ///
    /// ```
    /// use wino_conv::ConvOptions;
    /// let opts = ConvOptions::default().with_dilation(&[2]);
    /// assert_eq!(opts.geometry(1).dilation, vec![2]);
    /// assert_eq!(ConvOptions::default().with_dilation(&[3; 9]).dilation, [3; 6]);
    /// ```
    pub dilation: [usize; MAX_RANK],
    /// Channel group count (1 = dense). Input channels `[g·C/G, (g+1)·C/G)`
    /// feed only output channels `[g·C'/G, (g+1)·C'/G)`; `groups == C` is
    /// depthwise. Groups whose per-group channel width is a multiple of
    /// the vector width still run Winograd (blocked C/C' loops); narrower
    /// groups dispatch to im2col.
    ///
    /// ```
    /// use wino_conv::ConvOptions;
    /// let opts = ConvOptions::default().with_groups(4);
    /// assert_eq!(opts.geometry(2).groups, 4);
    /// assert!(ConvOptions::default().geometry(3).is_identity());
    /// ```
    pub groups: usize,
}

impl ConvOptions {
    /// Builder-style stride override (remaining dimensions keep 1).
    pub fn with_stride(mut self, stride: &[usize]) -> ConvOptions {
        let n = stride.len().min(MAX_RANK);
        self.stride[..n].copy_from_slice(&stride[..n]);
        self
    }

    /// Builder-style dilation override (remaining dimensions keep 1).
    pub fn with_dilation(mut self, dilation: &[usize]) -> ConvOptions {
        let n = dilation.len().min(MAX_RANK);
        self.dilation[..n].copy_from_slice(&dilation[..n]);
        self
    }

    /// Builder-style group-count override.
    pub fn with_groups(mut self, groups: usize) -> ConvOptions {
        self.groups = groups;
        self
    }

    /// The geometry these options describe for a layer of the given rank.
    pub fn geometry(&self, rank: usize) -> wino_tensor::ConvGeometry {
        let rank = rank.min(MAX_RANK);
        wino_tensor::ConvGeometry {
            stride: self.stride[..rank].to_vec(),
            dilation: self.dilation[..rank].to_vec(),
            groups: self.groups,
        }
    }

    /// True when stride/dilation/groups are all 1 over the first `rank`
    /// dimensions — the only geometry the monolithic planner accepts.
    pub fn has_identity_geometry(&self, rank: usize) -> bool {
        self.geometry(rank).is_identity()
    }

    /// These options with the geometry fields reset to the identity — the
    /// form the dispatch layer hands to stride-1 sub-plans.
    pub fn with_identity_geometry(mut self) -> ConvOptions {
        self.stride = [1; MAX_RANK];
        self.dilation = [1; MAX_RANK];
        self.groups = 1;
        self
    }
}

impl Default for ConvOptions {
    fn default() -> Self {
        ConvOptions {
            block: None,
            stage2: Stage2Backend::default(),
            budget: None,
            stride: [1; MAX_RANK],
            dilation: [1; MAX_RANK],
            groups: 1,
        }
    }
}

/// Errors from plan construction.
///
/// `Copy` by design: fallback decisions record the original error in an
/// [`crate::net::ExecutionReport`] while also propagating it, so the type
/// must be freely duplicable. The `reason` fields are static reason codes,
/// not formatted strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    Shape(ShapeError),
    /// Rank exceeds [`MAX_RANK`].
    RankTooHigh { rank: usize },
    /// `F(m, r)` of dimension `dim` has no transform codelets: `m` is
    /// outside `1..=8` or the dimension's kernel is wider than 5
    /// ([`crate::codelet::in_table`]).
    BadTileSize { dim: usize, m: usize },
    /// Blocking parameters incompatible with the channel counts.
    BadBlocking { reason: &'static str },
    /// JIT stage-2 backend requested but unavailable (no AVX-512F, or
    /// code emission failed).
    Jit { reason: &'static str },
    /// The requested tile's a-priori error bound exceeds the plan's
    /// [`AccuracyBudget`] in dimension `dim` — demote `m` (the planner's
    /// `candidate_tiles` does this automatically).
    AccuracyBudget { dim: usize, m: usize },
    /// The options carry a non-identity stride/dilation/groups geometry,
    /// which the monolithic planner does not execute — route the layer
    /// through [`crate::dispatch`] instead.
    Geometry { reason: &'static str },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Shape(e) => write!(f, "{e}"),
            PlanError::RankTooHigh { rank } => {
                write!(f, "rank {rank} exceeds supported maximum {MAX_RANK}")
            }
            PlanError::BadTileSize { dim, m } => {
                write!(f, "no transform codelets for tile size m={m} in dimension {dim}")
            }
            PlanError::BadBlocking { reason } => write!(f, "bad blocking: {reason}"),
            PlanError::Jit { reason } => write!(f, "jit backend unavailable: {reason}"),
            PlanError::AccuracyBudget { dim, m } => write!(
                f,
                "tile size m={m} for dimension {dim} exceeds the accuracy budget"
            ),
            PlanError::Geometry { reason } => {
                write!(f, "non-identity conv geometry: {reason}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl From<ShapeError> for PlanError {
    fn from(e: ShapeError) -> Self {
        PlanError::Shape(e)
    }
}

/// Pre-compiled machine-code kernels for the JIT stage-2 backend: the
/// β = 0/1 block kernels for intermediate reduction blocks, the scatter
/// kernels (full-height and tail panels) for the final one and, for a
/// fused plan, the pair that scatters a ring panel.
pub(crate) struct JitStage2 {
    pub block0: Option<wino_jit::JitKernel>,
    pub block1: Option<wino_jit::JitKernel>,
    pub scatter_full: wino_jit::JitKernel,
    pub scatter_tail: Option<wino_jit::JitKernel>,
    /// Rows of the final, partially filled panel (0 = all panels full).
    pub tail: usize,
    /// β = 0 plain-store scatter kernels of a `ring_rows`-row panel and of
    /// the last, shorter one, with the ring's group stride baked in.
    pub ring_full: Option<wino_jit::JitKernel>,
    pub ring_tail: Option<wino_jit::JitKernel>,
}

impl std::fmt::Debug for JitStage2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JitStage2 {{ tail: {} }}", self.tail)
    }
}

/// A fully planned N-D Winograd convolution for one layer shape and one
/// choice of `F(m, r)`.
#[derive(Debug)]
pub struct WinogradLayer {
    pub shape: ConvShape,
    pub grid: TileGrid,
    /// Per-dimension transform plans `F(m_d, r_d)`.
    pub plans: Vec<FmrPlan>,
    /// Stage-2 blocking `(n_blk, C_blk, C'_blk)`.
    pub block: BlockShape,
    pub opts: ConvOptions,
    /// Panel height of the ring-fused driver (`fused::ring_rows`); `None`
    /// runs the three stages.
    pub(crate) ring_rows: Option<usize>,
    /// Whether the stores that hand data to a later fork–join — `Û`, `V̂`,
    /// the ⑥ scatter, the output image — are non-temporal
    /// (`fused::streams`).
    pub(crate) streams: bool,
    pub(crate) jit: Option<JitStage2>,
}

/// The two cache sizes a plan's schedule and store flavour are decided
/// from.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Host {
    /// L2 one thread can count on ([`wino_sched::l2_bytes_per_thread`]).
    pub l2_bytes: usize,
    /// Last-level cache ([`wino_sched::llc_bytes`]).
    pub llc_bytes: usize,
}

impl WinogradLayer {
    /// Plan `F(m₁×…×m_n, r₁×…×r_n)` for the given layer on this host.
    pub fn new(shape: ConvShape, m: &[usize], opts: ConvOptions) -> Result<WinogradLayer, PlanError> {
        let host =
            Host { l2_bytes: wino_sched::l2_bytes_per_thread(), llc_bytes: wino_sched::llc_bytes() };
        WinogradLayer::new_on(shape, m, opts, host)
    }

    /// [`WinogradLayer::new`] for a host with the given caches.
    pub(crate) fn new_on(
        shape: ConvShape,
        m: &[usize],
        opts: ConvOptions,
        host: Host,
    ) -> Result<WinogradLayer, PlanError> {
        let rank = shape.rank();
        if rank > MAX_RANK {
            return Err(PlanError::RankTooHigh { rank });
        }
        if !opts.has_identity_geometry(rank) {
            // Stride/dilation/groups are the dispatch layer's job: the
            // monolithic three-stage pipeline is a stride-1 algorithm.
            return Err(PlanError::Geometry {
                reason: "WinogradLayer is stride-1/dense; use dispatch::plan_dispatch",
            });
        }
        if !shape.in_channels.is_multiple_of(S) {
            return Err(ShapeError::ChannelsNotVectorMultiple { channels: shape.in_channels }.into());
        }
        if !shape.out_channels.is_multiple_of(S) {
            return Err(
                ShapeError::ChannelsNotVectorMultiple { channels: shape.out_channels }.into()
            );
        }
        let grid = TileGrid::new(&shape, m)?;
        let mut plans = Vec::with_capacity(rank);
        for d in 0..rank {
            // The transform stages run generated codelets and nothing
            // else: a dimension without a table row does not plan.
            if !crate::codelet::in_table(m[d], shape.kernel_dims[d]) {
                return Err(PlanError::BadTileSize { dim: d, m: m[d] });
            }
            let plan = FmrPlan::new(m[d], shape.kernel_dims[d]);
            if let Some(budget) = opts.budget {
                if !budget.admits_gamma(plan.conditioning().gamma) {
                    return Err(PlanError::AccuracyBudget { dim: d, m: m[d] });
                }
            }
            plans.push(plan);
        }
        let rows = grid.total_tiles() * shape.batch;
        let block = match opts.block {
            Some(b) => {
                if !shape.in_channels.is_multiple_of(b.c_blk) {
                    return Err(PlanError::BadBlocking {
                        reason: "C not divisible by C_blk",
                    });
                }
                if !shape.out_channels.is_multiple_of(b.cp_blk) {
                    return Err(PlanError::BadBlocking {
                        reason: "C' not divisible by C'_blk",
                    });
                }
                if b.n_blk == 0 || b.n_blk > wino_gemm::MAX_N_BLK {
                    return Err(PlanError::BadBlocking { reason: "n_blk out of range" });
                }
                if b.c_blk % S != 0 || b.cp_blk % S != 0 {
                    return Err(PlanError::BadBlocking {
                        reason: "C_blk and C'_blk must be multiples of 16",
                    });
                }
                b
            }
            None => default_shape(shape.in_channels, shape.out_channels, rows),
        };
        let ring_rows = crate::fused::ring_rows(
            grid.tile_volume(),
            shape.in_channels,
            shape.out_channels,
            shape.in_channels / block.c_blk,
            rows,
            host.l2_bytes,
            opts.block.map(|b| b.n_blk),
        );
        let mut layer =
            WinogradLayer { shape, grid, plans, block, opts, ring_rows, streams: false, jit: None };
        layer.streams = crate::fused::streams(&layer.footprint(1), host.llc_bytes);
        if opts.stage2 == Stage2Backend::Jit {
            layer.jit = Some(layer.build_jit()?);
        }
        Ok(layer)
    }

    /// Compile the stage-2 machine-code kernels (the paper generates them
    /// "on demand, … compiled to a shared library, and loaded" — here they
    /// are emitted straight into executable pages at plan time).
    fn build_jit(&self) -> Result<JitStage2, PlanError> {
        use wino_jit::{JitError, JitKernel, JitOutput};
        let jit_err = |e: JitError| PlanError::Jit {
            reason: match e {
                JitError::Avx512Unavailable => "AVX-512F not available (CPU or WINO_SIMD)",
                JitError::BadParams(reason) => reason,
                JitError::Os(_) => "executable mapping failed",
            },
        };
        let (block, rows) = (self.block, self.rows());
        let k_blocks = self.shape.in_channels / block.c_blk;
        let tail = rows % block.n_blk;
        let t_vol = self.t_vol();
        let n_tiles: usize = self.grid.counts.iter().product();
        // Tile-major group stride (floats): see `TileMajor::group_stride`.
        let group_stride = n_tiles * t_vol * S;
        let (nb, cb, cpb) = (block.n_blk, block.c_blk, block.cp_blk);

        // The last reduction block always runs a scatter kernel, so the
        // plain block kernels cover only the k-blocks before it.
        let block0 = if k_blocks > 1 {
            Some(JitKernel::compile(nb, cb, cpb, false).map_err(jit_err)?)
        } else {
            None
        };
        let block1 = if k_blocks > 2 {
            Some(JitKernel::compile(nb, cb, cpb, true).map_err(jit_err)?)
        } else {
            None
        };
        let scatter = |panel_rows: usize, output: JitOutput| {
            JitKernel::compile_with_output(panel_rows, cb, cpb, k_blocks > 1, output)
                .map_err(jit_err)
        };
        let staged = JitOutput::Scatter { group_stride, streaming: self.streams };
        let scatter_full = scatter(nb, staged)?;
        let scatter_tail = if tail != 0 { Some(scatter(tail, staged)?) } else { None };
        // A ring panel's `X̂` chunks go back into the core's own cache (one
        // reduction block, so β = 0): plain stores, the ring's group stride.
        let (mut ring_full, mut ring_tail) = (None, None);
        if let Some(n) = self.ring_rows {
            let ring = JitOutput::Scatter { group_stride: n * t_vol * S, streaming: false };
            ring_full = Some(scatter(n, ring)?);
            if !rows.is_multiple_of(n) {
                ring_tail = Some(scatter(rows % n, ring)?);
            }
        }
        Ok(JitStage2 { block0, block1, scatter_full, scatter_tail, tail, ring_full, ring_tail })
    }

    /// Number of spatial dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Tile volume `T = ∏(m_d + r_d − 1)` — the number of batched matrix
    /// multiplications in stage 2.
    pub fn t_vol(&self) -> usize {
        self.grid.tile_volume()
    }

    /// Tiles per image `N`.
    pub fn n_tiles(&self) -> usize {
        self.grid.total_tiles()
    }

    /// Panel rows of the transformed matrices: `N·B`.
    pub fn rows(&self) -> usize {
        self.n_tiles() * self.shape.batch
    }

    /// `n_blk`-row panels per transformed matrix.
    pub fn row_blocks(&self) -> usize {
        self.rows().div_ceil(self.block.n_blk)
    }

    /// Whether `forward` / `forward_fx` run this plan through the
    /// ring-fused driver (`fused.rs`: input transform → products → inverse
    /// transform per row panel through a per-thread, cache-resident ring,
    /// in one fork–join) instead of the three stages. Decided at plan time
    /// from the sizes of `V̂` and of a per-thread ring against the detected
    /// L2 ([`wino_sched::l2_bytes_per_thread`]). A call whose executor has
    /// more threads than the plan has ring panels runs the three stages
    /// all the same; results are bit-identical either way.
    pub fn is_fused(&self) -> bool {
        self.ring_rows.is_some()
    }

    /// Whether this plan's stores to `Û`, `V̂`, the tile-major `X̂` and the
    /// output image are non-temporal (§4.2.1) rather than plain. Decided
    /// at plan time: streaming iff the bytes a forward pass hands from one
    /// fork–join to the next — the plan's scratch plus its output image —
    /// exceed a fifth of the detected last-level cache
    /// ([`wino_sched::llc_bytes`]), the share past which the next fork–join
    /// does not find them there anyway. A fused plan's ring is always
    /// stored plainly. Results are bit-identical either way.
    pub fn streams(&self) -> bool {
        self.streams
    }

    /// Floats of one thread slot's ring: an `n_blk`-row block of `Û` plus
    /// the same rows' tile-major `X̂` chunks. 0 for a staged plan.
    pub(crate) fn ring_floats(&self) -> usize {
        let (c, cp) = (self.shape.in_channels, self.shape.out_channels);
        self.ring_rows.map_or(0, |n| self.t_vol() * n * (c + cp))
    }

    /// Allocate the output image for this layer.
    pub fn new_output(&self) -> Result<wino_tensor::BlockedImage, ShapeError> {
        wino_tensor::BlockedImage::zeros(self.shape.batch, self.shape.out_channels, &self.shape.out_dims())
    }

    /// Fallible [`Self::new_output`]: a typed allocation failure instead
    /// of an abort when the allocator refuses the buffer.
    pub fn try_new_output(&self) -> Result<wino_tensor::BlockedImage, wino_tensor::TensorError> {
        wino_tensor::BlockedImage::try_zeros(
            self.shape.batch,
            self.shape.out_channels,
            &self.shape.out_dims(),
        )
    }

    /// The plan's analytic memory footprint at `threads` thread slots —
    /// exactly the bytes [`Scratch::new`], [`Self::new_output`] and the
    /// memoised kernel transform would allocate, computed without
    /// allocating anything. See [`crate::MemoryFootprint`].
    pub fn footprint(&self, threads: usize) -> crate::MemoryFootprint {
        crate::MemoryFootprint::of_layer(self, threads)
    }

    /// FLOPs the equivalent direct convolution would perform (the
    /// normaliser for effective-GFLOP/s reporting, as in Fig. 5).
    pub fn direct_flops(&self) -> u128 {
        self.shape.direct_flops()
    }

    /// A-priori worst-case bound on this layer's relative output error
    /// against an exact evaluation:
    ///
    /// ```text
    /// bound = ε · (∏_d γ(m_d, r_d)) · C · ∏_d r_d
    /// ```
    ///
    /// where γ is the exact-rational amplification factor of each
    /// dimension's transforms ([`wino_transforms::Conditioning`]) and
    /// `C · ∏ r` counts the accumulation length of the channel/tap
    /// reduction. Deliberately conservative (a guaranteed no-false-trip
    /// threshold for the runtime accuracy sentinels, often orders of
    /// magnitude above typical error) but strictly monotone in every
    /// `m_d`, which is what bound-driven tile demotion needs.
    pub fn predicted_bound(&self) -> f64 {
        let gamma: f64 = self.plans.iter().map(|p| p.conditioning().gamma).product();
        let taps: usize = self.shape.kernel_dims.iter().product();
        let terms = (self.shape.in_channels * taps) as f64;
        f64::from(f32::EPSILON) * gamma * terms
    }
}

/// One executor thread slot's private working memory.
pub(crate) struct ThreadBuf {
    /// Ping-pong tile buffers (each `T·S` floats).
    pub a: AlignedVec,
    pub b: AlignedVec,
    /// A fused plan's ring ([`WinogradLayer::ring_floats`]): one
    /// `n_blk`-row block of `Û` (`[t][n_blk][C]`), then the same rows'
    /// tile-major `X̂` chunks (`[C'/S][n_blk][T][S]`). Every panel the slot
    /// processes goes through these same addresses. Empty for a staged
    /// plan.
    pub ring: AlignedVec,
    /// Nanoseconds this slot spent in the three phases of the fused
    /// fork–join in flight (written only while a probe collects spans).
    pub phase_ns: [u64; 3],
}

impl ThreadBuf {
    /// `[a, b]` as the temporaries of [`crate::codelet::TileTransform::run`].
    pub(crate) fn ptrs(&mut self) -> [*mut f32; 2] {
        [self.a.as_mut_ptr(), self.b.as_mut_ptr()]
    }
}

/// Everything the shapes of a [`Scratch`]'s buffers derive from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ScratchShape {
    t_vol: usize,
    batch: usize,
    n_tiles: usize,
    c: usize,
    cp: usize,
    block: BlockShape,
    ring_floats: usize,
}

impl ScratchShape {
    fn of(layer: &WinogradLayer) -> ScratchShape {
        ScratchShape {
            t_vol: layer.t_vol(),
            batch: layer.shape.batch,
            n_tiles: layer.n_tiles(),
            c: layer.shape.in_channels,
            cp: layer.shape.out_channels,
            block: layer.block,
            ring_floats: layer.ring_floats(),
        }
    }

    /// `(t, rows, cols, rb, cb)` of the transformed inputs `u`.
    fn u(&self) -> [usize; 5] {
        [self.t_vol, self.batch * self.n_tiles, self.c, self.block.n_blk, self.block.c_blk]
    }

    /// … of the transformed kernels `v`.
    fn v(&self) -> [usize; 5] {
        [self.t_vol, self.c, self.cp, self.block.c_blk, self.block.cp_blk]
    }

    /// … of the blocked intermediate `x`.
    fn x(&self) -> [usize; 5] {
        [self.t_vol, self.batch * self.n_tiles, self.cp, self.block.n_blk, self.block.cp_blk]
    }
}

/// How a [`Scratch`] buffer is allocated: aborting on a refusal or with a
/// typed error, plainly zeroed or first-touched through an executor.
#[derive(Clone, Copy)]
struct Seam<'e> {
    fallible: bool,
    exec: Option<&'e dyn wino_sched::Executor>,
}

impl Seam<'_> {
    fn matrices(
        self,
        [t, rows, cols, rb, cb]: [usize; 5],
    ) -> Result<BlockedMatrices, wino_simd::AllocError> {
        Ok(match (self.fallible, self.exec) {
            (true, Some(e)) => BlockedMatrices::try_new_first_touch(t, rows, cols, rb, cb, e)?,
            (true, None) => BlockedMatrices::try_new(t, rows, cols, rb, cb)?,
            (false, Some(e)) => BlockedMatrices::new_first_touch(t, rows, cols, rb, cb, e),
            (false, None) => BlockedMatrices::new(t, rows, cols, rb, cb),
        })
    }

    fn tile_major(self, s: &ScratchShape) -> Result<TileMajor, wino_simd::AllocError> {
        let (b, cp, n, t) = (s.batch, s.cp, s.n_tiles, s.t_vol);
        Ok(match (self.fallible, self.exec) {
            (true, Some(e)) => TileMajor::try_new_first_touch(b, cp, n, t, e)?,
            (true, None) => TileMajor::try_new(b, cp, n, t)?,
            (false, Some(e)) => TileMajor::new_first_touch(b, cp, n, t, e),
            (false, None) => TileMajor::new(b, cp, n, t),
        })
    }

    /// A zeroed per-slot buffer (placed by its slot afterwards, if at all).
    fn zeroed(self, len: usize) -> Result<AlignedVec, wino_simd::AllocError> {
        if self.fallible {
            return AlignedVec::try_zeroed(len);
        }
        // ALLOC: the infallible Scratch constructors abort on a refusal
        // by contract; `try_new` is the accounted path.
        Ok(AlignedVec::zeroed(len))
    }
}

/// The paper's auxiliary memory, sized once at construction and reused
/// across invocations (and across layers of the same plan): transformed
/// kernels `W` (`v`) and per-thread codelet buffers always; for a staged
/// plan also transformed inputs `I` (`u`), the blocked intermediate
/// `I'_tmp` (`x`) and the tile-major transformed outputs `I'` (`y`); for a
/// fused plan ([`WinogradLayer::is_fused`]) one ring per thread slot
/// instead.
///
/// On a fused plan `u`, `x` and `y` start out empty. The first call of a
/// staged function ([`crate::stage1::transform_inputs`],
/// [`crate::stage2::multiply`], [`crate::stage3::inverse_transform`]) —
/// or of a forward on an executor with more threads than the plan has
/// ring panels — allocates them, fallibly, at the shapes a staged plan's
/// have.
pub struct Scratch {
    pub u: BlockedMatrices,
    pub v: BlockedMatrices,
    pub x: BlockedMatrices,
    pub y: TileMajor,
    bufs: Vec<UnsafeCell<ThreadBuf>>,
    shape: ScratchShape,
}

// SAFETY: each executor thread slot accesses only its own `bufs[slot]`
// (guaranteed by the Executor contract) — ring included — and the
// matrices are written at disjoint offsets per task.
unsafe impl Sync for Scratch {}

impl Scratch {
    /// Allocate scratch for `layer`, usable with executors of up to
    /// `threads` thread slots.
    pub fn new(layer: &WinogradLayer, threads: usize) -> Scratch {
        Scratch::build(layer, threads, Seam { fallible: false, exec: None })
            .expect("the infallible seam aborts instead of returning a refusal")
    }

    /// As [`Scratch::new`], but the large buffers are zeroed — and
    /// therefore NUMA-placed — through `exec`
    /// (`wino_tensor::first_touch`): each executor thread first-touches
    /// the region of the transformed-data buffers that the same executor's
    /// partition will steer it at during the forward pass, and each ring
    /// is touched from its own slot. Thread-slot count is taken from
    /// `exec.threads()`.
    pub fn new_first_touch(layer: &WinogradLayer, exec: &dyn wino_sched::Executor) -> Scratch {
        Scratch::build(layer, exec.threads(), Seam { fallible: false, exec: Some(exec) })
            .expect("the infallible seam aborts instead of returning a refusal")
    }

    /// Fallible [`Scratch::new`]: a typed [`wino_simd::AllocError`]
    /// instead of an abort when any of the scratch buffers is refused.
    /// Every `Network` layer's resident scratch slot, and every retry of
    /// the run-time degradation walk, allocates through this seam.
    pub fn try_new(layer: &WinogradLayer, threads: usize) -> Result<Scratch, wino_simd::AllocError> {
        Scratch::build(layer, threads, Seam { fallible: true, exec: None })
    }

    /// Fallible [`Scratch::new_first_touch`].
    pub fn try_new_first_touch(
        layer: &WinogradLayer,
        exec: &dyn wino_sched::Executor,
    ) -> Result<Scratch, wino_simd::AllocError> {
        Scratch::build(layer, exec.threads(), Seam { fallible: true, exec: Some(exec) })
    }

    fn build(
        layer: &WinogradLayer,
        threads: usize,
        seam: Seam<'_>,
    ) -> Result<Scratch, wino_simd::AllocError> {
        let shape = ScratchShape::of(layer);
        let t = shape.t_vol;
        let staged = !layer.is_fused();
        let u = if staged { seam.matrices(shape.u())? } else { BlockedMatrices::placeholder() };
        let v = seam.matrices(shape.v())?;
        let x = if staged { seam.matrices(shape.x())? } else { BlockedMatrices::placeholder() };
        let y = if staged { seam.tile_major(&shape)? } else { TileMajor::placeholder() };
        let mut bufs = Vec::with_capacity(threads.max(1));
        for _ in 0..threads.max(1) {
            bufs.push(UnsafeCell::new(ThreadBuf {
                a: seam.zeroed(t * S)?,
                b: seam.zeroed(t * S)?,
                ring: seam.zeroed(shape.ring_floats)?,
                phase_ns: [0; 3],
            }));
        }
        let scratch = Scratch { u, v, x, y, bufs, shape };
        if let (Some(exec), true) = (seam.exec, shape.ring_floats > 0) {
            // Fresh zero pages are committed where they are first written:
            // write each ring from the slot that will work in it. A slot
            // the executor skips keeps its (valid, all-zero) ring.
            let _ = exec.run_grid(&[scratch.bufs.len()], &|slot, _| {
                // SAFETY: slot exclusivity per the Executor contract.
                unsafe { scratch.thread_buf(slot) }.ring.fill_zero();
            });
        }
        Ok(scratch)
    }

    /// Make sure the layer-sized `u`, `x` and `y` of the three stages
    /// exist — a fused plan's scratch starts without them. All three or
    /// none: a refusal leaves the scratch as it was.
    pub(crate) fn materialise(&mut self) -> Result<(), wino_simd::AllocError> {
        if self.u.t_count() == 0 {
            let seam = Seam { fallible: true, exec: None };
            let (u, x) = (seam.matrices(self.shape.u())?, seam.matrices(self.shape.x())?);
            (self.u, self.x, self.y) = (u, x, seam.tile_major(&self.shape)?);
        }
        Ok(())
    }

    /// Whether this scratch was built for a plan shaped like `layer` and
    /// has at least `threads` thread slots.
    pub(crate) fn fits(&self, layer: &WinogradLayer, threads: usize) -> bool {
        self.shape == ScratchShape::of(layer) && self.bufs.len() >= threads
    }

    /// Total auxiliary bytes held right now (the paper's memory-overhead
    /// number): the transformed-data buffers present plus the rings.
    pub fn bytes(&self) -> usize {
        self.u.bytes()
            + self.v.bytes()
            + self.x.bytes()
            + self.y.bytes()
            + self.bufs.len() * self.shape.ring_floats * std::mem::size_of::<f32>()
    }

    pub(crate) fn thread_slots(&self) -> usize {
        self.bufs.len()
    }

    /// Exclusive access to thread `slot`'s buffers.
    ///
    /// # Safety
    /// At most one task may hold a given slot's buffers at a time (the
    /// Executor slot contract).
    // Audited (PR 2): clippy::mut_from_ref targets *safe* fns minting
    // `&mut` from `&`; here the `&mut` derives from an `UnsafeCell` and the
    // fn is `unsafe` with the exclusivity contract stated above, which is
    // exactly the sanctioned interior-mutability escape hatch. Keep.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn thread_buf(&self, slot: usize) -> &mut ThreadBuf {
        &mut *self.bufs[slot].get()
    }
}

#[cfg(test)]
impl Host {
    /// A host on which every layer with one reduction block plans `fused`
    /// (else none does) and every plan `streams` its stores (else none).
    pub(crate) fn test(fused: bool, streams: bool) -> Host {
        Host {
            l2_bytes: if fused { usize::MAX } else { 0 },
            llc_bytes: if streams { 0 } else { usize::MAX },
        }
    }
}

/// Options whose explicit blocking cuts the reduction of any layer with
/// `C ≥ 32` into two or more blocks: partial sums have no place in a ring,
/// so the plan is staged whatever the host's L2 — the unit tests' way to a
/// staged plan on a small shape.
#[cfg(test)]
pub(crate) fn split_reduction() -> ConvOptions {
    let block = BlockShape { n_blk: 6, c_blk: 16, cp_blk: 16 };
    ConvOptions { block: Some(block), ..Default::default() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape2d() -> ConvShape {
        ConvShape::new(2, 32, 32, &[12, 12], &[3, 3], &[1, 1]).unwrap()
    }

    #[test]
    fn plan_basics() {
        let layer = WinogradLayer::new(shape2d(), &[4, 4], ConvOptions::default()).unwrap();
        assert_eq!(layer.rank(), 2);
        assert_eq!(layer.t_vol(), 36);
        assert_eq!(layer.grid.counts, vec![3, 3]);
        assert_eq!(layer.rows(), 2 * 9);
        assert_eq!(layer.shape.out_dims(), vec![12, 12]);
        // Blocking legality.
        assert_eq!(32 % layer.block.c_blk, 0);
        assert_eq!(32 % layer.block.cp_blk, 0);
    }

    #[test]
    fn plan_rejects_bad_channels() {
        let s = ConvShape::new(1, 24, 32, &[8, 8], &[3, 3], &[0, 0]).unwrap();
        assert!(matches!(
            WinogradLayer::new(s, &[2, 2], ConvOptions::default()),
            Err(PlanError::Shape(ShapeError::ChannelsNotVectorMultiple { .. }))
        ));
    }

    #[test]
    fn plan_rejects_bad_blocking() {
        let opts = ConvOptions {
            block: Some(BlockShape { n_blk: 8, c_blk: 48, cp_blk: 16 }),
            ..Default::default()
        };
        assert!(matches!(
            WinogradLayer::new(shape2d(), &[2, 2], opts),
            Err(PlanError::BadBlocking { .. })
        ));
        let opts = ConvOptions {
            block: Some(BlockShape { n_blk: 40, c_blk: 16, cp_blk: 16 }),
            ..Default::default()
        };
        assert!(matches!(
            WinogradLayer::new(shape2d(), &[2, 2], opts),
            Err(PlanError::BadBlocking { .. })
        ));
    }

    #[test]
    fn plan_rejects_huge_tiles() {
        assert!(matches!(
            WinogradLayer::new(shape2d(), &[40, 4], ConvOptions::default()),
            Err(PlanError::BadTileSize { dim: 0, .. })
        ));
    }

    fn assert_staged_shapes(scratch: &Scratch) {
        assert_eq!(scratch.u.t_count(), 36);
        assert_eq!(scratch.u.rows(), 18);
        assert_eq!(scratch.u.cols(), 32);
        assert_eq!((scratch.x.rows(), scratch.x.cols()), (18, 32));
        assert_eq!(scratch.y.n_tiles(), 9);
    }

    #[test]
    fn scratch_sizes() {
        // A staged plan holds the four layer-sized buffers and no ring.
        let staged = WinogradLayer::new(shape2d(), &[4, 4], split_reduction()).unwrap();
        assert!(!staged.is_fused());
        let scratch = Scratch::new(&staged, 4);
        assert_staged_shapes(&scratch);
        assert_eq!(scratch.v.rows(), 32);
        assert_eq!(scratch.v.cols(), 32);
        assert_eq!(scratch.thread_slots(), 4);
        let four = scratch.u.bytes() + scratch.v.bytes() + scratch.x.bytes() + scratch.y.bytes();
        assert_eq!(scratch.bytes(), four);

        // A fused plan holds `v` and one ring per slot…
        let fused = WinogradLayer::new(shape2d(), &[4, 4], ConvOptions::default()).unwrap();
        assert!(fused.is_fused());
        let mut scratch = Scratch::new(&fused, 4);
        assert_eq!((scratch.v.rows(), scratch.v.cols()), (32, 32));
        let ring = fused.ring_floats();
        assert_eq!(ring, 36 * fused.ring_rows.unwrap() * (32 + 32));
        assert_eq!(scratch.bytes(), scratch.v.bytes() + 4 * ring * 4);
        assert_eq!(scratch.u.bytes() + scratch.x.bytes() + scratch.y.bytes(), 0);
        // …and grows the other three, at a staged plan's shapes, the first
        // time a stage asks for them.
        let resident = scratch.bytes();
        scratch.materialise().unwrap();
        assert_staged_shapes(&scratch);
        assert!(scratch.bytes() > resident);
        let held = scratch.u.as_ptr();
        scratch.materialise().unwrap();
        assert_eq!(scratch.u.as_ptr(), held, "a second call allocates nothing");
    }

    #[test]
    fn scratch_first_touch_matches_plain_scratch() {
        for opts in [split_reduction(), ConvOptions::default()] {
            let layer = WinogradLayer::new(shape2d(), &[4, 4], opts).unwrap();
            let exec = wino_sched::StaticExecutor::new(3);
            let ft = Scratch::new_first_touch(&layer, &exec);
            let plain = Scratch::new(&layer, 3);
            assert_eq!(ft.bytes(), plain.bytes());
            assert_eq!(ft.thread_slots(), 3);
            // First-touch zeroing must produce exactly the all-zero state
            // the plain constructor guarantees.
            assert!(ft.u.as_slice().iter().all(|&x| x == 0.0));
            assert!(ft.x.as_slice().iter().all(|&x| x == 0.0));
            for slot in 0..3 {
                // SAFETY: no fork–join is running on `ft`.
                let ring = &unsafe { ft.thread_buf(slot) }.ring;
                assert_eq!(ring.len(), layer.ring_floats());
                assert!(ring.iter().all(|&x| x == 0.0));
            }
        }
    }

    #[test]
    fn a_scratch_fits_plans_of_its_own_shape_only() {
        let fused = WinogradLayer::new(shape2d(), &[4, 4], ConvOptions::default()).unwrap();
        let staged = WinogradLayer::new(shape2d(), &[4, 4], split_reduction()).unwrap();
        let other_tile = WinogradLayer::new(shape2d(), &[2, 2], ConvOptions::default()).unwrap();
        let scratch = Scratch::new(&fused, 2);
        assert!(scratch.fits(&fused, 2) && scratch.fits(&fused, 1));
        assert!(!scratch.fits(&fused, 3), "too few thread slots");
        assert!(!scratch.fits(&staged, 1) && !scratch.fits(&other_tile, 1));
    }

    #[test]
    fn three_d_plan() {
        let s = ConvShape::new(1, 16, 16, &[6, 8, 8], &[3, 3, 3], &[1, 1, 1]).unwrap();
        let layer = WinogradLayer::new(s, &[2, 4, 4], ConvOptions::default()).unwrap();
        assert_eq!(layer.t_vol(), 4 * 6 * 6);
        assert_eq!(layer.grid.counts, vec![3, 2, 2]);
    }

    #[test]
    fn budget_admits_and_rejects_by_conditioning() {
        // γ(4,3)·ε ≈ 5.72e-6, γ(6,3)·ε ≈ 8.07e-6, γ(8,3)·ε ≈ 1.07e-4
        // (mixed points). A 6e-6 budget sits between m=4 and m=5.
        let tight = ConvOptions {
            budget: Some(AccuracyBudget::new(6e-6)),
            ..Default::default()
        };
        let s = ConvShape::new(1, 32, 32, &[20, 20], &[3, 3], &[1, 1]).unwrap();
        assert!(WinogradLayer::new(s.clone(), &[4, 4], tight).is_ok());
        assert!(matches!(
            WinogradLayer::new(s.clone(), &[8, 8], tight),
            Err(PlanError::AccuracyBudget { dim: 0, m: 8 })
        ));
        // No budget (the default): any structurally valid tile plans.
        assert!(WinogradLayer::new(s, &[8, 8], ConvOptions::default()).is_ok());
    }

    #[test]
    fn predicted_bound_is_monotone_in_tile_size() {
        let mut last = 0.0;
        for m in [2, 4, 6, 8] {
            let s = ConvShape::new(1, 32, 32, &[20, 20], &[3, 3], &[1, 1]).unwrap();
            let layer = WinogradLayer::new(s, &[m, m], ConvOptions::default()).unwrap();
            let b = layer.predicted_bound();
            assert!(b > last, "bound not monotone at m={m}: {b} ≤ {last}");
            assert!(b.is_finite() && b > 0.0);
            last = b;
        }
    }

    #[test]
    fn asymmetric_tiles_and_kernels() {
        // F(6×8, 3×3)-style and arbitrary kernel 4×2.
        let s = ConvShape::new(1, 16, 16, &[20, 20], &[4, 2], &[0, 0]).unwrap();
        let layer = WinogradLayer::new(s, &[3, 5], ConvOptions::default()).unwrap();
        assert_eq!(layer.plans[0].alpha(), 6);
        assert_eq!(layer.plans[1].alpha(), 6);
        assert_eq!(layer.grid.out_dims, vec![17, 19]);
    }
}
