//! Layer plans and scratch buffers.
//!
//! A [`WinogradLayer`] fixes everything known at "instantiation time" in
//! the paper's C++ artifact: the layer shape, the `F(m, r)` transform
//! programs per dimension, the stage-2 blocking parameters, which of
//! three schedules runs the layer — the paper's three stages; when `V̂`
//! plus a per-thread ring fit the L2, the ring-fused driver of `fused.rs`
//! ([`WinogradLayer::is_fused`]); when rows are few and a block of `V̂`
//! plus a slice of `Û` fit it instead, the dual ring of the same file
//! ([`WinogradLayer::is_dual`]) — and whether its stores bypass the cache
//! ([`WinogradLayer::streams`]). A [`Scratch`] is the paper's auxiliary
//! buffer (§4.4 "Memory overhead"), reused across layers. For a staged
//! plan it holds `I` (transformed inputs), `W` (transformed kernels),
//! `I'_tmp` and tile-major `I'`; for a ring plan `W` and one ring per
//! thread slot; for a dual plan `I` and one ring per thread slot. What a
//! plan's scratch starts without appears only if a staged function is
//! ever called on it.

// Index-based loops are the idiom throughout: most walk several
// arrays with derived offsets, where iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]
use std::cell::UnsafeCell;

use wino_gemm::{default_shape, BlockShape};
use wino_simd::{AlignedVec, S};
use wino_tensor::{BlockedMatrices, ConvShape, ShapeError, TileGrid};
use wino_transforms::FmrPlan;

use crate::fused::Schedule;
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

/// Pre-compiled machine-code kernels for one stage-2 blocking: the β = 0/1
/// block kernels for intermediate reduction blocks and the scatter kernels
/// (full-height and tail panels) for the final one.
pub(crate) struct JitKernels {
    pub block0: Option<wino_jit::JitKernel>,
    pub block1: Option<wino_jit::JitKernel>,
    pub scatter_full: wino_jit::JitKernel,
    pub scatter_tail: Option<wino_jit::JitKernel>,
    /// Rows of the final, partially filled panel (0 = all panels full).
    pub tail: usize,
}

impl JitKernels {
    /// Compile the kernels of `block` for a layer of `c` input channels and
    /// `rows` panel rows whose last reduction block scatters to `output`.
    fn compile(
        block: BlockShape,
        c: usize,
        rows: usize,
        output: wino_jit::JitOutput,
    ) -> Result<JitKernels, wino_jit::JitError> {
        use wino_jit::JitKernel;
        let BlockShape { n_blk, c_blk, cp_blk } = block;
        let k_blocks = c / c_blk;
        let tail = rows % n_blk;
        // The last reduction block always runs a scatter kernel, so the
        // plain block kernels cover only the k-blocks before it.
        let plain = |beta| JitKernel::compile(n_blk, c_blk, cp_blk, beta);
        let block0 = (k_blocks > 1).then(|| plain(false)).transpose()?;
        let block1 = (k_blocks > 2).then(|| plain(true)).transpose()?;
        let scatter =
            |panel_rows| JitKernel::compile_with_output(panel_rows, c_blk, cp_blk, k_blocks > 1, output);
        let scatter_tail = (tail != 0).then(|| scatter(tail)).transpose()?;
        Ok(JitKernels { block0, block1, scatter_full: scatter(n_blk)?, scatter_tail, tail })
    }
}

/// The JIT stage-2 backend of a plan: the three stages' kernels and, for
/// a ring or dual plan, those that scatter into a thread's ring.
pub(crate) struct JitStage2 {
    /// At the plan's blocking, scattering into the tile-major `Y`.
    pub staged: JitKernels,
    /// Plain-store kernels that scatter into a thread's ring, its group
    /// stride baked in: a ring plan's at the ring's panel height (one
    /// reduction block, so β = 0 scatters only); a dual plan's at the dual
    /// ring's blocking — `None` when that and the store flavour are the
    /// staged kernels' own, which then serve it.
    pub ring: Option<JitKernels>,
}

impl std::fmt::Debug for JitStage2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JitStage2 {{ tail: {}, ring: {} }}", self.staged.tail, self.ring.is_some())
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
    /// Which driver runs the plan (`fused::schedule`).
    pub(crate) schedule: Schedule,
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
    /// The schedule kind a test plans whatever the caches say
    /// ([`Host::test`]).
    #[cfg(test)]
    pub pin: Option<Pin>,
}

impl Host {
    /// The caches of the machine this process runs on.
    fn detected() -> Host {
        Host {
            l2_bytes: wino_sched::l2_bytes_per_thread(),
            llc_bytes: wino_sched::llc_bytes(),
            #[cfg(test)]
            pin: None,
        }
    }
}

impl WinogradLayer {
    /// Plan `F(m₁×…×m_n, r₁×…×r_n)` for the given layer on this host.
    pub fn new(shape: ConvShape, m: &[usize], opts: ConvOptions) -> Result<WinogradLayer, PlanError> {
        WinogradLayer::new_on(shape, m, opts, Host::detected())
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
        let (t_vol, c, cp) = (grid.tile_volume(), shape.in_channels, shape.out_channels);
        let explicit = opts.block.is_some();
        let schedule = crate::fused::schedule(t_vol, c, cp, rows, host.l2_bytes, block, explicit);
        #[cfg(test)]
        let schedule = host.pin.map_or(schedule, |pin| pin.schedule(t_vol, c, cp, rows, block, explicit));
        let mut layer =
            WinogradLayer { shape, grid, plans, block, opts, schedule, streams: false, jit: None };
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
        use wino_jit::{JitError, JitOutput};
        let jit_err = |e: JitError| PlanError::Jit {
            reason: match e {
                JitError::Avx512Unavailable => "AVX-512F not available (CPU or WINO_SIMD)",
                JitError::BadParams(reason) => reason,
                JitError::Os(_) => "executable mapping failed",
            },
        };
        let (c, rows, t_vol) = (self.shape.in_channels, self.rows(), self.t_vol());
        let compile = |block, group_stride, streaming| {
            JitKernels::compile(block, c, rows, JitOutput::Scatter { group_stride, streaming })
                .map_err(jit_err)
        };
        // Tile-major group stride (floats): see `TileMajor::group_stride`.
        let group_stride = self.n_tiles() * t_vol * S;
        let staged = compile(self.block, group_stride, self.streams)?;
        // What a ring scatters stays in the core's own cache: plain stores —
        // a ring panel's `X̂` chunks at the ring's group stride, or a dual
        // column group's tile-major chunks at the staged one.
        let ring = match self.schedule {
            Schedule::Staged => None,
            Schedule::Ring { rows: n } => {
                Some(compile(BlockShape { n_blk: n, ..self.block }, n * t_vol * S, false)?)
            }
            Schedule::Dual { c_blk, cols } => {
                let block = BlockShape { c_blk, cp_blk: cols, ..self.block };
                let own = block != self.block || self.streams;
                own.then(|| compile(block, group_stride, false)).transpose()?
            }
        };
        Ok(JitStage2 { staged, ring })
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
        matches!(self.schedule, Schedule::Ring { .. })
    }

    /// Whether `forward` runs this plan through the dual ring (`fused.rs`:
    /// the input transform, then one fork–join in which each task
    /// transforms `C_blk × cols` blocks of `V̂` into a per-thread ring,
    /// multiplies `Û`'s slices against them into a cache-resident
    /// accumulator and inverse-transforms its column group) instead of the
    /// three stages — `V̂` is never materialised. Decided at plan time:
    /// the ring turned the plan down, a slice of `Û`, a block of `V̂` and
    /// the accumulator fit ¾ of the detected L2, and re-reading `Û` once
    /// per column group moves fewer bytes than `V̂`'s round trip. The dual
    /// ring multiplies at its own `(C_blk, cols)` — one vector each way
    /// unless `ConvOptions::block` says otherwise — while
    /// [`WinogradLayer::block`] stays the three stages': `forward_fx`
    /// (whose `V̂` is memoised), the public stage functions and a call whose
    /// executor has more threads than the plan has column groups run them
    /// exactly as on a staged plan. Results are bit-identical either way.
    pub fn is_dual(&self) -> bool {
        matches!(self.schedule, Schedule::Dual { .. })
    }

    /// Whether this plan's stores to `Û`, `V̂`, the tile-major `X̂` and the
    /// output image are non-temporal (§4.2.1) rather than plain. Decided
    /// at plan time: streaming iff the bytes a forward pass hands from one
    /// fork–join to the next — the plan's scratch plus its output image —
    /// exceed a fifth of the detected last-level cache
    /// ([`wino_sched::llc_bytes`]), the share past which the next fork–join
    /// does not find them there anyway. What a ring or dual plan keeps in
    /// its per-thread rings is always stored plainly. Results are
    /// bit-identical either way.
    pub fn streams(&self) -> bool {
        self.streams
    }

    /// Floats of one thread slot's ring. A ring plan's: an `n_blk`-row
    /// block of `Û` plus the same rows' tile-major `X̂` chunks. A dual
    /// plan's: a `C_blk × cols` block of `V̂`, the `cols`-wide accumulator
    /// (every row block, padding included) and the rows' tile-major chunks.
    /// 0 for a staged plan.
    pub(crate) fn ring_floats(&self) -> usize {
        let (c, cp, t_vol) = (self.shape.in_channels, self.shape.out_channels, self.t_vol());
        match self.schedule {
            Schedule::Staged => 0,
            Schedule::Ring { rows: n } => t_vol * n * (c + cp),
            Schedule::Dual { c_blk, cols } => {
                t_vol * cols * (c_blk + self.row_blocks() * self.block.n_blk + self.rows())
            }
        }
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
    /// A ring or dual plan's ring ([`WinogradLayer::ring_floats`]). A ring
    /// plan's: one `n_blk`-row block of `Û` (`[t][n_blk][C]`), then the
    /// same rows' tile-major `X̂` chunks (`[C'/S][n_blk][T][S]`). A dual
    /// plan's: one block of `V̂` (`[t][C_blk][cols]`), the accumulator
    /// (`[row block][t][n_blk][cols]`), then the tile-major chunks of one
    /// column group (`[B][cols/S][N][T][S]`). Every panel or column group
    /// the slot processes goes through these same addresses. Empty for a
    /// staged plan.
    pub ring: AlignedVec,
    /// Nanoseconds this slot spent in the three phases of the ring or dual
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
    schedule: Schedule,
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
            schedule: layer.schedule,
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
/// across invocations (and across layers of the same plan): per-thread
/// codelet buffers always; for a staged plan transformed inputs `I` (`u`),
/// transformed kernels `W` (`v`), the blocked intermediate `I'_tmp` (`x`)
/// and the tile-major transformed outputs `I'` (`y`); for a ring plan
/// ([`WinogradLayer::is_fused`]) `v` and one ring per thread slot; for a
/// dual plan ([`WinogradLayer::is_dual`]) `u` and one ring per thread slot.
///
/// What a plan's scratch starts without — a ring plan's `u`, `x` and `y`,
/// a dual plan's `v`, `x` and `y` — the first call that needs it
/// allocates, fallibly, at the shapes a staged plan's have: a staged
/// function ([`crate::stage1::transform_inputs`],
/// [`crate::stage1::transform_kernels`], [`crate::stage2::multiply`],
/// [`crate::stage3::inverse_transform`]), `prepare_kernels`, a dual plan's
/// `forward_fx`, or a forward on an executor with more threads than the
/// plan has ring panels or column groups.
///
/// `u` is laid out at the plan's blocking. A dual forward pass lays the
/// same bytes out at the dual ring's `C_blk` instead — the row blocks, and
/// so the size, are the same — and reads only what it wrote itself.
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
        let staged = layer.schedule == Schedule::Staged;
        let held =
            |held: bool, dims| if held { seam.matrices(dims) } else { Ok(BlockedMatrices::placeholder()) };
        let u = held(!layer.is_fused(), shape.u())?;
        let v = held(!layer.is_dual(), shape.v())?;
        let x = held(staged, shape.x())?;
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

    /// Make sure the layer-sized `u`, `x` and `y` the stages hand on
    /// exist — a ring or dual plan's scratch starts without some of them.
    /// All that are missing or none: a refusal leaves the scratch as it
    /// was.
    pub(crate) fn materialise(&mut self) -> Result<(), wino_simd::AllocError> {
        let seam = Seam { fallible: true, exec: None };
        let missing =
            |m: &BlockedMatrices, dims| (m.t_count() == 0).then(|| seam.matrices(dims)).transpose();
        let u = missing(&self.u, self.shape.u())?;
        let x = missing(&self.x, self.shape.x())?;
        let y = (self.y.t_vol() == 0).then(|| seam.tile_major(&self.shape)).transpose()?;
        if let Some(u) = u {
            self.u = u;
        }
        if let Some(x) = x {
            self.x = x;
        }
        if let Some(y) = y {
            self.y = y;
        }
        Ok(())
    }

    /// Make sure the layer-sized kernel transforms `v` exist — a dual
    /// plan's scratch starts without them.
    pub(crate) fn materialise_v(&mut self) -> Result<(), wino_simd::AllocError> {
        if self.v.t_count() == 0 {
            self.v = Seam { fallible: true, exec: None }.matrices(self.shape.v())?;
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

/// A schedule kind a test pins ([`Host::test`]).
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Pin {
    Staged,
    /// The ring, on every layer with one reduction block (else staged).
    Ring,
    /// The dual ring at the `(C_blk, cols)` the rule would pick, on every
    /// layer.
    Dual,
}

#[cfg(test)]
impl Pin {
    /// The schedule this pin plans for a layer of the given sizes.
    fn schedule(
        self,
        t_vol: usize,
        c: usize,
        cp: usize,
        rows: usize,
        block: BlockShape,
        explicit: bool,
    ) -> Schedule {
        match self {
            Pin::Staged => Schedule::Staged,
            Pin::Ring => {
                let n_blk = explicit.then_some(block.n_blk);
                crate::fused::ring_rows(t_vol, c, cp, c / block.c_blk, rows, usize::MAX, n_blk)
                    .map_or(Schedule::Staged, |rows| Schedule::Ring { rows })
            }
            Pin::Dual => {
                let (c_blk, cols) = crate::fused::dual_blocking(block, explicit);
                Schedule::Dual { c_blk, cols }
            }
        }
    }
}

#[cfg(test)]
impl Host {
    /// A host on which every plan runs the `pin`ned schedule kind and
    /// every plan `streams` its stores (else none).
    pub(crate) fn test(pin: Pin, streams: bool) -> Host {
        Host { l2_bytes: 0, llc_bytes: if streams { 0 } else { usize::MAX }, pin: Some(pin) }
    }
}

/// Options whose explicit blocking cuts the reduction of any layer with
/// `C ≥ 32` into two or more blocks: partial sums have no place in a ring,
/// so the ring turns the plan down whatever the host's L2 — and on fewer
/// than 32 rows the dual ring takes it. The unit tests' way to a plan that
/// is not a ring on a small shape.
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
        let host = Host::test(Pin::Staged, false);
        let staged = WinogradLayer::new_on(shape2d(), &[4, 4], split_reduction(), host).unwrap();
        assert!(!staged.is_fused() && !staged.is_dual());
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
        let Schedule::Ring { rows } = fused.schedule else { unreachable!() };
        assert_eq!(ring, 36 * rows * (32 + 32));
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

        // A dual plan holds `u` and one ring per slot — a 16 × 16 block of
        // V̂, the accumulator over three 6-row blocks and 18 rows of
        // chunks — and grows `x` and `y` for a stage, `v` for a kernel
        // transform.
        let host = Host::test(Pin::Dual, false);
        let dual = WinogradLayer::new_on(shape2d(), &[4, 4], split_reduction(), host).unwrap();
        assert_eq!(dual.schedule, Schedule::Dual { c_blk: 16, cols: 16 });
        let mut scratch = Scratch::new(&dual, 4);
        assert_eq!(dual.ring_floats(), 36 * 16 * (16 + 18 + 18));
        assert_eq!(scratch.bytes(), scratch.u.bytes() + 4 * dual.ring_floats() * 4);
        assert_eq!(scratch.v.bytes() + scratch.x.bytes() + scratch.y.bytes(), 0);
        let held = scratch.u.as_ptr();
        scratch.materialise().unwrap();
        assert_staged_shapes(&scratch);
        assert_eq!((scratch.u.as_ptr(), scratch.v.bytes()), (held, 0), "`u` kept, no `v`");
        scratch.materialise_v().unwrap();
        assert_eq!((scratch.v.rows(), scratch.v.cols()), (32, 32));

        // The dual ring's blocking is its own; the plan's stays the three
        // stages', which a dual scratch's buffers are shaped by.
        let dual = WinogradLayer::new_on(shape2d(), &[4, 4], ConvOptions::default(), host).unwrap();
        let eq11 = default_shape(32, 32, 18);
        assert_eq!((dual.schedule, dual.block), (Schedule::Dual { c_blk: S, cols: S }, eq11));
        let scratch = Scratch::new(&dual, 1);
        assert_eq!((scratch.u.rb(), scratch.u.cb()), (eq11.n_blk, eq11.c_blk));
        assert_ne!(eq11.c_blk, S);
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
        // The same blocking on another schedule is another scratch.
        let opts = split_reduction();
        let pinned = |pin| {
            WinogradLayer::new_on(shape2d(), &[4, 4], opts, Host::test(pin, false)).unwrap()
        };
        let (dual, staged) = (pinned(Pin::Dual), pinned(Pin::Staged));
        assert!(!Scratch::new(&dual, 1).fits(&staged, 1) && !Scratch::new(&staged, 1).fits(&dual, 1));
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
