//! Layer plans and scratch buffers.
//!
//! A [`WinogradLayer`] fixes everything known at "instantiation time" in
//! the paper's C++ artifact: the layer shape, the `F(m, r)` of each
//! dimension (its row of the generated codelet table), the stage-2
//! blocking parameters, which of three schedules runs the layer — the
//! paper's three stages; when `V̂` plus a per-thread ring fit the L2, the
//! ring-fused driver of `fused.rs` ([`WinogradLayer::is_fused`]); when
//! rows are few and a block of `V̂` plus a slice of `Û` fit it instead, the
//! dual ring of the same file ([`WinogradLayer::is_dual`]) — and whether
//! its stores bypass the cache ([`WinogradLayer::streams`]). The schedule
//! is the layer's sizes against the L2, the store flavour its hand-off
//! against the last-level cache: a layer of a `Network` plans as it plans
//! alone. A [`Scratch`] is the paper's auxiliary
//! buffer (§4.4 "Memory overhead"), reused across layers. For a staged
//! plan it holds `I` (transformed inputs), `I'_tmp` and tile-major `I'`;
//! for a ring plan one ring per thread slot; for a dual plan `I` and one
//! ring per thread slot. No scratch starts with `W` (transformed
//! kernels): the first training-mode call grows it, `prepare_kernels`
//! takes it. What a plan's scratch starts without, or has given up,
//! appears only if a call needs it.

// Index-based loops are the idiom throughout: most walk several
// arrays with derived offsets, where iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]
use std::cell::UnsafeCell;

use wino_gemm::{default_shape, BlockShape};
use wino_jit::JitOutput;
use wino_simd::{AlignedVec, S};
use wino_tensor::{BlockedMatrices, ConvShape, ShapeError, TileGrid};

use crate::codelet::Row;
use crate::fused::Schedule;
use crate::layout::TileMajor;
use crate::stage2::Gemm;

/// Maximum supported spatial rank (the stages use fixed-size index
/// buffers; 6 covers any practical ConvNet with room to spare).
pub const MAX_RANK: usize = 6;

/// Which engine executes stage 2's micro-kernels. The default follows the
/// host: [`Stage2Backend::Jit`] when the active vector backend
/// ([`wino_simd::try_backend`]) is AVX-512, [`Stage2Backend::Mono`]
/// otherwise — below AVX-512, or when `WINO_SIMD` cannot be honoured. On
/// AVX-512 the two walk the same register tiles and FMA chains: results
/// are bit-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage2Backend {
    /// Const-generic monomorphised Rust kernels (`wino-gemm`): the engine
    /// below AVX-512, the `jit → mono` degradation row and the JIT's `==`
    /// reference.
    Mono,
    /// Run-time generated machine code (`wino-jit`) — the paper's JIT,
    /// including the in-kernel streaming scatter. Requires AVX-512F at
    /// runtime; planning fails with [`PlanError::Jit`] otherwise.
    Jit,
}

impl Default for Stage2Backend {
    fn default() -> Self {
        match wino_simd::try_backend() {
            Ok(backend) if backend.name() == "avx512" => Stage2Backend::Jit,
            _ => Stage2Backend::Mono,
        }
    }
}

/// Tuning and ablation switches.
#[derive(Clone, Copy, Debug)]
pub struct ConvOptions {
    /// Explicit blocking parameters; `None` uses the Eq. 11 model
    /// default (`wino_gemm::default_shape`). An explicit shape also pins
    /// the ring's panel height and the dual ring's `(C_blk, C'_blk)`;
    /// tests and `fusion --n-blk` set it to sweep blockings.
    pub block: Option<BlockShape>,
    /// Stage-2 kernel engine.
    pub stage2: Stage2Backend,
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
    /// `F(m, r)` of dimension `dim` has no transform codelets: the tile
    /// `m` is outside `1..=8` or the kernel width `r` outside `1..=5`
    /// ([`crate::codelet::in_table`]).
    BadTileSize { dim: usize, m: usize, r: usize },
    /// Blocking parameters incompatible with the channel counts.
    BadBlocking { reason: &'static str },
    /// JIT stage-2 backend requested but unavailable (no AVX-512F, or
    /// code emission failed).
    Jit { reason: &'static str },
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
            PlanError::BadTileSize { dim, m, r } => {
                write!(f, "no transform codelets for F({m}, {r}) in dimension {dim}")
            }
            PlanError::BadBlocking { reason } => write!(f, "bad blocking: {reason}"),
            PlanError::Jit { reason } => write!(f, "jit backend unavailable: {reason}"),
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

/// A fully planned N-D Winograd convolution for one layer shape and one
/// choice of `F(m, r)`: `F(grid.m[d], grid.r[d])` per dimension `d`.
#[derive(Debug)]
pub struct WinogradLayer {
    pub shape: ConvShape,
    pub grid: TileGrid,
    /// Stage-2 blocking `(n_blk, C_blk, C'_blk)`.
    pub block: BlockShape,
    pub opts: ConvOptions,
    /// Which driver runs the plan (`fused::schedule`).
    pub(crate) schedule: Schedule,
    /// Whether the stores that hand data to a later fork–join — `Û`, `V̂`,
    /// the ⑥ scatter, the output image — are non-temporal
    /// (`fused::streams`).
    pub(crate) streams: bool,
    /// Stage 2 at [`WinogradLayer::block`] on `opts.stage2`, scattering
    /// into the tile-major `Y`, streaming when the plan streams.
    pub(crate) gemm: Gemm,
    /// A ring or dual plan's stage 2 into a thread's ring: a ring plan's
    /// at the ring's panel height, scattering plainly; a dual plan's at the
    /// dual ring's blocking, block kernels only
    /// ([`WinogradLayer::ring_gemm`]). `None` for a staged plan.
    pub(crate) ring_gemm: Option<Gemm>,
}

/// What a plan's schedule and store flavour are decided from besides the
/// layer: the host's two cache sizes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Host {
    /// L2 one thread can count on ([`wino_sched::l2_bytes_per_thread`]):
    /// what the schedule reads (`fused::schedule`).
    pub l2_bytes: usize,
    /// Last-level cache ([`wino_sched::llc_bytes`]): what the store
    /// flavour reads (`fused::streams`).
    pub llc_bytes: usize,
    /// The schedule kind a test plans whatever the caches say
    /// ([`Host::test`]).
    #[cfg(test)]
    pub pin: Option<Pin>,
}

impl Host {
    /// The caches of the machine this process runs on.
    pub(crate) fn detected() -> Host {
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

    /// [`WinogradLayer::new`] on `host`.
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
        for d in 0..rank {
            // The transform stages run generated codelets and nothing
            // else: a dimension without a table row does not plan.
            let r = shape.kernel_dims[d];
            if !crate::codelet::in_table(m[d], r) {
                return Err(PlanError::BadTileSize { dim: d, m: m[d], r });
            }
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
        let schedule = crate::fused::schedule(t_vol, (c, cp), rows, host.l2_bytes, block, explicit);
        #[cfg(test)]
        let schedule = host.pin.map_or(schedule, |pin| pin.schedule(t_vol, (c, cp), rows, block, explicit));
        // Stand-in Mono kernels, which compile nothing, until the store
        // flavour — read off the plan's footprint — is known.
        let mono = Gemm::new(Stage2Backend::Mono, block, c, rows, JitOutput::Block)?;
        let mut layer =
            WinogradLayer { shape, grid, block, opts, schedule, streams: false, gemm: mono, ring_gemm: None };
        layer.streams = crate::fused::streams(layer.hand_off_bytes(), host.llc_bytes);
        // Tile-major group stride (floats): see `TileMajor::group_stride`.
        let chunk = TileMajor::chunk_pitch(t_vol);
        let group_stride = layer.n_tiles() * chunk;
        let gemm = |block, output| Gemm::new(opts.stage2, block, c, rows, output);
        let scatter = |group_stride, streaming| JitOutput::Scatter { group_stride, streaming };
        layer.gemm = gemm(block, scatter(group_stride, layer.streams))?;
        // What a ring holds stays in the core's own cache: a ring panel's
        // `X̂` chunks are scattered with plain stores at the ring's group
        // stride; a dual column group's accumulator is never scattered.
        layer.ring_gemm = match layer.schedule {
            Schedule::Staged => None,
            Schedule::Ring { rows: n } => Some(gemm(BlockShape { n_blk: n, ..block }, scatter(n * chunk, false))?),
            Schedule::Dual { c_blk, cols } => Some(gemm(BlockShape { c_blk, cp_blk: cols, ..block }, JitOutput::Block)?),
        };
        Ok(layer)
    }

    /// Bytes a forward pass of this plan hands from one fork–join to the
    /// next, at one thread slot: its scratch and its output image, and
    /// `V̂` unless a dual ring carries it a block at a time.
    pub(crate) fn hand_off_bytes(&self) -> usize {
        let fp = self.footprint(1);
        let v = if self.is_dual() { 0 } else { fp.transformed_kernel_bytes };
        fp.scratch_bytes + fp.output_bytes + v
    }

    /// Number of spatial dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Each dimension's row of the generated codelet table, in order.
    pub(crate) fn table_rows(&self) -> impl Iterator<Item = &'static Row> + '_ {
        let (m, r) = (&self.grid.m, &self.grid.r);
        m.iter().zip(r).map(|(&m, &r)| {
            crate::codelet::row(m, r).expect("`WinogradLayer::new` plans table rows only")
        })
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
    /// L2 ([`wino_sched::l2_bytes_per_thread`]), alone or in a
    /// [`crate::Network`]. A call whose executor has
    /// more threads than the plan has ring panels runs the three stages
    /// all the same; results are bit-identical either way.
    pub fn is_fused(&self) -> bool {
        matches!(self.schedule, Schedule::Ring { .. })
    }

    /// Whether `forward` runs this plan through the dual ring (`fused.rs`:
    /// the input transform, then one fork–join in which each task
    /// transforms `C_blk × cols` blocks of `V̂` into a per-thread ring,
    /// multiplies `Û`'s slices against them into a cache-resident
    /// accumulator and inverse-transforms its column group from there)
    /// instead of the three stages — `V̂` is never materialised. Decided at
    /// plan time: the ring turned the plan down, a slice of `Û`, a block of
    /// `V̂` and the accumulator fit ¾ of the detected L2, and re-reading `Û`
    /// once per column group — one vector wide, for the default blocking —
    /// moves fewer bytes than `V̂`'s round trip. The dual ring multiplies at
    /// its own `(C_blk, cols)` — one vector deep and two wide where two
    /// divide `C'` and fit, else one, unless `ConvOptions::block` says
    /// otherwise — while
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

    /// Bytes of the transformed inputs `u` this plan's scratch holds
    /// (a ring plan's only once a stage asks for them): at the plan's
    /// blocking, or — a dual plan — at the dual ring's `C_blk` when that
    /// layout is the larger ([`Scratch`]).
    pub(crate) fn u_bytes(&self) -> usize {
        matrix_floats(ScratchShape::of(self).u_held()) * std::mem::size_of::<f32>()
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
    /// where γ is the amplification factor of each dimension's transforms,
    /// computed from the exact rational matrices when the codelet table
    /// was generated (`Conditioning` of `wino-transforms`), and
    /// `C · ∏ r` counts the accumulation length of the channel/tap
    /// reduction. Deliberately conservative (a guaranteed no-false-trip
    /// threshold for the runtime accuracy sentinels, often orders of
    /// magnitude above typical error) but strictly monotone in every
    /// `m_d`, which is what bound-driven tile demotion needs.
    pub fn predicted_bound(&self) -> f64 {
        let gamma: f64 = self.table_rows().map(|row| row.gamma).product();
        let taps: usize = self.shape.kernel_dims.iter().product();
        let terms = (self.shape.in_channels * taps) as f64;
        f64::from(f32::EPSILON) * gamma * terms
    }
}

/// One executor thread slot's private working memory, on cache lines of
/// its own: the slots sit side by side in [`Scratch`], and a slot's
/// `phase_ns` and `nonfinite` are written while its neighbour's thread
/// reads its own buffer pointers. 128 B — the adjacent-line prefetcher
/// pairs lines — and a slot is ≈ 100 B.
#[repr(align(128))]
pub(crate) struct ThreadBuf {
    /// Ping-pong tile buffers (each `T·S` floats).
    pub a: AlignedVec,
    pub b: AlignedVec,
    /// A ring or dual plan's ring, laid out as [`WinogradLayer::ring`]
    /// says. A ring plan's: one `n_blk`-row block of `Û` (`[t][n_blk][C]`),
    /// then the same rows' tile-major `X̂` chunks (`[C'/S][n_blk][T][S]`).
    /// A dual plan's: one block of `V̂` (`[t][C_blk][cols]`), then the
    /// accumulator stage 3 reads (`[row block][t][n_blk][cols]`). The
    /// blocks and the chunks are each one pitch apart, an odd number of
    /// lines (`wino_tensor::scatter_pitch`). Every panel or column group
    /// the slot processes goes through these same addresses. Empty for a
    /// staged plan.
    pub ring: AlignedVec,
    /// Nanoseconds this slot spent in the three phases of the ring or dual
    /// fork–join in flight (written only while a probe collects spans).
    pub phase_ns: [u64; 3],
    /// Whether the numeric guard saw a non-finite value in an output tile
    /// this slot wrote in the fork–join in flight (`stage3::Epilogue`);
    /// cleared by the coordinator after every fork–join (`stage3::judge`).
    pub nonfinite: bool,
}

impl ThreadBuf {
    /// `[a, b]` as the temporaries of [`crate::codelet::TileTransform::run`].
    pub(crate) fn ptrs(&mut self) -> [*mut f32; 2] {
        [self.a.as_mut_ptr(), self.b.as_mut_ptr()]
    }
}

/// Everything the shapes of a [`Scratch`]'s buffers derive from.
#[derive(Clone, Copy, Debug)]
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
            ring_floats: layer.ring().floats,
        }
    }

    /// `(t, rows, cols, rb, cb)` of the transformed inputs `u`.
    fn u(&self) -> [usize; 5] {
        [self.t_vol, self.batch * self.n_tiles, self.c, self.block.n_blk, self.block.c_blk]
    }

    /// … of `u` sized for both of its layouts: the plan's, and a dual
    /// plan's at the dual ring's `C_blk` — whose blocks, each padded to an
    /// odd number of lines, may take more bytes than the plan's.
    fn u_held(&self) -> [usize; 5] {
        let plan = self.u();
        match self.schedule {
            Schedule::Dual { c_blk, .. } => {
                let dual = [self.t_vol, self.batch * self.n_tiles, self.c, self.block.n_blk, c_blk];
                if matrix_floats(dual) > matrix_floats(plan) { dual } else { plan }
            }
            _ => plan,
        }
    }

    /// … of the transformed kernels `v`.
    fn v(&self) -> [usize; 5] {
        [self.t_vol, self.c, self.cp, self.block.c_blk, self.block.cp_blk]
    }

    /// … of the blocked intermediate `x`.
    fn x(&self) -> [usize; 5] {
        [self.t_vol, self.batch * self.n_tiles, self.cp, self.block.n_blk, self.block.cp_blk]
    }

    /// `(batch, C', N, T)` of the tile-major `y`.
    fn y(&self) -> [usize; 4] {
        [self.batch, self.cp, self.n_tiles, self.t_vol]
    }

    /// Whether a plan of this shape starts with a `u` (all but a ring
    /// plan) and with `x` and `y` (a staged plan).
    fn holds_u(&self) -> bool {
        !matches!(self.schedule, Schedule::Ring { .. })
    }

    fn holds_xy(&self) -> bool {
        self.schedule == Schedule::Staged
    }
}

fn matrix_floats([t, rows, cols, rb, cb]: [usize; 5]) -> usize {
    BlockedMatrices::bytes_for(t, rows, cols, rb, cb) / std::mem::size_of::<f32>()
}

/// Re-view `m` as `dims`, growing it only when it is too small.
fn view(m: &mut BlockedMatrices, [t, rows, cols, rb, cb]: [usize; 5]) -> Result<(), wino_simd::AllocError> {
    m.try_reshape(t, rows, cols, rb, cb)
}

/// View nothing of `m`, keeping its bytes.
fn hide(m: &mut BlockedMatrices) {
    m.try_reshape(0, 0, 0, 1, S).expect("a view of nothing allocates nothing");
}

/// Make `buf` hold at least `len` floats: kept when it does, else
/// released before a fallible, zero-filled request.
fn grow(buf: &mut AlignedVec, len: usize) -> Result<(), wino_simd::AllocError> {
    if buf.len() < len {
        // ALLOC: zero-length — a dangling aligned pointer, no allocator
        // call; it releases the old bytes before the fallible request.
        *buf = AlignedVec::zeroed(0);
        *buf = AlignedVec::try_zeroed(len)?;
    }
    Ok(())
}

/// How a [`Scratch`] buffer is allocated: aborting on a refusal, or with a
/// typed error.
#[derive(Clone, Copy)]
struct Seam {
    fallible: bool,
}

impl Seam {
    fn matrices(
        self,
        [t, rows, cols, rb, cb]: [usize; 5],
    ) -> Result<BlockedMatrices, wino_simd::AllocError> {
        if self.fallible {
            return BlockedMatrices::try_new(t, rows, cols, rb, cb);
        }
        Ok(BlockedMatrices::new(t, rows, cols, rb, cb))
    }

    fn tile_major(self, [b, cp, n, t]: [usize; 4]) -> Result<TileMajor, wino_simd::AllocError> {
        if self.fallible {
            return TileMajor::try_new(b, cp, n, t);
        }
        Ok(TileMajor::new(b, cp, n, t))
    }

    /// A zeroed per-slot buffer.
    fn zeroed(self, len: usize) -> Result<AlignedVec, wino_simd::AllocError> {
        if self.fallible {
            return AlignedVec::try_zeroed(len);
        }
        // ALLOC: the infallible Scratch constructors abort on a refusal
        // by contract; `try_new` is the accounted path.
        Ok(AlignedVec::zeroed(len))
    }

    /// One thread slot's buffers: two `tile`-float codelet buffers and a
    /// `ring`-float ring.
    fn slot(self, tile: usize, ring: usize) -> Result<UnsafeCell<ThreadBuf>, wino_simd::AllocError> {
        let (a, b, ring) = (self.zeroed(tile)?, self.zeroed(tile)?, self.zeroed(ring)?);
        Ok(UnsafeCell::new(ThreadBuf { a, b, ring, phase_ns: [0; 3], nonfinite: false }))
    }
}

/// The paper's auxiliary memory (§4.4 "Memory overhead"), reused across
/// invocations and across layers: per-thread codelet buffers always; for a
/// staged plan transformed inputs `I` (`u`), the blocked intermediate
/// `I'_tmp` (`x`) and the tile-major transformed outputs `I'` (`y`); for a
/// ring plan ([`WinogradLayer::is_fused`]) one ring per thread slot; for a
/// dual plan ([`WinogradLayer::is_dual`]) `u` and one ring per thread slot.
///
/// No scratch starts with the transformed kernels `W` (`v`): an FX
/// forward reads memoised ones, so only a training-mode call grows them.
/// What a plan's scratch starts without — `v`, a ring plan's `u`, `x` and
/// `y`, a dual plan's `x` and `y` — or has given up to `prepare_kernels`,
/// the first call that needs it allocates, fallibly, at the shapes a
/// staged plan's have: a staged function
/// ([`crate::stage1::transform_inputs`],
/// [`crate::stage1::transform_kernels`], [`crate::stage2::multiply`],
/// [`crate::stage3::inverse_transform`]), `prepare_kernels`, a
/// training-mode `forward` on a staged or ring plan, a dual plan's
/// `forward_fx`, or a forward on an executor with more threads than the
/// plan has ring panels or column groups.
///
/// Each buffer is a view of bytes that may be more than the view needs: a
/// [`crate::Network`]'s one scratch serves every layer, re-viewed for each
/// in the bytes the largest asked for, and grown — fallibly, one buffer
/// at a time — only where a layer needs more. Nothing is cleared between
/// views: every stage writes what it reads.
///
/// `u` is viewed at the plan's blocking. A dual forward pass lays its
/// bytes out at the dual ring's `C_blk` instead and reads only what it
/// wrote itself; a dual plan's `u` holds bytes for the larger of the two
/// layouts, as each pads every block to an odd number of lines.
pub struct Scratch {
    pub u: BlockedMatrices,
    pub v: BlockedMatrices,
    pub x: BlockedMatrices,
    pub y: TileMajor,
    bufs: Vec<UnsafeCell<ThreadBuf>>,
    /// The plan the buffers are viewed for.
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
        Scratch::build(&[layer], threads, Seam { fallible: false })
            .expect("the infallible seam aborts instead of returning a refusal")
    }

    /// Fallible [`Scratch::new`]: a typed [`wino_simd::AllocError`]
    /// instead of an abort when any of the scratch buffers is refused.
    /// A `Network`'s scratch, and every retry of the run-time degradation
    /// walk, allocates through this seam.
    pub fn try_new(layer: &WinogradLayer, threads: usize) -> Result<Scratch, wino_simd::AllocError> {
        Scratch::build(&[layer], threads, Seam { fallible: true })
    }

    /// One scratch for `layers`, which run one after another: each buffer
    /// sized once, to the largest need of any layer, and viewed for the
    /// first layer. A network's plan-time seed.
    pub(crate) fn try_for(layers: &[&WinogradLayer], threads: usize) -> Result<Scratch, wino_simd::AllocError> {
        Scratch::build(layers, threads, Seam { fallible: true })
    }

    fn build(layers: &[&WinogradLayer], threads: usize, seam: Seam) -> Result<Scratch, wino_simd::AllocError> {
        let shapes: Vec<ScratchShape> = layers.iter().map(|l| ScratchShape::of(l)).collect();
        // Each buffer at the largest need of the layers that hold it.
        let most = |holds: fn(&ScratchShape) -> bool, floats: fn(&ScratchShape) -> usize| {
            shapes.iter().filter(|s| holds(s)).max_by_key(|s| floats(s))
        };
        let u = match most(ScratchShape::holds_u, |s| matrix_floats(s.u_held())) {
            Some(s) => seam.matrices(s.u_held())?,
            None => BlockedMatrices::placeholder(),
        };
        let x = match most(ScratchShape::holds_xy, |s| matrix_floats(s.x())) {
            Some(s) => seam.matrices(s.x())?,
            None => BlockedMatrices::placeholder(),
        };
        let y = match most(ScratchShape::holds_xy, |s| {
            let [b, cp, n, t] = s.y();
            TileMajor::bytes_for(b, cp, n, t)
        }) {
            Some(s) => seam.tile_major(s.y())?,
            None => TileMajor::placeholder(),
        };
        let tile = shapes.iter().map(|s| s.t_vol * S).max().unwrap_or(0);
        let ring = shapes.iter().map(|s| s.ring_floats).max().unwrap_or(0);
        let bufs = (0..threads.max(1)).map(|_| seam.slot(tile, ring)).collect::<Result<_, _>>()?;
        let v = BlockedMatrices::placeholder();
        let mut scratch = Scratch { u, v, x, y, bufs, shape: shapes[0] };
        scratch.fit(layers[0], threads)?; // views only: every buffer is large enough
        Ok(scratch)
    }

    /// Re-view this scratch for `layer` at `threads` thread slots, as
    /// [`Scratch::try_new`] would build one: in the bytes it holds, growing
    /// — fallibly, after releasing the old bytes — only a buffer too small
    /// for it (or adding the slots it lacks). `v` views nothing: its bytes
    /// wait for a training-mode call. A refusal leaves the buffer it could
    /// not grow empty.
    pub(crate) fn fit(&mut self, layer: &WinogradLayer, threads: usize) -> Result<(), wino_simd::AllocError> {
        let s = ScratchShape::of(layer);
        self.shape = s;
        hide(&mut self.v);
        if s.holds_u() {
            // Bytes for both of `u`'s layouts, viewed at the plan's.
            view(&mut self.u, s.u_held())?;
            view(&mut self.u, s.u())?;
        } else {
            hide(&mut self.u);
        }
        if s.holds_xy() {
            view(&mut self.x, s.x())?;
            let [b, cp, n, t] = s.y();
            self.y.try_reshape(b, cp, n, t)?;
        } else {
            hide(&mut self.x);
            self.y.try_reshape(0, 0, 0, 0)?;
        }
        for slot in &mut self.bufs {
            let tb = slot.get_mut();
            grow(&mut tb.a, s.t_vol * S)?;
            grow(&mut tb.b, s.t_vol * S)?;
            grow(&mut tb.ring, s.ring_floats)?;
        }
        while self.bufs.len() < threads.max(1) {
            self.bufs.push(Seam { fallible: true }.slot(s.t_vol * S, s.ring_floats)?);
        }
        Ok(())
    }

    /// Keep, of this scratch and `other`, the larger of each buffer (and
    /// every thread slot either has); the views are stale until the next
    /// [`Scratch::fit`].
    pub(crate) fn absorb(&mut self, other: Scratch) {
        let Scratch { u, v, x, y, bufs, .. } = other;
        keep_larger(&mut self.u, u, BlockedMatrices::bytes);
        keep_larger(&mut self.v, v, BlockedMatrices::bytes);
        keep_larger(&mut self.x, x, BlockedMatrices::bytes);
        keep_larger(&mut self.y, y, TileMajor::bytes);
        let mut theirs = bufs.into_iter();
        for (mine, theirs) in self.bufs.iter_mut().zip(theirs.by_ref()) {
            let (mine, theirs) = (mine.get_mut(), theirs.into_inner());
            keep_larger(&mut mine.a, theirs.a, AlignedVec::bytes);
            keep_larger(&mut mine.b, theirs.b, AlignedVec::bytes);
            keep_larger(&mut mine.ring, theirs.ring, AlignedVec::bytes);
        }
        self.bufs.extend(theirs);
    }

    /// Make sure the layer-sized `u`, `x` and `y` the stages hand on
    /// exist — a ring or dual plan's scratch starts without some of them —
    /// re-viewing the bytes a buffer holds, or growing it. A refusal
    /// leaves the buffer it could not grow empty.
    pub(crate) fn materialise(&mut self) -> Result<(), wino_simd::AllocError> {
        let s = self.shape;
        if self.u.t_count() == 0 {
            view(&mut self.u, s.u())?;
        }
        if self.x.t_count() == 0 {
            view(&mut self.x, s.x())?;
        }
        if self.y.t_vol() == 0 {
            let [b, cp, n, t] = s.y();
            self.y.try_reshape(b, cp, n, t)?;
        }
        Ok(())
    }

    /// Make sure the layer-sized kernel transforms `v` exist — no scratch
    /// starts with them, and `prepare_kernels` takes them.
    pub(crate) fn materialise_v(&mut self) -> Result<(), wino_simd::AllocError> {
        if self.v.t_count() == 0 {
            view(&mut self.v, self.shape.v())?;
        }
        Ok(())
    }

    /// `make` the kernel transforms in a `v` of exactly the plan's size
    /// and take it: a larger `v` the scratch holds — grown by a larger
    /// layer of the same network — stays, viewing nothing.
    pub(crate) fn take_v<E>(
        &mut self,
        make: impl FnOnce(&mut Scratch) -> Result<(), E>,
    ) -> Result<BlockedMatrices, E> {
        let larger = self.v.bytes() > matrix_floats(self.shape.v()) * std::mem::size_of::<f32>();
        let mut held = BlockedMatrices::placeholder();
        if larger {
            std::mem::swap(&mut held, &mut self.v);
        }
        let made = make(self);
        hide(&mut held);
        let v = std::mem::replace(&mut self.v, held);
        made.map(|()| v)
    }

    /// Total auxiliary bytes held right now (the paper's memory-overhead
    /// number): the transformed-data buffers present plus every thread
    /// slot's two codelet buffers and ring — what each holds, which may be
    /// more than the plan it is viewed for needs.
    pub fn bytes(&self) -> usize {
        let slots: usize = self
            .bufs
            .iter()
            // SAFETY: `&self` with no fork–join in flight: the public
            // entry points hold the scratch `&mut` while one runs.
            .map(|tb| unsafe { &*tb.get() })
            .map(|tb| tb.a.bytes() + tb.b.bytes() + tb.ring.bytes())
            .sum();
        self.u.bytes() + self.v.bytes() + self.x.bytes() + self.y.bytes() + slots
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

/// Replace `mine` with `theirs` if `theirs` holds more bytes.
pub(crate) fn keep_larger<T>(mine: &mut T, theirs: T, bytes: impl Fn(&T) -> usize) {
    if bytes(&theirs) > bytes(mine) {
        *mine = theirs;
    }
}

/// A schedule kind a test pins ([`Host::test`]).
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Pin {
    Staged,
    /// The ring, on every layer with one reduction block (else staged).
    Ring,
    /// The dual ring on every layer, at the `(C_blk, cols)` the rule would
    /// pick if only the two threads of the batteries' widest executors
    /// each needed a column group — one vector each way where no width
    /// leaves two.
    Dual,
    /// The dual ring, as [`Pin::Dual`], on fewer rows than twice the
    /// columns the rule decides at — `S`, or an explicit `C'_blk`:
    /// `fused::dual_fits`' row inequality without the L2 — and the three
    /// stages on more.
    DualOnFewRows,
}

#[cfg(test)]
impl Pin {
    /// The schedule this pin plans for a layer of the given sizes.
    fn schedule(
        self,
        t_vol: usize,
        (c, cp): (usize, usize),
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
            Pin::Dual if explicit => Schedule::Dual { c_blk: block.c_blk, cols: block.cp_blk },
            Pin::Dual => {
                let rule = crate::fused::dual_blocking(block, false, cp, |_, cols| cp / cols >= 2);
                let (c_blk, cols) = rule.unwrap_or((S, S));
                Schedule::Dual { c_blk, cols }
            }
            Pin::DualOnFewRows => {
                let cols = if explicit { block.cp_blk } else { S };
                if rows < 2 * cols {
                    Pin::Dual.schedule(t_vol, (c, cp), rows, block, explicit)
                } else {
                    Schedule::Staged
                }
            }
        }
    }
}

#[cfg(test)]
impl Host {
    /// A host on which every plan runs the `pin`ned schedule kind and
    /// every plan `streams` its stores (else none).
    pub(crate) fn test(pin: Pin, streams: bool) -> Host {
        let llc_bytes = if streams { 0 } else { usize::MAX };
        Host { l2_bytes: 0, llc_bytes, pin: Some(pin) }
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

    impl Scratch {
        /// Fill every float this scratch holds — past its views too — with
        /// `value`, and view nothing: what a later layer finds in the bytes an
        /// earlier one left.
        pub(crate) fn fill(&mut self, value: f32) {
            for m in [&mut self.u, &mut self.v, &mut self.x] {
                let floats = m.bytes() / std::mem::size_of::<f32>();
                if floats > 0 {
                    view(m, [1, floats / S, S, 1, S]).unwrap();
                    m.as_mut_slice().fill(value);
                }
                hide(m);
            }
            let floats = self.y.bytes() / std::mem::size_of::<f32>();
            self.y.try_reshape(1, S, floats / S, 1).unwrap();
            self.y.as_mut_slice().fill(value);
            self.y.try_reshape(0, 0, 0, 0).unwrap();
            for tb in &mut self.bufs {
                let tb = tb.get_mut();
                for buf in [&mut tb.a, &mut tb.b, &mut tb.ring] {
                    buf.as_mut_slice().fill(value);
                }
            }
        }
    }

    impl WinogradLayer {
        /// The exact-rational plan of each dimension's `F(m, r)`: what the
        /// tests hold the generated rows and codelets to.
        pub(crate) fn fmr_plans(&self) -> Vec<wino_transforms::FmrPlan> {
            let (m, r) = (&self.grid.m, &self.grid.r);
            m.iter().zip(r).map(|(&m, &r)| wino_transforms::FmrPlan::new(m, r)).collect()
        }
    }

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
            Err(PlanError::BadTileSize { dim: 0, m: 40, r: 3 })
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
        // A staged plan holds three layer-sized buffers and no ring; no
        // plan's scratch starts with `v`, which a kernel transform grows.
        let host = Host::test(Pin::Staged, false);
        let staged = WinogradLayer::new_on(shape2d(), &[4, 4], split_reduction(), host).unwrap();
        assert!(!staged.is_fused() && !staged.is_dual());
        let mut scratch = Scratch::new(&staged, 4);
        assert_staged_shapes(&scratch);
        assert_eq!(scratch.v.bytes(), 0);
        assert_eq!(scratch.thread_slots(), 4);
        // Each of the four slots also holds two `T·S` codelet buffers.
        let codelets = 4 * 2 * 36 * S * 4;
        let three = scratch.u.bytes() + scratch.x.bytes() + scratch.y.bytes() + codelets;
        assert_eq!(scratch.bytes(), three);
        scratch.materialise_v().unwrap();
        assert_eq!((scratch.v.rows(), scratch.v.cols()), (32, 32));
        assert_eq!(scratch.bytes(), three + scratch.v.bytes());

        // A fused plan holds one ring per slot…
        let fused = WinogradLayer::new(shape2d(), &[4, 4], ConvOptions::default()).unwrap();
        assert!(fused.is_fused());
        let mut scratch = Scratch::new(&fused, 4);
        let ring = fused.ring().floats;
        let Schedule::Ring { rows } = fused.schedule else { unreachable!() };
        // 36 blocks of 6 × 32 floats (12 lines, padded to 13), then 2 × 6
        // chunks of 36 lines (padded to 37).
        assert_eq!(rows, 6);
        assert_eq!(ring, 36 * 13 * S + 2 * rows * 37 * S);
        assert_eq!(scratch.bytes(), 4 * ring * 4 + codelets);
        assert_eq!(scratch.u.bytes() + scratch.v.bytes() + scratch.x.bytes() + scratch.y.bytes(), 0);
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
        // V̂ (16 lines a `t`, padded to 17) and the accumulator, three
        // 6-row blocks a `t` (6 lines each, padded to 7), which stage 3
        // reads in place — and grows `x` and `y` for a stage, `v` for a
        // kernel transform.
        let host = Host::test(Pin::Dual, false);
        let dual = WinogradLayer::new_on(shape2d(), &[4, 4], split_reduction(), host).unwrap();
        assert_eq!(dual.schedule, Schedule::Dual { c_blk: 16, cols: 16 });
        let mut scratch = Scratch::new(&dual, 4);
        assert_eq!(dual.ring().floats, 36 * 17 * S + 3 * 36 * 7 * S);
        assert_eq!(scratch.bytes(), scratch.u.bytes() + 4 * dual.ring().floats * 4 + codelets);
        assert_eq!(scratch.v.bytes() + scratch.x.bytes() + scratch.y.bytes(), 0);
        let held = scratch.u.as_ptr();
        scratch.materialise().unwrap();
        assert_staged_shapes(&scratch);
        assert_eq!((scratch.u.as_ptr(), scratch.v.bytes()), (held, 0), "`u` kept, no `v`");
        scratch.materialise_v().unwrap();
        assert_eq!((scratch.v.rows(), scratch.v.cols()), (32, 32));

        // The dual ring's blocking is its own — one vector wide, as two
        // would leave one column group — while the plan's stays the three
        // stages', which a dual scratch's buffers are shaped by.
        let dual = WinogradLayer::new_on(shape2d(), &[4, 4], ConvOptions::default(), host).unwrap();
        let eq11 = default_shape(32, 32, 18);
        assert_eq!((dual.schedule, dual.block), (Schedule::Dual { c_blk: S, cols: S }, eq11));
        let scratch = Scratch::new(&dual, 1);
        assert_eq!((scratch.u.rb(), scratch.u.cb()), (eq11.n_blk, eq11.c_blk));
        assert_ne!(eq11.c_blk, S);
        // Its `u` holds the bytes of the larger of `Û`'s two layouts: the
        // plan's, and the dual ring's 16 wide, whose blocks are padded more
        // often — and the model prices the same.
        let layouts = [eq11.c_blk, S].map(|cb| BlockedMatrices::bytes_for(36, 18, 32, eq11.n_blk, cb));
        assert_eq!(scratch.u.bytes(), layouts[0].max(layouts[1]));
        assert_eq!(dual.footprint(1).scratch_bytes, scratch.u.bytes() + dual.ring().floats * 4);
    }

    #[test]
    fn thread_slots_sit_on_cache_lines_of_their_own() {
        assert_eq!(std::mem::align_of::<ThreadBuf>(), 128);
        let layer = WinogradLayer::new(shape2d(), &[4, 4], ConvOptions::default()).unwrap();
        let scratch = Scratch::new(&layer, 4);
        let at: Vec<usize> = scratch.bufs.iter().map(|slot| slot.get() as usize).collect();
        assert!(at.iter().all(|a| a % 128 == 0), "{at:x?}");
        assert!(at.windows(2).all(|w| w[1] - w[0] >= 128), "{at:x?}");
    }

    #[test]
    fn a_scratch_re_views_its_bytes_and_grows_only_what_is_too_small() {
        let host = |pin| Host::test(pin, false);
        let plan = |side, pin| {
            let shape = ConvShape::new(2, 32, 32, &[side, side], &[3, 3], &[1, 1]).unwrap();
            WinogradLayer::new_on(shape, &[4, 4], split_reduction(), host(pin)).unwrap()
        };
        let (large, small) = (plan(24, Pin::Staged), plan(12, Pin::Staged));
        let ring = WinogradLayer::new_on(shape2d(), &[4, 4], ConvOptions::default(), host(Pin::Ring)).unwrap();
        assert!(ring.is_fused() && !large.is_fused() && !large.is_dual());
        let allocs = |scratch: &mut Scratch, layer: &WinogradLayer, threads| {
            let before = wino_simd::thread_alloc_calls();
            scratch.fit(layer, threads).unwrap();
            wino_simd::thread_alloc_calls() - before
        };

        // A smaller plan re-views the bytes the larger one asked for.
        let mut scratch = Scratch::new(&large, 2);
        let (bytes, u) = (scratch.bytes(), scratch.u.as_ptr());
        assert_eq!(allocs(&mut scratch, &small, 2), 0);
        assert_staged_shapes(&scratch);
        assert_eq!((scratch.bytes(), scratch.u.as_ptr()), (bytes, u));

        // A ring plan views no layer-sized buffer and keeps their bytes; it
        // grows the rings, one per slot, which a staged plan has none of.
        assert_eq!(allocs(&mut scratch, &ring, 2), 2);
        assert_eq!(scratch.u.t_count() + scratch.x.t_count() + scratch.y.t_vol(), 0);
        assert_eq!(scratch.bytes(), bytes + 2 * ring.ring().floats * 4);
        // A stage re-views them at the ring plan's staged shapes.
        let before = wino_simd::thread_alloc_calls();
        scratch.materialise().unwrap();
        assert_eq!(wino_simd::thread_alloc_calls(), before);
        assert_staged_shapes(&scratch);

        // Back to the large plan: nothing to grow. A third thread slot is
        // a staged plan's two codelet buffers (and an empty ring).
        assert_eq!(allocs(&mut scratch, &large, 2), 0);
        assert_eq!(allocs(&mut scratch, &large, 3), 2);
        assert_eq!(scratch.thread_slots(), 3);

        // The other way round, the layer-sized buffers grow, each once.
        let mut scratch = Scratch::new(&small, 1);
        assert_eq!(allocs(&mut scratch, &large, 1), 3);
        assert_eq!(scratch.bytes(), Scratch::new(&large, 1).bytes());
        assert_eq!(allocs(&mut scratch, &large, 1), 0);
    }

    #[test]
    fn three_d_plan() {
        let s = ConvShape::new(1, 16, 16, &[6, 8, 8], &[3, 3, 3], &[1, 1, 1]).unwrap();
        let layer = WinogradLayer::new(s, &[2, 4, 4], ConvOptions::default()).unwrap();
        assert_eq!(layer.t_vol(), 4 * 6 * 6);
        assert_eq!(layer.grid.counts, vec![3, 2, 2]);
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
        assert_eq!(layer.grid.tile_dims, vec![6, 6]);
        let rows: Vec<(usize, usize)> = layer.table_rows().map(|row| (row.m, row.r)).collect();
        assert_eq!(rows, [(3, 4), (5, 2)]);
        assert_eq!(layer.grid.out_dims, vec![17, 19]);
    }
}
