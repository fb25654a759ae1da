//! The two rings: forward passes that keep one operand of stage 2 in the
//! core's cache and stream the other through it.
//!
//! The three stages hand `Û`, `V̂` and `X̂` from one fork–join to the next
//! through layer-sized buffers: written by one stage — past the cache,
//! when they are too large to stay in it ([`streams`]) — and read back by
//! the next, a barrier later. On a core whose FMA ports outrun its memory
//! system that round trip, not arithmetic, is what the transform stages
//! cost. [`schedule`] decides at plan time, from the layer's sizes and the
//! detected L2, which of three schedules a plan runs:
//!
//! * **the ring** ([`forward`], training and FX mode) when `V̂` stays in the
//!   L2. A task takes one `n_blk`-row panel all the way through:
//!   1. operation ①②: `InputTransformCtx::tile` for the panel's tiles ×
//!      `C/S` channel groups, into the calling thread's *ring* — one
//!      `n_blk`-row block of `Û`, `[t][n_blk][C]`, plain stores;
//!   2. operation ⑤⑥: for every column block `j` and every `t`, the stage-2
//!      micro-kernel (JIT or Mono, the register tiles of the staged path)
//!      on that block against `V̂[t][j]`, scattering with plain stores into
//!      the ring's tile-major half, `[C'/S][n_blk][T][S]`;
//!   3. `Stage3Ctx::tile` for the panel's tiles × `C'/S` groups, from those
//!      chunks straight into the output image;
//!
//!   and then reuses the *same ring addresses* for its next panel, so `Û`
//!   and `X̂` never leave the core's cache. `V̂` is read once per panel
//!   instead of once per layer, which is free while it stays in the L2
//!   beside the ring (EXPERIMENTS.md, "§4.3 extension — ring-fused
//!   forward"): [`ring_rows`].
//! * **the dual ring** ([`forward_dual`], training mode only) when rows are
//!   few and `V̂` is the large operand. It has a stage-2 blocking of its
//!   own, `(n_blk, C_blk, cols)` — one vector each way by default — beside
//!   the plan's, which the three stages keep. The input transform writes
//!   `Û` as the staged path does, at that `C_blk`; then a task takes one
//!   `cols`-wide column group through every reduction block `k`:
//!   1. operation ③④: `KernelTransformCtx::group` for the block's `C_blk`
//!      input channels × `cols/S` output groups, into the calling thread's
//!      ring — one `C_blk × cols` block of `V̂`, `[t][C_blk][cols]`, plain
//!      stores to the same addresses every block;
//!   2. operation ⑤: the β = 0 / β = 1 block kernels of that blocking on
//!      `Û`'s `C_blk` slice against that block, into an accumulator
//!      `[row block][t][n_blk][cols]` that stays in the ring; on the last
//!      block operation ⑥ scatters it, plain, into the ring's tile-major
//!      chunks `[B][cols/S][N][T][S]`;
//!
//!   and then `Stage3Ctx::tile` for the group's tiles straight into the
//!   output image. `V̂` is never materialised; `Û` is read once per column
//!   group instead of once per layer ([`dual_fits`]).
//! * **the three stages** for every other plan, and for any call with more
//!   executor threads than ring panels or dual column groups.
//!
//! Tiles, codelets and every element's FMA chain — one FMA per input
//! channel, in ascending order, partial sums stored and reloaded exactly
//! at each reduction-block boundary, wherever the blocking puts those —
//! are the staged path's: results are bit-identical.

// Index-based loops walk several arrays with derived offsets; iterator
// rewrites obscure the math (same policy as the stage code).
#![allow(clippy::needless_range_loop)]

use wino_gemm::{microkernel, BlockShape, MicroArgs, Output, MAX_N_BLK};
use wino_probe::{Collector, SpanCategory};
use wino_sched::probed::{record_coord_span, span_start};
use wino_sched::Executor;
use wino_simd::S;
use wino_tensor::{BlockedImage, BlockedKernels, BlockedMatrices};

use crate::error::{ensure_at_least, WinoError};
use crate::footprint::MemoryFootprint;
use crate::plan::{Scratch, ThreadBuf, WinogradLayer};
use crate::stage1::{InputTransformCtx, KernelTransformCtx};
use crate::stage3::Stage3Ctx;
use crate::{stage1, stage2, stage3};

/// Which driver runs a plan's forward pass, decided at plan time by
/// [`schedule`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Schedule {
    /// The paper's three stages: four fork–joins in training mode, three
    /// in FX mode.
    Staged,
    /// The ring-fused driver ([`forward`]) in `rows`-row panels: one
    /// fork–join, plus the kernel transform in training mode.
    Ring { rows: usize },
    /// The dual ring ([`forward_dual`]) in `cols`-wide column groups over
    /// `C_blk`-deep reduction blocks: stage-2 blocking `(n_blk, c_blk,
    /// cols)`, where the plan's own `block` is the three stages'. Two
    /// fork–joins in training mode; FX mode runs the three stages.
    Dual { c_blk: usize, cols: usize },
}

/// Rows of the widest register tile (6×4 under AVX-512, 6×1 under AVX2 —
/// `wino_gemm::TileTable`): a ring holds whole strips of them, so no
/// panel but the last leaves a tile partly filled.
const STRIP_ROWS: usize = 6;

/// Panels a layer is cut into at least, when it has the rows: a panel is
/// the unit the executor balances threads with, and the plan does not know
/// how many there will be.
const MIN_PANELS: usize = 8;

/// Panel height of the ring-fused driver for a layer of tile volume
/// `t_vol`, `c → cp` channels, `k_blocks` reduction blocks and `rows`
/// panel rows on a core with `l2_bytes` of L2 — or `None` when the layer
/// runs the three stages.
///
/// Fused iff the reduction is one block (the ring holds no partial sums)
/// and `V̂` plus a ring of at least one strip fit ¾ of the L2. The ring
/// `T·n_blk·(C + C')·4` B is then as many whole strips as stay within ¼ of
/// the L2 and beside `V̂` — at least one, at most [`MAX_N_BLK`] rows or a
/// [`MIN_PANELS`]-th of the layer's; an `explicit` panel height from
/// `ConvOptions::block` is taken as is, if it fits.
pub(crate) fn ring_rows(
    t_vol: usize,
    c: usize,
    cp: usize,
    k_blocks: usize,
    rows: usize,
    l2_bytes: usize,
    explicit: Option<usize>,
) -> Option<usize> {
    if k_blocks != 1 {
        return None;
    }
    let f32_bytes = std::mem::size_of::<f32>();
    let row_bytes = t_vol * (c + cp) * f32_bytes;
    // Ring rows that fit beside V̂.
    let fit = (l2_bytes / 4 * 3).checked_sub(t_vol * c * cp * f32_bytes)? / row_bytes;
    let n_blk = explicit.unwrap_or_else(|| {
        let most = (l2_bytes / 4 / row_bytes).min(fit).min(MAX_N_BLK);
        most.min(rows / MIN_PANELS).max(STRIP_ROWS) / STRIP_ROWS * STRIP_ROWS
    });
    (n_blk <= fit).then_some(n_blk)
}

/// The schedule of a layer of tile volume `t_vol`, `c → cp` channels and
/// `rows` panel rows with stage-2 blocking `block` (`explicit` when it
/// came from `ConvOptions::block`) on a core with `l2_bytes` of L2.
///
/// The ring when [`ring_rows`] takes the layer. Otherwise the dual ring
/// when [`dual_fits`] takes its [`dual_blocking`]. Otherwise the three
/// stages.
pub(crate) fn schedule(
    t_vol: usize,
    c: usize,
    cp: usize,
    rows: usize,
    l2_bytes: usize,
    block: BlockShape,
    explicit: bool,
) -> Schedule {
    let k_blocks = c / block.c_blk;
    let n_blk = explicit.then_some(block.n_blk);
    if let Some(rows) = ring_rows(t_vol, c, cp, k_blocks, rows, l2_bytes, n_blk) {
        return Schedule::Ring { rows };
    }
    let (c_blk, cols) = dual_blocking(block, explicit);
    if dual_fits(t_vol, c, cp, rows, l2_bytes, c_blk, cols) {
        Schedule::Dual { c_blk, cols }
    } else {
        Schedule::Staged
    }
}

/// The `(C_blk, cols)` the dual ring runs a plan of stage-2 blocking
/// `block` at: an explicit blocking's `(C_blk, C'_blk)`, else one vector
/// each way, `(S, S)` — the smallest ring and the most column groups,
/// measured fastest (EXPERIMENTS.md, "§4.3 extension — the dual ring").
pub(crate) fn dual_blocking(block: BlockShape, explicit: bool) -> (usize, usize) {
    if explicit {
        (block.c_blk, block.cp_blk)
    } else {
        (S, S)
    }
}

/// Whether the dual ring in `cols`-wide column groups over `c_blk`-deep
/// reduction blocks pays on a layer of tile volume `t_vol`, `c → cp`
/// channels and `rows` panel rows, on a core with `l2_bytes` of L2.
///
/// Both must hold:
/// * the per-thread working set fits ¾ of the L2 — one `C_blk` slice of
///   `Û` (`[T][rows][C_blk]`), the kernel block (`[T][C_blk][cols]`), the
///   partial-sum accumulator and the chunks its last block scatters to
///   (`[T][rows][cols]` each);
/// * re-reading `Û` once per column group moves fewer bytes than writing
///   and reading back `V̂`: `C'/cols · |Û| < 2·|V̂|`, i.e. fewer rows than
///   `2·cols`.
pub(crate) fn dual_fits(
    t_vol: usize,
    c: usize,
    cp: usize,
    rows: usize,
    l2_bytes: usize,
    c_blk: usize,
    cols: usize,
) -> bool {
    let f32_bytes = std::mem::size_of::<f32>();
    let working_set = t_vol * (rows * c_blk + c_blk * cols + 2 * rows * cols) * f32_bytes;
    let (u, v) = (t_vol * rows * c, t_vol * c * cp);
    working_set <= l2_bytes / 4 * 3 && cp / cols * u < 2 * v
}

/// The part of the reported last-level cache a plan's hand-off may fill and
/// still be found there by its consumer: a fifth. Measured, not derived
/// (EXPERIMENTS.md, "§4.2.1 — store flavour is a rule"): on the host the
/// sweeps ran on the two flavours cross at 50–56 MiB of 260 — the cache is
/// the chip's, shared with the input image, `V̂`'s readers and every other
/// tenant — and no sitting has measured a loss for streaming above a fifth
/// or for plain stores below it.
const LLC_SHARE: usize = 5;

/// Whether a plan stores what it hands from one fork–join to the next —
/// `Û`, `V̂`, the tile-major `X̂`, the output image — with non-temporal
/// stores, given its `footprint` and the host's last-level cache.
///
/// Streams iff scratch plus output exceed the cache's [`LLC_SHARE`]-th.
/// Under that the consumer finds the producer's lines cached, and a store
/// past the cache turns each of those hits into a DRAM read; over it the
/// lines are evicted before they are read, and a plain store's
/// read-for-ownership and the eviction of `V̂` are pure loss (the paper's
/// case, §4.2.1: a KNL has no L3). A ring plan's scratch is `V̂` and its
/// rings, so only a large output image streams it; a dual plan's is `Û`
/// and its rings. Whatever a ring holds is stored plainly.
pub(crate) fn streams(footprint: &MemoryFootprint, llc_bytes: usize) -> bool {
    footprint.scratch_bytes + footprint.output_bytes > llc_bytes / LLC_SHARE
}

impl WinogradLayer {
    /// Whether a forward pass on `exec` takes the ring-fused driver: the
    /// plan is a ring plan and has a panel for every thread.
    pub(crate) fn runs_fused(&self, exec: &dyn Executor) -> bool {
        matches!(self.schedule, Schedule::Ring { rows } if exec.threads() <= self.rows().div_ceil(rows))
    }

    /// Whether a training-mode forward pass on `exec` takes the dual ring:
    /// the plan is a dual plan and has a column group for every thread.
    pub(crate) fn runs_dual(&self, exec: &dyn Executor) -> bool {
        let groups = |cols: usize| self.shape.out_channels / cols;
        matches!(self.schedule, Schedule::Dual { cols, .. } if exec.threads() <= groups(cols))
    }

    /// The stage-2 blocking `(n_blk, C_blk, cols)` the dual ring runs this
    /// plan at — a dual plan's.
    pub(crate) fn dual_block(&self) -> BlockShape {
        let Schedule::Dual { c_blk, cols } = self.schedule else {
            unreachable!("the dual ring runs dual plans only")
        };
        BlockShape { c_blk, cp_blk: cols, ..self.block }
    }
}

/// Faults armed for the fork–join about to run (`wino_sched::fault`),
/// taken once by the coordinator.
#[cfg(feature = "fault-inject")]
struct Faults {
    poison_u: bool,
    poison_x: bool,
    poison_output: bool,
    corrupt_x: Option<wino_sched::fault::CorruptKind>,
}

#[cfg(feature = "fault-inject")]
impl Faults {
    fn take() -> Faults {
        use wino_sched::fault::{take_corruption, take_poison_stage};
        Faults {
            poison_u: take_poison_stage(1),
            poison_x: take_poison_stage(2),
            poison_output: take_poison_stage(3),
            corrupt_x: take_corruption(2),
        }
    }
}

/// Convolve `input` with the kernel transforms `v` into `output` through
/// the per-thread rings of `scratch`. `layer` must be a ring plan.
pub(crate) fn forward(
    layer: &WinogradLayer,
    input: &BlockedImage,
    v: &BlockedMatrices,
    output: &mut BlockedImage,
    scratch: &Scratch,
    exec: &dyn Executor,
) -> Result<(), WinoError> {
    let Schedule::Ring { rows: n_blk } = layer.schedule else {
        unreachable!("the ring-fused driver runs ring plans only")
    };
    ensure_at_least("scratch thread slots", exec.threads(), scratch.thread_slots())?;
    stage1::check_input(layer, input)?;
    stage2::check_kernel_transforms(layer, v)?;
    stage3::check_output(layer, output)?;

    let (rows, n_tiles) = (layer.rows(), layer.n_tiles());
    let (in_groups, out_groups) = (layer.shape.in_channels / S, layer.shape.out_channels / S);
    // The ring: an n_blk-row block of Û, then the rows' X̂ chunks.
    let u_floats = layer.t_vol() * n_blk * layer.shape.in_channels;
    let chunk = layer.t_vol() * S;
    let probe = exec.probe();
    let input_ctx = InputTransformCtx::new(layer, input, (n_blk, layer.block.c_blk), false, probe);
    let output_ctx = Stage3Ctx::new(layer, output.as_mut_ptr());
    #[cfg(feature = "fault-inject")]
    let faults = Faults::take();
    let start = span_start(probe);

    let joined = exec.run_grid(&[rows.div_ceil(n_blk)], &|slot, i| {
        // SAFETY: slot exclusivity per the Executor contract.
        let tb = unsafe { scratch.thread_buf(slot) };
        let ring_u = tb.ring.as_mut_ptr();
        // SAFETY: the ring holds `WinogradLayer::ring_floats`:
        // `u_floats` of Û, then `C'/S · n_blk` chunks.
        let ring_x = unsafe { ring_u.add(u_floats) };
        let row0 = i * n_blk;
        let panel_rows = n_blk.min(rows - row0);
        let t0 = span_start(probe);

        for cg in 0..in_groups {
            for r in 0..panel_rows {
                let (b, n) = ((row0 + r) / n_tiles, (row0 + r) % n_tiles);
                // SAFETY: the ring is an n_blk-row block of Û and this
                // slot's alone; `r < n_blk`.
                unsafe { input_ctx.tile(tb, slot, (ring_u, r), b, cg, n) };
            }
        }
        #[cfg(feature = "fault-inject")]
        if faults.poison_u && i == 0 {
            // SAFETY: the ring's first float, this slot's.
            unsafe { *ring_u = f32::NAN };
        }
        let t1 = span_start(probe);

        // SAFETY: `ring_u` holds the panel's Û block, `ring_x` has room for
        // its chunks, `v` was checked against the plan; all this slot's.
        unsafe { multiply_panel(layer, v, ring_u, ring_x, n_blk, panel_rows) };
        #[cfg(feature = "fault-inject")]
        {
            if faults.poison_x && i == 0 {
                // SAFETY: the first float of the ring's X̂ half.
                unsafe { *ring_x = f32::NAN };
            }
            if let Some(kind) = faults.corrupt_x {
                // Every panel, so that no sampled tile escapes.
                // SAFETY: the ring's X̂ half, `out_groups · n_blk` chunks.
                let x = unsafe { std::slice::from_raw_parts_mut(ring_x, out_groups * n_blk * chunk) };
                stage2::corrupt_y(x, kind);
            }
        }
        let t2 = span_start(probe);

        for og in 0..out_groups {
            for r in 0..panel_rows {
                let (b, n) = ((row0 + r) / n_tiles, (row0 + r) % n_tiles);
                // SAFETY: chunk (og, r) of the ring's X̂ half, written by
                // `multiply_panel` above; panels cover disjoint rows, so
                // output tile (b, og, n) is this task's.
                unsafe { output_ctx.tile(tb, ring_x.add((og * n_blk + r) * chunk), b, og, n) };
            }
        }
        if probe.is_some() {
            tally(tb, [t1 - t0, t2 - t1, span_start(probe) - t2]);
        }
    });

    const PHASES: [SpanCategory; 3] =
        [SpanCategory::InputTransform, SpanCategory::ElementwiseGemm, SpanCategory::OutputTransform];
    collect_phases(probe, scratch, start, joined.is_ok(), PHASES);
    joined?;
    #[cfg(feature = "fault-inject")]
    if faults.poison_output {
        output.as_mut_slice()[0] = f32::NAN;
    }
    Ok(())
}

/// Operation ⑤⑥ for one ring panel: `X̂_t = Û_t · V̂_t` for every `t` and
/// column block, the rows scattered to their tile-major chunks. One
/// reduction block, so every call is a β = 0 scatter.
///
/// # Safety
/// `ring_u` must hold an `n_blk`-row block of `Û` (`[t][n_blk][C]`) whose
/// first `panel_rows` rows are written, `ring_x` must be valid for
/// `C'/S · n_blk` chunks of `T·S` floats, 64-byte aligned, and `v` must
/// be kernel transforms of `layer`; the caller owns both halves.
unsafe fn multiply_panel(
    layer: &WinogradLayer,
    v: &BlockedMatrices,
    ring_u: *const f32,
    ring_x: *mut f32,
    n_blk: usize,
    panel_rows: usize,
) {
    let (t_vol, c, cp_blk) = (layer.t_vol(), layer.shape.in_channels, layer.block.cp_blk);
    let chunk = t_vol * S;
    let jit = layer.jit.as_ref().map(|jk| {
        let ring = jk.ring.as_ref().expect("ring kernels compiled for a fused plan");
        if panel_rows == n_blk {
            &ring.scatter_full
        } else {
            ring.scatter_tail.as_ref().expect("a tail kernel compiled for the last panel")
        }
    });
    let mut row_ptrs = [std::ptr::null_mut::<f32>(); MAX_N_BLK];
    // Column blocks outermost: within one, V̂'s `t` blocks are contiguous
    // and Û's too, so both stream.
    for j in 0..v.col_blocks() {
        let og0 = j * cp_blk / S;
        for t in 0..t_vol {
            for r in 0..panel_rows {
                // SAFETY: position `t` of chunk (og0, r), inside `ring_x`.
                row_ptrs[r] = ring_x.add((og0 * n_blk + r) * chunk + t * S);
            }
            // SAFETY: block `t` of the ring's Û; block (0, j, t) of `v`.
            let (u_blk, v_blk) =
                (ring_u.add(t * n_blk * c), v.as_ptr().add(v.block_offset(0, j, t)));
            // With β = 0 a scatter kernel never dereferences its `x`; the
            // ring is merely a valid address to hand it.
            match jit {
                // SAFETY: compiled for (panel_rows, C, C'_blk, β = 0) with
                // the ring's group stride; `row_ptrs[..panel_rows]` are
                // non-null, aligned, and a group stride apart per column
                // group inside `ring_x`.
                Some(kernel) => kernel.call_scatter(u_blk, v_blk, ring_x, row_ptrs.as_ptr()),
                // SAFETY: as above, for the Rust kernel.
                None => microkernel(
                    panel_rows,
                    &MicroArgs {
                        u: u_blk,
                        v: v_blk,
                        x: ring_x,
                        c_blk: c,
                        cp_blk,
                        beta: false,
                        next_u: std::ptr::null(),
                        next_x: std::ptr::null(),
                        output: Output::Scatter {
                            row_ptrs: row_ptrs.as_ptr(),
                            group_stride: n_blk * chunk,
                            streaming: false,
                        },
                    },
                ),
            }
        }
    }
}

/// Convolve `input` with the raw `kernels` into `output` through the
/// dual ring: the input transform into `scratch.u`, then one fork–join
/// over the `C'/cols` column groups, each transforming its blocks of `V̂`
/// into the calling thread's ring. `layer` must be a dual plan.
pub(crate) fn forward_dual(
    layer: &WinogradLayer,
    input: &BlockedImage,
    kernels: &BlockedKernels,
    output: &mut BlockedImage,
    scratch: &mut Scratch,
    exec: &dyn Executor,
) -> Result<(), WinoError> {
    let BlockShape { n_blk, c_blk, cp_blk: cols } = layer.dual_block();
    ensure_at_least("scratch thread slots", exec.threads(), scratch.thread_slots())?;
    stage1::check_input(layer, input)?;
    stage1::check_kernels(layer, kernels)?;
    stage3::check_output(layer, output)?;
    // `Û` in `u`'s bytes, at the dual ring's `C_blk`.
    stage1::input_transform_pass(layer, input, (n_blk, c_blk), scratch, exec)?;

    let (rows, n_tiles, t_vol) = (layer.rows(), layer.n_tiles(), layer.t_vol());
    let vecs_per_group = cols / S;
    let chunk = t_vol * S;
    // The ring: the kernel block, then the accumulator, then the chunks.
    let acc_offset = t_vol * c_blk * cols;
    let chunk_offset = acc_offset + layer.row_blocks() * t_vol * n_blk * cols;
    let probe = exec.probe();
    let kernel_ctx = KernelTransformCtx::new(layer, kernels, (c_blk, cols), false);
    let output_ctx = Stage3Ctx::new(layer, output.as_mut_ptr());
    let scratch: &Scratch = scratch;
    #[cfg(feature = "fault-inject")]
    let faults = Faults::take();
    let start = span_start(probe);

    let joined = exec.run_grid(&[layer.shape.out_channels / cols], &|slot, j| {
        // SAFETY: slot exclusivity per the Executor contract.
        let tb = unsafe { scratch.thread_buf(slot) };
        let ring_v = tb.ring.as_mut_ptr();
        // SAFETY: the ring holds `WinogradLayer::ring_floats`: the kernel
        // block, the accumulator, then `B · cols/S · N` chunks.
        let (acc, chunks) = unsafe { (ring_v.add(acc_offset), ring_v.add(chunk_offset)) };
        let og0 = j * vecs_per_group;
        let mut spent = [0u64; 3];

        for k in 0..layer.shape.in_channels / c_blk {
            let t0 = span_start(probe);
            for r in 0..c_blk {
                for q in 0..vecs_per_group {
                    // SAFETY: the ring's kernel block is one `C_blk × cols`
                    // block of V̂ and this slot's alone; `r < C_blk`,
                    // `q·S < cols`.
                    unsafe { kernel_ctx.group(tb, (ring_v, r, q * S), k * c_blk + r, og0 + q) };
                }
            }
            let t1 = span_start(probe);
            // SAFETY: the kernel block is written, the accumulator and the
            // chunks are this slot's, `u` holds the layer's Û.
            unsafe { multiply_block(layer, &scratch.u, ring_v, acc, chunks, k) };
            spent[0] += t1 - t0;
            spent[1] += span_start(probe) - t1;
        }
        #[cfg(feature = "fault-inject")]
        {
            if faults.poison_x && j == 0 {
                // SAFETY: the first float of the ring's chunks.
                unsafe { *chunks = f32::NAN };
            }
            if let Some(kind) = faults.corrupt_x {
                // Every group, so that no sampled tile escapes.
                // SAFETY: the ring's chunks, `rows · cols/S` of them.
                let x = unsafe { std::slice::from_raw_parts_mut(chunks, rows * vecs_per_group * chunk) };
                stage2::corrupt_y(x, kind);
            }
        }
        let t2 = span_start(probe);

        for q in 0..vecs_per_group {
            for row in 0..rows {
                let (b, n) = (row / n_tiles, row % n_tiles);
                // SAFETY: chunk (b, q, n) of the ring, scattered by the last
                // `multiply_block` above; groups cover disjoint output
                // channels, so output tile (b, og0 + q, n) is this task's.
                let src = unsafe { chunks.add(((b * vecs_per_group + q) * n_tiles + n) * chunk) };
                // SAFETY: as above.
                unsafe { output_ctx.tile(tb, src, b, og0 + q, n) };
            }
        }
        if probe.is_some() {
            spent[2] = span_start(probe) - t2;
            tally(tb, spent);
        }
    });

    const PHASES: [SpanCategory; 3] =
        [SpanCategory::KernelTransform, SpanCategory::ElementwiseGemm, SpanCategory::OutputTransform];
    collect_phases(probe, scratch, start, joined.is_ok(), PHASES);
    joined?;
    #[cfg(feature = "fault-inject")]
    if faults.poison_output {
        output.as_mut_slice()[0] = f32::NAN;
    }
    Ok(())
}

/// Operation ⑤ — and on the last reduction block ⑥ — of one dual column
/// group: `X̂_t (+)= Û_t[:, k] · ring_t` for every `t` and row block, into
/// the accumulator, the last block scattered to the group's tile-major
/// chunks instead — the staged path's kernels and β, at the dual ring's
/// blocking, so every element's FMA chain is the staged path's too.
///
/// # Safety
/// `ring_v` must hold the `[t][C_blk][cols]` kernel block of reduction
/// block `k`, `acc` must be valid for `row blocks · T · n_blk · cols`
/// floats and `chunks` for `B · cols/S · N · T · S`, both 64-byte aligned
/// and the caller's alone, and `u` must hold transformed inputs of
/// `layer` laid out at the dual ring's `C_blk`.
unsafe fn multiply_block(
    layer: &WinogradLayer,
    u: &BlockedMatrices,
    ring_v: *const f32,
    acc: *mut f32,
    chunks: *mut f32,
    k: usize,
) {
    let BlockShape { n_blk, c_blk, cp_blk: cols } = layer.dual_block();
    let (rows, n_tiles, t_vol) = (layer.rows(), layer.n_tiles(), layer.t_vol());
    let k_blocks = layer.shape.in_channels / c_blk;
    let last_k = k + 1 == k_blocks;
    let row_blocks = u.row_blocks();
    // The chunks are a `TileMajor` of `cols` channels: the staged group stride.
    let group_stride = n_tiles * t_vol * S;
    let jit = layer.jit.as_ref().map(|jk| jk.ring.as_ref().unwrap_or(&jk.staged));
    let mut row_ptrs = [std::ptr::null_mut::<f32>(); MAX_N_BLK];
    for t in 0..t_vol {
        let v_blk = ring_v.add(t * c_blk * cols);
        for i in 0..row_blocks {
            // Block (i, k, t) of a `BlockedMatrices` of `C_blk`-wide blocks.
            let u_blk = u.as_ptr().add(((i * k_blocks + k) * t_vol + t) * n_blk * c_blk);
            let x_blk = acc.add((i * t_vol + t) * n_blk * cols);
            if last_k {
                for r in 0..n_blk {
                    let row = i * n_blk + r;
                    // Padding rows of the last row block scatter nowhere.
                    row_ptrs[r] = if row < rows {
                        let (b, n) = (row / n_tiles, row % n_tiles);
                        // SAFETY: position `t` of chunk (b, 0, n).
                        chunks.add((b * (cols / S) * n_tiles + n) * t_vol * S + t * S)
                    } else {
                        std::ptr::null_mut()
                    };
                }
            }
            match jit {
                Some(jk) => {
                    if last_k {
                        let kernel = if jk.tail != 0 && i + 1 == row_blocks {
                            jk.scatter_tail.as_ref().expect("tail kernel compiled")
                        } else {
                            &jk.scatter_full
                        };
                        // SAFETY: compiled for (n_blk or tail, C_blk, cols,
                        // β = k > 0) with the chunks' group stride, plain
                        // stores; the tail kernel's rows are the non-null ones.
                        kernel.call_scatter(u_blk, v_blk, x_blk, row_ptrs.as_ptr());
                    } else if k == 0 {
                        // SAFETY: compiled for (n_blk, C_blk, cols, β = 0).
                        jk.block0.as_ref().expect("block0 compiled").call(u_blk, v_blk, x_blk);
                    } else {
                        // SAFETY: compiled for (n_blk, C_blk, cols, β = 1).
                        jk.block1.as_ref().expect("block1 compiled").call(u_blk, v_blk, x_blk);
                    }
                }
                // SAFETY: as above, for the Rust kernel; the row pointers
                // are null or aligned chunk rows, disjoint from u / v / x.
                None => microkernel(
                    n_blk,
                    &MicroArgs {
                        u: u_blk,
                        v: v_blk,
                        x: x_blk,
                        c_blk,
                        cp_blk: cols,
                        beta: k > 0,
                        next_u: std::ptr::null(),
                        next_x: std::ptr::null(),
                        output: if last_k {
                            Output::Scatter { row_ptrs: row_ptrs.as_ptr(), group_stride, streaming: false }
                        } else {
                            Output::Block
                        },
                    },
                ),
            }
        }
    }
}

/// Add one task's nanoseconds per phase to its slot's tally.
fn tally(tb: &mut ThreadBuf, spent: [u64; 3]) {
    for (total, spent) in tb.phase_ns.iter_mut().zip(spent) {
        *total += spent;
    }
}

/// Under a probe, collect the slots' phase tallies of the fused fork–join
/// that began at `start` — clearing them, whether or not it came through,
/// for the next pass — and, if it did, report it as the three stage spans
/// `phases` a staged pass records, back to back, each with the share of
/// the interval the slots spent in it.
fn collect_phases(
    probe: Option<&Collector>,
    scratch: &Scratch,
    start: u64,
    joined: bool,
    phases: [SpanCategory; 3],
) {
    if probe.is_none() {
        return;
    }
    let end = span_start(probe);
    let mut phase_ns = [0u64; 3];
    for slot in 0..scratch.thread_slots() {
        // SAFETY: the fork–join has joined and the public entry points hold
        // the scratch `&mut`, so every slot is the coordinator's.
        let tally = std::mem::take(&mut unsafe { scratch.thread_buf(slot) }.phase_ns);
        for (total, spent) in phase_ns.iter_mut().zip(tally) {
            *total += spent;
        }
    }
    if !joined {
        return;
    }
    let total = u128::from(phase_ns.iter().sum::<u64>().max(1));
    let cut = |spent: u64| start + (u128::from(end - start) * u128::from(spent) / total) as u64;
    let (a, b) = (cut(phase_ns[0]), cut(phase_ns[0] + phase_ns[1]));
    // SAFETY: the coordinator thread, after the fused fork–join joined.
    unsafe {
        record_coord_span(probe, phases[0], start, a);
        record_coord_span(probe, phases[1], a, b);
        record_coord_span(probe, phases[2], b, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: usize = 1 << 20;

    /// `(name, T, C, C')` of the layers EXPERIMENTS.md's "§4.3 extension —
    /// ring-fused forward" measures, smallest `V̂` first.
    const MEASURED: [(&str, usize, usize, usize); 11] = [
        ("serve 32→64, F(4²)", 36, 32, 64),
        ("serve 64→32, F(4²)", 36, 64, 32),
        ("serve 64→64 / VGG 3.2-class, F(4²)", 36, 64, 64),
        ("net3d_fx L1 32→32, F(4³)", 216, 32, 32),
        ("xform2d_jit 64→64, F(6²)", 64, 64, 64),
        ("net3d_fx L2 32→64, F(4³)", 216, 32, 64),
        ("gemm2d_mono 128→128, F(4²)", 36, 128, 128),
        ("net3d_fx L3 64→64, F(4³)", 216, 64, 64),
        ("C3D C3b-like 64→64, F(4³)", 216, 64, 64),
        ("train3d_jit 128→128, F(4³)", 216, 128, 128),
        ("VGG 5.x-class 512→512, F(4²)", 36, 512, 512),
    ];

    fn plan(t_vol: usize, c: usize, cp: usize, l2: usize) -> Option<usize> {
        ring_rows(t_vol, c, cp, 1, 100_000, l2, None)
    }

    /// Host-independent: the L2 is an argument. At this host's 2 MiB the
    /// first five layers — every one the ring measured faster on — fuse,
    /// the rest — level or slower — do not.
    #[test]
    fn the_measured_layers_fall_on_their_faster_side_at_2_mib() {
        let rows: Vec<_> = MEASURED.iter().map(|&(_, t, c, cp)| plan(t, c, cp, 2 * MIB)).collect();
        assert_eq!(
            rows,
            [Some(30), Some(30), Some(24), Some(6), Some(12), None, None, None, None, None, None],
        );
        for (&(name, t, c, cp), n_blk) in MEASURED.iter().zip(rows) {
            let Some(n_blk) = n_blk else { continue };
            let (v, ring) = (t * c * cp * 4, t * n_blk * (c + cp) * 4);
            assert!(n_blk % STRIP_ROWS == 0 && n_blk <= MAX_N_BLK, "{name}: {n_blk} rows");
            assert!(v + ring <= 3 * MIB / 2, "{name}: V̂ {v} B + ring {ring} B");
            assert!(ring <= MIB / 2 || n_blk == STRIP_ROWS, "{name}: ring {ring} B");
        }
    }

    /// The claimed workload is not on a knife edge: with the L2 reading a
    /// tenth smaller its ring shrinks to one strip and the plan stays
    /// fused; it takes a quarter to lose it.
    #[test]
    fn xform2d_stays_fused_when_the_l2_reads_a_tenth_smaller() {
        assert_eq!(plan(64, 64, 64, 2 * MIB), Some(12));
        assert_eq!(plan(64, 64, 64, 2 * MIB / 10 * 9), Some(6));
        assert_eq!(plan(64, 64, 64, 2 * MIB / 4 * 3), None);
    }

    /// At the 1 MiB assumed when the cache cannot be detected only a `V̂`
    /// well under 1 MiB fuses: the serve layers (0.28 and 0.56 MiB), not
    /// the 0.84 MiB one.
    #[test]
    fn only_small_kernel_transforms_fuse_at_the_1_mib_fallback() {
        let fused: Vec<_> = MEASURED.iter().map(|&(_, t, c, cp)| plan(t, c, cp, MIB)).collect();
        assert_eq!(fused[..3], [Some(18), Some(18), Some(6)]);
        assert!(fused[3..].iter().all(Option::is_none), "{fused:?}");
    }

    #[test]
    fn reduction_blocks_short_layers_and_explicit_heights() {
        // Partial sums have nowhere to live in a ring.
        assert_eq!(ring_rows(36, 64, 64, 2, 1000, 2 * MIB, None), None);
        // A short layer is still cut into eight panels or more — the 49
        // tiles of a 28² F(4²) image into nine — but never below a strip.
        assert_eq!(ring_rows(36, 64, 64, 1, 8 * 49, 2 * MIB, None), Some(24));
        assert_eq!(ring_rows(36, 64, 64, 1, 150, 2 * MIB, None), Some(18));
        assert_eq!(ring_rows(36, 64, 64, 1, 49, 2 * MIB, None), Some(6));
        assert_eq!(ring_rows(36, 64, 64, 1, 3, 2 * MIB, None), Some(6));
        // An explicit panel height is respected, or the plan is staged.
        assert_eq!(ring_rows(36, 32, 32, 1, 1000, 2 * MIB, Some(5)), Some(5));
        assert_eq!(ring_rows(64, 64, 64, 1, 1000, 2 * MIB, Some(28)), None);
        // The strip is the register tile's height on every table.
        for regs in [8, 32] {
            let table = wino_gemm::TileTable::new(regs);
            assert_eq!(table.r_max(table.q_max()), STRIP_ROWS);
        }
    }

    /// `(name, T, C, C', rows)` of the `fusion` table's layers at their
    /// batch, and the VGG 5.x-class layer at batch 1.
    const SCHEDULED: [(&str, usize, usize, usize, usize); 13] = [
        ("serve 32→64 B8", 36, 32, 64, 392),
        ("serve 64→32 B8", 36, 64, 32, 392),
        ("serve 64→64 B8", 36, 64, 64, 392),
        ("serve 64→64 B1", 36, 64, 64, 49),
        ("net3d_fx L1", 216, 32, 32, 144),
        ("xform2d_jit", 64, 64, 64, 729),
        ("net3d_fx L2", 216, 32, 64, 75),
        ("gemm2d_mono", 36, 128, 128, 196),
        ("net3d_fx L3", 216, 64, 64, 75),
        ("C3D C3b-class", 216, 64, 64, 98),
        ("train3d_jit", 216, 128, 128, 16),
        ("VGG 5.x-class 14²", 36, 512, 512, 16),
        ("VGG 5.x-class 28²", 36, 512, 512, 49),
    ];

    /// One letter per layer: Ring, Dual or Staged at the planner's blocking.
    fn schedules(l2: usize) -> String {
        SCHEDULED
            .iter()
            .map(|&(_, t, c, cp, rows)| {
                match schedule(t, c, cp, rows, l2, wino_gemm::default_shape(c, cp, rows), false) {
                    Schedule::Ring { .. } => 'R',
                    Schedule::Dual { c_blk, cols } => {
                        assert_eq!((c_blk, cols), (S, S));
                        'D'
                    }
                    Schedule::Staged => 'S',
                }
            })
            .collect()
    }

    /// Host-independent: at 2 MiB the ring keeps the layers it measured
    /// faster on, and the dual ring takes the two with 16 rows and a `V̂`
    /// the ring turns down — `train3d_jit` (13.5 MiB) and a VGG 5.x-class
    /// layer at 14² (36 MiB). Every layer of 49 rows or more is staged or
    /// a ring: re-reading `Û` per 16-column group would cost more than
    /// `V̂`'s round trip.
    #[test]
    fn the_dual_ring_takes_few_rows_and_a_large_kernel_transform() {
        assert_eq!(schedules(2 * MIB), "RRRRRRSSSSDDS");
        // At the 1 MiB fallback `train3d_jit`'s working set — a 16-channel
        // slice of `Û`, a 16 × 16 block of `V̂`, the accumulator and the
        // chunks, 864 KiB — no longer fits ¾ of the L2.
        assert_eq!(schedules(MIB), "RRRRSSSSSSSDS");
        assert!(dual_fits(216, 128, 128, 16, 2 * MIB, S, S) && !dual_fits(216, 128, 128, 16, MIB, S, S));
    }

    #[test]
    fn the_dual_inequality_holds_below_twice_cols_rows_and_within_the_l2() {
        // C'/cols · |Û| < 2 |V̂|  ⟺  rows < 2 · cols.
        assert!(dual_fits(36, 64, 64, 31, 2 * MIB, 16, 16));
        assert!(!dual_fits(36, 64, 64, 32, 2 * MIB, 16, 16));
        assert!(dual_fits(36, 64, 64, 63, 2 * MIB, 16, 32));
        // The working set T·(rows·C_blk + C_blk·cols + 2·rows·cols) floats
        // against ¾ of the L2: 216·(16·16 + 16·16 + 2·16·16)·4 B = 864 KiB.
        let l2_for = |bytes: usize| bytes / 3 * 4;
        assert!(dual_fits(216, 128, 128, 16, l2_for(864 << 10), 16, 16));
        assert!(!dual_fits(216, 128, 128, 16, l2_for(864 << 10) - 4, 16, 16));
        // An explicit blocking is taken as is, or the plan is staged.
        let block = |c_blk, cp_blk| BlockShape { n_blk: 6, c_blk, cp_blk };
        let dual = Schedule::Dual { c_blk: 32, cols: 32 };
        assert_eq!(schedule(36, 64, 64, 20, 2 * MIB, block(32, 32), true), dual);
        assert_eq!(schedule(36, 64, 64, 20, 0, block(32, 32), true), Schedule::Staged);
    }

    fn hand_off(scratch_bytes: usize, output_bytes: usize) -> MemoryFootprint {
        MemoryFootprint { scratch_bytes, output_bytes, ..MemoryFootprint::empty(1) }
    }

    /// At a fifth of the cache the hand-off still counts as resident; one
    /// byte more streams it. Only scratch and output count.
    #[test]
    fn a_plan_streams_once_its_hand_off_exceeds_a_fifth_of_the_llc() {
        let llc = 260 * MIB;
        assert!(!streams(&hand_off(40 * MIB, 12 * MIB - 1), llc));
        assert!(!streams(&hand_off(40 * MIB, 12 * MIB), llc));
        assert!(streams(&hand_off(40 * MIB, 12 * MIB + 1), llc));
        assert!(streams(&hand_off(0, 52 * MIB + 1), llc) && streams(&hand_off(52 * MIB + 1, 0), llc));
        let mut other = hand_off(0, 0);
        (other.transformed_kernel_bytes, other.per_thread_bytes) = (llc, llc);
        assert!(!streams(&other, llc));
        // A host without an L3 reports its L2: everything layer-sized streams.
        assert!(streams(&hand_off(MIB, MIB), 2 * MIB) && !streams(&hand_off(MIB / 8, MIB / 8), 2 * MIB));
    }

    /// The two layers of EXPERIMENTS.md's sweep on the measured host (2 MiB
    /// of L2, 260 MiB of L3). The staged one hands `Û`, `V̂`, `X̂`, `Y` and
    /// its output on, ≈ 24 MiB an image beside 9 MiB of `V̂`; the fused one's
    /// scratch is `V̂` and a ring — about an L2 whatever the batch — so only
    /// its output image, 12.25 MiB an image, can stream it.
    #[test]
    fn the_sweep_layers_stream_from_the_batch_that_outgrows_their_share_of_the_llc() {
        use crate::plan::{ConvOptions, Host};
        let host = Host { l2_bytes: 2 * MIB, llc_bytes: 260 * MIB, pin: None };
        let plan = |batch, c, side: usize| {
            let shape = wino_tensor::ConvShape::new(batch, c, c, &[side, side], &[3, 3], &[1, 1]).unwrap();
            WinogradLayer::new_on(shape, &[4, 4], ConvOptions::default(), host).unwrap()
        };
        for (batch, streaming) in [(1, false), (2, true), (64, true)] {
            let staged = plan(batch, 256, 56);
            let fp = staged.footprint(1);
            assert!(!staged.is_fused());
            assert_eq!(staged.streams, fp.scratch_bytes + fp.output_bytes > 52 * MIB, "B = {batch}");
            assert_eq!(staged.streams, streaming, "staged, B = {batch}");
        }
        for (batch, streaming) in [(1, false), (4, false), (5, true), (32, true)] {
            let fused = plan(batch, 64, 224);
            assert!(fused.is_fused() && fused.footprint(1).scratch_bytes < 2 * MIB);
            assert_eq!(fused.footprint(1).output_bytes, batch * 64 * 224 * 224 * 4);
            assert_eq!(fused.streams, streaming, "fused, B = {batch}");
        }
    }
}
