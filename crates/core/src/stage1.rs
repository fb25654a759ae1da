//! Stage 1 — input and kernel transforms (§4.2, operations ①–④).
//!
//! * **Input transform**: over the grid
//!   `B × C/C_blk × N_D × … × N_W × C_blk/S`, each task takes one tile of
//!   `S` adjacent channels, applies `Bᵀ` along every dimension, and
//!   scatters the `T` resulting vectors into the block-panel matrices `U`
//!   — a write range of only `T` blocks of `n_blk·C_blk` floats ("scattering
//!   range of ②"), one pitch apart: an odd number of lines, so the `T`
//!   stores of one tile fall in different L1 sets. The channel groups of
//!   one column block are innermost, so `U` is written in the order it is
//!   laid out: one tile's groups fill `C_blk` contiguous floats of each
//!   `t`-block, the next tile's continue them.
//!   A tile wholly inside the image is read in place; one that reaches
//!   into the padding or the ceil-division overhang is first gathered,
//!   zero-filled, into a thread buffer.
//! * **Kernel transform**: over `C × C'/S`, each task reads the contiguous
//!   kernel vectors, applies `G` (an expanding transform `r_d → α_d`), and
//!   scatters into `V`.
//!
//! Both go through `codelet::TileTransform::run`: the first pass
//! reads its source view, the last writes `U`/`V` directly — with
//! non-temporal streaming stores (§4.2.1) when the plan streams
//! ([`WinogradLayer::streams`]: the data will be out of the cache before
//! stage 2 touches it again) — and the thread buffers hold only the passes
//! in between.
//!
//! Each task — one input tile, one kernel vector group — is one
//! [`wino_simd::dispatch`]: gather, codelets and scatter are a single
//! body generic over the vector backend.
//!
//! The per-tile bodies serve every schedule. [`transform_inputs`] aims the
//! input one at the layer-sized `U` of the three stages; the ring-fused
//! driver (`fused.rs`) aims it, with plain stores, at one `n_blk`-row block
//! of `U` in the calling thread's ring. [`transform_kernels`] aims the
//! kernel one at the layer-sized `V`; the dual ring (`fused.rs` too) aims
//! it, with plain stores, at one `C_blk × C'_blk` block of `V` in the
//! calling thread's ring.

use wino_sched::probed::{record_coord, record_slot, span_start};
use wino_sched::Executor;
use wino_simd::{Kernel, Simd16, S};
use wino_tensor::{scatter_pitch, BlockedImage, BlockedKernels, BlockedMatrices};

use crate::codelet::{row_major, Bt, Dest, Sink, Strides, TileTransform, G};
use crate::error::{ensure_at_least, ensure_dims_eq, ensure_eq, WinoError};
use crate::plan::{Scratch, ThreadBuf, WinogradLayer, MAX_RANK};

/// Decompose a flat row-major index into coordinates (no allocation).
#[inline]
pub(crate) fn decompose(mut flat: usize, dims: &[usize], out: &mut [usize]) {
    for i in (0..dims.len()).rev() {
        out[i] = flat % dims[i];
        flat /= dims[i];
    }
}

/// Gather one tile of `S`-channel vectors from a blocked image, with zero
/// fill outside the image bounds (zero padding and overlap-add overhang).
///
/// # Safety
/// `dst` must be valid for `∏tile_dims · S` writes and 64-byte aligned.
#[inline(always)]
unsafe fn gather_tile<V: Simd16>(
    input: &BlockedImage,
    b: usize,
    cg: usize,
    origin: &[isize],
    tile_dims: &[usize],
    dst: *mut f32,
) {
    let n = tile_dims.len();
    let in_dims = &input.dims;
    // Spatial strides of the input (row-major; innermost = 1).
    let mut sstride = [1usize; MAX_RANK];
    for d in (0..n.saturating_sub(1)).rev() {
        sstride[d] = sstride[d + 1] * in_dims[d + 1];
    }
    let base_vec = input.vec_offset_flat(b, cg, 0);
    let src = input.as_ptr().add(base_vec);

    let tw = tile_dims[n - 1];
    let w_extent = in_dims[n - 1] as isize;
    let ow = origin[n - 1];
    let outer_vol: usize = tile_dims[..n - 1].iter().product();

    let mut oc = [0usize; MAX_RANK];
    for outer in 0..outer_vol {
        decompose(outer, &tile_dims[..n - 1], &mut oc[..n.max(1) - 1]);
        // Validity and spatial base over the outer dimensions.
        let mut valid = true;
        let mut spatial = 0isize;
        for d in 0..n - 1 {
            let x = origin[d] + oc[d] as isize;
            if x < 0 || x >= in_dims[d] as isize {
                valid = false;
                break;
            }
            spatial += x * sstride[d] as isize;
        }
        let drow = dst.add(outer * tw * S);
        if !valid {
            for k in 0..tw {
                V::zero().store(drow.add(k * S));
            }
            continue;
        }
        for k in 0..tw {
            let x = ow + k as isize;
            if x < 0 || x >= w_extent {
                V::zero().store(drow.add(k * S));
            } else {
                let off = (spatial + x) as usize * S;
                V::load(src.add(off)).store(drow.add(k * S));
            }
        }
    }
}

pub(crate) struct MutPtr(pub(crate) *mut f32);
// SAFETY: tasks write disjoint ranges (each owns its (row, col-group)).
unsafe impl Sync for MutPtr {}
// SAFETY: the pointer targets plan-owned scratch that outlives the
// fork–join moving this handle between threads.
unsafe impl Send for MutPtr {}
impl MutPtr {
    pub(crate) fn get(&self) -> *mut f32 {
        self.0
    }
}

/// The per-tile body of operation ①② — take one tile, `Bᵀ`-transform
/// it, scatter the `T` vectors into a block-panel `U` — with the state
/// every task of one fork–join shares.
pub(crate) struct InputTransformCtx<'a> {
    layer: &'a WinogradLayer,
    input: &'a BlockedImage,
    xf: TileTransform<Bt>,
    /// Strides of a tile read in place from the image.
    image_strides: Strides,
    /// Strides of a tile gathered row-major into a thread buffer.
    gathered_strides: Strides,
    /// Strides of the `T` transform vectors in `U`: `t_stride` apart, the
    /// block pitch of a `BlockedMatrices` of `n_blk × c_blk` blocks.
    u_strides: Strides,
    t_vol: usize,
    n_blk: usize,
    c_blk: usize,
    col_blocks: usize,
    t_stride: usize,
    streaming: bool,
    probe: Option<&'a wino_probe::Collector>,
}

impl<'a> InputTransformCtx<'a> {
    /// Build the shared state for a `U` of `n_blk × c_blk` blocks,
    /// scattered into with NT stores when `streaming`.
    pub(crate) fn new(
        layer: &'a WinogradLayer,
        input: &'a BlockedImage,
        (n_blk, c_blk): (usize, usize),
        streaming: bool,
        probe: Option<&'a wino_probe::Collector>,
    ) -> InputTransformCtx<'a> {
        let t_stride = scatter_pitch(n_blk * c_blk);
        InputTransformCtx {
            layer,
            input,
            xf: TileTransform::new(layer.table_rows()),
            image_strides: row_major(&input.dims, S),
            gathered_strides: row_major(&layer.grid.tile_dims, S),
            u_strides: row_major(&layer.grid.tile_dims, t_stride),
            t_vol: layer.t_vol(),
            n_blk,
            c_blk,
            col_blocks: layer.shape.in_channels / c_blk,
            t_stride,
            streaming,
            probe,
        }
    }

    /// Transform tile `(b, cg, n)` (`n` is the flat tile index within one
    /// image) into row `row` of the `U` starting at `u`.
    ///
    /// # Safety
    /// The caller must hold `tb` exclusively (Executor slot contract);
    /// `u` must be a block-panel `U` of this context's `n_blk` with more
    /// than `row` rows, and the caller must own its `(row, column-group
    /// cg)` range — concurrent tasks must cover disjoint `(u, row, cg)`.
    pub(crate) unsafe fn tile(
        &self,
        tb: &mut ThreadBuf,
        slot: usize,
        (u, row): (*mut f32, usize),
        b: usize,
        cg: usize,
        n: usize,
    ) {
        wino_simd::dispatch(InputTile { ctx: self, tb, slot, dest: (u, row), b, cg, n })
    }

    /// The body of [`InputTransformCtx::tile`] on backend `V`.
    ///
    /// # Safety
    /// As [`InputTransformCtx::tile`].
    #[inline(always)]
    unsafe fn tile_on<V: Simd16>(
        &self,
        tb: &mut ThreadBuf,
        slot: usize,
        (u, row): (*mut f32, usize),
        b: usize,
        cg: usize,
        n: usize,
    ) {
        let rank = self.layer.rank();
        let grid = &self.layer.grid;
        let mut tc = [0usize; MAX_RANK];
        decompose(n, &grid.counts, &mut tc[..rank]);
        // Input-space origin of the tile (may read the padding region).
        let mut origin = [0isize; MAX_RANK];
        let mut interior = true;
        for d in 0..rank {
            origin[d] = (tc[d] * grid.m[d]) as isize - grid.padding[d] as isize;
            interior &= origin[d] >= 0
                && origin[d] as usize + grid.tile_dims[d] <= self.input.dims[d];
        }

        let tmp = tb.ptrs();
        let (src, src_strides) = if interior {
            // Every tile point is an image point: the first pass reads
            // the image in place.
            let off = self.input.vec_offset_flat(b, cg, 0)
                + origin.iter().zip(&self.image_strides).map(|(&x, &s)| x as usize * s).sum::<usize>();
            // SAFETY: `off` addresses the tile's first vector, inside
            // channel group `(b, cg)` of the image.
            (self.input.as_ptr().add(off), &self.image_strides)
        } else {
            let gather_start = span_start(self.probe);
            // SAFETY: buffers sized T·S at construction; tile fits.
            gather_tile::<V>(self.input, b, cg, &origin[..rank], &grid.tile_dims, tmp[0]);
            // SAFETY: this task holds `slot` per this function's contract.
            record_slot(self.probe, slot, wino_probe::SpanCategory::TileExtract, gather_start);
            (tmp[0].cast_const(), &self.gathered_strides)
        };

        // Scatter into U (Table 1 "Transformed inputs").
        let (rb_i, r_in) = (row / self.n_blk, row % self.n_blk);
        let col = cg * S;
        let (cb_i, c_in) = (col / self.c_blk, col % self.c_blk);
        let base = ((rb_i * self.col_blocks + cb_i) * self.t_vol) * self.t_stride
            + r_in * self.c_blk
            + c_in;
        // SAFETY: the source view is the in-bounds image tile or the
        // gathered tile in `tmp[0]`; disjoint (row, cg) ranges of `u` per
        // the caller's contract, offsets in bounds by construction of
        // `u`; the thread buffers hold T·S floats each.
        self.xf.run::<V>(
            src,
            src_strides,
            Sink::Direct(Dest { ptr: u.add(base), strides: self.u_strides, nt: self.streaming }),
            tmp,
        );
    }
}

/// One [`InputTransformCtx::tile`] call, ready for whichever backend
/// runs it.
struct InputTile<'c, 'a> {
    ctx: &'c InputTransformCtx<'a>,
    tb: &'c mut ThreadBuf,
    slot: usize,
    dest: (*mut f32, usize),
    b: usize,
    cg: usize,
    n: usize,
}

impl Kernel for InputTile<'_, '_> {
    type Output = ();

    #[inline(always)]
    fn run<V: Simd16>(self) {
        // SAFETY: `InputTransformCtx::tile`, the only constructor,
        // forwards its caller's exclusivity contract.
        unsafe { self.ctx.tile_on::<V>(self.tb, self.slot, self.dest, self.b, self.cg, self.n) }
    }
}

/// `input` must be the image `layer` was planned for.
pub(crate) fn check_input(layer: &WinogradLayer, input: &BlockedImage) -> Result<(), WinoError> {
    ensure_eq("input batch", layer.shape.batch, input.batch)?;
    ensure_eq("input channels", layer.shape.in_channels, input.channels)?;
    ensure_dims_eq("input extent", &layer.shape.image_dims, &input.dims)
}

/// Operation ①②: transform all input tiles into `scratch.u` (allocated
/// first if this is a ring plan's scratch that has not held one yet).
pub fn transform_inputs(
    layer: &WinogradLayer,
    input: &BlockedImage,
    scratch: &mut Scratch,
    exec: &dyn Executor,
) -> Result<(), WinoError> {
    ensure_at_least("scratch thread slots", exec.threads(), scratch.thread_slots())?;
    check_input(layer, input)?;
    scratch.materialise()?;
    input_transform_pass(layer, input, (layer.block.n_blk, layer.block.c_blk), scratch, exec)
}

/// The fork–join of [`transform_inputs`] into `u`'s bytes laid out in
/// `n_blk × c_blk` blocks, on a scratch whose `u` exists and whose slots
/// and input have been checked — also the first of the dual ring's two
/// (`fused::forward_dual`), at its own `C_blk`.
pub(crate) fn input_transform_pass(
    layer: &WinogradLayer,
    input: &BlockedImage,
    u_block: (usize, usize),
    scratch: &mut Scratch,
    exec: &dyn Executor,
) -> Result<(), WinoError> {
    let rank = layer.rank();
    let n_tiles = layer.n_tiles();

    // Grid: B × C/C_blk × N_D × … × N_W × C_blk/S (§4.2, §4.5). A column
    // block's channel groups are innermost: together one tile's groups
    // write `C_blk` contiguous floats of each `t`-block of `U`, and the
    // next tile's row continues those runs, so each `t`-block fills as one
    // ascending stream. Only within the column block: at `C_blk = S` (the
    // dual ring's pass) every group is its own block and the tiles stay
    // innermost, which keeps that pass's runs.
    let groups = u_block.1 / S;
    let mut dims = [0usize; MAX_RANK + 3];
    dims[0] = layer.shape.batch;
    dims[1] = layer.shape.in_channels / u_block.1;
    dims[2..2 + rank].copy_from_slice(&layer.grid.counts);
    dims[2 + rank] = groups;
    let dims = &dims[..3 + rank];

    let probe = exec.probe();
    // `u`'s bytes, not its view: the dual ring lays them out at its own
    // `C_blk`, which may need more of them than the plan's blocking.
    let (t_vol, rows, c) = (layer.t_vol(), layer.rows(), layer.shape.in_channels);
    let need = BlockedMatrices::bytes_for(t_vol, rows, c, u_block.0, u_block.1);
    ensure_at_least("transformed-input bytes", need, scratch.u.bytes())?;
    let ctx = InputTransformCtx::new(layer, input, u_block, layer.streams, probe);
    let u = MutPtr(scratch.u.as_mut_ptr());
    let scratch_ref: &Scratch = scratch;
    let stage_start = span_start(probe);

    exec.run_grid(dims, &|slot, flat| {
        let mut coords = [0usize; MAX_RANK + 3];
        decompose(flat, dims, &mut coords[..dims.len()]);
        let (b, cg) = (coords[0], coords[1] * groups + coords[2 + rank]);
        let mut n = 0usize; // flat tile index
        for d in 0..rank {
            n = n * layer.grid.counts[d] + coords[2 + d];
        }
        // SAFETY: slot exclusivity per the Executor contract.
        let tb = unsafe { scratch_ref.thread_buf(slot) };
        // SAFETY: the grid enumerates each (b, cg, n) exactly once, so
        // tasks cover disjoint (n' = b·N + n, cg) ranges of `u`.
        unsafe { ctx.tile(tb, slot, (u.get(), b * n_tiles + n), b, cg, n) };
    })?;
    // SAFETY: the coordinator thread, after the join.
    unsafe { record_coord(probe, wino_probe::SpanCategory::InputTransform, stage_start) };
    #[cfg(feature = "fault-inject")]
    if wino_sched::fault::take_poison_stage(1) {
        scratch.u.as_mut_slice()[0] = f32::NAN;
    }
    Ok(())
}

/// `kernels` must be the kernel bank `layer` was planned for.
pub(crate) fn check_kernels(layer: &WinogradLayer, kernels: &BlockedKernels) -> Result<(), WinoError> {
    ensure_eq("kernel in-channels", layer.shape.in_channels, kernels.in_channels)?;
    ensure_eq("kernel out-channels", layer.shape.out_channels, kernels.out_channels)?;
    ensure_dims_eq("kernel extent", &layer.shape.kernel_dims, &kernels.dims)
}

/// Operation ③④: transform all kernels into `scratch.v` (allocated first
/// if this is a dual plan's scratch that has not held one yet).
pub fn transform_kernels(
    layer: &WinogradLayer,
    kernels: &BlockedKernels,
    scratch: &mut Scratch,
    exec: &dyn Executor,
) -> Result<(), WinoError> {
    ensure_at_least("scratch thread slots", exec.threads(), scratch.thread_slots())?;
    check_kernels(layer, kernels)?;
    scratch.materialise_v()?;

    let dims = [layer.shape.in_channels, layer.shape.out_channels / S];
    let block = (layer.block.c_blk, layer.block.cp_blk);
    let ctx = KernelTransformCtx::new(layer, kernels, block, layer.streams);
    let v = MutPtr(scratch.v.as_mut_ptr());
    let scratch_ref: &Scratch = scratch;
    let probe = exec.probe();
    let stage_start = span_start(probe);

    exec.run_grid(&dims, &|slot, flat| {
        let (c, og) = (flat / dims[1], flat % dims[1]);
        // SAFETY: slot exclusivity per the Executor contract.
        let tb = unsafe { scratch_ref.thread_buf(slot) };
        // SAFETY: the grid hands each (c, og) to exactly one task, so the
        // scattered (row c, column og·S) ranges of `v` are disjoint.
        unsafe { ctx.group(tb, (v.get(), c, og * S), c, og) };
    })?;
    // SAFETY: the coordinator thread, after the join.
    unsafe { record_coord(probe, wino_probe::SpanCategory::KernelTransform, stage_start) };
    Ok(())
}

/// The per-task body of operation ③④ — transform the kernel vectors of
/// one (input channel, output channel group), scatter them into a `V` —
/// with the state every task of one fork–join shares.
pub(crate) struct KernelTransformCtx<'a> {
    kernels: &'a BlockedKernels,
    xf: TileTransform<G>,
    /// Strides of the `r_vol` contiguous kernel vectors.
    kernel_strides: Strides,
    /// Strides of the `T` transform vectors in `V`: `t_stride` apart, the
    /// block pitch of a `BlockedMatrices` of `c_blk × cp_blk` blocks.
    v_strides: Strides,
    t_vol: usize,
    r_vol: usize,
    c_blk: usize,
    cp_blk: usize,
    col_blocks: usize,
    t_stride: usize,
    streaming: bool,
}

impl<'a> KernelTransformCtx<'a> {
    /// Build the shared state for a `V` of `c_blk × cp_blk` blocks,
    /// scattered into with NT stores when `streaming`.
    pub(crate) fn new(
        layer: &WinogradLayer,
        kernels: &'a BlockedKernels,
        (c_blk, cp_blk): (usize, usize),
        streaming: bool,
    ) -> KernelTransformCtx<'a> {
        let t_stride = scatter_pitch(c_blk * cp_blk);
        KernelTransformCtx {
            kernels,
            xf: TileTransform::new(layer.table_rows()),
            kernel_strides: row_major(&layer.shape.kernel_dims, S),
            v_strides: row_major(&layer.grid.tile_dims, t_stride),
            t_vol: layer.t_vol(),
            r_vol: layer.shape.kernel_dims.iter().product(),
            c_blk,
            cp_blk,
            col_blocks: layer.shape.out_channels / cp_blk,
            t_stride,
            streaming,
        }
    }

    /// Transform the kernel vectors of input channel `c`, output channel
    /// group `og`, into row `row`, columns `col..col + S` of the `V` at
    /// `v` — the layer's (`row = c`, `col = og·S`) or one `C_blk × C'_blk`
    /// block of it.
    ///
    /// # Safety
    /// The caller must hold `tb` exclusively (Executor slot contract); `v`
    /// must be a `V` of this context's blocking holding row `row` and
    /// column `col`, and the caller must own that `(row, col)` range —
    /// concurrent tasks must cover disjoint `(v, row, col)`.
    pub(crate) unsafe fn group(
        &self,
        tb: &mut ThreadBuf,
        (v, row, col): (*mut f32, usize, usize),
        c: usize,
        og: usize,
    ) {
        wino_simd::dispatch(KernelGroup { ctx: self, tb, dest: (v, row, col), c, og })
    }
}

/// One [`KernelTransformCtx::group`] call, ready for whichever backend
/// runs it.
struct KernelGroup<'c, 'a> {
    ctx: &'c KernelTransformCtx<'a>,
    tb: &'c mut ThreadBuf,
    dest: (*mut f32, usize, usize),
    c: usize,
    og: usize,
}

impl Kernel for KernelGroup<'_, '_> {
    type Output = ();

    #[inline(always)]
    fn run<V: Simd16>(self) {
        let KernelGroup { ctx, tb, dest: (v, row, col), c, og } = self;
        let (c_blk, cp_blk) = (ctx.c_blk, ctx.cp_blk);

        // Kernel vectors are contiguous in the blocked layout: the first
        // pass reads the r_vol vectors in place.
        let src_off = ctx.kernels.vec_offset_flat(c, og, 0);
        let src = ctx.kernels.as_slice()[src_off..src_off + ctx.r_vol * S].as_ptr();

        // Scatter into V (Table 1 "Transformed kernels").
        let (rb_i, r_in) = (row / c_blk, row % c_blk);
        let (cb_i, c_in) = (col / cp_blk, col % cp_blk);
        let base =
            ((rb_i * ctx.col_blocks + cb_i) * ctx.t_vol) * ctx.t_stride + r_in * cp_blk + c_in;
        // SAFETY: `src` is the bounds-checked kernel slice; the caller of
        // `KernelTransformCtx::group` owns the (row, col) range of `v` and
        // vouches that it is in bounds; `tb` is this task's (slot
        // contract), T·S floats each.
        unsafe {
            ctx.xf.run::<V>(
                src,
                &ctx.kernel_strides,
                Sink::Direct(Dest { ptr: v.add(base), strides: ctx.v_strides, nt: ctx.streaming }),
                tb.ptrs(),
            )
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ConvOptions, Host, Pin};
    use wino_gemm::BlockShape;
    use wino_sched::{SerialExecutor, StaticExecutor};
    use wino_tensor::{BlockedMatrices, ConvShape, SimpleImage, SimpleKernels};

    fn make_layer(pad: usize, m: &[usize]) -> WinogradLayer {
        let s = ConvShape::new(2, 32, 32, &[10, 10], &[3, 3], &[pad, pad]).unwrap();
        WinogradLayer::new(s, m, ConvOptions::default()).unwrap()
    }

    /// Oracle: transformed tile element (t, n', c) computed densely from
    /// the simple image.
    fn dense_input_transform(
        layer: &WinogradLayer,
        img: &SimpleImage,
        t: (usize, usize),
        n_prime: usize,
        c: usize,
    ) -> f32 {
        let n_tiles = layer.n_tiles();
        let (b, n) = (n_prime / n_tiles, n_prime % n_tiles);
        let tc = layer.grid.tile_coords(n);
        let origin = layer.grid.input_origin(&tc);
        let td = &layer.grid.tile_dims;
        // Gather the raw tile.
        let mut tile = vec![0.0f32; td[0] * td[1]];
        for i in 0..td[0] {
            for j in 0..td[1] {
                tile[i * td[1] + j] =
                    img.get_padded(b, c, &[origin[0] + i as isize, origin[1] + j as isize]);
            }
        }
        // Bᵀ · tile · B via dense mats.
        let plans = layer.fmr_plans();
        let (bt0, bt1) = (plans[0].transform.bt.to_f32(), plans[1].transform.bt.to_f32());
        let mut acc = 0.0f64;
        for i in 0..td[0] {
            for j in 0..td[1] {
                acc += (bt0.at(t.0, i) as f64) * (bt1.at(t.1, j) as f64)
                    * tile[i * td[1] + j] as f64;
            }
        }
        acc as f32
    }

    #[test]
    fn input_transform_matches_dense_oracle() {
        for pad in [0usize, 1] {
            let layer = make_layer(pad, &[4, 4]);
            let img = SimpleImage::from_fn(2, 32, &[10, 10], |b, c, xy| {
                ((b * 31 + c * 7 + xy[0] * 13 + xy[1] * 3) % 17) as f32 * 0.1 - 0.8
            });
            let blocked = BlockedImage::from_simple(&img).unwrap();
            let mut scratch = Scratch::new(&layer, 1);
            transform_inputs(&layer, &blocked, &mut scratch, &SerialExecutor).unwrap();

            let td = &layer.grid.tile_dims;
            for n_prime in [0usize, 5, layer.rows() - 1] {
                for c in [0usize, 17, 31] {
                    for t0 in 0..td[0] {
                        for t1 in 0..td[1] {
                            let t = t0 * td[1] + t1;
                            let got = scratch.u.get(t, n_prime, c);
                            let want = dense_input_transform(&layer, &img, (t0, t1), n_prime, c);
                            assert!(
                                (got - want).abs() <= 1e-4 * want.abs().max(1.0),
                                "pad={pad} t=({t0},{t1}) n'={n_prime} c={c}: {got} vs {want}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_transform_matches_dense_oracle() {
        let layer = make_layer(1, &[4, 4]);
        let ker = SimpleKernels::from_fn(32, 32, &[3, 3], |co, ci, xy| {
            ((co * 5 + ci * 11 + xy[0] * 3 + xy[1]) % 13) as f32 * 0.05 - 0.3
        });
        let blocked = BlockedKernels::from_simple(&ker).unwrap();
        let mut scratch = Scratch::new(&layer, 1);
        transform_kernels(&layer, &blocked, &mut scratch, &SerialExecutor).unwrap();

        let plans = layer.fmr_plans();
        let (g0, g1) = (plans[0].transform.g.to_f32(), plans[1].transform.g.to_f32());
        let td = &layer.grid.tile_dims;
        for c in [0usize, 9, 31] {
            for co in [0usize, 16, 31] {
                for t0 in 0..td[0] {
                    for t1 in 0..td[1] {
                        let t = t0 * td[1] + t1;
                        let got = scratch.v.get(t, c, co);
                        let mut want = 0.0f64;
                        for i in 0..3 {
                            for j in 0..3 {
                                want += g0.at(t0, i) as f64
                                    * g1.at(t1, j) as f64
                                    * ker.get(co, c, &[i, j]) as f64;
                            }
                        }
                        assert!(
                            (got as f64 - want).abs() <= 1e-4 * want.abs().max(1.0),
                            "t=({t0},{t1}) c={c} c'={co}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    /// One tile of the staged reference: `gather_tile` into a buffer, the
    /// [`crate::vecprog`] interpreter over it, the result row-major in
    /// `out`. Shares nothing with `codelet::TileTransform`.
    struct ReferenceTile<'a> {
        layer: &'a WinogradLayer,
        /// `Bᵀ` of each dimension.
        progs: &'a [&'a wino_transforms::PairedProgram],
        input: &'a BlockedImage,
        b: usize,
        cg: usize,
        n: usize,
        out: &'a mut Vec<f32>,
    }

    impl Kernel for ReferenceTile<'_> {
        type Output = ();
        #[inline(always)]
        fn run<V: Simd16>(self) {
            let grid = &self.layer.grid;
            let rank = self.layer.rank();
            let t_vol = self.layer.t_vol();
            let origin = grid.input_origin(&grid.tile_coords(self.n));
            let mut a = wino_simd::AlignedVec::try_zeroed(t_vol * S).unwrap();
            let mut b = wino_simd::AlignedVec::try_zeroed(t_vol * S).unwrap();
            // SAFETY: `a` holds the T·S floats of one tile.
            unsafe {
                gather_tile::<V>(self.input, self.b, self.cg, &origin, &grid.tile_dims, a.as_mut_ptr())
            };
            let mut dims = grid.tile_dims.clone();
            let in_a = crate::vecprog::transform_all_dims::<V>(
                self.progs,
                a.as_mut_slice(),
                b.as_mut_slice(),
                &mut dims[..rank],
            );
            self.out.clear();
            self.out.extend_from_slice(if in_a { a.as_slice() } else { b.as_slice() });
        }
    }

    /// A `batch × c` image of extent `img` with values in `[-1, 1)`.
    fn test_image(batch: usize, c: usize, img: &[usize]) -> BlockedImage {
        let simple = SimpleImage::from_fn(batch, c, img, |b, ch, x| {
            let h = x.iter().fold(b * 31 + ch * 7, |h, &v| h * 13 + v);
            (h % 201) as f32 * 0.01 - 1.0
        });
        BlockedImage::from_simple(&simple).unwrap()
    }

    /// Assert that `u` holds exactly what gather + the interpreter produce
    /// from `input`, tile by tile; returns how many tiles lie wholly inside
    /// the image (read in place by the stage, the rest gathered).
    fn assert_u_is_the_reference(
        layer: &WinogradLayer,
        input: &BlockedImage,
        u: &BlockedMatrices,
        what: &str,
    ) -> usize {
        let (t_vol, n_tiles, rank) = (layer.t_vol(), layer.n_tiles(), layer.rank());
        let plans = layer.fmr_plans();
        let progs: Vec<_> = plans.iter().map(|p| &p.bt).collect();
        let mut want = Vec::new();
        let mut interior = 0usize;
        for b in 0..input.batch {
            for cg in 0..input.channels / S {
                for n in 0..n_tiles {
                    let tile = ReferenceTile { layer, progs: &progs, input, b, cg, n, out: &mut want };
                    wino_simd::dispatch(tile);
                    let origin = layer.grid.input_origin(&layer.grid.tile_coords(n));
                    interior += (0..rank).all(|d| {
                        origin[d] >= 0 && origin[d] as usize + layer.grid.tile_dims[d] <= input.dims[d]
                    }) as usize;
                    for t in 0..t_vol {
                        for lane in 0..S {
                            assert_eq!(
                                u.get(t, b * n_tiles + n, cg * S + lane),
                                want[t * S + lane],
                                "{what}: b={b} cg={cg} n={n} t={t} lane={lane}"
                            );
                        }
                    }
                }
            }
        }
        interior
    }

    /// `transform_inputs` must leave in `U` exactly what gather + the
    /// interpreter produce, tile by tile: the in-place read of interior
    /// tiles, the gathered edge tiles and the direct (streaming or plain)
    /// write to `U` are all pinned against the staged path.
    fn assert_u_equals_staged_reference(
        batch: usize,
        c: usize,
        img: &[usize],
        ker: &[usize],
        pad: usize,
        m: &[usize],
        streams: bool,
    ) {
        let rank = img.len();
        let s = ConvShape::new(batch, c, 16, img, ker, &vec![pad; rank]).unwrap();
        let host = Host::test(Pin::Ring, streams);
        let layer = WinogradLayer::new_on(s, m, ConvOptions::default(), host).unwrap();
        assert_eq!(layer.streams, streams);
        let blocked = test_image(batch, c, img);
        let mut scratch = Scratch::new(&layer, 2);
        transform_inputs(&layer, &blocked, &mut scratch, &StaticExecutor::new(2)).unwrap();
        let what = format!("img {img:?} pad {pad} m {m:?}");
        let interior = assert_u_is_the_reference(&layer, &blocked, &scratch.u, &what);
        // Each shape exercises both routes.
        let tiles = batch * (c / S) * layer.n_tiles();
        assert!(interior > 0 && interior < tiles, "{interior} interior of {tiles} tiles");
    }

    /// The task grid of [`input_transform_pass`] — `B × C/C_blk × N_D × …
    /// × N_W × C_blk/S` — leaves `U` equal to the reference however it is
    /// cut: `C_blk/S` of 1, 2 and 4, below `C` and equal to it, at batch 1
    /// and 2, rank 2 and 3, serial and on 2 and 3 threads, with tile
    /// counts chosen so that some partitions split the innermost,
    /// channel-group dimension; and on the dual ring's pass at `C_blk = S`.
    #[test]
    fn u_is_the_reference_however_the_grid_is_cut() {
        let (two, three) = (StaticExecutor::new(2), StaticExecutor::new(3));
        let execs: [&dyn Executor; 3] = [&SerialExecutor, &two, &three];
        // Tile counts: 3 × 3 (odd), 2 × 1 (all below the 4 groups of a
        // 64-wide block) and 3 × 3 × 3.
        let shapes: [(&[usize], &[usize], &[usize]); 3] =
            [(&[9, 13], &[3, 3], &[4, 6]), (&[6, 3], &[3, 3], &[4, 4]), (&[5, 5, 5], &[3, 3, 3], &[2, 2, 2])];
        let mut splits_groups = [false; 4];
        for (img, ker, m) in shapes {
            let rank = img.len();
            for batch in [1, 2] {
                for (c, c_blk) in [(32, 16), (64, 32), (128, 64), (16, 16), (32, 32), (64, 64)] {
                    let s = ConvShape::new(batch, c, 16, img, ker, &vec![1; rank]).unwrap();
                    let block = BlockShape { n_blk: 6, c_blk, cp_blk: 16 };
                    let opts = ConvOptions { block: Some(block), ..Default::default() };
                    let layer = WinogradLayer::new_on(s, m, opts, Host::test(Pin::Staged, false)).unwrap();
                    let input = test_image(batch, c, img);
                    let mut dims = vec![batch, c / c_blk];
                    dims.extend(&layer.grid.counts);
                    dims.push(c_blk / S);
                    for exec in execs {
                        let threads = exec.threads();
                        let inner = dims.len() - 1;
                        let partition = wino_sched::GridPartition::new(&dims, threads);
                        splits_groups[threads] |=
                            partition.boxes.iter().any(|b| b.end[inner] - b.start[inner] < dims[inner]);
                        let mut scratch = Scratch::new(&layer, threads);
                        scratch.u.as_mut_slice().fill(f32::NAN);
                        transform_inputs(&layer, &input, &mut scratch, exec).unwrap();
                        let what =
                            format!("img {img:?} batch {batch} C {c} C_blk {c_blk} on {threads} threads");
                        assert_u_is_the_reference(&layer, &input, &scratch.u, &what);
                    }
                }
            }
        }
        assert_eq!(splits_groups[2..], [true, true], "2 and 3 threads must each split the groups");

        // The dual ring's pass, into `u`'s bytes at its own `C_blk = S`.
        for (img, ker, m) in shapes {
            let rank = img.len();
            let s = ConvShape::new(2, 64, 16, img, ker, &vec![1; rank]).unwrap();
            let host = Host::test(Pin::Dual, false);
            let layer = WinogradLayer::new_on(s, m, ConvOptions::default(), host).unwrap();
            let BlockShape { n_blk, c_blk, .. } = layer.ring_gemm().shape();
            assert!(layer.is_dual() && c_blk == S && layer.block.c_blk > S, "{img:?}: {:?}", layer.block);
            let input = test_image(2, 64, img);
            for exec in execs {
                let mut scratch = Scratch::new(&layer, exec.threads());
                scratch.u.as_mut_slice().fill(f32::NAN);
                input_transform_pass(&layer, &input, (n_blk, c_blk), &mut scratch, exec).unwrap();
                scratch.u.try_reshape(layer.t_vol(), layer.rows(), 64, n_blk, c_blk).unwrap();
                let what = format!("dual pass, img {img:?} on {} threads", exec.threads());
                assert_u_is_the_reference(&layer, &input, &scratch.u, &what);
            }
        }
    }

    #[test]
    fn u_equals_gather_plus_interpreter_on_interior_and_edge_tiles() {
        // The benchmark's ragged shape: 158 = 26·6 + 2 outputs per side.
        assert_u_equals_staged_reference(1, 16, &[160, 160], &[3, 3], 0, &[6, 6], true);
        for streams in [true, false] {
            assert_u_equals_staged_reference(2, 32, &[15, 15], &[3, 3], 0, &[4, 4], streams);
            assert_u_equals_staged_reference(2, 32, &[14, 14], &[3, 3], 1, &[4, 4], streams);
            assert_u_equals_staged_reference(1, 16, &[22, 19], &[3, 3], 1, &[6, 2], streams);
            assert_u_equals_staged_reference(1, 16, &[7, 12, 12], &[3, 3, 3], 1, &[2, 4, 4], streams);
            assert_u_equals_staged_reference(1, 16, &[30], &[3], 1, &[8], streams);
        }
    }

    /// Kernel widths other than 3 — per dimension — run their own table
    /// rows through the same entry point.
    #[test]
    fn u_equals_the_reference_for_other_kernel_widths() {
        for (img, ker, pad, m) in [
            (&[14usize, 14][..], &[4usize, 4][..], 1, &[3usize, 3][..]),
            (&[13, 15], &[5, 2], 1, &[2, 3]),
            (&[6, 11, 11], &[1, 3, 2], 0, &[2, 4, 3]),
        ] {
            assert_u_equals_staged_reference(1, 16, img, ker, pad, m, true);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let layer = make_layer(1, &[2, 2]);
        let img = SimpleImage::from_fn(2, 32, &[10, 10], |b, c, xy| {
            (b + c + xy[0] * xy[1]) as f32 * 0.01
        });
        let blocked = BlockedImage::from_simple(&img).unwrap();
        let mut s1 = Scratch::new(&layer, 1);
        let mut s2 = Scratch::new(&layer, 4);
        transform_inputs(&layer, &blocked, &mut s1, &SerialExecutor).unwrap();
        let pool = StaticExecutor::new(4);
        transform_inputs(&layer, &blocked, &mut s2, &pool).unwrap();
        assert!(!s1.u.as_slice().is_empty(), "the stage allocates a fused plan's `u`");
        assert_eq!(s1.u.as_slice(), s2.u.as_slice());
    }
}
