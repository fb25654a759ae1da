//! Stage 1 — input and kernel transforms (§4.2, operations ①–④).
//!
//! * **Input transform**: over the grid `B × C/S × N_D × … × N_W`, each
//!   task gathers one tile of `S` adjacent channels (with implicit zero
//!   fill for padding and ceil-division overhang), applies `Bᵀ` along
//!   every dimension with the compiled codelets, and scatters the `T`
//!   resulting vectors into the block-panel matrices `U` — a write range
//!   of only `T·n_blk·C_blk` floats ("scattering range of ②").
//! * **Kernel transform**: over `C × C'/S`, each task reads the contiguous
//!   kernel vectors, applies `G` (an expanding transform `r_d → α_d`), and
//!   scatters into `V`.
//!
//! Results are written with non-temporal streaming stores by default —
//! they will not be touched again until stage 2 (§4.2.1).
//!
//! Each task — one input tile, one kernel vector group — is one
//! [`wino_simd::dispatch`]: gather, codelets and scatter are a single
//! body generic over the vector backend.

use wino_sched::Executor;
use wino_simd::{Kernel, Simd16, S};
use wino_tensor::BlockedImage;
use wino_tensor::BlockedKernels;

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

/// Scatter `t_vol` transformed vectors from `buf` into a block-panel
/// matrix at logical (row, col = cg·S).
///
/// # Safety
/// `base` computed by the caller must give exclusive, in-bounds access for
/// this (row, col-group); `buf` holds `t_vol · S` floats.
#[inline(always)]
unsafe fn scatter_vectors<V: Simd16>(
    buf: *const f32,
    dst: *mut f32,
    base: usize,
    t_stride: usize,
    t_vol: usize,
    streaming: bool,
) {
    if streaming {
        for t in 0..t_vol {
            V::load(buf.add(t * S)).store_nt(dst.add(base + t * t_stride));
        }
    } else {
        for t in 0..t_vol {
            V::load(buf.add(t * S)).store(dst.add(base + t * t_stride));
        }
    }
}

/// The per-tile body of operation ①② — gather one tile, `Bᵀ`-transform
/// it, scatter the `T` vectors into `U` — factored out so the monolithic
/// stage-1 fork–join and the superblock pipeline share one
/// implementation.
pub(crate) struct InputTransformCtx<'a> {
    layer: &'a WinogradLayer,
    input: &'a BlockedImage,
    u: MutPtr,
    n_tiles: usize,
    t_vol: usize,
    n_blk: usize,
    c_blk: usize,
    col_blocks: usize,
    t_stride: usize,
    progs: Vec<&'a wino_transforms::PairedProgram>,
    streaming: bool,
    probe: Option<&'a wino_probe::Collector>,
}

impl<'a> InputTransformCtx<'a> {
    /// Build the shared state. `streaming` selects NT stores for the `U`
    /// scatter (the monolithic schedules want them; the pipeline keeps
    /// `U` cache-resident and passes `false`).
    pub(crate) fn new(
        layer: &'a WinogradLayer,
        input: &'a BlockedImage,
        u: *mut f32,
        streaming: bool,
        probe: Option<&'a wino_probe::Collector>,
    ) -> InputTransformCtx<'a> {
        InputTransformCtx {
            layer,
            input,
            u: MutPtr(u),
            n_tiles: layer.n_tiles(),
            t_vol: layer.t_vol(),
            n_blk: layer.block.n_blk,
            c_blk: layer.block.c_blk,
            col_blocks: layer.shape.in_channels / layer.block.c_blk,
            t_stride: layer.block.n_blk * layer.block.c_blk,
            progs: layer.plans.iter().map(|p| &p.bt).collect(),
            streaming,
            probe,
        }
    }

    /// Gather, transform and scatter tile `(b, cg, n)` (`n` is the flat
    /// tile index within one image).
    ///
    /// # Safety
    /// The caller must hold `tb` exclusively (Executor slot contract) and
    /// own the `(row n' = b·N + n, column-group cg)` range of `u` — tasks
    /// of one fork–join must cover disjoint `(n', cg)` pairs.
    pub(crate) unsafe fn tile(&self, tb: &mut ThreadBuf, slot: usize, b: usize, cg: usize, n: usize) {
        wino_simd::dispatch(InputTile { ctx: self, tb, slot, b, cg, n })
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
        for d in 0..rank {
            origin[d] = (tc[d] * grid.m[d]) as isize - grid.padding[d] as isize;
        }

        let gather_start = crate::spans::span_start();
        // SAFETY: buffers sized T·S at construction; tile fits.
        gather_tile::<V>(self.input, b, cg, &origin[..rank], &grid.tile_dims, tb.a.as_mut_ptr());
        crate::spans::record_slot(
            self.probe,
            slot,
            wino_probe::SpanCategory::TileExtract,
            gather_start,
        );

        let mut tdims = [0usize; MAX_RANK];
        tdims[..rank].copy_from_slice(&grid.tile_dims);
        let in_a = crate::vecprog::transform_all_dims::<V>(
            &self.progs,
            tb.a.as_mut_slice(),
            tb.b.as_mut_slice(),
            &mut tdims[..rank],
        );
        let result = if in_a { tb.a.as_ptr() } else { tb.b.as_ptr() };

        // Scatter into U (Table 1 "Transformed inputs").
        let n_prime = b * self.n_tiles + n;
        let (rb_i, r_in) = (n_prime / self.n_blk, n_prime % self.n_blk);
        let col = cg * S;
        let (cb_i, c_in) = (col / self.c_blk, col % self.c_blk);
        let base = ((rb_i * self.col_blocks + cb_i) * self.t_vol) * self.t_stride
            + r_in * self.c_blk
            + c_in;
        // SAFETY: disjoint (n', cg) ranges per the caller's contract;
        // offsets in bounds by construction of `u`.
        scatter_vectors::<V>(result, self.u.get(), base, self.t_stride, self.t_vol, self.streaming);
    }

    /// Hint-prefetch tile `(b, cg, n)`'s innermost source row toward L2 —
    /// called by the pipeline one tile ahead of the gather.
    pub(crate) fn prefetch_tile(&self, b: usize, cg: usize, n: usize) {
        let rank = self.layer.rank();
        let grid = &self.layer.grid;
        let mut tc = [0usize; MAX_RANK];
        decompose(n, &grid.counts, &mut tc[..rank]);
        // First in-bounds point of the tile.
        let mut pt = [0usize; MAX_RANK];
        for (d, p) in pt[..rank].iter_mut().enumerate() {
            let x = (tc[d] * grid.m[d]) as isize - grid.padding[d] as isize;
            *p = x.clamp(0, self.input.dims[d] as isize - 1) as usize;
        }
        let mut spatial = 0usize;
        for (&dim, &p) in self.input.dims.iter().zip(&pt[..rank]) {
            spatial = spatial * dim + p;
        }
        let off = self.input.vec_offset_flat(b, cg, 0) + spatial * S;
        let bytes = grid.tile_dims[rank - 1].min(self.input.dims[rank - 1] - pt[rank - 1])
            * S
            * std::mem::size_of::<f32>();
        // SAFETY: the span starts inside the image allocation; prefetch
        // never faults regardless.
        unsafe { wino_simd::prefetch_span_t1(self.input.as_ptr().add(off) as *const u8, bytes) };
    }
}

/// One [`InputTransformCtx::tile`] call, ready for whichever backend
/// runs it.
struct InputTile<'c, 'a> {
    ctx: &'c InputTransformCtx<'a>,
    tb: &'c mut ThreadBuf,
    slot: usize,
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
        unsafe { self.ctx.tile_on::<V>(self.tb, self.slot, self.b, self.cg, self.n) }
    }
}

/// Operation ①②: transform all input tiles into `scratch.u`.
pub fn transform_inputs(
    layer: &WinogradLayer,
    input: &BlockedImage,
    scratch: &mut Scratch,
    exec: &dyn Executor,
) -> Result<(), WinoError> {
    ensure_at_least("scratch thread slots", exec.threads(), scratch.thread_slots())?;
    ensure_eq("input batch", layer.shape.batch, input.batch)?;
    ensure_eq("input channels", layer.shape.in_channels, input.channels)?;
    ensure_dims_eq("input extent", &layer.shape.image_dims, &input.dims)?;

    let rank = layer.rank();

    // Grid: B × C/S × N_D × … × N_W (§4.5).
    let mut dims = Vec::with_capacity(2 + rank);
    dims.push(layer.shape.batch);
    dims.push(layer.shape.in_channels / S);
    dims.extend_from_slice(&layer.grid.counts);

    let ctx = InputTransformCtx::new(
        layer,
        input,
        scratch.u.as_mut_ptr(),
        layer.opts.streaming_stores,
        exec.probe(),
    );
    let scratch_ref: &Scratch = scratch;
    let stage_start = crate::spans::span_start();

    exec.run_grid(&dims, &|slot, flat| {
        let mut coords = [0usize; MAX_RANK + 2];
        decompose(flat, &dims, &mut coords[..dims.len()]);
        let (b, cg) = (coords[0], coords[1]);
        let mut n = 0usize; // flat tile index
        for d in 0..rank {
            n = n * layer.grid.counts[d] + coords[2 + d];
        }
        // SAFETY: slot exclusivity per the Executor contract.
        let tb = unsafe { scratch_ref.thread_buf(slot) };
        // SAFETY: the grid enumerates each (b, cg, n) exactly once, so
        // tasks cover disjoint (n', cg) ranges of `u`.
        unsafe { ctx.tile(tb, slot, b, cg, n) };
    })?;
    crate::spans::record_coord(exec, wino_probe::SpanCategory::InputTransform, stage_start);
    #[cfg(feature = "fault-inject")]
    if wino_sched::fault::take_poison_stage(1) {
        scratch.u.as_mut_slice()[0] = f32::NAN;
    }
    Ok(())
}

/// Operation ③④: transform all kernels into `scratch.v`.
pub fn transform_kernels(
    layer: &WinogradLayer,
    kernels: &BlockedKernels,
    scratch: &mut Scratch,
    exec: &dyn Executor,
) -> Result<(), WinoError> {
    ensure_at_least("scratch thread slots", exec.threads(), scratch.thread_slots())?;
    ensure_eq("kernel in-channels", layer.shape.in_channels, kernels.in_channels)?;
    ensure_eq("kernel out-channels", layer.shape.out_channels, kernels.out_channels)?;
    ensure_dims_eq("kernel extent", &layer.shape.kernel_dims, &kernels.dims)?;

    let dims = [layer.shape.in_channels, layer.shape.out_channels / S];
    let (c_blk, cp_blk) = (layer.block.c_blk, layer.block.cp_blk);
    let ctx = KernelTransformCtx {
        layer,
        kernels,
        v: MutPtr(scratch.v.as_mut_ptr()),
        progs: layer.plans.iter().map(|p| &p.g).collect(),
        t_vol: layer.t_vol(),
        r_vol: layer.shape.kernel_dims.iter().product(),
        col_blocks: layer.shape.out_channels / cp_blk,
        t_stride: c_blk * cp_blk,
    };
    let scratch_ref: &Scratch = scratch;
    let stage_start = crate::spans::span_start();

    exec.run_grid(&dims, &|slot, flat| {
        // SAFETY: slot exclusivity per the Executor contract.
        let tb = unsafe { scratch_ref.thread_buf(slot) };
        wino_simd::dispatch(KernelGroup { ctx: &ctx, tb, c: flat / dims[1], og: flat % dims[1] });
    })?;
    crate::spans::record_coord(exec, wino_probe::SpanCategory::KernelTransform, stage_start);
    Ok(())
}

/// What every task of one [`transform_kernels`] call shares.
struct KernelTransformCtx<'a> {
    layer: &'a WinogradLayer,
    kernels: &'a BlockedKernels,
    v: MutPtr,
    progs: Vec<&'a wino_transforms::PairedProgram>,
    t_vol: usize,
    r_vol: usize,
    col_blocks: usize,
    t_stride: usize,
}

/// The per-task body of operation ③④: transform the kernel vectors of
/// input channel `c`, output channel group `og`, and scatter them into
/// `V`.
struct KernelGroup<'c, 'a> {
    ctx: &'c KernelTransformCtx<'a>,
    tb: &'c mut ThreadBuf,
    c: usize,
    og: usize,
}

impl Kernel for KernelGroup<'_, '_> {
    type Output = ();

    #[inline(always)]
    fn run<V: Simd16>(self) {
        let KernelGroup { ctx, tb, c, og } = self;
        let layer = ctx.layer;
        let rank = layer.rank();
        let (c_blk, cp_blk) = (layer.block.c_blk, layer.block.cp_blk);

        // Kernel vectors are contiguous in the blocked layout: copy r_vol
        // vectors straight in.
        let src_off = ctx.kernels.vec_offset_flat(c, og, 0);
        tb.a.as_mut_slice()[..ctx.r_vol * S]
            .copy_from_slice(&ctx.kernels.as_slice()[src_off..src_off + ctx.r_vol * S]);

        let mut tdims = [0usize; MAX_RANK];
        tdims[..rank].copy_from_slice(&layer.shape.kernel_dims);
        let in_a = crate::vecprog::transform_all_dims::<V>(
            &ctx.progs,
            tb.a.as_mut_slice(),
            tb.b.as_mut_slice(),
            &mut tdims[..rank],
        );
        let result = if in_a { tb.a.as_ptr() } else { tb.b.as_ptr() };

        // Scatter into V (Table 1 "Transformed kernels"): row = c,
        // col = og·S.
        let (rb_i, r_in) = (c / c_blk, c % c_blk);
        let col = og * S;
        let (cb_i, c_in) = (col / cp_blk, col % cp_blk);
        let base =
            ((rb_i * ctx.col_blocks + cb_i) * ctx.t_vol) * ctx.t_stride + r_in * cp_blk + c_in;
        // SAFETY: `transform_kernels` hands each (c, og) to exactly one
        // task, so the scattered ranges of `v` are disjoint; offsets are
        // in bounds by construction of `v`.
        unsafe {
            scatter_vectors::<V>(
                result,
                ctx.v.get(),
                base,
                ctx.t_stride,
                ctx.t_vol,
                layer.opts.streaming_stores,
            )
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ConvOptions;
    use wino_sched::{SerialExecutor, StaticExecutor};
    use wino_tensor::{ConvShape, SimpleImage, SimpleKernels};

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
        let bt0 = layer.plans[0].transform.bt.to_f32();
        let bt1 = layer.plans[1].transform.bt.to_f32();
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

        let g0 = layer.plans[0].transform.g.to_f32();
        let g1 = layer.plans[1].transform.g.to_f32();
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
        assert_eq!(s1.u.as_slice(), s2.u.as_slice());
    }

    #[test]
    fn streaming_toggle_gives_identical_results() {
        let shape = ConvShape::new(1, 16, 16, &[8, 8], &[3, 3], &[1, 1]).unwrap();
        let img = SimpleImage::from_fn(1, 16, &[8, 8], |_, c, xy| (c + xy[0] + xy[1]) as f32);
        let blocked = BlockedImage::from_simple(&img).unwrap();
        let mk = |streaming| {
            let opts = ConvOptions { streaming_stores: streaming, ..Default::default() };
            let layer = WinogradLayer::new(shape.clone(), &[2, 2], opts).unwrap();
            let mut s = Scratch::new(&layer, 1);
            transform_inputs(&layer, &blocked, &mut s, &SerialExecutor).unwrap();
            s
        };
        let a = mk(true);
        let b = mk(false);
        assert_eq!(a.u.as_slice(), b.u.as_slice());
    }
}
