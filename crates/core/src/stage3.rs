//! Stage 3 — inverse transformation (§4.4).
//!
//! Over the grid `B × C'/S × N`, each task reads one tile's `T` transform
//! vectors — a single contiguous `T·S`-float chunk thanks to stage 2's
//! tile-major scatter — applies `Aᵀ` along every dimension (a contracting
//! transform `α_d → m_d`), and writes the `∏m_d` output vectors into the
//! blocked output image. `codelet::TileTransform::run` reads the
//! chunk in place and, for a full `m`-tile, stores the last pass straight
//! into the image; a boundary tile with ceil-division overhang is staged
//! in a thread buffer and clipped from there.
//!
//! The layer's `Epilogue` rides that write, while the `m`-tile is still
//! in L1: the numeric guard folds a non-finite test of every written value
//! into its thread slot's flag, then the ReLU clamps it — in place after a
//! plain direct write, in the staged buffer before a streaming plan's (or a
//! ragged tile's) copy, and only on the positions that are copied. The
//! coordinator ORs the flags after the fork–join (`judge`) and, if one is
//! set, finds the first offender in the output, so a `Network` makes no
//! pass of its own over an image stage 3 wrote. The public entry point
//! ([`inverse_transform`]) runs with no epilogue.
//!
//! Note the key algebraic property (Eqn. 7/8): `Aᵀ` is applied *after* the
//! channel reduction of stage 2 — `BNC'/S` inverse transforms total,
//! independent of `C`.
//!
//! The per-tile body serves every schedule: [`inverse_transform`] feeds it
//! the chunks of the layer-sized `y`, the ring-fused driver and the dual
//! ring (`fused.rs`) the chunks their thread's ring holds for the panel or
//! column group in flight.

use wino_sched::probed::{record_coord, span_start};
use wino_sched::{Executor, PoolError};
use wino_simd::{Kernel, Simd16, S};
use wino_tensor::BlockedImage;

use crate::codelet::{copy_tile, row_major, At, Dest, Sink, Strides, TileTransform};
use crate::error::{check_finite, ensure_at_least, ensure_dims_eq, ensure_eq, NumericError, WinoError};
use crate::layout::TileMajor;
use crate::plan::{Scratch, ThreadBuf, WinogradLayer, MAX_RANK};
use crate::stage1::{decompose, MutPtr};

/// What a layer does to its output as it is written: the numeric guard,
/// then the ReLU. The guard judges the values before the clamp, which maps
/// NaN to 0 and would hide it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Epilogue {
    /// Clamp every value at 0 (`Activation::Relu`).
    pub(crate) relu: bool,
    /// Flag a non-finite value (`FallbackPolicy::degrade`, or a rescue),
    /// naming the image in the guard's error.
    pub(crate) guard: Option<&'static str>,
}

impl Epilogue {
    /// Write the output as it comes.
    pub(crate) const NONE: Epilogue = Epilogue { relu: false, guard: None };

    /// The epilogue as one pass over a whole image — for the routes whose
    /// output stage 3 does not write: im2col, a strided layer's subsample,
    /// a grouped layer's channel copies. The guard's error reports the
    /// first non-finite element.
    pub(crate) fn image(self, out: &mut BlockedImage) -> Result<(), NumericError> {
        if self == Epilogue::NONE {
            return Ok(());
        }
        let data = out.as_mut_slice();
        let (mut dims, mut strides) = ([1usize; MAX_RANK], [0usize; MAX_RANK]);
        (dims[0], strides[0]) = (data.len() / S, S);
        let ptr = data.as_mut_ptr();
        // The image as `len / S` consecutive vectors, rewritten in place.
        let pass = EpilogueCopy::<false> { epilogue: self, rank: 1, dims: &dims, src: (ptr, &strides), dst: (ptr, &strides) };
        let tripped = wino_simd::dispatch(pass);
        match self.guard {
            Some(stage) if tripped => check_finite(stage, out.as_slice()),
            _ => Ok(()),
        }
    }
}

/// Copy a strided view of `dims` vectors from `src` to `dst` — with
/// streaming stores when `NT` — applying the epilogue on the way; the
/// result is whether the guard saw a non-finite value. The two views may
/// be one (in place). `x·0 + flag` is NaN exactly when `x` is not finite,
/// so the test costs one FMA a vector. Under the guard the clamp keeps a
/// non-finite value non-finite (NaN), so the scan that finds it (`judge`)
/// finds the index it had.
///
/// One call on whichever backend runs it: dispatched for a whole image, and
/// entered out of line from the tile body (`Simd16::enter`), which so
/// carries a call rather than every monomorphic copy loop.
///
/// Built only where its views satisfy [`copy_tile`]'s contract.
struct EpilogueCopy<'a, const NT: bool> {
    epilogue: Epilogue,
    rank: usize,
    dims: &'a [usize; MAX_RANK],
    src: (*mut f32, &'a Strides),
    dst: (*mut f32, &'a Strides),
}

impl<const NT: bool> Kernel for EpilogueCopy<'_, NT> {
    type Output = bool;

    #[inline(always)]
    fn run<V: Simd16>(self) -> bool {
        let Self { epilogue, rank, dims, src, dst } = self;
        let src = (src.0.cast_const(), src.1);
        // SAFETY: `Epilogue::image` and `Stage3Ctx::finish`, the only
        // constructors, hand it views that satisfy `copy_tile`'s contract.
        unsafe {
            match (epilogue.relu, epilogue.guard.is_some()) {
                (false, false) => copy_as::<V, NT, false, false>(rank, dims, src, dst),
                (true, false) => copy_as::<V, NT, true, false>(rank, dims, src, dst),
                (false, true) => copy_as::<V, NT, false, true>(rank, dims, src, dst),
                (true, true) => copy_as::<V, NT, true, true>(rank, dims, src, dst),
            }
        }
    }
}

/// [`EpilogueCopy`]'s body for one `(relu, guard)`.
///
/// # Safety
/// As [`copy_tile`].
#[inline(always)]
unsafe fn copy_as<V: Simd16, const NT: bool, const RELU: bool, const GUARD: bool>(
    rank: usize,
    dims: &[usize; MAX_RANK],
    src: (*const f32, &Strides),
    dst: (*mut f32, &Strides),
) -> bool {
    let zero = V::zero();
    let mut judged = zero;
    // SAFETY: the caller's views.
    unsafe {
        copy_tile::<V, NT>(rank, dims, src, dst, |x| {
            if GUARD {
                judged = x.mul_add(zero, judged);
            }
            match (RELU, GUARD) {
                (false, _) => x,
                (true, false) => x.max(zero),
                (true, true) => x.mul_add(zero, x.max(zero)),
            }
        })
    };
    GUARD && judged.to_array().iter().any(|v| v.is_nan())
}

/// The coordinator's half of the guard, after a fork–join whose tasks
/// wrote `output` through [`Stage3Ctx`]s applying `epilogue`: OR and clear
/// every slot's flag — whether or not the join came through, so the next
/// pass starts clean — then, if one was set, return the first non-finite
/// element of `output` as the guard's error.
pub(crate) fn judge(
    scratch: &Scratch,
    output: &BlockedImage,
    epilogue: Epilogue,
    joined: Result<(), PoolError>,
) -> Result<(), WinoError> {
    let mut tripped = false;
    for slot in 0..scratch.thread_slots() {
        // SAFETY: the fork–join has returned and the entry points hold the
        // scratch `&mut`, so every slot is the coordinator's.
        tripped |= std::mem::take(&mut unsafe { scratch.thread_buf(slot) }.nonfinite);
    }
    joined?;
    match epilogue.guard {
        Some(stage) if tripped => Ok(check_finite(stage, output.as_slice())?),
        _ => Ok(()),
    }
}

/// The per-tile body of the inverse transform — read one tile's `T`
/// vectors, apply `Aᵀ` along every dimension, write the clipped `m`-tile
/// to the output image — with the state every task of one fork–join
/// shares.
pub(crate) struct Stage3Ctx<'a> {
    layer: &'a WinogradLayer,
    out: MutPtr,
    xf: TileTransform<At>,
    /// Strides of a tile read in place: row-major, its `T` vectors one
    /// `t` pitch apart.
    y_strides: Strides,
    /// Strides of output points in the image, in floats.
    out_strides: Strides,
    out_channel_groups: usize,
    out_vol: usize,
    streaming: bool,
    epilogue: Epilogue,
    /// Fault injection: plant a NaN in output element 0 (stage 3's poison).
    #[cfg(feature = "fault-inject")]
    poison: bool,
}

impl<'a> Stage3Ctx<'a> {
    /// Build the shared state for tiles whose `T` vectors lie `t_pitch`
    /// floats apart — `S` in a tile-major chunk, a row block's pitch in the
    /// dual ring's accumulator; the output write uses NT stores when the
    /// plan streams ([`WinogradLayer::streams`]) and applies `epilogue`.
    /// Built by the coordinator once per fork–join, which is when an armed
    /// stage-3 poison is taken.
    pub(crate) fn new(
        layer: &'a WinogradLayer,
        out: *mut f32,
        t_pitch: usize,
        epilogue: Epilogue,
    ) -> Stage3Ctx<'a> {
        let out_dims = &layer.grid.out_dims;
        Stage3Ctx {
            layer,
            out: MutPtr(out),
            xf: TileTransform::new(layer.table_rows()),
            y_strides: row_major(&layer.grid.tile_dims, t_pitch),
            out_strides: row_major(out_dims, S),
            out_channel_groups: layer.shape.out_channels / S,
            out_vol: out_dims.iter().product(),
            streaming: layer.streams,
            epilogue,
            #[cfg(feature = "fault-inject")]
            poison: wino_sched::fault::take_poison_stage(3),
        }
    }

    /// Inverse-transform tile `(b, og, n)` from the `T` vectors at `src`,
    /// one `t` pitch apart — in a chunk a contiguous read (§4.4: "fast
    /// memory access and as few TLB misses as possible") — and write its
    /// clipped output.
    ///
    /// # Safety
    /// The caller must hold `tb` exclusively (Executor slot contract),
    /// `src` must be valid for those `T` vector reads and 64-byte aligned,
    /// and the caller must own output tile `(b, og, n)` — concurrent tasks
    /// must cover disjoint `(b, og, n)` triples.
    pub(crate) unsafe fn tile(
        &self,
        tb: &mut ThreadBuf,
        src: *const f32,
        b: usize,
        og: usize,
        n: usize,
    ) {
        wino_simd::dispatch(OutputTile { ctx: self, tb, src, b, og, n })
    }

    /// The body of [`Stage3Ctx::tile`] on backend `V`.
    ///
    /// # Safety
    /// As [`Stage3Ctx::tile`].
    #[inline(always)]
    unsafe fn tile_on<V: Simd16>(
        &self,
        tb: &mut ThreadBuf,
        src: *const f32,
        b: usize,
        og: usize,
        n: usize,
    ) {
        let grid = &self.layer.grid;
        let rank = self.layer.rank();

        // Where the m-tile lands in the output image, and how much of it
        // the real output extent keeps.
        let mut tile_coords = [0usize; MAX_RANK];
        decompose(n, &grid.counts, &mut tile_coords[..rank]);
        let mut extent = [0usize; MAX_RANK];
        let mut origin = (b * self.out_channel_groups + og) * self.out_vol * S;
        let mut full = true;
        for d in 0..rank {
            let out_origin = tile_coords[d] * grid.m[d];
            extent[d] = grid.m[d].min(grid.out_dims[d] - out_origin);
            full &= extent[d] == grid.m[d];
            origin += out_origin * self.out_strides[d];
        }
        // SAFETY: disjoint output tiles per the caller's contract; the
        // tile's first point is inside channel group `(b, og)`.
        let dst = self.out.get().add(origin);
        #[cfg(feature = "fault-inject")]
        let poison = self.poison && (b, og, n) == (0, 0, 0);
        #[cfg(not(feature = "fault-inject"))]
        let poison = false;

        let out = (dst, &self.out_strides);
        // A full tile on plain stores is written straight into the image
        // and finished there while it is still in L1. A streaming store
        // leaves nothing in L1 to finish, so with an epilogue (or the
        // poison) such a tile is staged like a boundary one.
        if full && !(self.streaming && (self.epilogue != Epilogue::NONE || poison)) {
            // SAFETY: `src` holds the tile's T vectors; every point of a
            // full m-tile is an image point; `tb` holds T·S floats per
            // buffer.
            self.xf.run::<V>(
                src,
                &self.y_strides,
                Sink::Direct(Dest { ptr: dst, strides: self.out_strides, nt: self.streaming }),
                tb.ptrs(),
            );
            // SAFETY: the m-tile just written, this task's.
            self.finish::<V, false>(tb, &extent, out, out, poison);
            return;
        }

        // A boundary tile, or a streaming one with an epilogue: stage the
        // m-tile row-major, then copy the part inside the output extent,
        // applying the epilogue to exactly what is copied.
        // SAFETY: as above, with the result left in a thread buffer.
        let result = self.xf.run::<V>(src, &self.y_strides, Sink::Staged, tb.ptrs());
        let staged = (result.cast_mut(), &row_major(&grid.m, S));
        // SAFETY: `result` is one of `tb`'s buffers and holds the staged
        // m-tile; every point of `extent` is inside it and the image.
        if self.streaming {
            self.finish::<V, true>(tb, &extent, staged, out, poison);
        } else {
            self.finish::<V, false>(tb, &extent, staged, out, poison);
        }
    }

    /// Finish an `extent`-sized tile: plant the stage-3 poison in its first
    /// float when `poison` (fault injection; output element 0 of tile
    /// `(0, 0, 0)`), then copy it from `tile` to the image view `out` with
    /// the epilogue applied — in place when the two are one, which without
    /// an epilogue is nothing to do — folding the guard's verdict into the
    /// slot's flag.
    ///
    /// # Safety
    /// Every vector of both views must be valid for 16 reads and writes,
    /// `out`'s 64-byte aligned when `NT`, and the caller's alone.
    #[inline(always)]
    unsafe fn finish<V: Simd16, const NT: bool>(
        &self,
        tb: &mut ThreadBuf,
        extent: &[usize; MAX_RANK],
        tile: (*mut f32, &Strides),
        out: (*mut f32, &Strides),
        poison: bool,
    ) {
        if poison {
            // SAFETY: the tile's first float, the caller's.
            unsafe { *tile.0 = f32::NAN };
        }
        if tile.0 == out.0 && self.epilogue == Epilogue::NONE {
            return;
        }
        // The caller's views, which satisfy `copy_tile`'s contract.
        let copy = EpilogueCopy::<NT> { epilogue: self.epilogue, rank: self.layer.rank(), dims: extent, src: tile, dst: out };
        // Stored only when set: the slots' bufs share cache lines, and a
        // store every tile would bounce them between the threads.
        if V::enter(copy) {
            tb.nonfinite = true;
        }
    }
}

/// One [`Stage3Ctx::tile`] call, ready for whichever backend runs it.
struct OutputTile<'c, 'a> {
    ctx: &'c Stage3Ctx<'a>,
    tb: &'c mut ThreadBuf,
    src: *const f32,
    b: usize,
    og: usize,
    n: usize,
}

impl Kernel for OutputTile<'_, '_> {
    type Output = ();

    #[inline(always)]
    fn run<V: Simd16>(self) {
        // SAFETY: `Stage3Ctx::tile`, the only constructor, forwards its
        // caller's exclusivity contract.
        unsafe { self.ctx.tile_on::<V>(self.tb, self.src, self.b, self.og, self.n) }
    }
}

/// `output` must be the image `layer` produces.
pub(crate) fn check_output(layer: &WinogradLayer, output: &BlockedImage) -> Result<(), WinoError> {
    ensure_eq("output batch", layer.shape.batch, output.batch)?;
    ensure_eq("output channels", layer.shape.out_channels, output.channels)?;
    ensure_dims_eq("output extent", &layer.grid.out_dims, &output.dims)
}

/// Apply the inverse transforms to `scratch.y` and write the output
/// image.
pub fn inverse_transform(
    layer: &WinogradLayer,
    scratch: &mut Scratch,
    output: &mut BlockedImage,
    exec: &dyn Executor,
) -> Result<(), WinoError> {
    inverse_transform_with(layer, scratch, output, exec, Epilogue::NONE)
}

/// [`inverse_transform`], applying `epilogue` as each tile is written.
pub(crate) fn inverse_transform_with(
    layer: &WinogradLayer,
    scratch: &mut Scratch,
    output: &mut BlockedImage,
    exec: &dyn Executor,
    epilogue: Epilogue,
) -> Result<(), WinoError> {
    ensure_at_least("scratch thread slots", exec.threads(), scratch.thread_slots())?;
    check_output(layer, output)?;
    scratch.materialise()?;

    let n_tiles = layer.n_tiles();
    let out_channel_groups = layer.shape.out_channels / S;
    let dims = [layer.shape.batch, out_channel_groups, n_tiles];
    let ctx = Stage3Ctx::new(layer, output.as_mut_ptr(), S, epilogue);
    let scratch_ref: &Scratch = scratch;
    let y: &TileMajor = &scratch_ref.y;
    let probe = exec.probe();
    let stage_start = span_start(probe);

    let joined = exec.run_grid(&dims, &|slot, flat| {
        let n = flat % n_tiles;
        let og = (flat / n_tiles) % out_channel_groups;
        let b = flat / (n_tiles * out_channel_groups);
        // The next task reads the next chunk. A chunk is about one 4 KiB
        // page, where the hardware streamer stops and retrains, so ask
        // for it while this one is transformed.
        if n + 1 < n_tiles {
            let next = y.tile(b, og, n + 1);
            // SAFETY: the span is the next tile's slice of `y`.
            unsafe { wino_simd::prefetch_span_t1(next.as_ptr().cast(), std::mem::size_of_val(next)) };
        }
        // SAFETY: slot exclusivity per the Executor contract.
        let tb = unsafe { scratch_ref.thread_buf(slot) };
        // SAFETY: the source is tile (b, og, n)'s chunk of `y`; the grid
        // enumerates each (b, og, n) exactly once, so tasks own disjoint
        // output tiles.
        unsafe { ctx.tile(tb, y.tile(b, og, n).as_ptr(), b, og, n) };
    });
    if joined.is_ok() {
        // SAFETY: the coordinator thread, after the join.
        unsafe { record_coord(probe, wino_probe::SpanCategory::OutputTransform, stage_start) };
    }
    judge(scratch_ref, output, epilogue, joined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ConvOptions, Host, Pin, WinogradLayer};
    use wino_sched::{SerialExecutor, StaticExecutor};
    use wino_tensor::ConvShape;

    /// Fill `y` by hand. On these small shapes the plans are fused, whose
    /// scratch holds no `y` until a stage asks: allocate it first, or the
    /// fill — and every check after it — would be vacuous.
    fn fill_y(scratch: &mut Scratch) {
        scratch.materialise().unwrap();
        assert!(!scratch.y.as_slice().is_empty());
        for (i, f) in scratch.y.as_mut_slice().iter_mut().enumerate() {
            *f = ((i.wrapping_mul(2654435761) >> 20) & 0x1f) as f32 / 16.0 - 1.0;
        }
    }

    /// Fill y with a recognisable pattern and check the inverse transform
    /// against a dense Aᵀ·(tile)·A oracle.
    fn run_case(m: &[usize], img: &[usize], pad: usize) {
        let s = ConvShape::new(2, 16, 16, img, &[3; 2], &[pad; 2]).unwrap();
        let layer = WinogradLayer::new(s, m, ConvOptions::default()).unwrap();
        let mut scratch = Scratch::new(&layer, 2);
        fill_y(&mut scratch);
        let mut out = layer.new_output().unwrap();
        inverse_transform(&layer, &mut scratch, &mut out, &SerialExecutor).unwrap();

        let plans = layer.fmr_plans();
        let (at0, at1) = (plans[0].transform.at.to_f32(), plans[1].transform.at.to_f32());
        let td = &layer.grid.tile_dims;
        for b in 0..2 {
            for c in [0usize, 7, 15] {
                for n in 0..layer.n_tiles() {
                    let tc = layer.grid.tile_coords(n);
                    let origin = layer.grid.output_origin(&tc);
                    let ext = layer.grid.output_extent(&tc);
                    let tile = scratch.y.tile(b, c / 16, n);
                    for i in 0..ext[0] {
                        for j in 0..ext[1] {
                            let mut want = 0.0f64;
                            for ti in 0..td[0] {
                                for tj in 0..td[1] {
                                    want += at0.at(i, ti) as f64
                                        * at1.at(j, tj) as f64
                                        * tile[(ti * td[1] + tj) * 16 + c % 16] as f64;
                                }
                            }
                            let got = out.get(b, c, &[origin[0] + i, origin[1] + j]);
                            assert!(
                                (got as f64 - want).abs() <= 1e-3 * want.abs().max(1.0),
                                "m={m:?} img={img:?} b={b} c={c} n={n} ({i},{j}): {got} vs {want}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn overhanging_tiling() {
        run_case(&[4, 4], &[10, 10], 1); // out 10 -> ceil(10/4) = 3 tiles, overhang 2
    }

    #[test]
    fn divisible_tiling() {
        run_case(&[2, 2], &[9, 9], 0); // out 7 -> ceil(7/2)=4 tiles, overhang 1
        run_case(&[2, 2], &[10, 10], 1); // out 10 -> 5 tiles exact
    }

    #[test]
    fn asymmetric_m() {
        run_case(&[2, 4], &[8, 12], 1);
    }

    /// One tile of the staged reference: copy the `y` chunk into a
    /// buffer, run the [`crate::vecprog`] interpreter over it, leave the
    /// row-major m-tile in `out`. Shares nothing with
    /// `codelet::TileTransform`.
    struct ReferenceTile<'a> {
        layer: &'a WinogradLayer,
        /// `Aᵀ` of each dimension.
        progs: &'a [&'a wino_transforms::PairedProgram],
        chunk: &'a [f32],
        out: &'a mut Vec<f32>,
    }

    impl Kernel for ReferenceTile<'_> {
        type Output = ();
        #[inline(always)]
        fn run<V: Simd16>(self) {
            let t_vol = self.layer.t_vol();
            let mut a = wino_simd::AlignedVec::try_zeroed(t_vol * S).unwrap();
            let mut b = wino_simd::AlignedVec::try_zeroed(t_vol * S).unwrap();
            a.as_mut_slice().copy_from_slice(self.chunk);
            let mut dims = self.layer.grid.tile_dims.clone();
            let in_a = crate::vecprog::transform_all_dims::<V>(
                self.progs,
                a.as_mut_slice(),
                b.as_mut_slice(),
                &mut dims,
            );
            self.out.clear();
            self.out.extend_from_slice(if in_a { a.as_slice() } else { b.as_slice() });
        }
    }

    /// `inverse_transform` must write exactly what the staged path —
    /// copy, interpreter, clipped copy — produces: the in-place read of
    /// `y`, the direct (streaming or plain) write of full m-tiles and the
    /// staged, clipped write of ragged ones are all pinned against it.
    fn assert_output_equals_staged_reference(
        img: &[usize],
        ker: &[usize],
        pad: usize,
        m: &[usize],
        streams: bool,
    ) {
        let rank = img.len();
        let s = ConvShape::new(2, 16, 32, img, ker, &vec![pad; rank]).unwrap();
        let host = Host::test(Pin::Ring, streams);
        let layer = WinogradLayer::new_on(s, m, ConvOptions::default(), host).unwrap();
        assert_eq!(layer.streams, streams);
        let mut scratch = Scratch::new(&layer, 2);
        fill_y(&mut scratch);
        let mut out = layer.new_output().unwrap();
        // A sentinel no transform produces: every point must be written.
        out.as_mut_slice().fill(f32::NAN);
        inverse_transform(&layer, &mut scratch, &mut out, &StaticExecutor::new(2)).unwrap();

        let grid = &layer.grid;
        let plans = layer.fmr_plans();
        let progs: Vec<_> = plans.iter().map(|p| &p.at).collect();
        let mut want = Vec::new();
        let (mut full, mut ragged) = (0usize, 0usize);
        for b in 0..2 {
            for og in 0..2 {
                for n in 0..layer.n_tiles() {
                    let chunk = scratch.y.tile(b, og, n);
                    wino_simd::dispatch(ReferenceTile { layer: &layer, progs: &progs, chunk, out: &mut want });
                    let tc = grid.tile_coords(n);
                    let (origin, ext) = (grid.output_origin(&tc), grid.output_extent(&tc));
                    if ext == grid.m {
                        full += 1;
                    } else {
                        ragged += 1;
                    }
                    let kept: usize = ext.iter().product();
                    for k in 0..kept {
                        let within = wino_tensor::unflatten(k, &ext);
                        let at: Vec<usize> = (0..rank).map(|d| origin[d] + within[d]).collect();
                        let j = (0..rank).fold(0, |j, d| j * grid.m[d] + within[d]);
                        for lane in 0..S {
                            assert_eq!(
                                out.get(b, og * S + lane, &at),
                                want[j * S + lane],
                                "img {img:?} pad {pad} m {m:?}: b={b} og={og} n={n} at {at:?} lane={lane}"
                            );
                        }
                    }
                }
            }
        }
        assert!(out.as_slice().iter().all(|v| !v.is_nan()), "an output point was never written");
        assert!(full > 0 && ragged > 0, "{full} full, {ragged} ragged tiles");
    }

    #[test]
    fn output_equals_copy_plus_interpreter_on_full_and_ragged_tiles() {
        // The benchmark's ragged shape: 158 = 26·6 + 2 outputs per side.
        assert_output_equals_staged_reference(&[160, 160], &[3, 3], 0, &[6, 6], true);
        for streams in [true, false] {
            assert_output_equals_staged_reference(&[15, 15], &[3, 3], 0, &[4, 4], streams);
            assert_output_equals_staged_reference(&[14, 14], &[3, 3], 1, &[4, 4], streams);
            assert_output_equals_staged_reference(&[22, 19], &[3, 3], 1, &[6, 2], streams);
            assert_output_equals_staged_reference(&[7, 12, 12], &[3, 3, 3], 1, &[2, 4, 4], streams);
            assert_output_equals_staged_reference(&[30], &[3], 1, &[8], streams);
        }
        // Kernel widths other than 3, per dimension: their own table rows.
        assert_output_equals_staged_reference(&[14, 14], &[4, 4], 1, &[3, 3], true);
        assert_output_equals_staged_reference(&[13, 15], &[5, 2], 1, &[2, 3], true);
        assert_output_equals_staged_reference(&[6, 11, 11], &[1, 3, 2], 0, &[2, 4, 3], true);
    }

    #[test]
    fn parallel_matches_serial() {
        let s = ConvShape::new(2, 16, 32, &[10, 10], &[3, 3], &[1, 1]).unwrap();
        let layer = WinogradLayer::new(s, &[4, 4], ConvOptions::default()).unwrap();
        let mut scratch = Scratch::new(&layer, 4);
        fill_y(&mut scratch);
        let mut o1 = layer.new_output().unwrap();
        let mut o2 = layer.new_output().unwrap();
        inverse_transform(&layer, &mut scratch, &mut o1, &SerialExecutor).unwrap();
        let pool = StaticExecutor::new(4);
        inverse_transform(&layer, &mut scratch, &mut o2, &pool).unwrap();
        assert_eq!(o1.as_slice(), o2.as_slice());
    }
}
