//! Stage 3 — inverse transformation (§4.4).
//!
//! Over the grid `B × C'/S × N`, each task reads one tile's `T` transform
//! vectors — a single contiguous `T·S`-float chunk thanks to stage 2's
//! tile-major scatter — applies `Aᵀ` along every dimension (a contracting
//! transform `α_d → m_d`), and writes the `∏m_d` output vectors into the
//! blocked output image, clipping the ceil-division overhang of boundary
//! tiles.
//!
//! Note the key algebraic property (Eqn. 7/8): `Aᵀ` is applied *after* the
//! channel reduction of stage 2 — `BNC'/S` inverse transforms total,
//! independent of `C`.

use wino_sched::Executor;
use wino_simd::{Kernel, Simd16, S};
use wino_tensor::BlockedImage;

use crate::error::{ensure_at_least, ensure_dims_eq, ensure_eq, WinoError};
use crate::layout::TileMajor;
use crate::plan::{Scratch, ThreadBuf, WinogradLayer, MAX_RANK};
use crate::stage1::{decompose, MutPtr};

/// The per-tile body of the inverse transform — gather one tile's `T`
/// vectors, apply `Aᵀ` along every dimension, write the clipped `m`-tile
/// to the output image — factored out so the monolithic stage-3
/// fork–join and the superblock pipeline share one implementation.
pub(crate) struct Stage3Ctx<'a> {
    layer: &'a WinogradLayer,
    y: &'a TileMajor,
    out: MutPtr,
    out_dims: Vec<usize>,
    ostride: [usize; MAX_RANK],
    out_channel_groups: usize,
    out_vol: usize,
    t_vol: usize,
    progs: Vec<&'a wino_transforms::PairedProgram>,
    streaming: bool,
}

impl<'a> Stage3Ctx<'a> {
    /// Build the shared state. The output write is the pipeline's *final*
    /// scatter, so `streaming` follows
    /// [`crate::ConvOptions::streaming_stores`] in every schedule.
    pub(crate) fn new(
        layer: &'a WinogradLayer,
        y: &'a TileMajor,
        out: *mut f32,
        streaming: bool,
    ) -> Stage3Ctx<'a> {
        let out_dims = layer.shape.out_dims();
        let rank = layer.rank();
        let mut ostride = [1usize; MAX_RANK];
        for d in (0..rank.saturating_sub(1)).rev() {
            ostride[d] = ostride[d + 1] * out_dims[d + 1];
        }
        Stage3Ctx {
            layer,
            y,
            out: MutPtr(out),
            out_vol: out_dims.iter().product(),
            out_dims,
            ostride,
            out_channel_groups: layer.shape.out_channels / S,
            t_vol: layer.t_vol(),
            progs: layer.plans.iter().map(|p| &p.at).collect(),
            streaming,
        }
    }

    /// Inverse-transform tile `(b, og, n)` and write its clipped output.
    ///
    /// # Safety
    /// The caller must hold `tb` exclusively (Executor slot contract) and
    /// own output tile `(b, og, n)` — tasks of one fork–join must cover
    /// disjoint `(b, og, n)` triples.
    pub(crate) unsafe fn tile(&self, tb: &mut ThreadBuf, b: usize, og: usize, n: usize) {
        wino_simd::dispatch(OutputTile { ctx: self, tb, b, og, n })
    }

    /// The body of [`Stage3Ctx::tile`] on backend `V`.
    ///
    /// # Safety
    /// As [`Stage3Ctx::tile`].
    #[inline(always)]
    unsafe fn tile_on<V: Simd16>(&self, tb: &mut ThreadBuf, b: usize, og: usize, n: usize) {
        let layer = self.layer;
        let rank = layer.rank();
        // Contiguous gather (§4.4: "fast memory access and as few TLB
        // misses as possible").
        tb.a.as_mut_slice()[..self.t_vol * S].copy_from_slice(self.y.tile(b, og, n));

        let mut tdims = [0usize; MAX_RANK];
        tdims[..rank].copy_from_slice(&layer.grid.tile_dims);
        let in_a = crate::vecprog::transform_all_dims::<V>(
            &self.progs,
            tb.a.as_mut_slice(),
            tb.b.as_mut_slice(),
            &mut tdims[..rank],
        );
        let result = if in_a { tb.a.as_ptr() } else { tb.b.as_ptr() };

        // Write the m-tile into the output image, clipped to the real
        // output extent.
        let mut tile_coords = [0usize; MAX_RANK];
        decompose(n, &layer.grid.counts, &mut tile_coords[..rank]);
        let mut out_origin = [0usize; MAX_RANK];
        let mut extent = [0usize; MAX_RANK];
        for d in 0..rank {
            out_origin[d] = tile_coords[d] * layer.grid.m[d];
            extent[d] = layer.grid.m[d].min(self.out_dims[d] - out_origin[d]);
        }
        let base_vec = (b * self.out_channel_groups + og) * self.out_vol * S;

        let m_last = layer.grid.m[rank - 1];
        let ext_last = extent[rank - 1];
        let outer_vol: usize = extent[..rank - 1].iter().product();
        let m_outer = &layer.grid.m[..rank - 1];
        let mut oc = [0usize; MAX_RANK];
        // SAFETY: disjoint output tiles per the caller's contract;
        // offsets bounded by the extent clipping above.
        let dst = self.out.get().add(base_vec);
        for outer in 0..outer_vol {
            decompose(outer, &extent[..rank - 1], &mut oc[..rank.max(1) - 1]);
            let mut spatial = 0usize;
            let mut src_row = 0usize;
            for d in 0..rank - 1 {
                spatial += (out_origin[d] + oc[d]) * self.ostride[d];
                src_row = src_row * m_outer[d].max(1) + oc[d];
            }
            let src_base = src_row * m_last;
            let spatial_w = spatial + out_origin[rank - 1];
            for k in 0..ext_last {
                let v = V::load(result.add((src_base + k) * S));
                let o = (spatial_w + k) * S;
                if self.streaming {
                    v.store_nt(dst.add(o));
                } else {
                    v.store(dst.add(o));
                }
            }
        }
    }
}

/// One [`Stage3Ctx::tile`] call, ready for whichever backend runs it.
struct OutputTile<'c, 'a> {
    ctx: &'c Stage3Ctx<'a>,
    tb: &'c mut ThreadBuf,
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
        unsafe { self.ctx.tile_on::<V>(self.tb, self.b, self.og, self.n) }
    }
}

/// Apply the inverse transforms and write the output image.
pub fn inverse_transform(
    layer: &WinogradLayer,
    scratch: &mut Scratch,
    output: &mut BlockedImage,
    exec: &dyn Executor,
) -> Result<(), WinoError> {
    ensure_at_least("scratch thread slots", exec.threads(), scratch.thread_slots())?;
    let out_dims = layer.shape.out_dims();
    ensure_eq("output batch", layer.shape.batch, output.batch)?;
    ensure_eq("output channels", layer.shape.out_channels, output.channels)?;
    ensure_dims_eq("output extent", &out_dims, &output.dims)?;

    let n_tiles = layer.n_tiles();
    let out_channel_groups = layer.shape.out_channels / S;
    let dims = [layer.shape.batch, out_channel_groups, n_tiles];
    let ctx = Stage3Ctx::new(layer, &scratch.y, output.as_mut_ptr(), layer.opts.streaming_stores);
    let scratch_ref: &Scratch = scratch;
    let stage_start = crate::spans::span_start();

    exec.run_grid(&dims, &|slot, flat| {
        let n = flat % n_tiles;
        let og = (flat / n_tiles) % out_channel_groups;
        let b = flat / (n_tiles * out_channel_groups);
        // SAFETY: slot exclusivity per the Executor contract.
        let tb = unsafe { scratch_ref.thread_buf(slot) };
        // SAFETY: the grid enumerates each (b, og, n) exactly once, so
        // tasks own disjoint output tiles.
        unsafe { ctx.tile(tb, b, og, n) };
    })?;
    crate::spans::record_coord(exec, wino_probe::SpanCategory::OutputTransform, stage_start);
    #[cfg(feature = "fault-inject")]
    if wino_sched::fault::take_poison_stage(3) {
        output.as_mut_slice()[0] = f32::NAN;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ConvOptions, WinogradLayer};
    use wino_sched::{SerialExecutor, StaticExecutor};
    use wino_tensor::ConvShape;

    /// Fill y with a recognisable pattern and check the inverse transform
    /// against a dense Aᵀ·(tile)·A oracle.
    fn run_case(m: &[usize], img: &[usize], pad: usize) {
        let s = ConvShape::new(2, 16, 16, img, &[3; 2], &[pad; 2]).unwrap();
        let layer = WinogradLayer::new(s, m, ConvOptions::default()).unwrap();
        let mut scratch = Scratch::new(&layer, 2);
        for (i, f) in scratch.y.as_mut_slice().iter_mut().enumerate() {
            *f = ((i.wrapping_mul(2654435761) >> 20) & 0x1f) as f32 / 16.0 - 1.0;
        }
        let mut out = layer.new_output().unwrap();
        inverse_transform(&layer, &mut scratch, &mut out, &SerialExecutor).unwrap();

        let at0 = layer.plans[0].transform.at.to_f32();
        let at1 = layer.plans[1].transform.at.to_f32();
        let td = &layer.grid.tile_dims;
        let out_dims = layer.shape.out_dims();
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
                    let _ = out_dims.len();
                }
            }
        }
    }

    #[test]
    fn exact_tiling() {
        run_case(&[4, 4], &[10, 10], 1); // out 10, tiles 3x3 with overhang? 10/4 -> 3 tiles, overhang
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

    #[test]
    fn parallel_matches_serial() {
        let s = ConvShape::new(2, 16, 32, &[10, 10], &[3, 3], &[1, 1]).unwrap();
        let layer = WinogradLayer::new(s, &[4, 4], ConvOptions::default()).unwrap();
        let mut scratch = Scratch::new(&layer, 4);
        for (i, f) in scratch.y.as_mut_slice().iter_mut().enumerate() {
            *f = (i % 97) as f32 * 0.01;
        }
        let mut o1 = layer.new_output().unwrap();
        let mut o2 = layer.new_output().unwrap();
        inverse_transform(&layer, &mut scratch, &mut o1, &SerialExecutor).unwrap();
        let pool = StaticExecutor::new(4);
        inverse_transform(&layer, &mut scratch, &mut o2, &pool).unwrap();
        assert_eq!(o1.as_slice(), o2.as_slice());
    }
}
