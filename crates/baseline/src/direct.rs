//! Vectorised direct convolution on the blocked layout — the optimised
//! "direct" comparator of Fig. 5 (the style of Zlateski & Seung \[58\] and
//! MKL-DNN's `nChw16c` direct kernels).
//!
//! For each output position, the vector of `S = 16` output channels is
//! accumulated as `Σ_{c,k} broadcast(I[b,c,o+k]) · W[c, og, k]` — one
//! scalar-broadcast FMA per (input channel, kernel element), exactly the
//! shape of computation KNL's scalar-vector FMA instruction was built for.
//! A register block of `WBLK` (8) adjacent outputs amortises each kernel
//! vector load across 8 FMAs.

// Index-based loops are the idiom throughout: most walk several
// arrays with derived offsets, where iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]
use wino_sched::probed::{record_coord, span_start};
use wino_sched::Executor;
use wino_simd::{Kernel, Simd16, S};
use wino_tensor::{BlockedImage, BlockedKernels};

use crate::MAX_RANK;

/// Output positions accumulated together in registers.
const WBLK: usize = 8;

struct MutPtr(*mut f32);
// SAFETY: tasks write disjoint output rows.
unsafe impl Sync for MutPtr {}
// SAFETY: the pointer targets the caller-owned output buffer, which
// outlives the fork–join that moves this handle between threads.
unsafe impl Send for MutPtr {}
impl MutPtr {
    fn get(&self) -> *mut f32 {
        self.0
    }
}

#[inline]
fn decompose(mut flat: usize, dims: &[usize], out: &mut [usize]) {
    for i in (0..dims.len()).rev() {
        out[i] = flat % dims[i];
        flat /= dims[i];
    }
}

/// Direct N-D convolution: `output[b,c'] = Σ_c input[b,c] ⋆ kernels[c,c']`
/// with zero padding, stride 1.
pub fn direct_conv(
    input: &BlockedImage,
    kernels: &BlockedKernels,
    padding: &[usize],
    output: &mut BlockedImage,
    exec: &dyn Executor,
) -> Result<(), wino_sched::PoolError> {
    let rank = input.dims.len();
    assert!(rank <= MAX_RANK);
    assert_eq!(kernels.in_channels, input.channels);
    assert_eq!(kernels.out_channels, output.channels);
    assert_eq!(padding.len(), rank);
    let out_dims = output.dims.clone();
    for d in 0..rank {
        assert_eq!(out_dims[d], input.dims[d] + 2 * padding[d] - kernels.dims[d] + 1);
    }

    let in_dims = &input.dims;
    let ker_dims = &kernels.dims;
    let ker_vol: usize = ker_dims.iter().product();

    // Row-major spatial strides.
    let mut in_stride = [1usize; MAX_RANK];
    for d in (0..rank.saturating_sub(1)).rev() {
        in_stride[d] = in_stride[d + 1] * in_dims[d + 1];
    }
    let mut out_stride = [1usize; MAX_RANK];
    for d in (0..rank.saturating_sub(1)).rev() {
        out_stride[d] = out_stride[d + 1] * out_dims[d + 1];
    }
    // Kernel coordinate table.
    let mut kcoords: Vec<[usize; MAX_RANK]> = Vec::with_capacity(ker_vol);
    for k in 0..ker_vol {
        let mut kc = [0usize; MAX_RANK];
        decompose(k, ker_dims, &mut kc[..rank]);
        kcoords.push(kc);
    }

    // Task grid: B × C'/S × (outer output rows) — the innermost output
    // dimension is handled inside the task in WBLK register blocks.
    let outer_dims: Vec<usize> = out_dims[..rank - 1].to_vec();
    let mut dims = Vec::with_capacity(2 + outer_dims.len());
    dims.push(input.batch);
    dims.push(output.channels / S);
    dims.extend_from_slice(&outer_dims);

    let ctx = RowCtx {
        input,
        kernels,
        padding,
        out: MutPtr(output.as_mut_ptr()),
        dims: &dims,
        in_stride,
        out_stride,
        kcoords: &kcoords,
        out_w: out_dims[rank - 1],
        out_spatial_vol: out_dims.iter().product(),
        in_spatial_vol: in_dims.iter().product(),
    };
    let probe = exec.probe();
    let stage_start = span_start(probe);

    let result = exec.run_grid(&dims, &|_slot, flat| {
        wino_simd::dispatch(RowTask { ctx: &ctx, flat });
    });
    // SAFETY: the coordinator thread, after the join.
    unsafe { record_coord(probe, wino_probe::SpanCategory::DirectKernel, stage_start) };
    result
}

/// What every task of one [`direct_conv`] call shares.
struct RowCtx<'a> {
    input: &'a BlockedImage,
    kernels: &'a BlockedKernels,
    padding: &'a [usize],
    out: MutPtr,
    /// The task grid: `B × C'/S × outer output rows`.
    dims: &'a [usize],
    in_stride: [usize; MAX_RANK],
    out_stride: [usize; MAX_RANK],
    kcoords: &'a [[usize; MAX_RANK]],
    out_w: usize,
    out_spatial_vol: usize,
    in_spatial_vol: usize,
}

/// One task: the innermost output row `flat` of one channel group.
struct RowTask<'a> {
    ctx: &'a RowCtx<'a>,
    flat: usize,
}

impl Kernel for RowTask<'_> {
    type Output = ();

    #[inline(always)]
    fn run<V: Simd16>(self) {
        let RowCtx {
            input,
            kernels,
            padding,
            ref out,
            dims,
            ref in_stride,
            ref out_stride,
            kcoords,
            out_w,
            out_spatial_vol,
            in_spatial_vol,
        } = *self.ctx;
        let in_dims = &input.dims;
        let rank = in_dims.len();
        let in_w = in_dims[rank - 1] as isize;
        let c_in = input.channels;
        let in_cg = c_in / S;

        let mut coords = [0usize; MAX_RANK + 2];
        decompose(self.flat, dims, &mut coords[..dims.len()]);
        let (b, og) = (coords[0], coords[1]);
        let orow = &coords[2..2 + rank - 1];

        // Destination row base (vector units).
        let mut out_row_off = 0usize;
        for d in 0..rank - 1 {
            out_row_off += orow[d] * out_stride[d];
        }
        let dst_base = ((b * (dims[1])) + og) * out_spatial_vol + out_row_off;

        // SAFETY: each task owns one output row of one channel group.
        unsafe {
            let dst = out.get();
            let ker_ptr = kernels.as_ptr();
            let in_ptr = input.as_ptr();

            let mut w0 = 0usize;
            while w0 < out_w {
                let wn = WBLK.min(out_w - w0);
                let mut acc = [V::zero(); WBLK];
                for c in 0..c_in {
                    let in_base_vec = ((b * in_cg + c / S) * in_spatial_vol) * S;
                    let lane = c % S;
                    for (k, kc) in kcoords.iter().enumerate() {
                        // Input row offset for this kernel element.
                        let mut ok = true;
                        let mut row_off = 0isize;
                        for d in 0..rank - 1 {
                            let x = (orow[d] + kc[d]) as isize - padding[d] as isize;
                            if x < 0 || x >= in_dims[d] as isize {
                                ok = false;
                                break;
                            }
                            row_off += x * in_stride[d] as isize;
                        }
                        if !ok {
                            continue;
                        }
                        let kv = V::load(ker_ptr.add(kernels.vec_offset_flat(c, og, k)));
                        let wk = kc[rank - 1] as isize - padding[rank - 1] as isize;
                        let first = w0 as isize + wk;
                        let last = (w0 + wn - 1) as isize + wk;
                        if first >= 0 && last < in_w {
                            // Interior fast path: the whole register block
                            // reads in bounds — no per-element branches.
                            let base = in_base_vec + (row_off + first) as usize * S + lane;
                            for u in 0..wn {
                                let s = V::splat(*in_ptr.add(base + u * S));
                                acc[u] = s.mul_add(kv, acc[u]);
                            }
                        } else {
                            for u in 0..wn {
                                let x = (w0 + u) as isize + wk;
                                if x >= 0 && x < in_w {
                                    let off = in_base_vec + (row_off + x) as usize * S + lane;
                                    let s = V::splat(*in_ptr.add(off));
                                    acc[u] = s.mul_add(kv, acc[u]);
                                }
                            }
                        }
                    }
                }
                for u in 0..wn {
                    acc[u].store(dst.add((dst_base + w0 + u) * S));
                }
                w0 += wn;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::direct_f64;
    use wino_sched::{SerialExecutor, StaticExecutor};
    use wino_tensor::{SimpleImage, SimpleKernels};

    fn img(batch: usize, c: usize, dims: &[usize]) -> SimpleImage {
        SimpleImage::from_fn(batch, c, dims, |b, c, xy| {
            let mut h = b * 131 + c * 31;
            for &x in xy {
                h = h.wrapping_mul(17).wrapping_add(x);
            }
            (h % 23) as f32 * 0.1 - 1.0
        })
    }

    fn ker(cp: usize, c: usize, dims: &[usize]) -> SimpleKernels {
        SimpleKernels::from_fn(cp, c, dims, |co, ci, xy| {
            let mut h = co * 7 + ci * 3;
            for &x in xy {
                h = h.wrapping_mul(5).wrapping_add(x);
            }
            (h % 11) as f32 * 0.2 - 1.0
        })
    }

    fn check(batch: usize, c: usize, cp: usize, dims: &[usize], kd: &[usize], pad: &[usize]) {
        let si = img(batch, c, dims);
        let sk = ker(cp, c, kd);
        let want = direct_f64(&si, &sk, pad);

        let bi = BlockedImage::from_simple(&si).unwrap();
        let bk = BlockedKernels::from_simple(&sk).unwrap();
        let mut out = BlockedImage::zeros(batch, cp, &want.dims).unwrap();
        direct_conv(&bi, &bk, pad, &mut out, &SerialExecutor).unwrap();
        let got = out.to_simple();
        for i in 0..got.data.len() {
            assert!(
                (got.data[i] - want.data[i]).abs() <= 1e-4 * want.data[i].abs().max(1.0),
                "elem {i}: {} vs {}",
                got.data[i],
                want.data[i]
            );
        }
    }

    #[test]
    fn matches_reference_2d() {
        check(2, 32, 32, &[9, 9], &[3, 3], &[1, 1]);
        check(1, 16, 32, &[7, 12], &[3, 3], &[0, 0]);
    }

    #[test]
    fn matches_reference_3d() {
        check(1, 16, 16, &[4, 6, 6], &[3, 3, 3], &[1, 1, 1]);
    }

    #[test]
    fn matches_reference_1d() {
        check(2, 16, 16, &[20], &[5], &[2]);
    }

    #[test]
    fn arbitrary_kernels() {
        check(1, 16, 16, &[10, 10], &[4, 4], &[0, 0]);
        check(1, 16, 16, &[8, 8], &[1, 1], &[0, 0]);
        check(1, 16, 16, &[9, 9], &[5, 2], &[2, 0]);
    }

    #[test]
    fn wide_rows_exercise_wblk_remainder() {
        // out_w = 19 = 2·8 + 3 → full blocks plus remainder.
        check(1, 16, 16, &[4, 21], &[3, 3], &[0, 0]);
    }

    #[test]
    fn parallel_matches_serial() {
        let si = img(2, 32, &[8, 8]);
        let sk = ker(32, 32, &[3, 3]);
        let bi = BlockedImage::from_simple(&si).unwrap();
        let bk = BlockedKernels::from_simple(&sk).unwrap();
        let mut o1 = BlockedImage::zeros(2, 32, &[8, 8]).unwrap();
        let mut o2 = BlockedImage::zeros(2, 32, &[8, 8]).unwrap();
        direct_conv(&bi, &bk, &[1, 1], &mut o1, &SerialExecutor).unwrap();
        let pool = StaticExecutor::new(4);
        direct_conv(&bi, &bk, &[1, 1], &mut o2, &pool).unwrap();
        assert_eq!(o1.as_slice(), o2.as_slice());
    }
}
