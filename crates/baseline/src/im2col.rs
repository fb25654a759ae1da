//! im2col + GEMM convolution — the stand-in for cuDNN's "matrix-multiply
//! based convolution" rows of Fig. 5, and the engine's universal fallback
//! for conv geometries Winograd declines (dilation, narrow groups).
//!
//! The input is lowered into a `B·∏out × (C/G)·∏r` matrix per channel
//! group (one row per output position, one column per (input channel,
//! kernel element) pair, zeros where the receptive field covers padding),
//! the group's kernels into a `(C/G)·∏r × C'/G` matrix, and one product
//! per group produces all outputs. Stride and dilation live entirely in
//! the lowering's index arithmetic — the GEMM never sees them. Uses the
//! same block-panel GEMM engine as the Winograd path, so the comparison
//! isolates the *algorithm* (lowering + one big GEMM vs transform + many
//! small GEMMs), not the kernel quality.

use wino_sched::probed::{record_coord, span_start};
use wino_sched::Executor;
use wino_simd::S;
use wino_tensor::{BlockedImage, BlockedKernels, BlockedMatrices, ConvGeometry};

use crate::MAX_RANK;

#[inline]
fn decompose(mut flat: usize, dims: &[usize], out: &mut [usize]) {
    for i in (0..dims.len()).rev() {
        out[i] = flat % dims[i];
        flat /= dims[i];
    }
}

/// Pick a column block: the largest divisor of `cols` that is a multiple
/// of 16 and at most 128.
fn pick_cb(cols: usize) -> usize {
    let mut best = 16;
    let mut cb = 16;
    while cb <= 128.min(cols) {
        if cols.is_multiple_of(cb) {
            best = cb;
        }
        cb += 16;
    }
    best
}

/// im2col + GEMM convolution with zero padding, stride 1.
pub fn im2col_conv(
    input: &BlockedImage,
    kernels: &BlockedKernels,
    padding: &[usize],
    output: &mut BlockedImage,
    exec: &dyn Executor,
) -> Result<(), wino_sched::PoolError> {
    let geo = ConvGeometry::identity(input.dims.len());
    im2col_conv_geo(input, kernels, padding, &geo, output, exec)
}

/// [`im2col_conv`] generalised over the full (stride, dilation, groups)
/// lattice. Kernels follow the grouped convention
/// (`kernels.in_channels == input.channels / groups`); `output` must be
/// pre-sized to the geometry's output extents. Per-group lowered columns
/// are zero-padded up to a multiple of the vector width so narrow groups
/// (depthwise included) still ride the blocked GEMM.
pub fn im2col_conv_geo(
    input: &BlockedImage,
    kernels: &BlockedKernels,
    padding: &[usize],
    geo: &ConvGeometry,
    output: &mut BlockedImage,
    exec: &dyn Executor,
) -> Result<(), wino_sched::PoolError> {
    let rank = input.dims.len();
    assert!(rank <= MAX_RANK);
    assert!(input.channels.is_multiple_of(geo.groups), "groups must divide C");
    assert!(output.channels.is_multiple_of(geo.groups), "groups must divide C'");
    let c_per_group = input.channels / geo.groups;
    let k_per_group = output.channels / geo.groups;
    assert_eq!(kernels.in_channels, c_per_group, "grouped kernel channel mismatch");
    assert_eq!(kernels.out_channels, output.channels);
    let out_dims = output.dims.clone();
    for d in 0..rank {
        let r_eff = (kernels.dims[d] - 1) * geo.dilation[d] + 1;
        assert_eq!(
            out_dims[d],
            (input.dims[d] + 2 * padding[d] - r_eff) / geo.stride[d] + 1,
            "output extent mismatch in dimension {d}"
        );
    }

    let c_in = input.channels;
    let ker_vol: usize = kernels.dims.iter().product();
    let out_vol: usize = out_dims.iter().product();
    let rows = input.batch * out_vol;
    // Lowered columns per group, zero-padded up to the vector width; the
    // padded tail is zero in both operands and multiplies harmlessly.
    let inner = (c_per_group * ker_vol).next_multiple_of(S);
    let cp = k_per_group.next_multiple_of(S);

    let n_blk = 8;
    let cb = pick_cb(inner);
    let cpb = pick_cb(cp);

    let in_dims = &input.dims;
    let mut in_stride = [1usize; MAX_RANK];
    for d in (0..rank.saturating_sub(1)).rev() {
        in_stride[d] = in_stride[d + 1] * in_dims[d + 1];
    }
    let in_spatial: usize = in_dims.iter().product();
    let in_cg = c_in / S;
    let out_cg = output.channels / S;

    let probe = exec.probe();
    for g in 0..geo.groups {
        // Lower the group's input slice. Column index = cl·ker_vol + k.
        let lower_start = span_start(probe);
        let mut a = BlockedMatrices::new(1, rows, inner, n_blk, cb);
        {
            let mut oc = [0usize; MAX_RANK];
            let mut kc = [0usize; MAX_RANK];
            for b in 0..input.batch {
                for o in 0..out_vol {
                    decompose(o, &out_dims, &mut oc[..rank]);
                    let row = b * out_vol + o;
                    for k in 0..ker_vol {
                        decompose(k, &kernels.dims, &mut kc[..rank]);
                        let mut inside = true;
                        let mut off = 0isize;
                        for d in 0..rank {
                            let x = (oc[d] * geo.stride[d] + kc[d] * geo.dilation[d]) as isize
                                - padding[d] as isize;
                            if x < 0 || x >= in_dims[d] as isize {
                                inside = false;
                                break;
                            }
                            off += x * in_stride[d] as isize;
                        }
                        if !inside {
                            continue; // matrix is zero-initialised
                        }
                        let spatial = off as usize;
                        for cl in 0..c_per_group {
                            let c = g * c_per_group + cl;
                            let v = input.as_slice()
                                [((b * in_cg + c / S) * in_spatial + spatial) * S + c % S];
                            a.set(0, row, cl * ker_vol + k, v);
                        }
                    }
                }
            }
        }

        // Lower the group's kernels: rows follow the same (cl, k) order.
        let mut w = BlockedMatrices::new(1, inner, cp, cb, cpb);
        for col in 0..k_per_group {
            let co = g * k_per_group + col;
            for cl in 0..c_per_group {
                for k in 0..ker_vol {
                    let v = kernels.as_slice()[kernels.vec_offset_flat(cl, co / S, k) + co % S];
                    w.set(0, cl * ker_vol + k, col, v);
                }
            }
        }

        // SAFETY: the coordinator thread, no fork–join in flight.
        unsafe { record_coord(probe, wino_probe::SpanCategory::Im2colLower, lower_start) };

        // One GEMM per group.
        let gemm_start = span_start(probe);
        let mut x = BlockedMatrices::new(1, rows, cp, n_blk, cpb);
        wino_gemm::batched_gemm_parallel(&a, &w, &mut x, exec)?;
        // SAFETY: the coordinator thread, after the GEMM's join.
        unsafe { record_coord(probe, wino_probe::SpanCategory::ElementwiseGemm, gemm_start) };

        // Scatter back into the blocked output image (accounted to the
        // lowering category: it is the same data-movement overhead, just on
        // the way out).
        let scatter_start = span_start(probe);
        for b in 0..input.batch {
            for o in 0..out_vol {
                let row = b * out_vol + o;
                for col in 0..k_per_group {
                    let co = g * k_per_group + col;
                    let v = x.get(0, row, col);
                    output.as_mut_slice()[((b * out_cg + co / S) * out_vol + o) * S + co % S] = v;
                }
            }
        }
        // SAFETY: the coordinator thread, no fork–join in flight.
        unsafe { record_coord(probe, wino_probe::SpanCategory::Im2colLower, scatter_start) };
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::direct_f64_geo;
    use wino_sched::SerialExecutor;
    use wino_tensor::{SimpleImage, SimpleKernels};

    fn check(batch: usize, c: usize, cp: usize, dims: &[usize], kd: &[usize], pad: &[usize]) {
        check_geo(batch, c, cp, dims, kd, pad, &ConvGeometry::identity(dims.len()));
    }

    fn check_geo(
        batch: usize,
        c: usize,
        cp: usize,
        dims: &[usize],
        kd: &[usize],
        pad: &[usize],
        geo: &ConvGeometry,
    ) {
        let si = SimpleImage::from_fn(batch, c, dims, |b, c, xy| {
            ((b * 31 + c * 7 + xy.iter().sum::<usize>() * 3) % 13) as f32 * 0.1 - 0.5
        });
        let sk = SimpleKernels::from_fn(cp, c / geo.groups, kd, |co, ci, xy| {
            ((co * 5 + ci * 11 + xy.iter().sum::<usize>()) % 7) as f32 * 0.3 - 0.9
        });
        let want = direct_f64_geo(&si, &sk, pad, geo);
        let bi = BlockedImage::from_simple(&si).unwrap();
        let bk = BlockedKernels::from_simple(&sk).unwrap();
        let mut out = BlockedImage::zeros(batch, cp, &want.dims).unwrap();
        im2col_conv_geo(&bi, &bk, pad, geo, &mut out, &SerialExecutor).unwrap();
        let got = out.to_simple();
        for i in 0..got.data.len() {
            assert!(
                (got.data[i] - want.data[i]).abs() <= 1e-3 * want.data[i].abs().max(1.0),
                "elem {i}: {} vs {}",
                got.data[i],
                want.data[i]
            );
        }
    }

    #[test]
    fn matches_reference_2d() {
        check(2, 16, 32, &[6, 6], &[3, 3], &[1, 1]);
    }

    #[test]
    fn matches_reference_3d() {
        check(1, 16, 16, &[4, 5, 5], &[3, 3, 3], &[1, 1, 1]);
    }

    #[test]
    fn no_padding_and_odd_sizes() {
        check(1, 16, 16, &[7, 9], &[3, 2], &[0, 0]);
    }

    #[test]
    fn strided_matches_oracle() {
        let geo = ConvGeometry { stride: vec![2, 2], dilation: vec![1, 1], groups: 1 };
        check_geo(2, 16, 32, &[9, 9], &[3, 3], &[1, 1], &geo);
        let geo3 = ConvGeometry { stride: vec![2, 1, 2], dilation: vec![1, 1, 1], groups: 1 };
        check_geo(1, 16, 16, &[5, 5, 7], &[3, 3, 3], &[1, 1, 1], &geo3);
    }

    #[test]
    fn dilated_matches_oracle() {
        let geo = ConvGeometry { stride: vec![1, 1], dilation: vec![2, 2], groups: 1 };
        check_geo(1, 16, 16, &[9, 9], &[3, 3], &[2, 2], &geo);
        // Dilation past the padding: receptive field reads zeros.
        let past = ConvGeometry { stride: vec![1, 1], dilation: vec![3, 3], groups: 1 };
        check_geo(1, 16, 16, &[8, 8], &[3, 3], &[1, 1], &past);
    }

    #[test]
    fn grouped_and_depthwise_match_oracle() {
        let g2 = ConvGeometry { stride: vec![1, 1], dilation: vec![1, 1], groups: 2 };
        check_geo(1, 32, 32, &[6, 6], &[3, 3], &[1, 1], &g2);
        // Depthwise: groups == C, one input channel per group.
        let dw = ConvGeometry { stride: vec![1, 1], dilation: vec![1, 1], groups: 32 };
        check_geo(1, 32, 32, &[6, 6], &[3, 3], &[1, 1], &dw);
    }

    #[test]
    fn combined_stride_dilation_groups() {
        let geo = ConvGeometry { stride: vec![2, 2], dilation: vec![2, 2], groups: 2 };
        check_geo(1, 32, 32, &[9, 9], &[3, 3], &[2, 2], &geo);
    }

    #[test]
    fn cb_picker() {
        assert_eq!(pick_cb(144), 48);
        assert_eq!(pick_cb(16), 16);
        assert_eq!(pick_cb(256), 128);
        assert_eq!(pick_cb(32), 32);
    }
}
