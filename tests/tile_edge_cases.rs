//! Tile-extraction edge cases: geometries where the overlap-add gather
//! and the clipped inverse-transform write are most likely to go wrong —
//! tiles overhanging the border in *every* dimension simultaneously,
//! 1-wide and 1-deep inputs, and tiles larger than the spatial extent
//! itself. Every case is checked against the f64 direct oracle, serially
//! and on a 3-thread pool, which must agree bitwise.

use winograd_nd_repro::baseline::{direct_f64, element_errors};
use winograd_nd_repro::conv::{ConvOptions, Scratch, WinogradLayer};
use winograd_nd_repro::sched::{SerialExecutor, StaticExecutor};
use winograd_nd_repro::tensor::{
    BlockedImage, BlockedKernels, ConvShape, SimpleImage, SimpleKernels,
};

fn image(batch: usize, c: usize, dims: &[usize], seed: usize) -> SimpleImage {
    SimpleImage::from_fn(batch, c, dims, |b, ch, xy| {
        let mut h = b.wrapping_mul(131).wrapping_add(ch.wrapping_mul(17)).wrapping_add(seed);
        for &x in xy {
            h = h.wrapping_mul(31).wrapping_add(x);
        }
        (h % 211) as f32 / 211.0 * 0.2 - 0.1
    })
}

fn kernels(cp: usize, c: usize, kd: &[usize], seed: usize) -> SimpleKernels {
    SimpleKernels::from_fn(cp, c, kd, |co, ci, xy| {
        let mut h = co.wrapping_mul(19).wrapping_add(ci.wrapping_mul(5)).wrapping_add(seed);
        for &x in xy {
            h = h.wrapping_mul(13).wrapping_add(x);
        }
        (h % 97) as f32 / 97.0 * 0.4 - 0.2
    })
}

/// Run `(dims, kd, pad, m)` serially and on a 3-thread pool and check
/// against the direct oracle.
fn check_case(dims: &[usize], kd: &[usize], pad: &[usize], m: &[usize], label: &str) {
    let (c, cp) = (16, 16);
    let img = image(1, c, dims, 7);
    let ker = kernels(cp, c, kd, 11);
    let truth = direct_f64(&img, &ker, pad);
    let shape = ConvShape::new(1, c, cp, dims, kd, pad).unwrap();
    let bi = BlockedImage::from_simple(&img).unwrap();
    let bk = BlockedKernels::from_simple(&ker).unwrap();

    let plan = WinogradLayer::new(shape, m, ConvOptions::default())
        .unwrap_or_else(|e| panic!("{label}: plan rejected: {e:?}"));
    let mut scratch = Scratch::new(&plan, 1);
    let mut out = plan.new_output().unwrap();
    plan.forward(&bi, &bk, &mut out, &mut scratch, &SerialExecutor).unwrap();
    let (e, _) = element_errors(&out.to_simple(), &truth);
    assert!(e < 2e-3, "{label}: max err {e}");

    // The pool partitions the tiles across slots — edge tiles must land
    // identically.
    let pool = StaticExecutor::new(3);
    let mut scratch_p = Scratch::new(&plan, 3);
    let mut out_p = plan.new_output().unwrap();
    plan.forward(&bi, &bk, &mut out_p, &mut scratch_p, &pool).unwrap();
    assert_eq!(out_p.as_slice(), out.as_slice(), "{label}: parallel diverged from serial");
}

#[test]
fn overhang_in_every_dimension_simultaneously() {
    // out = 7×9 with m = 4: ceil(7/4) = 2 and ceil(9/4) = 3 tiles, the
    // last tile overhanging in both dimensions at once.
    check_case(&[7, 9], &[3, 3], &[1, 1], &[4, 4], "2-D all-dims overhang");
    // 3-D: out = 3×5×5, m = 2 → overhang in all three dimensions.
    check_case(&[3, 5, 5], &[3, 3, 3], &[1, 1, 1], &[2, 2, 2], "3-D all-dims overhang");
}

#[test]
fn one_wide_input() {
    // A 1-wide image: the width dimension holds exactly one point, the
    // kernel is 1 there, and every gather clamps at both borders.
    check_case(&[1, 10], &[1, 3], &[0, 1], &[1, 4], "1-wide 2-D");
    check_case(&[10, 1], &[3, 1], &[1, 0], &[4, 1], "1-tall 2-D");
}

#[test]
fn one_deep_3d_input() {
    // Depth 1 with "same" padding in depth: the depth gather reads one
    // real plane plus zero fill on both sides.
    check_case(&[1, 8, 8], &[3, 3, 3], &[1, 1, 1], &[2, 2, 2], "1-deep 3-D");
}

#[test]
fn tile_larger_than_spatial_extent() {
    // out = 3×3 with m = 4: a single tile per dimension, larger than the
    // whole output; α = 6 exceeds the 5-point image, so the gather's
    // zero-fill covers the far border too.
    check_case(&[5, 5], &[3, 3], &[0, 0], &[4, 4], "m > extent 2-D");
    // 1-D flavour: 4-point output from one F(6,3) tile.
    check_case(&[6], &[3], &[0], &[6], "m > extent 1-D");
}

#[test]
fn single_pixel_output() {
    // Valid convolution consuming the whole image: out = 1×1.
    check_case(&[3, 3], &[3, 3], &[0, 0], &[2, 2], "single-pixel output");
}

// ---------------------------------------------------------------------------
// Geometry edge cases: the dispatch layer's corners — strides larger than
// the image, dilations that push the receptive field entirely into the
// zero padding, depthwise groups, and the typed rejection of group
// counts that divide nothing.
// ---------------------------------------------------------------------------

use winograd_nd_repro::baseline::direct_f64_geo;
use winograd_nd_repro::conv::{plan_dispatch, FallbackPolicy, PlanError};
use winograd_nd_repro::tensor::ShapeError;

/// As [`check_case`], but through the dispatch layer with a full
/// (stride, dilation, groups) geometry. The per-path tolerance is loose
/// enough for Winograd routes and tight for im2col ones.
#[allow(clippy::too_many_arguments)]
fn check_geo_case(
    dims: &[usize],
    kd: &[usize],
    pad: &[usize],
    m: &[usize],
    stride: &[usize],
    dilation: &[usize],
    groups: usize,
    label: &str,
) {
    let (c, cp) = (16, 16);
    let img = image(1, c, dims, 7);
    let ker = kernels(cp, c / groups, kd, 11);
    let shape = ConvShape::new(1, c, cp, dims, kd, pad).unwrap();
    let opts = ConvOptions::default()
        .with_stride(stride)
        .with_dilation(dilation)
        .with_groups(groups);
    let truth = direct_f64_geo(&img, &ker, pad, &opts.geometry(dims.len()));
    let bi = BlockedImage::from_simple(&img).unwrap();
    let bk = BlockedKernels::from_simple(&ker).unwrap();

    let (dp, _fb) = plan_dispatch(&shape, m, opts, &FallbackPolicy::default())
        .unwrap_or_else(|e| panic!("{label}: rejected: {e:?}"));
    let mut out = dp.new_output().unwrap();
    dp.forward(&bi, &bk, &mut out, &SerialExecutor)
        .unwrap_or_else(|e| panic!("{label}: forward failed: {e:?}"));
    assert_eq!(out.dims, truth.dims, "{label}");
    let (e, _) = element_errors(&out.to_simple(), &truth);
    assert!(e < 2e-3, "{label}: max err {e}");
}

#[test]
fn stride_larger_than_spatial_extent() {
    // Stride 5 on a 9-point image with a 3-point kernel: two output
    // points per dimension, sampled 5 apart out of the 9×9 stride-1
    // result.
    check_geo_case(&[9, 9], &[3, 3], &[1, 1], &[2, 2], &[5, 5], &[1, 1], 1, "stride 5 on 9");
    // Stride 8 leaves exactly one output point: the first site of the
    // stride-1 result.
    check_geo_case(&[9], &[3], &[1], &[2], &[8], &[1], 1, "stride 8, single output");
}

#[test]
fn dilation_reaching_past_the_padding() {
    // Dilation 3 on a 3-point kernel: r_eff = 7 against a 7-point image
    // with pad 0 — the receptive field spans the whole image, and with
    // pad 3 the border outputs read *only* zero padding on one side.
    check_geo_case(&[7, 7], &[3, 3], &[0, 0], &[1, 1], &[1, 1], &[3, 3], 1, "dilation 3, pad 0");
    check_geo_case(&[7], &[3], &[3], &[2], &[1], &[3], 1, "dilation 3, pad 3");
}

#[test]
fn depthwise_is_routed_not_rejected() {
    // groups == C == 16: one channel per group. No Winograd layout can
    // block that, so it must land in im2col — and still be the right
    // convolution, including with a stride on top.
    check_geo_case(&[8, 8], &[3, 3], &[1, 1], &[2, 2], &[1, 1], &[1, 1], 16, "depthwise");
    check_geo_case(&[8, 8], &[3, 3], &[1, 1], &[2, 2], &[2, 2], &[1, 1], 16, "strided depthwise");
}

#[test]
fn non_divisible_groups_are_rejected_with_a_typed_error() {
    // groups = 5 divides neither C = 16 nor C' = 16: unrepresentable,
    // so the dispatcher must fail with the typed shape error (no route
    // may guess at fractional channel groups).
    let shape = ConvShape::new(1, 16, 16, &[8, 8], &[3, 3], &[1, 1]).unwrap();
    let opts = ConvOptions::default().with_groups(5);
    assert!(matches!(
        plan_dispatch(&shape, &[2, 2], opts, &FallbackPolicy::default()),
        Err(PlanError::Shape(ShapeError::BadGroups { channels: 16, groups: 5 }))
    ));
    // A permissive policy changes nothing: this is not a plan failure to
    // degrade from, the layer itself is ill-formed.
    let strict = FallbackPolicy::strict();
    assert!(matches!(
        plan_dispatch(&shape, &[2, 2], opts, &strict),
        Err(PlanError::Shape(ShapeError::BadGroups { .. }))
    ));
}
