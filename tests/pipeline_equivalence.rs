//! Cross-crate equivalence: every convolution implementation in the
//! workspace (Winograd for several F(m, r), vectorised direct, im2col +
//! GEMM, FFT) must compute the same function, with the f64-accumulating
//! direct convolution as the arbiter.

use winograd_nd_repro::baseline::{direct_conv, direct_f64, element_errors, im2col_conv};
use winograd_nd_repro::conv::{convolve_simple, ConvOptions, Scratch, WinogradLayer};
use winograd_nd_repro::fft::fft_conv;
use winograd_nd_repro::sched::SerialExecutor;
use winograd_nd_repro::tensor::{BlockedImage, BlockedKernels, ConvShape, SimpleImage, SimpleKernels};

fn image(shape: &ConvShape, seed: usize) -> SimpleImage {
    SimpleImage::from_fn(shape.batch, shape.in_channels, &shape.image_dims, |b, c, xy| {
        let mut h = b.wrapping_mul(97).wrapping_add(c.wrapping_mul(13)).wrapping_add(seed);
        for &x in xy {
            h = h.wrapping_mul(31).wrapping_add(x);
        }
        ((h % 199) as f32 / 100.0 - 1.0) * 0.1
    })
}

fn kernels(shape: &ConvShape, seed: usize) -> SimpleKernels {
    SimpleKernels::from_fn(shape.out_channels, shape.in_channels, &shape.kernel_dims, |co, ci, xy| {
        let mut h = co.wrapping_mul(41).wrapping_add(ci.wrapping_mul(7)).wrapping_add(seed);
        for &x in xy {
            h = h.wrapping_mul(17).wrapping_add(x);
        }
        ((h % 101) as f32 / 50.0 - 1.0) * 0.15
    })
}

fn check_all(shape: ConvShape, m: &[usize], tol: f64) {
    let img = image(&shape, 1);
    let ker = kernels(&shape, 2);
    let truth = direct_f64(&img, &ker, &shape.padding);

    // Winograd through an explicit plan.
    let plan = WinogradLayer::new(shape.clone(), m, ConvOptions::default()).unwrap();
    let bi = BlockedImage::from_simple(&img).unwrap();
    let bk = BlockedKernels::from_simple(&ker).unwrap();
    let mut scratch = Scratch::new(&plan, 1);
    let mut out = plan.new_output().unwrap();
    plan.forward(&bi, &bk, &mut out, &mut scratch, &SerialExecutor).unwrap();
    let (e, _) = element_errors(&out.to_simple(), &truth);
    assert!(e < tol, "winograd F({m:?}) plan: max err {e}");

    // The one-shot convenience API.
    let wino = convolve_simple(&img, &ker, &shape.padding, m).unwrap();
    let (e, _) = element_errors(&wino, &truth);
    assert!(e < tol, "winograd F({m:?}): max err {e}");

    // Direct (blocked, vectorised).
    let mut out = BlockedImage::zeros(shape.batch, shape.out_channels, &truth.dims).unwrap();
    direct_conv(&bi, &bk, &shape.padding, &mut out, &SerialExecutor).unwrap();
    let (e, _) = element_errors(&out.to_simple(), &truth);
    assert!(e < tol, "direct: max err {e}");

    // im2col + GEMM.
    let mut out2 = BlockedImage::zeros(shape.batch, shape.out_channels, &truth.dims).unwrap();
    im2col_conv(&bi, &bk, &shape.padding, &mut out2, &SerialExecutor).unwrap();
    let (e, _) = element_errors(&out2.to_simple(), &truth);
    assert!(e < tol, "im2col: max err {e}");

    // FFT.
    let fout = fft_conv(&img, &ker, &shape.padding, &SerialExecutor).unwrap();
    let (e, _) = element_errors(&fout, &truth);
    assert!(e < tol * 10.0, "fft: max err {e}");
}

#[test]
fn vgg_style_2d_same_padding() {
    let shape = ConvShape::new(2, 32, 32, &[12, 12], &[3, 3], &[1, 1]).unwrap();
    check_all(shape, &[4, 4], 1e-4);
}

#[test]
fn valid_padding_rectangular() {
    let shape = ConvShape::new(1, 16, 32, &[11, 17], &[3, 3], &[0, 0]).unwrap();
    check_all(shape, &[2, 4], 1e-4);
}

#[test]
fn c3d_style_3d() {
    let shape = ConvShape::new(1, 16, 16, &[6, 8, 8], &[3, 3, 3], &[1, 1, 1]).unwrap();
    check_all(shape, &[2, 2, 2], 1e-4);
}

#[test]
fn arbitrary_kernel_4x4() {
    let shape = ConvShape::new(1, 16, 16, &[12, 12], &[4, 4], &[0, 0]).unwrap();
    check_all(shape, &[3, 3], 1e-4);
}

#[test]
fn asymmetric_kernel_and_tile() {
    let shape = ConvShape::new(1, 16, 16, &[10, 14], &[2, 5], &[0, 2]).unwrap();
    check_all(shape, &[3, 2], 1e-4);
}

#[test]
fn larger_tiles_have_bounded_error() {
    // F(6²) is usable for training per Table 3 — errors stay small.
    let shape = ConvShape::new(1, 16, 16, &[14, 14], &[3, 3], &[1, 1]).unwrap();
    check_all(shape, &[6, 6], 1e-3);
}

#[test]
fn channel_mixing_is_exact_summation() {
    // One-hot kernels: output channel j must equal the sum of selected
    // input channels — catches channel-indexing bugs in every layout.
    let shape = ConvShape::new(1, 32, 16, &[8, 8], &[1, 1], &[0, 0]).unwrap();
    let img = image(&shape, 3);
    let mut ker = SimpleKernels::zeros(16, 32, &[1, 1]);
    for co in 0..16 {
        ker.set(co, co, &[0, 0], 1.0); // identity pick of channel co
        ker.set(co, co + 16, &[0, 0], 2.0); // plus 2x channel co+16
    }
    let wino = convolve_simple(&img, &ker, &[0, 0], &[4, 4]).unwrap();
    for co in 0..16 {
        for x in 0..8 {
            for y in 0..8 {
                let want = img.get(0, co, &[x, y]) + 2.0 * img.get(0, co + 16, &[x, y]);
                let got = wino.get(0, co, &[x, y]);
                assert!((got - want).abs() < 1e-4, "c'={co} ({x},{y}): {got} vs {want}");
            }
        }
    }
}

#[test]
fn fx_equals_training_mode_across_shapes() {
    for (dims, kd, m) in [
        (vec![10usize, 10], vec![3usize, 3], vec![4usize, 4]),
        (vec![6, 8, 8], vec![3, 3, 3], vec![2, 2, 2]),
    ] {
        let pad = vec![1usize; dims.len()];
        let shape = ConvShape::new(1, 16, 16, &dims, &kd, &pad).unwrap();
        let plan = WinogradLayer::new(shape.clone(), &m, ConvOptions::default()).unwrap();
        let bi = BlockedImage::from_simple(&image(&shape, 4)).unwrap();
        let bk = BlockedKernels::from_simple(&kernels(&shape, 5)).unwrap();
        let mut scratch = Scratch::new(&plan, 1);
        let mut out_a = plan.new_output().unwrap();
        let mut out_b = plan.new_output().unwrap();
        plan.forward(&bi, &bk, &mut out_a, &mut scratch, &SerialExecutor).unwrap();
        let tk = plan.prepare_kernels(&bk, &mut scratch, &SerialExecutor).unwrap();
        plan.forward_fx(&bi, &tk, &mut out_b, &mut scratch, &SerialExecutor).unwrap();
        assert_eq!(out_a.as_slice(), out_b.as_slice(), "dims {dims:?}");
    }
}
