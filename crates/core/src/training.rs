//! Training-mode gradients through the Winograd engine.
//!
//! The paper benchmarks the *training configuration* (kernels transformed
//! every invocation, batch > 1) but, like most convolution-kernel papers,
//! only times the forward pass. Completing the training story costs
//! nothing extra algorithmically, because both gradients *are*
//! convolutions:
//!
//! * **data gradient** — `∂L/∂input` is the correlation of `∂L/∂output`
//!   with the *spatially flipped, channel-transposed* kernels under
//!   "full" padding `r − 1 − p`; it runs through the very same
//!   N-dimensional Winograd pipeline (this is also how frameworks
//!   implement `conv_backward_data`);
//! * **filter gradient** — `∂L/∂W` is a batch-reduced correlation of the
//!   input with `∂L/∂output`; provided here as a direct reference
//!   implementation (its matrix shapes — tiny spatial extent, huge
//!   reduction — do not fit the tall-skinny Winograd profile).
//!
//! Both gradients are **numerically guarded**: a NaN or Inf anywhere in
//! the incoming `∂L/∂output` (the classic exploding-loss signature) or in
//! a produced gradient is a typed [`WinoError::Numeric`] instead of a
//! silent poison that corrupts every parameter on the next optimiser
//! step. [`backward_data_with_sentinel`] additionally re-verifies a
//! seeded sample of gradient tiles against the f64 oracle — the training
//! half of the accuracy-sentinel subsystem (`crate::sentinel`), where a
//! trip is [`WinoError::Sentinel`] because a gradient, unlike an
//! activation, has no im2col rescue ladder to hide in.

use wino_tensor::{BlockedImage, BlockedKernels, ConvShape, SimpleImage, SimpleKernels};

use crate::conv::convolve_simple;
use crate::error::{check_finite, ensure_dims_eq, ensure_eq, WinoError};
use crate::plan::{ConvOptions, WinogradLayer};
use crate::sentinel::{verify_sample, SentinelConfig};

/// Spatially flip a kernel bank along every dimension and swap its
/// input/output channel roles: the kernel bank of the data-gradient
/// convolution.
pub fn flip_transpose_kernels(k: &SimpleKernels) -> SimpleKernels {
    let mut out = SimpleKernels::zeros(k.in_channels, k.out_channels, &k.dims);
    let vol = k.spatial_volume();
    for co in 0..k.out_channels {
        for ci in 0..k.in_channels {
            for s in 0..vol {
                let coords = wino_tensor::unflatten(s, &k.dims);
                let flipped: Vec<usize> =
                    coords.iter().zip(&k.dims).map(|(&c, &d)| d - 1 - c).collect();
                let v = k.get(co, ci, &coords);
                out.set(ci, co, &flipped, v);
            }
        }
    }
    out
}

/// `∂L/∂input` for a stride-1 convolution layer, computed with the
/// Winograd engine (`m` is the output-tile size of the *gradient*
/// convolution) — through [`WinogradLayer::forward`], so on whichever
/// schedule the gradient convolution plans (a deep layer's few rows often
/// make it the dual ring). `grad_output` must have the layer's output
/// shape and `kernels` its channels: anything else is a typed
/// [`WinoError::Shape`].
pub fn backward_data(
    shape: &ConvShape,
    grad_output: &SimpleImage,
    kernels: &SimpleKernels,
    m: &[usize],
) -> Result<SimpleImage, WinoError> {
    ensure_dims_eq("grad_output extent", &shape.out_dims(), &grad_output.dims)?;
    ensure_eq("grad_output channels", shape.out_channels, grad_output.channels)?;
    ensure_eq("kernel out-channels", shape.out_channels, kernels.out_channels)?;
    ensure_eq("kernel in-channels", shape.in_channels, kernels.in_channels)?;
    // Guard the *incoming* gradient first: mid-training NaN (exploding
    // loss, poisoned optimiser state) would otherwise spread through the
    // transforms into every grad_input element with no attribution.
    check_finite("grad_output", &grad_output.data)?;
    check_finite("kernels", &kernels.data)?;
    let full_pad: Vec<usize> = (0..shape.rank())
        .map(|d| shape.kernel_dims[d] - 1 - shape.padding[d])
        .collect();
    let flipped = flip_transpose_kernels(kernels);
    let gx = convolve_simple(grad_output, &flipped, &full_pad, m)?;
    check_finite("grad_input", &gx.data)?;
    Ok(gx)
}

/// The [`ConvShape`] of the data-gradient convolution itself (the layer
/// the gradient pass *is*): out-channels correlate back to in-channels
/// over the output grid under "full" padding.
pub fn gradient_shape(shape: &ConvShape) -> Result<ConvShape, WinoError> {
    let full_pad: Vec<usize> = (0..shape.rank())
        .map(|d| shape.kernel_dims[d] - 1 - shape.padding[d])
        .collect();
    Ok(ConvShape::new(
        shape.batch,
        shape.out_channels,
        shape.in_channels,
        &shape.out_dims(),
        &shape.kernel_dims,
        &full_pad,
    )?)
}

/// [`backward_data`] plus the accuracy sentinels: after the guarded
/// gradient convolution, a seeded sample of `∂L/∂input` tiles is
/// re-verified against the f64 direct oracle (see [`crate::sentinel`]).
/// A trip is a hard [`WinoError::Sentinel`] — training has no im2col
/// degradation ladder, and silently corrupt gradients are precisely what
/// the sentinels exist to catch. `cfg.samples == 0` makes this exactly
/// [`backward_data`].
pub fn backward_data_with_sentinel(
    shape: &ConvShape,
    grad_output: &SimpleImage,
    kernels: &SimpleKernels,
    m: &[usize],
    cfg: &SentinelConfig,
    layer_index: usize,
) -> Result<SimpleImage, WinoError> {
    let gx = backward_data(shape, grad_output, kernels, m)?;
    if cfg.samples == 0 {
        return Ok(gx);
    }
    // Re-plan the gradient convolution to verify against: same plan
    // `convolve_simple` built inside `backward_data`.
    let gshape = gradient_shape(shape)?;
    let plan = WinogradLayer::new(gshape, m, ConvOptions::default())?;
    let input = BlockedImage::from_simple(grad_output)?;
    let bkernels = BlockedKernels::from_simple(&flip_transpose_kernels(kernels))?;
    let output = BlockedImage::from_simple(&gx)?;
    match verify_sample(&plan, &input, &bkernels, &output, cfg, layer_index) {
        Ok(checked) => {
            wino_probe::Counter::SentinelTilesChecked.add(checked as u64);
            Ok(gx)
        }
        Err(trip) => {
            wino_probe::Counter::SentinelTrips.add(1);
            Err(trip.into())
        }
    }
}

/// `∂L/∂W` for a stride-1 convolution layer (direct reference
/// implementation, `f64` accumulation), guarded like [`backward_data`]:
/// non-finite inputs or outputs are a typed error, never a silently
/// poisoned weight update, and so is an `input` or `grad_output` whose
/// extent is not the layer's.
pub fn backward_filter(
    shape: &ConvShape,
    input: &SimpleImage,
    grad_output: &SimpleImage,
) -> Result<SimpleKernels, WinoError> {
    ensure_dims_eq("input extent", &shape.image_dims, &input.dims)?;
    ensure_dims_eq("grad_output extent", &shape.out_dims(), &grad_output.dims)?;
    check_finite("input", &input.data)?;
    check_finite("grad_output", &grad_output.data)?;
    let rank = shape.rank();
    let mut gw = SimpleKernels::zeros(shape.out_channels, shape.in_channels, &shape.kernel_dims);
    let out_dims = shape.out_dims();
    let out_vol: usize = out_dims.iter().product();
    let ker_vol: usize = shape.kernel_dims.iter().product();
    for co in 0..shape.out_channels {
        for ci in 0..shape.in_channels {
            for k in 0..ker_vol {
                let kc = wino_tensor::unflatten(k, &shape.kernel_dims);
                let mut acc = 0.0f64;
                for b in 0..shape.batch {
                    for o in 0..out_vol {
                        let oc = wino_tensor::unflatten(o, &out_dims);
                        let coords: Vec<isize> = (0..rank)
                            .map(|d| (oc[d] + kc[d]) as isize - shape.padding[d] as isize)
                            .collect();
                        let x = input.get_padded(b, ci, &coords);
                        if x != 0.0 {
                            acc += x as f64 * grad_output.get(b, co, &oc) as f64;
                        }
                    }
                }
                gw.set(co, ci, &kc, acc as f32);
            }
        }
    }
    check_finite("grad_filter", &gw.data)?;
    Ok(gw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot_img(a: &SimpleImage, b: &SimpleImage) -> f64 {
        a.data.iter().zip(&b.data).map(|(&x, &y)| x as f64 * y as f64).sum()
    }

    fn dot_ker(a: &SimpleKernels, b: &SimpleKernels) -> f64 {
        a.data.iter().zip(&b.data).map(|(&x, &y)| x as f64 * y as f64).sum()
    }

    fn setup(pad: usize) -> (ConvShape, SimpleImage, SimpleKernels, SimpleImage) {
        let shape = ConvShape::new(1, 16, 16, &[10, 10], &[3, 3], &[pad, pad]).unwrap();
        let x = SimpleImage::from_fn(1, 16, &[10, 10], |_, c, xy| {
            ((c * 7 + xy[0] * 3 + xy[1]) % 11) as f32 * 0.1 - 0.5
        });
        let w = SimpleKernels::from_fn(16, 16, &[3, 3], |co, ci, xy| {
            ((co + ci * 5 + xy[0] + xy[1] * 2) % 7) as f32 * 0.2 - 0.6
        });
        let out_dims = shape.out_dims();
        let gy = SimpleImage::from_fn(1, 16, &out_dims, |_, c, xy| {
            ((c * 3 + xy[0] + xy[1] * 5) % 13) as f32 * 0.07 - 0.4
        });
        (shape, x, w, gy)
    }

    #[test]
    fn flip_transpose_involution() {
        let (_, _, w, _) = setup(1);
        let ft = flip_transpose_kernels(&w);
        assert_eq!(ft.out_channels, w.in_channels);
        assert_eq!(ft.in_channels, w.out_channels);
        assert_eq!(flip_transpose_kernels(&ft), w);
    }

    /// The adjoint (dot-product) test: ⟨conv(x, w), gy⟩ = ⟨x, convᵀ(gy, w)⟩
    /// for the bilinear forward map — the canonical correctness check for
    /// a backward pass.
    #[test]
    fn backward_data_is_the_adjoint_of_forward() {
        for pad in [0usize, 1] {
            let (shape, x, w, gy) = setup(pad);
            let y = convolve_simple(&x, &w, &shape.padding, &[2, 2]).unwrap();
            let gx = backward_data(&shape, &gy, &w, &[2, 2]).unwrap();
            assert_eq!(gx.dims, shape.image_dims);
            let lhs = dot_img(&y, &gy);
            let rhs = dot_img(&x, &gx);
            assert!(
                (lhs - rhs).abs() <= 1e-3 * lhs.abs().max(1.0),
                "pad={pad}: ⟨y,gy⟩={lhs} vs ⟨x,gx⟩={rhs}"
            );
        }
    }

    #[test]
    fn backward_filter_is_the_adjoint_in_w() {
        let (shape, x, w, gy) = setup(1);
        let y = convolve_simple(&x, &w, &shape.padding, &[4, 4]).unwrap();
        let gw = backward_filter(&shape, &x, &gy).unwrap();
        let lhs = dot_img(&y, &gy);
        let rhs = dot_ker(&w, &gw);
        assert!(
            (lhs - rhs).abs() <= 1e-3 * lhs.abs().max(1.0),
            "⟨y,gy⟩={lhs} vs ⟨w,gw⟩={rhs}"
        );
    }

    #[test]
    fn backward_data_3d() {
        let shape = ConvShape::new(1, 16, 16, &[4, 6, 6], &[3, 3, 3], &[1, 1, 1]).unwrap();
        let x = SimpleImage::from_fn(1, 16, &[4, 6, 6], |_, c, xyz| {
            ((c + xyz.iter().sum::<usize>()) % 9) as f32 * 0.1
        });
        let w = SimpleKernels::from_fn(16, 16, &[3, 3, 3], |co, ci, xyz| {
            ((co * 2 + ci + xyz.iter().sum::<usize>()) % 5) as f32 * 0.2 - 0.4
        });
        let gy = SimpleImage::from_fn(1, 16, &shape.out_dims(), |_, c, xyz| {
            ((c * 3 + xyz.iter().sum::<usize>() * 2) % 7) as f32 * 0.1 - 0.3
        });
        let y = convolve_simple(&x, &w, &shape.padding, &[2, 2, 2]).unwrap();
        let gx = backward_data(&shape, &gy, &w, &[2, 2, 2]).unwrap();
        let lhs = dot_img(&y, &gy);
        let rhs = dot_img(&x, &gx);
        assert!((lhs - rhs).abs() <= 1e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    /// Regression: a NaN appearing mid-training (the exploding-loss
    /// signature) must surface as a typed error from every gradient
    /// entry point — attributed to the buffer it arrived in — instead of
    /// silently poisoning the next parameter update.
    #[test]
    fn nan_mid_training_is_a_typed_error_not_a_poisoned_update() {
        let (shape, x, w, mut gy) = setup(1);
        gy.data[7] = f32::NAN;

        let err = backward_data(&shape, &gy, &w, &[2, 2]).unwrap_err();
        match err {
            WinoError::Numeric(e) => assert_eq!(e.stage, "grad_output"),
            other => panic!("expected Numeric(grad_output), got {other:?}"),
        }
        let err = backward_filter(&shape, &x, &gy).unwrap_err();
        assert!(matches!(err, WinoError::Numeric(e) if e.stage == "grad_output"));

        // Non-finite *kernels* (e.g. a diverged weight) are caught too.
        let (_, _, mut w_bad, gy_ok) = setup(1);
        w_bad.data[0] = f32::INFINITY;
        let err = backward_data(&shape, &gy_ok, &w_bad, &[2, 2]).unwrap_err();
        assert!(matches!(err, WinoError::Numeric(e) if e.stage == "kernels"));
    }

    /// The sentinel hook: a clean gradient passes the sampled f64
    /// re-verification; a corrupted gradient result would trip it. Here
    /// the clean path is exercised end-to-end (the corrupt path is
    /// covered by the fault-injection battery), plus `samples == 0`
    /// reduces to plain `backward_data`.
    #[test]
    fn backward_data_sentinel_verifies_the_gradient() {
        let (shape, _, w, gy) = setup(1);
        let cfg = SentinelConfig::sampled(4, 11);
        let gx = backward_data_with_sentinel(&shape, &gy, &w, &[2, 2], &cfg, 0).unwrap();
        let plain = backward_data(&shape, &gy, &w, &[2, 2]).unwrap();
        assert_eq!(gx.data, plain.data, "sentinel must not change the gradient");

        let off = SentinelConfig::off();
        let gx2 = backward_data_with_sentinel(&shape, &gy, &w, &[2, 2], &off, 0).unwrap();
        assert_eq!(gx2.data, plain.data);
    }

    /// A tensor of the wrong shape is the caller's error, typed — not an
    /// abort in the middle of a training step.
    #[test]
    fn backward_data_types_mis_shaped_tensors() {
        use wino_tensor::ShapeError;
        let (shape, _, w, gy) = setup(1);
        let mismatch = |r: Result<SimpleImage, WinoError>| match r {
            Err(WinoError::Shape(ShapeError::Mismatch { what, .. })) => what,
            other => panic!("expected Shape(Mismatch), got {other:?}"),
        };
        let short = SimpleImage::zeros(1, 16, &[10, 9]);
        assert_eq!(mismatch(backward_data(&shape, &short, &w, &[2, 2])), "grad_output extent");
        let narrow = SimpleImage::zeros(1, 32, &[10, 10]);
        assert_eq!(mismatch(backward_data(&shape, &narrow, &w, &[2, 2])), "grad_output channels");
        let other = SimpleKernels::zeros(32, 16, &[3, 3]);
        assert_eq!(mismatch(backward_data(&shape, &gy, &other, &[2, 2])), "kernel out-channels");
        let other = SimpleKernels::zeros(16, 32, &[3, 3]);
        assert_eq!(mismatch(backward_data(&shape, &gy, &other, &[2, 2])), "kernel in-channels");
        assert!(backward_data(&shape, &gy, &w, &[2, 2]).is_ok());
    }

    #[test]
    fn backward_filter_types_mis_shaped_tensors() {
        use wino_tensor::ShapeError;
        let (shape, x, _, gy) = setup(1);
        let mismatch = |r: Result<SimpleKernels, WinoError>| match r {
            Err(WinoError::Shape(ShapeError::Mismatch { what, .. })) => what,
            other => panic!("expected Shape(Mismatch), got {other:?}"),
        };
        let short = SimpleImage::zeros(1, 16, &[9, 10]);
        assert_eq!(mismatch(backward_filter(&shape, &short, &gy)), "input extent");
        assert_eq!(mismatch(backward_filter(&shape, &x, &short)), "grad_output extent");
        let flat = SimpleImage::zeros(1, 16, &[100]);
        assert!(matches!(
            backward_filter(&shape, &flat, &gy),
            Err(WinoError::Shape(ShapeError::RankMismatch { expected: 2, got: 1 }))
        ));
    }

    /// `backward_data` runs through `forward`, so a deep layer's gradient —
    /// 16 rows, 4.7 MiB of `V̂` — takes the dual ring at its own 16 × 16
    /// blocking, and computes what the three stages compute at the plan's
    /// Eq. 11 one, bit for bit.
    #[test]
    fn backward_data_on_a_dual_gradient_shape_equals_its_staged_result() {
        use crate::plan::{Host, Pin, Scratch};
        let shape = ConvShape::new(1, 256, 128, &[16, 16], &[3, 3], &[1, 1]).unwrap();
        let w = SimpleKernels::from_fn(128, 256, &[3, 3], |co, ci, xy| {
            ((co * 3 + ci * 7 + xy[0] + xy[1] * 5) % 17) as f32 * 0.01 - 0.08
        });
        let gy = SimpleImage::from_fn(1, 128, &shape.out_dims(), |_, c, xy| {
            ((c * 5 + xy[0] * 3 + xy[1]) % 19) as f32 * 0.05 - 0.45
        });
        let gx = backward_data(&shape, &gy, &w, &[4, 4]).unwrap();

        let gshape = gradient_shape(&shape).unwrap();
        let dual = WinogradLayer::new(gshape.clone(), &[4, 4], ConvOptions::default()).unwrap();
        assert!(dual.is_dual(), "{:?}", dual.block);
        let host = Host::test(Pin::Staged, false);
        let staged = WinogradLayer::new_on(gshape, &[4, 4], ConvOptions::default(), host).unwrap();
        assert_eq!(staged.block, dual.block);
        assert_ne!(dual.ring_gemm().shape(), dual.block);
        let input = BlockedImage::from_simple(&gy).unwrap();
        let kernels = BlockedKernels::from_simple(&flip_transpose_kernels(&w)).unwrap();
        let mut out = staged.new_output().unwrap();
        let mut scratch = Scratch::new(&staged, 1);
        staged.forward(&input, &kernels, &mut out, &mut scratch, &wino_sched::SerialExecutor).unwrap();
        assert!(out.to_simple().data == gx.data);
    }

    /// The gradient-conv shape round-trips: its output grid is the
    /// layer's input grid (that is what `∂L/∂input` means).
    #[test]
    fn gradient_shape_maps_output_back_to_input() {
        for pad in [0usize, 1] {
            let (shape, ..) = setup(pad);
            let g = gradient_shape(&shape).unwrap();
            assert_eq!(g.out_dims(), shape.image_dims);
            assert_eq!(g.in_channels, shape.out_channels);
            assert_eq!(g.out_channels, shape.in_channels);
        }
    }
}
