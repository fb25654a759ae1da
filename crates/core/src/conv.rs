//! The public convolution entry points: training mode (transform kernels
//! every call) and inference "FX" mode (memoised kernel transforms).
//!
//! Each is one branch over the plan's schedule: the ring-fused driver
//! (`fused.rs` — one fork–join, `Û` and `X̂` in a per-thread ring) when
//! the plan is a ring plan ([`WinogradLayer::is_fused`]) and the executor
//! has no more threads than the plan has panels; in training mode, the
//! dual ring (`fused.rs` too — the input transform, then one fork–join,
//! blocks of `V̂` in a per-thread ring) when the plan is a dual plan
//! ([`WinogradLayer::is_dual`]) and the executor has no more threads than
//! the plan has column groups; else the paper's three stages. All compute
//! the same bits.

use wino_sched::Executor;
use wino_tensor::{BlockedImage, BlockedKernels, BlockedMatrices, ConvShape, SimpleImage, SimpleKernels};

use crate::error::WinoError;
use crate::plan::{ConvOptions, Scratch, WinogradLayer};
use crate::{fused, stage1, stage2, stage3};

/// Memoised kernel transforms (`W` of Table 1) for inference-only use —
/// the paper's "FX" columns in Fig. 5. Bound to the layer plan that
/// produced them (same tile size and blocking).
#[derive(Debug)]
pub struct TransformedKernels {
    pub(crate) v: BlockedMatrices,
}

impl TransformedKernels {
    /// Bytes held by the memoised transforms.
    pub fn bytes(&self) -> usize {
        self.v.bytes()
    }
}

impl WinogradLayer {
    /// Full convolution, training mode: transforms inputs *and* kernels,
    /// multiplies, inverse-transforms into `output` — in four fork–joins
    /// on the staged schedule, two on the ring and on the dual ring.
    ///
    /// `scratch` must come from [`Scratch::new`] for this layer (or an
    /// identically shaped one) with at least `exec.threads()` slots.
    pub fn forward(
        &self,
        input: &BlockedImage,
        kernels: &BlockedKernels,
        output: &mut BlockedImage,
        scratch: &mut Scratch,
        exec: &dyn Executor,
    ) -> Result<(), WinoError> {
        if self.runs_dual(exec) {
            return fused::forward_dual(self, input, kernels, output, scratch, exec);
        }
        if self.runs_fused(exec) {
            stage1::transform_kernels(self, kernels, scratch, exec)?;
            return fused::forward(self, input, &scratch.v, output, scratch, exec);
        }
        stage1::transform_inputs(self, input, scratch, exec)?;
        stage1::transform_kernels(self, kernels, scratch, exec)?;
        stage2::multiply(self, scratch, exec)?;
        stage3::inverse_transform(self, scratch, output, exec)
    }

    /// Transform kernels once for repeated inference (§4.2 "Inference
    /// only").
    pub fn prepare_kernels(
        &self,
        kernels: &BlockedKernels,
        scratch: &mut Scratch,
        exec: &dyn Executor,
    ) -> Result<TransformedKernels, WinoError> {
        stage1::transform_kernels(self, kernels, scratch, exec)?;
        Ok(TransformedKernels { v: scratch.v.clone() })
    }

    /// Inference-mode convolution using memoised kernel transforms — the
    /// kernel-transform stage is skipped entirely (one fork–join on the
    /// ring, three on the staged schedule — which a dual plan runs, its
    /// `V̂` being memoised).
    pub fn forward_fx(
        &self,
        input: &BlockedImage,
        kernels: &TransformedKernels,
        output: &mut BlockedImage,
        scratch: &mut Scratch,
        exec: &dyn Executor,
    ) -> Result<(), WinoError> {
        if self.runs_fused(exec) {
            return fused::forward(self, input, &kernels.v, output, scratch, exec);
        }
        stage1::transform_inputs(self, input, scratch, exec)?;
        stage2::multiply_with(self, scratch, &kernels.v, exec)?;
        stage3::inverse_transform(self, scratch, output, exec)
    }
}

/// One-shot convenience API on interchange-format tensors: plans the
/// layer, runs serially, returns the output image. Intended for tests,
/// examples and small problems — production code should plan once and
/// reuse [`Scratch`] across invocations.
pub fn convolve_simple(
    img: &SimpleImage,
    ker: &SimpleKernels,
    padding: &[usize],
    m: &[usize],
) -> Result<SimpleImage, WinoError> {
    let shape = ConvShape::new(
        img.batch,
        img.channels,
        ker.out_channels,
        &img.dims,
        &ker.dims,
        padding,
    )?;
    let layer = WinogradLayer::new(shape, m, ConvOptions::default())?;
    let input = BlockedImage::from_simple(img)?;
    let kernels = BlockedKernels::from_simple(ker)?;
    let mut output = layer.new_output()?;
    let mut scratch = Scratch::new(&layer, 1);
    layer.forward(&input, &kernels, &mut output, &mut scratch, &wino_sched::SerialExecutor)?;
    Ok(output.to_simple())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_sched::{DynamicExecutor, SerialExecutor, StaticExecutor};

    /// f64 direct cross-correlation oracle on simple tensors.
    pub fn direct_reference(img: &SimpleImage, ker: &SimpleKernels, padding: &[usize]) -> SimpleImage {
        let rank = img.dims.len();
        let out_dims: Vec<usize> = (0..rank)
            .map(|d| img.dims[d] + 2 * padding[d] - ker.dims[d] + 1)
            .collect();
        let mut out = SimpleImage::zeros(img.batch, ker.out_channels, &out_dims);
        let out_vol: usize = out_dims.iter().product();
        let ker_vol: usize = ker.dims.iter().product();
        for b in 0..img.batch {
            for co in 0..ker.out_channels {
                for o in 0..out_vol {
                    let oc = wino_tensor::unflatten(o, &out_dims);
                    let mut acc = 0.0f64;
                    for ci in 0..img.channels {
                        for k in 0..ker_vol {
                            let kc = wino_tensor::unflatten(k, &ker.dims);
                            let coords: Vec<isize> = (0..rank)
                                .map(|d| (oc[d] + kc[d]) as isize - padding[d] as isize)
                                .collect();
                            acc += img.get_padded(b, ci, &coords) as f64
                                * ker.get(co, ci, &kc) as f64;
                        }
                    }
                    out.data[(b * ker.out_channels + co) * out_vol + o] = acc as f32;
                }
            }
        }
        out
    }

    fn test_img(batch: usize, c: usize, dims: &[usize]) -> SimpleImage {
        SimpleImage::from_fn(batch, c, dims, |b, c, xy| {
            let mut h = b.wrapping_mul(31).wrapping_add(c.wrapping_mul(7));
            for (i, &x) in xy.iter().enumerate() {
                h = h.wrapping_mul(131).wrapping_add(x * (i + 3));
            }
            ((h % 1000) as f32 / 500.0 - 1.0) * 0.1
        })
    }

    fn test_ker(cp: usize, c: usize, dims: &[usize]) -> SimpleKernels {
        SimpleKernels::from_fn(cp, c, dims, |co, ci, xy| {
            let mut h = co.wrapping_mul(17).wrapping_add(ci.wrapping_mul(3));
            for &x in xy {
                h = h.wrapping_mul(37).wrapping_add(x);
            }
            ((h % 100) as f32 / 50.0 - 1.0) * 0.2
        })
    }

    fn assert_close(got: &SimpleImage, want: &SimpleImage, tol: f32, ctx: &str) {
        assert_eq!(got.dims, want.dims, "{ctx}: dims");
        assert_eq!(got.data.len(), want.data.len());
        let mut max_err = 0.0f32;
        for i in 0..got.data.len() {
            let e = (got.data[i] - want.data[i]).abs() / want.data[i].abs().max(1.0);
            max_err = max_err.max(e);
        }
        assert!(max_err <= tol, "{ctx}: max rel err {max_err} > {tol}");
    }

    #[test]
    fn f2x2_matches_direct_2d() {
        let img = test_img(2, 32, &[10, 10]);
        let ker = test_ker(32, 32, &[3, 3]);
        let got = convolve_simple(&img, &ker, &[1, 1], &[2, 2]).unwrap();
        let want = direct_reference(&img, &ker, &[1, 1]);
        assert_close(&got, &want, 1e-4, "F(2,3) 2D");
    }

    #[test]
    fn f4x4_matches_direct_2d_no_padding() {
        let img = test_img(1, 16, &[14, 14]);
        let ker = test_ker(32, 16, &[3, 3]);
        let got = convolve_simple(&img, &ker, &[0, 0], &[4, 4]).unwrap();
        let want = direct_reference(&img, &ker, &[0, 0]);
        assert_close(&got, &want, 1e-4, "F(4,3) 2D valid");
    }

    #[test]
    fn f6x6_larger_tile() {
        let img = test_img(1, 16, &[13, 13]);
        let ker = test_ker(16, 16, &[3, 3]);
        let got = convolve_simple(&img, &ker, &[1, 1], &[6, 6]).unwrap();
        let want = direct_reference(&img, &ker, &[1, 1]);
        assert_close(&got, &want, 1e-3, "F(6,3) 2D");
    }

    #[test]
    fn three_d_convolution() {
        let img = test_img(1, 16, &[5, 8, 8]);
        let ker = test_ker(16, 16, &[3, 3, 3]);
        let got = convolve_simple(&img, &ker, &[1, 1, 1], &[2, 2, 2]).unwrap();
        let want = direct_reference(&img, &ker, &[1, 1, 1]);
        assert_close(&got, &want, 1e-4, "F(2³,3³) 3D");
    }

    #[test]
    fn one_d_convolution() {
        let img = test_img(2, 16, &[33]);
        let ker = test_ker(16, 16, &[3]);
        let got = convolve_simple(&img, &ker, &[1], &[4]).unwrap();
        let want = direct_reference(&img, &ker, &[1]);
        assert_close(&got, &want, 1e-4, "F(4,3) 1D");
    }

    #[test]
    fn arbitrary_kernel_sizes() {
        // The headline novelty: not just 3×3.
        for (kd, m) in [(vec![5, 5], vec![2, 2]), (vec![2, 2], vec![3, 3]), (vec![4, 4], vec![3, 3]), (vec![1, 3], vec![2, 4])] {
            let img = test_img(1, 16, &[12, 12]);
            let ker = test_ker(16, 16, &kd);
            let got = convolve_simple(&img, &ker, &[0, 0], &m).unwrap();
            let want = direct_reference(&img, &ker, &[0, 0]);
            assert_close(&got, &want, 1e-3, &format!("kernel {kd:?} m {m:?}"));
        }
    }

    #[test]
    fn asymmetric_tiles() {
        // F(6×8, 3×3)-style asymmetric tile from Table 3.
        let img = test_img(1, 16, &[12, 16]);
        let ker = test_ker(16, 16, &[3, 3]);
        let got = convolve_simple(&img, &ker, &[1, 1], &[2, 4]).unwrap();
        let want = direct_reference(&img, &ker, &[1, 1]);
        assert_close(&got, &want, 1e-4, "asymmetric m");
    }

    #[test]
    fn rectangular_images_with_overhang() {
        let img = test_img(1, 16, &[11, 17]);
        let ker = test_ker(16, 16, &[3, 3]);
        let got = convolve_simple(&img, &ker, &[1, 1], &[4, 4]).unwrap();
        let want = direct_reference(&img, &ker, &[1, 1]);
        assert_close(&got, &want, 1e-4, "overhang");
    }

    #[test]
    fn fx_mode_matches_training_mode() {
        let img = test_img(2, 32, &[10, 10]);
        let ker = test_ker(32, 32, &[3, 3]);
        let shape = ConvShape::new(2, 32, 32, &[10, 10], &[3, 3], &[1, 1]).unwrap();
        let layer = WinogradLayer::new(shape, &[4, 4], ConvOptions::default()).unwrap();
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = BlockedKernels::from_simple(&ker).unwrap();
        let mut scratch = Scratch::new(&layer, 1);

        let mut out_train = layer.new_output().unwrap();
        layer.forward(&input, &kernels, &mut out_train, &mut scratch, &SerialExecutor).unwrap();

        let tk = layer.prepare_kernels(&kernels, &mut scratch, &SerialExecutor).unwrap();
        let mut out_fx = layer.new_output().unwrap();
        layer.forward_fx(&input, &tk, &mut out_fx, &mut scratch, &SerialExecutor).unwrap();

        assert_eq!(out_train.as_slice(), out_fx.as_slice());
    }

    #[test]
    fn executors_agree() {
        let img = test_img(2, 32, &[9, 9]);
        let ker = test_ker(32, 32, &[3, 3]);
        let shape = ConvShape::new(2, 32, 32, &[9, 9], &[3, 3], &[1, 1]).unwrap();
        let layer = WinogradLayer::new(shape, &[2, 2], ConvOptions::default()).unwrap();
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = BlockedKernels::from_simple(&ker).unwrap();

        let run = |exec: &dyn Executor| {
            let mut scratch = Scratch::new(&layer, exec.threads());
            let mut out = layer.new_output().unwrap();
            layer.forward(&input, &kernels, &mut out, &mut scratch, exec).unwrap();
            out.to_simple()
        };
        let serial = run(&SerialExecutor);
        let stat = StaticExecutor::new(4);
        assert_eq!(run(&stat).data, serial.data);
        assert_eq!(run(&DynamicExecutor::new(4)).data, serial.data);
    }

    #[test]
    fn scratch_reuse_across_calls_is_clean() {
        // A second forward with different data must not see stale state.
        let shape = ConvShape::new(1, 16, 16, &[8, 8], &[3, 3], &[1, 1]).unwrap();
        let layer = WinogradLayer::new(shape, &[2, 2], ConvOptions::default()).unwrap();
        let mut scratch = Scratch::new(&layer, 1);
        let img1 = test_img(1, 16, &[8, 8]);
        let img2 = SimpleImage::from_fn(1, 16, &[8, 8], |_, c, xy| (c + xy[0]) as f32 * 0.03);
        let ker = test_ker(16, 16, &[3, 3]);
        let kernels = BlockedKernels::from_simple(&ker).unwrap();

        let mut out = layer.new_output().unwrap();
        layer.forward(
            &BlockedImage::from_simple(&img1).unwrap(),
            &kernels,
            &mut out,
            &mut scratch,
            &SerialExecutor,
        )
        .unwrap();
        layer.forward(
            &BlockedImage::from_simple(&img2).unwrap(),
            &kernels,
            &mut out,
            &mut scratch,
            &SerialExecutor,
        )
        .unwrap();
        let want = direct_reference(&img2, &ker, &[1, 1]);
        assert_close(&out.to_simple(), &want, 1e-4, "scratch reuse");
    }

    #[test]
    fn jit_backend_matches_mono_backend() {
        if !wino_simd::cpu_has_avx512f() {
            eprintln!("skipping: no AVX-512F");
            return;
        }
        use crate::plan::Stage2Backend;
        // Shapes chosen to cover: single k-block + tail panel, multiple
        // k-blocks, 3-D, and a column block three vectors wide (C' = 48).
        let cases: Vec<(Vec<usize>, Vec<usize>, usize, usize)> = vec![
            (vec![10, 10], vec![4, 4], 32, 32),   // tail panel likely
            (vec![10, 10], vec![2, 2], 64, 32),   // k_blocks > 1 possible
            (vec![6, 8, 8], vec![2, 2, 2], 16, 16),
            (vec![9, 9], vec![4, 4], 32, 48),     // three column groups per row
        ];
        for (dims, m, c, cp) in cases {
            let pad = vec![1usize; dims.len()];
            let kd = vec![3usize; dims.len()];
            let shape = ConvShape::new(1, c, cp, &dims, &kd, &pad).unwrap();
            let img = test_img(1, c, &dims);
            let ker = test_ker(cp, c, &kd);
            let input = BlockedImage::from_simple(&img).unwrap();
            let kernels = BlockedKernels::from_simple(&ker).unwrap();

            let run = |backend| {
                let opts = ConvOptions { stage2: backend, ..Default::default() };
                let layer = WinogradLayer::new(shape.clone(), &m, opts).unwrap();
                let mut scratch = Scratch::new(&layer, 1);
                let mut out = layer.new_output().unwrap();
                layer.forward(&input, &kernels, &mut out, &mut scratch, &SerialExecutor).unwrap();
                out.as_slice().to_vec()
            };
            let mono = run(Stage2Backend::Mono);
            let jit = run(Stage2Backend::Jit);
            // Both stage-2 engines run the same fused FMA chain per
            // element (the JIT exists only beside the AVX-512 arm), so
            // whole layers agree bit for bit.
            assert_eq!(mono, jit, "dims {dims:?} m {m:?} C={c} C'={cp}");
        }
    }

    #[test]
    fn jit_backend_parallel_and_fx() {
        if !wino_simd::cpu_has_avx512f() {
            return;
        }
        use crate::plan::Stage2Backend;
        let shape = ConvShape::new(2, 32, 32, &[11, 11], &[3, 3], &[1, 1]).unwrap();
        let img = test_img(2, 32, &[11, 11]);
        let ker = test_ker(32, 32, &[3, 3]);
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = BlockedKernels::from_simple(&ker).unwrap();
        let opts = ConvOptions { stage2: Stage2Backend::Jit, ..Default::default() };
        let layer = WinogradLayer::new(shape, &[4, 4], opts).unwrap();

        let pool = StaticExecutor::new(4);
        let mut s_par = Scratch::new(&layer, 4);
        let mut out_par = layer.new_output().unwrap();
        layer.forward(&input, &kernels, &mut out_par, &mut s_par, &pool).unwrap();

        let mut s_ser = Scratch::new(&layer, 1);
        let mut out_ser = layer.new_output().unwrap();
        layer.forward(&input, &kernels, &mut out_ser, &mut s_ser, &SerialExecutor).unwrap();
        assert_eq!(out_par.as_slice(), out_ser.as_slice());

        let tk = layer.prepare_kernels(&kernels, &mut s_ser, &SerialExecutor).unwrap();
        let mut out_fx = layer.new_output().unwrap();
        layer.forward_fx(&input, &tk, &mut out_fx, &mut s_ser, &SerialExecutor).unwrap();
        assert_eq!(out_fx.as_slice(), out_ser.as_slice());
    }

    /// A store flavour cannot change a value. Each layer is planned on a
    /// host whose cache holds nothing (every hand-off streams) and on one
    /// whose cache holds everything (none does), on each of the three
    /// schedules — staged, ring, dual — Mono and — under AVX-512 — JIT, and
    /// run on every executor: all outputs of one layer, training mode and
    /// FX, are the same bits. The layers cover rank 1–3, ragged edges in
    /// every dimension, a tile larger than the image, panels that straddle
    /// images, tail panels, a column block three vectors wide and a split
    /// reduction (which the ring turns down: that layer plans staged
    /// twice).
    #[test]
    fn both_store_flavours_compute_the_same_bits_on_every_schedule_engine_and_executor() {
        use crate::plan::{Host, Pin, Stage2Backend};
        use wino_gemm::BlockShape;
        // (batch, (C, C'), image, kernel width, padding, m, explicit blocking)
        type Case =
            (usize, (usize, usize), &'static [usize], usize, usize, &'static [usize], Option<BlockShape>);
        let blocked = |n_blk, c_blk, cp_blk| Some(BlockShape { n_blk, c_blk, cp_blk });
        let cases: [Case; 13] = [
            (2, (16, 16), &[37], 3, 1, &[4], None),
            (1, (32, 32), &[15, 18], 3, 0, &[4, 4], None),
            (1, (16, 32), &[22, 19], 3, 1, &[6, 2], None),
            (1, (16, 16), &[6, 9, 9], 3, 1, &[2, 4, 4], None),
            (1, (32, 16), &[7, 10, 8], 3, 0, &[2, 2, 2], None),
            (2, (16, 16), &[3, 3], 3, 1, &[4, 4], None),
            (1, (32, 48), &[12, 12], 3, 1, &[4, 4], None),
            // The benchmark's ragged F(6²): 158 = 26·6 + 2 outputs a side.
            (1, (16, 16), &[160, 160], 3, 0, &[6, 6], None),
            // 9 tiles per image in 6-row panels: the second panel holds the
            // end of image 0 and the start of image 1.
            (2, (32, 32), &[10, 10], 3, 1, &[4, 4], blocked(6, 32, 32)),
            // 25 rows in 6-row panels: a one-row tail; three column blocks.
            (1, (32, 48), &[10, 10], 3, 1, &[2, 2], blocked(6, 32, 16)),
            // Two reduction blocks: β = 0, then the β = 1 scatter.
            (2, (32, 32), &[9, 9], 3, 1, &[4, 4], blocked(6, 16, 16)),
            // Kernels other than 3 wide: F(3², 2²), F(2², 5²).
            (1, (16, 32), &[11, 12], 2, 0, &[3, 3], None),
            (1, (16, 16), &[13, 12], 5, 2, &[2, 2], None),
        ];
        let executors: [Box<dyn Executor>; 5] = [
            Box::new(SerialExecutor),
            Box::new(StaticExecutor::new(2)),
            Box::new(StaticExecutor::new(3)),
            Box::new(StaticExecutor::new(4)),
            Box::new(DynamicExecutor::new(4)),
        ];
        let mut engines = vec![Stage2Backend::Mono];
        if wino_simd::cpu_has_avx512f() {
            engines.push(Stage2Backend::Jit);
        }
        for (batch, (c, cp), dims, r, pad, m, block) in cases {
            let rank = dims.len();
            let kernel = vec![r; rank];
            let shape = ConvShape::new(batch, c, cp, dims, &kernel, &vec![pad; rank]).unwrap();
            let input = BlockedImage::from_simple(&test_img(batch, c, dims)).unwrap();
            let kernels = BlockedKernels::from_simple(&test_ker(cp, c, &kernel)).unwrap();
            let mut plans = Vec::new();
            for pin in [Pin::Ring, Pin::Dual, Pin::Staged] {
                for &stage2 in &engines {
                    for streams in [true, false] {
                        let opts = ConvOptions { stage2, block, ..Default::default() };
                        let host = Host::test(pin, streams);
                        let plan = WinogradLayer::new_on(shape.clone(), m, opts, host).unwrap();
                        let ring = pin == Pin::Ring && c == plan.block.c_blk;
                        let kind = (plan.is_fused(), plan.is_dual(), plan.streams);
                        assert_eq!(kind, (ring, pin == Pin::Dual, streams), "{dims:?}");
                        plans.push(plan);
                    }
                }
            }
            let mut want: Option<Vec<f32>> = None;
            for (plan, exec) in plans.iter().flat_map(|p| executors.iter().map(move |e| (p, e.as_ref()))) {
                let mut scratch = Scratch::new(plan, exec.threads());
                let memo = plan.prepare_kernels(&kernels, &mut scratch, exec).unwrap();
                let (mut train, mut fx) = (plan.new_output().unwrap(), plan.new_output().unwrap());
                plan.forward(&input, &kernels, &mut train, &mut scratch, exec).unwrap();
                plan.forward_fx(&input, &memo, &mut fx, &mut scratch, exec).unwrap();
                let want = want.get_or_insert_with(|| train.as_slice().to_vec());
                let what = format!(
                    "{dims:?} m {m:?}: {:?}, {:?}, streams {}, {} × {}",
                    plan.schedule,
                    plan.opts.stage2,
                    plan.streams,
                    exec.name(),
                    exec.threads()
                );
                assert!(train.as_slice() == &want[..], "{what}: forward");
                assert!(fx.as_slice() == &want[..], "{what}: forward_fx");
            }
        }
    }

    /// The staged schedule is one fork–join per stage: input transform,
    /// kernel transform, the batched products (operation ⑥ rides inside
    /// them), inverse transform — and FX mode skips the kernel transform.
    /// The ring is the kernel transform plus one fork–join for everything
    /// else. The dual ring is the input transform plus one fork–join for
    /// everything else, and runs FX mode staged. Each `run_grid` is one
    /// `fork-join` span and each stage one coordinator span, and
    /// collecting them changes no output bit.
    #[test]
    fn forward_is_four_fork_joins_and_forward_fx_three() {
        use crate::plan::{split_reduction, Host, Pin};
        use wino_probe::{SpanCategory, COORDINATOR};
        let shape = ConvShape::new(1, 32, 32, &[10, 10], &[3, 3], &[1, 1]).unwrap();
        let input = BlockedImage::from_simple(&test_img(1, 32, &[10, 10])).unwrap();
        let kernels = BlockedKernels::from_simple(&test_ker(32, 32, &[3, 3])).unwrap();
        for (opts, pin, fork_joins) in [
            (ConvOptions::default(), Pin::Ring, [2, 1]),
            (split_reduction(), Pin::Staged, [4, 3]),
            (split_reduction(), Pin::Dual, [2, 3]),
        ] {
            let host = Host::test(pin, false);
            let layer = WinogradLayer::new_on(shape.clone(), &[4, 4], opts, host).unwrap();
            assert_eq!((layer.is_fused(), layer.is_dual()), (pin == Pin::Ring, pin == Pin::Dual));
            let mut scratch = Scratch::new(&layer, 1);
            let tk = layer.prepare_kernels(&kernels, &mut scratch, &SerialExecutor).unwrap();
            let mut plain = layer.new_output().unwrap();
            layer.forward(&input, &kernels, &mut plain, &mut scratch, &SerialExecutor).unwrap();
            let mut out = layer.new_output().unwrap();
            let mut exec = wino_sched::ProbedExecutor::new(SerialExecutor);
            // (fork–joins, coordinator stage spans) since the last call.
            let count = |exec: &mut wino_sched::ProbedExecutor<SerialExecutor>| {
                let events = exec.take_events();
                (
                    events.iter().filter(|e| e.category == SpanCategory::ForkJoin).count(),
                    events.iter().filter(|e| e.thread == COORDINATOR && e.category.is_stage()).count(),
                )
            };
            layer.forward(&input, &kernels, &mut out, &mut scratch, &exec).unwrap();
            assert_eq!(count(&mut exec), (fork_joins[0], 4), "{pin:?}");
            assert!(out.as_slice() == plain.as_slice(), "probed forward");
            layer.forward_fx(&input, &tk, &mut out, &mut scratch, &exec).unwrap();
            assert_eq!(count(&mut exec), (fork_joins[1], 3), "{pin:?}");
            assert!(out.as_slice() == plain.as_slice(), "probed forward_fx");
        }
    }

    /// Whether a run is instrumented is whether its executor carries a
    /// collector: on a plain one the span helpers read no clock, and a
    /// staged, a ring and a dual pass leave the per-slot phase tallies
    /// untouched.
    #[test]
    fn a_plain_executor_records_nothing_and_reads_no_clock() {
        use crate::plan::{split_reduction, Host, Pin};
        assert_eq!(wino_sched::probed::span_start(None), 0);
        let shape = ConvShape::new(2, 32, 32, &[18, 18], &[3, 3], &[1, 1]).unwrap();
        let input = BlockedImage::from_simple(&test_img(2, 32, &[18, 18])).unwrap();
        let kernels = BlockedKernels::from_simple(&test_ker(32, 32, &[3, 3])).unwrap();
        let executors: [Box<dyn Executor>; 2] =
            [Box::new(SerialExecutor), Box::new(StaticExecutor::new(2))];
        let split = split_reduction();
        for (opts, pin) in [(ConvOptions::default(), Pin::Ring), (split, Pin::Staged), (split, Pin::Dual)] {
            let host = Host::test(pin, false);
            let layer = WinogradLayer::new_on(shape.clone(), &[4, 4], opts, host).unwrap();
            for exec in &executors {
                assert!(exec.probe().is_none());
                let mut scratch = Scratch::new(&layer, exec.threads());
                let tk = layer.prepare_kernels(&kernels, &mut scratch, exec.as_ref()).unwrap();
                let mut out = layer.new_output().unwrap();
                layer.forward(&input, &kernels, &mut out, &mut scratch, exec.as_ref()).unwrap();
                layer.forward_fx(&input, &tk, &mut out, &mut scratch, exec.as_ref()).unwrap();
                for slot in 0..scratch.thread_slots() {
                    // SAFETY: no fork–join is in flight and `scratch` is ours.
                    let tb = unsafe { scratch.thread_buf(slot) };
                    assert_eq!(tb.phase_ns, [0; 3], "{:?}, slot {slot}", layer.schedule);
                }
            }
        }
    }

    /// Under a probe a fused pass still reports the three stages: one
    /// coordinator span each, back to back, covering the fork–join.
    #[test]
    fn a_fused_pass_reports_three_stage_spans_that_cover_its_fork_join() {
        use wino_probe::{SpanCategory, COORDINATOR};
        let shape = ConvShape::new(2, 32, 32, &[18, 18], &[3, 3], &[1, 1]).unwrap();
        let input = BlockedImage::from_simple(&test_img(2, 32, &[18, 18])).unwrap();
        let kernels = BlockedKernels::from_simple(&test_ker(32, 32, &[3, 3])).unwrap();
        let layer = WinogradLayer::new(shape, &[4, 4], ConvOptions::default()).unwrap();
        assert!(layer.is_fused());
        for threads in [1, 2] {
            let mut exec = wino_sched::ProbedExecutor::new(StaticExecutor::new(threads));
            let mut scratch = Scratch::new(&layer, threads);
            let tk = layer.prepare_kernels(&kernels, &mut scratch, &exec).unwrap();
            exec.take_events();
            let mut out = layer.new_output().unwrap();
            layer.forward_fx(&input, &tk, &mut out, &mut scratch, &exec).unwrap();
            let events = exec.take_events();
            let fork_join: Vec<_> =
                events.iter().filter(|e| e.category == SpanCategory::ForkJoin).collect();
            assert_eq!(fork_join.len(), 1);
            let stages: Vec<_> = events
                .iter()
                .filter(|e| e.thread == COORDINATOR && e.category.is_stage())
                .collect();
            let categories: Vec<_> = stages.iter().map(|e| e.category).collect();
            assert_eq!(
                categories,
                [SpanCategory::InputTransform, SpanCategory::ElementwiseGemm, SpanCategory::OutputTransform]
            );
            assert!(stages.windows(2).all(|w| w[0].end_ns == w[1].start_ns), "back to back");
            assert!(stages.iter().all(|e| e.duration_ns() > 0), "every phase took time");
            let wall: u64 = stages.iter().map(|e| e.duration_ns()).sum();
            let fork_join = fork_join[0].duration_ns();
            assert!(
                wall >= fork_join && (wall - fork_join) * 20 <= fork_join,
                "{threads} threads: stage spans {wall} ns, fork–join {fork_join} ns"
            );
        }
    }

    /// Under a probe a dual pass reports the four stages: the input
    /// transform's own span over the first fork–join, then one coordinator
    /// span each for the kernel transform, the products and the inverse
    /// transform, back to back, covering the second — cut from the slots'
    /// phase tallies.
    #[test]
    fn a_dual_pass_reports_four_stage_spans_that_cover_its_fork_joins() {
        use crate::plan::{split_reduction, Host, Pin};
        use wino_probe::{SpanCategory, COORDINATOR};
        let shape = ConvShape::new(2, 32, 32, &[18, 18], &[3, 3], &[1, 1]).unwrap();
        let input = BlockedImage::from_simple(&test_img(2, 32, &[18, 18])).unwrap();
        let kernels = BlockedKernels::from_simple(&test_ker(32, 32, &[3, 3])).unwrap();
        let host = Host::test(Pin::Dual, false);
        let layer = WinogradLayer::new_on(shape, &[4, 4], split_reduction(), host).unwrap();
        assert!(layer.is_dual());
        for threads in [1, 2] {
            let mut exec = wino_sched::ProbedExecutor::new(StaticExecutor::new(threads));
            let mut scratch = Scratch::new(&layer, threads);
            let mut out = layer.new_output().unwrap();
            layer.forward(&input, &kernels, &mut out, &mut scratch, &exec).unwrap();
            let events = exec.take_events();
            let fork_joins: Vec<_> =
                events.iter().filter(|e| e.category == SpanCategory::ForkJoin).collect();
            assert_eq!(fork_joins.len(), 2);
            let stages: Vec<_> = events
                .iter()
                .filter(|e| e.thread == COORDINATOR && e.category.is_stage())
                .collect();
            let categories: Vec<_> = stages.iter().map(|e| e.category).collect();
            assert_eq!(
                categories,
                [
                    SpanCategory::InputTransform,
                    SpanCategory::KernelTransform,
                    SpanCategory::ElementwiseGemm,
                    SpanCategory::OutputTransform
                ]
            );
            assert!(stages[1..].windows(2).all(|w| w[0].end_ns == w[1].start_ns), "back to back");
            assert!(stages.iter().all(|e| e.duration_ns() > 0), "every phase took time");
            let wall: u64 = stages[1..].iter().map(|e| e.duration_ns()).sum();
            let fork_join = fork_joins[1].duration_ns();
            assert!(
                wall >= fork_join && (wall - fork_join) * 20 <= fork_join,
                "{threads} threads: stage spans {wall} ns, fork–join {fork_join} ns"
            );
        }
    }
}
