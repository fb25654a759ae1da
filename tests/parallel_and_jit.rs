//! Integration of the parallel substrate and the JIT with the full
//! pipeline: every executor and every stage-2 engine must produce
//! bit-identical outputs, and JIT-generated GEMM kernels must agree with
//! the monomorphised engine on convolution-shaped problems.

use winograd_nd_repro::conv::{ConvOptions, Scratch, WinogradLayer};
use winograd_nd_repro::gemm;
use winograd_nd_repro::jit::{jit_batched_gemm, JitKernelPair};
use winograd_nd_repro::sched::{Executor, SerialExecutor, StaticExecutor};
use winograd_nd_repro::tensor::{BlockedImage, BlockedKernels, BlockedMatrices, ConvShape, SimpleImage, SimpleKernels};

fn setup(shape: &ConvShape) -> (BlockedImage, BlockedKernels) {
    let img = SimpleImage::from_fn(shape.batch, shape.in_channels, &shape.image_dims, |b, c, xy| {
        ((b * 7 + c * 3 + xy.iter().sum::<usize>()) % 23) as f32 * 0.04 - 0.4
    });
    let ker = SimpleKernels::from_fn(
        shape.out_channels,
        shape.in_channels,
        &shape.kernel_dims,
        |co, ci, xy| ((co + ci * 5 + xy.iter().sum::<usize>() * 2) % 19) as f32 * 0.06 - 0.5,
    );
    (BlockedImage::from_simple(&img).unwrap(), BlockedKernels::from_simple(&ker).unwrap())
}

#[test]
fn all_executors_and_thread_counts_agree() {
    let shape = ConvShape::new(2, 32, 32, &[13, 13], &[3, 3], &[1, 1]).unwrap();
    let plan = WinogradLayer::new(shape.clone(), &[4, 4], ConvOptions::default()).unwrap();
    let (input, kernels) = setup(&shape);

    let run = |exec: &dyn Executor| {
        let mut scratch = Scratch::new(&plan, exec.threads());
        let mut out = plan.new_output().unwrap();
        plan.forward(&input, &kernels, &mut out, &mut scratch, exec).unwrap();
        out.as_slice().to_vec()
    };
    let reference = run(&SerialExecutor);
    for threads in [2, 3, 5, 8] {
        let exec = StaticExecutor::new(threads);
        assert_eq!(run(&exec), reference, "static executor with {threads} threads");
    }
}

/// The one plan option left that must not change a bit: the stage-2
/// engine. (Which stores bypass the cache is no option — the plan decides;
/// `wino-conv`'s in-crate battery runs both flavours.)
#[test]
fn ablation_toggles_preserve_results_in_parallel() {
    use winograd_nd_repro::conv::Stage2Backend;
    let shape = ConvShape::new(1, 32, 48, &[12, 12], &[3, 3], &[1, 1]).unwrap();
    let (input, kernels) = setup(&shape);
    let mut engines = vec![Stage2Backend::Mono];
    if winograd_nd_repro::simd::cpu_has_avx512f() {
        engines.push(Stage2Backend::Jit);
    }
    let run = |stage2, exec: &dyn Executor| {
        let opts = ConvOptions { stage2, ..Default::default() };
        let plan = WinogradLayer::new(shape.clone(), &[4, 4], opts).unwrap();
        let mut scratch = Scratch::new(&plan, exec.threads());
        let mut out = plan.new_output().unwrap();
        plan.forward(&input, &kernels, &mut out, &mut scratch, exec).unwrap();
        out.as_slice().to_vec()
    };
    let reference = run(Stage2Backend::Mono, &SerialExecutor);
    for stage2 in engines {
        assert_eq!(run(stage2, &StaticExecutor::new(4)), reference, "{stage2:?}");
    }
}

#[test]
fn explicit_blockings_all_compute_the_same_conv() {
    // Sweep legal (n_blk, C_blk, C'_blk) for one layer; the result must
    // never depend on the blocking.
    let shape = ConvShape::new(1, 64, 64, &[10, 10], &[3, 3], &[1, 1]).unwrap();
    let (input, kernels) = setup(&shape);
    let mut reference: Option<Vec<f32>> = None;
    for n_blk in [1, 5, 8, 17, 30] {
        for (cb, cpb) in [(16, 16), (32, 64), (64, 32), (64, 64)] {
            let opts = ConvOptions {
                block: Some(gemm::BlockShape { n_blk, c_blk: cb, cp_blk: cpb }),
                ..Default::default()
            };
            let plan = WinogradLayer::new(shape.clone(), &[4, 4], opts).unwrap();
            let mut scratch = Scratch::new(&plan, 1);
            let mut out = plan.new_output().unwrap();
            plan.forward(&input, &kernels, &mut out, &mut scratch, &SerialExecutor).unwrap();
            match &reference {
                None => reference = Some(out.as_slice().to_vec()),
                Some(r) => assert_eq!(
                    out.as_slice(),
                    &r[..],
                    "blocking n_blk={n_blk} cb={cb} cpb={cpb} changed the result"
                ),
            }
        }
    }
}

#[test]
fn jit_gemm_agrees_with_mono_gemm_on_conv_shaped_problems() {
    if !winograd_nd_repro::simd::cpu_has_avx512f() {
        eprintln!("skipping: no AVX-512F");
        return;
    }
    // The stage-2 problems of a few real plans.
    for (t, rows, c, cp, nb, cb, cpb) in
        [(36usize, 98usize, 64usize, 64usize, 8usize, 64usize, 64usize), (16, 50, 32, 48, 5, 32, 16), (216, 24, 16, 16, 6, 16, 16)]
    {
        let mut u = BlockedMatrices::new(t, rows, c, nb, cb);
        let mut v = BlockedMatrices::new(t, c, cp, cb, cpb);
        for (i, f) in u.as_mut_slice().iter_mut().enumerate() {
            *f = ((i * 29) % 31) as f32 * 0.05 - 0.7;
        }
        for (i, f) in v.as_mut_slice().iter_mut().enumerate() {
            *f = ((i * 37) % 41) as f32 * 0.04 - 0.8;
        }
        let mut x_jit = BlockedMatrices::new(t, rows, cp, nb, cpb);
        let mut x_mono = BlockedMatrices::new(t, rows, cp, nb, cpb);
        let pair = JitKernelPair::compile(nb, cb, cpb).unwrap();
        jit_batched_gemm(&u, &v, &mut x_jit, &pair);
        gemm::batched_gemm(&u, &v, &mut x_mono, );
        // Same register tiles, same FMA chain per element: bit-identical.
        assert_eq!(x_jit.as_slice(), x_mono.as_slice(), "t={t} rows={rows}");
    }
}

/// A JIT request follows the backend the vector kernels were dispatched
/// to: compiled when that is AVX-512, otherwise planned down to Mono with
/// the typed reason — and then indistinguishable from a Mono plan. Under
/// `WINO_SIMD=scalar|avx2` this is the Jit → Mono planned fallback
/// running on an AVX-512 host.
#[test]
fn jit_request_follows_the_dispatched_backend() {
    use winograd_nd_repro::conv::{plan_with_fallback, FallbackPolicy, PlanError, Stage2Backend};
    let shape = ConvShape::new(1, 32, 32, &[10, 10], &[3, 3], &[1, 1]).unwrap();
    let jit_opts = ConvOptions { stage2: Stage2Backend::Jit, ..Default::default() };
    let (plan, planned_fallback) =
        plan_with_fallback(&shape, &[4, 4], jit_opts, &FallbackPolicy::default()).unwrap();

    if winograd_nd_repro::simd::cpu_has_avx512f() {
        assert_eq!(winograd_nd_repro::simd::backend_name(), "avx512");
        assert_eq!(plan.opts.stage2, Stage2Backend::Jit);
        assert!(planned_fallback.is_none());
        return;
    }
    assert_ne!(winograd_nd_repro::simd::backend_name(), "avx512");
    assert_eq!(plan.opts.stage2, Stage2Backend::Mono);
    assert!(matches!(planned_fallback, Some(PlanError::Jit { .. })), "{planned_fallback:?}");
    assert!(matches!(
        plan_with_fallback(&shape, &[4, 4], jit_opts, &FallbackPolicy::strict()),
        Err(PlanError::Jit { .. })
    ));

    let (input, kernels) = setup(&shape);
    let run = |plan: &WinogradLayer| {
        let mut scratch = Scratch::new(plan, 1);
        let mut out = plan.new_output().unwrap();
        plan.forward(&input, &kernels, &mut out, &mut scratch, &SerialExecutor).unwrap();
        out.as_slice().to_vec()
    };
    let mono = WinogradLayer::new(shape.clone(), &[4, 4], ConvOptions::default()).unwrap();
    assert_eq!(run(&plan), run(&mono));
}

#[test]
fn scratch_is_shareable_across_same_shaped_layers() {
    // The paper's aux buffer is reused across layers; two different
    // kernel banks through one scratch must give independent results.
    let shape = ConvShape::new(1, 16, 16, &[9, 9], &[3, 3], &[1, 1]).unwrap();
    let plan = WinogradLayer::new(shape.clone(), &[2, 2], ConvOptions::default()).unwrap();
    let (input, k1) = setup(&shape);
    let ker2 = SimpleKernels::from_fn(16, 16, &[3, 3], |co, ci, xy| {
        ((co * 11 + ci + xy[0] * 2 + xy[1]) % 7) as f32 * 0.2 - 0.6
    });
    let k2 = BlockedKernels::from_simple(&ker2).unwrap();

    let mut scratch = Scratch::new(&plan, 1);
    let mut o_shared_1 = plan.new_output().unwrap();
    let mut o_shared_2 = plan.new_output().unwrap();
    plan.forward(&input, &k1, &mut o_shared_1, &mut scratch, &SerialExecutor).unwrap();
    plan.forward(&input, &k2, &mut o_shared_2, &mut scratch, &SerialExecutor).unwrap();

    let mut fresh = Scratch::new(&plan, 1);
    let mut o_fresh_2 = plan.new_output().unwrap();
    plan.forward(&input, &k2, &mut o_fresh_2, &mut fresh, &SerialExecutor).unwrap();
    assert_eq!(o_shared_2.as_slice(), o_fresh_2.as_slice());
    assert_ne!(o_shared_1.as_slice(), o_shared_2.as_slice());
}
