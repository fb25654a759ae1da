//! The ring-fused driver and the dual ring compute exactly what the three
//! stages compute.
//!
//! All three schedules run the same tiles through the same codelets and
//! the same FMA chain per element, so `forward` / `forward_fx` on a ring or
//! dual plan must equal, bit for bit, the reference assembled here from
//! the *public* stage calls on the same plan. Every case asserts
//! `is_fused()` or `is_dual()`, and a counting executor reports how many
//! fork–joins the call under test made (fewer when a ring ran than when
//! it fell back to the stages), so the battery cannot silently compare the
//! staged path with itself.

use std::sync::atomic::{AtomicUsize, Ordering};

use winograd_nd_repro::conv::{
    stage1, stage2, stage3, ConvOptions, Scratch, Stage2Backend, WinogradLayer,
};
use winograd_nd_repro::gemm::BlockShape;
use winograd_nd_repro::sched::{Executor, PoolError, SerialExecutor, StaticExecutor};
use winograd_nd_repro::tensor::{BlockedImage, BlockedKernels, ConvShape, SimpleImage, SimpleKernels};

/// Counts the fork–joins issued through it.
struct Counting<'e> {
    inner: &'e dyn Executor,
    grids: AtomicUsize,
}

impl Executor for Counting<'_> {
    fn run_grid(
        &self,
        dims: &[usize],
        task: &(dyn Fn(usize, usize) + Sync),
    ) -> Result<(), PoolError> {
        self.grids.fetch_add(1, Ordering::Relaxed);
        self.inner.run_grid(dims, task)
    }

    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

struct Case {
    name: &'static str,
    batch: usize,
    c: usize,
    cp: usize,
    dims: &'static [usize],
    kernel: usize,
    pad: usize,
    m: &'static [usize],
    /// Explicit blocking (panel height = ring height), or the planner's.
    block: Option<BlockShape>,
}

const fn case(
    name: &'static str,
    batch: usize,
    (c, cp): (usize, usize),
    dims: &'static [usize],
    pad: usize,
    m: &'static [usize],
) -> Case {
    Case { name, batch, c, cp, dims, kernel: 3, pad, m, block: None }
}

fn cases() -> Vec<Case> {
    vec![
        case("rank 1, pad 1, ragged", 2, (16, 16), &[37], 1, &[4]),
        case("rank 2, pad 0, ragged both ways", 1, (32, 32), &[15, 18], 0, &[4, 4]),
        case("rank 2, asymmetric m", 1, (16, 32), &[22, 19], 1, &[6, 2]),
        case("rank 3, pad 1", 1, (16, 16), &[6, 9, 9], 1, &[2, 4, 4]),
        case("rank 3, pad 0", 1, (32, 16), &[7, 10, 8], 0, &[2, 2, 2]),
        case("m larger than the extent", 2, (16, 16), &[3, 3], 1, &[4, 4]),
        case("the benchmark's ragged 160² F(6²)", 1, (16, 16), &[160, 160], 0, &[6, 6]),
        // 9 tiles per image in 6-row panels: the second panel holds the
        // last three tiles of image 0 and the first three of image 1.
        Case {
            block: Some(BlockShape { n_blk: 6, c_blk: 32, cp_blk: 32 }),
            ..case("a panel that straddles two images", 2, (32, 32), &[10, 10], 1, &[4, 4])
        },
        // 25 rows in 6-row panels: four full ones and a one-row tail;
        // C' = 48 in three 16-wide column blocks.
        Case {
            block: Some(BlockShape { n_blk: 6, c_blk: 32, cp_blk: 16 }),
            ..case("a tail panel, three column blocks", 1, (32, 48), &[10, 10], 1, &[2, 2])
        },
        // Kernels other than 3 wide.
        Case { kernel: 2, ..case("F(3², 2²)", 1, (16, 32), &[11, 12], 0, &[3, 3]) },
        Case { kernel: 4, ..case("F(3², 4²)", 1, (16, 16), &[14, 14], 1, &[3, 3]) },
        Case { kernel: 5, ..case("F(2², 5²)", 1, (16, 16), &[13, 12], 2, &[2, 2]) },
    ]
}

fn data(shape: &ConvShape) -> (BlockedImage, BlockedKernels) {
    let img = SimpleImage::from_fn(shape.batch, shape.in_channels, &shape.image_dims, |b, c, xy| {
        let h = xy.iter().fold(b * 97 + c * 13, |h, &x| h * 31 + x);
        ((h % 199) as f32 / 100.0 - 1.0) * 0.1
    });
    let ker = SimpleKernels::from_fn(shape.out_channels, shape.in_channels, &shape.kernel_dims, |co, ci, xy| {
        let h = xy.iter().fold(co * 41 + ci * 7, |h, &x| h * 17 + x);
        ((h % 101) as f32 / 50.0 - 1.0) * 0.15
    });
    (BlockedImage::from_simple(&img).unwrap(), BlockedKernels::from_simple(&ker).unwrap())
}

/// The staged result: the three public stage calls on `plan`.
fn staged(plan: &WinogradLayer, input: &BlockedImage, kernels: &BlockedKernels) -> Vec<f32> {
    let mut scratch = Scratch::new(plan, 1);
    let mut out = plan.new_output().unwrap();
    out.as_mut_slice().fill(f32::NAN);
    stage1::transform_inputs(plan, input, &mut scratch, &SerialExecutor).unwrap();
    stage1::transform_kernels(plan, kernels, &mut scratch, &SerialExecutor).unwrap();
    stage2::multiply(plan, &mut scratch, &SerialExecutor).unwrap();
    stage3::inverse_transform(plan, &mut scratch, &mut out, &SerialExecutor).unwrap();
    assert!(out.as_slice().iter().all(|v| v.is_finite()), "the stages write every output");
    out.as_slice().to_vec()
}

/// `forward` and `forward_fx` of `plan` on `exec`, each with the number of
/// fork–joins it made.
fn forwards(
    plan: &WinogradLayer,
    input: &BlockedImage,
    kernels: &BlockedKernels,
    exec: &dyn Executor,
) -> [(Vec<f32>, usize); 2] {
    let exec = Counting { inner: exec, grids: AtomicUsize::new(0) };
    let mut scratch = Scratch::new(plan, exec.threads());
    let memo = plan.prepare_kernels(kernels, &mut scratch, &exec).unwrap();
    let mut run = |fx: bool| {
        let mut out = plan.new_output().unwrap();
        out.as_mut_slice().fill(f32::NAN);
        exec.grids.store(0, Ordering::Relaxed);
        if fx {
            plan.forward_fx(input, &memo, &mut out, &mut scratch, &exec).unwrap();
        } else {
            plan.forward(input, kernels, &mut out, &mut scratch, &exec).unwrap();
        }
        (out.as_slice().to_vec(), exec.grids.load(Ordering::Relaxed))
    };
    [run(false), run(true)]
}

/// Which fork–join counts (`forward`, `forward_fx`) mean the ring driver
/// ran, which the dual ring (FX mode is staged on a dual plan) and which
/// the three stages.
const FUSED: [usize; 2] = [2, 1];
const DUAL: [usize; 2] = [2, 3];
const STAGED: [usize; 2] = [4, 3];

#[test]
fn fused_forward_equals_the_three_stages_bit_for_bit() {
    let executors: [Box<dyn Executor>; 4] = [
        Box::new(SerialExecutor),
        Box::new(StaticExecutor::new(2)),
        Box::new(StaticExecutor::new(3)),
        Box::new(StaticExecutor::new(4)),
    ];
    let mut backends = vec![Stage2Backend::Mono];
    if winograd_nd_repro::simd::cpu_has_avx512f() {
        backends.push(Stage2Backend::Jit);
    } else {
        eprintln!("skipping the JIT half: no AVX-512F");
    }
    // Runs that took the ring driver, per executor, and runs that fell back.
    let (mut ring_runs, mut fallback_runs) = ([0usize; 4], 0usize);
    for case in cases() {
        let rank = case.dims.len();
        let shape = ConvShape::new(
            case.batch,
            case.c,
            case.cp,
            case.dims,
            &vec![case.kernel; rank],
            &vec![case.pad; rank],
        )
        .unwrap();
        let (input, kernels) = data(&shape);
        for &stage2 in &backends {
            let opts = ConvOptions { stage2, block: case.block, ..Default::default() };
            let what = format!("{} ({stage2:?})", case.name);
            let plan = WinogradLayer::new(shape.clone(), case.m, opts).unwrap();
            assert!(plan.is_fused(), "{what}: a fused plan is what this test is about");
            let want = staged(&plan, &input, &kernels);
            for (e, exec) in executors.iter().enumerate() {
                let what = format!("{what} on {} × {}", exec.name(), exec.threads());
                let [train, fx] = forwards(&plan, &input, &kernels, exec.as_ref());
                assert!(train.0 == want, "{what}: forward differs from the three stages");
                assert!(fx.0 == want, "{what}: forward_fx differs from the three stages");
                let grids = [train.1, fx.1];
                match grids {
                    FUSED => ring_runs[e] += 1,
                    STAGED => fallback_runs += 1,
                    other => panic!("{what}: {other:?} fork–joins"),
                }
                if exec.threads() == 1 {
                    assert_eq!(grids, FUSED, "{what}: one thread always has a panel");
                }
            }
        }
    }
    // Every executor drove the ring on several plans (the serial one on
    // all of them), and some plan had fewer panels than threads.
    assert!(ring_runs.iter().all(|&runs| runs >= 2 * backends.len()), "{ring_runs:?}");
    assert!(fallback_runs > 0, "no case had fewer panels than threads");
}

/// The two sides of the thread-count rule on one plan: 25 rows in 6-row
/// panels are five panels, enough for three threads and not for six.
#[test]
fn more_threads_than_panels_runs_the_three_stages() {
    let shape = ConvShape::new(1, 32, 32, &[10, 10], &[3, 3], &[1, 1]).unwrap();
    let block = Some(BlockShape { n_blk: 6, c_blk: 32, cp_blk: 32 });
    let plan = WinogradLayer::new(shape.clone(), &[2, 2], ConvOptions { block, ..Default::default() })
        .unwrap();
    assert!(plan.is_fused());
    let (input, kernels) = data(&shape);
    let want = staged(&plan, &input, &kernels);
    for (threads, grids) in [(3, FUSED), (5, FUSED), (6, STAGED)] {
        let [train, fx] = forwards(&plan, &input, &kernels, &StaticExecutor::new(threads));
        assert_eq!([train.1, fx.1], grids, "{threads} threads");
        assert!(train.0 == want && fx.0 == want, "{threads} threads");
    }
}

/// A staged plan is untouched by all this: four and three fork–joins, and
/// (trivially) the stages' result.
#[test]
fn a_staged_plan_runs_the_three_stages() {
    let shape = ConvShape::new(1, 32, 32, &[16, 16], &[3, 3], &[1, 1]).unwrap();
    // Two reduction blocks: partial sums have no place in a ring. 64 rows
    // in 32-wide column groups: re-reading `Û` per group would move as many
    // bytes as `V̂`'s round trip, so the dual ring turns it down too.
    let block = Some(BlockShape { n_blk: 6, c_blk: 16, cp_blk: 32 });
    let plan = WinogradLayer::new(shape.clone(), &[2, 2], ConvOptions { block, ..Default::default() })
        .unwrap();
    assert!(!plan.is_fused() && !plan.is_dual());
    let (input, kernels) = data(&shape);
    let want = staged(&plan, &input, &kernels);
    let [train, fx] = forwards(&plan, &input, &kernels, &SerialExecutor);
    assert_eq!([train.1, fx.1], STAGED);
    assert!(train.0 == want && fx.0 == want);
}

/// The dual battery: blockings that make the ring turn a layer down and
/// the dual ring take it on any L2 of 1 MiB or more, plus the benchmark's
/// `train3d_jit` layer at the planner's own blockings — Eq. 11's for the
/// three stages, the dual ring's width rule for the dual ring.
fn dual_cases() -> Vec<Case> {
    let blocked =
        |(n_blk, c_blk, cp_blk), case: Case| Case { block: Some(BlockShape { n_blk, c_blk, cp_blk }), ..case };
    vec![
        // Two reduction blocks, two column groups: three and four threads
        // fall back to the stages.
        blocked((6, 16, 16), case("rank 2, k_blocks 2", 1, (32, 32), &[10, 10], 1, &[2, 2])),
        // Three 32-wide column groups — not a multiple of two threads.
        blocked((6, 16, 32), case("rank 3, three groups", 1, (32, 96), &[4, 6, 6], 1, &[2, 2, 2])),
        // One reduction block: the ring turns the layer down because its
        // 4 MiB of `V̂` does not fit the L2; 32 column groups.
        blocked((6, 32, 16), case("k_blocks 1, V̂ past the L2", 1, (32, 512), &[12, 12], 1, &[6, 6])),
        // 50 rows (more than MAX_N_BLK) in 24-row blocks: a 2-row tail.
        blocked((24, 16, 32), case("rows past MAX_N_BLK", 2, (32, 64), &[10, 10], 1, &[2, 2])),
        case("train3d_jit's layer", 1, (128, 128), &[4, 14, 14], 1, &[4, 4, 4]),
        // A deep 2-D layer's few rows against 4.7 MiB of `V̂`: the shape of
        // the data gradient of a 256 → 128 layer at 16².
        case("16 rows, 128 -> 256", 1, (128, 256), &[16, 16], 1, &[4, 4]),
    ]
}

/// Dual plans at the default width, two vectors: 16 input channels — one
/// reduction block, so only the β = 0 block kernel — against 4 MiB of
/// `V̂`; and 31 rows, which no panel height divides, so the accumulator's
/// last row block has padding rows that are computed and never read.
fn default_width_cases() -> Vec<Case> {
    vec![
        case("k_blocks 1 at the default width", 1, (16, 1024), &[24, 24], 1, &[6, 6]),
        case("31 rows at the default width", 1, (256, 512), &[124], 1, &[4]),
    ]
}

/// Run every case's dual plan on every executor and engine against the
/// three stages; the runs per executor that took the dual ring, and the
/// runs that fell back to the stages.
fn dual_runs(cases: Vec<Case>) -> ([usize; 4], usize) {
    let executors: [Box<dyn Executor>; 4] = [
        Box::new(SerialExecutor),
        Box::new(StaticExecutor::new(2)),
        Box::new(StaticExecutor::new(3)),
        Box::new(StaticExecutor::new(4)),
    ];
    let mut backends = vec![Stage2Backend::Mono];
    if winograd_nd_repro::simd::cpu_has_avx512f() {
        backends.push(Stage2Backend::Jit);
    } else {
        eprintln!("skipping the JIT half: no AVX-512F");
    }
    // The benchmark's host has a 2 MiB L2; the 1 MiB assumed when none is
    // detected is too small for train3d_jit's ring.
    let l2_holds_train3d = winograd_nd_repro::sched::l2_bytes_per_thread() >= 2 << 20;
    let (mut dual_runs, mut fallback_runs) = ([0usize; 4], 0usize);
    for case in cases {
        let rank = case.dims.len();
        let shape = ConvShape::new(
            case.batch,
            case.c,
            case.cp,
            case.dims,
            &vec![case.kernel; rank],
            &vec![case.pad; rank],
        )
        .unwrap();
        let (input, kernels) = data(&shape);
        for &stage2 in &backends {
            let opts = ConvOptions { stage2, block: case.block, ..Default::default() };
            let what = format!("{} ({stage2:?})", case.name);
            let plan = WinogradLayer::new(shape.clone(), case.m, opts).unwrap();
            if case.block.is_none() && !l2_holds_train3d {
                eprintln!("{what}: skipped, the detected L2 is under 2 MiB");
                continue;
            }
            assert!(plan.is_dual() && !plan.is_fused(), "{what}: a dual plan is what this test is about");
            if case.block.is_none() {
                // The dual ring multiplies at its own width, two vectors:
                // every default case's `C'` is a multiple of 32 and its
                // working set fits a 2 MiB L2 that wide. The plan's own
                // blocking — the three stages', `want`'s — stays Eq. 11's.
                assert_eq!(plan.dual_blocking(), Some((16, 32)), "{what}");
                let eq11 = winograd_nd_repro::gemm::default_shape(case.c, case.cp, plan.rows());
                assert!(plan.block == eq11 && (eq11.c_blk > 16 || case.c == 16), "{what}: {:?}", plan.block);
            }
            let want = staged(&plan, &input, &kernels);
            for (e, exec) in executors.iter().enumerate() {
                let what = format!("{what} on {} × {}", exec.name(), exec.threads());
                let [train, fx] = forwards(&plan, &input, &kernels, exec.as_ref());
                assert!(train.0 == want, "{what}: forward differs from the three stages");
                assert!(fx.0 == want, "{what}: forward_fx differs from the three stages");
                match [train.1, fx.1] {
                    DUAL => dual_runs[e] += 1,
                    STAGED => fallback_runs += 1,
                    other => panic!("{what}: {other:?} fork–joins"),
                }
            }
        }
    }
    (dual_runs, fallback_runs)
}

#[test]
fn dual_forward_equals_the_three_stages_bit_for_bit() {
    let engines = 1 + usize::from(winograd_nd_repro::simd::cpu_has_avx512f());
    let (dual_runs, fallback_runs) = dual_runs(dual_cases());
    // Every executor drove the dual ring (the serial one on every plan),
    // and some plan had fewer column groups than threads.
    assert!(dual_runs[0] >= 4 * engines, "{dual_runs:?}");
    assert!(dual_runs.iter().all(|&runs| runs >= engines), "{dual_runs:?}");
    assert!(fallback_runs > 0, "no case had fewer column groups than threads");
}

#[test]
fn dual_forward_at_the_default_width_equals_the_three_stages_bit_for_bit() {
    let engines = 1 + usize::from(winograd_nd_repro::simd::cpu_has_avx512f());
    let (dual_runs, fallback_runs) = dual_runs(default_width_cases());
    // Each plan has 16 column groups or more: every executor drove the
    // dual ring on every plan the host did not skip — with a 2 MiB L2, on
    // both.
    assert_eq!((dual_runs, fallback_runs), ([dual_runs[0]; 4], 0));
    if winograd_nd_repro::sched::l2_bytes_per_thread() >= 2 << 20 {
        assert_eq!(dual_runs[0], 2 * engines);
    }
}

/// The two sides of the thread-count rule on one dual plan: three column
/// groups are enough for three threads and not for four.
#[test]
fn fewer_column_groups_than_threads_runs_the_three_stages() {
    let shape = ConvShape::new(1, 32, 48, &[10, 10], &[3, 3], &[1, 1]).unwrap();
    let block = Some(BlockShape { n_blk: 6, c_blk: 16, cp_blk: 16 });
    let plan = WinogradLayer::new(shape.clone(), &[2, 2], ConvOptions { block, ..Default::default() })
        .unwrap();
    assert!(plan.is_dual());
    let (input, kernels) = data(&shape);
    let want = staged(&plan, &input, &kernels);
    for (threads, grids) in [(1, DUAL), (3, DUAL), (4, STAGED)] {
        let [train, fx] = forwards(&plan, &input, &kernels, &StaticExecutor::new(threads));
        assert_eq!([train.1, fx.1], grids, "{threads} threads");
        assert!(train.0 == want && fx.0 == want, "{threads} threads");
    }
}
