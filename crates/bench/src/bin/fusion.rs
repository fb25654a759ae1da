//! The measurement behind the two rings (EXPERIMENTS.md, "§4.3 extension —
//! ring-fused forward" and "— the dual ring"): for each layer of that
//! table, plan it, alternate the three staged calls and `forward_fx`, and
//! the four staged calls and `forward` with raw kernels, in one process —
//! so host-state drift hits both sides alike — check each pair of outputs
//! is equal bit for bit, and print the medians.
//!
//! ```text
//! cargo run -p wino-bench --release --bin fusion -- [--reps N] [--threads N] [--n-blk N] [--json]
//! ```
//!
//! Which schedule a plan runs is the plan's decision (`schedule`: `ring`
//! — `WinogradLayer::is_fused`, from the sizes of `V̂` and a ring against
//! the detected L2 —, `dual` — `WinogradLayer::is_dual`, training mode
//! only — or `staged`), never this binary's: where a pass runs the three
//! stages both of its columns time them and its ratio reads 1 within
//! noise — a dual plan's `ratio` among them, its FX mode being staged.
//! `--n-blk N` asks for `N`-row panels through `ConvOptions::block`
//! (the panel-height sweep); a height whose ring does not fit stages the
//! plan. `--threads` (default 2) applies to the rows the table runs on the
//! pool; the serve layers run on one thread, as the server runs them.

use std::time::Instant;

use wino_bench::{Args, Rows};
use wino_conv::{stage1, stage2, stage3, ConvOptions, Scratch, Stage2Backend, WinogradLayer};
use wino_gemm::BlockShape;
use wino_sched::{Executor, SerialExecutor, StaticExecutor};
use wino_tensor::{BlockedImage, BlockedKernels, ConvShape};
use wino_workloads::{uniform_input, xavier_kernels};

/// One row of the table: a 3-wide-kernel layer at its benchmark tile.
struct Row {
    name: &'static str,
    batch: usize,
    c: usize,
    cp: usize,
    dims: &'static [usize],
    pad: usize,
    m: usize,
    jit: bool,
    /// On the pool (`--threads`), or on one thread.
    pooled: bool,
}

const fn row(
    name: &'static str,
    batch: usize,
    (c, cp): (usize, usize),
    dims: &'static [usize],
    pad: usize,
    m: usize,
) -> Row {
    Row { name, batch, c, cp, dims, pad, m, jit: true, pooled: true }
}

/// The benchmark's layers (`benchmark/src/workloads.rs`) and the two
/// catalogue-class ones the issue measured beside them, smallest `V̂` first.
const ROWS: [Row; 13] = [
    Row { pooled: false, ..row("serve 32>64 B8", 8, (32, 64), &[28, 28], 1, 4) },
    Row { pooled: false, ..row("serve 64>32 B8", 8, (64, 32), &[28, 28], 1, 4) },
    Row { pooled: false, ..row("serve 64>64 B8", 8, (64, 64), &[28, 28], 1, 4) },
    Row { pooled: false, ..row("serve 64>64 B1", 1, (64, 64), &[28, 28], 1, 4) },
    row("VGG 3.2-class 64>64 28^2", 1, (64, 64), &[28, 28], 1, 4),
    row("net3d_fx L1 32>32", 1, (32, 32), &[16, 24, 24], 0, 4),
    row("xform2d_jit 64>64 160^2", 1, (64, 64), &[160, 160], 0, 6),
    row("net3d_fx L2 32>64", 1, (32, 64), &[14, 22, 22], 0, 4),
    Row { jit: false, ..row("gemm2d_mono 128>128 56^2", 1, (128, 128), &[56, 56], 1, 4) },
    row("gemm2d 128>128 56^2 (JIT)", 1, (128, 128), &[56, 56], 1, 4),
    row("net3d_fx L3 64>64", 1, (64, 64), &[12, 20, 20], 0, 4),
    row("C3D C3b-class 64>64 8x28x28", 1, (64, 64), &[8, 28, 28], 1, 4),
    row("train3d_jit 128>128 4x14x14", 1, (128, 128), &[4, 14, 14], 1, 4),
];

fn median(ms: &mut [f64]) -> f64 {
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

fn main() {
    let args = Args::from_env();
    let reps = args.usize_or("--reps", 100).max(1);
    let threads = args.usize_or("--threads", 2).max(1);
    let n_blk = args.value("--n-blk").map(|v| v.parse::<usize>().expect("--n-blk takes a row count"));
    let pool: Box<dyn Executor> =
        if threads == 1 { Box::new(SerialExecutor) } else { Box::new(StaticExecutor::new(threads)) };
    let l2_bytes = wino_sched::l2_bytes_per_thread();
    let jit_available = wino_simd::cpu_has_avx512f();

    let mut out = Rows::new(
        args.flag("--json"),
        &[
            "layer", "threads", "T", "v_bytes", "ring_bytes", "l2_bytes", "n_blk", "schedule",
            "staged_ms", "fused_ms", "ratio", "staged_train_ms", "train_ms", "train_ratio",
        ],
    );
    for r in &ROWS {
        let exec: &dyn Executor = if r.pooled { pool.as_ref() } else { &SerialExecutor };
        let rank = r.dims.len();
        let shape =
            ConvShape::new(r.batch, r.c, r.cp, r.dims, &vec![3; rank], &vec![r.pad; rank]).unwrap();
        let stage2 = if r.jit && jit_available { Stage2Backend::Jit } else { Stage2Backend::Mono };
        let mut opts = ConvOptions { stage2, ..Default::default() };
        let m = vec![r.m; rank];
        let mut plan = WinogradLayer::new(shape.clone(), &m, opts).expect("table layers plan");
        if let Some(n_blk) = n_blk {
            opts.block = Some(BlockShape { n_blk, ..plan.block });
            plan = WinogradLayer::new(shape.clone(), &m, opts).expect("a panel height in 1..=30");
        }

        let input = BlockedImage::from_simple(&uniform_input(&shape, 1)).unwrap();
        let kernels = BlockedKernels::from_simple(&xavier_kernels(&shape, 2)).unwrap();
        // One scratch per side: the staged calls grow a ring or dual plan's
        // scratch by the layer-sized buffers its ring exists to avoid.
        let mut ring_scratch = Scratch::new(&plan, exec.threads());
        let mut staged_scratch = Scratch::new(&plan, exec.threads());
        // What a ring or dual plan's scratch holds beside its `v` or `u` is
        // one ring per slot — read before `prepare_kernels` grows a dual
        // plan's `v`.
        let s = &ring_scratch;
        let layer_sized = s.u.bytes() + s.v.bytes() + s.x.bytes() + s.y.bytes();
        let ring_bytes = (s.bytes() - layer_sized) / exec.threads();
        let ring_rows = ring_bytes / (plan.t_vol() * (r.c + r.cp) * 4);
        let schedule = match (plan.is_fused(), plan.is_dual()) {
            (true, _) => "ring",
            (_, true) => "dual",
            _ => "staged",
        };
        let memo = plan.prepare_kernels(&kernels, &mut ring_scratch, exec).unwrap();
        stage1::transform_kernels(&plan, &kernels, &mut staged_scratch, exec).unwrap();
        let new_output = || plan.new_output().unwrap();
        let (mut staged_out, mut fused_out) = (new_output(), new_output());
        let (mut staged_train_out, mut train_out) = (new_output(), new_output());

        // Each pair alternates on its own, so that neither side's passes
        // evict what the other pair's keep in the cache.
        let time = |pass: &mut dyn FnMut()| {
            let t = Instant::now();
            pass();
            t.elapsed().as_secs_f64() * 1e3
        };
        let mut ms: [Vec<f64>; 4] = Default::default();
        for rep in 0..=reps {
            let staged = time(&mut || {
                stage1::transform_inputs(&plan, &input, &mut staged_scratch, exec).unwrap();
                stage2::multiply(&plan, &mut staged_scratch, exec).unwrap();
                stage3::inverse_transform(&plan, &mut staged_scratch, &mut staged_out, exec)
                    .unwrap();
            });
            let fused = time(&mut || {
                plan.forward_fx(&input, &memo, &mut fused_out, &mut ring_scratch, exec).unwrap();
            });
            if rep > 0 {
                // (Round 0 warms both sides up.)
                ms[0].push(staged);
                ms[1].push(fused);
            }
        }
        for rep in 0..=reps {
            let staged = time(&mut || {
                stage1::transform_inputs(&plan, &input, &mut staged_scratch, exec).unwrap();
                stage1::transform_kernels(&plan, &kernels, &mut staged_scratch, exec).unwrap();
                stage2::multiply(&plan, &mut staged_scratch, exec).unwrap();
                stage3::inverse_transform(&plan, &mut staged_scratch, &mut staged_train_out, exec)
                    .unwrap();
            });
            let train = time(&mut || {
                plan.forward(&input, &kernels, &mut train_out, &mut ring_scratch, exec).unwrap();
            });
            if rep > 0 {
                ms[2].push(staged);
                ms[3].push(train);
            }
        }
        let passes =
            [(&fused_out, "forward_fx"), (&staged_train_out, "the four stages"), (&train_out, "forward")];
        for (got, pass) in passes {
            assert!(
                staged_out.as_slice() == got.as_slice(),
                "{}: {pass} differs from the three stages",
                r.name
            );
        }
        let [staged, fused, staged_train, train] = ms.each_mut().map(|side| median(side));
        out.push(&[
            r.name.to_string(),
            exec.threads().to_string(),
            plan.t_vol().to_string(),
            memo.bytes().to_string(),
            ring_bytes.to_string(),
            l2_bytes.to_string(),
            if plan.is_fused() { ring_rows } else { plan.block.n_blk }.to_string(),
            schedule.to_string(),
            format!("{staged:.3}"),
            format!("{fused:.3}"),
            format!("{:.3}", fused / staged),
            format!("{staged_train:.3}"),
            format!("{train:.3}"),
            format!("{:.3}", train / staged_train),
        ]);
    }
    out.finish();
}
