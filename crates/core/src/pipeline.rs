//! The superblock-pipelined schedule: stages 1→2→3 in one fork–join.
//!
//! The monolithic schedules run one fork–join per stage, so the
//! transformed tensors `Î` (`u`), `X̂`/`I'` (`x`/`y`) stream through DRAM
//! between barriers — the §4.3–4.4 data-movement pattern that leaves the
//! GEMM stage bandwidth-bound on layers whose panels outgrow L2. Here the
//! `n_blk`-row panels are grouped into *superblocks* sized by the
//! [`wino_gemm::SUPERBLOCK_L2_BYTES`] footprint model
//! ([`wino_gemm::BlockShape::superblock_row_blocks`]), and each task of a
//! *single* fork–join runs the whole stage chain over its own superblock:
//!
//! 1. gather + `Bᵀ`-transform its rows into `u` (regular stores — the
//!    data is consumed two phases later by the same core),
//! 2. the full stage-2 reduction for its row panels, with the ⑥ scatter
//!    into `y` (regular stores, same reason),
//! 3. the `Aᵀ` inverse transform of its rows into the output image
//!    (non-temporal stores — this *is* the final scatter).
//!
//! Each `Û`/`X̂` block is therefore produced, consumed and scattered while
//! still cache-hot, and the layer's three stage barriers collapse into
//! one. Writes are disjoint by construction: superblocks partition the
//! panel rows, and `u` panels, `y` tiles and output tiles are all indexed
//! by row.
//!
//! The kernel transform stays in its own (small) fork–join ahead of the
//! pipeline: every superblock reads all of `V̂`.

use wino_sched::Executor;
use wino_simd::S;
use wino_tensor::{BlockedImage, BlockedMatrices};

use crate::error::{ensure_at_least, ensure_dims_eq, ensure_eq, WinoError};
use crate::plan::{Scratch, WinogradLayer};
use crate::stage1::InputTransformCtx;
use crate::stage2::Stage2Ctx;
use crate::stage3::Stage3Ctx;

/// Run the pipelined forward pass: input transform → blocked GEMM →
/// inverse transform, per superblock, inside one fork–join. `v` holds the
/// already-transformed kernels (from `stage1::transform_kernels` or the
/// memoised FX transforms).
pub(crate) fn forward_pipelined(
    layer: &WinogradLayer,
    input: &BlockedImage,
    v: &BlockedMatrices,
    output: &mut BlockedImage,
    scratch: &mut Scratch,
    exec: &dyn Executor,
) -> Result<(), WinoError> {
    ensure_at_least("scratch thread slots", exec.threads(), scratch.thread_slots())?;
    ensure_eq("input batch", layer.shape.batch, input.batch)?;
    ensure_eq("input channels", layer.shape.in_channels, input.channels)?;
    ensure_dims_eq("input extent", &layer.shape.image_dims, &input.dims)?;
    ensure_eq("kernel-transform tile count", layer.t_vol(), v.t_count())?;
    ensure_eq("kernel-transform rows", layer.shape.in_channels, v.rows())?;
    ensure_eq("kernel-transform cols", layer.shape.out_channels, v.cols())?;
    ensure_eq("kernel-transform C_blk", layer.block.c_blk, v.rb())?;
    ensure_eq("kernel-transform C'_blk", layer.block.cp_blk, v.cb())?;
    ensure_eq("output batch", layer.shape.batch, output.batch)?;
    ensure_eq("output channels", layer.shape.out_channels, output.channels)?;
    ensure_dims_eq("output extent", &layer.grid.out_dims, &output.dims)?;

    let rows = layer.rows();
    let row_blocks = layer.row_blocks();
    let n_tiles = layer.n_tiles();
    let n_blk = layer.block.n_blk;
    let t_vol = layer.t_vol();
    let in_groups = layer.shape.in_channels / S;
    let out_groups = layer.shape.out_channels / S;
    let col_blocks = layer.shape.out_channels / layer.block.cp_blk;

    // Superblock extent: the plan's L2-budget choice, shrunk if needed so
    // every thread slot gets at least one superblock to execute.
    let sb = layer.superblock.min(row_blocks.div_ceil(exec.threads())).max(1);
    let n_super = row_blocks.div_ceil(sb);

    // Intra-pipeline scatters use regular stores — the data is consumed
    // by the same core moments later; only stage 3's output write (the
    // final scatter) streams.
    let probe = exec.probe();
    let ctx1 = InputTransformCtx::new(layer, input, scratch.u.as_mut_ptr(), false, probe);
    let x_ptr = scratch.x.as_mut_ptr();
    let y_ptr = scratch.y.as_mut_ptr();
    let ctx2 = Stage2Ctx::new(
        layer,
        &scratch.u,
        v,
        x_ptr,
        &scratch.x,
        y_ptr,
        &scratch.y,
        false,
        scratch.comp_bufs(),
    );
    let ctx3 = Stage3Ctx::new(layer, &scratch.y, output.as_mut_ptr(), layer.opts.streaming_stores);
    let scratch_ref: &Scratch = scratch;
    let stage_start = crate::spans::span_start();

    exec.run_grid(&[n_super], &|slot, sb_i| {
        let lo_rb = sb_i * sb;
        let hi_rb = (lo_rb + sb).min(row_blocks);
        let lo_row = lo_rb * n_blk;
        let hi_row = (hi_rb * n_blk).min(rows);

        // SAFETY: slot exclusivity per the Executor contract.
        let tb = unsafe { scratch_ref.thread_buf(slot) };

        // Phase 1: transform this superblock's input tiles into `u`.
        for n_prime in lo_row..hi_row {
            let (b, n) = (n_prime / n_tiles, n_prime % n_tiles);
            // Pull the next tile's source row toward L2 while this one
            // is transformed.
            if n_prime + 1 < hi_row {
                let nx = n_prime + 1;
                ctx1.prefetch_tile(nx / n_tiles, 0, nx % n_tiles);
            }
            for cg in 0..in_groups {
                // SAFETY: superblocks partition the panel rows, so tasks
                // cover disjoint (n', cg) ranges of `u`; `tb` is held via
                // the slot contract.
                unsafe { ctx1.tile(tb, slot, b, cg, n) };
            }
        }

        // Phase 2: the full reduction for this superblock's panels, with
        // the ⑥ scatter into `y`. `V̂` blocks stay L2-resident across the
        // whole row range (the §4.5 loop order, rows innermost).
        for t in 0..t_vol {
            for j in 0..col_blocks {
                for i in lo_rb..hi_rb {
                    // SAFETY: panel rows are owned by this task (the
                    // superblock partition), so (t, j, i) triples are
                    // disjoint across tasks; `slot` is held by this task.
                    unsafe { ctx2.panel(slot, t, j, i) };
                }
            }
        }

        // Phase 3: inverse-transform this superblock's rows into the
        // output image while `y` is still cache-hot.
        for n_prime in lo_row..hi_row {
            let (b, n) = (n_prime / n_tiles, n_prime % n_tiles);
            for og in 0..out_groups {
                // SAFETY: output tiles are indexed by (b, og, n), owned
                // by this task via the row partition; `tb` per the slot
                // contract.
                unsafe { ctx3.tile(tb, b, og, n) };
            }
        }
    })?;
    crate::spans::record_coord(exec, wino_probe::SpanCategory::SuperblockPipeline, stage_start);

    // The monolithic schedules poison the staged tensors between
    // fork–joins; with the stages fused there is no such window, so each
    // consumed hook poisons the (already final) output directly.
    #[cfg(feature = "fault-inject")]
    for stage in 1..=3 {
        if wino_sched::fault::take_poison_stage(stage) {
            output.as_mut_slice()[0] = f32::NAN;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ConvOptions, Schedule};
    use crate::{stage1, stage2, stage3};
    use wino_sched::{DynamicExecutor, SerialExecutor, StaticExecutor};
    use wino_tensor::{BlockedKernels, ConvShape, SimpleImage, SimpleKernels};

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

    /// The monolithic fused-scatter result for the same problem, computed
    /// stage by stage — the pipelined schedule must match it bitwise
    /// (identical per-value operation order, only the barriers differ).
    fn monolithic(
        shape: &ConvShape,
        m: &[usize],
        img: &SimpleImage,
        ker: &SimpleKernels,
    ) -> Vec<f32> {
        let layer = WinogradLayer::new(shape.clone(), m, ConvOptions::default()).unwrap();
        let input = BlockedImage::from_simple(img).unwrap();
        let kernels = BlockedKernels::from_simple(ker).unwrap();
        let mut scratch = Scratch::new(&layer, 1);
        let mut out = layer.new_output().unwrap();
        stage1::transform_inputs(&layer, &input, &mut scratch, &SerialExecutor).unwrap();
        stage1::transform_kernels(&layer, &kernels, &mut scratch, &SerialExecutor).unwrap();
        stage2::multiply(&layer, &mut scratch, &SerialExecutor).unwrap();
        stage3::inverse_transform(&layer, &mut scratch, &mut out, &SerialExecutor).unwrap();
        out.as_slice().to_vec()
    }

    fn pipelined(
        shape: &ConvShape,
        m: &[usize],
        img: &SimpleImage,
        ker: &SimpleKernels,
        superblock: Option<usize>,
        exec: &dyn Executor,
    ) -> Vec<f32> {
        let opts = ConvOptions { schedule: Schedule::Pipelined, superblock, ..Default::default() };
        let layer = WinogradLayer::new(shape.clone(), m, opts).unwrap();
        let input = BlockedImage::from_simple(img).unwrap();
        let kernels = BlockedKernels::from_simple(ker).unwrap();
        let mut scratch = Scratch::new(&layer, exec.threads());
        let mut out = layer.new_output().unwrap();
        layer.forward(&input, &kernels, &mut out, &mut scratch, exec).unwrap();
        out.as_slice().to_vec()
    }

    #[test]
    fn pipelined_matches_monolithic_bitwise() {
        let shape = ConvShape::new(2, 32, 32, &[10, 10], &[3, 3], &[1, 1]).unwrap();
        let img = test_img(2, 32, &[10, 10]);
        let ker = test_ker(32, 32, &[3, 3]);
        let mono = monolithic(&shape, &[4, 4], &img, &ker);
        // Every superblock extent must give the same answer — the
        // partition only changes which task computes what.
        for sb in [None, Some(1), Some(2), Some(1000)] {
            let pipe = pipelined(&shape, &[4, 4], &img, &ker, sb, &SerialExecutor);
            assert_eq!(pipe, mono, "superblock {sb:?}");
        }
    }

    #[test]
    fn pipelined_executors_agree() {
        let shape = ConvShape::new(2, 32, 48, &[11, 9], &[3, 3], &[1, 1]).unwrap();
        let img = test_img(2, 32, &[11, 9]);
        let ker = test_ker(48, 32, &[3, 3]);
        let serial = pipelined(&shape, &[4, 4], &img, &ker, Some(2), &SerialExecutor);
        let stat = StaticExecutor::new(4);
        assert_eq!(pipelined(&shape, &[4, 4], &img, &ker, Some(2), &stat), serial);
        let dyn_e = DynamicExecutor::new(4);
        assert_eq!(pipelined(&shape, &[4, 4], &img, &ker, Some(2), &dyn_e), serial);
    }

    #[test]
    fn pipelined_three_d() {
        let shape = ConvShape::new(1, 16, 16, &[5, 8, 8], &[3, 3, 3], &[1, 1, 1]).unwrap();
        let img = test_img(1, 16, &[5, 8, 8]);
        let ker = test_ker(16, 16, &[3, 3, 3]);
        let mono = monolithic(&shape, &[2, 2, 2], &img, &ker);
        let pipe = pipelined(&shape, &[2, 2, 2], &img, &ker, None, &StaticExecutor::new(2));
        assert_eq!(pipe, mono);
    }

    /// The tentpole's barrier claim, measured: a pipelined forward is 2
    /// fork–joins (kernel transform + superblock grid) where fused is 4
    /// and unfused is 5. Only meaningful with span recording on.
    #[test]
    fn pipelined_forward_halves_the_fork_join_count() {
        if !wino_probe::ENABLED {
            return;
        }
        let shape = ConvShape::new(1, 32, 32, &[10, 10], &[3, 3], &[1, 1]).unwrap();
        let img = test_img(1, 32, &[10, 10]);
        let ker = test_ker(32, 32, &[3, 3]);
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = BlockedKernels::from_simple(&ker).unwrap();
        let count = |schedule: Schedule| {
            let opts = ConvOptions { schedule, ..Default::default() };
            let layer = WinogradLayer::new(shape.clone(), &[4, 4], opts).unwrap();
            let mut exec = wino_sched::ProbedExecutor::new(SerialExecutor);
            let mut scratch = Scratch::new(&layer, 1);
            let mut out = layer.new_output().unwrap();
            layer.forward(&input, &kernels, &mut out, &mut scratch, &exec).unwrap();
            exec.take_events()
                .iter()
                .filter(|e| e.category == wino_probe::SpanCategory::ForkJoin)
                .count()
        };
        assert_eq!(count(Schedule::Pipelined), 2);
        assert_eq!(count(Schedule::FusedScatter), 4);
        assert_eq!(count(Schedule::Unfused), 5);
    }

    #[test]
    fn pipelined_records_the_superblock_span() {
        if !wino_probe::ENABLED {
            return;
        }
        let shape = ConvShape::new(1, 16, 16, &[8, 8], &[3, 3], &[1, 1]).unwrap();
        let img = test_img(1, 16, &[8, 8]);
        let ker = test_ker(16, 16, &[3, 3]);
        let opts = ConvOptions { schedule: Schedule::Pipelined, ..Default::default() };
        let layer = WinogradLayer::new(shape, &[2, 2], opts).unwrap();
        let mut exec = wino_sched::ProbedExecutor::new(SerialExecutor);
        let mut scratch = Scratch::new(&layer, 1);
        let mut out = layer.new_output().unwrap();
        layer
            .forward(
                &BlockedImage::from_simple(&img).unwrap(),
                &BlockedKernels::from_simple(&ker).unwrap(),
                &mut out,
                &mut scratch,
                &exec,
            )
            .unwrap();
        let events = exec.take_events();
        let cats: Vec<_> = events.iter().map(|e| e.category).collect();
        assert!(cats.contains(&wino_probe::SpanCategory::SuperblockPipeline));
        assert!(cats.contains(&wino_probe::SpanCategory::KernelTransform));
        // The monolithic stage spans must NOT appear — the pipeline
        // subsumes them.
        assert!(!cats.contains(&wino_probe::SpanCategory::InputTransform));
        assert!(!cats.contains(&wino_probe::SpanCategory::ElementwiseGemm));
        assert!(!cats.contains(&wino_probe::SpanCategory::OutputTransform));
    }

    #[test]
    fn pipelined_multi_k_block() {
        // C > C_blk exercises the beta-accumulation inside one superblock.
        let shape = ConvShape::new(1, 64, 32, &[6, 6], &[3, 3], &[1, 1]).unwrap();
        let img = test_img(1, 64, &[6, 6]);
        let ker = test_ker(32, 64, &[3, 3]);
        let block = wino_gemm::BlockShape { n_blk: 5, c_blk: 32, cp_blk: 16 };
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = BlockedKernels::from_simple(&ker).unwrap();
        let run = |schedule: Schedule| {
            let opts = ConvOptions {
                schedule,
                block: Some(block),
                superblock: Some(1),
                ..Default::default()
            };
            let layer = WinogradLayer::new(shape.clone(), &[2, 2], opts).unwrap();
            let mut scratch = Scratch::new(&layer, 1);
            let mut out = layer.new_output().unwrap();
            layer.forward(&input, &kernels, &mut out, &mut scratch, &SerialExecutor).unwrap();
            out.as_slice().to_vec()
        };
        assert_eq!(run(Schedule::Pipelined), run(Schedule::FusedScatter));
    }
}
