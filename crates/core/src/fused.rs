//! The ring-fused forward pass: input transform → `T` products → inverse
//! transform per row panel, in one fork–join.
//!
//! The three stages hand `Û` and `X̂` from one fork–join to the next
//! through layer-sized buffers: written by one stage — past the cache,
//! when they are too large to stay in it ([`streams`]) — and read back by
//! the next, a barrier later. On a core whose
//! FMA ports outrun its memory system that round trip, not arithmetic, is
//! what the transform stages cost. Here a task takes one `n_blk`-row panel
//! all the way through instead:
//!
//! 1. operation ①②: `InputTransformCtx::tile` for the panel's tiles × `C/S`
//!    channel groups, into the calling thread's *ring* — one `n_blk`-row
//!    block of `Û`, `[t][n_blk][C]`, plain stores;
//! 2. operation ⑤⑥: for every column block `j` and every `t`, the stage-2
//!    micro-kernel (JIT or Mono, the register tiles of the staged path) on
//!    that block against `V̂[t][j]`, scattering with plain stores into the
//!    ring's tile-major half, `[C'/S][n_blk][T][S]`;
//! 3. `Stage3Ctx::tile` for the panel's tiles × `C'/S` groups, from those
//!    chunks straight into the output image;
//!
//! and then reuses the *same ring addresses* for its next panel, so `Û`
//! and `X̂` never leave the core's cache. Tiles, codelets and every
//! element's FMA chain are the staged path's: results are bit-identical.
//!
//! The price is that `V̂` is read once per panel instead of once per
//! layer, which is free while `V̂` stays in the L2 beside the ring and a
//! loss once it does not (EXPERIMENTS.md, "§4.3 extension — ring-fused
//! forward"). [`ring_rows`] is that inequality; a plan it turns down, and
//! any call with more executor threads than panels, runs the three stages.

// Index-based loops walk several arrays with derived offsets; iterator
// rewrites obscure the math (same policy as the stage code).
#![allow(clippy::needless_range_loop)]

use wino_gemm::{microkernel, MicroArgs, Output, MAX_N_BLK};
use wino_probe::{Collector, SpanCategory};
use wino_sched::probed::{record_coord_span, span_start};
use wino_sched::Executor;
use wino_simd::S;
use wino_tensor::{BlockedImage, BlockedMatrices};

use crate::error::{ensure_at_least, WinoError};
use crate::footprint::MemoryFootprint;
use crate::plan::{Scratch, WinogradLayer};
use crate::stage1::InputTransformCtx;
use crate::stage3::Stage3Ctx;
use crate::{stage1, stage2, stage3};

/// Rows of the widest register tile (6×4 under AVX-512, 6×1 under AVX2 —
/// `wino_gemm::TileTable`): a ring holds whole strips of them, so no
/// panel but the last leaves a tile partly filled.
const STRIP_ROWS: usize = 6;

/// Panels a layer is cut into at least, when it has the rows: a panel is
/// the unit the executor balances threads with, and the plan does not know
/// how many there will be.
const MIN_PANELS: usize = 8;

/// Panel height of the ring-fused driver for a layer of tile volume
/// `t_vol`, `c → cp` channels, `k_blocks` reduction blocks and `rows`
/// panel rows on a core with `l2_bytes` of L2 — or `None` when the layer
/// runs the three stages.
///
/// Fused iff the reduction is one block (the ring holds no partial sums)
/// and `V̂` plus a ring of at least one strip fit ¾ of the L2. The ring
/// `T·n_blk·(C + C')·4` B is then as many whole strips as stay within ¼ of
/// the L2 and beside `V̂` — at least one, at most [`MAX_N_BLK`] rows or a
/// [`MIN_PANELS`]-th of the layer's; an `explicit` panel height from
/// `ConvOptions::block` is taken as is, if it fits.
pub(crate) fn ring_rows(
    t_vol: usize,
    c: usize,
    cp: usize,
    k_blocks: usize,
    rows: usize,
    l2_bytes: usize,
    explicit: Option<usize>,
) -> Option<usize> {
    if k_blocks != 1 {
        return None;
    }
    let f32_bytes = std::mem::size_of::<f32>();
    let row_bytes = t_vol * (c + cp) * f32_bytes;
    // Ring rows that fit beside V̂.
    let fit = (l2_bytes / 4 * 3).checked_sub(t_vol * c * cp * f32_bytes)? / row_bytes;
    let n_blk = explicit.unwrap_or_else(|| {
        let most = (l2_bytes / 4 / row_bytes).min(fit).min(MAX_N_BLK);
        most.min(rows / MIN_PANELS).max(STRIP_ROWS) / STRIP_ROWS * STRIP_ROWS
    });
    (n_blk <= fit).then_some(n_blk)
}

/// The part of the reported last-level cache a plan's hand-off may fill and
/// still be found there by its consumer: a fifth. Measured, not derived
/// (EXPERIMENTS.md, "§4.2.1 — store flavour is a rule"): on the host the
/// sweeps ran on the two flavours cross at 50–56 MiB of 260 — the cache is
/// the chip's, shared with the input image, `V̂`'s readers and every other
/// tenant — and no sitting has measured a loss for streaming above a fifth
/// or for plain stores below it.
const LLC_SHARE: usize = 5;

/// Whether a plan stores what it hands from one fork–join to the next —
/// `Û`, `V̂`, the tile-major `X̂`, the output image — with non-temporal
/// stores, given its `footprint` and the host's last-level cache.
///
/// Streams iff scratch plus output exceed the cache's [`LLC_SHARE`]-th.
/// Under that the consumer finds the producer's lines cached, and a store
/// past the cache turns each of those hits into a DRAM read; over it the
/// lines are evicted before they are read, and a plain store's
/// read-for-ownership and the eviction of `V̂` are pure loss (the paper's
/// case, §4.2.1: a KNL has no L3). A fused plan's scratch is `V̂` and its
/// rings, so only a large output image streams it.
pub(crate) fn streams(footprint: &MemoryFootprint, llc_bytes: usize) -> bool {
    footprint.scratch_bytes + footprint.output_bytes > llc_bytes / LLC_SHARE
}

impl WinogradLayer {
    /// Whether a forward pass on `exec` takes the ring-fused driver: the
    /// plan is fused and has a panel for every thread.
    pub(crate) fn runs_fused(&self, exec: &dyn Executor) -> bool {
        self.ring_rows.is_some_and(|n_blk| exec.threads() <= self.rows().div_ceil(n_blk))
    }
}

/// Faults armed for the fork–join about to run (`wino_sched::fault`),
/// taken once by the coordinator.
#[cfg(feature = "fault-inject")]
struct Faults {
    poison_u: bool,
    poison_x: bool,
    poison_output: bool,
    corrupt_x: Option<wino_sched::fault::CorruptKind>,
}

#[cfg(feature = "fault-inject")]
impl Faults {
    fn take() -> Faults {
        use wino_sched::fault::{take_corruption, take_poison_stage};
        Faults {
            poison_u: take_poison_stage(1),
            poison_x: take_poison_stage(2),
            poison_output: take_poison_stage(3),
            corrupt_x: take_corruption(2),
        }
    }
}

/// Convolve `input` with the kernel transforms `v` into `output` through
/// the per-thread rings of `scratch`. `layer` must be a fused plan.
pub(crate) fn forward(
    layer: &WinogradLayer,
    input: &BlockedImage,
    v: &BlockedMatrices,
    output: &mut BlockedImage,
    scratch: &Scratch,
    exec: &dyn Executor,
) -> Result<(), WinoError> {
    let n_blk = layer.ring_rows.expect("the ring-fused driver runs fused plans only");
    ensure_at_least("scratch thread slots", exec.threads(), scratch.thread_slots())?;
    stage1::check_input(layer, input)?;
    stage2::check_kernel_transforms(layer, v)?;
    stage3::check_output(layer, output)?;

    let (rows, n_tiles) = (layer.rows(), layer.n_tiles());
    let (in_groups, out_groups) = (layer.shape.in_channels / S, layer.shape.out_channels / S);
    // The ring: an n_blk-row block of Û, then the rows' X̂ chunks.
    let u_floats = layer.t_vol() * n_blk * layer.shape.in_channels;
    let chunk = layer.t_vol() * S;
    let probe = exec.probe();
    let input_ctx = InputTransformCtx::new(layer, input, n_blk, false, probe);
    let output_ctx = Stage3Ctx::new(layer, output.as_mut_ptr());
    #[cfg(feature = "fault-inject")]
    let faults = Faults::take();
    let start = span_start(probe);

    let joined = exec.run_grid(&[rows.div_ceil(n_blk)], &|slot, i| {
        // SAFETY: slot exclusivity per the Executor contract.
        let tb = unsafe { scratch.thread_buf(slot) };
        let ring_u = tb.ring.as_mut_ptr();
        // SAFETY: the ring holds `WinogradLayer::ring_floats`:
        // `u_floats` of Û, then `C'/S · n_blk` chunks.
        let ring_x = unsafe { ring_u.add(u_floats) };
        let row0 = i * n_blk;
        let panel_rows = n_blk.min(rows - row0);
        let t0 = span_start(probe);

        for cg in 0..in_groups {
            for r in 0..panel_rows {
                let (b, n) = ((row0 + r) / n_tiles, (row0 + r) % n_tiles);
                // SAFETY: the ring is an n_blk-row block of Û and this
                // slot's alone; `r < n_blk`.
                unsafe { input_ctx.tile(tb, slot, (ring_u, r), b, cg, n) };
            }
        }
        #[cfg(feature = "fault-inject")]
        if faults.poison_u && i == 0 {
            // SAFETY: the ring's first float, this slot's.
            unsafe { *ring_u = f32::NAN };
        }
        let t1 = span_start(probe);

        // SAFETY: `ring_u` holds the panel's Û block, `ring_x` has room for
        // its chunks, `v` was checked against the plan; all this slot's.
        unsafe { multiply_panel(layer, v, ring_u, ring_x, n_blk, panel_rows) };
        #[cfg(feature = "fault-inject")]
        {
            if faults.poison_x && i == 0 {
                // SAFETY: the first float of the ring's X̂ half.
                unsafe { *ring_x = f32::NAN };
            }
            if let Some(kind) = faults.corrupt_x {
                // Every panel, so that no sampled tile escapes.
                // SAFETY: the ring's X̂ half, `out_groups · n_blk` chunks.
                let x = unsafe { std::slice::from_raw_parts_mut(ring_x, out_groups * n_blk * chunk) };
                stage2::corrupt_y(x, kind);
            }
        }
        let t2 = span_start(probe);

        for og in 0..out_groups {
            for r in 0..panel_rows {
                let (b, n) = ((row0 + r) / n_tiles, (row0 + r) % n_tiles);
                // SAFETY: chunk (og, r) of the ring's X̂ half, written by
                // `multiply_panel` above; panels cover disjoint rows, so
                // output tile (b, og, n) is this task's.
                unsafe { output_ctx.tile(tb, ring_x.add((og * n_blk + r) * chunk), b, og, n) };
            }
        }
        if probe.is_some() {
            let t3 = span_start(probe);
            for (total, spent) in tb.phase_ns.iter_mut().zip([t1 - t0, t2 - t1, t3 - t2]) {
                *total += spent;
            }
        }
    });

    if probe.is_some() {
        let end = span_start(probe);
        // Collect the tallies — and clear them, whether or not the
        // fork–join came through, for the next pass.
        let mut phase_ns = [0u64; 3];
        for slot in 0..scratch.thread_slots() {
            // SAFETY: the fork–join has joined and the public entry points
            // hold the scratch `&mut`, so every slot is the coordinator's.
            let tally = std::mem::take(&mut unsafe { scratch.thread_buf(slot) }.phase_ns);
            for (total, spent) in phase_ns.iter_mut().zip(tally) {
                *total += spent;
            }
        }
        if joined.is_ok() {
            record_phases(probe, start, end, phase_ns);
        }
    }
    joined?;
    #[cfg(feature = "fault-inject")]
    if faults.poison_output {
        output.as_mut_slice()[0] = f32::NAN;
    }
    Ok(())
}

/// Operation ⑤⑥ for one ring panel: `X̂_t = Û_t · V̂_t` for every `t` and
/// column block, the rows scattered to their tile-major chunks. One
/// reduction block, so every call is a β = 0 scatter.
///
/// # Safety
/// `ring_u` must hold an `n_blk`-row block of `Û` (`[t][n_blk][C]`) whose
/// first `panel_rows` rows are written, `ring_x` must be valid for
/// `C'/S · n_blk` chunks of `T·S` floats, 64-byte aligned, and `v` must
/// be kernel transforms of `layer`; the caller owns both halves.
unsafe fn multiply_panel(
    layer: &WinogradLayer,
    v: &BlockedMatrices,
    ring_u: *const f32,
    ring_x: *mut f32,
    n_blk: usize,
    panel_rows: usize,
) {
    let (t_vol, c, cp_blk) = (layer.t_vol(), layer.shape.in_channels, layer.block.cp_blk);
    let chunk = t_vol * S;
    let jit = layer.jit.as_ref().map(|jk| {
        let kernel = if panel_rows == n_blk { &jk.ring_full } else { &jk.ring_tail };
        kernel.as_ref().expect("ring kernels compiled for every panel height of a fused plan")
    });
    let mut row_ptrs = [std::ptr::null_mut::<f32>(); MAX_N_BLK];
    // Column blocks outermost: within one, V̂'s `t` blocks are contiguous
    // and Û's too, so both stream.
    for j in 0..v.col_blocks() {
        let og0 = j * cp_blk / S;
        for t in 0..t_vol {
            for r in 0..panel_rows {
                // SAFETY: position `t` of chunk (og0, r), inside `ring_x`.
                row_ptrs[r] = ring_x.add((og0 * n_blk + r) * chunk + t * S);
            }
            // SAFETY: block `t` of the ring's Û; block (0, j, t) of `v`.
            let (u_blk, v_blk) =
                (ring_u.add(t * n_blk * c), v.as_ptr().add(v.block_offset(0, j, t)));
            // With β = 0 a scatter kernel never dereferences its `x`; the
            // ring is merely a valid address to hand it.
            match jit {
                // SAFETY: compiled for (panel_rows, C, C'_blk, β = 0) with
                // the ring's group stride; `row_ptrs[..panel_rows]` are
                // non-null, aligned, and a group stride apart per column
                // group inside `ring_x`.
                Some(kernel) => kernel.call_scatter(u_blk, v_blk, ring_x, row_ptrs.as_ptr()),
                // SAFETY: as above, for the Rust kernel.
                None => microkernel(
                    panel_rows,
                    &MicroArgs {
                        u: u_blk,
                        v: v_blk,
                        x: ring_x,
                        c_blk: c,
                        cp_blk,
                        beta: false,
                        next_u: std::ptr::null(),
                        next_x: std::ptr::null(),
                        output: Output::Scatter {
                            row_ptrs: row_ptrs.as_ptr(),
                            group_stride: n_blk * chunk,
                            streaming: false,
                        },
                    },
                ),
            }
        }
    }
}

/// Report the fused fork–join `[start, end]` as the three stage spans a
/// staged pass records, back to back, each with the share of the interval
/// the thread slots spent in its phase (`phase_ns`, summed over slots).
fn record_phases(probe: Option<&Collector>, start: u64, end: u64, phase_ns: [u64; 3]) {
    let total = u128::from(phase_ns.iter().sum::<u64>().max(1));
    let cut = |spent: u64| start + (u128::from(end - start) * u128::from(spent) / total) as u64;
    let (a, b) = (cut(phase_ns[0]), cut(phase_ns[0] + phase_ns[1]));
    // SAFETY: the coordinator thread, after the fused fork–join joined.
    unsafe {
        record_coord_span(probe, SpanCategory::InputTransform, start, a);
        record_coord_span(probe, SpanCategory::ElementwiseGemm, a, b);
        record_coord_span(probe, SpanCategory::OutputTransform, b, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: usize = 1 << 20;

    /// `(name, T, C, C')` of the layers EXPERIMENTS.md's "§4.3 extension —
    /// ring-fused forward" measures, smallest `V̂` first.
    const MEASURED: [(&str, usize, usize, usize); 11] = [
        ("serve 32→64, F(4²)", 36, 32, 64),
        ("serve 64→32, F(4²)", 36, 64, 32),
        ("serve 64→64 / VGG 3.2-class, F(4²)", 36, 64, 64),
        ("net3d_fx L1 32→32, F(4³)", 216, 32, 32),
        ("xform2d_jit 64→64, F(6²)", 64, 64, 64),
        ("net3d_fx L2 32→64, F(4³)", 216, 32, 64),
        ("gemm2d_mono 128→128, F(4²)", 36, 128, 128),
        ("net3d_fx L3 64→64, F(4³)", 216, 64, 64),
        ("C3D C3b-like 64→64, F(4³)", 216, 64, 64),
        ("train3d_jit 128→128, F(4³)", 216, 128, 128),
        ("VGG 5.x-class 512→512, F(4²)", 36, 512, 512),
    ];

    fn plan(t_vol: usize, c: usize, cp: usize, l2: usize) -> Option<usize> {
        ring_rows(t_vol, c, cp, 1, 100_000, l2, None)
    }

    /// Host-independent: the L2 is an argument. At this host's 2 MiB the
    /// first five layers — every one the ring measured faster on — fuse,
    /// the rest — level or slower — do not.
    #[test]
    fn the_measured_layers_fall_on_their_faster_side_at_2_mib() {
        let rows: Vec<_> = MEASURED.iter().map(|&(_, t, c, cp)| plan(t, c, cp, 2 * MIB)).collect();
        assert_eq!(
            rows,
            [Some(30), Some(30), Some(24), Some(6), Some(12), None, None, None, None, None, None],
        );
        for (&(name, t, c, cp), n_blk) in MEASURED.iter().zip(rows) {
            let Some(n_blk) = n_blk else { continue };
            let (v, ring) = (t * c * cp * 4, t * n_blk * (c + cp) * 4);
            assert!(n_blk % STRIP_ROWS == 0 && n_blk <= MAX_N_BLK, "{name}: {n_blk} rows");
            assert!(v + ring <= 3 * MIB / 2, "{name}: V̂ {v} B + ring {ring} B");
            assert!(ring <= MIB / 2 || n_blk == STRIP_ROWS, "{name}: ring {ring} B");
        }
    }

    /// The claimed workload is not on a knife edge: with the L2 reading a
    /// tenth smaller its ring shrinks to one strip and the plan stays
    /// fused; it takes a quarter to lose it.
    #[test]
    fn xform2d_stays_fused_when_the_l2_reads_a_tenth_smaller() {
        assert_eq!(plan(64, 64, 64, 2 * MIB), Some(12));
        assert_eq!(plan(64, 64, 64, 2 * MIB / 10 * 9), Some(6));
        assert_eq!(plan(64, 64, 64, 2 * MIB / 4 * 3), None);
    }

    /// At the 1 MiB assumed when the cache cannot be detected only a `V̂`
    /// well under 1 MiB fuses: the serve layers (0.28 and 0.56 MiB), not
    /// the 0.84 MiB one.
    #[test]
    fn only_small_kernel_transforms_fuse_at_the_1_mib_fallback() {
        let fused: Vec<_> = MEASURED.iter().map(|&(_, t, c, cp)| plan(t, c, cp, MIB)).collect();
        assert_eq!(fused[..3], [Some(18), Some(18), Some(6)]);
        assert!(fused[3..].iter().all(Option::is_none), "{fused:?}");
    }

    #[test]
    fn reduction_blocks_short_layers_and_explicit_heights() {
        // Partial sums have nowhere to live in a ring.
        assert_eq!(ring_rows(36, 64, 64, 2, 1000, 2 * MIB, None), None);
        // A short layer is still cut into eight panels or more — the 49
        // tiles of a 28² F(4²) image into nine — but never below a strip.
        assert_eq!(ring_rows(36, 64, 64, 1, 8 * 49, 2 * MIB, None), Some(24));
        assert_eq!(ring_rows(36, 64, 64, 1, 150, 2 * MIB, None), Some(18));
        assert_eq!(ring_rows(36, 64, 64, 1, 49, 2 * MIB, None), Some(6));
        assert_eq!(ring_rows(36, 64, 64, 1, 3, 2 * MIB, None), Some(6));
        // An explicit panel height is respected, or the plan is staged.
        assert_eq!(ring_rows(36, 32, 32, 1, 1000, 2 * MIB, Some(5)), Some(5));
        assert_eq!(ring_rows(64, 64, 64, 1, 1000, 2 * MIB, Some(28)), None);
        // The strip is the register tile's height on every table.
        for regs in [8, 32] {
            let table = wino_gemm::TileTable::new(regs);
            assert_eq!(table.r_max(table.q_max()), STRIP_ROWS);
        }
    }

    fn hand_off(scratch_bytes: usize, output_bytes: usize) -> MemoryFootprint {
        MemoryFootprint { scratch_bytes, output_bytes, ..MemoryFootprint::empty(1) }
    }

    /// At a fifth of the cache the hand-off still counts as resident; one
    /// byte more streams it. Only scratch and output count.
    #[test]
    fn a_plan_streams_once_its_hand_off_exceeds_a_fifth_of_the_llc() {
        let llc = 260 * MIB;
        assert!(!streams(&hand_off(40 * MIB, 12 * MIB - 1), llc));
        assert!(!streams(&hand_off(40 * MIB, 12 * MIB), llc));
        assert!(streams(&hand_off(40 * MIB, 12 * MIB + 1), llc));
        assert!(streams(&hand_off(0, 52 * MIB + 1), llc) && streams(&hand_off(52 * MIB + 1, 0), llc));
        let mut other = hand_off(0, 0);
        (other.transformed_kernel_bytes, other.per_thread_bytes) = (llc, llc);
        assert!(!streams(&other, llc));
        // A host without an L3 reports its L2: everything layer-sized streams.
        assert!(streams(&hand_off(MIB, MIB), 2 * MIB) && !streams(&hand_off(MIB / 8, MIB / 8), 2 * MIB));
    }

    /// The two layers of EXPERIMENTS.md's sweep on the measured host (2 MiB
    /// of L2, 260 MiB of L3). The staged one hands `Û`, `V̂`, `X̂`, `Y` and
    /// its output on, ≈ 24 MiB an image beside 9 MiB of `V̂`; the fused one's
    /// scratch is `V̂` and a ring — about an L2 whatever the batch — so only
    /// its output image, 12.25 MiB an image, can stream it.
    #[test]
    fn the_sweep_layers_stream_from_the_batch_that_outgrows_their_share_of_the_llc() {
        use crate::plan::{ConvOptions, Host};
        let host = Host { l2_bytes: 2 * MIB, llc_bytes: 260 * MIB };
        let plan = |batch, c, side: usize| {
            let shape = wino_tensor::ConvShape::new(batch, c, c, &[side, side], &[3, 3], &[1, 1]).unwrap();
            WinogradLayer::new_on(shape, &[4, 4], ConvOptions::default(), host).unwrap()
        };
        for (batch, streaming) in [(1, false), (2, true), (64, true)] {
            let staged = plan(batch, 256, 56);
            let fp = staged.footprint(1);
            assert!(!staged.is_fused());
            assert_eq!(staged.streams, fp.scratch_bytes + fp.output_bytes > 52 * MIB, "B = {batch}");
            assert_eq!(staged.streams, streaming, "staged, B = {batch}");
        }
        for (batch, streaming) in [(1, false), (4, false), (5, true), (32, true)] {
            let fused = plan(batch, 64, 224);
            assert!(fused.is_fused() && fused.footprint(1).scratch_bytes < 2 * MIB);
            assert_eq!(fused.footprint(1).output_bytes, batch * 64 * 224 * 224 * 4);
            assert_eq!(fused.streams, streaming, "fused, B = {batch}");
        }
    }
}
