//! Stage 2 — batched matrix multiplication with fused scatter (§4.3,
//! operations ⑤⑥).
//!
//! `T` products `X_t = U_t · V_t` over the task grid
//! `T × (C'/C'_blk) × (NB/n_blk)` (row panels least significant so each
//! thread reuses its L2-resident `V̂`, §4.5). On the final reduction block
//! the result bypasses `X̂` and is scattered by the micro-kernel itself —
//! with non-temporal streaming stores when the plan streams
//! ([`WinogradLayer::streams`]) — into the tile-major layout
//! [`crate::layout::TileMajor`] that stage 3 reads contiguously. The paper
//! measured >20 % end-to-end gain from this fusion over a separate copy
//! pass (reproduced: EXPERIMENTS.md, "§4.3.1").
//!
//! This is the schedule of every layer neither ring takes, and the
//! reference both rings of `fused.rs` are tested `==` against: the
//! ring-fused driver calls the same micro-kernels on one `n_blk`-row panel
//! at a time, the dual ring on one `C_blk × C'_blk` block of `V̂` at a
//! time, each scattering into its thread's ring.

// Index-based loops are the idiom throughout: most walk several
// arrays with derived offsets, where iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

use wino_gemm::{microkernel, MicroArgs, Output};
use wino_sched::probed::{record_coord, span_start};
use wino_sched::Executor;
use wino_simd::S;
use wino_tensor::BlockedMatrices;

use crate::error::{ensure_eq, WinoError};
use crate::layout::TileMajor;
use crate::plan::{Scratch, WinogradLayer};
use crate::stage1::MutPtr;

/// The per-panel body of operations ⑤⑥ — one `(t, j, i)` panel's full
/// reduction over the `k` blocks, the last of which scatters — with the
/// state every task of one [`multiply_with`] call shares.
pub(crate) struct Stage2Ctx<'a> {
    layer: &'a WinogradLayer,
    u: &'a BlockedMatrices,
    v: &'a BlockedMatrices,
    x: MutPtr,
    y: MutPtr,
    x_meta: &'a BlockedMatrices,
    y_meta: &'a TileMajor,
    group_stride: usize,
    n_tiles: usize,
    rows: usize,
    n_blk: usize,
    row_blocks: usize,
    k_blocks: usize,
    c_blk: usize,
    cp_blk: usize,
    /// NT stores for the ⑥ scatter ([`WinogradLayer::streams`]).
    streaming: bool,
}

impl<'a> Stage2Ctx<'a> {
    pub(crate) fn new(
        layer: &'a WinogradLayer,
        u: &'a BlockedMatrices,
        v: &'a BlockedMatrices,
        x: *mut f32,
        x_meta: &'a BlockedMatrices,
        y: *mut f32,
        y_meta: &'a TileMajor,
    ) -> Stage2Ctx<'a> {
        Stage2Ctx {
            layer,
            u,
            v,
            x: MutPtr(x),
            y: MutPtr(y),
            x_meta,
            y_meta,
            group_stride: y_meta.group_stride(),
            n_tiles: layer.n_tiles(),
            rows: layer.rows(),
            n_blk: layer.block.n_blk,
            row_blocks: layer.row_blocks(),
            k_blocks: layer.shape.in_channels / layer.block.c_blk,
            c_blk: layer.block.c_blk,
            cp_blk: layer.block.cp_blk,
            streaming: layer.streams,
        }
    }

    /// Multiply panel `(t, j, i)`: the full `k`-block reduction, with the
    /// fused ⑥ scatter on the last block.
    ///
    /// # Safety
    /// The caller must own panel `(t, j, i)` of `x` and the corresponding
    /// tile rows of `y` — tasks of one fork–join must cover disjoint
    /// `(t, j, i)` triples.
    pub(crate) unsafe fn panel(&self, t: usize, j: usize, i: usize) {
        // Per-row scatter destinations for the final block.
        let mut row_ptrs = [std::ptr::null_mut::<f32>(); wino_gemm::MAX_N_BLK];
        let og0 = (j * self.cp_blk) / S;
        for jj in 0..self.n_blk {
            let n_prime = i * self.n_blk + jj;
            if n_prime < self.rows {
                let (b, n) = (n_prime / self.n_tiles, n_prime % self.n_tiles);
                // SAFETY: offset within y by construction.
                row_ptrs[jj] = self.y.get().add(self.y_meta.vec_offset(b, og0, n, t));
            }
        }

        // The paper's JIT backend: dispatch to pre-compiled machine code.
        if let Some(jk) = self.layer.jit.as_ref().map(|jit| &jit.staged) {
            let is_tail_panel = jk.tail != 0 && i + 1 == self.row_blocks;
            for k in 0..self.k_blocks {
                let is_last_k = k + 1 == self.k_blocks;
                // SAFETY: identical pointer contract as the mono path
                // below; scatter row_ptrs[..n_blk or ..tail] are non-null
                // by construction (padding rows only exist in the tail
                // panel, which uses the tail kernel).
                let u_ptr = self.u.as_ptr().add(self.u.block_offset(i, k, t));
                let v_p = self.v.as_ptr().add(self.v.block_offset(k, j, t));
                let x_p = self.x.get().add(self.x_meta.block_offset(i, j, t));
                if is_last_k {
                    let kern = if is_tail_panel {
                        jk.scatter_tail.as_ref().expect("tail kernel compiled")
                    } else {
                        &jk.scatter_full
                    };
                    kern.call_scatter(u_ptr, v_p, x_p, row_ptrs.as_ptr());
                } else if k == 0 {
                    jk.block0.as_ref().expect("block0 compiled").call(u_ptr, v_p, x_p);
                } else {
                    jk.block1.as_ref().expect("block1 compiled").call(u_ptr, v_p, x_p);
                }
            }
            return;
        }

        let last_i = self.row_blocks - 1;
        for k in 0..self.k_blocks {
            let is_last_k = k + 1 == self.k_blocks;
            let next = if i < last_i {
                (
                    self.u.as_ptr().wrapping_add(self.u.block_offset(i + 1, k, t)),
                    self.x.get().wrapping_add(self.x_meta.block_offset(i + 1, j, t))
                        as *const f32,
                )
            } else {
                (std::ptr::null(), std::ptr::null())
            };
            let output = if is_last_k {
                Output::Scatter {
                    row_ptrs: row_ptrs.as_ptr(),
                    group_stride: self.group_stride,
                    streaming: self.streaming,
                }
            } else {
                Output::Block
            };
            // SAFETY: block offsets for (t, i, j, k) are in bounds of
            // their panel allocations by construction of the panel
            // metadata; panel (t, j, i) is owned by this task.
            let (u_blk, v_blk, x_blk) = (
                self.u.as_ptr().add(self.u.block_offset(i, k, t)),
                self.v.as_ptr().add(self.v.block_offset(k, j, t)),
                self.x.get().add(self.x_meta.block_offset(i, j, t)),
            );
            let args = MicroArgs {
                u: u_blk,
                v: v_blk,
                x: x_blk,
                c_blk: self.c_blk,
                cp_blk: self.cp_blk,
                beta: k > 0,
                next_u: next.0,
                next_x: next.1,
                output,
            };
            // SAFETY: panel (t, j, i) is owned by this task; pointers are
            // in bounds; scatter targets are 64-byte aligned (all offsets
            // are multiples of S) and disjoint from u/v/x.
            microkernel(self.n_blk, &args);
        }
    }
}

/// Operation ⑤+⑥: multiply transformed inputs by transformed kernels.
/// Reads `scratch.u` / `scratch.v`, produces the tile-major `scratch.y`
/// (`scratch.x` holds the partial sums of all but the last reduction
/// block).
pub fn multiply(
    layer: &WinogradLayer,
    scratch: &mut Scratch,
    exec: &dyn Executor,
) -> Result<(), WinoError> {
    scratch.materialise_v()?;
    scratch.materialise()?;
    let Scratch { u, v, x, y, .. } = scratch;
    check_kernel_transforms(layer, v)?;
    multiply_into(layer, u, v, x, y, exec)
}

/// `v` must be kernel transforms of `layer`'s shape and blocking.
pub(crate) fn check_kernel_transforms(
    layer: &WinogradLayer,
    v: &BlockedMatrices,
) -> Result<(), WinoError> {
    ensure_eq("kernel-transform tile count", layer.t_vol(), v.t_count())?;
    ensure_eq("kernel-transform rows", layer.shape.in_channels, v.rows())?;
    ensure_eq("kernel-transform cols", layer.shape.out_channels, v.cols())?;
    ensure_eq("kernel-transform C_blk", layer.block.c_blk, v.rb())?;
    ensure_eq("kernel-transform C'_blk", layer.block.cp_blk, v.cb())
}

/// As [`multiply`], but against externally stored kernel transforms — the
/// inference-only "FX" mode (§4.2 "Inference only"): `V` is memoised once
/// per network and `scratch.v` is never touched.
pub fn multiply_with(
    layer: &WinogradLayer,
    scratch: &mut Scratch,
    v_ext: &wino_tensor::BlockedMatrices,
    exec: &dyn Executor,
) -> Result<(), WinoError> {
    check_kernel_transforms(layer, v_ext)?;
    scratch.materialise()?;
    multiply_into(layer, &scratch.u, v_ext, &mut scratch.x, &mut scratch.y, exec)
}

/// The fork–join of [`multiply`] / [`multiply_with`] on checked,
/// allocated buffers.
fn multiply_into(
    layer: &WinogradLayer,
    u: &BlockedMatrices,
    v: &BlockedMatrices,
    x: &mut BlockedMatrices,
    y: &mut TileMajor,
    exec: &dyn Executor,
) -> Result<(), WinoError> {
    let t_vol = layer.t_vol();
    let row_blocks = u.row_blocks();
    let col_blocks = v.col_blocks();

    let dims = [t_vol, col_blocks, row_blocks];
    let (x_ptr, y_ptr) = (x.as_mut_ptr(), y.as_mut_ptr());
    let ctx = Stage2Ctx::new(layer, u, v, x_ptr, x, y_ptr, y);
    let probe = exec.probe();
    let stage_start = span_start(probe);

    exec.run_grid(&dims, &|_slot, flat| {
        let i = flat % row_blocks;
        let j = (flat / row_blocks) % col_blocks;
        let t = flat / (row_blocks * col_blocks);
        // SAFETY: the grid enumerates each (t, j, i) exactly once, so
        // tasks own disjoint panels.
        unsafe { ctx.panel(t, j, i) };
    })?;
    // SAFETY: the coordinator thread, after the join.
    unsafe { record_coord(probe, wino_probe::SpanCategory::ElementwiseGemm, stage_start) };
    #[cfg(feature = "fault-inject")]
    if wino_sched::fault::take_poison_stage(2) {
        y.as_mut_slice()[0] = f32::NAN;
    }
    #[cfg(feature = "fault-inject")]
    if let Some(kind) = wino_sched::fault::take_corruption(2) {
        corrupt_y(y.as_mut_slice(), kind);
    }
    Ok(())
}

/// Apply one armed corruption to the transformed-output tensor `y` (or
/// to one panel's tile-major chunks in a ring) — the deterministic fault
/// model for the accuracy-sentinel tests. All three kinds keep the data
/// *finite*, so `check_finite` cannot see them: only output verification
/// can.
#[cfg(feature = "fault-inject")]
pub(crate) fn corrupt_y(y: &mut [f32], kind: wino_sched::fault::CorruptKind) {
    use wino_sched::fault::CorruptKind;
    match kind {
        // Flip a high mantissa/exponent bit of one element: a large but
        // finite single-element excursion (bit 27 keeps the exponent
        // below the infinity threshold for tensor-scale values).
        CorruptKind::BitFlip => {
            let i = y.len() / 3;
            y[i] = f32::from_bits(y[i].to_bits() ^ (1 << 27));
        }
        // Overwrite a stretch with subnormals: numerically near-zero
        // (silently wrong results) and a throughput hazard on cores
        // that microcode-assist denormal arithmetic.
        CorruptKind::DenormalStorm => {
            let n = y.len();
            for v in y[n / 4..n / 2].iter_mut() {
                *v = 1.0e-40;
            }
        }
        // Add a finite bias to a block of elements: the classic silent
        // data corruption — no NaN, no Inf, plausible magnitudes
        // elsewhere, wrong answer.
        CorruptKind::SilentBias => {
            let n = y.len();
            for v in y[0..n / 8].iter_mut() {
                *v += 64.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ConvOptions, WinogradLayer};
    use wino_sched::{SerialExecutor, StaticExecutor};
    use wino_tensor::ConvShape;

    fn make(c: usize, cp: usize) -> (WinogradLayer, Scratch) {
        let s = ConvShape::new(2, c, cp, &[10, 10], &[3, 3], &[1, 1]).unwrap();
        let layer = WinogradLayer::new(s, &[4, 4], ConvOptions::default()).unwrap();
        let scratch = Scratch::new(&layer, 4);
        (layer, scratch)
    }

    /// Fill `U` and `V` by hand. On these small shapes the plans are
    /// fused, whose scratch holds no `u` until a stage asks: allocate it
    /// first, or the fill — and every check after it — would be vacuous.
    fn fill_uv(scratch: &mut Scratch) {
        scratch.materialise().unwrap();
        assert!(!scratch.u.as_slice().is_empty() && !scratch.y.as_slice().is_empty());
        for (i, f) in scratch.u.as_mut_slice().iter_mut().enumerate() {
            *f = ((i.wrapping_mul(2654435761) >> 18) & 0x3f) as f32 / 32.0 - 1.0;
        }
        for (i, f) in scratch.v.as_mut_slice().iter_mut().enumerate() {
            *f = ((i.wrapping_mul(0x9E3779B9) >> 18) & 0x3f) as f32 / 32.0 - 1.0;
        }
    }

    /// Oracle: y(b, c', n, t) = Σ_c U_t[n', c] · V_t[c, c'].
    fn oracle(layer: &WinogradLayer, scratch: &Scratch, b: usize, cp: usize, n: usize, t: usize) -> f32 {
        let n_prime = b * layer.n_tiles() + n;
        let mut acc = 0.0f64;
        for c in 0..layer.shape.in_channels {
            acc += scratch.u.get(t, n_prime, c) as f64 * scratch.v.get(t, c, cp) as f64;
        }
        acc as f32
    }

    fn check_y(layer: &WinogradLayer, scratch: &Scratch) {
        for b in 0..layer.shape.batch {
            for cp in [0, 15, 17, layer.shape.out_channels - 1] {
                for n in [0, layer.n_tiles() - 1] {
                    for t in [0, layer.t_vol() / 2, layer.t_vol() - 1] {
                        let got = scratch.y.tile(b, cp / S, n)[t * S + cp % S];
                        let want = oracle(layer, scratch, b, cp, n, t);
                        assert!(
                            (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                            "b={b} c'={cp} n={n} t={t}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_scatter_produces_correct_y() {
        // C' = 48 plans one column block three vectors wide, so rows also
        // scatter `group_stride` and `2·group_stride` away.
        for cp in [32, 48] {
            let (layer, mut scratch) = make(32, cp);
            fill_uv(&mut scratch);
            multiply(&layer, &mut scratch, &SerialExecutor).unwrap();
            check_y(&layer, &scratch);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let (layer, mut s1) = make(32, 32);
        let (_, mut s2) = make(32, 32);
        fill_uv(&mut s1);
        fill_uv(&mut s2);
        multiply(&layer, &mut s1, &SerialExecutor).unwrap();
        let pool = StaticExecutor::new(4);
        multiply(&layer, &mut s2, &pool).unwrap();
        assert_eq!(s1.y.as_slice(), s2.y.as_slice());
    }

    #[test]
    fn multi_k_block_reduction() {
        // Force C > C_blk so beta-accumulation + fused scatter interact.
        let s = ConvShape::new(1, 64, 32, &[6, 6], &[3, 3], &[1, 1]).unwrap();
        let opts = ConvOptions {
            block: Some(wino_gemm::BlockShape { n_blk: 5, c_blk: 32, cp_blk: 16 }),
            ..Default::default()
        };
        let layer = WinogradLayer::new(s, &[2, 2], opts).unwrap();
        let mut scratch = Scratch::new(&layer, 1);
        fill_uv(&mut scratch);
        multiply(&layer, &mut scratch, &SerialExecutor).unwrap();
        check_y(&layer, &scratch);
    }
}
