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
//! `Gemm` is the stage-2 engine of one blocking: built once per plan on
//! the plan's [`Stage2Backend`] — the Rust micro-kernel or machine code
//! generated per `(n_blk, C_blk, C'_blk, β)` (§4.3.1) — and called one
//! reduction block of one panel at a time through `Gemm::block`. Every
//! schedule multiplies through it: the three stages here, at the plan's
//! blocking into `Y`; the ring of `fused.rs` one `n_blk`-row panel at a
//! time, scattering into its thread's ring; and the dual ring one
//! `C_blk × C'_blk` block of `V̂` at a time, through block kernels alone,
//! into an accumulator in its thread's ring that stage 3 reads in place.
//! The three stages are the reference both rings are tested `==` against.

// Index-based loops are the idiom throughout: most walk several
// arrays with derived offsets, where iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

use wino_gemm::{microkernel, BlockShape, MicroArgs, Output, MAX_N_BLK};
use wino_jit::{JitError, JitKernel, JitOutput};
use wino_sched::probed::{record_coord, span_start};
use wino_sched::Executor;
use wino_simd::S;
use wino_tensor::BlockedMatrices;

use crate::error::{ensure_eq, WinoError};
use crate::layout::TileMajor;
use crate::plan::{PlanError, Scratch, Stage2Backend, WinogradLayer};
use crate::stage1::MutPtr;

/// No next panel to prefetch.
pub(crate) const NO_PREFETCH: (*const f32, *const f32) = (std::ptr::null(), std::ptr::null());

/// The stage-2 kernels of one blocking on one engine. Each reduction
/// block but the last stores its partial sums into the `X̂` block; the
/// last either does too ([`JitOutput::Block`]: the dual ring, which reads
/// its accumulator in place) or scatters each row's `C'_blk` columns to
/// `C'_blk/S` vectors `group_stride` floats apart
/// ([`JitOutput::Scatter`]).
pub(crate) struct Gemm {
    block: BlockShape,
    k_blocks: usize,
    /// Where the last reduction block goes; a scatter streams when the
    /// plan streams ([`WinogradLayer::streams`]).
    output: JitOutput,
    /// [`Stage2Backend::Jit`]'s machine code; `None` runs the Rust
    /// micro-kernel.
    jit: Option<JitKernels>,
}

/// The machine code of one blocking: the β = 0 / β = 1 block kernels of
/// the reduction blocks that store into `X̂`, and the scatter kernels of a
/// scattering last block — full-height panels and the tail panel.
struct JitKernels {
    block0: Option<JitKernel>,
    block1: Option<JitKernel>,
    full: Option<JitKernel>,
    tail: Option<JitKernel>,
}

impl Gemm {
    /// The kernels of `block` on `engine`, for a layer of `c` input
    /// channels and `rows` panel rows, its last reduction block written to
    /// `output`. The JIT compiles them here, once — the paper generates
    /// them "on demand, … compiled to a shared library, and loaded"; here
    /// they are emitted straight into executable pages.
    pub(crate) fn new(
        engine: Stage2Backend,
        block: BlockShape,
        c: usize,
        rows: usize,
        output: JitOutput,
    ) -> Result<Gemm, PlanError> {
        let k_blocks = c / block.c_blk;
        let jit = match engine {
            Stage2Backend::Mono => None,
            Stage2Backend::Jit => {
                let compiled = JitKernels::compile(block, k_blocks, rows % block.n_blk, output);
                Some(compiled.map_err(|e| PlanError::Jit {
                    reason: match e {
                        JitError::Avx512Unavailable => "AVX-512F not available (CPU or WINO_SIMD)",
                        JitError::BadParams(reason) => reason,
                        JitError::Os(_) => "executable mapping failed",
                    },
                })?)
            }
        };
        Ok(Gemm { block, k_blocks, output, jit })
    }

    /// The blocking these kernels multiply at.
    pub(crate) fn shape(&self) -> BlockShape {
        self.block
    }

    /// Reduction block `k` of one panel with `rows` real rows (fewer than
    /// `n_blk` only in the tail panel): `x = u·v`, or `x += u·v` past the
    /// first block; a scattering last block instead scatters each row `r`
    /// to `row_ptrs[r]` (see [`Gemm`]). A block kernel multiplies all
    /// `n_blk` rows, the tail panel's padding rows too. The Rust kernel
    /// prefetches the `next` panel's `u` and `x` ([`NO_PREFETCH`]: none),
    /// and multiplies only the real rows of a scatter — tiling never
    /// changes an element's FMA chain, so that is the JIT's tail kernel
    /// bit for bit.
    ///
    /// # Safety
    /// `u`, `v` and `x` must be valid `n_blk × C_blk`, `C_blk × C'_blk` and
    /// `n_blk × C'_blk` blocks (`x` is not dereferenced by a β = 0
    /// scatter); on a scattering last block `row_ptrs[..rows]` must be
    /// 64-byte aligned and valid for the scatter, and disjoint from `u`,
    /// `v`, `x`. The caller owns what is written.
    pub(crate) unsafe fn block(
        &self,
        rows: usize,
        k: usize,
        (u, v, x): (*const f32, *const f32, *mut f32),
        row_ptrs: &[*mut f32; MAX_N_BLK],
        next: (*const f32, *const f32),
    ) {
        let BlockShape { n_blk, c_blk, cp_blk } = self.block;
        let scatter = match self.output {
            JitOutput::Scatter { group_stride, streaming } if k + 1 == self.k_blocks => {
                Some(Output::Scatter { row_ptrs: row_ptrs.as_ptr(), group_stride, streaming })
            }
            _ => None,
        };
        match &self.jit {
            Some(jk) if scatter.is_some() => {
                let kernel = if rows < n_blk { jk.tail.as_ref() } else { jk.full.as_ref() };
                // SAFETY: compiled for (rows, C_blk, C'_blk, β = k > 0) at this
                // group stride and store flavour; the caller's contract.
                kernel.expect("scatter kernel compiled").call_scatter(u, v, x, row_ptrs.as_ptr());
            }
            // SAFETY: compiled for (n_blk, C_blk, C'_blk, β = 0); the caller's contract.
            Some(jk) if k == 0 => jk.block0.as_ref().expect("block0 compiled").call(u, v, x),
            // SAFETY: compiled for (n_blk, C_blk, C'_blk, β = 1); the caller's contract.
            Some(jk) => jk.block1.as_ref().expect("block1 compiled").call(u, v, x),
            // SAFETY: the caller's contract is the micro-kernel's.
            None => microkernel(
                if scatter.is_some() { rows } else { n_blk },
                &MicroArgs {
                    u,
                    v,
                    x,
                    c_blk,
                    cp_blk,
                    beta: k > 0,
                    next_u: next.0,
                    next_x: next.1,
                    output: scatter.unwrap_or(Output::Block),
                },
            ),
        }
    }
}

impl JitKernels {
    /// Compile `block`'s kernels for `k_blocks` reduction blocks and a tail
    /// panel of `tail` rows (0: none), the last block written to `output`.
    fn compile(
        block: BlockShape,
        k_blocks: usize,
        tail: usize,
        output: JitOutput,
    ) -> Result<JitKernels, JitError> {
        let BlockShape { n_blk, c_blk, cp_blk } = block;
        // A scattering last block runs a scatter kernel, so the block
        // kernels cover only the k-blocks before it; otherwise all of them.
        let scatters = output != JitOutput::Block;
        let blocks = if scatters { k_blocks - 1 } else { k_blocks };
        let plain = |beta| JitKernel::compile(n_blk, c_blk, cp_blk, beta);
        let scatter = |rows| JitKernel::compile_with_output(rows, c_blk, cp_blk, k_blocks > 1, output);
        Ok(JitKernels {
            block0: (blocks > 0).then(|| plain(false)).transpose()?,
            block1: (blocks > 1).then(|| plain(true)).transpose()?,
            full: scatters.then(|| scatter(n_blk)).transpose()?,
            tail: (scatters && tail != 0).then(|| scatter(tail)).transpose()?,
        })
    }
}

impl std::fmt::Debug for Gemm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let engine = if self.jit.is_some() { Stage2Backend::Jit } else { Stage2Backend::Mono };
        write!(f, "Gemm {{ {:?}, {engine:?}, {:?} }}", self.block, self.output)
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
/// allocated buffers: one task per panel `(t, j, i)`, its full reduction
/// over the `k` blocks, the last of which scatters its rows into `y`.
fn multiply_into(
    layer: &WinogradLayer,
    u: &BlockedMatrices,
    v: &BlockedMatrices,
    x: &mut BlockedMatrices,
    y: &mut TileMajor,
    exec: &dyn Executor,
) -> Result<(), WinoError> {
    let (row_blocks, col_blocks) = (u.row_blocks(), v.col_blocks());
    let (rows, n_tiles, n_blk) = (layer.rows(), layer.n_tiles(), layer.block.n_blk);
    let k_blocks = layer.shape.in_channels / layer.block.c_blk;
    let (x_ptr, y_ptr) = (MutPtr(x.as_mut_ptr()), MutPtr(y.as_mut_ptr()));
    let (x, y_meta) = (&*x, &*y);
    let probe = exec.probe();
    let stage_start = span_start(probe);

    exec.run_grid(&[layer.t_vol(), col_blocks, row_blocks], &|_slot, flat| {
        let i = flat % row_blocks;
        let j = (flat / row_blocks) % col_blocks;
        let t = flat / (row_blocks * col_blocks);
        let (row0, og0) = (i * n_blk, j * layer.block.cp_blk / S);
        let panel_rows = n_blk.min(rows - row0);
        let mut row_ptrs = [std::ptr::null_mut::<f32>(); MAX_N_BLK];
        for r in 0..panel_rows {
            let (b, n) = ((row0 + r) / n_tiles, (row0 + r) % n_tiles);
            // SAFETY: position `t` of tile (b, og0, n), inside `y`.
            row_ptrs[r] = unsafe { y_ptr.get().add(y_meta.vec_offset(b, og0, n, t)) };
        }
        for k in 0..k_blocks {
            let next = if i + 1 < row_blocks {
                let next_x = x_ptr.get().wrapping_add(x.block_offset(i + 1, j, t));
                (u.as_ptr().wrapping_add(u.block_offset(i + 1, k, t)), next_x as *const f32)
            } else {
                NO_PREFETCH
            };
            // SAFETY: the grid enumerates each (t, j, i) exactly once, so
            // tasks own disjoint panels of `x` and disjoint tile rows of
            // `y`; block offsets are in bounds by construction of the
            // blocked metadata, and the scatter rows are 64-byte aligned.
            unsafe {
                let blocks = (
                    u.as_ptr().add(u.block_offset(i, k, t)),
                    v.as_ptr().add(v.block_offset(k, j, t)),
                    x_ptr.get().add(x.block_offset(i, j, t)),
                );
                layer.gemm.block(panel_rows, k, blocks, &row_ptrs, next);
            }
        }
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

    impl Gemm {
        /// Which of the JIT's `(block0, block1, full, tail)` kernels these
        /// kernels compiled.
        pub(crate) fn jit_kernels(&self) -> [bool; 4] {
            let jk = self.jit.as_ref().expect("JIT kernels");
            [jk.block0.is_some(), jk.block1.is_some(), jk.full.is_some(), jk.tail.is_some()]
        }
    }

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
