//! Runtime code generation of the batched-GEMM micro-kernel (§4.3.1).
//!
//! For each `(n_blk, C_blk, C'_blk, β, output)` an x86-64 function is
//! emitted on demand. It computes what `wino_gemm::micro` computes, with
//! the same register tiles and the same strip walk
//! ([`wino_gemm::TileTable`], [`wino_gemm::strips`]), so the two agree
//! bit for bit:
//!
//! ```text
//! fn(u /*rdi*/, v /*rsi*/, x /*rdx*/, row_ptrs /*rcx, scatter only*/)
//! for each column strip of Q ≤ 4 vectors:            (r10 counts equal strips)
//!   for each row strip of R ≤ R_max(Q) rows:         (r9 counts equal strips)
//!     zmm0..zmm{R·Q-1} ← X̂ tile (β = 1) or zeroed (β = 0)
//!     rax ← C_blk / 4
//!   k:  4 ×  zmm24.. ← Q vectors of V̂[k, ·]           (one load each)
//!            per row j: zmm28.. ← bcst Û[j, k]         (one load)
//!                       Q × zmm_{j,q} += bcst · V̂_q    (register FMAs)
//!       add rdi, 16 ; add rsi, 4·row(V̂) ; dec rax ; jnz k
//!     C_blk mod 4 further steps, straight-line
//!     store the tile to X̂, or write it — streaming or plain stores — to
//!       row_ptrs[j] + column offset
//!     advance rdi / rdx / rcx to the next row strip, rewind rsi
//!   rewind the row pointers, advance rsi / rdx / r11 to the next columns
//! vzeroupper ; ret
//! ```
//!
//! **Deviation from the paper.** The paper unrolls the kernel fully and
//! precomputes every offset, because KNL decodes two instructions a
//! cycle from a kernel it re-runs out of L1I. On an AVX-512 Xeon the
//! unrolled kernel (75–308 KB for the shapes the planner picks) is larger
//! than L1I and fetch-bound from L2, and its `n_blk × 1` register block
//! issues one load per FMA. Here the `k`-loop is rolled (four steps per
//! trip), equal strips share one body through a counted loop, and
//! `code_bytes()` depends on the tile shapes only — a few KiB whatever
//! `C_blk` is.
//!
//! Correctness is established by differential testing against the
//! monomorphised Rust kernel (`==` on AVX-512) and the scalar reference
//! in `wino-gemm`.

use wino_gemm::{strips, TileTable, MAX_N_BLK};
use wino_tensor::BlockedMatrices;

use crate::encode::{Asm, Gpr};
use crate::exec::ExecBuffer;

/// Errors from kernel compilation.
#[derive(Debug)]
pub enum JitError {
    /// AVX-512F is not available to this process: the CPU lacks it, or
    /// `WINO_SIMD` lowered the vector backend below it
    /// ([`wino_simd::cpu_has_avx512f`]).
    Avx512Unavailable,
    /// Parameters outside the encodable/legal range (static reason code).
    BadParams(&'static str),
    /// mmap/mprotect failure.
    Os(std::io::Error),
}

impl std::fmt::Display for JitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JitError::Avx512Unavailable => write!(f, "AVX-512F not available (CPU or WINO_SIMD)"),
            JitError::BadParams(s) => write!(f, "bad JIT parameters: {s}"),
            JitError::Os(e) => write!(f, "executable mapping failed: {e}"),
        }
    }
}

impl std::error::Error for JitError {}

/// `k` steps per trip of the rolled reduction loop. Four already hide
/// the loop control (two pointer bumps and a fused `dec/jnz` behind
/// ≥ 64 FMAs on the planned tiles) and keep a tile body near 1 KiB.
const K_UNROLL: usize = 4;

/// The AVX-512 register file the emitted tiles are sized for.
const ZMM_REGS: usize = 32;
/// First of the (up to four) registers holding the current `V̂` row,
/// above the largest accumulator tile (24 registers).
const V_REG: u8 = 24;
/// First of the four registers the `Û` broadcasts rotate through.
const B_REG: u8 = 28;

/// Where a compiled kernel writes its result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JitOutput {
    /// Store accumulators back into the contiguous `X̂` block.
    Block,
    /// Operation ⑥: scatter row `j` to `row_ptrs[j] + q·group_stride`
    /// floats for each 16-wide column group `q` (`row_ptrs` is the
    /// kernel's 4th argument) — with non-temporal stores when `streaming`
    /// (the consumer is a barrier away), with plain ones otherwise (it
    /// reads the rows back out of this core's cache). Both are baked into
    /// the code: they are per-plan constants.
    Scatter { group_stride: usize, streaming: bool },
}

/// Emit `body` `count` times: once as is, or as a loop counted down in
/// `counter`.
fn repeat(a: &mut Asm, counter: Gpr, count: usize, body: impl FnOnce(&mut Asm)) {
    if count > 1 {
        a.mov_imm32(counter, count as u32);
    }
    let top = a.len();
    body(a);
    if count > 1 {
        a.dec(counter);
        a.jnz(top);
    }
}

/// The strips of [`wino_gemm::strips`] as runs of equal length
/// `(len, count)` — at most two, the longer strips first.
fn strip_runs(n: usize, max: usize) -> Vec<(usize, usize)> {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for (_, len) in strips(n, max) {
        match runs.last_mut() {
            Some((l, count)) if *l == len => *count += 1,
            _ => runs.push((len, 1)),
        }
    }
    runs
}

/// Byte offset of float `i`, as a displacement.
fn disp(floats: usize) -> i32 {
    (floats * 4) as i32
}

/// One `r × q` register tile at the current `rdi` (`Û` row strip), `rsi`
/// (`V̂` column strip), `rdx` (`X̂` tile), `rcx` (row-pointer strip) and
/// `r11` (scatter byte offset of the column strip); leaves the row
/// pointers on the next row strip and `rsi` where it was.
fn emit_tile(a: &mut Asm, r: usize, q: usize, c_blk: usize, cp_blk: usize, beta: bool, output: JitOutput) {
    let acc = |j: usize, qq: usize| (j * q + qq) as u8;
    for j in 0..r {
        for qq in 0..q {
            if beta {
                a.vmovups_load(acc(j, qq), Gpr::Rdx, disp(j * cp_blk + qq * 16));
            } else {
                a.vzero(acc(j, qq));
            }
        }
    }
    // Step `kk` past the current rdi / rsi: every element's FMA chain
    // runs k = 0..c_blk in order, as in the Rust kernel.
    let step = |a: &mut Asm, kk: usize| {
        for qq in 0..q {
            a.vmovups_load(V_REG + qq as u8, Gpr::Rsi, disp(kk * cp_blk + qq * 16));
        }
        for j in 0..r {
            let b = B_REG + (j % 4) as u8;
            a.vbroadcastss(b, Gpr::Rdi, disp(j * c_blk + kk));
            for qq in 0..q {
                a.vfmadd231ps(acc(j, qq), b, V_REG + qq as u8);
            }
        }
    };
    let trips = c_blk / K_UNROLL;
    if trips > 0 {
        repeat(a, Gpr::Rax, trips, |a| {
            for kk in 0..K_UNROLL {
                step(a, kk);
            }
            a.add_imm32(Gpr::Rdi, disp(K_UNROLL));
            a.add_imm32(Gpr::Rsi, disp(K_UNROLL * cp_blk));
        });
    }
    for kk in 0..c_blk % K_UNROLL {
        step(a, kk);
    }
    match output {
        JitOutput::Block => {
            for j in 0..r {
                for qq in 0..q {
                    a.vmovups_store(Gpr::Rdx, disp(j * cp_blk + qq * 16), acc(j, qq));
                }
            }
        }
        JitOutput::Scatter { group_stride, streaming } => {
            // Operation ⑥: fetch each row's destination from the pointer
            // table, move to this column strip, write the registers out.
            for j in 0..r {
                a.mov_load64(Gpr::R8, Gpr::Rcx, (j * 8) as i32);
                a.add_reg(Gpr::R8, Gpr::R11);
                for qq in 0..q {
                    if streaming {
                        a.vmovntps(Gpr::R8, disp(qq * group_stride), acc(j, qq));
                    } else {
                        a.vmovups_store(Gpr::R8, disp(qq * group_stride), acc(j, qq));
                    }
                }
            }
            a.add_imm32(Gpr::Rcx, (r * 8) as i32);
        }
    }
    let walked = trips * K_UNROLL;
    a.add_imm32(Gpr::Rdi, disp(r * c_blk) - disp(walked));
    a.add_imm32(Gpr::Rsi, -disp(walked * cp_blk));
    a.add_imm32(Gpr::Rdx, disp(r * cp_blk));
}

/// The machine code of one kernel (parameters already validated).
fn emit(n_blk: usize, c_blk: usize, cp_blk: usize, beta: bool, output: JitOutput) -> Vec<u8> {
    let table = TileTable::new(ZMM_REGS);
    let mut a = Asm::new();
    if matches!(output, JitOutput::Scatter { .. }) {
        a.mov_imm32(Gpr::R11, 0);
    }
    for (q, q_count) in strip_runs(cp_blk / 16, table.q_max()) {
        repeat(&mut a, Gpr::R10, q_count, |a| {
            for (r, r_count) in strip_runs(n_blk, table.r_max(q)) {
                repeat(a, Gpr::R9, r_count, |a| emit_tile(a, r, q, c_blk, cp_blk, beta, output));
            }
            // Back to the first row strip, on to the next column strip.
            a.add_imm32(Gpr::Rdi, -disp(n_blk * c_blk));
            a.add_imm32(Gpr::Rdx, disp(q * 16) - disp(n_blk * cp_blk));
            a.add_imm32(Gpr::Rsi, disp(q * 16));
            if let JitOutput::Scatter { group_stride, .. } = output {
                a.add_imm32(Gpr::Rcx, -((n_blk * 8) as i32));
                a.add_imm32(Gpr::R11, disp(q * group_stride));
            }
        });
    }
    a.vzeroupper();
    a.ret();
    a.code
}

/// A compiled micro-kernel `X̂ = β·X̂ + Û·V̂` for fixed
/// `(n_blk, C_blk, C'_blk, β, output)`.
pub struct JitKernel {
    buf: ExecBuffer,
    n_blk: usize,
    c_blk: usize,
    cp_blk: usize,
    beta: bool,
    output: JitOutput,
    code_bytes: usize,
}

impl JitKernel {
    /// Emit and map a block-output kernel.
    pub fn compile(n_blk: usize, c_blk: usize, cp_blk: usize, beta: bool) -> Result<JitKernel, JitError> {
        Self::compile_with_output(n_blk, c_blk, cp_blk, beta, JitOutput::Block)
    }

    /// Emit and map a kernel with an explicit output mode.
    pub fn compile_with_output(
        n_blk: usize,
        c_blk: usize,
        cp_blk: usize,
        beta: bool,
        output: JitOutput,
    ) -> Result<JitKernel, JitError> {
        if !wino_simd::cpu_has_avx512f() {
            return Err(JitError::Avx512Unavailable);
        }
        if n_blk == 0 || n_blk > MAX_N_BLK {
            return Err(JitError::BadParams("n_blk out of 1..=30"));
        }
        if cp_blk == 0 || !cp_blk.is_multiple_of(16) {
            return Err(JitError::BadParams("cp_blk not a positive multiple of 16"));
        }
        if c_blk == 0 {
            return Err(JitError::BadParams("c_blk = 0"));
        }
        // disp32 bound: the largest offset is c_blk·cp_blk·4 bytes.
        let max_off = (n_blk.max(c_blk) * c_blk.max(cp_blk) + cp_blk) * 4;
        if max_off > i32::MAX as usize / 2 {
            return Err(JitError::BadParams("block too large for disp32 addressing"));
        }
        // A column strip (≤ 4 groups) is addressed by displacement and
        // stepped over with one `add imm32`.
        if let JitOutput::Scatter { group_stride, .. } = output {
            if group_stride > i32::MAX as usize / 16 {
                return Err(JitError::BadParams("scatter group stride too large for disp32"));
            }
        }

        let code = emit(n_blk, c_blk, cp_blk, beta, output);
        let code_bytes = code.len();
        let buf = ExecBuffer::from_code(&code).map_err(JitError::Os)?;
        Ok(JitKernel { buf, n_blk, c_blk, cp_blk, beta, output, code_bytes })
    }

    pub fn n_blk(&self) -> usize {
        self.n_blk
    }

    pub fn c_blk(&self) -> usize {
        self.c_blk
    }

    pub fn cp_blk(&self) -> usize {
        self.cp_blk
    }

    pub fn beta(&self) -> bool {
        self.beta
    }

    /// Size of the generated machine code in bytes.
    pub fn code_bytes(&self) -> usize {
        self.code_bytes
    }

    pub fn output(&self) -> JitOutput {
        self.output
    }

    /// Invoke a block-output kernel.
    ///
    /// # Safety
    /// * `u` valid for `n_blk·c_blk` reads,
    /// * `v` valid for `c_blk·cp_blk` reads,
    /// * `x` valid for `n_blk·cp_blk` reads and writes,
    /// * the kernel was compiled with [`JitOutput::Block`].
    ///
    /// The buffers must not overlap.
    #[inline]
    pub unsafe fn call(&self, u: *const f32, v: *const f32, x: *mut f32) {
        debug_assert_eq!(self.output, JitOutput::Block);
        let f: extern "sysv64" fn(*const f32, *const f32, *mut f32) =
            std::mem::transmute(self.buf.entry());
        f(u, v, x);
    }

    /// Invoke a scatter-output kernel.
    ///
    /// # Safety
    /// As [`Self::call`], plus:
    /// * the kernel was compiled with [`JitOutput::Scatter`],
    /// * `row_ptrs` holds `n_blk` non-null pointers, each 64-byte aligned
    ///   and valid for `(cp_blk/16 - 1)·group_stride + 16` float writes,
    ///   disjoint from `u`/`v`/`x`,
    /// * `x` is read when `β = 1` (never written; with `β = 0` it is not
    ///   dereferenced at all).
    ///
    /// A `streaming` kernel's stores require an `sfence` (or barrier)
    /// before the data is read by another thread.
    #[inline]
    pub unsafe fn call_scatter(
        &self,
        u: *const f32,
        v: *const f32,
        x: *const f32,
        row_ptrs: *const *mut f32,
    ) {
        debug_assert!(matches!(self.output, JitOutput::Scatter { .. }));
        let f: extern "sysv64" fn(*const f32, *const f32, *const f32, *const *mut f32) =
            std::mem::transmute(self.buf.entry());
        f(u, v, x, row_ptrs);
    }
}

/// A β = 0 / β = 1 kernel pair for one blocking shape (the unit the
/// paper's runtime generates per layer).
pub struct JitKernelPair {
    pub k0: JitKernel,
    pub k1: JitKernel,
}

impl JitKernelPair {
    pub fn compile(n_blk: usize, c_blk: usize, cp_blk: usize) -> Result<JitKernelPair, JitError> {
        Ok(JitKernelPair {
            k0: JitKernel::compile(n_blk, c_blk, cp_blk, false)?,
            k1: JitKernel::compile(n_blk, c_blk, cp_blk, true)?,
        })
    }
}

/// Batched product `X_t = U_t · V_t` driven entirely by JIT-compiled
/// kernels — the paper's loop order, drop-in comparable with
/// [`wino_gemm::batched_gemm`].
pub fn jit_batched_gemm(
    u: &BlockedMatrices,
    v: &BlockedMatrices,
    x: &mut BlockedMatrices,
    pair: &JitKernelPair,
) {
    assert_eq!(u.t_count(), v.t_count());
    assert_eq!(u.t_count(), x.t_count());
    assert_eq!(u.cols(), v.rows());
    assert_eq!(u.rows(), x.rows());
    assert_eq!(v.cols(), x.cols());
    assert_eq!(u.rb(), pair.k0.n_blk());
    assert_eq!(u.cb(), pair.k0.c_blk());
    assert_eq!(v.cb(), pair.k0.cp_blk());
    assert_eq!(v.rows() % v.rb(), 0);

    let k_blocks = v.rows() / v.rb();
    let x_ptr = x.as_mut_ptr();
    for t in 0..u.t_count() {
        for j in 0..v.col_blocks() {
            for k in 0..k_blocks {
                let kern = if k == 0 { &pair.k0 } else { &pair.k1 };
                for i in 0..u.row_blocks() {
                    // SAFETY: block offsets are in bounds; buffers are
                    // disjoint allocations.
                    unsafe {
                        kern.call(
                            u.as_ptr().add(u.block_offset(i, k, t)),
                            v.as_ptr().add(v.block_offset(k, j, t)),
                            x_ptr.add(x.block_offset(i, j, t)),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_gemm::microkernel_reference;
    use wino_simd::AlignedVec;

    fn have_avx512() -> bool {
        if wino_simd::cpu_has_avx512f() {
            true
        } else {
            eprintln!("skipping JIT test: no AVX-512F on this CPU");
            false
        }
    }

    fn filled(n: usize, seed: u32) -> AlignedVec {
        let mut v = AlignedVec::zeroed(n);
        let mut s = seed.wrapping_mul(0x9E3779B9).wrapping_add(12345);
        for x in v.iter_mut() {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            *x = ((s >> 10) as f32 / (1 << 22) as f32) - 1.0;
        }
        v
    }

    fn check(n_blk: usize, c_blk: usize, cp_blk: usize, beta: bool) {
        let u = filled(n_blk * c_blk, 1);
        let v = filled(c_blk * cp_blk, 2);
        let x0 = filled(n_blk * cp_blk, 3);
        let mut x_jit = x0.clone();
        let mut x_ref: Vec<f32> = x0.as_slice().to_vec();

        let kern = JitKernel::compile(n_blk, c_blk, cp_blk, beta).unwrap();
        // SAFETY: buffers are sized to the compiled block shape; AVX-512
        // availability was checked by the caller.
        unsafe { kern.call(u.as_ptr(), v.as_ptr(), x_jit.as_mut_ptr()) };
        microkernel_reference(n_blk, &u, &v, &mut x_ref, c_blk, cp_blk, beta);
        for i in 0..n_blk * cp_blk {
            assert!(
                (x_jit[i] - x_ref[i]).abs() <= 1e-4 * x_ref[i].abs().max(1.0),
                "n_blk={n_blk} c_blk={c_blk} cp_blk={cp_blk} beta={beta} elem {i}: {} vs {}",
                x_jit[i],
                x_ref[i]
            );
        }
    }

    #[test]
    fn all_n_blk_values_match_reference() {
        if !have_avx512() {
            return;
        }
        for n_blk in 1..=MAX_N_BLK {
            check(n_blk, 32, 32, false);
        }
    }

    #[test]
    fn beta_accumulates() {
        if !have_avx512() {
            return;
        }
        for n_blk in [1, 8, 16, 29, 30] {
            check(n_blk, 48, 32, true);
        }
    }

    #[test]
    fn paper_blocking_sizes() {
        if !have_avx512() {
            return;
        }
        check(8, 128, 128, false);
        check(8, 128, 128, true);
        check(14, 128, 128, true);
        check(30, 64, 64, false);
        check(6, 512, 32, true);
    }

    #[test]
    fn odd_reduction_lengths() {
        if !have_avx512() {
            return;
        }
        // c_blk is not constrained to multiples of 16 at the kernel level.
        check(4, 1, 16, false);
        check(4, 3, 16, true);
        check(7, 33, 48, false);
    }

    #[test]
    fn multiple_column_groups() {
        if !have_avx512() {
            return;
        }
        check(5, 16, 64, false);
        check(5, 16, 128, true);
    }

    #[test]
    fn jit_gemm_matches_rust_gemm() {
        if !have_avx512() {
            return;
        }
        let (t, rows, c, cp, nb, cb, cpb) = (3, 37, 64, 64, 7, 32, 32);
        let mut u = BlockedMatrices::new(t, rows, c, nb, cb);
        let mut v = BlockedMatrices::new(t, c, cp, cb, cpb);
        for (i, f) in u.as_mut_slice().iter_mut().enumerate() {
            *f = ((i * 31) % 17) as f32 * 0.1 - 0.8;
        }
        for (i, f) in v.as_mut_slice().iter_mut().enumerate() {
            *f = ((i * 13) % 23) as f32 * 0.1 - 1.1;
        }
        let mut x_jit = BlockedMatrices::new(t, rows, cp, nb, cpb);
        let mut x_rust = BlockedMatrices::new(t, rows, cp, nb, cpb);
        let pair = JitKernelPair::compile(nb, cb, cpb).unwrap();
        jit_batched_gemm(&u, &v, &mut x_jit, &pair);
        wino_gemm::batched_gemm(&u, &v, &mut x_rust);
        // Same FMA chain per element in both engines.
        assert_eq!(x_jit.as_slice(), x_rust.as_slice());
    }

    #[test]
    fn scatter_kernel_matches_reference() {
        if !have_avx512() {
            return;
        }
        for (n_blk, c_blk, cp_blk, beta, streaming) in [
            (3usize, 16usize, 32usize, false, true),
            (8, 48, 64, true, true),
            (8, 48, 64, true, false),
            (1, 5, 16, false, false),
        ] {
            let u = filled(n_blk * c_blk, 11);
            let v = filled(c_blk * cp_blk, 12);
            let x0 = filled(n_blk * cp_blk, 13);
            let mut x_ref: Vec<f32> = x0.as_slice().to_vec();
            microkernel_reference(n_blk, &u, &v, &mut x_ref, c_blk, cp_blk, beta);

            // Destination arena: rows 256 floats apart, groups 64 apart.
            let group_stride = 64usize;
            let mut arena = AlignedVec::zeroed(n_blk * 256 + (cp_blk / 16) * group_stride);
            let base = arena.as_mut_ptr();
            // SAFETY: row offsets stay within the arena sized just above.
            let row_ptrs: Vec<*mut f32> = (0..n_blk).map(|j| unsafe { base.add(j * 256) }).collect();

            let kern = JitKernel::compile_with_output(
                n_blk,
                c_blk,
                cp_blk,
                beta,
                JitOutput::Scatter { group_stride, streaming },
            )
            .unwrap();
            // SAFETY: buffers match the compiled block shape; row pointers
            // are aligned arena slots with room for every column group.
            unsafe { kern.call_scatter(u.as_ptr(), v.as_ptr(), x0.as_ptr(), row_ptrs.as_ptr()) };
            wino_simd::sfence();

            for j in 0..n_blk {
                for q in 0..cp_blk / 16 {
                    for lane in 0..16 {
                        let got = arena[j * 256 + q * group_stride + lane];
                        let want = x_ref[j * cp_blk + q * 16 + lane];
                        assert!(
                            (got - want).abs() <= 1e-4 * want.abs().max(1.0),
                            "n_blk={n_blk} beta={beta} streaming={streaming} row {j} group {q} lane {lane}: {got} vs {want}"
                        );
                    }
                }
            }
            // β = 1 reads X but never writes it.
            assert_eq!(x0.as_slice().len(), n_blk * cp_blk);
        }
    }

    /// Run one panel through the JIT kernel and through
    /// `wino_gemm::microkernel` (the AVX-512 arm, since the JIT exists)
    /// and demand identical bits: both accumulate `fma(û, v̂, acc)` over
    /// `k = 0..c_blk` in order, from `X̂` (β = 1) or zero. Instruction
    /// scheduling cannot change a chain of fused operations, and no
    /// unfused path exists on AVX-512 — only the `scalar` backend rounds
    /// twice, and the JIT does not run beside it. `scatter` is `None` for
    /// the block output, `Some(streaming)` for operation ⑥ with the same
    /// store flavour on both sides.
    fn assert_jit_equals_mono(
        n_blk: usize,
        c_blk: usize,
        cp_blk: usize,
        beta: bool,
        scatter: Option<bool>,
    ) {
        let u = filled(n_blk * c_blk, 21);
        let v = filled(c_blk * cp_blk, 22);
        let x0 = filled(n_blk * cp_blk, 23);
        let (qn, group_stride) = (cp_blk / 16, 48usize);

        let run = |jit: bool| -> (Vec<f32>, Vec<f32>) {
            let mut x = x0.clone();
            let mut arena = AlignedVec::zeroed(n_blk * qn * group_stride);
            let base = arena.as_mut_ptr();
            // SAFETY: row j's groups end at float
            // (j·qn + qn − 1)·group_stride + 16, inside the arena.
            let row_ptrs: Vec<*mut f32> =
                (0..n_blk).map(|j| unsafe { base.add(j * qn * group_stride) }).collect();
            if jit {
                let output = match scatter {
                    Some(streaming) => JitOutput::Scatter { group_stride, streaming },
                    None => JitOutput::Block,
                };
                let kern = JitKernel::compile_with_output(n_blk, c_blk, cp_blk, beta, output).unwrap();
                // SAFETY: buffers match the compiled block shape; row
                // pointers are aligned arena slots with room for qn groups.
                unsafe {
                    if scatter.is_some() {
                        kern.call_scatter(u.as_ptr(), v.as_ptr(), x.as_ptr(), row_ptrs.as_ptr());
                    } else {
                        kern.call(u.as_ptr(), v.as_ptr(), x.as_mut_ptr());
                    }
                }
            } else {
                let args = wino_gemm::MicroArgs {
                    u: u.as_ptr(),
                    v: v.as_ptr(),
                    x: x.as_mut_ptr(),
                    c_blk,
                    cp_blk,
                    beta,
                    next_u: std::ptr::null(),
                    next_x: std::ptr::null(),
                    output: match scatter {
                        Some(streaming) => wino_gemm::Output::Scatter {
                            row_ptrs: row_ptrs.as_ptr(),
                            group_stride,
                            streaming,
                        },
                        None => wino_gemm::Output::Block,
                    },
                };
                // SAFETY: same buffers and contract as the JIT branch.
                unsafe { wino_gemm::microkernel(n_blk, &args) };
            }
            wino_simd::sfence();
            (x.as_slice().to_vec(), arena.as_slice().to_vec())
        };
        let case = format!("n_blk={n_blk} c_blk={c_blk} cp_blk={cp_blk} beta={beta} scatter={scatter:?}");
        let ((x_jit, y_jit), (x_rust, y_rust)) = (run(true), run(false));
        assert_eq!(x_jit, x_rust, "X̂: {case}");
        assert_eq!(y_jit, y_rust, "scatter arena: {case}");
        if scatter.is_some() {
            assert_eq!(x_jit, x0.as_slice(), "scatter output only reads X̂: {case}");
        }
    }

    /// The streaming scatter of the staged path and the plain-store one
    /// of the ring-fused path, on a full panel and on a tail panel.
    #[test]
    fn scatter_kernel_agrees_with_rust_scatter_microkernel() {
        if !have_avx512() {
            return;
        }
        for streaming in [true, false] {
            assert_jit_equals_mono(4, 32, 32, false, Some(streaming));
            assert_jit_equals_mono(12, 64, 64, false, Some(streaming));
            assert_jit_equals_mono(9, 64, 64, false, Some(streaming));
        }
    }

    /// Every panel height × every tile width and mixed column strips × β
    /// × all three outputs, on a reduction that takes the rolled loop and
    /// the remainder steps.
    #[test]
    fn every_strip_shape_equals_the_rust_kernel() {
        if !have_avx512() {
            return;
        }
        for n_blk in 1..=MAX_N_BLK {
            for cp_blk in [16, 32, 48, 64, 96, 128] {
                for beta in [false, true] {
                    for scatter in [None, Some(true), Some(false)] {
                        assert_jit_equals_mono(n_blk, 22, cp_blk, beta, scatter);
                    }
                }
            }
        }
    }

    /// Tail kernels (the partially filled last panel: `n_blk` 1..5) and
    /// reductions around the unroll: no loop trip at all (1, 3), one
    /// trip with no remainder (4), many trips plus a remainder (33).
    #[test]
    fn tail_panels_and_odd_reductions_equal_the_rust_kernel() {
        if !have_avx512() {
            return;
        }
        for n_blk in [1, 2, 3, 4, 5, 28] {
            for c_blk in [1, 3, 4, 33] {
                for scatter in [None, Some(true), Some(false)] {
                    assert_jit_equals_mono(n_blk, c_blk, 64, true, scatter);
                    assert_jit_equals_mono(n_blk, c_blk, 48, false, scatter);
                }
            }
        }
    }

    /// The rolled loop makes the code a function of the tile shapes only:
    /// equal whatever `C_blk` is, and L1I-sized for everything the
    /// blocking model can ask for (the unrolled kernels were 75–308 KB).
    /// Emission needs no AVX-512, so this runs everywhere.
    #[test]
    fn code_size_is_independent_of_c_blk_and_small() {
        for output in [
            JitOutput::Block,
            JitOutput::Scatter { group_stride: 4096, streaming: true },
            JitOutput::Scatter { group_stride: 4096, streaming: false },
        ] {
            for n_blk in [1, 8, 28, 30] {
                let sizes = [32, 128, 512].map(|c_blk| emit(n_blk, c_blk, 32, true, output).len());
                assert!(sizes[0] == sizes[1] && sizes[1] == sizes[2], "{n_blk} {output:?}: {sizes:?}");
            }
        }
        let mut largest = 0;
        for (c, cp, rows) in [(512, 512, 1000), (192, 96, 1000), (16, 48, 1000), (64, 64, 3)] {
            for s in wino_gemm::candidate_shapes(c, cp, rows) {
                // Full panels, and the tail panels a fused plan compiles.
                for n_blk in [s.n_blk, 1 + s.n_blk % 5] {
                    for (beta, output) in [
                        (false, JitOutput::Block),
                        (true, JitOutput::Scatter { group_stride: 4096, streaming: true }),
                        (false, JitOutput::Scatter { group_stride: 4096, streaming: false }),
                    ] {
                        let bytes = emit(n_blk, s.c_blk, s.cp_blk, beta, output).len();
                        assert!(bytes < 16 * 1024, "{s:?} n_blk={n_blk} {output:?}: {bytes} bytes");
                        largest = largest.max(bytes);
                    }
                }
            }
        }
        assert!(largest > 1024, "suspiciously small kernels: {largest}");

        if have_avx512() {
            let k = JitKernel::compile(8, 32, 32, false).unwrap();
            assert_eq!(k.code_bytes(), emit(8, 32, 32, false, JitOutput::Block).len());
            assert_eq!(k.n_blk(), 8);
            assert!(!k.beta());
        }
    }

    #[test]
    fn bad_params_rejected() {
        if !have_avx512() {
            return;
        }
        assert!(matches!(JitKernel::compile(0, 16, 16, false), Err(JitError::BadParams(_))));
        assert!(matches!(JitKernel::compile(31, 16, 16, false), Err(JitError::BadParams(_))));
        assert!(matches!(JitKernel::compile(8, 16, 15, false), Err(JitError::BadParams(_))));
        assert!(matches!(JitKernel::compile(8, 0, 16, false), Err(JitError::BadParams(_))));
        // A group stride whose column-strip step would wrap an imm32.
        let huge =
            JitOutput::Scatter { group_stride: (i32::MAX as usize / 16) + 1, streaming: true };
        assert!(matches!(
            JitKernel::compile_with_output(8, 16, 16, false, huge),
            Err(JitError::BadParams(_))
        ));
    }
}
