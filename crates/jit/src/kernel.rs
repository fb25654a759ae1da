//! Runtime code generation of the batched-GEMM micro-kernel (§4.3.1).
//!
//! For each `(n_blk, C_blk, C'_blk, β)` an x86-64 function is emitted on
//! demand — fully unrolled, with precomputed byte offsets, exactly as the
//! paper describes ("we can optimally unroll loops, and pre-compute all
//! memory access offsets"). The generated code mirrors the structure of
//! `wino_gemm::micro`:
//!
//! ```text
//! fn(u: *const f32 /*rdi*/, v: *const f32 /*rsi*/, x: *mut f32 /*rdx*/)
//! for q in 0..C'_blk/16:
//!     zmm0..zmm{n_blk-1} ← X̂ rows (β = 1) or zeroed (β = 0)
//!     for k in 0..C_blk:
//!         zmm30 ← V̂[k, q·16..]           (one look-ahead vector load)
//!         prefetcht0 upcoming V̂ and Û lines
//!         for j in 0..n_blk:
//!             zmm_j += bcst(Û[j,k]) · zmm30   (scalar-vector FMA)
//!     store zmm0..zmm{n_blk-1} back to X̂
//! ret
//! ```
//!
//! Correctness is established by differential testing against the
//! monomorphised Rust kernel and the scalar reference in `wino-gemm`.

use wino_gemm::MAX_N_BLK;
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

/// Look-ahead distance (in `V̂` rows) for L1 prefetch, matching the Rust
/// micro-kernel.
const PF_DIST: usize = 4;

/// Where a compiled kernel writes its result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JitOutput {
    /// Store accumulators back into the contiguous `X̂` block.
    Block,
    /// Operation ⑥: scatter row `j` with non-temporal streaming stores to
    /// `row_ptrs[j] + q·group_stride` floats for each 16-wide column
    /// group `q` (`row_ptrs` is the kernel's 4th argument). The group
    /// stride is baked into the code — it is a per-plan constant.
    Scatter { group_stride: usize },
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

        let mut a = Asm::new();
        let v_reg = 30u8; // current V̂ row; zmm31 is the look-ahead slot
        let qn = cp_blk / 16;
        for q in 0..qn {
            let xq = (q * 16 * 4) as i32;
            let vq = (q * 16 * 4) as i32;
            // Load or zero the accumulators.
            for j in 0..n_blk {
                if beta {
                    a.vmovups_load(j as u8, Gpr::Rdx, xq + (j * cp_blk * 4) as i32);
                } else {
                    a.vzero(j as u8);
                }
            }
            // First V̂ row.
            a.vmovups_load(v_reg, Gpr::Rsi, vq);
            for k in 0..c_blk {
                // Look-ahead load into the other slot (ping-pong 30/31),
                // interleaved before the FMAs of this iteration.
                let cur = if k % 2 == 0 { v_reg } else { v_reg + 1 };
                let nxt = if k % 2 == 0 { v_reg + 1 } else { v_reg };
                if k + 1 < c_blk {
                    a.vmovups_load(nxt, Gpr::Rsi, vq + ((k + 1) * cp_blk * 4) as i32);
                }
                if k + PF_DIST < c_blk {
                    a.prefetcht0(Gpr::Rsi, vq + ((k + PF_DIST) * cp_blk * 4) as i32);
                }
                a.prefetcht0(Gpr::Rdi, ((k + PF_DIST) * 4) as i32);
                for j in 0..n_blk {
                    a.vfmadd231ps_bcast(j as u8, cur, Gpr::Rdi, ((j * c_blk + k) * 4) as i32);
                }
            }
            // Store the accumulators.
            match output {
                JitOutput::Block => {
                    for j in 0..n_blk {
                        a.vmovups_store(Gpr::Rdx, xq + (j * cp_blk * 4) as i32, j as u8);
                    }
                }
                JitOutput::Scatter { group_stride } => {
                    // Operation ⑥: fetch each row's destination from the
                    // pointer table (rcx) and stream the register out.
                    let off = (q * group_stride * 4) as i32;
                    for j in 0..n_blk {
                        a.mov_load64(Gpr::R8, Gpr::Rcx, (j * 8) as i32);
                        a.vmovntps(Gpr::R8, off, j as u8);
                    }
                }
            }
        }
        a.ret();
        let code_bytes = a.len();
        let buf = ExecBuffer::from_code(&a.code).map_err(JitError::Os)?;
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
    /// * `x` is read when `β = 1` (never written).
    ///
    /// Streaming stores require an `sfence` (or barrier) before the data
    /// is read by another thread.
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
        for i in 0..x_jit.as_slice().len() {
            let (a, b) = (x_jit.as_slice()[i], x_rust.as_slice()[i]);
            assert!((a - b).abs() <= 1e-4 * b.abs().max(1.0), "elem {i}: {a} vs {b}");
        }
    }

    #[test]
    fn scatter_kernel_matches_reference() {
        if !have_avx512() {
            return;
        }
        for (n_blk, c_blk, cp_blk, beta) in
            [(3usize, 16usize, 32usize, false), (8, 48, 64, true), (1, 5, 16, false)]
        {
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
                JitOutput::Scatter { group_stride },
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
                            "n_blk={n_blk} beta={beta} row {j} group {q} lane {lane}: {got} vs {want}"
                        );
                    }
                }
            }
            // β = 1 reads X but never writes it.
            assert_eq!(x0.as_slice().len(), n_blk * cp_blk);
        }
    }

    #[test]
    fn scatter_kernel_agrees_with_rust_scatter_microkernel() {
        if !have_avx512() {
            return;
        }
        let (n_blk, c_blk, cp_blk) = (4usize, 32usize, 32usize);
        let u = filled(n_blk * c_blk, 21);
        let v = filled(c_blk * cp_blk, 22);
        let x = AlignedVec::zeroed(n_blk * cp_blk);
        let group_stride = 48usize;

        let run = |jit: bool| -> Vec<f32> {
            let mut arena = AlignedVec::zeroed(4096);
            let base = arena.as_mut_ptr();
            // SAFETY: row offsets stay within the 4096-float arena.
            let row_ptrs: Vec<*mut f32> =
                (0..n_blk).map(|j| unsafe { base.add(j * 512) }).collect();
            if jit {
                let kern = JitKernel::compile_with_output(
                    n_blk,
                    c_blk,
                    cp_blk,
                    false,
                    JitOutput::Scatter { group_stride },
                )
                .unwrap();
                // SAFETY: buffers match the compiled block shape; row
                // pointers are aligned arena slots.
                unsafe { kern.call_scatter(u.as_ptr(), v.as_ptr(), x.as_ptr(), row_ptrs.as_ptr()) };
            } else {
                let args = wino_gemm::MicroArgs {
                    u: u.as_ptr(),
                    v: v.as_ptr(),
                    x: x.as_ptr() as *mut f32,
                    c_blk,
                    cp_blk,
                    beta: false,
                    next_u: std::ptr::null(),
                    next_x: std::ptr::null(),
                    output: wino_gemm::Output::Scatter {
                        row_ptrs: row_ptrs.as_ptr(),
                        group_stride,
                        streaming: true,
                    },
                };
                // SAFETY: same buffers and contract as the JIT branch; x
                // is only read (beta = false, scatter output).
                unsafe { wino_gemm::microkernel(n_blk, &args) };
            }
            wino_simd::sfence();
            arena.as_slice().to_vec()
        };
        // The two kernels schedule their FMAs differently, so results may
        // legitimately differ in the last bit — compare to 1e-5 relative,
        // not bitwise.
        let (jit, rust) = (run(true), run(false));
        assert_eq!(jit.len(), rust.len());
        for (i, (a, b)) in jit.iter().zip(&rust).enumerate() {
            assert!((a - b).abs() <= 1e-5 * b.abs().max(1.0), "index {i}: {a} vs {b}");
        }
    }

    #[test]
    fn code_size_is_reported_and_plausible() {
        if !have_avx512() {
            return;
        }
        let k = JitKernel::compile(8, 32, 32, false).unwrap();
        // ~ qn·(c_blk·(n_blk+1) FMAs/loads + overhead) instructions at
        // ~7-10 bytes each.
        assert!(k.code_bytes() > 1000, "{}", k.code_bytes());
        assert!(k.code_bytes() < 100_000);
        assert_eq!(k.n_blk(), 8);
        assert!(!k.beta());
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
    }
}
