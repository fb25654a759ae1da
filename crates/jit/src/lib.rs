//! # wino-jit
//!
//! The paper's runtime code generator (§4.3.1), for real: an x86-64
//! encoder ([`encode`]) emits AVX-512 micro-kernels into executable
//! pages ([`exec`]), one function per `(n_blk, C_blk, C'_blk, β, output)`
//! ([`kernel`]): the panel is walked in the `R × Q` register tiles of
//! `wino_gemm::micro` (a `V̂` load feeds `R` FMAs, a `Û` broadcast `Q`),
//! around a rolled `k`-loop, so a kernel is a few KiB whatever `C_blk`
//! is — where the paper, on KNL, unrolls everything.
//!
//! This reproduces the *mechanism* of the paper's JIT (generate assembly
//! per block shape at instantiation time, load, call), where `wino-gemm`
//! reproduces its *effect* via const-generic monomorphisation. The two
//! compute bit-identical results (tested `==`) and are benchmarked side
//! by side in the Fig. 6 harness and `benches/gemm.rs`.
//!
//! Requires AVX-512F at runtime (checked; compilation returns
//! [`kernel::JitError::Avx512Unavailable`] otherwise) and Linux `mmap`
//! (the `libc` dependency — see DESIGN.md's dependency justification).
//! EVEX is the only encoding: below AVX-512, stage 2 runs `wino-gemm`'s
//! kernels on `wino-simd`'s AVX2 backend. The paper's §6 AVX2 generator
//! is not reproduced (EXPERIMENTS.md, "§6 — AVX2 JIT vs Mono").

pub mod encode;
pub mod exec;
pub mod kernel;

pub use exec::ExecBuffer;
pub use kernel::{jit_batched_gemm, JitError, JitKernel, JitKernelPair, JitOutput};
