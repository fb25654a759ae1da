//! # wino-simd
//!
//! The SIMD substrate: the 16-lane single-precision vector abstraction
//! [`Simd16`] matching the paper's vector width `S = 16` (one AVX-512
//! register), implemented by three backends that are **all compiled into
//! every binary** and selected at run time:
//!
//! * **avx512** — one `__m512` per vector (the paper's target ISA),
//! * **avx2** — two `__m256` halves with FMA,
//! * **scalar** — a `[f32; 16]` array written so LLVM auto-vectorises it
//!   (the only backend off x86-64).
//!
//! The first call that needs a vector detects the CPU once
//! (`is_x86_feature_detected!`), applies the `WINO_SIMD` test seam, and
//! caches the resulting [`Backend`] in a `OnceLock`. Higher layers never
//! name a vector type: they implement [`Kernel`] with a body generic over
//! `V: Simd16` and hand it to [`dispatch`], which enters the
//! `#[target_feature]` arm of the cached backend — so the body is
//! compiled once per ISA and the rest of the code "can be fully reused"
//! (§6) from a single default `cargo build --release`, which still runs
//! on a baseline x86-64.
//!
//! `WINO_SIMD=scalar|avx2|avx512` is a **test/debug seam, not a tuning
//! option**: it can only *lower* the backend below what the CPU offers
//! (so CI can exercise every arm on one host), and a value the CPU
//! cannot honour — or an unknown one — is an [`IsaError`] from
//! [`try_backend`] rather than a silent fallback. [`cpu_has_avx512f`] and
//! [`cpu_has_avx2_fma`] honour the lowered backend, so the JIT and the
//! planner see the same machine the vector kernels run on.
//!
//! Also provided, because the paper's optimisations depend on them:
//!
//! * **non-temporal streaming stores** ([`Simd16::store_nt`]) used when the
//!   produced data "will not be used in the near future" (§4.2.1, §4.3.1) —
//!   they bypass the cache hierarchy, avoiding pollution;
//! * **software prefetch** hints ([`prefetch_t0`], [`prefetch_t1`]) used by
//!   the matrix-multiplication micro-kernels (§4.3.1);
//! * **64-byte aligned buffers** ([`AlignedVec`]) — the paper's layouts are
//!   64-byte aligned so every access can be an aligned vector load/store
//!   (§4.1).

mod alloc;
pub use alloc::{
    live_alloc_bytes, thread_alloc_bytes, thread_alloc_calls, AlignedVec, AllocError,
};

#[cfg(feature = "fault-inject")]
pub mod fault;

pub mod denormals;
pub use denormals::FlushDenormals;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
mod scalar;

mod dispatch;
#[cfg(target_arch = "x86_64")]
pub use {avx2::Avx2, avx512::Avx512};
pub use dispatch::{
    backend, backend_name, cpu_has_avx2_fma, cpu_has_avx512f, dispatch, try_backend, Backend,
    IsaError, Kernel,
};

/// The vector width in `f32` lanes. The paper's `S`: the number of
/// single-precision floats in one 512-bit register.
pub const S: usize = 16;

/// Cache-line size in bytes; all hot buffers are aligned to this.
pub const CACHE_LINE: usize = 64;

mod sealed {
    pub trait Sealed {}
}

/// A 16-lane `f32` vector of one backend. Width-uniform across backends,
/// so data layouts never change with the ISA.
///
/// The trait is sealed and its implementors are unnameable outside this
/// crate: the only way to obtain a `V: Simd16` is as the type parameter
/// of [`Kernel::run`], i.e. inside the `#[target_feature]` arm of a
/// backend whose CPU support was proven — which is what makes the safe
/// constructors below sound.
///
/// Every method but [`Simd16::enter`] (whose point is the call) is
/// `#[inline(always)]` in every backend; code generic over `V` must be
/// too, all the way up to [`Kernel::run`], or it is compiled without the
/// arm's target features.
pub trait Simd16:
    Copy
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + sealed::Sealed
{
    /// How many vectors of this type the register file holds: 32 `zmm`,
    /// or 16 `ymm` at two per vector. `scalar` has no register file of
    /// its own and mirrors AVX-512, so it walks the same register tiles.
    /// The GEMM micro-kernel sizes its accumulator tile from this.
    const VECTOR_REGS: usize;

    /// Whether [`Simd16::store_nt`] differs from [`Simd16::store`] on
    /// this backend. Where it does not (`scalar`), code monomorphised per
    /// store flavour may run its plain instantiation for both.
    const STREAMS: bool;

    /// All-zero vector.
    fn zero() -> Self;

    /// Broadcast `x` to all lanes.
    fn splat(x: f32) -> Self;

    /// Unaligned load of 16 floats.
    ///
    /// # Safety
    /// `p` must be valid for reading 64 bytes.
    unsafe fn load(p: *const f32) -> Self;

    /// Unaligned store of 16 floats.
    ///
    /// # Safety
    /// `p` must be valid for writing 64 bytes.
    unsafe fn store(self, p: *mut f32);

    /// Non-temporal (streaming) store: on the x86 backends the write
    /// bypasses the cache hierarchy (a plain store on `scalar`). Use for
    /// data not needed until a later stage (§4.2.1/§4.3.1); pair with
    /// [`sfence`] before cross-thread visibility is required.
    ///
    /// # Safety
    /// `p` must be valid for writing 64 bytes and 64-byte aligned.
    unsafe fn store_nt(self, p: *mut f32);

    /// Multiply-add `self * b + c`: one rounding per lane on the x86
    /// backends (FMA), two on `scalar`.
    fn mul_add(self, b: Self, c: Self) -> Self;

    /// Copy lanes out into an array.
    fn to_array(self) -> [f32; 16];

    /// Run `k` on this backend as one out-of-line call: [`dispatch`] for
    /// code that already holds `V`. A body generic over `V` that would
    /// otherwise inline one large kernel per `match` arm — the
    /// transform-codelet table — calls `V::enter(kernel)` instead, so
    /// each kernel is compiled once per backend rather than once per
    /// including body (and, unoptimised, has a stack frame of its own).
    /// `V` is known statically: no detection, no branch, only the call.
    fn enter<K: Kernel>(k: K) -> K::Output;

    /// Load 16 floats from a slice (bounds-checked).
    #[inline(always)]
    fn from_slice(s: &[f32]) -> Self {
        assert!(s.len() >= S);
        // SAFETY: length checked above.
        unsafe { Self::load(s.as_ptr()) }
    }

    /// Store 16 floats into a slice (bounds-checked).
    #[inline(always)]
    fn write_to_slice(self, s: &mut [f32]) {
        assert!(s.len() >= S);
        // SAFETY: length checked above.
        unsafe { self.store(s.as_mut_ptr()) }
    }
}

/// Serialise all pending streaming (non-temporal) stores. Must be executed
/// before data written with [`Simd16::store_nt`] is read by *another*
/// thread; the paper's fork–join barrier provides this point naturally and
/// calls this.
#[inline(always)]
pub fn sfence() {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `sfence` is always available on x86-64.
    unsafe {
        std::arch::x86_64::_mm_sfence()
    }
    #[cfg(not(target_arch = "x86_64"))]
    std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
}

/// Prefetch the cache line containing `p` into L1 (hint T0).
///
/// # Safety
/// Prefetch never faults, but callers should pass addresses derived from
/// real allocations so provenance stays intact.
#[inline(always)]
pub unsafe fn prefetch_t0(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Prefetch the cache line containing `p` into L2 (hint T1).
///
/// # Safety
/// See [`prefetch_t0`].
#[inline(always)]
pub unsafe fn prefetch_t1(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T1 }>(p as *const i8);
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Prefetch every cache line of the `bytes`-long span starting at `p`
/// into L2 (hint T1). Stage 3 uses it to pull the next tile's chunk of
/// `I'` toward the core while the current one is transformed.
///
/// # Safety
/// See [`prefetch_t0`]; the span should lie within one real allocation.
#[inline]
pub unsafe fn prefetch_span_t1(p: *const u8, bytes: usize) {
    let mut off = 0;
    while off < bytes {
        prefetch_t1(p.add(off));
        off += CACHE_LINE;
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_harmless() {
        let data = [0u8; 128];
        // SAFETY: prefetch is a hint; it never faults, even on null.
        unsafe {
            prefetch_t0(data.as_ptr());
            prefetch_t1(data.as_ptr().add(64));
            // Prefetching invalid addresses must not fault either.
            prefetch_t0(std::ptr::null());
        }
    }

    #[test]
    fn span_prefetch_is_harmless() {
        let data = [0u8; 4096];
        // SAFETY: prefetch is a hint; it never faults.
        unsafe {
            prefetch_span_t1(data.as_ptr(), data.len());
            prefetch_span_t1(data.as_ptr(), 0);
            prefetch_span_t1(data.as_ptr(), 1); // sub-line span → one hint
        }
    }
}
