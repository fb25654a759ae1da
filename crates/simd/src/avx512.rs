//! AVX-512F backend: one 512-bit register per vector — the paper's native
//! configuration (KNL, §2.1).

use std::arch::x86_64::*;

use crate::{Kernel, Simd16};

/// Proof that the running CPU has AVX-512F: only `Avx512::detect`
/// constructs one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Avx512(());

impl Avx512 {
    pub(crate) fn detect() -> Option<Self> {
        std::arch::is_x86_feature_detected!("avx512f").then_some(Avx512(()))
    }

    /// Run `k` with AVX-512F enabled.
    #[inline]
    pub fn run<K: Kernel>(self, k: K) -> K::Output {
        // SAFETY: `self` exists, so `detect` saw avx512f on this CPU.
        unsafe { arm(k) }
    }
}

#[target_feature(enable = "avx512f")]
#[inline(never)]
fn arm<K: Kernel>(k: K) -> K::Output {
    k.run::<F32x16>()
}

/// 16 packed `f32` lanes backed by one `__m512`.
///
/// Every intrinsic below needs avx512f. The type is unnameable outside
/// this crate and reaches user code only as the `V` of [`arm`], so each
/// method is inlined into a caller that has the feature.
#[derive(Clone, Copy)]
#[repr(transparent)]
pub struct F32x16(__m512);

impl crate::sealed::Sealed for F32x16 {}

impl Simd16 for F32x16 {
    const VECTOR_REGS: usize = 32;
    const STREAMS: bool = true;

    #[inline(always)]
    fn zero() -> Self {
        // SAFETY: avx512f proven (type docs); register-only.
        unsafe { F32x16(_mm512_setzero_ps()) }
    }

    #[inline(always)]
    fn splat(x: f32) -> Self {
        // SAFETY: avx512f proven (type docs); register-only.
        unsafe { F32x16(_mm512_set1_ps(x)) }
    }

    // SAFETY: the caller upholds the contract on `Simd16::load`.
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        F32x16(_mm512_loadu_ps(p))
    }

    // SAFETY: the caller upholds the contract on `Simd16::store`.
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        _mm512_storeu_ps(p, self.0);
    }

    // SAFETY: the caller upholds the contract on `Simd16::store_nt`.
    #[inline(always)]
    unsafe fn store_nt(self, p: *mut f32) {
        debug_assert_eq!(p as usize % 64, 0, "streaming store requires 64-byte alignment");
        _mm512_stream_ps(p, self.0);
    }

    #[inline(always)]
    fn mul_add(self, b: Self, c: Self) -> Self {
        // SAFETY: avx512f proven (type docs); register-only.
        unsafe { F32x16(_mm512_fmadd_ps(self.0, b.0, c.0)) }
    }

    #[inline(always)]
    fn enter<K: Kernel>(k: K) -> K::Output {
        // SAFETY: avx512f proven (type docs): this `V` exists only
        // inside `arm`, which only a detected token enters.
        unsafe { arm(k) }
    }

    #[inline(always)]
    fn to_array(self) -> [f32; 16] {
        let mut out = [0.0f32; 16];
        // SAFETY: avx512f proven (type docs); `out` is 64 writable bytes.
        unsafe { _mm512_storeu_ps(out.as_mut_ptr(), self.0) };
        out
    }
}

impl std::ops::Add for F32x16 {
    type Output = Self;
    #[inline(always)]
    fn add(self, b: Self) -> Self {
        // SAFETY: avx512f proven (type docs); register-only.
        unsafe { F32x16(_mm512_add_ps(self.0, b.0)) }
    }
}

impl std::ops::Sub for F32x16 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, b: Self) -> Self {
        // SAFETY: avx512f proven (type docs); register-only.
        unsafe { F32x16(_mm512_sub_ps(self.0, b.0)) }
    }
}

impl std::ops::Mul for F32x16 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, b: Self) -> Self {
        // SAFETY: avx512f proven (type docs); register-only.
        unsafe { F32x16(_mm512_mul_ps(self.0, b.0)) }
    }
}
