//! AVX2+FMA backend: each 16-lane vector is a pair of 256-bit halves. This
//! is the "easily extended to AVX2" configuration sketched in the paper's
//! conclusion — the data layout stays identical (S = 16), only the register
//! tiling changes.

use std::arch::x86_64::*;

use crate::{Kernel, Simd16};

/// Proof that the running CPU has AVX2 and FMA: only `Avx2::detect`
/// constructs one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Avx2(());

impl Avx2 {
    pub(crate) fn detect() -> Option<Self> {
        (std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma"))
        .then_some(Avx2(()))
    }

    /// Run `k` with AVX2 and FMA enabled.
    #[inline]
    pub fn run<K: Kernel>(self, k: K) -> K::Output {
        // SAFETY: `self` exists, so `detect` saw avx2 and fma on this CPU.
        unsafe { arm(k) }
    }
}

#[target_feature(enable = "avx2,fma")]
#[inline(never)]
fn arm<K: Kernel>(k: K) -> K::Output {
    k.run::<F32x16>()
}

/// 16 packed `f32` lanes backed by two `__m256`.
///
/// Every intrinsic below needs avx2 (and `mul_add` fma). The type is
/// unnameable outside this crate and reaches user code only as the `V`
/// of [`arm`], so each method is inlined into a caller that has both.
#[derive(Clone, Copy)]
pub struct F32x16(__m256, __m256);

impl crate::sealed::Sealed for F32x16 {}

impl Simd16 for F32x16 {
    const VECTOR_REGS: usize = 8;
    const STREAMS: bool = true;

    #[inline(always)]
    fn zero() -> Self {
        // SAFETY: avx2 proven (type docs); register-only.
        unsafe { F32x16(_mm256_setzero_ps(), _mm256_setzero_ps()) }
    }

    #[inline(always)]
    fn splat(x: f32) -> Self {
        // SAFETY: avx2 proven (type docs); register-only.
        unsafe {
            let v = _mm256_set1_ps(x);
            F32x16(v, v)
        }
    }

    // SAFETY: the caller upholds the contract on `Simd16::load`.
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        F32x16(_mm256_loadu_ps(p), _mm256_loadu_ps(p.add(8)))
    }

    // SAFETY: the caller upholds the contract on `Simd16::store`.
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        _mm256_storeu_ps(p, self.0);
        _mm256_storeu_ps(p.add(8), self.1);
    }

    /// 32-byte alignment would suffice for AVX, but the layout contract
    /// is 64.
    // SAFETY: the caller upholds the contract on `Simd16::store_nt`.
    #[inline(always)]
    unsafe fn store_nt(self, p: *mut f32) {
        debug_assert_eq!(p as usize % 64, 0, "streaming store requires 64-byte alignment");
        _mm256_stream_ps(p, self.0);
        _mm256_stream_ps(p.add(8), self.1);
    }

    #[inline(always)]
    fn mul_add(self, b: Self, c: Self) -> Self {
        // SAFETY: avx2+fma proven (type docs); register-only.
        unsafe {
            F32x16(_mm256_fmadd_ps(self.0, b.0, c.0), _mm256_fmadd_ps(self.1, b.1, c.1))
        }
    }

    #[inline(always)]
    fn enter<K: Kernel>(k: K) -> K::Output {
        // SAFETY: avx2 and fma proven (type docs): this `V` exists only
        // inside `arm`, which only a detected token enters.
        unsafe { arm(k) }
    }

    #[inline(always)]
    fn to_array(self) -> [f32; 16] {
        let mut out = [0.0f32; 16];
        // SAFETY: avx2 proven (type docs); `out` is 64 writable bytes.
        unsafe {
            _mm256_storeu_ps(out.as_mut_ptr(), self.0);
            _mm256_storeu_ps(out.as_mut_ptr().add(8), self.1);
        }
        out
    }
}

impl std::ops::Add for F32x16 {
    type Output = Self;
    #[inline(always)]
    fn add(self, b: Self) -> Self {
        // SAFETY: avx2 proven (type docs); register-only.
        unsafe { F32x16(_mm256_add_ps(self.0, b.0), _mm256_add_ps(self.1, b.1)) }
    }
}

impl std::ops::Sub for F32x16 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, b: Self) -> Self {
        // SAFETY: avx2 proven (type docs); register-only.
        unsafe { F32x16(_mm256_sub_ps(self.0, b.0), _mm256_sub_ps(self.1, b.1)) }
    }
}

impl std::ops::Mul for F32x16 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, b: Self) -> Self {
        // SAFETY: avx2 proven (type docs); register-only.
        unsafe { F32x16(_mm256_mul_ps(self.0, b.0), _mm256_mul_ps(self.1, b.1)) }
    }
}
