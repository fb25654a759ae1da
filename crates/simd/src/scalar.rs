//! Portable scalar backend: a plain `[f32; 16]` with loops simple enough
//! for LLVM to auto-vectorise. Keeps the whole workspace buildable and
//! testable on any architecture; the data layouts are unchanged.

use crate::{Kernel, Simd16};

/// 16 `f32` lanes backed by an array.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
pub struct F32x16([f32; 16]);

impl crate::sealed::Sealed for F32x16 {}

impl Simd16 for F32x16 {
    const VECTOR_REGS: usize = 32;
    const STREAMS: bool = false;

    #[inline(always)]
    fn zero() -> Self {
        F32x16([0.0; 16])
    }

    #[inline(always)]
    fn splat(x: f32) -> Self {
        F32x16([x; 16])
    }

    // SAFETY: the caller upholds the contract on `Simd16::load`.
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        F32x16(std::ptr::read_unaligned(p as *const [f32; 16]))
    }

    // SAFETY: the caller upholds the contract on `Simd16::store`.
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        std::ptr::write_unaligned(p as *mut [f32; 16], self.0);
    }

    /// "Streaming" store — a plain store on this backend.
    // SAFETY: the caller upholds the contract on `Simd16::store_nt`.
    #[inline(always)]
    unsafe fn store_nt(self, p: *mut f32) {
        debug_assert_eq!(p as usize % 64, 0, "streaming store requires 64-byte alignment");
        self.store(p);
    }

    /// Not fused on this backend.
    #[inline(always)]
    fn mul_add(self, b: Self, c: Self) -> Self {
        F32x16(std::array::from_fn(|i| self.0[i] * b.0[i] + c.0[i]))
    }

    /// As `vmaxps`: `b` unless `self` is greater (so NaN in either gives `b`).
    #[inline(always)]
    fn max(self, b: Self) -> Self {
        F32x16(std::array::from_fn(|i| if self.0[i] > b.0[i] { self.0[i] } else { b.0[i] }))
    }

    #[inline(never)]
    fn enter<K: Kernel>(k: K) -> K::Output {
        k.run::<F32x16>()
    }

    #[inline(always)]
    fn to_array(self) -> [f32; 16] {
        self.0
    }
}

impl std::ops::Add for F32x16 {
    type Output = Self;
    #[inline(always)]
    fn add(self, b: Self) -> Self {
        F32x16(std::array::from_fn(|i| self.0[i] + b.0[i]))
    }
}

impl std::ops::Sub for F32x16 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, b: Self) -> Self {
        F32x16(std::array::from_fn(|i| self.0[i] - b.0[i]))
    }
}

impl std::ops::Mul for F32x16 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, b: Self) -> Self {
        F32x16(std::array::from_fn(|i| self.0[i] * b.0[i]))
    }
}
