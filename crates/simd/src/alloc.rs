//! 64-byte aligned `f32` buffers with accounted, fallible allocation.
//!
//! Every array in the paper's data layout (§4.1) is 64-byte aligned "so as
//! to facilitate the consecutive and aligned memory operations" — and the
//! streaming stores *require* it. `Vec<f32>` only guarantees 4-byte
//! alignment, so hot buffers use this type instead.
//!
//! Allocation here is the memory-robustness seam for the whole engine:
//!
//! * [`AlignedVec::try_zeroed`] returns a typed [`AllocError`] instead of
//!   aborting, so planners and the serving layer can degrade (smaller
//!   tiles, im2col, shedding) instead of dying;
//! * every allocation is tallied per thread ([`thread_alloc_calls`],
//!   [`thread_alloc_bytes`]), so footprint models can be validated against
//!   what was actually allocated;
//! * under the `fault-inject` feature `try_zeroed` consults the
//!   [`crate::fault`] injector, which can deterministically fail every
//!   k-th allocation. The infallible wrappers never consult the injector:
//!   arming a fault can make a `try_zeroed` call fail, never abort the
//!   process.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};

use crate::CACHE_LINE;

thread_local! {
    // Per-thread allocation tallies: deterministic even while unrelated
    // test threads allocate.
    static THREAD_ALLOC_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static THREAD_ALLOC_BYTES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// [`AlignedVec`] allocations made *by the calling thread* since it
/// started. Monotonic; diff two readings to count allocations in a
/// region — other threads' allocations never show, so tests can assert
/// exact deltas.
pub fn thread_alloc_calls() -> u64 {
    THREAD_ALLOC_CALLS.with(|c| c.get())
}

/// Bytes allocated by the calling thread since it started (monotonic —
/// frees are not subtracted; diff two readings around a region).
pub fn thread_alloc_bytes() -> u64 {
    THREAD_ALLOC_BYTES.with(|c| c.get())
}

/// A typed allocation failure: the allocator refused `bytes` (or the
/// fault injector simulated the refusal — `injected` says which).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocError {
    /// Requested length in `f32` elements.
    pub len: usize,
    /// Requested size in bytes.
    pub bytes: usize,
    /// True when the failure came from the fault injector rather than
    /// the system allocator.
    pub injected: bool,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "allocation of {} bytes ({} f32) failed{}",
            self.bytes,
            self.len,
            if self.injected { " (injected)" } else { "" }
        )
    }
}

impl std::error::Error for AllocError {}

/// A fixed-length, zero-initialised, 64-byte aligned buffer of `f32`.
///
/// Unlike `Vec`, the length is fixed at construction (the paper's buffers
/// are sized once per plan and reused across layers); this keeps the type
/// trivially `Send + Sync` and free of growth bookkeeping.
pub struct AlignedVec {
    ptr: *mut f32,
    len: usize,
    /// The allocation `ptr` was aligned inside ([`AlignedVec::layout`]).
    base: *mut u8,
}

// SAFETY: `AlignedVec` owns its allocation exclusively; sharing &AlignedVec
// only permits reads.
unsafe impl Send for AlignedVec {}
// SAFETY: as above — mutation requires &mut, so shared access is read-only.
unsafe impl Sync for AlignedVec {}

/// Record a successful allocation of `bytes` in the per-thread tallies.
fn account(bytes: usize) {
    THREAD_ALLOC_CALLS.with(|c| c.set(c.get() + 1));
    THREAD_ALLOC_BYTES.with(|c| c.set(c.get() + bytes as u64));
}

/// One fallible, zero-filled allocation. `injectable` is true only for
/// `try_zeroed`: the infallible wrappers skip the fault injector so arming
/// a fault can never abort the process through them.
///
/// The allocation is a cache line longer than the buffer and only as
/// aligned as `malloc`'s own, the buffer placed at its first 64-byte
/// boundary. `alloc_zeroed` is then glibc's `calloc`, which skips the
/// memset on fresh pages, instead of `posix_memalign` plus a memset, whose
/// split-off remainders fragment the heap: peak RSS then depended on the
/// heap's layout (EXPERIMENTS.md, "Peak RSS and the allocator").
/// Accounting counts the buffer, `len·4` bytes.
fn try_alloc(len: usize, injectable: bool) -> Result<AlignedVec, AllocError> {
    if len == 0 {
        let ptr = std::ptr::NonNull::<f32>::dangling().as_ptr();
        return Ok(AlignedVec { ptr, len: 0, base: ptr as *mut u8 });
    }
    let bytes = len * std::mem::size_of::<f32>();
    #[cfg(feature = "fault-inject")]
    if injectable && crate::fault::should_fail() {
        return Err(AllocError { len, bytes, injected: true });
    }
    #[cfg(not(feature = "fault-inject"))]
    let _ = injectable;
    // SAFETY: layout has non-zero size here.
    let base = unsafe { alloc_zeroed(AlignedVec::layout(len)) };
    if base.is_null() {
        return Err(AllocError { len, bytes, injected: false });
    }
    account(bytes);
    // SAFETY: at most `CACHE_LINE - 1` bytes in, leaving `bytes` of the
    // allocation's `bytes + CACHE_LINE` past the pointer.
    let ptr = unsafe { base.add(base.align_offset(CACHE_LINE)) } as *mut f32;
    Ok(AlignedVec { ptr, len, base })
}

impl AlignedVec {
    /// Allocate `len` floats, zero-filled and 64-byte aligned, or return
    /// a typed [`AllocError`] — never aborts. This is the injectable seam:
    /// an armed fault injector fails this call with `injected: true`.
    pub fn try_zeroed(len: usize) -> Result<AlignedVec, AllocError> {
        try_alloc(len, true)
    }

    /// Allocate `len` floats, zero-filled and 64-byte aligned.
    ///
    /// Thin wrapper over [`AlignedVec::try_zeroed`] that aborts on a real
    /// OOM (the historical behaviour). It never consults the fault
    /// injector, so armed faults cannot abort through it.
    pub fn zeroed(len: usize) -> AlignedVec {
        try_alloc(len, false).unwrap_or_else(|_| handle_alloc_error(Self::layout(len)))
    }

    /// Allocate and fill from a slice.
    pub fn from_slice(data: &[f32]) -> AlignedVec {
        let mut v = Self::zeroed(data.len());
        v.as_mut_slice().copy_from_slice(data);
        v
    }

    /// The allocation behind a buffer of `len` floats ([`try_alloc`]).
    fn layout(len: usize) -> Layout {
        let bytes = len.checked_mul(std::mem::size_of::<f32>()).and_then(|b| b.checked_add(CACHE_LINE));
        Layout::from_size_align(bytes.expect("buffer too large"), 16).expect("buffer too large")
    }

    /// Size of the backing allocation in bytes.
    pub fn bytes(&self) -> usize {
        self.len * std::mem::size_of::<f32>()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn as_ptr(&self) -> *const f32 {
        self.ptr
    }

    pub fn as_mut_ptr(&mut self) -> *mut f32 {
        self.ptr
    }

    pub fn as_slice(&self) -> &[f32] {
        // SAFETY: `ptr` is valid for `len` floats for the lifetime of self.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        // SAFETY: as above, plus &mut self guarantees exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }

    /// Reset all elements to zero.
    pub fn fill_zero(&mut self) {
        self.as_mut_slice().fill(0.0);
    }
}

impl Drop for AlignedVec {
    fn drop(&mut self) {
        if self.len != 0 {
            // SAFETY: `base` was allocated with this layout in `try_alloc`.
            unsafe { dealloc(self.base, Self::layout(self.len)) };
        }
    }
}

impl Clone for AlignedVec {
    fn clone(&self) -> Self {
        AlignedVec::from_slice(self.as_slice())
    }
}

impl Deref for AlignedVec {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        self.as_slice()
    }
}

impl DerefMut for AlignedVec {
    fn deref_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
}

impl std::fmt::Debug for AlignedVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedVec(len={})", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_aligned_and_zero() {
        for len in [1, 15, 16, 17, 1024, 100_000] {
            let v = AlignedVec::zeroed(len);
            assert_eq!(v.len(), len);
            assert_eq!(v.as_ptr() as usize % 64, 0, "len {len} not 64-byte aligned");
            assert!(v.iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn empty_buffer() {
        let v = AlignedVec::zeroed(0);
        assert!(v.is_empty());
        assert_eq!(v.as_slice(), &[] as &[f32]);
    }

    #[test]
    fn from_slice_and_clone() {
        let data: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let v = AlignedVec::from_slice(&data);
        assert_eq!(v.as_slice(), &data[..]);
        let w = v.clone();
        assert_eq!(w.as_slice(), v.as_slice());
        assert_ne!(w.as_ptr(), v.as_ptr());
    }

    #[test]
    fn deref_mut_and_fill() {
        let mut v = AlignedVec::zeroed(32);
        v[3] = 7.0;
        v[31] = -1.0;
        assert_eq!(v[3], 7.0);
        v.fill_zero();
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn many_allocations_dont_leak_or_crash() {
        for _ in 0..1000 {
            let v = AlignedVec::zeroed(4096);
            std::hint::black_box(&v);
        }
    }

    #[test]
    fn try_constructors_match_infallible_ones() {
        let v = AlignedVec::try_zeroed(64).unwrap();
        assert_eq!(v.len(), 64);
        assert_eq!(v.as_ptr() as usize % 64, 0);
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(v.bytes(), 256);
        assert!(AlignedVec::try_zeroed(0).unwrap().is_empty());
    }

    #[test]
    fn allocations_are_tallied() {
        let calls0 = thread_alloc_calls();
        let bytes0 = thread_alloc_bytes();
        let v = AlignedVec::try_zeroed(1024); // 4096 bytes
        assert_eq!(thread_alloc_calls(), calls0 + 1);
        assert_eq!(thread_alloc_bytes(), bytes0 + 4096);
        drop(v);
        // Zero-length buffers are free and uncounted.
        let _e = AlignedVec::try_zeroed(0).unwrap();
        assert_eq!(thread_alloc_calls(), calls0 + 1);
    }
}
