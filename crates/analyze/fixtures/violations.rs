//! Seeded violation fixture for `wino-lint` — NOT compiled into any
//! crate. Each block below seeds exactly one violation; the decoys at the
//! bottom must not fire. `crates/analyze/src/lint.rs` asserts the exact
//! violation count, and `scripts/analyze.sh` checks the binary exits
//! non-zero on this file.

// seed 1: bare unsafe block (unsafe-needs-safety)
fn seed_unsafe() {
    let p: *const u32 = std::ptr::null();
    let _ = unsafe { *p };
}

// seed 2: bare unsafe fn (unsafe-needs-safety)
unsafe fn seed_unsafe_fn() {}

// seed 3: bare Relaxed (relaxed-needs-ordering, when linted as crates/sched)
fn seed_relaxed(a: &std::sync::atomic::AtomicUsize) {
    use std::sync::atomic::Ordering;
    a.store(0, Ordering::Relaxed);
}

// seed 4: static mut (no-static-mut)
static mut SEED_GLOBAL: u32 = 0;

// seed 5: transmute outside simd/jit (no-transmute-outside-simd-jit)
fn seed_transmute() -> f32 {
    // SAFETY: same size and alignment (annotated so only the transmute rule fires)
    unsafe { std::mem::transmute::<u32, f32>(0x3f80_0000) }
}

// seed 6: allow without rationale (allow-needs-rationale)

#[allow(dead_code)]
fn seed_allow() {}

// seed 7: bare MXCSR inline asm (unsafe-needs-safety) — the FP-environment
// mutation idiom from `crates/simd/src/denormals.rs`, which must never
// appear without a SAFETY argument (it changes rounding/denormal behaviour
// for the whole calling thread).
fn seed_mxcsr(csr: u32) {
    unsafe { std::arch::asm!("ldmxcsr [{}]", in(reg) &csr) }
}

// seed 8: drop guard with an early return before the state write
// (drop-guard-protocol)

// PROTOCOL: drop-guard
struct SeedGuard {
    state: std::sync::atomic::AtomicUsize,
    armed: bool,
}
impl Drop for SeedGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.state.store(1, std::sync::atomic::Ordering::Release);
    }
}

// seed 9: tagged guard type with no Drop impl at all (drop-guard-protocol)

// PROTOCOL: drop-guard
struct SeedLeakyGuard {
    state: std::sync::atomic::AtomicUsize,
}

// seed 10: blocking call while a spin-lock guard is live
// (no-blocking-under-lock, when linted as crates/sched or crates/serve)
fn seed_block_under_lock(q: &SomeQueue) {
    let _g = q.acquire();
    let _ = q.take_blocking();
}

// seed 11: raw infallible allocation in a memory-accounted crate
// (alloc-needs-accounting, when linted as crates/core — out of scope under
// the crates/sched lint above, so it adds nothing to that count)
fn seed_raw_alloc(len: usize) -> AlignedVec {
    AlignedVec::zeroed(len)
}

// seed 12: first-touch seam call without accounting rationale
// (alloc-needs-accounting, when linted as crates/core)
fn seed_first_touch(len: usize, exec: &dyn Executor) -> AlignedVec {
    wino_tensor::zeroed_first_touch(len, exec)
}

// seed 14: direct clock reads in a convolution crate
// (clock-through-span-helpers, when linted as crates/core — two sites)
fn seed_clock_reads() -> (u64, std::time::Instant) {
    (wino_probe::now_ns(), std::time::Instant::now())
}

// ---- decoys: none of these may fire ----

fn decoy_gated_timestamp(exec: &dyn Executor) -> u64 {
    wino_sched::probed::span_start(exec.probe())
}

fn decoy_fallible_alloc(len: usize) -> Result<AlignedVec, AllocError> {
    AlignedVec::try_zeroed(len)
}

fn decoy_annotated_alloc(len: usize) -> AlignedVec {
    // ALLOC: fixture decoy — the rationale comment is the escape hatch.
    AlignedVec::zeroed(len)
}

fn decoy_other_zeroed(m: &Mask) -> Mask {
    // Unqualified or differently-typed `zeroed` is not an allocation seam.
    Mask::zeroed(3)
}

// seed 13: ISA-specific function outside simd/jit (target-feature-confined)
#[target_feature(enable = "avx2")]
fn seed_target_feature() {}

// PROTOCOL: drop-guard
struct DecoyGuard {
    state: std::sync::atomic::AtomicUsize,
}
impl Drop for DecoyGuard {
    fn drop(&mut self) {
        // The state write dominates every exit: straight-line, first.
        self.state.store(1, std::sync::atomic::Ordering::Release);
    }
}

/// Decoy: mentions the PROTOCOL: drop-guard idiom in prose — a comment
/// that does not *start* with the tag is not a tag.
fn decoy_drop_guard_prose() {}

fn decoy_lock_scoped(q: &SomeQueue) {
    {
        let _g = q.acquire();
        q.len();
    }
    // Guard released with its block: blocking here is fine.
    let _ = q.take_blocking();
}

fn decoy_blocking_justified(q: &SomeQueue) {
    let _g = q.acquire();
    // BLOCKING: bounded by the batch-age watchdog; single consumer.
    let _ = q.take_timeout(std::time::Duration::from_millis(1));
}

fn decoy_annotated() {
    let p: *const u32 = std::ptr::null();
    // SAFETY: annotated unsafe is fine (null deref never executed; decoy only)
    let _ = unsafe { *p };
}

fn decoy_strings_and_idents() {
    let _ = "unsafe { static mut } transmute Ordering::Relaxed";
    let _ = r#"more unsafe text"#;
    /* block comment mentioning unsafe and /* nested */ transmute */
    let unsafe_like_ident = 1; // mentions nothing
    let _ = unsafe_like_ident;
}

#[allow(clippy::needless_return)] // decoy: rationale present, must not fire
fn decoy_allow_with_reason() -> u32 {
    return 1;
}

#[cfg(target_feature = "avx2")] // decoy: the cfg predicate is not the attribute
fn decoy_cfg_target_feature() {
    let _ = "#[target_feature(enable = \"avx2\")]";
}
