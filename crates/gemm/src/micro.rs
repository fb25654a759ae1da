//! The register-blocked micro-kernel (§4.3.1).
//!
//! Computes `X̂ = β·X̂ + Û·V̂` on contiguous row-major blocks:
//!
//! * `Û`: `n_blk × C_blk` (tall-skinny panel of transformed inputs),
//! * `V̂`: `C_blk × C'_blk` (resident in L2 across many Û panels),
//! * `X̂`: `n_blk × C'_blk`.
//!
//! Register blocking follows the paper exactly: sub-matrices of `X̂` of
//! size `n_blk × S` are held in `n_blk` vector registers; the loop over the
//! `C_blk` columns of `Û` performs one scalar-broadcast FMA per register
//! with the matching row-slice of `V̂` (1 auxiliary register) plus one
//! look-ahead `V̂` load — hence `n_blk ≤ 30` with 32 architectural
//! registers. Software prefetch of upcoming `Û`/`V̂` lines is interleaved
//! with the FMAs, and the *next* panel is prefetched to L2 while storing.
//!
//! `n_blk` is a compile-time constant of each monomorphised kernel, and
//! the kernel body is generic over the vector backend: [`microkernel`]
//! enters the active backend's arm once per call ([`wino_simd::dispatch`])
//! and selects among the 30 instantiations inside it — the Rust analogue
//! of the paper's generate-on-demand JIT (the true machine-code JIT lives
//! in `wino-jit` and is verified against this). The 30-row ceiling is the
//! AVX-512 register file's; [`wino_simd::Backend::max_rows`] tells the
//! blocking model how many rows the active backend holds without
//! spilling.
//!
//! The `scatter` variant implements operation ⑥: on the *last* `k`-block
//! the result bypasses `X̂` and is written directly to per-row
//! destinations (the tile-major `I'` layout) — with non-temporal
//! streaming stores in the monolithic schedules (the paper credits this
//! with >20 % overall speedup), or with regular stores when the
//! superblock-pipelined schedule wants the scattered tiles to stay
//! cache-hot for the immediately following inverse transform.

// Index-based loops are the idiom throughout: most walk several
// arrays with derived offsets, where iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]
use wino_simd::{prefetch_t0, prefetch_t1, Kernel, Simd16, S};

/// Largest `n_blk` any backend's micro-kernel is instantiated for: 32
/// AVX-512 registers minus 2 auxiliaries.
pub const MAX_N_BLK: usize = 30;

/// Where the kernel writes its result.
#[derive(Clone, Copy)]
pub enum Output {
    /// Store back into the contiguous `X̂` block (intermediate k-blocks).
    Block,
    /// Scatter rows: row `j` of `X̂` goes to
    /// `row_ptrs[j] + q·group_stride` for each S-wide column group `q`.
    /// A null `row_ptrs[j]` skips the row (padding rows of the final,
    /// partially filled `n_blk` panel). With `streaming` the rows are
    /// written with non-temporal stores (the monolithic ⑥ write, which
    /// bypasses the caches on its way to `I'`); without it they use
    /// regular stores so the scattered tiles stay cache-resident for an
    /// immediately following pipelined stage 3.
    Scatter {
        row_ptrs: *const *mut f32,
        group_stride: usize,
        streaming: bool,
    },
}

/// Parameters of one micro-kernel invocation.
#[derive(Clone, Copy)]
pub struct MicroArgs {
    /// `Û` block pointer (`n_blk × c_blk`, row-major).
    pub u: *const f32,
    /// `V̂` block pointer (`c_blk × cp_blk`, row-major).
    pub v: *const f32,
    /// `X̂` block pointer (`n_blk × cp_blk`, row-major). With
    /// `Output::Scatter` it is only *read* (when `beta` is set).
    pub x: *mut f32,
    /// Reduction extent (`C_blk`).
    pub c_blk: usize,
    /// Output width (`C'_blk`), a multiple of `S`.
    pub cp_blk: usize,
    /// `β`: accumulate into existing `X̂` (true) or overwrite (false).
    pub beta: bool,
    /// `Û` panel of the *next* micro-kernel call, prefetched to L2 during
    /// stores (null to disable).
    pub next_u: *const f32,
    /// `X̂` panel of the next call, prefetched to L2 (null to disable).
    pub next_x: *const f32,
    pub output: Output,
}

/// Look-ahead distance (in `V̂` rows) for L1 prefetches.
const PF_DIST: usize = 4;

// SAFETY: callers uphold the pointer-validity contract documented on
// `microkernel` (the only caller), with `NB` as `n_blk`.
#[inline(always)]
unsafe fn kernel_impl<V: Simd16, const NB: usize>(a: &MicroArgs) {
    let qn = a.cp_blk / S;
    for q in 0..qn {
        let xq = a.x.add(q * S);
        let vq = a.v.add(q * S);
        let mut acc = [V::zero(); NB];
        if a.beta {
            for j in 0..NB {
                acc[j] = V::load(xq.add(j * a.cp_blk));
            }
        }
        let mut vk = V::load(vq);
        for k in 0..a.c_blk {
            // Look-ahead load of the next V̂ row slice (the paper's "one
            // additional vector load to register ... for in-register
            // operations in the next iteration").
            let v_next = if k + 1 < a.c_blk {
                V::load(vq.add((k + 1) * a.cp_blk))
            } else {
                vk
            };
            // Prefetch upcoming V̂ and Û lines to L1, interleaved with FMAs.
            if k + PF_DIST < a.c_blk {
                prefetch_t0(vq.add((k + PF_DIST) * a.cp_blk) as *const u8);
            }
            let uk = a.u.add(k);
            prefetch_t0(uk.add(PF_DIST) as *const u8);
            for j in 0..NB {
                acc[j] = V::splat(*uk.add(j * a.c_blk)).mul_add(vk, acc[j]);
            }
            vk = v_next;
        }
        match a.output {
            Output::Block => {
                for j in 0..NB {
                    acc[j].store(xq.add(j * a.cp_blk));
                    // While storing each row, prefetch the same locations of
                    // the next panels to L2 (paper: "next two matrices to be
                    // multiplied by V̂").
                    if !a.next_u.is_null() {
                        prefetch_t1(a.next_u.add(j * a.c_blk) as *const u8);
                    }
                    if !a.next_x.is_null() {
                        prefetch_t1(a.next_x.add(j * a.cp_blk + q * S) as *const u8);
                    }
                }
            }
            Output::Scatter { row_ptrs, group_stride, streaming } => {
                for j in 0..NB {
                    let dst = *row_ptrs.add(j);
                    if !dst.is_null() {
                        if streaming {
                            acc[j].store_nt(dst.add(q * group_stride));
                        } else {
                            acc[j].store(dst.add(q * group_stride));
                        }
                    }
                    if !a.next_u.is_null() {
                        prefetch_t1(a.next_u.add(j * a.c_blk) as *const u8);
                    }
                }
            }
        }
    }
}

macro_rules! dispatch_nb {
    ($v:ty, $nb:expr, $args:expr, [$($n:literal),*]) => {
        match $nb {
            $( $n => kernel_impl::<$v, $n>($args), )*
            other => panic!("n_blk = {other} out of range 1..={}", MAX_N_BLK),
        }
    };
}

/// One [`microkernel`] call, ready for whichever backend runs it.
struct MicroCall<'a> {
    n_blk: usize,
    args: &'a MicroArgs,
}

impl Kernel for MicroCall<'_> {
    type Output = ();

    #[inline(always)]
    fn run<V: Simd16>(self) {
        // SAFETY: `microkernel`, the only constructor, forwards its
        // caller's pointer-validity contract.
        unsafe {
            dispatch_nb!(
                V,
                self.n_blk,
                self.args,
                [
                    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
                    22, 23, 24, 25, 26, 27, 28, 29, 30
                ]
            )
        }
    }
}

/// Run the micro-kernel for `n_blk` rows (1..=30).
///
/// # Safety
/// * `a.u` must be valid for `n_blk · c_blk` reads,
/// * `a.v` for `c_blk · cp_blk` reads,
/// * `a.x` for `n_blk · cp_blk` reads/writes,
/// * `cp_blk` must be a multiple of `S` and non-zero, `c_blk ≥ 1`,
/// * with `Output::Scatter`, `row_ptrs` must hold `n_blk` pointers, each
///   null or valid for `(cp_blk/S)·group_stride` writes and 64-byte
///   aligned (streaming stores), and the scatter targets must not overlap
///   `u`/`v`/`x`.
pub unsafe fn microkernel(n_blk: usize, a: &MicroArgs) {
    debug_assert!(a.cp_blk.is_multiple_of(S) && a.cp_blk > 0);
    debug_assert!(a.c_blk >= 1);
    wino_simd::dispatch(MicroCall { n_blk, args: a })
}

/// Reference implementation of the same contract (plain scalar loops) —
/// the oracle for unit, property and JIT-equivalence tests.
pub fn microkernel_reference(
    n_blk: usize,
    u: &[f32],
    v: &[f32],
    x: &mut [f32],
    c_blk: usize,
    cp_blk: usize,
    beta: bool,
) {
    assert!(u.len() >= n_blk * c_blk);
    assert!(v.len() >= c_blk * cp_blk);
    assert!(x.len() >= n_blk * cp_blk);
    for j in 0..n_blk {
        for p in 0..cp_blk {
            let mut acc = if beta { x[j * cp_blk + p] } else { 0.0 };
            for k in 0..c_blk {
                acc = u[j * c_blk + k].mul_add(v[k * cp_blk + p], acc);
            }
            x[j * cp_blk + p] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_simd::AlignedVec;

    fn filled(n: usize, seed: u32) -> AlignedVec {
        let mut v = AlignedVec::zeroed(n);
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        for x in v.iter_mut() {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            *x = ((state >> 9) as f32 / (1 << 23) as f32) - 1.0;
        }
        v
    }

    fn run_and_compare(n_blk: usize, c_blk: usize, cp_blk: usize, beta: bool) {
        let u = filled(n_blk * c_blk, 1);
        let v = filled(c_blk * cp_blk, 2);
        let x0 = filled(n_blk * cp_blk, 3);
        let mut x_simd = x0.clone();
        let mut x_ref: Vec<f32> = x0.as_slice().to_vec();

        let args = MicroArgs {
            u: u.as_ptr(),
            v: v.as_ptr(),
            x: x_simd.as_mut_ptr(),
            c_blk,
            cp_blk,
            beta,
            next_u: std::ptr::null(),
            next_x: std::ptr::null(),
            output: Output::Block,
        };
        // SAFETY: all buffers are sized to the block shape above.
        unsafe { microkernel(n_blk, &args) };
        microkernel_reference(n_blk, &u, &v, &mut x_ref, c_blk, cp_blk, beta);

        for i in 0..n_blk * cp_blk {
            let (a, b) = (x_simd[i], x_ref[i]);
            assert!(
                (a - b).abs() <= 1e-4 * b.abs().max(1.0),
                "n_blk={n_blk} c_blk={c_blk} cp_blk={cp_blk} beta={beta} elem {i}: {a} vs {b}"
            );
        }
    }

    /// Every backend this process may run (the x86 arms are compiled
    /// into every build), every `n_blk`, β ∈ {0, 1}, both output modes:
    /// all within the reference tolerance, hence of each other.
    #[test]
    fn every_backend_matches_reference_for_every_n_blk() {
        let (c_blk, cp_blk, group_stride) = (24, 32, 64);
        for backend in wino_simd::Backend::available() {
            for n_blk in 1..=MAX_N_BLK {
                let u = filled(n_blk * c_blk, 11);
                let v = filled(c_blk * cp_blk, 12);
                let x0 = filled(n_blk * cp_blk, 13);
                for (beta, scatter) in [(false, false), (true, false), (false, true), (true, true)] {
                    let mut x = x0.clone();
                    let mut x_ref = x0.as_slice().to_vec();
                    microkernel_reference(n_blk, &u, &v, &mut x_ref, c_blk, cp_blk, beta);

                    let mut arena = AlignedVec::zeroed(n_blk * 2 * group_stride);
                    let base = arena.as_mut_ptr();
                    // SAFETY: row j's two column groups end at float
                    // (2j + 1)·group_stride + 16, inside the arena.
                    let row_ptrs: Vec<*mut f32> =
                        (0..n_blk).map(|j| unsafe { base.add(j * 2 * group_stride) }).collect();
                    let output = if scatter {
                        Output::Scatter { row_ptrs: row_ptrs.as_ptr(), group_stride, streaming: true }
                    } else {
                        Output::Block
                    };
                    let args = MicroArgs {
                        u: u.as_ptr(),
                        v: v.as_ptr(),
                        x: x.as_mut_ptr(),
                        c_blk,
                        cp_blk,
                        beta,
                        next_u: std::ptr::null(),
                        next_x: std::ptr::null(),
                        output,
                    };
                    backend.run(MicroCall { n_blk, args: &args });
                    wino_simd::sfence();

                    for j in 0..n_blk {
                        for p in 0..cp_blk {
                            let got = if scatter {
                                arena[j * 2 * group_stride + (p / 16) * group_stride + p % 16]
                            } else {
                                x[j * cp_blk + p]
                            };
                            let want = x_ref[j * cp_blk + p];
                            assert!(
                                (got - want).abs() <= 1e-4 * want.abs().max(1.0),
                                "{} n_blk={n_blk} beta={beta} scatter={scatter} row {j} col {p}: \
                                 {got} vs {want}",
                                backend.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn beta_accumulates() {
        for n_blk in [1, 7, 16, 30] {
            run_and_compare(n_blk, 48, 32, true);
        }
    }

    #[test]
    fn paper_blocking_sizes() {
        // The compute-to-memory sweet spot from §4.3.2.
        run_and_compare(8, 128, 128, false);
        run_and_compare(8, 128, 128, true);
        run_and_compare(30, 64, 64, true);
        run_and_compare(6, 512, 32, false);
    }

    #[test]
    fn minimal_sizes() {
        run_and_compare(1, 1, 16, false);
        run_and_compare(1, 1, 16, true);
        run_and_compare(2, 2, 16, false);
    }

    #[test]
    fn prefetch_pointers_do_not_corrupt() {
        let n_blk = 4;
        let (c_blk, cp_blk) = (32, 32);
        let u = filled(n_blk * c_blk, 4);
        let v = filled(c_blk * cp_blk, 5);
        let next_u = filled(n_blk * c_blk, 6);
        let mut x = AlignedVec::zeroed(n_blk * cp_blk);
        let next_x = AlignedVec::zeroed(n_blk * cp_blk);
        let mut x_ref = vec![0.0f32; n_blk * cp_blk];
        let args = MicroArgs {
            u: u.as_ptr(),
            v: v.as_ptr(),
            x: x.as_mut_ptr(),
            c_blk,
            cp_blk,
            beta: false,
            next_u: next_u.as_ptr(),
            next_x: next_x.as_ptr(),
            output: Output::Block,
        };
        // SAFETY: all buffers (including the prefetch-only next panels)
        // are sized to the block shape above.
        unsafe { microkernel(n_blk, &args) };
        microkernel_reference(n_blk, &u, &v, &mut x_ref, c_blk, cp_blk, false);
        for i in 0..n_blk * cp_blk {
            assert!((x[i] - x_ref[i]).abs() <= 1e-4 * x_ref[i].abs().max(1.0));
        }
        // Prefetch must not modify the next panels.
        assert!(next_x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn scatter_writes_rows_to_destinations() {
        let n_blk = 3;
        let (c_blk, cp_blk) = (16, 32);
        let u = filled(n_blk * c_blk, 7);
        let v = filled(c_blk * cp_blk, 8);
        let mut x = AlignedVec::zeroed(n_blk * cp_blk);
        let mut x_ref = vec![0.0f32; n_blk * cp_blk];

        // Destination arena: rows land at separated, 64-byte aligned spots;
        // group stride of 64 floats separates the q=0 and q=1 groups.
        let mut arena = AlignedVec::zeroed(4096);
        let base = arena.as_mut_ptr();
        // SAFETY: offsets stay within the 4096-float arena.
        let row_ptrs: Vec<*mut f32> =
            (0..n_blk).map(|j| unsafe { base.add(j * 256) }).collect();

        let args = MicroArgs {
            u: u.as_ptr(),
            v: v.as_ptr(),
            x: x.as_mut_ptr(),
            c_blk,
            cp_blk,
            beta: false,
            next_u: std::ptr::null(),
            next_x: std::ptr::null(),
            output: Output::Scatter {
                row_ptrs: row_ptrs.as_ptr(),
                group_stride: 64,
                streaming: true,
            },
        };
        microkernel_reference(n_blk, &u, &v, &mut x_ref, c_blk, cp_blk, false);

        // Both store flavours must land identical values.
        for streaming in [true, false] {
            arena.iter_mut().for_each(|v| *v = 0.0);
            let args = MicroArgs {
                output: Output::Scatter {
                    row_ptrs: row_ptrs.as_ptr(),
                    group_stride: 64,
                    streaming,
                },
                ..args
            };
            // SAFETY: row pointers land in the arena with room for both
            // column groups; scatter targets are 64-byte aligned.
            unsafe { microkernel(n_blk, &args) };
            wino_simd::sfence();

            for j in 0..n_blk {
                for q in 0..cp_blk / 16 {
                    for lane in 0..16 {
                        let got = arena[j * 256 + q * 64 + lane];
                        let want = x_ref[j * cp_blk + q * 16 + lane];
                        assert!(
                            (got - want).abs() <= 1e-4 * want.abs().max(1.0),
                            "streaming={streaming} row {j} group {q} lane {lane}: {got} vs {want}"
                        );
                    }
                }
            }
        }
        // X̂ itself must be untouched in scatter mode (beta = false).
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn scatter_skips_null_rows() {
        let n_blk = 4;
        let (c_blk, cp_blk) = (16, 16);
        let u = filled(n_blk * c_blk, 9);
        let v = filled(c_blk * cp_blk, 10);
        let mut x = AlignedVec::zeroed(n_blk * cp_blk);
        let mut arena = AlignedVec::zeroed(1024);
        let base = arena.as_mut_ptr();
        // Rows 1 and 3 are padding.
        // SAFETY: offsets stay within the 1024-float arena.
        let row_ptrs: Vec<*mut f32> = vec![
            unsafe { base.add(0) },
            std::ptr::null_mut(),
            // SAFETY: offset stays within the 1024-float arena.
            unsafe { base.add(128) },
            std::ptr::null_mut(),
        ];
        let args = MicroArgs {
            u: u.as_ptr(),
            v: v.as_ptr(),
            x: x.as_mut_ptr(),
            c_blk,
            cp_blk,
            beta: false,
            next_u: std::ptr::null(),
            next_x: std::ptr::null(),
            output: Output::Scatter {
                row_ptrs: row_ptrs.as_ptr(),
                group_stride: 16,
                streaming: true,
            },
        };
        // SAFETY: non-null row pointers are aligned arena slots with room
        // for one 16-float group each.
        unsafe { microkernel(n_blk, &args) };
        wino_simd::sfence();
        // Only the two targeted rows were written.
        assert!(arena[..16].iter().any(|&v| v != 0.0));
        assert!(arena[128..144].iter().any(|&v| v != 0.0));
        assert!(arena[16..128].iter().all(|&v| v == 0.0));
        assert!(arena[144..].iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_n_blk_panics() {
        let u = AlignedVec::zeroed(31 * 16);
        let v = AlignedVec::zeroed(16 * 16);
        let mut x = AlignedVec::zeroed(31 * 16);
        let args = MicroArgs {
            u: u.as_ptr(),
            v: v.as_ptr(),
            x: x.as_mut_ptr(),
            c_blk: 16,
            cp_blk: 16,
            beta: false,
            next_u: std::ptr::null(),
            next_x: std::ptr::null(),
            output: Output::Block,
        };
        // SAFETY: buffers sized for 31 rows; the dispatcher must panic
        // before any of them is read.
        unsafe { microkernel(31, &args) };
    }
}
