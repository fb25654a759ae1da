//! The register-tiled micro-kernel (§4.3.1).
//!
//! Computes `X̂ = β·X̂ + Û·V̂` on contiguous row-major blocks:
//!
//! * `Û`: `n_blk × C_blk` (tall-skinny panel of transformed inputs),
//! * `V̂`: `C_blk × C'_blk` (resident in L2 across many Û panels),
//! * `X̂`: `n_blk × C'_blk`.
//!
//! **Register tile.** The paper holds an `n_blk × S` sub-matrix of `X̂`
//! in `n_blk` vector registers and issues one broadcast load from `Û`
//! per FMA — the right balance for KNL, load-port-bound on an AVX-512
//! Xeon. Here the accumulators form an `R × Q` tile (`R` rows × `Q`
//! 16-lane column vectors): each step of the `C_blk` loop loads `Q`
//! vectors of `V̂` and broadcasts `R` scalars of `Û` for `R·Q` FMAs, so
//! every load feeds several FMAs. `R·Q` accumulators, `Q` `V̂` registers
//! and the broadcast must fit the register file; [`TileTable`] derives
//! the legal tiles from the backend's register count
//! ([`Simd16::VECTOR_REGS`]): AVX-512 (and `scalar`, which mirrors it)
//! 6×4 / 8×3 / 12×2 / 16×1, AVX2 (two `ymm` per vector) 6×1.
//!
//! **Strip walk.** `n_blk` stays what it is everywhere else — panel
//! height, row block of the `Û`/`X̂` layouts, padding unit.
//! Inside a call the panel's `C'_blk/S` column vectors are cut into
//! near-equal column strips of at most `Q_max` vectors and, per column
//! strip, its `n_blk` rows into near-equal row strips of at most
//! `R_max(Q)` rows ([`strips`]); column strips are the outer loop, so the
//! `C_blk × 16Q` slice of `V̂` stays in L1 across the row strips. Each
//! `(R, Q)` is a monomorphised `Tile` kernel entered through the active
//! backend's arm ([`wino_simd::Backend::run`]; the backend is looked up
//! once per call). The shape is chosen from what the call can observe
//! (`n_blk`, `cp_blk`, the backend), never from an option; the true
//! machine-code JIT in `wino-jit` emits the same strips and is verified
//! `==` against this.
//!
//! Every output element accumulates `fma(û[j,k], v̂[k,p], acc)` for
//! `k = 0..C_blk` in order whatever the tile, so results do not depend on
//! the tiling (the `1 × 1` tile is the test reference).
//!
//! Behind a tile's stores, the same locations of the *next* panel's `Û`
//! and `X̂` are prefetched to L2.
//!
//! The `scatter` variant implements operation ⑥: on the *last* `k`-block
//! the result bypasses `X̂` and is written directly to per-row
//! destinations (the tile-major `I'` layout; the paper credits this
//! fusion with >20 % overall speedup) — with non-temporal streaming
//! stores or regular ones, as the caller asks.

// Index-based loops are the idiom throughout: most walk several
// arrays with derived offsets, where iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]
use wino_simd::{prefetch_t1, Backend, Kernel, Simd16, S};

/// Largest panel height (`n_blk`) the micro-kernel accepts — the paper's
/// bound (32 AVX-512 registers minus 2 auxiliaries), kept as the row
/// block ceiling of the layouts and of callers' row-pointer arrays.
pub const MAX_N_BLK: usize = 30;

/// The register tiles a backend can hold without spilling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileTable {
    /// Accumulator budget in 16-lane vectors: three quarters of the
    /// register file, the rest holding the `V̂` row and the broadcast.
    acc: usize,
}

impl TileTable {
    /// The table of a backend with `vector_regs` 16-lane registers
    /// ([`Simd16::VECTOR_REGS`]).
    pub const fn new(vector_regs: usize) -> TileTable {
        TileTable { acc: vector_regs * 3 / 4 }
    }

    /// Widest tile, in column vectors: as wide as leaves at least six
    /// rows (the FMA-latency floor of §4.3.2), at most four.
    pub fn q_max(self) -> usize {
        (self.acc / 6).clamp(1, 4)
    }

    /// Tallest tile of `q` column vectors. More than 16 rows of one
    /// vector only lengthen the broadcast-per-FMA stream.
    pub fn r_max(self, q: usize) -> usize {
        (self.acc / q).min(16)
    }

    /// The active backend's table.
    pub fn active() -> TileTable {
        wino_simd::backend().run(Table)
    }

    /// The largest tile `(R, Q)` the strip walk cuts from an
    /// `n_blk × cp_blk` panel (the other strips are at most one row or
    /// one vector smaller) — for benchmark reports.
    pub fn largest_tile(self, n_blk: usize, cp_blk: usize) -> (usize, usize) {
        let q = strips(cp_blk / S, self.q_max()).next().map_or(0, |s| s.1);
        let r = strips(n_blk, self.r_max(q.max(1))).next().map_or(0, |s| s.1);
        (r, q)
    }
}

/// Cut `0..n` into `⌈n / max⌉` near-equal strips `(start, len)`, longer
/// ones first (28 rows at `max = 6`: 6, 6, 6, 5, 5).
pub fn strips(n: usize, max: usize) -> impl Iterator<Item = (usize, usize)> {
    let count = n.div_ceil(max);
    // (`n = 0` has no strips; the `max(1)` only keeps its division legal.)
    let (base, longer) = (n / count.max(1), n % count.max(1));
    (0..count).map(move |s| (s * base + s.min(longer), base + usize::from(s < longer)))
}

/// Where the kernel writes its result.
#[derive(Clone, Copy)]
pub enum Output {
    /// Store back into the contiguous `X̂` block (intermediate k-blocks).
    Block,
    /// Scatter rows: row `j` of `X̂` goes to
    /// `row_ptrs[j] + q·group_stride` for each S-wide column group `q`.
    /// A null `row_ptrs[j]` skips the row (padding rows of the final,
    /// partially filled `n_blk` panel). With `streaming` the rows are
    /// written with non-temporal stores, which bypass the caches on
    /// their way to `I'`; otherwise with regular stores, which leave
    /// the scattered tiles cache-resident for the inverse transform.
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

/// One `R × Q` register tile: rows `j0..j0+R`, column vectors
/// `q0..q0+Q` of the panel, over the whole reduction.
///
/// # Safety
/// The pointer-validity contract documented on [`microkernel`] holds for
/// a panel of at least `j0 + R` rows and `a.cp_blk ≥ (q0 + Q)·S`.
#[inline(always)]
unsafe fn tile<V: Simd16, const R: usize, const Q: usize>(a: &MicroArgs, j0: usize, q0: usize) {
    let (c_blk, cp_blk) = (a.c_blk, a.cp_blk);
    // SAFETY (whole body): every offset addresses row j0+j < n_blk,
    // reduction index k < c_blk and column (q0+q)·S + lane < cp_blk of
    // the blocks the caller vouches for; scatter rows are checked for
    // null and written at the group offsets the `Output::Scatter`
    // contract names. Prefetches never fault.
    let u = a.u.add(j0 * c_blk);
    let v = a.v.add(q0 * S);
    let x = a.x.add(j0 * cp_blk + q0 * S);
    let mut acc = [[V::zero(); Q]; R];
    if a.beta {
        for j in 0..R {
            for q in 0..Q {
                acc[j][q] = V::load(x.add(j * cp_blk + q * S));
            }
        }
    }
    // No closures in here: a closure does not inherit the arm's target
    // features, and one that fails to inline runs every vector op as an
    // out-of-line call (measured: 2 GF/s).
    for k in 0..c_blk {
        let mut vk = [V::zero(); Q];
        for q in 0..Q {
            vk[q] = V::load(v.add(k * cp_blk + q * S));
        }
        for j in 0..R {
            let b = V::splat(*u.add(j * c_blk + k));
            for q in 0..Q {
                acc[j][q] = b.mul_add(vk[q], acc[j][q]);
            }
        }
    }
    // One loop nest per output flavour: a `match` inside the row loop
    // keeps LLVM from unrolling it, and a rolled loop indexes `acc`
    // dynamically, which parks the accumulators on the stack.
    match a.output {
        Output::Block => {
            for j in 0..R {
                for q in 0..Q {
                    acc[j][q].store(x.add(j * cp_blk + q * S));
                }
            }
        }
        Output::Scatter { row_ptrs, group_stride, streaming } => {
            for j in 0..R {
                let dst = *row_ptrs.add(j0 + j);
                if !dst.is_null() {
                    for q in 0..Q {
                        let d = dst.add((q0 + q) * group_stride);
                        if streaming {
                            acc[j][q].store_nt(d);
                        } else {
                            acc[j][q].store(d);
                        }
                    }
                }
            }
        }
    }
    // Behind the stores, pull the same locations of the next panels
    // toward L2 (paper: "next two matrices to be multiplied by V̂").
    for j in j0..j0 + R {
        for q in q0..q0 + Q {
            if !a.next_u.is_null() && q * S < c_blk {
                prefetch_t1(a.next_u.add(j * c_blk + q * S) as *const u8);
            }
            if !a.next_x.is_null() {
                prefetch_t1(a.next_x.add(j * cp_blk + q * S) as *const u8);
            }
        }
    }
}

/// One register tile of a panel as a [`Kernel`], so every `(R, Q)` is its
/// own function per backend arm: a single arm holding all of them makes
/// LLVM hoist every tile's address arithmetic in front of the strip walk
/// (measured: 67 → 102 GF/s on 8-row panels of 32 × 32 blocks).
struct Tile<'a, const R: usize, const Q: usize> {
    args: &'a MicroArgs,
    j0: usize,
    q0: usize,
}

impl<const R: usize, const Q: usize> Kernel for Tile<'_, R, Q> {
    type Output = ();

    #[inline(always)]
    fn run<V: Simd16>(self) {
        // A constant per instantiation, so a backend compiles only the
        // tiles its table allows.
        if R * Q > TileTable::new(V::VECTOR_REGS).acc {
            unreachable!("no {R}x{Q} tile in this backend's table");
        }
        // SAFETY: `walk`, the only constructor, forwards the contract of
        // `microkernel` for `n_blk` rows, and its strips stay inside
        // `n_blk × cp_blk/S`.
        unsafe { tile::<V, R, Q>(self.args, self.j0, self.q0) }
    }
}

/// The backend's register-tile table.
struct Table;

impl Kernel for Table {
    type Output = TileTable;

    #[inline(always)]
    fn run<V: Simd16>(self) -> TileTable {
        TileTable::new(V::VECTOR_REGS)
    }
}

/// Run the monomorphised `Tile<r, Q>` for a run-time strip height.
macro_rules! row_strip {
    ($b:expr, $q:literal, $r:expr, $a:expr, $j0:expr, $q0:expr, [$($n:literal),*]) => {
        match $r {
            $( $n => $b.run(Tile::<$n, $q> { args: $a, j0: $j0, q0: $q0 }), )*
            r => unreachable!("no {r}x{} tile", $q),
        }
    };
}

/// Walk an `n_blk`-row panel on `backend`: column strips outer, row
/// strips inner.
///
/// # Safety
/// The contract of [`microkernel`].
unsafe fn walk(backend: Backend, n_blk: usize, a: &MicroArgs) {
    let table = backend.run(Table);
    for (q0, q) in strips(a.cp_blk / S, table.q_max()) {
        for (j0, r) in strips(n_blk, table.r_max(q)) {
            match q {
                1 => row_strip!(
                    backend, 1, r, a, j0, q0,
                    [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]
                ),
                2 => row_strip!(backend, 2, r, a, j0, q0, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]),
                3 => row_strip!(backend, 3, r, a, j0, q0, [1, 2, 3, 4, 5, 6, 7, 8]),
                4 => row_strip!(backend, 4, r, a, j0, q0, [1, 2, 3, 4, 5, 6]),
                q => unreachable!("column strip of {q} vectors"),
            }
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
    assert!((1..=MAX_N_BLK).contains(&n_blk), "n_blk = {n_blk} out of range 1..={MAX_N_BLK}");
    debug_assert!(a.cp_blk.is_multiple_of(S) && a.cp_blk > 0);
    debug_assert!(a.c_blk >= 1);
    walk(wino_simd::backend(), n_blk, a)
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

    #[test]
    fn strips_are_near_equal_and_cover() {
        assert_eq!(strips(28, 6).collect::<Vec<_>>(), [(0, 6), (6, 6), (12, 6), (18, 5), (23, 5)]);
        assert_eq!(strips(30, 6).map(|s| s.1).collect::<Vec<_>>(), [6; 5]);
        assert_eq!(strips(5, 4).collect::<Vec<_>>(), [(0, 3), (3, 2)]);
        assert_eq!(strips(0, 4).count(), 0);
        for max in 1..=16 {
            for n in 1..=40 {
                let cut: Vec<_> = strips(n, max).collect();
                assert_eq!(cut.len(), n.div_ceil(max));
                let mut next = 0;
                for &(start, len) in &cut {
                    assert_eq!(start, next);
                    assert!(len >= 1 && len <= max && len + 1 >= cut[0].1);
                    next += len;
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn tile_tables_match_the_register_files() {
        let zmm = TileTable::new(32);
        assert_eq!(zmm.q_max(), 4);
        assert_eq!([1, 2, 3, 4].map(|q| zmm.r_max(q)), [16, 12, 8, 6]);
        // 16 ymm at two per vector: six rows of one vector (12 ymm), two
        // for the V̂ row, one for the broadcast.
        let ymm = TileTable::new(8);
        assert_eq!((ymm.q_max(), ymm.r_max(1)), (1, 6));

        assert_eq!(zmm.largest_tile(28, 128), (6, 4));
        assert_eq!(zmm.largest_tile(27, 64), (6, 4));
        assert_eq!(zmm.largest_tile(16, 48), (8, 3));
        assert_eq!(zmm.largest_tile(25, 32), (9, 2));
        assert_eq!(zmm.largest_tile(30, 16), (15, 1));
        assert_eq!(ymm.largest_tile(30, 128), (6, 1));
        assert!(Backend::available().iter().any(|b| b.run(Table) == TileTable::active()));
    }

    /// Every backend this process may run (the x86 arms are compiled
    /// into every build) × every `n_blk` × column widths that produce
    /// every tile width and mixed strips × β × Block / Scatter (plain and
    /// streaming, last row a null padding row): the strip walk equals the
    /// 1 × 1-tile walk bit for bit — the tiling changes no element's FMA
    /// chain — and both sit within the scalar reference's tolerance.
    #[test]
    fn tiled_panel_equals_the_one_by_one_walk_on_every_backend() {
        let (c_blk, group_stride) = (40, 32);
        for backend in Backend::available() {
            for cp_blk in [16, 32, 48, 64, 96, 128] {
                let qn = cp_blk / S;
                let v = filled(c_blk * cp_blk, 12);
                for n_blk in 1..=MAX_N_BLK {
                    let u = filled(n_blk * c_blk, 11);
                    let x0 = filled(n_blk * cp_blk, 13);
                    for beta in [false, true] {
                        let mut x_ref = x0.as_slice().to_vec();
                        microkernel_reference(n_blk, &u, &v, &mut x_ref, c_blk, cp_blk, beta);
                        // None = Block, Some(streaming) = Scatter.
                        for scatter in [None, Some(false), Some(true)] {
                            let run = |tiled: bool| -> (AlignedVec, AlignedVec) {
                                let mut x = x0.clone();
                                let mut arena = AlignedVec::zeroed(n_blk * qn * group_stride);
                                let base = arena.as_mut_ptr();
                                // SAFETY: row j's groups end at float
                                // (j·qn + qn − 1)·group_stride + 16, inside
                                // the arena.
                                let mut row_ptrs: Vec<*mut f32> = (0..n_blk)
                                    .map(|j| unsafe { base.add(j * qn * group_stride) })
                                    .collect();
                                if n_blk > 1 {
                                    row_ptrs[n_blk - 1] = std::ptr::null_mut();
                                }
                                let args = MicroArgs {
                                    u: u.as_ptr(),
                                    v: v.as_ptr(),
                                    x: x.as_mut_ptr(),
                                    c_blk,
                                    cp_blk,
                                    beta,
                                    next_u: std::ptr::null(),
                                    next_x: std::ptr::null(),
                                    output: match scatter {
                                        None => Output::Block,
                                        Some(streaming) => Output::Scatter {
                                            row_ptrs: row_ptrs.as_ptr(),
                                            group_stride,
                                            streaming,
                                        },
                                    },
                                };
                                if tiled {
                                    // SAFETY: buffers sized to the block
                                    // shape; row pointers null or aligned
                                    // arena slots with room for qn groups.
                                    unsafe { walk(backend, n_blk, &args) };
                                } else {
                                    for j0 in 0..n_blk {
                                        for q0 in 0..qn {
                                            backend.run(Tile::<1, 1> { args: &args, j0, q0 });
                                        }
                                    }
                                }
                                wino_simd::sfence();
                                (x, arena)
                            };
                            let (x_tiled, arena_tiled) = run(true);
                            let (x_one, arena_one) = run(false);
                            let case = format!(
                                "{} n_blk={n_blk} cp_blk={cp_blk} beta={beta} scatter={scatter:?}",
                                backend.name()
                            );
                            assert_eq!(x_tiled.as_slice(), x_one.as_slice(), "{case}");
                            assert_eq!(arena_tiled.as_slice(), arena_one.as_slice(), "{case}");

                            for j in 0..n_blk {
                                let padding = scatter.is_some() && n_blk > 1 && j == n_blk - 1;
                                for p in 0..cp_blk {
                                    let slot = (j * qn + p / S) * group_stride + p % S;
                                    let (got, want) = match (scatter, padding) {
                                        (None, _) => (x_tiled[j * cp_blk + p], x_ref[j * cp_blk + p]),
                                        (Some(_), false) => (arena_tiled[slot], x_ref[j * cp_blk + p]),
                                        (Some(_), true) => (arena_tiled[slot], 0.0),
                                    };
                                    assert!(
                                        (got - want).abs() <= 1e-4 * want.abs().max(1.0),
                                        "{case} row {j} col {p}: {got} vs {want}"
                                    );
                                }
                            }
                            if scatter.is_some() {
                                // Scatter output only reads X̂.
                                assert_eq!(x_tiled.as_slice(), x0.as_slice(), "{case}");
                            }
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
