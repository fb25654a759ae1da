//! Generated transform codelets and the N-D tile driver (§4.2.1).
//!
//! The paper's transform stages run *generated* straight-line codelets,
//! for arbitrary kernel and tile sizes. Ours are printed at build time:
//! `build.rs` lowers the Fig. 2 pair programs of `Bᵀ`, `G` and `Aᵀ` for
//! every `F(m, r)`, `m ∈ 1..=`[`TABLE_MAX_M`], `r ∈ 1..=`[`TABLE_MAX_R`]
//! (`PointSchedule::Mixed`) through `wino-transforms`' `emit` into one
//! `unsafe fn …<V: Simd16, const NT: bool>(inp, in_stride, out,
//! out_stride)` per matrix — inputs loaded once, coefficients as
//! literals, `±1` as add/sub — and this module includes the result.
//! Beside the codelets it prints one `Row` per `F(m, r)`: the scalar op
//! counts of the three programs and γ, computed from the exact matrices
//! when the table was generated (`row(m, r)`). Nothing at run time knows there
//! was a matrix: `wino-transforms` is a build (and test) dependency only.
//!
//! That rectangle is everything the engine plans: `WinogradLayer::new`
//! rejects a dimension outside it ([`in_table`]) with
//! `PlanError::BadTileSize`, so every planned dimension has a row and the
//! stages have one transform route. The tests hold every row equal (f32
//! `==`) to the `vecprog` interpreter, which performs the same arithmetic
//! in the same order over the same programs, and its op counts and γ
//! equal to the exact computation.
//!
//! A table row is *one compiled function per backend and store flavour*:
//! the generated dispatcher hands a pass to `V::enter`
//! ([`wino_simd::Simd16::enter`]), one direct call per pass per tile, so
//! the stage bodies that share the table (stage 1's tile and kernel
//! tasks, stage 3, the fused driver, [`transform_tile`]) carry a `match`
//! of calls rather than a copy of every codelet.
//!
//! `TileTransform::run` is the one entry point of stages 1 and 3: it
//! applies the per-dimension line codelet along every dimension of a
//! tile (the mode-n products of Eqn. 8). Source and destination are
//! *strided views*, so the first pass can read an interior tile straight
//! from the image and the last pass can write straight to `U`/`V` or the
//! output image — with streaming stores — while the thread buffers hold
//! only the intermediate passes.
//!
//! Everything generic over `V` here is `#[inline(always)]`, as
//! [`wino_simd::Kernel`] requires.

// Index-based loops are the idiom throughout: most walk several
// fixed-size per-dimension arrays at once.
#![allow(clippy::needless_range_loop)]
use std::marker::PhantomData;

use wino_simd::{Simd16, S};

pub use generated::{TABLE_MAX_M, TABLE_MAX_R};

use crate::plan::MAX_RANK;

/// Per-dimension strides of a tile view, in floats.
pub(crate) type Strides = [usize; MAX_RANK];

/// Row-major strides of a tile of extents `dims` whose consecutive
/// innermost elements are `elem` floats apart.
#[inline(always)]
pub(crate) fn row_major(dims: &[usize], elem: usize) -> Strides {
    let mut strides = [0usize; MAX_RANK];
    let mut acc = elem;
    for d in (0..dims.len()).rev() {
        strides[d] = acc;
        acc *= dims[d];
    }
    strides
}

/// One sweep of a line codelet over a tile: the codelet runs along
/// dimension `d`, once per multi-index of the other dimensions. The
/// innermost of those is a counted loop; only tiles of rank ≥ 3 step the
/// odometer over the rest.
pub(crate) struct Pass {
    inp: *const f32,
    out: *mut f32,
    /// `in_strides[d]` / `out_strides[d]`: the line's own strides.
    in_stride: usize,
    out_stride: usize,
    /// Lines per innermost sweep and the step between them.
    inner_n: usize,
    inner_in: usize,
    inner_out: usize,
    /// The odometer over the remaining dimensions: every `k < rank` other
    /// than `d` and `inner`.
    rank: usize,
    d: usize,
    inner: usize,
    dims: [usize; MAX_RANK],
    in_strides: Strides,
    out_strides: Strides,
}

impl Pass {
    /// A pass along dimension `d` of a tile whose *visited* extents are
    /// `dims` (entry `d` is not read). `d = rank` visits every element —
    /// a copy pass ([`copy_tile`]).
    #[inline(always)]
    fn new(
        (inp, in_strides): (*const f32, Strides),
        (out, out_strides): (*mut f32, Strides),
        rank: usize,
        d: usize,
        dims: [usize; MAX_RANK],
    ) -> Pass {
        let (in_stride, out_stride) = if d < rank { (in_strides[d], out_strides[d]) } else { (0, 0) };
        // The innermost visited dimension, if the tile has one.
        let inner = match (0..rank).rev().find(|&k| k != d) {
            Some(k) => k,
            None => rank,
        };
        let (inner_n, inner_in, inner_out) =
            if inner < rank { (dims[inner], in_strides[inner], out_strides[inner]) } else { (1, 0, 0) };
        Pass {
            inp,
            out,
            in_stride,
            out_stride,
            inner_n,
            inner_in,
            inner_out,
            rank,
            d,
            inner,
            dims,
            in_strides,
            out_strides,
        }
    }

    /// Step `(idx, i, o)` — the multi-index over the odometer dimensions
    /// and its input/output offsets — to the next innermost sweep.
    /// `false` once every sweep was visited.
    #[inline(always)]
    pub(crate) fn advance(&self, idx: &mut [usize; MAX_RANK], i: &mut usize, o: &mut usize) -> bool {
        for k in (0..self.rank).rev() {
            if k == self.d || k == self.inner {
                continue;
            }
            idx[k] += 1;
            *i += self.in_strides[k];
            *o += self.out_strides[k];
            if idx[k] < self.dims[k] {
                return true;
            }
            *i -= idx[k] * self.in_strides[k];
            *o -= idx[k] * self.out_strides[k];
            idx[k] = 0;
        }
        false
    }
}

/// Run `$codelet(inp, in_stride, out, out_stride)` on every line of
/// `$pass`. Expands inside an `unsafe fn` whose contract makes every
/// visited line valid for the codelet.
macro_rules! for_each_line {
    ($pass:expr, $codelet:expr) => {{
        let pass: &$crate::codelet::Pass = $pass;
        let (mut idx, mut i, mut o) = ([0usize; $crate::plan::MAX_RANK], 0usize, 0usize);
        loop {
            let (mut inp, mut out) = (pass.inp.add(i), pass.out.add(o));
            for _ in 0..pass.inner_n {
                $codelet(inp, pass.in_stride, out, pass.out_stride);
                (inp, out) = (inp.add(pass.inner_in), out.add(pass.inner_out));
            }
            if !pass.advance(&mut idx, &mut i, &mut o) {
                break;
            }
        }
    }};
}

/// One table row: sweep `$codelet` over every line of `$pass` as a single
/// out-of-line call into `$V`'s arm. Expands inside [`Family::pass`].
macro_rules! table_row {
    ($V:ident, $NT:ident, $pass:expr, $codelet:ident) => {{
        struct Sweep<'a, const NT: bool>(&'a $crate::codelet::Pass);
        impl<const NT: bool> wino_simd::Kernel for Sweep<'_, NT> {
            type Output = ();
            #[inline(always)]
            fn run<V: wino_simd::Simd16>(self) {
                // SAFETY: a `Sweep` is built only by the expansion below,
                // under `Family::pass`'s contract: every line the pass
                // visits is valid for this row's codelet.
                unsafe { for_each_line!(self.0, $codelet::<V, NT>) }
            }
        }
        $V::enter(Sweep::<$NT>($pass))
    }};
}

/// One of the three transform matrices, as a type: the stage bodies are
/// monomorphised per matrix, so each dispatches only over its own rows.
pub(crate) trait Family {
    /// Vectors a line of this family's `F(m, r)` reads and writes.
    fn extents(m: usize, r: usize) -> (usize, usize);

    /// Sweep this family's generated `F(m, r)` codelet over `pass`.
    ///
    /// # Safety
    /// `row = (m, r)` must be a table row ([`in_table`]), and for every
    /// multi-index the pass visits, the line at that offset must satisfy
    /// the codelet's contract: `n_in` readable vectors `in_stride` apart,
    /// `n_out` writable ones `out_stride` apart (64-byte aligned when
    /// `NT`), no written vector overlapping a read one.
    unsafe fn pass<V: Simd16, const NT: bool>(row: (usize, usize), pass: &Pass);
}

/// The input transform `Bᵀ` (`α → α`).
pub(crate) struct Bt;
/// The kernel transform `G` (`r → α`).
pub(crate) struct G;
/// The inverse transform `Aᵀ` (`α → m`).
pub(crate) struct At;

mod generated {
    use super::{At, Bt, Family, Pass, Row, G};

    include!(concat!(env!("OUT_DIR"), "/codelets.rs"));
}

/// The source text of the generated codelets this crate was built with
/// (`wino-lint` checks it like any other file).
pub const GENERATED_SOURCE: &str = include_str!(concat!(env!("OUT_DIR"), "/codelets.rs"));

/// Whether `F(m, r)` has a table row — i.e. whether the engine plans it.
pub fn in_table(m: usize, r: usize) -> bool {
    (1..=TABLE_MAX_M).contains(&m) && (1..=TABLE_MAX_R).contains(&r)
}

/// One `F(m, r)` of the table, as `build.rs` computed it from the exact
/// matrices: what a line of each of its transforms costs and how much
/// they amplify rounding error.
#[derive(Debug)]
pub(crate) struct Row {
    pub(crate) m: usize,
    pub(crate) r: usize,
    /// Scalar ops of one line of `Bᵀ`, `G` and `Aᵀ` (FMA = 2 ops).
    pub(crate) bt_ops: usize,
    pub(crate) g_ops: usize,
    pub(crate) at_ops: usize,
    /// The worst row-wise error amplification γ(m, r) of the triple.
    pub(crate) gamma: f64,
}

/// The table row of `F(m, r)`, or `None` outside the table.
pub(crate) fn row(m: usize, r: usize) -> Option<&'static Row> {
    in_table(m, r).then(|| &generated::ROWS[(r - 1) * TABLE_MAX_M + m - 1])
}

/// A destination view: output vector `(j₀, …)` goes to
/// `ptr + Σ j_d·strides[d]`, with non-temporal stores when `nt`.
pub(crate) struct Dest {
    pub(crate) ptr: *mut f32,
    pub(crate) strides: Strides,
    pub(crate) nt: bool,
}

/// Where the last pass of a tile transform writes.
pub(crate) enum Sink {
    /// Straight to a view of the caller's.
    Direct(Dest),
    /// Row-major into a thread buffer, which [`TileTransform::run`]
    /// returns (ragged output tiles are clipped from there).
    Staged,
}

/// One matrix family applied along every dimension of a tile: a layer's
/// table rows and tile extents. Built per stage call from the plan; holds
/// no heap memory.
pub(crate) struct TileTransform<F> {
    rank: usize,
    rows: [(usize, usize); MAX_RANK],
    /// Input / output extents (vectors) per dimension.
    pub(crate) in_dims: [usize; MAX_RANK],
    pub(crate) out_dims: [usize; MAX_RANK],
    /// Vectors each temporary buffer of [`Self::run`] must hold: the
    /// largest tile volume before, between or after the passes.
    pub(crate) tmp_vectors: usize,
    family: PhantomData<F>,
}

impl<F: Family> TileTransform<F> {
    /// `rows` are the table rows of the layer's dimensions, in order (at
    /// least one, at most [`MAX_RANK`]).
    pub(crate) fn new(rows: impl IntoIterator<Item = &'static Row>) -> Self {
        let mut rank = 0;
        let mut mr = [(0usize, 0usize); MAX_RANK];
        let (mut in_dims, mut out_dims) = ([1usize; MAX_RANK], [1usize; MAX_RANK]);
        for row in rows {
            mr[rank] = (row.m, row.r);
            (in_dims[rank], out_dims[rank]) = F::extents(row.m, row.r);
            rank += 1;
        }
        let mut dims = in_dims;
        let mut tmp_vectors: usize = dims[..rank].iter().product();
        for d in 0..rank {
            dims[d] = out_dims[d];
            tmp_vectors = tmp_vectors.max(dims[..rank].iter().product());
        }
        TileTransform { rank, rows: mr, in_dims, out_dims, tmp_vectors, family: PhantomData }
    }

    /// Transform one tile: read input vector `(i₀, …)` at
    /// `src + Σ i_d·src_strides[d]`, apply the family's matrix along
    /// dimensions `0, 1, …` in turn, and deliver the result to `sink`.
    /// Returns where the output starts (`sink`'s pointer, or the thread
    /// buffer a [`Sink::Staged`] result was left in, row-major).
    ///
    /// Pass `d` reads the previous pass's output (the source for `d = 0`)
    /// and writes `tmp[(d + 1) % 2]` row-major — `b, a, b, …`, so a source
    /// in `tmp[0]` is consumed before it is overwritten — except the
    /// last, which writes the sink, non-temporally when `nt`. A rank-1
    /// transform with a direct sink touches neither buffer.
    ///
    /// # Safety
    /// * every input vector must be valid for 16 reads, every
    ///   [`Sink::Direct`] output vector for 16 writes (64-byte aligned
    ///   when `nt`), and the caller must have exclusive access to them;
    /// * `tmp[0]` and `tmp[1]` must be distinct, 64-byte aligned and valid
    ///   for `tmp_vectors·S` floats, exclusively the caller's;
    /// * the source may be `tmp[0]` itself (row-major — a gathered edge
    ///   tile) but must not otherwise overlap `tmp` or the sink.
    #[inline(always)]
    pub(crate) unsafe fn run<V: Simd16>(
        &self,
        src: *const f32,
        src_strides: &Strides,
        sink: Sink,
        tmp: [*mut f32; 2],
    ) -> *const f32 {
        let rank = self.rank;
        let dst = match sink {
            Sink::Direct(dst) => dst,
            // Where pass `rank − 1` ping-pongs to.
            Sink::Staged => Dest {
                ptr: tmp[rank % 2],
                strides: row_major(&self.out_dims[..rank], S),
                nt: false,
            },
        };
        let mut dims = self.in_dims;
        let (mut inp, mut in_strides) = (src, *src_strides);
        for d in 0..rank {
            let last = d + 1 == rank;
            dims[d] = self.out_dims[d];
            let (out, out_strides) =
                if last { (dst.ptr, dst.strides) } else { (tmp[(d + 1) % 2], row_major(&dims[..rank], S)) };
            let pass = Pass::new((inp, in_strides), (out, out_strides), rank, d, dims);
            // SAFETY: `rows[d]` is the table row of dimension `d`,
            // whose codelet reads `in_dims[d]` and writes `out_dims[d]`
            // vectors per line; the views cover exactly those extents
            // (caller's contract for source and sink, `tmp_vectors` for
            // the intermediates), and a pass's input and output are
            // distinct buffers. A backend without streaming stores runs
            // (and compiles) the plain flavour only.
            unsafe {
                if dst.nt && last && V::STREAMS {
                    F::pass::<V, true>(self.rows[d], &pass);
                } else {
                    F::pass::<V, false>(self.rows[d], &pass);
                }
            }
            (inp, in_strides) = (out.cast_const(), out_strides);
        }
        dst.ptr
    }
}

/// Copy a tile of `dims` vectors between two strided views, passing each
/// vector through `f` on the way (the identity for a plain copy). The
/// views may be one and the same (`f` in place), but must not otherwise
/// overlap.
///
/// # Safety
/// Every vector of the source view must be valid for 16 reads, every
/// vector of the destination view for 16 writes (64-byte aligned when
/// `NT`).
#[inline(always)]
pub(crate) unsafe fn copy_tile<V: Simd16, const NT: bool>(
    rank: usize,
    dims: &[usize; MAX_RANK],
    (src, src_strides): (*const f32, &Strides),
    (dst, dst_strides): (*mut f32, &Strides),
    mut f: impl FnMut(V) -> V,
) {
    // The one-vector "codelet" of a copy pass.
    let mut copy_vec = |inp: *const f32, _: usize, out: *mut f32, _: usize| {
        // SAFETY: the pass visits only vectors of the caller's views.
        unsafe { generated::put::<V, NT>(f(V::load(inp)), out) }
    };
    let pass = Pass::new((src, *src_strides), (dst, *dst_strides), rank, rank, *dims);
    // SAFETY: with `d = rank` the pass visits every multi-index of
    // `dims`, each of which the caller's contract covers in both views.
    unsafe { for_each_line!(&pass, copy_vec) }
}

/// Which matrix of the `F(m, r)` triple [`transform_tile`] applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Matrix {
    /// The input transform `Bᵀ`.
    Bt,
    /// The kernel transform `G`.
    G,
    /// The inverse transform `Aᵀ`.
    At,
}

/// Transform row-major tiles of vectors along every dimension with
/// `which` matrix of the `F(m, r)` in `rows` (one per dimension), through
/// the generated codelets.
///
/// This is the safe, contiguous-to-contiguous face of the stages' tile
/// driver, for benchmarks and differential tests. `input` holds one or
/// more whole tiles back to back, each the matrix's `∏ n_in` vectors — `α`
/// per dimension for `Bᵀ` and `Aᵀ`, `r` for `G` — and `output` receives
/// as many tiles of `∏ n_out` (`α`, or `m` for `Aᵀ`). The transform is
/// built once per call, as a stage builds it once per fork–join, so a
/// multi-tile call times what the stages pay per tile. `tmp_a` and `tmp_b`
/// (64-byte aligned) each hold the largest intermediate tile — `∏ α · S`
/// floats always suffices.
///
/// # Panics
/// If a row is outside the table ([`in_table`]), the rank is not
/// `1..=MAX_RANK`, `input` is not a positive number of whole tiles, a
/// slice is too short or a temporary is not 64-byte aligned.
#[inline(always)]
pub fn transform_tile<V: Simd16>(
    which: Matrix,
    rows: &[(usize, usize)],
    input: &[f32],
    output: &mut [f32],
    tmp_a: &mut [f32],
    tmp_b: &mut [f32],
) {
    #[inline(always)]
    fn go<V: Simd16, F: Family>(
        rows: &[(usize, usize)],
        input: &[f32],
        output: &mut [f32],
        tmp_a: &mut [f32],
        tmp_b: &mut [f32],
    ) {
        let table = |&(m, r): &(usize, usize)| {
            row(m, r).unwrap_or_else(|| panic!("no generated codelets for F({m}, {r})"))
        };
        let xf = TileTransform::<F>::new(rows.iter().map(table));
        let rank = rows.len();
        let (in_dims, out_dims) = (xf.in_dims, xf.out_dims);
        let in_tile = in_dims[..rank].iter().product::<usize>() * S;
        let out_tile = out_dims[..rank].iter().product::<usize>() * S;
        let tiles = input.len() / in_tile;
        let need = xf.tmp_vectors * S;
        let aligned = |s: &[f32]| (s.as_ptr() as usize).is_multiple_of(64);
        assert!(tiles > 0 && input.len() == tiles * in_tile, "input is not a whole number of tiles");
        assert!(output.len() >= tiles * out_tile, "output too short");
        assert!(tmp_a.len() >= need && tmp_b.len() >= need, "temporaries too short");
        assert!(aligned(tmp_a) && aligned(tmp_b), "temporaries must be 64-byte aligned");
        let (in_strides, out_strides) = (row_major(&in_dims[..rank], S), row_major(&out_dims[..rank], S));
        let tmp = [tmp_a.as_mut_ptr(), tmp_b.as_mut_ptr()];
        for (src, dst) in input.chunks_exact(in_tile).zip(output.chunks_exact_mut(out_tile)) {
            let sink = Sink::Direct(Dest { ptr: dst.as_mut_ptr(), strides: out_strides, nt: false });
            // SAFETY: the lengths asserted above cover each tile's
            // row-major source and destination view and both temporaries;
            // the four slices are distinct borrows.
            unsafe { xf.run::<V>(src.as_ptr(), &in_strides, sink, tmp) };
        }
    }
    assert!((1..=MAX_RANK).contains(&rows.len()), "rank must be 1..={MAX_RANK}");
    match which {
        Matrix::Bt => go::<V, Bt>(rows, input, output, tmp_a, tmp_b),
        Matrix::G => go::<V, G>(rows, input, output, tmp_a, tmp_b),
        Matrix::At => go::<V, At>(rows, input, output, tmp_a, tmp_b),
    }
}

/// Test seam: sweep the generated `F(m, r)` codelet of `which` matrix
/// along dimension `d` of a row-major tile — the generated twin of
/// `vecprog::transform_dim`, with the same buffer conventions. `nt`
/// selects the streaming-store instantiation (`output` must then be
/// 64-byte aligned).
#[cfg(test)]
#[inline(always)]
pub(crate) fn transform_dim_generated<V: Simd16>(
    which: Matrix,
    (m, r): (usize, usize),
    input: &[f32],
    in_dims: &[usize],
    d: usize,
    output: &mut [f32],
    nt: bool,
) {
    #[inline(always)]
    fn go<V: Simd16, F: Family>(
        (m, r): (usize, usize),
        input: &[f32],
        in_dims: &[usize],
        d: usize,
        output: &mut [f32],
        nt: bool,
    ) {
        assert!(in_table(m, r), "F({m}, {r})");
        let (n_in, n_out) = F::extents(m, r);
        let rank = in_dims.len();
        assert_eq!(in_dims[d], n_in);
        let mut dims = [1usize; MAX_RANK];
        dims[..rank].copy_from_slice(in_dims);
        let in_strides = row_major(&dims[..rank], S);
        assert!(input.len() >= dims[..rank].iter().product::<usize>() * S);
        dims[d] = n_out;
        let out_strides = row_major(&dims[..rank], S);
        assert!(output.len() >= dims[..rank].iter().product::<usize>() * S);
        assert!(!nt || (output.as_ptr() as usize).is_multiple_of(64));
        let pass =
            Pass::new((input.as_ptr(), in_strides), (output.as_mut_ptr(), out_strides), rank, d, dims);
        // SAFETY: both row-major views were length-checked above, and
        // `(m, r)` is a table row whose codelet has these extents.
        unsafe {
            if nt {
                F::pass::<V, true>((m, r), &pass);
            } else {
                F::pass::<V, false>((m, r), &pass);
            }
        }
    }
    match which {
        Matrix::Bt => go::<V, Bt>((m, r), input, in_dims, d, output, nt),
        Matrix::G => go::<V, G>((m, r), input, in_dims, d, output, nt),
        Matrix::At => go::<V, At>((m, r), input, in_dims, d, output, nt),
    }
}

/// Every `(m, r)` of the table.
#[cfg(test)]
pub(crate) fn table_rows() -> impl Iterator<Item = (usize, usize)> {
    (1..=TABLE_MAX_R).flat_map(|r| (1..=TABLE_MAX_M).map(move |m| (m, r)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_simd::{AlignedVec, Backend, Kernel};
    use wino_transforms::{FmrPlan, PairedProgram};

    fn filled(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.01).collect()
    }

    #[test]
    fn the_table_is_the_whole_rectangle() {
        assert_eq!(table_rows().count(), 40);
        for (m, r) in table_rows() {
            assert!(in_table(m, r), "F({m}, {r})");
            let row = row(m, r).unwrap_or_else(|| panic!("F({m}, {r}) has no row"));
            assert_eq!((row.m, row.r), (m, r));
        }
        for (m, r) in [(0, 3), (9, 3), (4, 6), (4, 0), (9, 6)] {
            assert!(!in_table(m, r) && row(m, r).is_none(), "F({m}, {r})");
        }
    }

    /// What `build.rs` printed is what the exact-rational construction
    /// computes at run time: every row's op counts, its γ bit for bit, and
    /// the extents the tile driver derives for each family are the
    /// programs' own.
    #[test]
    fn generated_rows_equal_the_exact_computation() {
        for (m, r) in table_rows() {
            let plan = FmrPlan::new(m, r);
            let row = row(m, r).unwrap();
            let ops = |p: &PairedProgram| p.op_count().total();
            let counts = (row.bt_ops, row.g_ops, row.at_ops);
            assert_eq!(counts, (ops(&plan.bt), ops(&plan.g), ops(&plan.at)), "F({m}, {r})");
            let gamma = plan.conditioning().gamma;
            assert_eq!(row.gamma.to_bits(), gamma.to_bits(), "F({m}, {r}): {} vs {gamma}", row.gamma);
            let io = |p: &PairedProgram| (p.n_in, p.n_out);
            assert_eq!(Bt::extents(m, r), io(&plan.bt), "Bᵀ of F({m}, {r})");
            assert_eq!(G::extents(m, r), io(&plan.g), "G of F({m}, {r})");
            assert_eq!(At::extents(m, r), io(&plan.at), "Aᵀ of F({m}, {r})");
        }
    }

    #[test]
    #[should_panic(expected = "no generated codelets for F(9, 3)")]
    fn a_row_outside_the_table_does_not_transform() {
        let mut tmp = [0, 1].map(|_| AlignedVec::try_zeroed(11 * 11 * S).unwrap());
        let (input, mut output) = (vec![0.0; 11 * S], vec![0.0; 11 * S]);
        let rows = &[(9, 3)];
        wino_simd::dispatch(WholeTile { which: Matrix::Bt, rows, input: &input, output: &mut output, tmp: &mut tmp });
    }

    fn program(which: Matrix, plan: &FmrPlan) -> &PairedProgram {
        match which {
            Matrix::Bt => &plan.bt,
            Matrix::G => &plan.g,
            Matrix::At => &plan.at,
        }
    }

    /// One whole-tile transform through [`transform_tile`].
    struct WholeTile<'a> {
        which: Matrix,
        rows: &'a [(usize, usize)],
        input: &'a [f32],
        output: &'a mut [f32],
        tmp: &'a mut [AlignedVec; 2],
    }

    impl Kernel for WholeTile<'_> {
        type Output = ();
        #[inline(always)]
        fn run<V: Simd16>(self) {
            let [a, b] = self.tmp;
            transform_tile::<V>(
                self.which,
                self.rows,
                self.input,
                self.output,
                a.as_mut_slice(),
                b.as_mut_slice(),
            )
        }
    }

    /// The reference for a whole tile: the [`crate::vecprog`] interpreter
    /// over a row-major copy.
    struct Interpreted<'a> {
        which: Matrix,
        plans: &'a [FmrPlan],
        input: &'a [f32],
    }

    impl Kernel for Interpreted<'_> {
        type Output = Vec<f32>;
        #[inline(always)]
        fn run<V: Simd16>(self) -> Vec<f32> {
            let progs: Vec<&PairedProgram> = self.plans.iter().map(|p| program(self.which, p)).collect();
            let mut dims: Vec<usize> = progs.iter().map(|p| p.n_in).collect();
            let t_vol: usize = self.plans.iter().map(FmrPlan::alpha).product();
            let (mut a, mut b) = (vec![0.0f32; t_vol * S], vec![0.0f32; t_vol * S]);
            a[..self.input.len()].copy_from_slice(self.input);
            let in_a = crate::vecprog::transform_all_dims::<V>(&progs, &mut a, &mut b, &mut dims);
            let mut out = if in_a { a } else { b };
            out.truncate(dims.iter().product::<usize>() * S);
            out
        }
    }

    /// The N-D driver over generated codelets reproduces the
    /// interpreter's tile exactly: every table row, ranks 1–3, asymmetric
    /// tile sizes and kernel widths, all three matrices, every backend
    /// this process may run. (Streaming last passes: the per-dimension
    /// battery of `vecprog::tests` and the strided views below.)
    #[test]
    fn whole_tiles_equal_the_interpreter_exactly() {
        let mut shapes: Vec<Vec<(usize, usize)>> = table_rows().map(|row| vec![row]).collect();
        shapes.extend(
            [
                &[(2, 3), (2, 3)][..],
                &[(6, 3), (6, 3)],
                &[(4, 3), (8, 3)],
                &[(2, 3), (4, 3), (6, 3)],
                &[(7, 3), (1, 3), (3, 3)],
                // Mixed kernel widths: [3, 2], [1, 3, 3], [5, 4], and the
                // largest tile of the table.
                &[(4, 3), (3, 2)],
                &[(2, 1), (4, 3), (2, 3)],
                &[(2, 5), (3, 4)],
                &[(8, 5), (8, 5)],
            ]
            .map(<[_]>::to_vec),
        );
        for backend in Backend::available() {
            for shape in &shapes {
                let plans: Vec<FmrPlan> = shape.iter().map(|&(m, r)| FmrPlan::new(m, r)).collect();
                for which in [Matrix::Bt, Matrix::G, Matrix::At] {
                    let in_vol: usize = plans.iter().map(|p| program(which, p).n_in).product();
                    let t_vol: usize = plans.iter().map(FmrPlan::alpha).product();
                    let input = filled(in_vol * S);
                    let want = backend.run(Interpreted { which, plans: &plans, input: &input });
                    let mut tmp = [0, 1].map(|_| AlignedVec::try_zeroed(t_vol * S).unwrap());
                    let mut got = vec![f32::NAN; want.len()];
                    backend.run(WholeTile {
                        which,
                        rows: shape,
                        input: &input,
                        output: &mut got,
                        tmp: &mut tmp,
                    });
                    assert_eq!(got, want, "{} {which:?} of F{shape:?}", backend.name());
                }
            }
        }
    }

    /// One [`transform_tile`] call over a slice of several tiles writes
    /// what one call per tile writes, on every matrix and backend.
    #[test]
    fn a_multi_tile_slice_equals_one_call_per_tile() {
        const TILES: usize = 3;
        let shape = [(4, 3), (2, 5)];
        for backend in Backend::available() {
            for which in [Matrix::Bt, Matrix::G, Matrix::At] {
                let plans: Vec<FmrPlan> = shape.iter().map(|&(m, r)| FmrPlan::new(m, r)).collect();
                let in_vol: usize = plans.iter().map(|p| program(which, p).n_in).product();
                let out_vol: usize = plans.iter().map(|p| program(which, p).n_out).product();
                let t_vol: usize = plans.iter().map(FmrPlan::alpha).product();
                let input = filled(TILES * in_vol * S);
                let mut tmp = [0, 1].map(|_| AlignedVec::try_zeroed(t_vol * S).unwrap());
                let mut all = vec![f32::NAN; TILES * out_vol * S];
                backend.run(WholeTile { which, rows: &shape, input: &input, output: &mut all, tmp: &mut tmp });
                for (k, got) in all.chunks_exact(out_vol * S).enumerate() {
                    let mut one = vec![f32::NAN; out_vol * S];
                    let input = &input[k * in_vol * S..][..in_vol * S];
                    backend.run(WholeTile { which, rows: &shape, input, output: &mut one, tmp: &mut tmp });
                    assert_eq!(got, &one[..], "{} {which:?} tile {k}", backend.name());
                }
            }
        }
    }

    /// One [`TileTransform::run`] of `Bᵀ` over caller-built views.
    struct StridedRun<'a> {
        rows: &'a [(usize, usize)],
        src: *const f32,
        src_strides: Strides,
        /// The streaming direct sink, or `None` for a staged one.
        direct: Option<(*mut f32, Strides)>,
        tmp: [*mut f32; 2],
    }

    impl Kernel for StridedRun<'_> {
        type Output = *const f32;
        #[inline(always)]
        fn run<V: Simd16>(self) -> *const f32 {
            let xf = TileTransform::<Bt>::new(self.rows.iter().map(|&(m, r)| row(m, r).unwrap()));
            let sink = match self.direct {
                Some((ptr, strides)) => Sink::Direct(Dest { ptr, strides, nt: true }),
                None => Sink::Staged,
            };
            // SAFETY: the test below builds views that lie inside its
            // buffers and temporaries that hold a whole tile each.
            unsafe { xf.run::<V>(self.src, &self.src_strides, sink, self.tmp) }
        }
    }

    /// A strided source, a `t_stride`-spaced streaming sink and a staged
    /// sink all deliver the same values as the row-major interpreter.
    #[test]
    fn strided_streaming_and_staged_views_agree_with_row_major() {
        let shapes: [&[(usize, usize)]; 4] =
            [&[(4, 3)], &[(6, 3), (6, 3)], &[(2, 3), (4, 3), (6, 3)], &[(3, 4), (2, 5)]];
        for backend in Backend::available() {
            for shape in shapes {
                let plans: Vec<FmrPlan> = shape.iter().map(|&(m, r)| FmrPlan::new(m, r)).collect();
                let rank = plans.len();
                let dims: Vec<usize> = plans.iter().map(FmrPlan::alpha).collect();
                let t_vol: usize = dims.iter().product();

                // The tile sits at offset (1, 2, …) inside a larger "image".
                let image_dims: Vec<usize> = dims.iter().map(|&a| a + 3).collect();
                let image = filled(image_dims.iter().product::<usize>() * S);
                let image_strides = row_major(&image_dims, S);
                let origin: usize = (0..rank).map(|d| (d + 1) * image_strides[d]).sum();

                // Reference: copy the tile out and interpret it row-major.
                let mut tile = vec![0.0f32; t_vol * S];
                for t in 0..t_vol {
                    let (mut rem, mut off) = (t, origin);
                    for d in (0..rank).rev() {
                        off += (rem % dims[d]) * image_strides[d];
                        rem /= dims[d];
                    }
                    tile[t * S..(t + 1) * S].copy_from_slice(&image[off..off + S]);
                }
                let want = backend.run(Interpreted { which: Matrix::Bt, plans: &plans, input: &tile });

                // Direct: read in place, stream to vectors `t_stride` apart.
                let mut tmp = [0, 1].map(|_| AlignedVec::try_zeroed(t_vol * S).unwrap());
                let t_stride = 3 * S;
                let mut u = AlignedVec::try_zeroed(t_vol * t_stride).unwrap();
                let [a, b] = &mut tmp;
                let raw = [a.as_mut_ptr(), b.as_mut_ptr()];
                backend.run(StridedRun {
                    rows: shape,
                    // SAFETY: `origin` is inside `image`.
                    src: unsafe { image.as_ptr().add(origin) },
                    src_strides: image_strides,
                    direct: Some((u.as_mut_ptr(), row_major(&dims, t_stride))),
                    tmp: raw,
                });
                wino_simd::sfence();
                for t in 0..t_vol {
                    assert_eq!(
                        u.as_slice()[t * t_stride..t * t_stride + S],
                        want[t * S..(t + 1) * S],
                        "{} F{shape:?} vector {t}",
                        backend.name()
                    );
                }

                // Staged, from a source gathered into `tmp[0]` itself.
                a.as_mut_slice()[..t_vol * S].copy_from_slice(&tile);
                let staged = backend.run(StridedRun {
                    rows: shape,
                    src: raw[0].cast_const(),
                    src_strides: row_major(&dims, S),
                    direct: None,
                    tmp: raw,
                });
                // SAFETY: a staged run returns the thread buffer that
                // holds the row-major output tile.
                let staged = unsafe { std::slice::from_raw_parts(staged, t_vol * S) };
                assert_eq!(staged, &want[..], "{} F{shape:?} staged", backend.name());
            }
        }
    }
}
