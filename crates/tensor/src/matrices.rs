//! The transformed-data layout (Table 1, rows "Transformed inputs/kernels/
//! outputs"): `T` logical matrices stored block-panel interleaved.
//!
//! A [`BlockedMatrices`] with parameters `(t, rows, cols, rb, cb)` stores
//! element `(t, row, col)` at
//!
//! ```text
//! M[row/rb][col/cb][t][row mod rb][col mod cb]
//! ```
//!
//! where each `[row mod rb][col mod cb]` block is `rb·cb` contiguous floats
//! and consecutive blocks start one *pitch* apart:
//! [`scatter_pitch`]`(rb·cb)`, the block plus one 64-byte line when its
//! line count is even, so that a pitch is an odd number of lines.
//!
//! Two properties make this the right layout for the paper's pipeline:
//!
//! 1. **Stage 2 (GEMM)**: every `rb × cb` sub-matrix of every one of the `T`
//!    matrices is one contiguous chunk, so the JIT micro-kernel streams
//!    through it with aligned vector loads and unit stride.
//! 2. **Stages 1/3 (transforms)**: for a fixed (row, col-group) the `T`
//!    values live one pitch apart inside a single `T`-pitch region — the
//!    paper's "scattering range" that keeps TLB misses low. The pitch
//!    being an odd number of lines puts any 64 of them in 64 different
//!    sets of the L1; at the bare `rb·cb` floats — a multiple of 1 KiB or
//!    more at every planned blocking — they would share one to four.
//!
//! Rows are padded up to a multiple of `rb` (the paper pads the last
//! sub-matrix of U when `NB` is not divisible by `n_blk`); a padded row
//! multiplies into its own row of the product only, which no consumer
//! reads, so what it holds is harmless — zeros in a fresh buffer, stale
//! values in a re-viewed one ([`BlockedMatrices::try_reshape`]). So is the
//! line between two blocks, which nothing reads or writes.

use wino_simd::{AlignedVec, S};

use crate::{div_ceil, scatter_pitch};

/// `T` matrices of `rows × cols` in block-panel layout (see module docs):
/// a view of the first floats of a buffer that may hold more
/// ([`Self::try_reshape`]).
#[derive(Clone, Debug)]
pub struct BlockedMatrices {
    t_count: usize,
    rows: usize,
    cols: usize,
    rb: usize,
    cb: usize,
    row_blocks: usize,
    col_blocks: usize,
    /// Floats from one block to the next: [`scatter_pitch`]`(rb·cb)`.
    pitch: usize,
    /// Floats of the view, padding included.
    len: usize,
    data: AlignedVec,
}

impl BlockedMatrices {
    /// Allocate (zero-filled). `cols` must be divisible by `cb`, and `cb`
    /// by the vector width `S` so that column groups are vector-aligned.
    pub fn new(t_count: usize, rows: usize, cols: usize, rb: usize, cb: usize) -> Self {
        let len = Self::validate(t_count, rows, cols, rb, cb);
        // ALLOC: the infallible half of the constructor pair;
        // memory-accounted callers route through `try_new` below.
        Self::assemble(t_count, rows, cols, rb, cb, AlignedVec::zeroed(len))
    }

    /// Fallible [`Self::new`]: a typed [`wino_simd::AllocError`] instead
    /// of an abort when the allocator refuses the buffer. Shape
    /// constraints remain assertions — they are planner invariants, not
    /// runtime conditions.
    pub fn try_new(
        t_count: usize,
        rows: usize,
        cols: usize,
        rb: usize,
        cb: usize,
    ) -> Result<Self, wino_simd::AllocError> {
        let len = Self::validate(t_count, rows, cols, rb, cb);
        Ok(Self::assemble(t_count, rows, cols, rb, cb, AlignedVec::try_zeroed(len)?))
    }

    /// A zero-sized stand-in for temporarily moving a real buffer out of
    /// a struct field (`std::mem::replace`). Allocates nothing — a
    /// zero-length [`AlignedVec`] is a dangling pointer, never touched.
    /// Any attempt to index it panics, so accidental use is loud.
    pub fn placeholder() -> Self {
        // ALLOC: zero-length — a dangling aligned pointer, no allocator
        // call, nothing to account.
        Self::assemble(0, 0, 0, 1, S, AlignedVec::zeroed(0))
    }

    /// Bytes a `new(t_count, rows, cols, rb, cb)` instance allocates —
    /// the analytic side of the memory-footprint model.
    pub fn bytes_for(t_count: usize, rows: usize, cols: usize, rb: usize, cb: usize) -> usize {
        Self::floats(t_count, rows, cols, rb, cb) * std::mem::size_of::<f32>()
    }

    /// Floats of a `(t_count, rows, cols, rb, cb)` view.
    fn floats(t_count: usize, rows: usize, cols: usize, rb: usize, cb: usize) -> usize {
        div_ceil(rows, rb) * (cols / cb) * t_count * scatter_pitch(rb * cb)
    }

    fn validate(t_count: usize, rows: usize, cols: usize, rb: usize, cb: usize) -> usize {
        assert!(rb > 0 && cb > 0 && t_count > 0 && rows > 0 && cols > 0);
        assert_eq!(cols % cb, 0, "cols ({cols}) must be divisible by cb ({cb})");
        assert_eq!(cb % S, 0, "cb ({cb}) must be divisible by the vector width {S}");
        Self::floats(t_count, rows, cols, rb, cb)
    }

    fn assemble(
        t_count: usize,
        rows: usize,
        cols: usize,
        rb: usize,
        cb: usize,
        data: AlignedVec,
    ) -> Self {
        let mut m =
            BlockedMatrices { t_count, rows, cols, rb, cb, row_blocks: 0, col_blocks: 0, pitch: 0, len: 0, data };
        m.view(t_count, rows, cols, rb, cb);
        m
    }

    fn view(&mut self, t_count: usize, rows: usize, cols: usize, rb: usize, cb: usize) {
        (self.t_count, self.rows, self.cols, self.rb, self.cb) = (t_count, rows, cols, rb, cb);
        (self.row_blocks, self.col_blocks) = (div_ceil(rows, rb), cols / cb);
        self.pitch = scatter_pitch(rb * cb);
        self.len = Self::floats(t_count, rows, cols, rb, cb);
    }

    /// Re-view these matrices as [`Self::new`]`(t_count, rows, cols, rb,
    /// cb)` lays them out, in the bytes they hold when those are enough —
    /// what the bytes held is not cleared — else in a fresh zero-filled
    /// buffer, asked for after the old one is released; a refusal leaves
    /// no bytes. A `t_count` of 0 views no matrix, as
    /// [`Self::placeholder`] does, and keeps the bytes for a later view.
    pub fn try_reshape(
        &mut self,
        t_count: usize,
        rows: usize,
        cols: usize,
        rb: usize,
        cb: usize,
    ) -> Result<(), wino_simd::AllocError> {
        if t_count == 0 {
            self.view(0, 0, 0, 1, S);
            return Ok(());
        }
        let len = Self::validate(t_count, rows, cols, rb, cb);
        if len > self.data.len() {
            *self = Self::placeholder(); // release the old bytes first
            self.data = AlignedVec::try_zeroed(len)?;
        }
        self.view(t_count, rows, cols, rb, cb);
        Ok(())
    }

    pub fn t_count(&self) -> usize {
        self.t_count
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Rows including the padding up to a multiple of `rb`.
    pub fn padded_rows(&self) -> usize {
        self.row_blocks * self.rb
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn rb(&self) -> usize {
        self.rb
    }

    pub fn cb(&self) -> usize {
        self.cb
    }

    pub fn row_blocks(&self) -> usize {
        self.row_blocks
    }

    pub fn col_blocks(&self) -> usize {
        self.col_blocks
    }

    /// Bytes of backing storage (for the paper's memory-overhead
    /// accounting) — at least the view's.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Flat offset of the first element of block `(rb_i, cb_i)` of matrix
    /// `t`. The block is `rb·cb` contiguous floats from there.
    #[inline]
    pub fn block_offset(&self, rb_i: usize, cb_i: usize, t: usize) -> usize {
        debug_assert!(rb_i < self.row_blocks && cb_i < self.col_blocks && t < self.t_count);
        (((rb_i * self.col_blocks + cb_i) * self.t_count) + t) * self.pitch
    }

    /// Distance (in floats) between the same block position of matrices
    /// `t` and `t + 1` — the stage-1/3 scatter stride, the block pitch.
    #[inline]
    pub fn t_stride(&self) -> usize {
        self.pitch
    }

    #[inline]
    pub fn element_offset(&self, t: usize, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.cols);
        self.block_offset(row / self.rb, col / self.cb, t)
            + (row % self.rb) * self.cb
            + (col % self.cb)
    }

    #[inline]
    pub fn get(&self, t: usize, row: usize, col: usize) -> f32 {
        self.data[self.element_offset(t, row, col)]
    }

    #[inline]
    pub fn set(&mut self, t: usize, row: usize, col: usize, v: f32) {
        let o = self.element_offset(t, row, col);
        self.data[o] = v;
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.data[..self.len]
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data[..self.len]
    }

    pub fn as_ptr(&self) -> *const f32 {
        self.data.as_ptr()
    }

    pub fn as_mut_ptr(&mut self) -> *mut f32 {
        self.data.as_mut_ptr()
    }

    /// Contiguous `rb × cb` block (row-major within the block).
    pub fn block(&self, rb_i: usize, cb_i: usize, t: usize) -> &[f32] {
        let o = self.block_offset(rb_i, cb_i, t);
        &self.data[o..o + self.rb * self.cb]
    }

    pub fn fill_zero(&mut self) {
        self.as_mut_slice().fill(0.0);
    }

    /// Extract matrix `t` as a dense row-major `rows × cols` matrix
    /// (test/debug helper; padded rows are dropped).
    pub fn to_dense(&self, t: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.rows * self.cols];
        for row in 0..self.rows {
            for col in 0..self.cols {
                out[row * self.cols + col] = self.get(t, row, col);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_elements() {
        let mut m = BlockedMatrices::new(4, 10, 32, 3, 16);
        assert_eq!(m.padded_rows(), 12);
        for t in 0..4 {
            for r in 0..10 {
                for c in 0..32 {
                    m.set(t, r, c, (t * 1000 + r * 32 + c) as f32);
                }
            }
        }
        for t in 0..4 {
            for r in 0..10 {
                for c in 0..32 {
                    assert_eq!(m.get(t, r, c), (t * 1000 + r * 32 + c) as f32);
                }
            }
        }
    }

    #[test]
    fn blocks_are_contiguous_row_major() {
        let mut m = BlockedMatrices::new(2, 6, 32, 3, 16);
        // Fill block (1, 1) of t=1 through set() and read it back as a slice.
        for r in 3..6 {
            for c in 16..32 {
                m.set(1, r, c, (r * 100 + c) as f32);
            }
        }
        let b = m.block(1, 1, 1);
        assert_eq!(b.len(), 48);
        for (i, &v) in b.iter().enumerate() {
            let (r, c) = (3 + i / 16, 16 + i % 16);
            assert_eq!(v, (r * 100 + c) as f32, "block element {i}");
        }
    }

    #[test]
    fn t_stride_is_the_block_pitch() {
        // A 4 × 16 block is 4 lines: one more makes the pitch odd.
        let m = BlockedMatrices::new(3, 8, 16, 4, 16);
        assert_eq!(m.t_stride(), 5 * S);
        assert_eq!(m.block_offset(0, 0, 1) - m.block_offset(0, 0, 0), m.t_stride());
        assert_eq!(m.block_offset(1, 0, 0), 3 * m.t_stride());
        // A 3 × 16 block is 3 lines already.
        let m = BlockedMatrices::new(2, 6, 32, 3, 16);
        assert_eq!(m.t_stride(), 3 * S);
        assert_eq!(m.block_offset(1, 1, 1) - m.block_offset(1, 1, 0), m.t_stride());
        assert_eq!(m.block_offset(1, 0, 0) - m.block_offset(0, 1, 0), 2 * m.t_stride());
    }

    #[test]
    fn one_block_positions_of_t_matrices_fall_in_distinct_l1_sets() {
        // 8 × 128 floats is 64 lines a block: unpadded, all 36 `t` would
        // share one set of a 64-set L1.
        let m = BlockedMatrices::new(36, 8, 128, 8, 128);
        let sets: std::collections::HashSet<_> =
            (0..36).map(|t| m.block_offset(0, 0, t) / S % 64).collect();
        assert_eq!(sets.len(), 36);
    }

    #[test]
    fn vector_groups_are_aligned() {
        // Offsets of S-wide column groups must be multiples of S so that
        // (on a 64-byte-aligned base) they are aligned vector lanes.
        let m = BlockedMatrices::new(5, 33, 64, 7, 32);
        for t in 0..5 {
            for row in 0..33 {
                for cg in 0..(64 / 16) {
                    assert_eq!(m.element_offset(t, row, cg * 16) % 16, 0);
                }
            }
        }
        assert_eq!(m.as_ptr() as usize % 64, 0);
    }

    #[test]
    fn padded_rows_read_zero() {
        let m = BlockedMatrices::new(1, 5, 16, 4, 16);
        assert_eq!(m.padded_rows(), 8);
        // Raw padding area is zero-initialised.
        let o = m.block_offset(1, 0, 0) + 16; // row 5 (first padded)
        assert!(m.as_slice()[o..o + 16].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn to_dense_matches_gets() {
        let mut m = BlockedMatrices::new(2, 7, 16, 3, 16);
        for r in 0..7 {
            for c in 0..16 {
                m.set(1, r, c, (r * 16 + c) as f32 * 0.5);
            }
        }
        let d = m.to_dense(1);
        for r in 0..7 {
            for c in 0..16 {
                assert_eq!(d[r * 16 + c], (r * 16 + c) as f32 * 0.5);
            }
        }
    }

    #[test]
    #[should_panic(expected = "divisible by cb")]
    fn cols_must_divide() {
        let _ = BlockedMatrices::new(1, 4, 30, 2, 16);
    }

    #[test]
    fn a_reshape_re_views_its_bytes_and_grows_only_when_too_small() {
        let mut m = BlockedMatrices::new(4, 10, 32, 3, 16);
        let (ptr, bytes) = (m.as_ptr(), m.bytes());
        m.as_mut_slice().fill(7.0);
        m.try_reshape(2, 5, 16, 4, 16).unwrap();
        assert_eq!((m.t_count(), m.rows(), m.cols(), m.rb(), m.row_blocks()), (2, 5, 16, 4, 2));
        assert_eq!((m.as_ptr(), m.bytes()), (ptr, bytes), "the bytes are kept");
        assert_eq!(m.as_slice().len(), 2 * 2 * 5 * S, "the view is the new shape's: 4 + 1 lines a block");
        assert!(m.as_slice().iter().all(|&x| x == 7.0), "and nothing is cleared");
        m.try_reshape(0, 0, 0, 1, 16).unwrap();
        assert_eq!((m.t_count(), m.as_slice().len(), m.bytes()), (0, 0, bytes), "no view, same bytes");
        m.try_reshape(8, 10, 32, 3, 16).unwrap();
        assert_eq!(m.bytes(), BlockedMatrices::bytes_for(8, 10, 32, 3, 16), "grown to the need");
        assert!(m.as_slice().iter().all(|&x| x == 0.0), "a grown buffer is fresh");
    }

    #[test]
    fn memory_accounting() {
        let m = BlockedMatrices::new(36, 100, 64, 8, 32);
        // ceil(100/8)=13 row blocks, 2 col blocks, 36 t, an 8 × 32 block
        // (16 lines) one line apart.
        assert_eq!(m.bytes(), 13 * 2 * 36 * (8 * 32 + S) * 4);
        assert_eq!(m.bytes(), BlockedMatrices::bytes_for(36, 100, 64, 8, 32));
    }
}
