//! The tile-major transformed-output layout (Table 1, row
//! `I'[b][c'/S][n][t_d][t_h][t_w][c' mod S]`).
//!
//! Stage 2's fused scatter (operation ⑥) writes here so that stage 3 reads
//! each tile's `T` transform values as one contiguous `T·S`-float chunk —
//! "the previous stage has ensured that each transformed output occupies a
//! contiguous chunk of memory" (§4.4). Consecutive chunks start one pitch
//! apart, [`wino_tensor::scatter_pitch`]`(T·S)` — the chunk plus one line
//! when `T` is even — so the rows of a register tile, one chunk apart, fall
//! in different L1 sets: at `T·S` floats, F(6²)'s 64 lines, all six rows of
//! a 6 × 4 tile would share one.

use wino_simd::{AlignedVec, S};
use wino_tensor::scatter_pitch;

/// Transformed outputs in tile-major order: `[B][C'/S][N][T][S]`, each
/// `[T][S]` chunk one [`TileMajor::chunk_pitch`] from the next — a view
/// of the first floats of a buffer that may hold more (a `Network`'s
/// scratch re-views it for each layer).
#[derive(Debug)]
pub struct TileMajor {
    batch: usize,
    channel_groups: usize,
    n_tiles: usize,
    t_vol: usize,
    data: AlignedVec,
}

impl TileMajor {
    pub fn new(batch: usize, out_channels: usize, n_tiles: usize, t_vol: usize) -> TileMajor {
        let len = Self::elems(batch, out_channels, n_tiles, t_vol);
        // ALLOC: the infallible half of the constructor pair; memory-aware
        // callers route through `try_new` below.
        Self::assemble(batch, out_channels, n_tiles, t_vol, AlignedVec::zeroed(len))
    }

    /// Fallible [`Self::new`]: a typed [`wino_simd::AllocError`] instead
    /// of an abort when the allocator refuses the buffer.
    pub fn try_new(
        batch: usize,
        out_channels: usize,
        n_tiles: usize,
        t_vol: usize,
    ) -> Result<TileMajor, wino_simd::AllocError> {
        let len = Self::elems(batch, out_channels, n_tiles, t_vol);
        Ok(Self::assemble(batch, out_channels, n_tiles, t_vol, AlignedVec::try_zeroed(len)?))
    }

    /// A zero-sized stand-in for the `y` a fused plan's scratch has not
    /// needed yet ([`crate::Scratch`]). Allocates nothing; indexing it
    /// panics.
    pub(crate) fn placeholder() -> TileMajor {
        // ALLOC: zero-length — a dangling aligned pointer, no allocator
        // call, nothing to account.
        Self::assemble(0, 0, 0, 0, AlignedVec::zeroed(0))
    }

    /// Re-view these bytes as `new(batch, out_channels, n_tiles, t_vol)`
    /// lays them out, when they are enough — what they held is not
    /// cleared — else in a fresh zero-filled buffer, asked for after the
    /// old one is released; a refusal leaves no bytes. A `t_vol` of 0
    /// views nothing, as [`Self::placeholder`] does, and keeps the bytes.
    pub(crate) fn try_reshape(
        &mut self,
        batch: usize,
        out_channels: usize,
        n_tiles: usize,
        t_vol: usize,
    ) -> Result<(), wino_simd::AllocError> {
        let len = Self::elems(batch, out_channels, n_tiles, t_vol);
        if len > self.data.len() {
            *self = Self::placeholder(); // release the old bytes first
            self.data = AlignedVec::try_zeroed(len)?;
        }
        (self.batch, self.channel_groups, self.n_tiles, self.t_vol) = (batch, out_channels / S, n_tiles, t_vol);
        Ok(())
    }

    /// Floats of the view.
    fn len(&self) -> usize {
        self.batch * self.channel_groups * self.n_tiles * Self::chunk_pitch(self.t_vol)
    }

    /// Floats from one tile's chunk to the next, for tiles of `t_vol`
    /// positions: [`scatter_pitch`]`(T·S)`.
    pub fn chunk_pitch(t_vol: usize) -> usize {
        scatter_pitch(t_vol * S)
    }

    /// Bytes a `new(batch, out_channels, n_tiles, t_vol)` instance
    /// allocates — the analytic side of the memory-footprint model.
    pub fn bytes_for(batch: usize, out_channels: usize, n_tiles: usize, t_vol: usize) -> usize {
        Self::elems(batch, out_channels, n_tiles, t_vol) * std::mem::size_of::<f32>()
    }

    fn elems(batch: usize, out_channels: usize, n_tiles: usize, t_vol: usize) -> usize {
        assert!(out_channels.is_multiple_of(S));
        batch * (out_channels / S) * n_tiles * Self::chunk_pitch(t_vol)
    }

    fn assemble(
        batch: usize,
        out_channels: usize,
        n_tiles: usize,
        t_vol: usize,
        data: AlignedVec,
    ) -> TileMajor {
        TileMajor { batch, channel_groups: out_channels / S, n_tiles, t_vol, data }
    }

    pub fn batch(&self) -> usize {
        self.batch
    }

    pub fn channel_groups(&self) -> usize {
        self.channel_groups
    }

    pub fn n_tiles(&self) -> usize {
        self.n_tiles
    }

    pub fn t_vol(&self) -> usize {
        self.t_vol
    }

    /// Bytes of the buffer behind the view — at least the view's.
    pub fn bytes(&self) -> usize {
        self.data.len() * 4
    }

    /// Offset of the vector for `(b, channel-group og, tile n, position t)`.
    #[inline]
    pub fn vec_offset(&self, b: usize, og: usize, n: usize, t: usize) -> usize {
        debug_assert!(
            b < self.batch && og < self.channel_groups && n < self.n_tiles && t < self.t_vol
        );
        ((b * self.channel_groups + og) * self.n_tiles + n) * Self::chunk_pitch(self.t_vol) + t * S
    }

    /// Distance (in floats) between channel-group `og` and `og + 1` at the
    /// same `(b, n, t)` — the scatter `group_stride` of the micro-kernel.
    #[inline]
    pub fn group_stride(&self) -> usize {
        self.n_tiles * Self::chunk_pitch(self.t_vol)
    }

    /// The contiguous `T·S` floats of one tile (stage-3 gather source).
    pub fn tile(&self, b: usize, og: usize, n: usize) -> &[f32] {
        let o = self.vec_offset(b, og, n, 0);
        &self.data[o..o + self.t_vol * S]
    }

    pub fn as_ptr(&self) -> *const f32 {
        self.data.as_ptr()
    }

    pub fn as_mut_ptr(&mut self) -> *mut f32 {
        self.data.as_mut_ptr()
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.data[..self.len()]
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        let len = self.len();
        &mut self.data[..len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_are_contiguous() {
        let mut tm = TileMajor::new(2, 32, 5, 36);
        let o = tm.vec_offset(1, 1, 3, 0);
        for t in 0..36 {
            assert_eq!(tm.vec_offset(1, 1, 3, t), o + t * S);
        }
        tm.as_mut_slice()[o] = 5.0;
        assert_eq!(tm.tile(1, 1, 3)[0], 5.0);
        assert_eq!(tm.tile(1, 1, 3).len(), 36 * S);
    }

    #[test]
    fn group_stride_matches_layout() {
        let tm = TileMajor::new(3, 48, 7, 16);
        assert_eq!(tm.vec_offset(0, 1, 0, 0) - tm.vec_offset(0, 0, 0, 0), tm.group_stride());
        assert_eq!(tm.vec_offset(2, 1, 3, 5) - tm.vec_offset(2, 0, 3, 5), tm.group_stride());
        // 16 positions are 16 lines a chunk: one more makes the pitch odd.
        assert_eq!(tm.group_stride(), 7 * 17 * S);
        assert_eq!(tm.vec_offset(0, 0, 1, 0) - tm.vec_offset(0, 0, 0, 0), TileMajor::chunk_pitch(16));
        // 9 positions are 9 lines already.
        assert_eq!(TileMajor::new(1, 16, 2, 9).group_stride(), 2 * 9 * S);
    }

    #[test]
    fn the_rows_of_a_register_tile_fall_in_distinct_l1_sets() {
        // F(6²): 64 positions, 64 lines a chunk. Six rows one chunk apart
        // and four column groups one group apart, as the 6 × 4 scatter
        // stores them, take 24 sets of a 64-set L1 instead of one.
        let tm = TileMajor::new(1, 64, 12, 64);
        let sets: std::collections::HashSet<_> = (0..6)
            .flat_map(|n| (0..4).map(move |og| (n, og)))
            .map(|(n, og)| tm.vec_offset(0, og, n, 7) / S % 64)
            .collect();
        assert_eq!(sets.len(), 24);
    }

    #[test]
    fn offsets_are_vector_aligned() {
        let tm = TileMajor::new(1, 16, 4, 9);
        for n in 0..4 {
            for t in 0..9 {
                assert_eq!(tm.vec_offset(0, 0, n, t) % S, 0);
            }
        }
        assert_eq!(tm.as_ptr() as usize % 64, 0);
    }

    #[test]
    fn size_accounting() {
        let tm = TileMajor::new(2, 32, 10, 36);
        assert_eq!(tm.bytes(), 2 * 2 * 10 * 37 * S * 4);
        assert_eq!(tm.bytes(), TileMajor::bytes_for(2, 32, 10, 36));
    }
}
