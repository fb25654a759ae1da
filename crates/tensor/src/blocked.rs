//! The paper's channel-blocked layouts (Table 1, rows "Input images",
//! "Kernels", "Output images").
//!
//! * Images: `I[b][c/S][d][h][w][c mod S]` — an array of size
//!   `B × C/S × D × H × W × S`.
//! * Kernels: `W[c][c'/S][r_d][r_h][r_w][c' mod S]` — size
//!   `C × C'/S × r_D × r_H × r_W × S`.
//!
//! The innermost `S = 16` stride means that reading "the same pixel of S
//! adjacent channels" — the unit of work of every transform codelet — is a
//! single aligned 64-byte vector load. Because the output of one layer is
//! the input of the next in the *same* layout, no reshuffling happens
//! between layers (§4.1).

// Index-based loops are the idiom throughout: most walk several
// arrays with derived offsets, where iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]
use wino_simd::{AlignedVec, S};

use crate::{flat_index, volume, ShapeError, SimpleImage, SimpleKernels, TensorError};

/// A batch of images in blocked layout `[B][C/S][spatial…][S]`.
///
/// The image is a view of the first `B·C·∏dims` floats of its buffer,
/// which may hold more: [`Self::try_reshape`] re-views the bytes of a
/// larger image it held before.
#[derive(Clone, Debug)]
pub struct BlockedImage {
    pub batch: usize,
    pub channels: usize,
    pub dims: Vec<usize>,
    /// Floats of the view: `batch · channels · volume(dims)`.
    len: usize,
    data: AlignedVec,
}

impl BlockedImage {
    /// Zero-filled blocked image batch. `channels` must be a multiple of
    /// `S` (asserted by the paper for all modern ConvNets).
    pub fn zeros(batch: usize, channels: usize, dims: &[usize]) -> Result<Self, ShapeError> {
        let len = Self::validate(batch, channels, dims)?;
        // ALLOC: the infallible half of the constructor pair;
        // memory-accounted callers route through `try_zeros` below.
        Ok(Self::assemble(batch, channels, dims, AlignedVec::zeroed(len)))
    }

    /// Fallible [`Self::zeros`]: a typed [`TensorError::Alloc`] instead of
    /// an abort when the allocator refuses the buffer.
    pub fn try_zeros(
        batch: usize,
        channels: usize,
        dims: &[usize],
    ) -> Result<Self, TensorError> {
        let len = Self::validate(batch, channels, dims)?;
        let data = AlignedVec::try_zeroed(len)?;
        Ok(Self::assemble(batch, channels, dims, data))
    }

    /// Bytes a `zeros(batch, channels, dims)` image allocates — the
    /// analytic side of the memory-footprint model.
    pub fn bytes_for(batch: usize, channels: usize, dims: &[usize]) -> usize {
        batch * channels * volume(dims) * std::mem::size_of::<f32>()
    }

    fn validate(batch: usize, channels: usize, dims: &[usize]) -> Result<usize, ShapeError> {
        if channels == 0 || !channels.is_multiple_of(S) {
            return Err(ShapeError::ChannelsNotVectorMultiple { channels });
        }
        if batch == 0 || dims.contains(&0) {
            return Err(ShapeError::ZeroDim);
        }
        Ok(batch * channels * volume(dims))
    }

    fn assemble(batch: usize, channels: usize, dims: &[usize], data: AlignedVec) -> Self {
        BlockedImage { batch, channels, dims: dims.to_vec(), len: data.len(), data }
    }

    /// Re-view this image as `zeros(batch, channels, dims)` shapes one, in
    /// the bytes it holds when they are enough — what they held is not
    /// cleared — else in a fresh zero-filled buffer, asked for after the
    /// old one is released; a refusal is [`TensorError::Alloc`] and leaves
    /// the image holding no bytes.
    pub fn try_reshape(&mut self, batch: usize, channels: usize, dims: &[usize]) -> Result<(), TensorError> {
        let len = Self::validate(batch, channels, dims)?;
        if len > self.data.len() {
            // ALLOC: zero-length — a dangling aligned pointer, no allocator
            // call; it releases the old bytes before the fallible request.
            self.data = AlignedVec::zeroed(0);
            self.len = 0;
            self.data = AlignedVec::try_zeroed(len)?;
        }
        (self.batch, self.channels, self.len) = (batch, channels, len);
        self.dims.clear();
        self.dims.extend_from_slice(dims);
        Ok(())
    }

    /// Bytes of the buffer behind the view — at least the view's.
    pub fn bytes(&self) -> usize {
        self.data.bytes()
    }

    #[inline]
    pub fn channel_groups(&self) -> usize {
        self.channels / S
    }

    #[inline]
    pub fn spatial_volume(&self) -> usize {
        volume(&self.dims)
    }

    /// Flat offset of the S-vector holding channels
    /// `[cg*S, cg*S + S)` at spatial position `coords` of batch item `b`.
    #[inline]
    pub fn vec_offset(&self, b: usize, cg: usize, coords: &[usize]) -> usize {
        debug_assert!(b < self.batch && cg < self.channel_groups());
        ((b * self.channel_groups() + cg) * self.spatial_volume() + flat_index(coords, &self.dims))
            * S
    }

    /// As [`Self::vec_offset`] but with a pre-flattened spatial index.
    #[inline]
    pub fn vec_offset_flat(&self, b: usize, cg: usize, spatial: usize) -> usize {
        debug_assert!(b < self.batch && cg < self.channel_groups());
        debug_assert!(spatial < self.spatial_volume());
        ((b * self.channel_groups() + cg) * self.spatial_volume() + spatial) * S
    }

    #[inline]
    pub fn get(&self, b: usize, c: usize, coords: &[usize]) -> f32 {
        self.data[self.vec_offset(b, c / S, coords) + c % S]
    }

    #[inline]
    pub fn set(&mut self, b: usize, c: usize, coords: &[usize], v: f32) {
        let o = self.vec_offset(b, c / S, coords) + c % S;
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

    pub fn fill_zero(&mut self) {
        self.as_mut_slice().fill(0.0);
    }

    /// Copy out the channel block `[c0, c0 + count)` as its own image —
    /// the C-loop blocking of grouped convolution. Both bounds must be
    /// multiples of `S` so the slice is whole channel groups: per batch
    /// item the block is then one contiguous run of the backing buffer.
    /// A refused copy is [`TensorError::Alloc`].
    pub fn channel_block(&self, c0: usize, count: usize) -> Result<BlockedImage, TensorError> {
        if !c0.is_multiple_of(S) || count == 0 || !count.is_multiple_of(S) {
            return Err(ShapeError::ChannelsNotVectorMultiple { channels: count.max(c0) }.into());
        }
        if c0 + count > self.channels {
            return Err(ShapeError::Mismatch {
                what: "channel block end",
                expected: self.channels,
                got: c0 + count,
            }
            .into());
        }
        let mut out = BlockedImage::try_zeros(self.batch, count, &self.dims)?;
        let vol = self.spatial_volume();
        let run = (count / S) * vol * S;
        for b in 0..self.batch {
            let src = (b * self.channel_groups() + c0 / S) * vol * S;
            let dst = b * run;
            out.data[dst..dst + run].copy_from_slice(&self.data[src..src + run]);
        }
        Ok(out)
    }

    /// Inverse of [`Self::channel_block`]: write `src` into channels
    /// `[c0, c0 + src.channels)` of `self`.
    pub fn write_channel_block(&mut self, c0: usize, src: &BlockedImage) -> Result<(), ShapeError> {
        if !c0.is_multiple_of(S) {
            return Err(ShapeError::ChannelsNotVectorMultiple { channels: c0 });
        }
        if src.batch != self.batch {
            return Err(ShapeError::Mismatch {
                what: "batch",
                expected: self.batch,
                got: src.batch,
            });
        }
        if src.dims != self.dims {
            return Err(ShapeError::RankMismatch { expected: self.dims.len(), got: src.dims.len() });
        }
        if c0 + src.channels > self.channels {
            return Err(ShapeError::Mismatch {
                what: "channel block end",
                expected: self.channels,
                got: c0 + src.channels,
            });
        }
        let vol = self.spatial_volume();
        let run = src.channel_groups() * vol * S;
        for b in 0..self.batch {
            let dst = (b * self.channel_groups() + c0 / S) * vol * S;
            let s0 = b * run;
            self.data[dst..dst + run].copy_from_slice(&src.data[s0..s0 + run]);
        }
        Ok(())
    }

    /// Convert from the interchange layout.
    pub fn from_simple(img: &SimpleImage) -> Result<Self, ShapeError> {
        let mut out = Self::zeros(img.batch, img.channels, &img.dims)?;
        let vol = out.spatial_volume();
        for b in 0..img.batch {
            for c in 0..img.channels {
                let src = img.channel(b, c);
                let (cg, cl) = (c / S, c % S);
                for s in 0..vol {
                    let o = out.vec_offset_flat(b, cg, s) + cl;
                    out.data[o] = src[s];
                }
            }
        }
        Ok(out)
    }

    /// Convert to the interchange layout.
    pub fn to_simple(&self) -> SimpleImage {
        let mut img = SimpleImage::zeros(self.batch, self.channels, &self.dims);
        let vol = self.spatial_volume();
        for b in 0..self.batch {
            for c in 0..self.channels {
                let (cg, cl) = (c / S, c % S);
                for s in 0..vol {
                    let v = self.data[self.vec_offset_flat(b, cg, s) + cl];
                    img.data[(b * self.channels + c) * vol + s] = v;
                }
            }
        }
        img
    }
}

/// A kernel bank in blocked layout `[C][C'/S][kernel spatial…][S]` —
/// input channel major, the S-vector runs over *output* channels.
#[derive(Clone, Debug)]
pub struct BlockedKernels {
    pub in_channels: usize,
    pub out_channels: usize,
    pub dims: Vec<usize>,
    data: AlignedVec,
}

impl BlockedKernels {
    pub fn zeros(
        in_channels: usize,
        out_channels: usize,
        dims: &[usize],
    ) -> Result<Self, ShapeError> {
        let len = Self::validate(in_channels, out_channels, dims)?;
        Ok(BlockedKernels {
            in_channels,
            out_channels,
            dims: dims.to_vec(),
            // ALLOC: infallible constructor half; `try_zeros` below is
            // the accounted path.
            data: AlignedVec::zeroed(len),
        })
    }

    /// Fallible [`Self::zeros`]: a typed [`TensorError::Alloc`] instead of
    /// an abort when the allocator refuses the buffer.
    pub fn try_zeros(
        in_channels: usize,
        out_channels: usize,
        dims: &[usize],
    ) -> Result<Self, TensorError> {
        let len = Self::validate(in_channels, out_channels, dims)?;
        Ok(BlockedKernels {
            in_channels,
            out_channels,
            dims: dims.to_vec(),
            data: AlignedVec::try_zeroed(len)?,
        })
    }

    fn validate(
        in_channels: usize,
        out_channels: usize,
        dims: &[usize],
    ) -> Result<usize, ShapeError> {
        if out_channels == 0 || !out_channels.is_multiple_of(S) {
            return Err(ShapeError::ChannelsNotVectorMultiple { channels: out_channels });
        }
        if in_channels == 0 || dims.contains(&0) {
            return Err(ShapeError::ZeroDim);
        }
        Ok(in_channels * out_channels * volume(dims))
    }

    #[inline]
    pub fn out_channel_groups(&self) -> usize {
        self.out_channels / S
    }

    #[inline]
    pub fn spatial_volume(&self) -> usize {
        volume(&self.dims)
    }

    /// Flat offset of the S-vector holding output channels
    /// `[og*S, og*S + S)` of input channel `c` at kernel position `coords`.
    #[inline]
    pub fn vec_offset(&self, c: usize, og: usize, coords: &[usize]) -> usize {
        debug_assert!(c < self.in_channels && og < self.out_channel_groups());
        ((c * self.out_channel_groups() + og) * self.spatial_volume()
            + flat_index(coords, &self.dims))
            * S
    }

    /// As [`Self::vec_offset`] with a pre-flattened kernel position.
    #[inline]
    pub fn vec_offset_flat(&self, c: usize, og: usize, spatial: usize) -> usize {
        debug_assert!(c < self.in_channels && og < self.out_channel_groups());
        debug_assert!(spatial < self.spatial_volume());
        ((c * self.out_channel_groups() + og) * self.spatial_volume() + spatial) * S
    }

    #[inline]
    pub fn get(&self, c_out: usize, c_in: usize, coords: &[usize]) -> f32 {
        self.data[self.vec_offset(c_in, c_out / S, coords) + c_out % S]
    }

    #[inline]
    pub fn set(&mut self, c_out: usize, c_in: usize, coords: &[usize], v: f32) {
        let o = self.vec_offset(c_in, c_out / S, coords) + c_out % S;
        self.data[o] = v;
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    pub fn as_ptr(&self) -> *const f32 {
        self.data.as_ptr()
    }

    /// Copy out the kernel block feeding input channels
    /// `[ci0, ci0 + ci_count)` and output channels `[co0, co0 + co_count)`
    /// — the C/C' blocking of grouped convolution. `co0` and `co_count`
    /// must be multiples of `S` (the vector runs over output channels);
    /// input channels are the outer dimension and slice freely. A refused
    /// copy is [`TensorError::Alloc`].
    pub fn group_block(
        &self,
        ci0: usize,
        ci_count: usize,
        co0: usize,
        co_count: usize,
    ) -> Result<BlockedKernels, TensorError> {
        if !co0.is_multiple_of(S) || co_count == 0 || !co_count.is_multiple_of(S) {
            return Err(ShapeError::ChannelsNotVectorMultiple { channels: co_count.max(co0) }.into());
        }
        if ci0 + ci_count > self.in_channels || co0 + co_count > self.out_channels {
            return Err(ShapeError::Mismatch {
                what: "kernel group block end",
                expected: self.in_channels.max(self.out_channels),
                got: (ci0 + ci_count).max(co0 + co_count),
            }
            .into());
        }
        let mut out = BlockedKernels::try_zeros(ci_count, co_count, &self.dims)?;
        let vol = self.spatial_volume();
        let run = (co_count / S) * vol * S;
        for ci in 0..ci_count {
            let src = ((ci0 + ci) * self.out_channel_groups() + co0 / S) * vol * S;
            let dst = ci * run;
            out.data[dst..dst + run].copy_from_slice(&self.data[src..src + run]);
        }
        Ok(out)
    }

    pub fn from_simple(k: &SimpleKernels) -> Result<Self, ShapeError> {
        let mut out = Self::zeros(k.in_channels, k.out_channels, &k.dims)?;
        let vol = out.spatial_volume();
        for co in 0..k.out_channels {
            for ci in 0..k.in_channels {
                let src = k.kernel(co, ci);
                let (og, ol) = (co / S, co % S);
                for s in 0..vol {
                    let o = out.vec_offset_flat(ci, og, s) + ol;
                    out.data[o] = src[s];
                }
            }
        }
        Ok(out)
    }

    pub fn to_simple(&self) -> SimpleKernels {
        let mut k = SimpleKernels::zeros(self.out_channels, self.in_channels, &self.dims);
        let vol = self.spatial_volume();
        for co in 0..self.out_channels {
            for ci in 0..self.in_channels {
                let (og, ol) = (co / S, co % S);
                for s in 0..vol {
                    let v = self.data[self.vec_offset_flat(ci, og, s) + ol];
                    k.data[(co * self.in_channels + ci) * vol + s] = v;
                }
            }
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reshape_re_views_its_bytes_and_grows_only_when_too_small() {
        let mut img = BlockedImage::zeros(2, 32, &[4, 5]).unwrap();
        let (ptr, bytes) = (img.as_ptr(), img.bytes());
        img.as_mut_slice().fill(3.0);
        img.try_reshape(1, 16, &[3, 3, 2]).unwrap();
        assert_eq!((img.batch, img.channels, img.dims.as_slice()), (1, 16, &[3, 3, 2][..]));
        assert_eq!((img.as_ptr(), img.bytes(), img.as_slice().len()), (ptr, bytes, 16 * 18));
        assert!(img.as_slice().iter().all(|&x| x == 3.0), "nothing is cleared");
        img.fill_zero();
        assert_eq!(img.to_simple().data, vec![0.0; 16 * 18]);
        img.try_reshape(4, 32, &[4, 5]).unwrap();
        assert_eq!(img.bytes(), BlockedImage::bytes_for(4, 32, &[4, 5]), "grown to the need");
        assert!(img.try_reshape(1, 20, &[2]).is_err(), "a shape error stays one");
    }

    #[test]
    fn channels_must_be_vector_multiple() {
        assert!(matches!(
            BlockedImage::zeros(1, 17, &[4, 4]),
            Err(ShapeError::ChannelsNotVectorMultiple { channels: 17 })
        ));
        assert!(BlockedImage::zeros(1, 32, &[4, 4]).is_ok());
        assert!(matches!(
            BlockedKernels::zeros(16, 8, &[3, 3]),
            Err(ShapeError::ChannelsNotVectorMultiple { channels: 8 })
        ));
    }

    #[test]
    fn zero_dims_rejected() {
        assert!(matches!(BlockedImage::zeros(0, 16, &[4]), Err(ShapeError::ZeroDim)));
        assert!(matches!(BlockedImage::zeros(1, 16, &[0, 4]), Err(ShapeError::ZeroDim)));
    }

    #[test]
    fn image_simple_roundtrip() {
        let img = SimpleImage::from_fn(2, 32, &[3, 4], |b, c, xy| {
            (b * 1000 + c * 10) as f32 + (xy[0] * 4 + xy[1]) as f32 * 0.1
        });
        let blocked = BlockedImage::from_simple(&img).unwrap();
        assert_eq!(blocked.to_simple(), img);
        // Spot-check the blocked indexing agrees with element accessors.
        assert_eq!(blocked.get(1, 17, &[2, 3]), img.get(1, 17, &[2, 3]));
    }

    #[test]
    fn kernel_simple_roundtrip() {
        let k = SimpleKernels::from_fn(32, 5, &[3, 3], |co, ci, xy| {
            (co * 100 + ci * 10 + xy[0] * 3 + xy[1]) as f32
        });
        let blocked = BlockedKernels::from_simple(&k).unwrap();
        assert_eq!(blocked.to_simple(), k);
        assert_eq!(blocked.get(31, 4, &[1, 2]), k.get(31, 4, &[1, 2]));
    }

    #[test]
    fn innermost_dim_is_channel_vector() {
        // Verify the Table-1 property: channels c and c+1 within the same
        // group are adjacent floats in memory.
        let mut img = BlockedImage::zeros(1, 32, &[2, 2]).unwrap();
        img.set(0, 4, &[1, 1], 1.0);
        img.set(0, 5, &[1, 1], 2.0);
        let base = img.vec_offset(0, 0, &[1, 1]);
        assert_eq!(img.as_slice()[base + 4], 1.0);
        assert_eq!(img.as_slice()[base + 5], 2.0);
    }

    #[test]
    fn vec_offsets_are_vector_aligned() {
        let img = BlockedImage::zeros(2, 48, &[5, 7]).unwrap();
        for b in 0..2 {
            for cg in 0..3 {
                for s in 0..35 {
                    assert_eq!(img.vec_offset_flat(b, cg, s) % S, 0);
                }
            }
        }
    }

    #[test]
    fn blocked_image_is_64_byte_aligned() {
        let img = BlockedImage::zeros(1, 16, &[8]).unwrap();
        assert_eq!(img.as_ptr() as usize % 64, 0);
        let k = BlockedKernels::zeros(16, 16, &[3]).unwrap();
        assert_eq!(k.as_ptr() as usize % 64, 0);
    }

    #[test]
    fn channel_block_roundtrip() {
        let img = SimpleImage::from_fn(2, 48, &[3, 3], |b, c, xy| {
            (b * 10000 + c * 100 + xy[0] * 10 + xy[1]) as f32
        });
        let blocked = BlockedImage::from_simple(&img).unwrap();
        let mid = blocked.channel_block(16, 16).unwrap();
        assert_eq!(mid.channels, 16);
        for b in 0..2 {
            for c in 0..16 {
                for x in 0..3 {
                    for y in 0..3 {
                        assert_eq!(mid.get(b, c, &[x, y]), img.get(b, 16 + c, &[x, y]));
                    }
                }
            }
        }
        // Write it back shifted into a fresh image and check placement.
        let mut dst = BlockedImage::zeros(2, 48, &[3, 3]).unwrap();
        dst.write_channel_block(32, &mid).unwrap();
        assert_eq!(dst.get(1, 32, &[2, 2]), img.get(1, 16, &[2, 2]));
        assert_eq!(dst.get(0, 0, &[0, 0]), 0.0);
        // Misaligned or out-of-range blocks are typed errors.
        assert!(blocked.channel_block(8, 16).is_err());
        assert!(blocked.channel_block(32, 32).is_err());
    }

    #[test]
    fn kernel_group_block_roundtrip() {
        let k = SimpleKernels::from_fn(32, 8, &[3], |co, ci, xy| {
            (co * 100 + ci * 10 + xy[0]) as f32
        });
        let blocked = BlockedKernels::from_simple(&k).unwrap();
        let block = blocked.group_block(2, 4, 16, 16).unwrap();
        assert_eq!((block.in_channels, block.out_channels), (4, 16));
        for co in 0..16 {
            for ci in 0..4 {
                for x in 0..3 {
                    assert_eq!(block.get(co, ci, &[x]), k.get(16 + co, 2 + ci, &[x]));
                }
            }
        }
        assert!(blocked.group_block(0, 8, 8, 16).is_err());
        assert!(blocked.group_block(4, 8, 0, 16).is_err());
    }

    #[test]
    fn three_d_roundtrip() {
        let img = SimpleImage::from_fn(1, 16, &[2, 3, 4], |_, c, xyz| {
            c as f32 + (xyz[0] * 12 + xyz[1] * 4 + xyz[2]) as f32 * 0.01
        });
        let blocked = BlockedImage::from_simple(&img).unwrap();
        assert_eq!(blocked.to_simple(), img);
    }
}
