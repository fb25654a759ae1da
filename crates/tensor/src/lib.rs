//! # wino-tensor
//!
//! The data-layout substrate (paper §4.1, Table 1).
//!
//! Three families of containers:
//!
//! * [`SimpleImage`] / [`SimpleKernels`] — plain row-major `NC(D)HW` /
//!   `C'C(R)HW` tensors. These are the *interchange* format: easy to reason
//!   about, used by reference implementations and tests.
//! * [`BlockedImage`] / [`BlockedKernels`] — the paper's vectorisation
//!   layout, `I[b][c/S][d][h][w][c mod S]` and `W[c][c'/S][...][c' mod S]`
//!   with `S = 16`: the innermost dimension is a full vector register, so
//!   every access in the hot loops is one aligned vector load/store.
//! * [`BlockedMatrices`] — the transformed-data layout,
//!   `[row/rb][col/cb][t][row mod rb][col mod cb]`: `T` logical matrices
//!   (one per intra-tile position `t`) stored so that every
//!   `rb × cb` GEMM block is a single contiguous chunk and the stage-1/3
//!   scatter/gather touches a small, TLB-friendly range.
//!
//! Geometry lives in [`geometry`]: [`ConvShape`] describes a convolutional
//! layer, [`TileGrid`] the overlap-add tiling (§3.1–3.2).

pub mod blocked;
pub mod geometry;
pub mod matrices;
pub mod simple;

pub use blocked::{BlockedImage, BlockedKernels};
pub use geometry::{ConvGeometry, ConvShape, TileGrid};
pub use matrices::BlockedMatrices;
pub use simple::{SimpleImage, SimpleKernels};

/// The channel-block width: one vector register of `f32` (paper's `S`).
pub use wino_simd::S;
/// Re-exported so tensor consumers can match allocation failures without
/// depending on `wino-simd` directly.
pub use wino_simd::AllocError;

/// Errors for shape construction and conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeError {
    /// Channel count not divisible by the vector width `S`.
    ChannelsNotVectorMultiple { channels: usize },
    /// Mismatched dimensionality between two shapes.
    RankMismatch { expected: usize, got: usize },
    /// A kernel larger than its (padded) image.
    KernelTooLarge,
    /// Empty or zero-sized dimension.
    ZeroDim,
    /// Two connected buffers disagree on one extent (batch, channel count,
    /// spatial dimension, …) — `what` names the quantity.
    Mismatch { what: &'static str, expected: usize, got: usize },
    /// A channel count that the requested group count does not divide —
    /// such a layer is unrepresentable, not merely unsupported.
    BadGroups { channels: usize, groups: usize },
    /// A stride/dilation/groups field outside the representable range
    /// (zero stride, zero dilation, zero groups, or a dilated receptive
    /// field wider than the padded image) — `what` names the field.
    BadGeometry { what: &'static str },
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapeError::ChannelsNotVectorMultiple { channels } => write!(
                f,
                "channel count {channels} is not a multiple of the vector width {S}; \
                 the paper's layout requires C, C' divisible by S (true for all modern ConvNets)"
            ),
            ShapeError::RankMismatch { expected, got } => {
                write!(f, "rank mismatch: expected {expected} spatial dims, got {got}")
            }
            ShapeError::KernelTooLarge => write!(f, "kernel exceeds padded image extent"),
            ShapeError::ZeroDim => write!(f, "zero-sized dimension"),
            ShapeError::Mismatch { what, expected, got } => {
                write!(f, "{what} mismatch: expected {expected}, got {got}")
            }
            ShapeError::BadGroups { channels, groups } => {
                write!(f, "group count {groups} does not divide channel count {channels}")
            }
            ShapeError::BadGeometry { what } => write!(f, "bad conv geometry: {what}"),
        }
    }
}

impl std::error::Error for ShapeError {}

/// A fallible-constructor failure: either the requested shape is invalid
/// or the allocator refused the backing buffer. Only the `try_*`
/// constructors return this — the infallible ones keep [`ShapeError`]
/// and abort on OOM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TensorError {
    /// The requested shape is unrepresentable.
    Shape(ShapeError),
    /// The allocator (or the fault injector) refused the backing buffer.
    Alloc(AllocError),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::Shape(e) => write!(f, "{e}"),
            TensorError::Alloc(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TensorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TensorError::Shape(e) => Some(e),
            TensorError::Alloc(e) => Some(e),
        }
    }
}

impl From<ShapeError> for TensorError {
    fn from(e: ShapeError) -> Self {
        TensorError::Shape(e)
    }
}

impl From<AllocError> for TensorError {
    fn from(e: AllocError) -> Self {
        TensorError::Alloc(e)
    }
}

/// Product of a dimension list.
#[inline]
pub fn volume(dims: &[usize]) -> usize {
    dims.iter().product()
}

/// Row-major flat index of `coords` within `dims`.
#[inline]
pub fn flat_index(coords: &[usize], dims: &[usize]) -> usize {
    debug_assert_eq!(coords.len(), dims.len());
    let mut idx = 0;
    for (c, d) in coords.iter().zip(dims) {
        debug_assert!(c < d, "coordinate {c} out of bound {d}");
        idx = idx * d + c;
    }
    idx
}

/// Inverse of [`flat_index`].
#[inline]
pub fn unflatten(mut idx: usize, dims: &[usize]) -> Vec<usize> {
    let mut coords = vec![0; dims.len()];
    for i in (0..dims.len()).rev() {
        coords[i] = idx % dims[i];
        idx /= dims[i];
    }
    debug_assert_eq!(idx, 0);
    coords
}

/// Floats from the start of one block to the next where the stages
/// scatter into `floats`-float blocks laid end to end: the block, plus one
/// vector — one 64-byte line — when its line count is even. A tile's `T`
/// transform vectors land one block apart; at an odd number of lines any
/// 64 consecutive of them fall in 64 different sets of a 64-set L1, where
/// block sizes rich in powers of two put them all into a few.
/// `floats` must be a whole number of vectors.
#[inline]
pub fn scatter_pitch(floats: usize) -> usize {
    debug_assert!(floats.is_multiple_of(S), "{floats} floats are not whole vectors");
    if (floats / S).is_multiple_of(2) {
        floats + S
    } else {
        floats
    }
}

/// `ceil(a / b)`.
#[inline]
pub fn div_ceil(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_roundtrip() {
        let dims = [3usize, 4, 5];
        for i in 0..volume(&dims) {
            let c = unflatten(i, &dims);
            assert_eq!(flat_index(&c, &dims), i);
        }
    }

    #[test]
    fn flat_index_is_row_major() {
        // Matches Table 1's t = t_d·T_h·T_w + t_h·T_w + t_w.
        assert_eq!(flat_index(&[1, 2, 3], &[4, 5, 6]), 30 + 2 * 6 + 3);
    }

    #[test]
    fn a_scatter_pitch_is_an_odd_number_of_lines() {
        assert_eq!(scatter_pitch(S), S);
        assert_eq!(scatter_pitch(2 * S), 3 * S);
        assert_eq!(scatter_pitch(16 * 16), 17 * S);
        assert_eq!(scatter_pitch(215 * S), 215 * S);
        for lines in 1..200 {
            assert_eq!(scatter_pitch(lines * S) / S % 2, 1, "{lines} lines");
        }
    }

    #[test]
    fn div_ceil_works() {
        assert_eq!(div_ceil(10, 5), 2);
        assert_eq!(div_ceil(11, 5), 3);
        assert_eq!(div_ceil(1, 5), 1);
        assert_eq!(div_ceil(5, 1), 5);
    }
}
