//! Convolution-layer geometry and overlap-add tiling (§3.1–§3.2).

use crate::{div_ceil, unflatten, ShapeError};

/// The shape of one convolutional layer (Eqn. 6): a batch of `B` tuples of
/// `C` N-D images convolved with `C × C'` kernels under zero padding,
/// stride 1 (Winograd convolution is a stride-1 algorithm).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConvShape {
    pub batch: usize,
    pub in_channels: usize,
    pub out_channels: usize,
    /// Input spatial extent per dimension (e.g. `[H, W]` or `[D, H, W]`).
    pub image_dims: Vec<usize>,
    /// Kernel extent per dimension.
    pub kernel_dims: Vec<usize>,
    /// Zero padding per dimension (applied on both sides).
    pub padding: Vec<usize>,
}

impl ConvShape {
    pub fn new(
        batch: usize,
        in_channels: usize,
        out_channels: usize,
        image_dims: &[usize],
        kernel_dims: &[usize],
        padding: &[usize],
    ) -> Result<Self, ShapeError> {
        if kernel_dims.len() != image_dims.len() {
            return Err(ShapeError::RankMismatch {
                expected: image_dims.len(),
                got: kernel_dims.len(),
            });
        }
        if padding.len() != image_dims.len() {
            return Err(ShapeError::RankMismatch {
                expected: image_dims.len(),
                got: padding.len(),
            });
        }
        if batch == 0
            || in_channels == 0
            || out_channels == 0
            || image_dims.contains(&0)
            || kernel_dims.contains(&0)
        {
            return Err(ShapeError::ZeroDim);
        }
        for d in 0..image_dims.len() {
            if kernel_dims[d] > image_dims[d] + 2 * padding[d] {
                return Err(ShapeError::KernelTooLarge);
            }
        }
        Ok(ConvShape {
            batch,
            in_channels,
            out_channels,
            image_dims: image_dims.to_vec(),
            kernel_dims: kernel_dims.to_vec(),
            padding: padding.to_vec(),
        })
    }

    /// Number of spatial dimensions N.
    pub fn rank(&self) -> usize {
        self.image_dims.len()
    }

    /// Output extent per dimension: `in + 2·pad − r + 1`.
    pub fn out_dims(&self) -> Vec<usize> {
        (0..self.rank())
            .map(|d| self.image_dims[d] + 2 * self.padding[d] - self.kernel_dims[d] + 1)
            .collect()
    }

    /// Multiply–add count of the direct method:
    /// `B · C · C' · prod(out) · prod(r)`.
    pub fn direct_macs(&self) -> u128 {
        let out: u128 = self.out_dims().iter().map(|&d| d as u128).product();
        let ker: u128 = self.kernel_dims.iter().map(|&d| d as u128).product();
        self.batch as u128 * self.in_channels as u128 * self.out_channels as u128 * out * ker
    }

    /// FLOP count of the direct method (2 per MAC) — the normaliser used in
    /// "effective GFLOP/s" reporting.
    pub fn direct_flops(&self) -> u128 {
        2 * self.direct_macs()
    }
}

/// Per-dimension stride and dilation plus a channel group count — the
/// scenario axes of a general convolution on top of a stride-1
/// [`ConvShape`]. The identity geometry (all ones) is the plain Winograd
/// case; everything else is routed by the dispatch layer in `wino-conv`:
/// a stride by sampling every `s`-th site of the stride-1 Winograd
/// result, groups by blocking the C/C' loops, dilation through the im2col
/// baseline.
///
/// Output extents under a geometry follow the standard formula
///
/// ```text
/// out_d = ⌊(in_d + 2·pad_d − ((r_d − 1)·dilation_d + 1)) / stride_d⌋ + 1
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Output sampling step per dimension (≥ 1).
    pub stride: Vec<usize>,
    /// Kernel tap spacing per dimension (≥ 1).
    pub dilation: Vec<usize>,
    /// Channel groups: input channels `[g·C/G, (g+1)·C/G)` feed only
    /// output channels `[g·C'/G, (g+1)·C'/G)`. `groups == C` is depthwise.
    pub groups: usize,
}

impl ConvGeometry {
    /// The stride-1/dilation-1/ungrouped geometry of the given rank.
    pub fn identity(rank: usize) -> ConvGeometry {
        ConvGeometry { stride: vec![1; rank], dilation: vec![1; rank], groups: 1 }
    }

    /// True when this is the plain stride-1/dilation-1/ungrouped case.
    pub fn is_identity(&self) -> bool {
        self.groups == 1
            && self.stride.iter().all(|&s| s == 1)
            && self.dilation.iter().all(|&d| d == 1)
    }

    /// Dilated kernel extent along dimension `d`: `(r − 1)·dilation + 1`.
    pub fn effective_kernel(&self, kernel_dims: &[usize], d: usize) -> usize {
        (kernel_dims[d] - 1) * self.dilation[d] + 1
    }

    /// Check this geometry against a layer shape. Failures here mean the
    /// layer is *unrepresentable* (no backend could run it), as opposed to
    /// merely outside what Winograd supports:
    /// zero stride/dilation/groups, a rank mismatch, a group count that
    /// does not divide C or C', or a dilated kernel wider than the padded
    /// image.
    pub fn validate(&self, shape: &ConvShape) -> Result<(), ShapeError> {
        let rank = shape.rank();
        if self.stride.len() != rank {
            return Err(ShapeError::RankMismatch { expected: rank, got: self.stride.len() });
        }
        if self.dilation.len() != rank {
            return Err(ShapeError::RankMismatch { expected: rank, got: self.dilation.len() });
        }
        if self.stride.contains(&0) {
            return Err(ShapeError::BadGeometry { what: "stride must be at least 1" });
        }
        if self.dilation.contains(&0) {
            return Err(ShapeError::BadGeometry { what: "dilation must be at least 1" });
        }
        if self.groups == 0 {
            return Err(ShapeError::BadGeometry { what: "groups must be at least 1" });
        }
        if !shape.in_channels.is_multiple_of(self.groups) {
            return Err(ShapeError::BadGroups { channels: shape.in_channels, groups: self.groups });
        }
        if !shape.out_channels.is_multiple_of(self.groups) {
            return Err(ShapeError::BadGroups {
                channels: shape.out_channels,
                groups: self.groups,
            });
        }
        for d in 0..rank {
            if self.effective_kernel(&shape.kernel_dims, d)
                > shape.image_dims[d] + 2 * shape.padding[d]
            {
                return Err(ShapeError::BadGeometry {
                    what: "dilated kernel exceeds padded image extent",
                });
            }
        }
        Ok(())
    }

    /// Output extent per dimension under this geometry (validates first).
    pub fn out_dims(&self, shape: &ConvShape) -> Result<Vec<usize>, ShapeError> {
        self.validate(shape)?;
        Ok((0..shape.rank())
            .map(|d| {
                let span = shape.image_dims[d] + 2 * shape.padding[d]
                    - self.effective_kernel(&shape.kernel_dims, d);
                span / self.stride[d] + 1
            })
            .collect())
    }

    /// Multiply–add count of the direct method under this geometry:
    /// `B · (C/G) · C' · ∏out · ∏r` (each output channel sees only its
    /// group's input channels).
    pub fn direct_macs(&self, shape: &ConvShape) -> Result<u128, ShapeError> {
        let out: u128 = self.out_dims(shape)?.iter().map(|&d| d as u128).product();
        let ker: u128 = shape.kernel_dims.iter().map(|&d| d as u128).product();
        Ok(shape.batch as u128
            * (shape.in_channels / self.groups) as u128
            * shape.out_channels as u128
            * out
            * ker)
    }
}

/// The overlap-add tile decomposition for one layer and one choice of
/// output-tile sizes `m` (§3.2): input tiles of size
/// `T_d = m_d + r_d − 1` overlapping by `r_d − 1`, `N_d = ⌈out_d/m_d⌉`
/// tiles per dimension.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TileGrid {
    /// Output tile size per dimension.
    pub m: Vec<usize>,
    /// Kernel size per dimension.
    pub r: Vec<usize>,
    /// Input tile size per dimension (`α_d = m_d + r_d − 1`).
    pub tile_dims: Vec<usize>,
    /// Tiles per dimension (`N_d`).
    pub counts: Vec<usize>,
    /// Padding per dimension (start side).
    pub padding: Vec<usize>,
    /// Output extent per dimension.
    pub out_dims: Vec<usize>,
    /// Input extent per dimension.
    pub in_dims: Vec<usize>,
}

impl TileGrid {
    pub fn new(shape: &ConvShape, m: &[usize]) -> Result<TileGrid, ShapeError> {
        if m.len() != shape.rank() {
            return Err(ShapeError::RankMismatch { expected: shape.rank(), got: m.len() });
        }
        if m.contains(&0) {
            return Err(ShapeError::ZeroDim);
        }
        let out_dims = shape.out_dims();
        let counts: Vec<usize> = out_dims.iter().zip(m).map(|(&o, &mm)| div_ceil(o, mm)).collect();
        let tile_dims: Vec<usize> =
            m.iter().zip(&shape.kernel_dims).map(|(&mm, &rr)| mm + rr - 1).collect();
        Ok(TileGrid {
            m: m.to_vec(),
            r: shape.kernel_dims.clone(),
            tile_dims,
            counts,
            padding: shape.padding.clone(),
            out_dims,
            in_dims: shape.image_dims.clone(),
        })
    }

    /// Total number of tiles per (batch, channel) image: `N = ∏ N_d`.
    pub fn total_tiles(&self) -> usize {
        self.counts.iter().product()
    }

    /// Number of elements per tile: `T = ∏ T_d`.
    pub fn tile_volume(&self) -> usize {
        self.tile_dims.iter().product()
    }

    /// Output elements per tile: `∏ m_d`.
    pub fn out_tile_volume(&self) -> usize {
        self.m.iter().product()
    }

    /// Multi-index of tile `flat` (row-major over `counts`).
    pub fn tile_coords(&self, flat: usize) -> Vec<usize> {
        unflatten(flat, &self.counts)
    }

    /// Input-space origin (top-left-front corner) of the given tile, in
    /// *unpadded* input coordinates — may be negative (reads the zero
    /// padding region).
    pub fn input_origin(&self, tile_coords: &[usize]) -> Vec<isize> {
        (0..self.m.len())
            .map(|d| (tile_coords[d] * self.m[d]) as isize - self.padding[d] as isize)
            .collect()
    }

    /// Output-space origin of the given tile.
    pub fn output_origin(&self, tile_coords: &[usize]) -> Vec<usize> {
        (0..self.m.len()).map(|d| tile_coords[d] * self.m[d]).collect()
    }

    /// How many output elements of the tile are real (not ceil-division
    /// overhang) along each dimension.
    pub fn output_extent(&self, tile_coords: &[usize]) -> Vec<usize> {
        (0..self.m.len())
            .map(|d| {
                let start = tile_coords[d] * self.m[d];
                self.m[d].min(self.out_dims[d] - start)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vgg22() -> ConvShape {
        // VGG 2.2 from Table 2: B=64, C=C'=128, 112², pad 1, kernel 3².
        ConvShape::new(64, 128, 128, &[112, 112], &[3, 3], &[1, 1]).unwrap()
    }

    #[test]
    fn out_dims_with_padding() {
        let s = vgg22();
        assert_eq!(s.out_dims(), vec![112, 112]); // "same" conv
        let s2 = ConvShape::new(1, 64, 64, &[640, 640], &[3, 3], &[0, 0]).unwrap();
        assert_eq!(s2.out_dims(), vec![638, 638]); // FusionNet 1.2: valid conv
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            ConvShape::new(1, 16, 16, &[8, 8], &[3], &[0, 0]),
            Err(ShapeError::RankMismatch { .. })
        ));
        assert!(matches!(
            ConvShape::new(1, 16, 16, &[8, 8], &[3, 3], &[0]),
            Err(ShapeError::RankMismatch { .. })
        ));
        assert!(matches!(
            ConvShape::new(1, 16, 16, &[2, 2], &[5, 5], &[0, 0]),
            Err(ShapeError::KernelTooLarge)
        ));
        assert!(matches!(
            ConvShape::new(0, 16, 16, &[8, 8], &[3, 3], &[0, 0]),
            Err(ShapeError::ZeroDim)
        ));
    }

    #[test]
    fn direct_flops_vgg() {
        let s = vgg22();
        // 2 * 64 * 128 * 128 * 112^2 * 9
        assert_eq!(s.direct_flops(), 2 * 64 * 128 * 128 * 112 * 112 * 9);
    }

    #[test]
    fn tile_grid_divisible() {
        let s = vgg22();
        let g = TileGrid::new(&s, &[4, 4]).unwrap();
        assert_eq!(g.tile_dims, vec![6, 6]);
        assert_eq!(g.counts, vec![28, 28]);
        assert_eq!(g.total_tiles(), 784);
        assert_eq!(g.tile_volume(), 36);
        assert_eq!(g.out_tile_volume(), 16);
    }

    #[test]
    fn tile_grid_with_overhang() {
        // out = 112, m = 6 -> 19 tiles, last one partial (112 = 18*6 + 4).
        let s = vgg22();
        let g = TileGrid::new(&s, &[6, 6]).unwrap();
        assert_eq!(g.counts, vec![19, 19]);
        let last = g.output_extent(&[18, 18]);
        assert_eq!(last, vec![4, 4]);
        let first = g.output_extent(&[0, 0]);
        assert_eq!(first, vec![6, 6]);
    }

    #[test]
    fn tile_origins_account_for_padding() {
        let s = vgg22();
        let g = TileGrid::new(&s, &[4, 4]).unwrap();
        assert_eq!(g.input_origin(&[0, 0]), vec![-1, -1]); // reads padding
        assert_eq!(g.input_origin(&[1, 2]), vec![3, 7]);
        assert_eq!(g.output_origin(&[1, 2]), vec![4, 8]);
    }

    #[test]
    fn three_d_grid() {
        // C3D C3b: B=32, C=C'=256, (8,28,28), pad 1, kernel 3³.
        let s = ConvShape::new(32, 256, 256, &[8, 28, 28], &[3, 3, 3], &[1, 1, 1]).unwrap();
        let g = TileGrid::new(&s, &[4, 4, 4]).unwrap();
        assert_eq!(s.out_dims(), vec![8, 28, 28]);
        assert_eq!(g.counts, vec![2, 7, 7]);
        assert_eq!(g.total_tiles(), 98);
        assert_eq!(g.tile_volume(), 216);
        let c = g.tile_coords(97);
        assert_eq!(c, vec![1, 6, 6]);
    }

    #[test]
    fn geometry_identity_matches_conv_shape() {
        let s = vgg22();
        let g = ConvGeometry::identity(2);
        assert!(g.is_identity());
        assert_eq!(g.out_dims(&s).unwrap(), s.out_dims());
        assert_eq!(g.direct_macs(&s).unwrap(), s.direct_macs());
    }

    #[test]
    fn geometry_strided_and_dilated_out_dims() {
        let s = ConvShape::new(1, 16, 16, &[13, 13], &[3, 3], &[1, 1]).unwrap();
        let g = ConvGeometry { stride: vec![2, 2], dilation: vec![1, 1], groups: 1 };
        // (13 + 2 − 3)/2 + 1 = 7.
        assert_eq!(g.out_dims(&s).unwrap(), vec![7, 7]);
        let d = ConvGeometry { stride: vec![1, 1], dilation: vec![2, 2], groups: 1 };
        // Effective kernel 5: 13 + 2 − 5 + 1 = 11.
        assert_eq!(d.out_dims(&s).unwrap(), vec![11, 11]);
        // Stride larger than the extent still yields one output.
        let huge = ConvGeometry { stride: vec![40, 40], dilation: vec![1, 1], groups: 1 };
        assert_eq!(huge.out_dims(&s).unwrap(), vec![1, 1]);
    }

    #[test]
    fn geometry_rejects_unrepresentable() {
        let s = ConvShape::new(1, 16, 32, &[8, 8], &[3, 3], &[1, 1]).unwrap();
        let bad_groups = ConvGeometry { stride: vec![1, 1], dilation: vec![1, 1], groups: 3 };
        assert!(matches!(
            bad_groups.validate(&s),
            Err(ShapeError::BadGroups { channels: 16, groups: 3 })
        ));
        // 5 divides neither 16 nor 32; the input-channel check fires first.
        let zero_stride = ConvGeometry { stride: vec![0, 1], dilation: vec![1, 1], groups: 1 };
        assert!(matches!(zero_stride.validate(&s), Err(ShapeError::BadGeometry { .. })));
        // Dilation 8 → effective kernel 17 > 8 + 2.
        let wide = ConvGeometry { stride: vec![1, 1], dilation: vec![8, 8], groups: 1 };
        assert!(matches!(wide.validate(&s), Err(ShapeError::BadGeometry { .. })));
        let short = ConvGeometry { stride: vec![1], dilation: vec![1], groups: 1 };
        assert!(matches!(short.validate(&s), Err(ShapeError::RankMismatch { .. })));
    }

    #[test]
    fn grouped_macs_scale_down() {
        let s = ConvShape::new(1, 32, 32, &[8, 8], &[3, 3], &[1, 1]).unwrap();
        let g2 = ConvGeometry { stride: vec![1, 1], dilation: vec![1, 1], groups: 2 };
        assert_eq!(g2.direct_macs(&s).unwrap() * 2, s.direct_macs());
    }

    #[test]
    fn arbitrary_kernel_sizes() {
        // The Budden et al. sample network uses 4×4 kernels; N-D arbitrary-r
        // support is the headline novelty.
        let s = ConvShape::new(1, 32, 32, &[64, 64], &[4, 4], &[0, 0]).unwrap();
        assert_eq!(s.out_dims(), vec![61, 61]);
        let g = TileGrid::new(&s, &[3, 3]).unwrap();
        assert_eq!(g.tile_dims, vec![6, 6]);
        assert_eq!(g.counts, vec![21, 21]);
    }
}
