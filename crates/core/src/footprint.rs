//! Analytic memory accounting for planned layers.
//!
//! A [`MemoryFootprint`] states, without allocating anything, exactly how
//! many bytes a plan will ask the allocator for: the transformed-data
//! scratch ([`Scratch`](crate::Scratch) — four layer-sized buffers for a
//! staged plan, the kernel transforms plus one ring per thread slot for a
//! fused one), the per-thread codelet buffers, the memoised
//! kernel-transform clone
//! ([`TransformedKernels`](crate::TransformedKernels)) and the output
//! image. Each component reuses the container's own `bytes_for` helper
//! with the same parameters the real constructor receives, so the model
//! cannot drift from the allocation code — a property the footprint unit
//! tests pin by comparing predictions against observed allocation tallies
//! ([`wino_simd::thread_alloc_bytes`]).
//!
//! Consumers:
//!
//! * the plan's store flavour and work model (`BufferBytes`);
//! * serve-time admission — `wino-serve` prices a concurrent batch in
//!   bytes before accepting it;
//! * the BENCH schema's `memory` section.

use wino_simd::S;
use wino_tensor::{BlockedImage, BlockedMatrices};

use crate::layout::TileMajor;
use crate::plan::WinogradLayer;

/// Bytes of each buffer a forward pass of one plan reads or writes, as
/// allocated — the one count behind [`MemoryFootprint`], the traffic of
/// [`WinogradLayer::work_model`] and the plan's store flavour
/// (`fused::streams`).
pub(crate) struct BufferBytes {
    /// The input image and the raw kernels.
    pub input: usize,
    pub kernels: usize,
    /// Transformed inputs `Û`, blocked intermediate `X̂` and its tile-major
    /// form `Y`: layer-sized in a staged plan's scratch, 0 for a fused
    /// plan, whose ring takes their place and never leaves the core.
    pub u: usize,
    pub x: usize,
    pub y: usize,
    /// Transformed kernels `V̂`.
    pub v: usize,
    /// One thread slot's ring; 0 for a staged plan.
    pub ring: usize,
    /// The output image.
    pub output: usize,
}

impl BufferBytes {
    pub(crate) fn of(layer: &WinogradLayer) -> BufferBytes {
        let (t, rows, blk) = (layer.t_vol(), layer.rows(), layer.block);
        let shape = &layer.shape;
        let (batch, c, cp) = (shape.batch, shape.in_channels, shape.out_channels);
        let staged = |bytes: usize| if layer.is_fused() { 0 } else { bytes };
        BufferBytes {
            input: BlockedImage::bytes_for(batch, c, &shape.image_dims),
            kernels: c * cp * shape.kernel_dims.iter().product::<usize>() * 4,
            u: staged(BlockedMatrices::bytes_for(t, rows, c, blk.n_blk, blk.c_blk)),
            x: staged(BlockedMatrices::bytes_for(t, rows, cp, blk.n_blk, blk.cp_blk)),
            y: staged(TileMajor::bytes_for(batch, cp, layer.n_tiles(), t)),
            v: BlockedMatrices::bytes_for(t, c, cp, blk.c_blk, blk.cp_blk),
            ring: layer.ring_floats() * 4,
            output: BlockedImage::bytes_for(batch, cp, &shape.out_dims()),
        }
    }
}

/// Byte-exact breakdown of a plan's allocations at a given thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// What [`Scratch::new`](crate::Scratch::new) holds besides the
    /// codelet buffers. A staged plan: `u` + `v` + `x`
    /// ([`BlockedMatrices`]) and `y` ([`TileMajor`]). A fused plan
    /// ([`WinogradLayer::is_fused`]): `v` and one ring per thread slot —
    /// `T·n_blk·(C + C')` floats each, independent of the layer's extent.
    pub scratch_bytes: usize,
    /// The tile-major transformed-output buffer `y` alone (also counted
    /// in `scratch_bytes`; broken out because serving sizes it per batch).
    /// 0 for a fused plan.
    pub tile_major_bytes: usize,
    /// The memoised kernel-transform clone (`TransformedKernels`) — the
    /// same shape as scratch `v`.
    pub transformed_kernel_bytes: usize,
    /// Per-thread codelet buffers, totalled across all `threads` slots:
    /// two `T·S` ping-pong tile buffers each.
    pub per_thread_bytes: usize,
    /// The blocked output image.
    pub output_bytes: usize,
    /// Thread-slot count the per-thread component was priced at.
    pub threads: usize,
}

impl MemoryFootprint {
    /// No bytes at all, priced at `threads` thread slots — the identity
    /// the per-route and per-network aggregations start from.
    pub fn empty(threads: usize) -> MemoryFootprint {
        MemoryFootprint {
            scratch_bytes: 0,
            tile_major_bytes: 0,
            transformed_kernel_bytes: 0,
            per_thread_bytes: 0,
            output_bytes: 0,
            threads,
        }
    }

    /// Fold `other` into `self` component by component (`+` aggregates
    /// buffers that are live together, `max` ones that take turns).
    pub fn fold(&mut self, other: &MemoryFootprint, f: fn(usize, usize) -> usize) {
        self.scratch_bytes = f(self.scratch_bytes, other.scratch_bytes);
        self.tile_major_bytes = f(self.tile_major_bytes, other.tile_major_bytes);
        self.transformed_kernel_bytes =
            f(self.transformed_kernel_bytes, other.transformed_kernel_bytes);
        self.per_thread_bytes = f(self.per_thread_bytes, other.per_thread_bytes);
        self.output_bytes = f(self.output_bytes, other.output_bytes);
    }

    /// Footprint of `layer` executed with `threads` thread slots.
    ///
    /// Mirrors `Scratch::build`, `WinogradLayer::new_output` and
    /// `Network::prepare` parameter-for-parameter.
    pub fn of_layer(layer: &WinogradLayer, threads: usize) -> MemoryFootprint {
        let slots = threads.max(1);
        let b = BufferBytes::of(layer);
        MemoryFootprint {
            scratch_bytes: b.u + b.v + b.x + b.y + slots * b.ring,
            tile_major_bytes: b.y,
            transformed_kernel_bytes: b.v,
            per_thread_bytes: slots * 2 * layer.t_vol() * S * 4,
            output_bytes: b.output,
            threads,
        }
    }

    /// All components summed — what a fresh `prepare` + forward pass asks
    /// the allocator for (scratch, memoised kernels, per-thread buffers,
    /// output).
    pub fn total(&self) -> usize {
        self.scratch_bytes
            + self.transformed_kernel_bytes
            + self.per_thread_bytes
            + self.output_bytes
    }

    /// The per-inference marginal cost once a plan's scratch and kernels
    /// are resident: the output image alone. Serving uses this to price
    /// additional in-flight requests against the byte ceiling.
    pub fn marginal_bytes(&self) -> usize {
        self.output_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{split_reduction, ConvOptions, Scratch};
    use wino_tensor::ConvShape;

    fn layer(batch: usize, c: usize, cp: usize, dims: &[usize]) -> WinogradLayer {
        let shape = ConvShape::new(batch, c, cp, dims, &[3, 3], &[1, 1]).unwrap();
        WinogradLayer::new(shape, &[2, 2], ConvOptions::default()).unwrap()
    }

    #[test]
    fn scratch_component_matches_observed_allocation() {
        let fused = layer(1, 16, 16, &[8, 8]);
        let shape = ConvShape::new(1, 32, 16, &[8, 8], &[3, 3], &[1, 1]).unwrap();
        let staged = WinogradLayer::new(shape, &[2, 2], split_reduction()).unwrap();
        assert!(fused.is_fused() && !staged.is_fused());
        for l in [&fused, &staged] {
            for threads in [1usize, 4] {
                let fp = l.footprint(threads);
                let before = wino_simd::thread_alloc_bytes();
                let s = Scratch::new(l, threads);
                let observed = wino_simd::thread_alloc_bytes() - before;
                let case = format!("fused={} threads={threads}", l.is_fused());
                assert_eq!(fp.scratch_bytes + fp.per_thread_bytes, observed as usize, "{case}");
                assert_eq!(fp.tile_major_bytes, s.y.bytes(), "{case}");
                assert_eq!(fp.transformed_kernel_bytes, s.v.bytes(), "{case}");
                assert_eq!(fp.scratch_bytes, s.bytes(), "{case}");
            }
        }
        // A ring per slot is all that grows with the thread count, and
        // once the ring is as tall as the L2 allows nothing of a fused
        // plan's scratch grows with the image or the batch.
        let ring = fused.ring_floats() * 4;
        assert_eq!(fused.footprint(4).scratch_bytes - fused.footprint(1).scratch_bytes, 3 * ring);
        assert_eq!(fused.footprint(1).tile_major_bytes, 0);
        let (small, large) = (layer(1, 16, 16, &[32, 32]), layer(4, 16, 16, &[64, 64]));
        assert_eq!(small.footprint(1).scratch_bytes, large.footprint(1).scratch_bytes);
    }

    #[test]
    fn output_component_matches_observed_allocation() {
        let l = layer(2, 16, 32, &[9, 7]);
        let fp = l.footprint(1);
        let before = wino_simd::thread_alloc_bytes();
        let out = l.new_output().unwrap();
        let observed = (wino_simd::thread_alloc_bytes() - before) as usize;
        assert_eq!(fp.output_bytes, observed);
        assert_eq!(fp.output_bytes, out.as_slice().len() * 4);
    }

    #[test]
    fn total_sums_components() {
        let fp = layer(1, 16, 16, &[10, 10]).footprint(3);
        assert_eq!(
            fp.total(),
            fp.scratch_bytes + fp.transformed_kernel_bytes + fp.per_thread_bytes + fp.output_bytes
        );
        assert_eq!(fp.marginal_bytes(), fp.output_bytes);
        assert_eq!(fp.threads, 3);
    }

    /// The memory ladder moves towards *larger* tiles — opposite of the
    /// accuracy ladder. The transformed-data inflation factor is
    /// `((m+r−1)/m)^d` per dimension, which shrinks as `m` grows, and the
    /// big scratch buffers of a staged plan dominate the per-thread `T·S`
    /// buffers that grow with `m`. (A fused plan has no layer-sized
    /// scratch to shrink: its `V̂` and rings grow with `T`.)
    #[test]
    fn larger_tiles_shrink_a_staged_footprint() {
        let shape = ConvShape::new(1, 32, 16, &[16, 16], &[3, 3], &[1, 1]).unwrap();
        let m4 = WinogradLayer::new(shape.clone(), &[4, 4], split_reduction()).unwrap();
        let m2 = WinogradLayer::new(shape, &[2, 2], split_reduction()).unwrap();
        assert!(!m4.is_fused() && !m2.is_fused());
        assert!(
            m4.footprint(1).scratch_bytes < m2.footprint(1).scratch_bytes,
            "F(4,3) must need less transformed-data scratch than F(2,3)"
        );
        assert!(m4.footprint(1).total() < m2.footprint(1).total());
    }
}
