//! Analytic memory accounting for planned layers.
//!
//! A [`MemoryFootprint`] states, without allocating anything, exactly how
//! many bytes a plan will ask the allocator for: the transformed-data
//! scratch ([`Scratch`](crate::Scratch) — four layer-sized buffers for a
//! staged plan, the kernel transforms plus one ring per thread slot for a
//! ring plan, the input transforms plus one ring per thread slot for a
//! dual plan), the per-thread codelet buffers, the memoised
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

use crate::fused::Schedule;
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
    /// form `Y`: layer-sized in a staged plan's scratch; a ring plan's ring
    /// takes the place of all three, a dual plan's of `X̂` and `Y` — a
    /// ring never leaves the core.
    pub u: usize,
    pub x: usize,
    pub y: usize,
    /// Transformed kernels `V̂` in the scratch: 0 for a dual plan, whose
    /// ring holds one block of them at a time.
    pub v: usize,
    /// Transformed kernels `V̂` as `prepare_kernels` memoises them.
    pub memo: usize,
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
        let staged = layer.schedule == Schedule::Staged;
        let held = |held: bool, bytes: usize| if held { bytes } else { 0 };
        let memo = BlockedMatrices::bytes_for(t, c, cp, blk.c_blk, blk.cp_blk);
        BufferBytes {
            input: BlockedImage::bytes_for(batch, c, &shape.image_dims),
            kernels: c * cp * shape.kernel_dims.iter().product::<usize>() * 4,
            u: held(!layer.is_fused(), BlockedMatrices::bytes_for(t, rows, c, blk.n_blk, blk.c_blk)),
            x: held(staged, BlockedMatrices::bytes_for(t, rows, cp, blk.n_blk, blk.cp_blk)),
            y: held(staged, TileMajor::bytes_for(batch, cp, layer.n_tiles(), t)),
            v: held(!layer.is_dual(), memo),
            memo,
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
    /// ([`BlockedMatrices`]) and `y` ([`TileMajor`]). A ring plan
    /// ([`WinogradLayer::is_fused`]): `v` and one ring per thread slot —
    /// `T·n_blk·(C + C')` floats each, independent of the layer's extent.
    /// A dual plan ([`WinogradLayer::is_dual`]): `u` and one ring per
    /// thread slot — a block of `V̂`, an accumulator and a column group's
    /// chunks, `T·cols·(C_blk + 2·rows)` floats each (rows padded for the
    /// accumulator).
    pub scratch_bytes: usize,
    /// The tile-major transformed-output buffer `y` alone (also counted
    /// in `scratch_bytes`; broken out because serving sizes it per batch).
    /// 0 for a fused plan.
    pub tile_major_bytes: usize,
    /// The memoised kernel-transform clone (`TransformedKernels`) — the
    /// shape of a staged plan's scratch `v`.
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
            transformed_kernel_bytes: b.memo,
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
    use crate::plan::{split_reduction, ConvOptions, Host, Pin, Scratch};
    use wino_tensor::ConvShape;

    fn layer(batch: usize, c: usize, cp: usize, dims: &[usize]) -> WinogradLayer {
        let shape = ConvShape::new(batch, c, cp, dims, &[3, 3], &[1, 1]).unwrap();
        WinogradLayer::new(shape, &[2, 2], ConvOptions::default()).unwrap()
    }

    #[test]
    fn scratch_component_matches_observed_allocation() {
        let fused = layer(1, 16, 16, &[8, 8]);
        let shape = ConvShape::new(1, 32, 16, &[8, 8], &[3, 3], &[1, 1]).unwrap();
        let pinned = |pin| {
            let host = Host::test(pin, false);
            WinogradLayer::new_on(shape.clone(), &[2, 2], split_reduction(), host).unwrap()
        };
        let (staged, dual) = (pinned(Pin::Staged), pinned(Pin::Dual));
        assert!(fused.is_fused() && dual.is_dual() && !staged.is_fused() && !staged.is_dual());
        for l in [&fused, &staged, &dual] {
            for threads in [1usize, 4] {
                let fp = l.footprint(threads);
                let before = wino_simd::thread_alloc_bytes();
                let mut s = Scratch::new(l, threads);
                let observed = wino_simd::thread_alloc_bytes() - before;
                let case = format!("{:?} threads={threads}", l.schedule);
                assert_eq!(fp.scratch_bytes + fp.per_thread_bytes, observed as usize, "{case}");
                assert_eq!(fp.tile_major_bytes, s.y.bytes(), "{case}");
                assert_eq!(fp.scratch_bytes, s.bytes(), "{case}");
                // The memo has the shape of a staged scratch's `v`, which a
                // dual scratch grows only for a kernel transform.
                assert_eq!(s.v.bytes() == 0, l.is_dual(), "{case}");
                s.materialise_v().unwrap();
                assert_eq!(fp.transformed_kernel_bytes, s.v.bytes(), "{case}");
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
        // A dual plan's scratch is `Û` and its rings: no `V̂`, `X̂` or `Y`.
        let b = BufferBytes::of(&dual);
        assert_eq!((b.v, b.x, b.y), (0, 0, 0));
        assert_eq!(dual.footprint(2).scratch_bytes, b.u + 2 * dual.ring_floats() * 4);
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
        let host = Host::test(Pin::Staged, false);
        let m4 = WinogradLayer::new_on(shape.clone(), &[4, 4], split_reduction(), host).unwrap();
        let m2 = WinogradLayer::new_on(shape, &[2, 2], split_reduction(), host).unwrap();
        assert!(!m4.is_fused() && !m2.is_fused() && !m4.is_dual() && !m2.is_dual());
        assert!(
            m4.footprint(1).scratch_bytes < m2.footprint(1).scratch_bytes,
            "F(4,3) must need less transformed-data scratch than F(2,3)"
        );
        assert!(m4.footprint(1).total() < m2.footprint(1).total());
    }
}
