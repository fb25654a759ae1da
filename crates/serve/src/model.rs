//! The served model's specification and its measured service-time
//! model.
//!
//! Admission control needs an a-priori answer to "can this request
//! still meet its deadline from the back of the queue?". The answer is
//! priced from a *measured* per-image service time
//! ([`ServiceModel::from_measurement`]): at serving-size layers the
//! fork–join launch overhead no operation count sees dominates, so an
//! estimate from FLOPs alone admits requests that then time out in the
//! queue. Shedding a request that would *just* have made it is a policy
//! cost; admitting one that cannot make it wastes machine time twice (on
//! the doomed request and on everyone queued behind it).

use wino_conv::{ConvOptions, LayerSpec};
use wino_tensor::{ConvShape, ShapeError};

/// The network a [`crate::Server`] serves: fixed input geometry plus the
/// layer stack and planning options.
#[derive(Clone, Debug)]
pub struct ModelSpec {
    /// Input channels (must be a multiple of the SIMD width `S`).
    pub in_channels: usize,
    /// Input spatial extents (one entry per dimension).
    pub image_dims: Vec<usize>,
    /// The layer stack.
    pub layers: Vec<LayerSpec>,
    /// Planning options of every layer.
    pub opts: ConvOptions,
}

impl ModelSpec {
    /// A spec with default [`ConvOptions`].
    pub fn new(in_channels: usize, image_dims: Vec<usize>, layers: Vec<LayerSpec>) -> ModelSpec {
        ModelSpec { in_channels, image_dims, layers, opts: ConvOptions::default() }
    }

    /// Per-layer `(shape, output dims)` at the given batch size, chained
    /// through `opts`' conv geometry — with a stride each layer's input
    /// is the *subsampled* output of the previous one, not the identity
    /// extent [`ConvShape::out_dims`] reports.
    pub fn chained_shapes(
        &self,
        batch: usize,
    ) -> Result<Vec<(ConvShape, Vec<usize>)>, ShapeError> {
        let geo = self.opts.geometry(self.image_dims.len());
        let mut out = Vec::with_capacity(self.layers.len());
        let mut c = self.in_channels;
        let mut dims = self.image_dims.clone();
        for l in &self.layers {
            let s = ConvShape::new(batch, c, l.out_channels, &dims, &l.kernel, &l.padding)?;
            c = l.out_channels;
            dims = geo.out_dims(&s)?;
            out.push((s, dims.clone()));
        }
        Ok(out)
    }

    /// Per-layer convolution shapes at the given batch size.
    pub fn shapes(&self, batch: usize) -> Result<Vec<ConvShape>, ShapeError> {
        Ok(self.chained_shapes(batch)?.into_iter().map(|(s, _)| s).collect())
    }

    /// `(channels, spatial dims)` of the network's output.
    pub fn output_geometry(&self) -> Result<(usize, Vec<usize>), ShapeError> {
        let chained = self.chained_shapes(1)?;
        let (last, dims) = chained.last().expect("Server::start rejects empty layer stacks");
        Ok((last.out_channels, dims.clone()))
    }
}

/// Suggested batch ceiling from the blocking model: the smallest batch
/// whose tile grid keeps `threads` workers load-balanced (≥ 4 tile
/// work-units per thread in the *least* parallel layer — the same
/// saturation reasoning the Eq. 11 blocking model uses), capped at 16
/// so batching never trades unbounded latency for throughput.
pub fn suggested_max_batch(spec: &ModelSpec, threads: usize) -> Result<usize, ShapeError> {
    let mut min_tiles = usize::MAX;
    for ((_, out), l) in spec.chained_shapes(1)?.iter().zip(&spec.layers) {
        let tiles: usize = out
            .iter()
            .zip(&l.m)
            .map(|(&e, &m)| e.div_ceil(m.max(1)))
            .product();
        min_tiles = min_tiles.min(tiles.max(1));
    }
    let want = 4 * threads.max(1);
    Ok(want.div_ceil(min_tiles).clamp(1, 16))
}

/// Measured per-image service time, the admission-control oracle.
#[derive(Clone, Copy, Debug)]
pub struct ServiceModel {
    /// Marginal cost of one image in a batch, milliseconds.
    pub per_image_ms: f64,
    /// Fixed cost per dispatched batch (fork–join launches, plan-cache
    /// lookups), milliseconds.
    pub batch_overhead_ms: f64,
}

impl ServiceModel {
    /// A model from a measured per-image latency and per-batch overhead.
    pub fn from_measurement(per_image_ms: f64, batch_overhead_ms: f64) -> ServiceModel {
        ServiceModel { per_image_ms, batch_overhead_ms }
    }

    /// Estimated time to drain `queued` waiting images plus one new
    /// request, given batches of up to `max_batch`, milliseconds.
    pub fn drain_ms(&self, queued: usize, max_batch: usize) -> f64 {
        let images = queued + 1;
        let batches = images.div_ceil(max_batch.max(1));
        self.per_image_ms * images as f64 + self.batch_overhead_ms * batches as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_conv::LayerSpec;

    fn spec() -> ModelSpec {
        ModelSpec::new(16, vec![8, 8], vec![LayerSpec::same(32, 2, 3, 2), LayerSpec::same(16, 2, 3, 2)])
    }

    #[test]
    fn shapes_chain_channels_and_dims() {
        let s = spec().shapes(2).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].in_channels, 16);
        assert_eq!(s[0].out_channels, 32);
        assert_eq!(s[1].in_channels, 32);
        assert_eq!(s[1].out_channels, 16);
        assert_eq!(s[0].batch, 2);
        let (c, dims) = spec().output_geometry().unwrap();
        assert_eq!((c, dims), (16, vec![8, 8])); // same-padded
    }

    #[test]
    fn drain_charges_every_image_and_one_overhead_per_batch() {
        let (p, o) = (0.5, 0.25);
        let m = ServiceModel::from_measurement(p, o);
        // 7 queued + the new request = 8 images in two batches of 4.
        assert_eq!(m.drain_ms(7, 4), 8.0 * p + 2.0 * o);
        // A ninth image opens a third batch.
        assert_eq!(m.drain_ms(8, 4), 9.0 * p + 3.0 * o);
        // An empty queue is one image in one batch; a zero batch cap
        // still dispatches one image per batch.
        assert_eq!(m.drain_ms(0, 4), p + o);
        assert_eq!(m.drain_ms(2, 0), 3.0 * (p + o));
        for q in 0..32 {
            assert!(m.drain_ms(q + 1, 4) > m.drain_ms(q, 4), "monotone at depth {q}");
        }
    }

    #[test]
    fn strided_spec_chains_subsampled_dims() {
        let mut sp = spec();
        sp.opts = sp.opts.with_stride(&[2, 2]);
        // 8×8 → 4×4 → 2×2: each layer's input is the previous layer's
        // *subsampled* output.
        let chained = sp.chained_shapes(1).unwrap();
        assert_eq!(chained[0].1, vec![4, 4]);
        assert_eq!(chained[1].0.image_dims, vec![4, 4]);
        assert_eq!(chained[1].1, vec![2, 2]);
        assert_eq!(sp.output_geometry().unwrap(), (16, vec![2, 2]));
        // Fewer tiles per layer → larger batches needed to saturate.
        assert!(
            suggested_max_batch(&sp, 16).unwrap() > suggested_max_batch(&spec(), 16).unwrap()
        );
    }

    #[test]
    fn suggested_batch_scales_with_threads_and_is_capped() {
        let sp = spec();
        // 8×8 same-pad, m=2 → 16 tiles per layer; 1 thread needs 4 units.
        assert_eq!(suggested_max_batch(&sp, 1).unwrap(), 1);
        // 64 threads want 256 units → ceil(256/16) = 16 (at the cap).
        assert_eq!(suggested_max_batch(&sp, 64).unwrap(), 16);
        assert!(suggested_max_batch(&sp, 1024).unwrap() <= 16);
    }
}
