//! The served model's specification and its calibrated service-time
//! model.
//!
//! Admission control needs an a-priori answer to "can this request
//! still meet its deadline from the back of the queue?". The estimate
//! reuses the repo's roofline machinery: a calibrated
//! [`MachineModel`] (attainable GFLOP/s and memory bandwidth, e.g. from
//! `wino_bench::perf::calibrate`) plus the network's direct-convolution
//! FLOP count gives a per-image service time the same way the perf
//! reports bound attainable throughput. The estimate is deliberately
//! conservative — shedding a request that would *just* have made it is a
//! policy cost; admitting one that cannot make it wastes machine time
//! twice (on the doomed request and on everyone queued behind it).

use wino_conv::{ConvOptions, LayerSpec};
use wino_probe::MachineModel;
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

    /// Direct-convolution FLOPs for one batch of `batch` images — the
    /// roofline work estimate (an upper bound on Winograd's arithmetic,
    /// which is the conservative direction for admission control).
    /// Geometry-aware: a stride-2 layer does a quarter of the stride-1
    /// work, and grouping divides the channel product by `G`.
    pub fn direct_flops(&self, batch: usize) -> Result<u128, ShapeError> {
        let geo = self.opts.geometry(self.image_dims.len());
        let mut total = 0u128;
        for (s, _) in self.chained_shapes(batch)? {
            total += 2 * geo.direct_macs(&s)?;
        }
        Ok(total)
    }
}

/// Suggested batch ceiling from the blocking model: the smallest batch
/// whose tile grid keeps `threads` workers load-balanced (≥ 4 tile
/// work-units per thread in the *least* parallel layer — the same
/// saturation reasoning the tuner's Eq. 11 blocking uses), capped at 16
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

/// Calibrated per-image service time, the admission-control oracle.
#[derive(Clone, Copy, Debug)]
pub struct ServiceModel {
    /// Marginal cost of one image in a batch, milliseconds.
    pub per_image_ms: f64,
    /// Fixed cost per dispatched batch (fork–join launches, plan-cache
    /// lookups), milliseconds.
    pub batch_overhead_ms: f64,
}

impl ServiceModel {
    /// Derive the model from a calibrated machine roofline. `efficiency`
    /// (in `(0, 1]`) discounts the attainable peak to what the pipeline
    /// realistically sustains; 0.5 is a sensible default for admission
    /// purposes.
    pub fn from_roofline(
        machine: &MachineModel,
        spec: &ModelSpec,
        efficiency: f64,
    ) -> Result<ServiceModel, ShapeError> {
        let eff = if efficiency > 0.0 && efficiency <= 1.0 { efficiency } else { 0.5 };
        let flops = spec.direct_flops(1)? as f64;
        let compute_s = flops / (machine.peak_gflops.max(1e-3) * 1e9 * eff);
        // Memory floor: every layer streams its input and output at
        // least once.
        let mut bytes = 0u128;
        for (s, out) in spec.chained_shapes(1)? {
            let in_vol: usize = s.image_dims.iter().product();
            let out_vol: usize = out.iter().product();
            bytes += 4 * (s.in_channels * in_vol + s.out_channels * out_vol) as u128;
        }
        let mem_s = bytes as f64 / (machine.mem_bw_gbps.max(1e-3) * 1e9);
        let per_image_ms = compute_s.max(mem_s) * 1e3;
        // Fork–join launch + barrier cost, per layer per batch — a
        // coarse constant; the admission estimate only needs the right
        // order of magnitude.
        let batch_overhead_ms = 0.05 * spec.layers.len() as f64;
        Ok(ServiceModel { per_image_ms, batch_overhead_ms })
    }

    /// A model from a measured per-image latency (no roofline needed).
    pub fn from_measurement(per_image_ms: f64, batch_overhead_ms: f64) -> ServiceModel {
        ServiceModel { per_image_ms, batch_overhead_ms }
    }

    /// Estimated service time of one `n`-image batch, milliseconds.
    pub fn batch_ms(&self, n: usize) -> f64 {
        self.batch_overhead_ms + self.per_image_ms * n as f64
    }

    /// Estimated time to drain `queued` waiting images plus one new
    /// request, given batches of up to `max_batch`, milliseconds.
    pub fn drain_ms(&self, queued: usize, max_batch: usize) -> f64 {
        let images = queued + 1;
        let batches = images.div_ceil(max_batch.max(1));
        self.per_image_ms * images as f64 + self.batch_overhead_ms * batches as f64
    }

    /// Throughput ceiling at a given batch size, requests per second —
    /// the "sustainable load" reference for the load generator.
    pub fn sustainable_rps(&self, batch: usize) -> f64 {
        let b = batch.max(1);
        b as f64 / (self.batch_ms(b) / 1e3)
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
    fn roofline_model_is_positive_and_monotonic() {
        let machine = MachineModel { peak_gflops: 100.0, mem_bw_gbps: 50.0, threads: 4 };
        let m = ServiceModel::from_roofline(&machine, &spec(), 0.5).unwrap();
        assert!(m.per_image_ms > 0.0);
        assert!(m.batch_ms(4) > m.batch_ms(1));
        assert!(m.drain_ms(8, 4) > m.drain_ms(0, 4));
        assert!(m.sustainable_rps(4) > 0.0);
        // Slower machine → slower model.
        let slow = MachineModel { peak_gflops: 1.0, mem_bw_gbps: 1.0, threads: 1 };
        let ms = ServiceModel::from_roofline(&slow, &spec(), 0.5).unwrap();
        assert!(ms.per_image_ms > m.per_image_ms);
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
        // Stride-2 work is far below the stride-1 estimate; admission
        // control must not over-charge strided models 4× per layer.
        let dense = spec().direct_flops(1).unwrap();
        let strided = sp.direct_flops(1).unwrap();
        assert!(strided < dense / 3, "strided {strided} vs dense {dense}");
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
