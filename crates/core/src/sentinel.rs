//! Runtime accuracy sentinels: sampled output-tile re-verification.
//!
//! The NaN/Inf guard ([`crate::error::check_finite`]) catches only
//! *non-finite* corruption; a flipped mantissa bit, a run of denormals or
//! a biased accumulator produces perfectly finite wrong answers. The
//! sentinels close that gap with an end-to-end spot check: after each
//! layer's forward, a seeded random sample of output tiles is recomputed
//! through the f64 direct convolution on the same receptive field and
//! compared against the layer's **a-priori error bound**
//! ([`crate::WinogradLayer::predicted_bound`], derived from the exact
//! transform conditioning in `wino-transforms`). A tile whose relative
//! error exceeds the bound *cannot* be ordinary f32 rounding — the bound
//! is a worst case — so a trip is hard evidence of corruption and feeds
//! the degradation ladder in [`crate::Network`]: demote the tile size,
//! and if the re-run still trips, rescue through im2col — whenever
//! sampling is on, under either [`crate::FallbackPolicy`] preset.
//!
//! Sampling is deterministic: the unit set is drawn by a seeded
//! Fisher–Yates prefix (`wino-rng`), so the same seed checks the same
//! tiles whatever schedule or executor produced the output. With
//! `samples == 0` the sentinel is provably free — no RNG is built, no
//! oracle runs, no counter moves.

use wino_rng::Rng;
use wino_tensor::{BlockedImage, BlockedKernels};

use crate::plan::WinogradLayer;

/// Sentinel sampling policy (part of [`crate::FallbackPolicy`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SentinelConfig {
    /// Output tiles to re-verify per layer forward (0 disables the
    /// sentinel entirely — provably zero overhead).
    pub samples: u32,
    /// Base seed for the tile sample; combined with the layer index so
    /// different layers check different tiles while staying reproducible.
    pub seed: u64,
}

impl SentinelConfig {
    /// Disabled: sample nothing.
    pub fn off() -> SentinelConfig {
        SentinelConfig { samples: 0, seed: 0 }
    }

    /// Check `samples` tiles per layer under the given seed.
    pub fn sampled(samples: u32, seed: u64) -> SentinelConfig {
        SentinelConfig { samples, seed }
    }
}

impl Default for SentinelConfig {
    /// Disabled by default: the spot check costs an f64 direct
    /// convolution per sampled tile, which callers opt into.
    fn default() -> Self {
        SentinelConfig::off()
    }
}

/// Evidence from a tripped sentinel: which unit failed and by how much.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SentinelError {
    /// Flat sampled unit index (`b * total_tiles + tile`).
    pub unit: usize,
    /// Measured relative error of the sampled tile.
    pub rel_err: f64,
    /// The a-priori bound it exceeded.
    pub bound: f64,
}

impl std::fmt::Display for SentinelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sentinel trip at unit {}: rel err {:.3e} > bound {:.3e}",
            self.unit, self.rel_err, self.bound
        )
    }
}

impl std::error::Error for SentinelError {}

/// The deterministic sample: `cfg.samples` distinct units out of
/// `batch × total_tiles`, drawn by a Fisher–Yates prefix seeded from
/// `(cfg.seed, layer_index)`. Exposed so tests can assert the set is
/// identical across schedules and executors.
pub fn sample_units(layer: &WinogradLayer, cfg: &SentinelConfig, layer_index: usize) -> Vec<usize> {
    let n = layer.shape.batch * layer.grid.total_tiles();
    let want = (cfg.samples as usize).min(n);
    if want == 0 {
        return Vec::new();
    }
    let mut rng = Rng::seed_from_u64(
        cfg.seed ^ (layer_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let mut units: Vec<usize> = (0..n).collect();
    for i in 0..want {
        let j = rng.range_usize(i, n - 1);
        units.swap(i, j);
    }
    units.truncate(want);
    units
}

/// Re-verify the sampled output tiles of one layer forward against the
/// f64 direct oracle. `Ok(checked)` is the number of tiles verified;
/// `Err` carries the first trip. Trips compare against
/// [`WinogradLayer::predicted_bound`], so a finite-but-wrong output is
/// distinguishable from legitimate f32 rounding.
pub fn verify_sample(
    layer: &WinogradLayer,
    input: &BlockedImage,
    kernels: &BlockedKernels,
    output: &BlockedImage,
    cfg: &SentinelConfig,
    layer_index: usize,
) -> Result<usize, SentinelError> {
    let units = sample_units(layer, cfg, layer_index);
    if units.is_empty() {
        return Ok(0);
    }
    let bound = layer.predicted_bound();
    let total_tiles = layer.grid.total_tiles();
    for &unit in &units {
        let (b, tile) = (unit / total_tiles, unit % total_tiles);
        let rel_err = tile_rel_err(layer, input, kernels, output, b, tile);
        if rel_err > bound {
            return Err(SentinelError { unit, rel_err, bound });
        }
    }
    Ok(units.len())
}

/// Relative ∞-norm error of one output tile against the f64 oracle on
/// its receptive field: `max|got − truth| / max(‖truth‖∞, 1)`.
fn tile_rel_err(
    layer: &WinogradLayer,
    input: &BlockedImage,
    kernels: &BlockedKernels,
    output: &BlockedImage,
    b: usize,
    tile: usize,
) -> f64 {
    let grid = &layer.grid;
    let shape = &layer.shape;
    let rank = shape.rank();
    let tc = grid.tile_coords(tile);
    let origin = grid.output_origin(&tc);
    let extent = grid.output_extent(&tc);
    let tile_vol: usize = extent.iter().product();
    let ker_vol: usize = shape.kernel_dims.iter().product();

    let mut max_abs = 0.0f64;
    let mut max_truth = 0.0f64;
    for co in 0..shape.out_channels {
        for e in 0..tile_vol {
            let ec = wino_tensor::unflatten(e, &extent);
            let oc: Vec<usize> = (0..rank).map(|d| origin[d] + ec[d]).collect();
            // f64 direct cross-correlation on the receptive field.
            let mut truth = 0.0f64;
            for ci in 0..shape.in_channels {
                for k in 0..ker_vol {
                    let kc = wino_tensor::unflatten(k, &shape.kernel_dims);
                    let mut inside = true;
                    let mut ic = [0usize; crate::plan::MAX_RANK];
                    for d in 0..rank {
                        let x = (oc[d] + kc[d]) as isize - shape.padding[d] as isize;
                        if x < 0 || x >= shape.image_dims[d] as isize {
                            inside = false;
                            break;
                        }
                        ic[d] = x as usize;
                    }
                    if inside {
                        truth += input.get(b, ci, &ic[..rank]) as f64
                            * kernels.get(co, ci, &kc) as f64;
                    }
                }
            }
            let got = output.get(b, co, &oc) as f64;
            max_abs = max_abs.max((got - truth).abs());
            max_truth = max_truth.max(truth.abs());
        }
    }
    max_abs / max_truth.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ConvOptions, Scratch};
    use wino_sched::SerialExecutor;
    use wino_tensor::{ConvShape, SimpleImage, SimpleKernels};

    fn setup(m: &[usize]) -> (WinogradLayer, BlockedImage, BlockedKernels, BlockedImage) {
        let shape = ConvShape::new(2, 16, 16, &[12, 12], &[3, 3], &[1, 1]).unwrap();
        let layer = WinogradLayer::new(shape, m, ConvOptions::default()).unwrap();
        let img = SimpleImage::from_fn(2, 16, &[12, 12], |b, c, xy| {
            ((b * 5 + c * 3 + xy[0] * 7 + xy[1]) % 17) as f32 * 0.05 - 0.4
        });
        let ker = SimpleKernels::from_fn(16, 16, &[3, 3], |co, ci, xy| {
            ((co + ci * 2 + xy[0] + xy[1] * 3) % 11) as f32 * 0.06 - 0.3
        });
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = BlockedKernels::from_simple(&ker).unwrap();
        let mut out = layer.new_output().unwrap();
        let mut scratch = Scratch::new(&layer, 1);
        layer.forward(&input, &kernels, &mut out, &mut scratch, &SerialExecutor).unwrap();
        (layer, input, kernels, out)
    }

    #[test]
    fn clean_forward_passes_the_sentinel() {
        let (layer, input, kernels, out) = setup(&[4, 4]);
        let cfg = SentinelConfig::sampled(8, 42);
        let checked = verify_sample(&layer, &input, &kernels, &out, &cfg, 0).unwrap();
        assert_eq!(checked, 8);
    }

    #[test]
    fn corrupted_output_trips_the_sentinel() {
        let (layer, input, kernels, mut out) = setup(&[4, 4]);
        // Finite corruption the NaN guard cannot see.
        for v in out.as_mut_slice().iter_mut() {
            *v += 64.0;
        }
        // Sampling every tile guarantees the corrupted region is seen.
        let n = (layer.shape.batch * layer.grid.total_tiles()) as u32;
        let cfg = SentinelConfig::sampled(n, 42);
        let e = verify_sample(&layer, &input, &kernels, &out, &cfg, 0).unwrap_err();
        assert!(e.rel_err > e.bound);
    }

    #[test]
    fn sample_is_seed_deterministic_and_distinct() {
        let (layer, ..) = setup(&[4, 4]);
        let cfg = SentinelConfig::sampled(6, 7);
        let a = sample_units(&layer, &cfg, 3);
        let b = sample_units(&layer, &cfg, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 6, "sampled units must be distinct");
        // Different layers draw different sets (overwhelmingly likely).
        assert_ne!(sample_units(&layer, &cfg, 4), a);
    }

    #[test]
    fn zero_samples_do_no_work() {
        let (layer, input, kernels, out) = setup(&[2, 2]);
        let cfg = SentinelConfig::off();
        assert!(sample_units(&layer, &cfg, 0).is_empty());
        assert_eq!(verify_sample(&layer, &input, &kernels, &out, &cfg, 0), Ok(0));
    }

    #[test]
    fn oversampling_clamps_to_the_unit_count() {
        let (layer, input, kernels, out) = setup(&[6, 6]);
        let n = layer.shape.batch * layer.grid.total_tiles();
        let cfg = SentinelConfig::sampled(u32::MAX, 1);
        assert_eq!(sample_units(&layer, &cfg, 0).len(), n);
        let checked = verify_sample(&layer, &input, &kernels, &out, &cfg, 0).unwrap();
        assert_eq!(checked, n);
    }
}
