//! Output verification against `wino_baseline::direct_f64`.

use wino_baseline::direct_f64;
use wino_rng::Rng;
use wino_tensor::{BlockedImage, SimpleImage, SimpleKernels};

use crate::workloads::{Inputs, Verify, Workload};

/// Element errors accumulated over one or more comparisons. Both ratios
/// are normalised by `max(‖truth‖∞, 1)`, as `wino_bench::max_rel_error`
/// and the accuracy sentinels are.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Check {
    max_abs: f64,
    sum_sq: f64,
    count: u64,
    truth_inf: f64,
    /// No NaN or infinity in any `got`.
    pub finite: bool,
}

/// Nothing compared yet.
impl Default for Check {
    fn default() -> Self {
        Check {
            max_abs: 0.0,
            sum_sq: 0.0,
            count: 0,
            truth_inf: 0.0,
            finite: true,
        }
    }
}

impl Check {
    /// `max |got − truth| ÷ max(‖truth‖∞, 1)`: what the hard ceiling is held to.
    pub fn max_rel_err(&self) -> f64 {
        self.max_abs / self.truth_inf.max(1.0)
    }

    /// `rms(got − truth) ÷ max(‖truth‖∞, 1)`: the error level, which unlike
    /// the maximum does not jump with the seed.
    pub fn rms_rel_err(&self) -> f64 {
        (self.sum_sq / self.count.max(1) as f64).sqrt() / self.truth_inf.max(1.0)
    }

    pub fn passes(&self, ceiling: f64) -> bool {
        self.finite && self.max_rel_err() <= ceiling
    }

    pub fn merge(self, other: Check) -> Check {
        Check {
            max_abs: self.max_abs.max(other.max_abs),
            sum_sq: self.sum_sq + other.sum_sq,
            count: self.count + other.count,
            truth_inf: self.truth_inf.max(other.truth_inf),
            finite: self.finite && other.finite,
        }
    }
}

pub fn compare(got: &[f32], truth: &[f32]) -> Check {
    assert_eq!(got.len(), truth.len());
    let mut c = Check::default();
    for (&g, &t) in got.iter().zip(truth) {
        c.truth_inf = c.truth_inf.max((t as f64).abs());
        if g.is_finite() {
            let e = (g as f64 - t as f64).abs();
            c.max_abs = c.max_abs.max(e);
            c.sum_sq += e * e;
            c.count += 1;
        } else {
            c.finite = false;
        }
    }
    c
}

/// f64-accumulated truth of the layer chain on `img`, ReLU between and
/// after the layers when `relu`.
pub fn truth_chain(
    img: &SimpleImage,
    kernels: &[SimpleKernels],
    pads: &[usize],
    relu: bool,
) -> SimpleImage {
    let mut cur = img.clone();
    for (ker, &pad) in kernels.iter().zip(pads) {
        cur = direct_f64(&cur, ker, &vec![pad; img.dims.len()]);
        if relu {
            for v in &mut cur.data {
                *v = v.max(0.0);
            }
        }
    }
    cur
}

/// `count` distinct indices below `total`, ascending, drawn from `seed`.
pub fn pick_channels(seed: u64, total: usize, count: usize) -> Vec<usize> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut all: Vec<usize> = (0..total).collect();
    for i in 0..count.min(total) {
        let j = i + rng.below(total - i);
        all.swap(i, j);
    }
    all.truncate(count.min(total));
    all.sort_unstable();
    all
}

/// The kernel bank restricted to the given output channels.
fn kernel_rows(ker: &SimpleKernels, channels: &[usize]) -> SimpleKernels {
    let mut sub = SimpleKernels::zeros(channels.len(), ker.in_channels, &ker.dims);
    let row = ker.in_channels * ker.spatial_volume();
    for (i, &co) in channels.iter().enumerate() {
        sub.data[i * row..(i + 1) * row].copy_from_slice(&ker.data[co * row..(co + 1) * row]);
    }
    sub
}

/// The given channels of image `b`, cut to the box `origin .. origin + extent`.
pub fn window(
    img: &SimpleImage,
    b: usize,
    channels: &[usize],
    origin: &[usize],
    extent: &[usize],
) -> SimpleImage {
    let mut at = vec![0; origin.len()];
    SimpleImage::from_fn(1, channels.len(), extent, |_, c, xy| {
        for (a, (o, x)) in at.iter_mut().zip(origin.iter().zip(xy)) {
            *a = o + x;
        }
        img.get(b, channels[c], &at)
    })
}

/// The verified part of a workload's output and its precomputed truth.
pub struct Oracle {
    /// `None` when every output is verified.
    part: Option<Part>,
    /// One per input image: the part's truth in row-major order, or the
    /// whole truth in the blocked layout of the outputs, so that a served
    /// response is compared without a layout conversion.
    truths: Vec<Vec<f32>>,
}

struct Part {
    channels: Vec<usize>,
    origin: Vec<usize>,
    extent: Vec<usize>,
}

impl Oracle {
    /// Runs the f64 oracle on every input image (0.2 s to 4 s, see [`Verify`]).
    pub fn new(w: &Workload, inputs: &Inputs, seed: u64) -> crate::Res<Oracle> {
        let shapes = w.shapes(1)?;
        let last = &shapes[shapes.len() - 1];
        let out_dims = last.out_dims();
        let pads: Vec<usize> = w.layers.iter().map(|l| l.pad).collect();
        let chain = |img: &SimpleImage, kernels: &[SimpleKernels]| {
            truth_chain(img, kernels, &pads, w.relu())
        };
        let (part, truths) = match w.verify {
            Verify::OutChannels(n) => {
                assert_eq!(
                    inputs.kernels.len(),
                    1,
                    "a channel subset verifies a single layer"
                );
                let channels = pick_channels(seed, last.out_channels, n);
                let sub = [kernel_rows(&inputs.kernels[0], &channels)];
                let truths = inputs
                    .images
                    .iter()
                    .map(|img| chain(img, &sub).data)
                    .collect();
                (
                    Some(Part {
                        channels,
                        origin: vec![0; w.rank()],
                        extent: out_dims,
                    }),
                    truths,
                )
            }
            Verify::FarCorner(extent) => {
                assert!(
                    pads.iter().all(|&p| p == 0),
                    "a corner box is exact for unpadded layers"
                );
                let extent: Vec<usize> = extent
                    .iter()
                    .zip(&out_dims)
                    .map(|(&e, &o)| e.min(o))
                    .collect();
                let origin: Vec<usize> = out_dims.iter().zip(&extent).map(|(o, e)| o - e).collect();
                // Each unpadded 3-wide layer widens the receptive field by 2.
                let field: Vec<usize> = extent.iter().map(|e| e + 2 * pads.len()).collect();
                let inputs_all: Vec<usize> = (0..w.in_channels).collect();
                let truths = inputs
                    .images
                    .iter()
                    .map(|img| {
                        chain(
                            &window(img, 0, &inputs_all, &origin, &field),
                            &inputs.kernels,
                        )
                        .data
                    })
                    .collect();
                let channels = (0..last.out_channels).collect();
                (
                    Some(Part {
                        channels,
                        origin,
                        extent,
                    }),
                    truths,
                )
            }
            Verify::Full => {
                let mut truths = Vec::new();
                for img in &inputs.images {
                    let blocked = BlockedImage::from_simple(&chain(img, &inputs.kernels))?;
                    truths.push(blocked.as_slice().to_vec());
                }
                (None, truths)
            }
        };
        Ok(Oracle { part, truths })
    }

    /// Compare image `b` of `got` with the truth of input image `image`.
    pub fn check(&self, got: &BlockedImage, b: usize, image: usize) -> Check {
        let truth = &self.truths[image];
        match &self.part {
            Some(p) => {
                let part = window(&got.to_simple(), b, &p.channels, &p.origin, &p.extent);
                compare(&part.data, truth)
            }
            // The blocked layout is batch-outermost: image `b` is one chunk.
            None => compare(
                &got.as_slice()[b * truth.len()..(b + 1) * truth.len()],
                truth,
            ),
        }
    }
}
