//! The six workloads. Every shape is fixed here; `--seed` changes only
//! tensor values and the Poisson gaps of the serve workloads.

use wino_conv::{Activation, ConvOptions, LayerSpec, Stage2Backend};
use wino_rng::splitmix64;
use wino_tensor::{ConvShape, SimpleImage, SimpleKernels};
use wino_workloads::generate::{uniform_input, xavier_kernels};

use crate::Res;

/// One 3^rank convolution layer.
pub struct LayerDef {
    pub out_channels: usize,
    pub pad: usize,
    /// Winograd output tile, the same in every dimension.
    pub m: usize,
}

/// Which public entry point is "one op".
pub enum Kind {
    /// `WinogradLayer::forward_fx`, kernels memoised during set-up.
    LayerFx,
    /// `WinogradLayer::forward`, kernels transformed in every call.
    LayerTrain,
    /// `Network::forward_fx`.
    NetFx,
    /// One request through `Server`, offered open-loop at `rate` per
    /// second. `trace_batch` is the batch size (the workload's typical
    /// one) at which the traced run takes the stage split.
    Serve { rate: f64, trace_batch: usize },
}

/// Which outputs are compared with the f64 oracle. The oracle costs about
/// 10 ns per multiply-add, so only the serve model is small enough to
/// check whole.
pub enum Verify {
    /// All positions of this many seeded output channels (single layers).
    OutChannels(usize),
    /// All channels of a box of this extent at the far corner of the
    /// output, where the ragged edge tiles are. Exact for unpadded layers
    /// only: the box's receptive field is a box of the input.
    FarCorner(&'static [usize]),
    /// Every output.
    Full,
}

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub kind: Kind,
    pub in_channels: usize,
    pub image_dims: &'static [usize],
    pub layers: &'static [LayerDef],
    /// Ask for the JIT stage-2 backend (the planner falls back to Mono on
    /// a host without AVX-512F).
    pub jit: bool,
    pub verify: Verify,
    /// Hard ceiling on `max_rel_err`, about ten times the value measured
    /// when the benchmark was defined.
    pub err_ceiling: f64,
}

/// Images in a serve workload's seeded input pool.
pub const SERVE_POOL: usize = 8;
/// Deadline of a served request, from its due time.
pub const SERVE_DEADLINE_MS: u64 = 100;

const SERVE_LAYERS: [LayerDef; 3] = [
    LayerDef {
        out_channels: 64,
        pad: 1,
        m: 4,
    },
    LayerDef {
        out_channels: 64,
        pad: 1,
        m: 4,
    },
    LayerDef {
        out_channels: 32,
        pad: 1,
        m: 4,
    },
];

const fn serve(name: &'static str, why: &'static str, rate: f64, trace_batch: usize) -> Workload {
    Workload {
        name,
        why,
        kind: Kind::Serve { rate, trace_batch },
        in_channels: 32,
        image_dims: &[28, 28],
        layers: &SERVE_LAYERS,
        jit: true,
        verify: Verify::Full,
        err_ceiling: 1e-4,
    }
}

pub const ALL: [Workload; 6] = [
    Workload {
        name: "gemm2d_mono",
        why: "default-options 2-D layer where the Mono element-wise GEMM is most of the op: a wino-gemm or ISA-dispatch gain shows here, a transform-only change must not",
        kind: Kind::LayerFx,
        in_channels: 128,
        image_dims: &[56, 56],
        layers: &[LayerDef { out_channels: 128, pad: 1, m: 4 }],
        jit: false,
        verify: Verify::OutChannels(8),
        err_ceiling: 5e-5,
    },
    Workload {
        name: "xform2d_jit",
        why: "F(6x6) layer with ragged edge tiles and the JIT GEMM, so the input and output transforms are most of the op: codelet and fusion work shows here, a GEMM-only change barely does",
        kind: Kind::LayerFx,
        in_channels: 64,
        image_dims: &[160, 160],
        layers: &[LayerDef { out_channels: 64, pad: 0, m: 6 }],
        jit: true,
        verify: Verify::OutChannels(8),
        err_ceiling: 1e-4,
    },
    Workload {
        name: "train3d_jit",
        why: "rank-3 training-mode layer (C3D C4b regime) whose kernel transform runs inside every op: catches an FX speed-up bought by a costlier transform_kernels or V layout",
        kind: Kind::LayerTrain,
        in_channels: 128,
        image_dims: &[4, 14, 14],
        layers: &[LayerDef { out_channels: 128, pad: 1, m: 4 }],
        jit: true,
        verify: Verify::OutChannels(8),
        err_ceiling: 2e-4,
    },
    Workload {
        name: "net3d_fx",
        why: "whole-Network FX inference (3-D U-Net encoder, three unpadded layers): adds per-layer output allocation, ReLU and scratch to the stage work, and guards the net.rs rewrite",
        kind: Kind::NetFx,
        in_channels: 32,
        image_dims: &[16, 24, 24],
        layers: &[
            LayerDef { out_channels: 32, pad: 0, m: 4 },
            LayerDef { out_channels: 64, pad: 0, m: 4 },
            LayerDef { out_channels: 64, pad: 0, m: 4 },
        ],
        jit: true,
        verify: Verify::FarCorner(&[4, 8, 8]),
        err_ceiling: 2e-4,
    },
    serve(
        "serve_steady",
        "request-in to response-out at about a quarter of capacity (open-loop Poisson, 100 req/s): latency is batch age plus one run_net, goodput is pinned at the offered rate",
        100.0,
        1,
    ),
    serve(
        "serve_surge",
        "the same server past capacity (open-loop Poisson, 800 req/s): batches fill, admission sheds, goodput equals capacity; a conv or batching gain raises goodput and success_share",
        800.0,
        8,
    ),
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Seeded tensors of one run, in the interchange layout the oracle reads.
pub struct Inputs {
    /// One image, or [`SERVE_POOL`] for a serve workload; batch 1 each.
    pub images: Vec<SimpleImage>,
    /// One kernel bank per layer.
    pub kernels: Vec<SimpleKernels>,
}

impl Workload {
    pub fn rank(&self) -> usize {
        self.image_dims.len()
    }

    pub fn is_serve(&self) -> bool {
        matches!(self.kind, Kind::Serve { .. })
    }

    pub fn opts(&self) -> ConvOptions {
        if self.jit {
            ConvOptions {
                stage2: Stage2Backend::Jit,
                ..Default::default()
            }
        } else {
            ConvOptions::default()
        }
    }

    /// Networks apply ReLU after every layer; a lone layer has none.
    pub fn relu(&self) -> bool {
        self.layers.len() > 1
    }

    pub fn layer_specs(&self) -> Vec<LayerSpec> {
        let rank = self.rank();
        self.layers
            .iter()
            .map(|l| LayerSpec {
                out_channels: l.out_channels,
                kernel: vec![3; rank],
                padding: vec![l.pad; rank],
                m: vec![l.m; rank],
                activation: if self.relu() {
                    Activation::Relu
                } else {
                    Activation::None
                },
            })
            .collect()
    }

    /// The chained layer shapes at `batch`.
    pub fn shapes(&self, batch: usize) -> Res<Vec<ConvShape>> {
        let rank = self.rank();
        let mut shapes = Vec::with_capacity(self.layers.len());
        let (mut c, mut dims) = (self.in_channels, self.image_dims.to_vec());
        for l in self.layers {
            let s = ConvShape::new(
                batch,
                c,
                l.out_channels,
                &dims,
                &vec![3; rank],
                &vec![l.pad; rank],
            )?;
            (c, dims) = (l.out_channels, s.out_dims());
            shapes.push(s);
        }
        Ok(shapes)
    }

    /// FLOPs of the equivalent direct convolution of one op: divides
    /// `goodput_ops_s` into effective GFLOP/s.
    pub fn direct_flops_per_op(&self) -> Res<u128> {
        Ok(self.shapes(1)?.iter().map(ConvShape::direct_flops).sum())
    }

    /// Uniform [-0.1, 0.1] images and Xavier kernels, every tensor from
    /// its own stream of `seed`.
    pub fn inputs(&self, seed: u64) -> Res<Inputs> {
        let shapes = self.shapes(1)?;
        let mut state = seed;
        let pool = if self.is_serve() { SERVE_POOL } else { 1 };
        let images = (0..pool)
            .map(|_| uniform_input(&shapes[0], splitmix64(&mut state)))
            .collect();
        let kernels = shapes
            .iter()
            .map(|s| xavier_kernels(s, splitmix64(&mut state)))
            .collect();
        Ok(Inputs { images, kernels })
    }
}
