//! # wino-conv
//!
//! The paper's primary contribution: **N-dimensional, Winograd-based
//! convolution with arbitrary kernel and tile sizes, optimised for
//! manycore CPUs** (Jia, Zlateski, Durand, Li — PPoPP 2018).
//!
//! A convolution `F(m₁×…×m_n, r₁×…×r_n)` runs in three statically
//! scheduled stages (Fig. 1):
//!
//! 1. **Transform** ([`stage1`]): input tiles (overlap-add, §3.1–3.2) and
//!    kernels are transformed by vectorised codelets operating on `S = 16`
//!    channels at a time, and scattered — with non-temporal streaming
//!    stores when the plan's hand-off buffers outgrow the last-level cache
//!    ([`WinogradLayer::streams`]) — into block-panel matrices (Table 1
//!    layouts).
//! 2. **Multiply** ([`stage2`]): `T` tall-skinny matrix products
//!    `X_t = U_t·V_t` via the register-tiled micro-kernel of
//!    `wino-gemm`, with the final reduction block scattering results
//!    directly into a tile-major layout (operation ⑥).
//! 3. **Inverse transform** ([`stage3`]): `Aᵀ` codelets produce the output
//!    image — applied *after* the channel summation (Eqn. 7/8), which is
//!    where the arithmetic savings come from.
//!
//! That is the *staged* schedule. A layer whose transformed kernels fit
//! the L2 beside a per-thread ring runs the same three steps per
//! `n_blk`-row panel inside one fork–join instead — the transformed
//! inputs and outputs of a panel live in the ring and never leave the
//! core. A training-mode layer with few rows and a large `V̂` runs the
//! dual: the input transform, then one fork–join whose tasks transform
//! one block of kernels at a time into a per-thread ring and multiply it
//! there, so `V̂` is never materialised. Results are bit-identical on all
//! three; [`WinogradLayer::is_fused`] and [`WinogradLayer::is_dual`] say
//! which schedule a plan got, from its sizes and the detected L2 alone —
//! the same for a layer of a [`Network`] as for the layer planned alone.
//!
//! The codelets of stages 1 and 3 are straight-line code generated at
//! build time for every `F(m, r)` with `m ≤ 8` and `r ≤ 5` ([`codelet`]),
//! which is everything [`WinogradLayer::new`] plans — a larger tile or a
//! wider kernel is `PlanError::BadTileSize`, which [`dispatch`] turns
//! into the im2col route. So are the op counts and the conditioning γ of
//! each `F(m, r)`, which the work model and the error bound read: the
//! exact transform matrices (`wino-transforms`) exist at build time and
//! in the tests only. An interpreter over the same programs, the
//! test-only `vecprog` module, is the reference the codelets are tested
//! against.
//!
//! ```
//! use wino_tensor::{SimpleImage, SimpleKernels};
//!
//! // 16-channel 2-D layer, 3×3 kernels, "same" padding, F(2×2, 3×3).
//! let img = SimpleImage::from_fn(1, 16, &[8, 8], |_, c, xy| (c + xy[0] * xy[1]) as f32 * 0.01);
//! let ker = SimpleKernels::from_fn(16, 16, &[3, 3], |co, ci, _| ((co + ci) % 5) as f32 * 0.1);
//! let out = wino_conv::convolve_simple(&img, &ker, &[1, 1], &[2, 2]).unwrap();
//! assert_eq!(out.dims, vec![8, 8]);
//! ```

pub mod codelet;
pub mod conv;
pub mod dispatch;
pub mod error;
pub mod footprint;
mod fused;
pub mod layout;
pub mod net;
pub mod plan;
pub mod select;
pub mod sentinel;
pub mod stage1;
pub mod stage2;
pub mod stage3;
#[cfg(test)]
mod vecprog;
pub mod work;

pub use conv::{convolve_simple, TransformedKernels};
pub use dispatch::{plan_dispatch, DispatchPlan, Route};
pub use error::{check_finite, NumericError, WinoError};
pub use footprint::MemoryFootprint;
pub use layout::TileMajor;
pub use net::{
    Activation, ExecutionReport, FallbackReason, LayerBackend, LayerSpec, NetLayer,
    Network,
};
pub use plan::{ConvOptions, PlanError, Scratch, Stage2Backend, WinogradLayer, MAX_RANK};
pub use select::{candidate_tiles, plan_with_fallback, FallbackPolicy, Purpose};
pub use sentinel::{sample_units, verify_sample, SentinelConfig, SentinelError};
