//! # wino-gemm
//!
//! The paper's stage-2 engine (§4.3): batched multiplication of tall-skinny
//! transformed-input panels against small, L2-resident kernel blocks.
//!
//! * [`micro`] — the register-tiled micro-kernel: an `n_blk`-row panel
//!   (1..=30) walked in `R × Q` accumulator tiles monomorphised per
//!   backend (the Rust analogue of the paper's JIT-per-size codegen),
//!   with next-panel prefetch and a fused streaming-scatter output mode
//!   (operation ⑥).
//! * [`blocked`] — the cache-blocked loop order keeping `V̂` in L2.
//! * [`generic`] — a non-specialised stand-in for library GEMMs (Fig. 6's
//!   comparison point).
//! * [`model`] — Eq. 11 compute-to-memory analysis and the §4.3.2
//!   constraint system for legal blockings; every plan's default
//!   blocking is [`default_shape`]. The paper's FFTW-style empirical
//!   search is not reproduced: it did not beat the model (EXPERIMENTS.md,
//!   "§4.3.2 — tuned vs Eq. 11").

pub mod blocked;
pub mod generic;
pub mod micro;
pub mod model;

pub use blocked::{batched_gemm, batched_gemm_parallel, dense_reference};
pub use generic::batched_gemm_generic;
pub use micro::{
    microkernel, microkernel_reference, strips, MicroArgs, Output, TileTable, MAX_N_BLK,
};
pub use model::{candidate_shapes, default_shape, BlockShape, KNL_MACHINE_RATIO, MAX_V_ELEMS};
