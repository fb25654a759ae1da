//! # winograd-nd-repro
//!
//! Umbrella crate for the reproduction of *"Optimizing N-Dimensional,
//! Winograd-Based Convolution for Manycore CPUs"* (PPoPP 2018). See
//! `README.md` for the architecture tour, `DESIGN.md` for the system
//! inventory and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! The member crates, re-exported here:
//!
//! * [`conv`] (`wino-conv`) — the N-D Winograd convolution engine;
//! * [`transforms`] (`wino-transforms`) — exact `F(m, r)` matrix
//!   generation + codelet compilation;
//! * [`tensor`] (`wino-tensor`) — the blocked data layouts of Table 1;
//! * [`simd`] (`wino-simd`) — the 16-lane vector substrate;
//! * [`gemm`] (`wino-gemm`) — specialised batched GEMM + the Eq. 11
//!   blocking model;
//! * [`jit`] (`wino-jit`) — runtime AVX-512 code generation of the GEMM
//!   micro-kernel;
//! * [`sched`] (`wino-sched`) — static scheduler, spin barrier, executors;
//! * [`baseline`] (`wino-baseline`) — direct / im2col / reference
//!   convolutions;
//! * [`workloads`] (`wino-workloads`) — the Table 2 catalogue, data
//!   generators and metrics;
//! * [`rng`] (`wino-rng`) — seeded PRNG for data generation and
//!   property-style tests (no registry access required);
//! * [`probe`] (`wino-probe`) — stage-level observability: spans and
//!   event counters;
//! * [`serve`] (`wino-serve`) — overload-safe inference serving:
//!   deadline-aware batching, admission control, circuit-breaker
//!   degradation.

pub use wino_baseline as baseline;
pub use wino_conv as conv;
pub use wino_gemm as gemm;
pub use wino_jit as jit;
pub use wino_probe as probe;
pub use wino_rng as rng;
pub use wino_sched as sched;
pub use wino_serve as serve;
pub use wino_simd as simd;
pub use wino_tensor as tensor;
pub use wino_transforms as transforms;
pub use wino_workloads as workloads;
