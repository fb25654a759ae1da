//! # wino-probe
//!
//! Stage-level observability for the Winograd pipeline: *where does the
//! time go?* The paper's argument (§5, Figs. 5–7) is a per-stage
//! accounting — transform time vs. element-wise GEMM time vs. barrier
//! overhead — and Zlateski et al. ("FFT Convolutions are Faster than
//! Winograd …") show such conclusions flip with arithmetic intensity and
//! cache behaviour. This crate makes both measurable without perturbing
//! the thing being measured.
//!
//! Two halves:
//!
//! * **Recording** ([`Collector`], [`SpanCategory`], [`now_ns`]):
//!   monotonic span timers writing to per-thread append-only buffers —
//!   no locks or shared cache lines on the hot path; buffers merge only
//!   at fork–join boundaries. Always compiled; whether a run is
//!   instrumented is decided at run time, by whether its executor carries
//!   a collector (`wino_sched::Executor::probe`) — code handed none reads
//!   no clock and writes no buffer.
//! * **Analysis** ([`fold`], [`StageReport`], [`WorkModel`],
//!   [`MachineModel`]): folds events into per-stage wall/CPU time,
//!   effective GFLOP/s, arithmetic intensity, bytes moved, a software
//!   roofline estimate, and barrier-imbalance statistics.
//!
//! [`Json`] / [`parse_json`] are the dependency-free JSON reader and
//! writer the benchmark's flat report is built with.
//!
//! The crate is dependency-free and knows nothing about convolution:
//! executors record fork–joins, stage code records categorised spans, and
//! whoever understands the algorithm supplies the [`WorkModel`].
//!
//! ```
//! use wino_probe::{fold, Collector, MachineModel, SpanCategory, StageWork, WorkModel,
//!                  COORDINATOR};
//!
//! let collector = Collector::new(1);
//! // SAFETY: single-threaded example — buffer access is trivially exclusive.
//! unsafe { collector.record(COORDINATOR, SpanCategory::ElementwiseGemm, 0, 2_000_000) };
//! // SAFETY: nothing is recording concurrently.
//! let events = unsafe { collector.drain() };
//!
//! let mut work = WorkModel::new();
//! work.set(SpanCategory::ElementwiseGemm,
//!          StageWork { flops: 4_000_000_000, bytes: 1_000_000_000 });
//! let machine = MachineModel { peak_gflops: 100.0, mem_bw_gbps: 50.0, threads: 4 };
//! let report = fold(&events, &work, &machine);
//!
//! // 4 GFLOP in 2 ms → 2000 GFLOP/s, arithmetic intensity 4 FLOP/byte.
//! let gemm = &report.stages[0];
//! assert_eq!(gemm.arith_intensity, Some(4.0));
//! ```

pub mod clock;
pub mod collector;
pub mod counters;
pub mod event;
pub mod json;
pub mod report;

pub use clock::now_ns;
pub use collector::Collector;
pub use counters::Counter;
pub use event::{SpanCategory, SpanEvent, ALL_CATEGORIES, COORDINATOR};
pub use json::{parse as parse_json, Json, ParseError};
pub use report::{fold, BarrierStats, MachineModel, StageReport, StageRow, StageWork, WorkModel};
