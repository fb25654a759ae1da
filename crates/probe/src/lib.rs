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
//! * **Analysis** ([`WorkModel`], [`barrier_stats`]): the per-stage
//!   operation and byte counts a traced report divides span time by, and
//!   barrier-imbalance statistics over the recorded fork–joins.
//!
//! [`Json`] / [`parse_json`] are the dependency-free JSON reader and
//! writer the benchmark's flat report is built with.
//!
//! The crate is dependency-free and knows nothing about convolution:
//! executors record fork–joins, stage code records categorised spans, and
//! whoever understands the algorithm supplies the [`WorkModel`].
//!
//! ```
//! use wino_probe::{barrier_stats, Collector, SpanCategory, COORDINATOR};
//!
//! let collector = Collector::new(2);
//! // SAFETY: single-threaded example — buffer access is trivially exclusive.
//! unsafe {
//!     collector.record(COORDINATOR, SpanCategory::ForkJoin, 0, 1_000);
//!     // Slot 0 reached the end barrier at 400 ns, slot 1 at 900 ns.
//!     collector.record(0, SpanCategory::BarrierWait, 400, 1_000);
//!     collector.record(1, SpanCategory::BarrierWait, 900, 1_000);
//! }
//! // SAFETY: nothing is recording concurrently.
//! let events = unsafe { collector.drain() };
//!
//! let barrier = barrier_stats(&events);
//! assert_eq!(barrier.fork_joins, 1);
//! assert_eq!(barrier.max_skew_us, 0.5);
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
pub use event::{SpanCategory, SpanEvent, COORDINATOR};
pub use json::{parse as parse_json, Json, ParseError};
pub use report::{barrier_stats, BarrierStats, StageWork, WorkModel};
