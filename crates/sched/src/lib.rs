//! # wino-sched
//!
//! The parallel-execution substrate (paper §4.5): static scheduling through
//! recursive-GCD grid partitioning ([`GridPartition`]), a custom busy-wait
//! [`SpinBarrier`] built from atomics with an optional watchdog deadline, a
//! persistent panic-safe fork–join [`ThreadPool`], and the [`Executor`]
//! trait the convolution code runs through (static or serial).
//!
//! ## Host
//!
//! [`configured_threads`] is the single sanctioned thread-count source
//! (`WINO_THREADS` override, else every online CPU) — no caller should
//! read `available_parallelism` directly — and [`l2_bytes_per_thread`] /
//! [`llc_bytes`] are the two cache figures the planner's rules read: the
//! L2 decides a plan's schedule, the LLC only its store flavour. See
//! `DESIGN.md` §11 and `docs/scaling.md`.
//!
//! ## Failure model
//!
//! Panics inside parallel jobs are contained with `catch_unwind` on every
//! participant and surfaced as [`PoolError::Panicked`]; the pool remains
//! usable afterwards. A participant that never reaches a barrier trips the
//! watchdog ([`BarrierError::Timeout`]), which poisons the barriers and
//! permanently kills the pool ([`PoolError::Unusable`] thereafter) — but
//! never hangs the caller, not even in `Drop`. With the `fault-inject`
//! cargo feature, the `fault` module provides deterministic hooks to
//! exercise each of these paths from tests.

pub mod atomics;
pub mod backend;
pub mod barrier;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod grid;
pub mod handoff;
pub mod host;
pub mod pool;
pub mod probed;

pub use atomics::{AtomicUsizeOps, Atomics, Clock, StdAtomics, StdClock};
pub use backend::{Executor, SerialExecutor, StaticExecutor};
pub use probed::ProbedExecutor;
pub use barrier::{BarrierError, SpinBarrier, SpinBarrierIn};
pub use grid::{GridPartition, TaskBox};
pub use handoff::JobExitLatch;
pub use pool::{PoolError, ThreadPool, DEFAULT_DEADLINE};
pub use host::{configured_threads, l2_bytes_per_thread, llc_bytes, parse_cpulist};
