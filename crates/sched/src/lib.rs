//! # wino-sched
//!
//! The parallel-execution substrate (paper §4.5): static scheduling through
//! recursive-GCD grid partitioning ([`GridPartition`]), a custom busy-wait
//! [`SpinBarrier`] built from atomics with an optional watchdog deadline, a
//! persistent panic-safe fork–join [`ThreadPool`], and pluggable
//! [`Executor`] backends (static / dynamic / serial) so the scheduling
//! ablation can swap strategies without touching the convolution code.
//!
//! ## Topology awareness
//!
//! [`Topology`] describes the machine as cache-sharing CPU *domains*
//! (detected from sysfs, overridden with `WINO_TOPOLOGY`, or flat), and
//! [`configured_threads`] is the single sanctioned thread-count source
//! (`WINO_THREADS` override included) — no caller should read
//! `available_parallelism` directly. On multi-domain machines,
//! [`ShardedPool`] runs one [`ThreadPool`] per domain so barrier traffic
//! never crosses a cache boundary, with optional best-effort affinity
//! pinning and per-domain failure isolation. See `DESIGN.md` §11 and
//! `docs/scaling.md` for the policy and the measured scaling story.
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
pub mod pool;
pub mod probed;
pub mod shard;
pub mod topology;

pub use atomics::{AtomicUsizeOps, Atomics, Clock, StdAtomics, StdClock};
pub use backend::{DynamicExecutor, Executor, SerialExecutor, StaticExecutor};
pub use probed::ProbedExecutor;
pub use barrier::{BarrierError, SpinBarrier, SpinBarrierIn};
pub use grid::{GridPartition, TaskBox};
pub use handoff::JobExitLatch;
pub use pool::{default_deadline, PoolError, ThreadPool, DEFAULT_DEADLINE};
pub use shard::ShardedPool;
pub use topology::{
    configured_threads, l2_bytes_per_thread, llc_bytes, parse_cpulist, pin_current_thread, render_cpulist,
    Domain, Topology, TopologySource,
};
