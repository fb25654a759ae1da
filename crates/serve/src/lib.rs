//! # wino-serve
//!
//! Overload-safe inference serving on top of the Winograd engine: a
//! bounded, deadline-aware request queue, a dynamic batcher, admission
//! control priced from a measured service time and a circuit breaker that walks the engine's
//! degradation ladder (configured backend → monomorphised kernels →
//! im2col) instead of failing open.
//!
//! The design premise is the robustness counterpart of the paper's
//! throughput argument: a manycore CPU serving convolutions is a *shared*
//! resource, and the failure mode that matters in production is not a
//! slow batch but an unbounded queue. Every request therefore carries a
//! deadline, every rejection is a typed [`ServeError`] returned
//! *immediately* (back-pressure, not buffering), and every admitted
//! request resolves to exactly one [`ServeResponse`] — even when workers
//! panic, barriers time out, or the fork–join pool is poisoned
//! mid-batch.
//!
//! Pipeline: [`Server::submit`] validates the request shape, sheds it if
//! the deadline is already unmeetable (queue-depth × measured
//! [`ServiceModel`]), and enqueues it; a single batcher thread coalesces
//! queued requests into batches (closing on size or age), executes them
//! through a cached [`wino_conv::Network`] plan, and resolves each
//! request's [`Ticket`]. Failures are contained per batch: the error is
//! fanned out to that batch's requests as [`ServeError::Failed`], the
//! pool is health-checked and rebuilt if poisoned, and repeated failures
//! trip the [`CircuitBreaker`] one [`DegradeLevel`] down.
//!
//! ```
//! use std::time::Duration;
//! use wino_conv::LayerSpec;
//! use wino_serve::{ModelSpec, ServeOptions, Server};
//! use wino_tensor::{BlockedImage, BlockedKernels, SimpleKernels};
//!
//! // One 3×3 "same" layer on 16-channel 6×6 images.
//! let spec = ModelSpec::new(16, vec![6, 6], vec![LayerSpec::same(16, 2, 3, 2)]);
//! let k = SimpleKernels::from_fn(16, 16, &[3, 3], |_, _, _| 0.01);
//! let kernels = vec![BlockedKernels::from_simple(&k).unwrap()];
//!
//! let server = Server::start(spec, kernels, ServeOptions::default()).unwrap();
//! let input = BlockedImage::zeros(1, 16, &[6, 6]).unwrap();
//! let ticket = server.submit(input, Duration::from_secs(10)).unwrap();
//! let resp = ticket.wait();
//! assert!(resp.output.is_ok());
//! assert_eq!(resp.report.batch_size, 1);
//!
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

use std::sync::Arc;

use wino_conv::{ExecutionReport, WinoError};

pub mod breaker;
pub mod model;
pub mod queue;
pub mod server;

pub use breaker::{BreakerConfig, CircuitBreaker, CircuitBreakerIn};
pub use model::{suggested_max_batch, ModelSpec, ServiceModel};
pub use queue::{DeadlineQueueIn, DropOutcome, PendingIn, PushReject, SlotIn, Ticket, TicketIn};
pub use server::{MemoryAdmission, ServeOptions, ServeStats, Server};

/// Why a request was rejected or failed. Every variant is a *terminal*
/// per-request outcome: the server never retries on the caller's behalf
/// beyond the batcher's bounded in-batch retries, and it never drops a
/// request silently.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// The bounded queue was full at enqueue. Back-pressure: the caller
    /// should slow down or retry after a backoff of its own choosing.
    Overloaded {
        /// Queue depth observed at rejection.
        depth: usize,
        /// Configured queue capacity.
        capacity: usize,
    },
    /// The request's deadline had already passed — at enqueue, or while
    /// it waited in the queue.
    DeadlineExceeded {
        /// How late the request was when it was shed, in milliseconds.
        missed_by_ms: f64,
    },
    /// Admission control predicted a deadline miss from the measured
    /// service model and current queue depth, and shed the request
    /// immediately rather than letting it time out in the queue.
    PredictedMiss {
        /// Estimated completion time from now, in milliseconds.
        estimated_ms: f64,
        /// The request's remaining deadline budget, in milliseconds.
        budget_ms: f64,
    },
    /// Byte-budget admission control: admitting this request would push
    /// the modeled concurrent footprint (plans + scratch + one output
    /// per queued and in-flight image) past the configured memory
    /// ceiling. The request is shed *before* anything is allocated on
    /// its behalf — degrading into load-shedding instead of letting the
    /// allocator fail mid-batch.
    MemoryPressure {
        /// Modeled bytes the server would need with this request queued.
        need_bytes: usize,
        /// The configured [`server::ServeOptions::memory_ceiling`].
        ceiling_bytes: usize,
    },
    /// The batch this request rode in failed after the breaker's bounded
    /// retries. The underlying engine error is shared by every request
    /// of the batch ([`WinoError`] is not `Clone`, hence the [`Arc`]).
    Failed(Arc<WinoError>),
    /// The server was shut down before the request could be served.
    ShutDown,
}

impl ServeError {
    /// True for load-shedding rejections (the request never executed and
    /// the system is healthy — the caller hit capacity, not a bug).
    pub fn is_shed(&self) -> bool {
        matches!(
            self,
            ServeError::Overloaded { .. }
                | ServeError::DeadlineExceeded { .. }
                | ServeError::PredictedMiss { .. }
                | ServeError::MemoryPressure { .. }
        )
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { depth, capacity } => {
                write!(f, "queue full ({depth}/{capacity}): request shed")
            }
            ServeError::DeadlineExceeded { missed_by_ms } => {
                write!(f, "deadline exceeded by {missed_by_ms:.2} ms")
            }
            ServeError::PredictedMiss { estimated_ms, budget_ms } => write!(
                f,
                "admission control: estimated {estimated_ms:.2} ms exceeds the \
                 {budget_ms:.2} ms deadline budget"
            ),
            ServeError::MemoryPressure { need_bytes, ceiling_bytes } => write!(
                f,
                "memory admission: {need_bytes} B concurrent footprint exceeds the \
                 {ceiling_bytes} B ceiling"
            ),
            ServeError::Failed(e) => write!(f, "batch execution failed: {e}"),
            ServeError::ShutDown => write!(f, "server shut down"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Failed(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

/// Rung of the serving degradation ladder. Order matters: `Full <
/// Mono < Im2col`, and the [`CircuitBreaker`] only ever moves one rung
/// at a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeLevel {
    /// The model's configured pipeline (JIT stage-2 kernels if the
    /// [`wino_conv::ConvOptions`] ask for them).
    Full = 0,
    /// Same Winograd pipeline, stage 2 forced to the monomorphised Rust
    /// kernels — sheds the JIT as a fault-isolation measure.
    Mono = 1,
    /// The im2col baseline: slowest, simplest, hardest to break.
    Im2col = 2,
}

impl DegradeLevel {
    /// Stable kebab-case name, as `serve_load` prints it.
    pub fn name(self) -> &'static str {
        match self {
            DegradeLevel::Full => "full",
            DegradeLevel::Mono => "mono",
            DegradeLevel::Im2col => "im2col",
        }
    }

    /// One rung down the ladder, or `None` at the bottom.
    pub fn degraded(self) -> Option<DegradeLevel> {
        match self {
            DegradeLevel::Full => Some(DegradeLevel::Mono),
            DegradeLevel::Mono => Some(DegradeLevel::Im2col),
            DegradeLevel::Im2col => None,
        }
    }

    /// One rung up the ladder, or `None` at the top.
    pub fn promoted(self) -> Option<DegradeLevel> {
        match self {
            DegradeLevel::Full => None,
            DegradeLevel::Mono => Some(DegradeLevel::Full),
            DegradeLevel::Im2col => Some(DegradeLevel::Mono),
        }
    }

    /// Inverse of `level as u8` (for atomically published snapshots).
    pub fn from_u8(v: u8) -> DegradeLevel {
        match v {
            0 => DegradeLevel::Full,
            1 => DegradeLevel::Mono,
            _ => DegradeLevel::Im2col,
        }
    }
}

/// Per-request accounting, attached to every [`ServeResponse`] —
/// including rejections resolved after enqueue (deadline expiry in the
/// queue, batch failure, shutdown drain).
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Server-assigned request id (monotonic per server).
    pub request_id: u64,
    /// Batch this request executed in; `None` if it never reached a
    /// batch (shed from the queue or drained at shutdown).
    pub batch_id: Option<u64>,
    /// Number of requests coalesced into that batch (0 if none).
    pub batch_size: usize,
    /// Time spent queued before the batcher picked the request up.
    pub queue_wait_ms: f64,
    /// Batch execution time, including in-batch retries.
    pub service_ms: f64,
    /// Enqueue-to-resolution wall time.
    pub total_ms: f64,
    /// Whether the request resolved successfully within its deadline.
    pub deadline_met: bool,
    /// Ladder rung the successful attempt executed at (for failures:
    /// the rung of the last attempt).
    pub level: DegradeLevel,
    /// In-batch retries spent before resolution.
    pub retries: u32,
    /// Per-layer execution reports from the engine (empty on failure).
    pub layers: Vec<ExecutionReport>,
}

impl ServeReport {
    /// A report for a request that never executed (shed or drained).
    pub(crate) fn unserved(request_id: u64, level: DegradeLevel) -> ServeReport {
        ServeReport {
            request_id,
            batch_id: None,
            batch_size: 0,
            queue_wait_ms: 0.0,
            service_ms: 0.0,
            total_ms: 0.0,
            deadline_met: false,
            level,
            retries: 0,
            layers: Vec::new(),
        }
    }
}

/// The terminal outcome of one admitted request.
#[derive(Debug)]
pub struct ServeResponse {
    /// The inference output, or the typed reason it could not be
    /// produced.
    pub output: Result<wino_tensor::BlockedImage, ServeError>,
    /// Timing and provenance accounting.
    pub report: ServeReport,
}
