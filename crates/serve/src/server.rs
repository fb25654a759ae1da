//! The serving core: submit-side admission control and the batcher
//! thread.
//!
//! The core is deliberately synchronous — one batcher thread owns the
//! executor, the plan cache and the breaker, so the failure domain is a
//! single loop whose every exit path resolves the requests it holds.
//! Concurrency lives at the edges: any number of producer threads call
//! [`Server::submit`]; each gets back a [`Ticket`] it can block on.
//!
//! Fault containment layers, outermost first:
//!
//! 1. worker panics and barrier timeouts are absorbed by the fork–join
//!    pool ([`wino_sched::PoolError`]) and surface as typed
//!    [`WinoError::Pool`] batch failures;
//! 2. a batch failure resolves *only that batch's* requests
//!    ([`ServeError::Failed`]) after bounded in-batch retries;
//! 3. the pool is health-checked after every failure and rebuilt if
//!    poisoned;
//! 4. failure streaks trip the [`CircuitBreaker`] down the
//!    [`DegradeLevel`] ladder — and success streaks climb back up;
//! 5. if the batcher itself unwinds, every queued request's drop guard
//!    resolves its ticket with [`ServeError::ShutDown`] — no waiter is
//!    ever leaked.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wino_conv::{ExecutionReport, FallbackPolicy, Network, Stage2Backend, TransformedKernels, WinoError};
use wino_sched::{Executor, PoolError, SerialExecutor, StaticExecutor, DEFAULT_DEADLINE};
use wino_tensor::{BlockedImage, BlockedKernels, ShapeError};

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::model::{suggested_max_batch, ModelSpec, ServiceModel};
use crate::queue::{DeadlineQueue, Pending, PushReject, Slot, Ticket};
use crate::{DegradeLevel, ServeError, ServeReport, ServeResponse};

/// Serving configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bounded queue capacity; a full queue sheds with
    /// [`ServeError::Overloaded`]. Capacity 0 is legal and sheds every
    /// request — useful for drain/maintenance modes.
    pub queue_capacity: usize,
    /// Batch ceiling; `0` derives it from the blocking model
    /// ([`suggested_max_batch`]).
    pub max_batch: usize,
    /// How long the batcher holds an open batch waiting for co-riders: a
    /// batch that has not filled closes `max_batch_age` after its pickup,
    /// on the wall clock.
    pub max_batch_age: Duration,
    /// Worker threads (1 ⇒ serial executor, no pool to poison).
    pub threads: usize,
    /// Barrier watchdog deadline of the worker pool (and of every pool
    /// rebuilt after a fault). `None` is [`wino_sched::DEFAULT_DEADLINE`],
    /// 30 s.
    pub watchdog: Option<Duration>,
    /// Admission-control oracle; `None` disables predictive shedding
    /// (capacity and deadline shedding remain).
    pub service: Option<ServiceModel>,
    /// Breaker and retry tunables.
    pub breaker: BreakerConfig,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            queue_capacity: 64,
            max_batch: 0,
            max_batch_age: Duration::from_millis(2),
            threads: 1,
            watchdog: None,
            service: None,
            breaker: BreakerConfig::default(),
        }
    }
}

/// Internal per-server tallies (monotonic atomics).
#[derive(Default)]
struct Stats {
    submitted: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed_overload: AtomicU64,
    shed_deadline: AtomicU64,
    shed_predicted: AtomicU64,
    batches: AtomicU64,
    batch_failures: AtomicU64,
    breaker_trips: AtomicU64,
    breaker_recoveries: AtomicU64,
    pool_rebuilds: AtomicU64,
    peak_depth: AtomicU64,
    /// The batcher thread's own monotonic `wino_simd::thread_alloc_calls`
    /// tally, republished after every batch — the zero-steady-state-
    /// allocation proof reads its deltas.
    batcher_alloc_calls: AtomicU64,
}

impl Stats {
    fn bump(cell: &AtomicU64) {
        // ORDERING: Relaxed — monotonic tallies; atomicity suffices and
        // nothing is published under them.
        cell.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time snapshot of a server's tallies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests offered to [`Server::submit`] (including rejected ones).
    pub submitted: u64,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests resolved with an output.
    pub completed: u64,
    /// Requests resolved with [`ServeError::Failed`].
    pub failed: u64,
    /// Shed at enqueue: queue full.
    pub shed_overload: u64,
    /// Shed with an expired deadline (at enqueue or in the queue).
    pub shed_deadline: u64,
    /// Shed by predictive admission control.
    pub shed_predicted: u64,
    /// Batch execution attempts dispatched.
    pub batches: u64,
    /// Batch attempts that failed (before retry accounting).
    pub batch_failures: u64,
    /// Breaker trips (ladder demotions).
    pub breaker_trips: u64,
    /// Breaker recoveries (ladder promotions).
    pub breaker_recoveries: u64,
    /// Fork–join pools rebuilt after poisoning.
    pub pool_rebuilds: u64,
    /// High-water queue depth.
    pub peak_depth: u64,
    /// Aligned-buffer allocation calls made by the batcher thread so
    /// far (monotonic; republished after every batch). In steady state
    /// the per-batch delta is exactly the unavoidable output buffers —
    /// the batch's output plus one per request — because the assembly
    /// buffer, the engine scratch and the intermediate activations are
    /// reused.
    pub batcher_alloc_calls: u64,
    /// Ladder rung the breaker currently stands on.
    pub level: DegradeLevel,
}

struct Shared {
    queue: DeadlineQueue,
    /// Images currently being executed by the batcher (admission
    /// estimates count them as queue-ahead work).
    in_flight: AtomicUsize,
    /// The breaker itself is the published level: its state words are
    /// atomic, so the submit path reads the rung straight from the
    /// source of truth instead of a separately-maintained copy.
    breaker: CircuitBreaker,
    stats: Stats,
}

/// An inference server over one [`ModelSpec`]. See the crate docs for
/// the pipeline; construct with [`Server::start`], stop with
/// [`Server::shutdown`] (or drop, which shuts down without draining
/// stats).
pub struct Server {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
    next_id: AtomicU64,
    service: Option<ServiceModel>,
    max_batch: usize,
    max_batch_age: Duration,
    in_channels: usize,
    image_dims: Vec<usize>,
}

impl Server {
    /// Validate the spec (a batch-1 plan must exist under
    /// [`FallbackPolicy::default`], the policy the server runs), prepare
    /// every layer's kernels once on that plan, then spawn the batcher
    /// thread, whose plan cache starts with the plans made here and whose
    /// every batch runs in FX mode on that one set.
    pub fn start(
        spec: ModelSpec,
        kernels: Vec<BlockedKernels>,
        opts: ServeOptions,
    ) -> Result<Server, WinoError> {
        if spec.layers.is_empty() {
            return Err(WinoError::Unsupported("serving an empty layer stack"));
        }
        if kernels.len() != spec.layers.len() {
            return Err(WinoError::LayerCount { expected: spec.layers.len(), got: kernels.len() });
        }
        let threads = opts.threads.max(1);
        let max_batch = if opts.max_batch == 0 {
            suggested_max_batch(&spec, threads).map_err(WinoError::Shape)?
        } else {
            opts.max_batch
        };
        let engine = Engine::new(spec, kernels, threads)?;

        let shared = Arc::new(Shared {
            queue: DeadlineQueue::new(opts.queue_capacity),
            in_flight: AtomicUsize::new(0),
            breaker: CircuitBreaker::new(opts.breaker),
            stats: Stats::default(),
        });
        let in_channels = engine.spec.in_channels;
        let image_dims = engine.spec.image_dims.clone();
        let worker = {
            let shared = Arc::clone(&shared);
            let (breaker, age) = (opts.breaker, opts.max_batch_age);
            let watchdog = opts.watchdog.unwrap_or(DEFAULT_DEADLINE);
            std::thread::Builder::new()
                .name("wino-serve-batcher".into())
                .spawn(move || batcher_main(shared, engine, breaker, max_batch, age, watchdog))
                .expect("spawning the batcher thread")
        };
        Ok(Server {
            shared,
            worker: Some(worker),
            next_id: AtomicU64::new(1),
            service: opts.service,
            max_batch,
            max_batch_age: opts.max_batch_age,
            in_channels,
            image_dims,
        })
    }

    /// Submit one image with a relative deadline.
    pub fn submit(&self, input: BlockedImage, deadline: Duration) -> Result<Ticket, ServeError> {
        self.submit_with_deadline(input, Instant::now() + deadline)
    }

    /// Submit one image with an absolute deadline. Sheds immediately —
    /// with a typed error and no ticket — when the queue is full, the
    /// deadline has already passed, or admission control predicts a
    /// miss.
    pub fn submit_with_deadline(
        &self,
        input: BlockedImage,
        deadline: Instant,
    ) -> Result<Ticket, ServeError> {
        let stats = &self.shared.stats;
        // ORDERING: Relaxed — monotonic tally, no ordering contract.
        stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.check_shape(&input).inspect_err(|_| Stats::bump(&stats.failed))?;
        let now = Instant::now();
        if deadline <= now {
            Stats::bump(&stats.shed_deadline);
            return Err(ServeError::DeadlineExceeded {
                missed_by_ms: (now - deadline).as_secs_f64() * 1e3,
            });
        }
        if let Some(svc) = &self.service {
            // ORDERING: Relaxed — advisory load-estimate input; a stale
            // value only skews the admission heuristic, never correctness.
            let queued = self.shared.queue.depth() + self.shared.in_flight.load(Ordering::Relaxed);
            let estimated_ms = svc.drain_ms(queued, self.max_batch)
                + self.max_batch_age.as_secs_f64() * 1e3;
            let budget_ms = (deadline - now).as_secs_f64() * 1e3;
            if estimated_ms > budget_ms {
                Stats::bump(&stats.shed_predicted);
                return Err(ServeError::PredictedMiss { estimated_ms, budget_ms });
            }
        }
        // ORDERING: Relaxed — uniqueness needs atomicity only; ids carry
        // no happens-before obligations.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = Slot::new();
        let pending =
            Pending { id, input, enqueued: now, deadline, slot: Arc::clone(&slot) };
        match self.shared.queue.push(pending) {
            Ok(depth) => {
                Stats::bump(&stats.admitted);
                // ORDERING: Relaxed — monotonic high-water mark, no ordering contract.
                stats.peak_depth.fetch_max(depth as u64, Ordering::Relaxed);
                Ok(Ticket::new(slot, id))
            }
            Err(PushReject::Full { depth }) => {
                Stats::bump(&stats.shed_overload);
                Err(ServeError::Overloaded { depth, capacity: self.shared.queue.capacity() })
            }
            Err(PushReject::ShutDown) => Err(ServeError::ShutDown),
        }
    }

    fn check_shape(&self, input: &BlockedImage) -> Result<(), ServeError> {
        let fail = |e: ShapeError| Err(ServeError::Failed(Arc::new(WinoError::Shape(e))));
        if input.batch != 1 {
            return fail(ShapeError::Mismatch {
                what: "request batch",
                expected: 1,
                got: input.batch,
            });
        }
        if input.channels != self.in_channels {
            return fail(ShapeError::Mismatch {
                what: "request channels",
                expected: self.in_channels,
                got: input.channels,
            });
        }
        if input.dims.len() != self.image_dims.len() {
            return fail(ShapeError::RankMismatch {
                expected: self.image_dims.len(),
                got: input.dims.len(),
            });
        }
        for (&want, &got) in self.image_dims.iter().zip(&input.dims) {
            if want != got {
                return fail(ShapeError::Mismatch {
                    what: "request image extent",
                    expected: want,
                    got,
                });
            }
        }
        Ok(())
    }

    /// Current queue depth (requests waiting, not counting in-flight).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// The ladder rung the breaker currently stands on.
    pub fn level(&self) -> DegradeLevel {
        self.shared.breaker.level()
    }

    /// The resolved batch ceiling.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Snapshot the tallies.
    pub fn stats(&self) -> ServeStats {
        let s = &self.shared.stats;
        // ORDERING: Relaxed — point-in-time tally snapshot; each cell is
        // independently monotonic and nothing is published under them.
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServeStats {
            submitted: get(&s.submitted),
            admitted: get(&s.admitted),
            completed: get(&s.completed),
            failed: get(&s.failed),
            shed_overload: get(&s.shed_overload),
            shed_deadline: get(&s.shed_deadline),
            shed_predicted: get(&s.shed_predicted),
            batches: get(&s.batches),
            batch_failures: get(&s.batch_failures),
            breaker_trips: get(&s.breaker_trips),
            breaker_recoveries: get(&s.breaker_recoveries),
            pool_rebuilds: get(&s.pool_rebuilds),
            peak_depth: get(&s.peak_depth),
            batcher_alloc_calls: get(&s.batcher_alloc_calls),
            level: self.level(),
        }
    }

    /// Graceful shutdown: stop admitting, serve everything already
    /// queued, join the batcher, and return the final tallies. Requests
    /// left unresolved by an early batcher death resolve as
    /// [`ServeError::ShutDown`].
    pub fn shutdown(mut self) -> ServeStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        self.shared.queue.begin_shutdown();
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
        // If the batcher died before draining, dropping the leftovers
        // resolves their tickets (drop guard).
        drop(self.shared.queue.drain_remaining());
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The batcher's executor: serial when `threads == 1` (nothing to
/// poison), otherwise a static fork–join pool that can be health-checked
/// and rebuilt.
enum WorkerExec {
    Serial,
    Pool { exec: StaticExecutor, threads: usize, watchdog: Duration },
}

impl WorkerExec {
    fn new(threads: usize, watchdog: Duration) -> WorkerExec {
        if threads <= 1 {
            WorkerExec::Serial
        } else {
            WorkerExec::Pool {
                exec: StaticExecutor::with_deadline(threads, watchdog),
                threads,
                watchdog,
            }
        }
    }

    fn executor(&self) -> &dyn Executor {
        match self {
            WorkerExec::Serial => &SerialExecutor,
            WorkerExec::Pool { exec, .. } => exec,
        }
    }

    /// Probe pool health after a failure; rebuild if poisoned. Returns
    /// `true` when a rebuild happened.
    fn heal(&mut self) -> bool {
        match self {
            WorkerExec::Serial => false,
            WorkerExec::Pool { exec, threads, watchdog } => {
                if exec.pool().is_dead() || exec.pool().health_check().is_err() {
                    *exec = StaticExecutor::with_deadline(*threads, *watchdog);
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// Plan `spec` for `batch` images on the candidate the degradation table
/// ([`Network::at_rung`]) gives every layer at the breaker's `level`: as
/// configured, stage 2 forced to Mono, or the (geometry-aware,
/// numeric-guarded) im2col route.
fn plan_model(
    spec: &ModelSpec,
    batch: usize,
    threads: usize,
    level: DegradeLevel,
) -> Result<Network, WinoError> {
    let (c, dims, policy) = (spec.in_channels, &spec.image_dims, &FallbackPolicy::default());
    Network::at_rung(batch, c, dims, &spec.layers, spec.opts, threads, policy, level as u8)
        .map_err(WinoError::Plan)
}

/// Plan cache over the breaker's rungs, run under
/// [`FallbackPolicy::default`]. Owned by the batcher thread.
struct Engine {
    spec: ModelSpec,
    /// Every layer's kernels, prepared once for the server's life: the raw
    /// kernels plus, dense, `V̂`, whose blocking comes from the channel
    /// counts alone (Eq. 11), so one set serves every cached plan, at
    /// every batch size and on every rung.
    prepared: Vec<TransformedKernels>,
    threads: usize,
    /// Cached network plans keyed by `(batch, ladder rung)`.
    plans: HashMap<(usize, u8), Network>,
    /// The cached plan that holds the one arena every cached plan runs in
    /// ([`Network::lend_arena`]): it passes to whichever plan runs next, so
    /// the arena is as large as the largest batch needs, not the sum over
    /// batch sizes.
    holder: (usize, u8),
}

impl Engine {
    /// Plan the batch-1 network and prepare every layer's kernels on it;
    /// the set keeps its own copy, and `kernels` are dropped. Fails fast
    /// on ill-formed geometry: if no batch-1 plan exists even under the
    /// fallback policy, serving can never succeed.
    fn new(
        spec: ModelSpec,
        kernels: Vec<BlockedKernels>,
        threads: usize,
    ) -> Result<Engine, WinoError> {
        let mut net1 = plan_model(&spec, 1, threads, DegradeLevel::Full)?;
        let prepared = net1.prepare_kernels(&kernels, &SerialExecutor)?;
        let holder = (1, DegradeLevel::Full as u8);
        let plans = HashMap::from([(holder, net1)]);
        Ok(Engine { spec, prepared, threads, plans, holder })
    }

    /// Run one batch on the network planned for the breaker's `level` —
    /// all three rungs are the same run loop on the one prepared set: FX
    /// wherever the plan accepts its `V̂`, the set's raw kernels on the
    /// im2col rung and for every re-planned layer. On a Mono model the
    /// `Mono` rung plans what `Full` does, so it shares `Full`'s plan.
    fn run(
        &mut self,
        input: &BlockedImage,
        level: DegradeLevel,
        exec: &dyn Executor,
    ) -> Result<(BlockedImage, Vec<ExecutionReport>), WinoError> {
        let level = match level {
            DegradeLevel::Mono if self.spec.opts.stage2 == Stage2Backend::Mono => DegradeLevel::Full,
            other => other,
        };
        let key = (input.batch, level as u8);
        if let std::collections::hash_map::Entry::Vacant(v) = self.plans.entry(key) {
            v.insert(plan_model(&self.spec, input.batch, self.threads, level)?);
        }
        if key != self.holder {
            let [Some(net), Some(held)] = self.plans.get_disjoint_mut([&key, &self.holder]) else {
                unreachable!("both plans are cached, under distinct keys")
            };
            held.lend_arena(net);
            self.holder = key;
        }
        let net = self.plans.get_mut(&key).expect("planned above");
        net.run_net_fx(input, &self.prepared, exec, &FallbackPolicy::default())
    }
}

/// Copy single-image requests into one contiguous batch (the blocked
/// layout is batch-outermost, so each image is one contiguous chunk of
/// `channels × spatial` floats).
#[cfg(test)]
fn assemble(batch: &[Pending], channels: usize, dims: &[usize]) -> BlockedImage {
    let mut img = BlockedImage::zeros(batch.len(), channels, dims)
        .expect("geometry validated at submit");
    fill_batch(&mut img, batch, channels);
    img
}

/// Copy requests into an already-allocated batch buffer. Every image
/// slot is fully overwritten, so a reused buffer carries no stale data.
fn fill_batch(img: &mut BlockedImage, batch: &[Pending], channels: usize) {
    let chunk = channels * img.spatial_volume();
    let dst = img.as_mut_slice();
    for (i, p) in batch.iter().enumerate() {
        dst[i * chunk..(i + 1) * chunk].copy_from_slice(p.input.as_slice());
    }
}

/// The batcher's one assembly buffer: re-viewed for every batch, grown
/// only by a batch larger than any before it (so at most to `max_batch`
/// images), so steady-state assembly allocates nothing. A refused buffer
/// is a typed error, which fails the batch.
fn assemble_cached<'a>(
    held: &'a mut Option<BlockedImage>,
    batch: &[Pending],
    channels: usize,
    dims: &[usize],
) -> Result<&'a BlockedImage, WinoError> {
    match held {
        Some(img) => img.try_reshape(batch.len(), channels, dims)?,
        None => *held = Some(BlockedImage::try_zeros(batch.len(), channels, dims)?),
    }
    let img = held.as_mut().expect("assembly buffer ensured above");
    fill_batch(img, batch, channels);
    Ok(img)
}

/// Slice image `i` back out of a batched output; a refused buffer is a
/// typed error, which fails that request alone.
fn split_one(out: &BlockedImage, i: usize) -> Result<BlockedImage, WinoError> {
    let mut img = BlockedImage::try_zeros(1, out.channels, &out.dims)?;
    let chunk = out.channels * out.spatial_volume();
    img.as_mut_slice().copy_from_slice(&out.as_slice()[i * chunk..(i + 1) * chunk]);
    Ok(img)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn batcher_main(
    shared: Arc<Shared>,
    mut engine: Engine,
    breaker_cfg: BreakerConfig,
    max_batch: usize,
    max_age: Duration,
    watchdog: Duration,
) {
    let channels = engine.spec.in_channels;
    let dims = engine.spec.image_dims.clone();
    let mut exec = WorkerExec::new(engine.threads, watchdog);
    let breaker = &shared.breaker;
    let mut batch_id: u64 = 0;
    let stats = &shared.stats;
    let mut assembly: Option<BlockedImage> = None;

    while let Some(batch) = shared.queue.pop_batch(max_batch, max_age) {
        // Shed requests whose deadline expired while they queued.
        let now = Instant::now();
        let (live, expired): (Vec<Pending>, Vec<Pending>) =
            batch.into_iter().partition(|p| p.deadline > now);
        for p in expired {
            Stats::bump(&stats.shed_deadline);
            let mut report = ServeReport::unserved(p.id, breaker.level());
            report.queue_wait_ms = ms(now - p.enqueued);
            report.total_ms = report.queue_wait_ms;
            p.resolve(ServeResponse {
                output: Err(ServeError::DeadlineExceeded { missed_by_ms: ms(now - p.deadline) }),
                report,
            });
        }
        if live.is_empty() {
            continue;
        }

        // ORDERING: Relaxed — advisory load-estimate output read by the
        // admission heuristic; staleness is tolerated by design.
        shared.in_flight.store(live.len(), Ordering::Relaxed);
        batch_id += 1;
        let assembled = assemble_cached(&mut assembly, &live, channels, &dims);
        let dispatch = Instant::now();
        let mut retries: u32 = 0;
        let outcome = match assembled {
            Err(e) => Err((e, breaker.level())),
            Ok(assembled) => loop {
                let level = breaker.level();
                Stats::bump(&stats.batches);
                // The pool already converts worker panics into typed
                // errors; this catch_unwind is the coordinator-side belt to
                // that suspender — a panic on the batcher thread itself
                // (e.g. from injected coordinator faults) must degrade into
                // a typed batch failure, not an abandoned queue.
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    engine.run(assembled, level, exec.executor())
                }))
                .unwrap_or_else(|_| {
                    Err(WinoError::Pool(PoolError::Panicked {
                        panics: vec![(0, "serve batcher panicked".into())],
                    }))
                });
                match attempt {
                    Ok((out, reports)) => {
                        if breaker.on_success() {
                            Stats::bump(&stats.breaker_recoveries);
                        }
                        break Ok((out, reports, level));
                    }
                    Err(e) => {
                        Stats::bump(&stats.batch_failures);
                        if breaker.on_failure() {
                            Stats::bump(&stats.breaker_trips);
                        }
                        if exec.heal() {
                            Stats::bump(&stats.pool_rebuilds);
                        }
                        if retries >= breaker_cfg.max_retries {
                            break Err((e, level));
                        }
                        retries += 1;
                        std::thread::sleep(breaker_cfg.backoff * retries);
                    }
                }
            },
        };
        let service_ms = ms(dispatch.elapsed());

        let make_report = |p: &Pending, level: DegradeLevel, layers: Vec<ExecutionReport>| {
            let finish = Instant::now();
            ServeReport {
                request_id: p.id,
                batch_id: Some(batch_id),
                batch_size: live.len(),
                queue_wait_ms: ms(dispatch - p.enqueued),
                service_ms,
                total_ms: ms(finish - p.enqueued),
                deadline_met: finish <= p.deadline && !layers.is_empty(),
                level,
                retries,
                layers,
            }
        };
        match outcome {
            Ok((out, reports, level)) => {
                for (i, p) in live.iter().enumerate() {
                    let (output, tally, layers) = match split_one(&out, i) {
                        Ok(img) => (Ok(img), &stats.completed, reports.clone()),
                        Err(e) => (Err(ServeError::Failed(Arc::new(e))), &stats.failed, Vec::new()),
                    };
                    // ORDERING: Relaxed — monotonic tally, no ordering contract.
                    tally.fetch_add(1, Ordering::Relaxed);
                    p.resolve(ServeResponse { output, report: make_report(p, level, layers) });
                }
            }
            Err((e, level)) => {
                let e = Arc::new(e);
                for p in live.iter() {
                    // ORDERING: Relaxed — monotonic tally, no ordering contract.
                    stats.failed.fetch_add(1, Ordering::Relaxed);
                    p.resolve(ServeResponse {
                        output: Err(ServeError::Failed(Arc::clone(&e))),
                        report: make_report(p, level, Vec::new()),
                    });
                }
            }
        }
        // ORDERING: Relaxed — advisory load-estimate output, as above.
        shared.in_flight.store(0, Ordering::Relaxed);
        // Republish this thread's monotonic allocation tally so tests
        // and reports can prove the hot path stopped allocating scratch.
        // ORDERING: Relaxed — single-writer statistics; readers only
        // compare successive values.
        stats.batcher_alloc_calls.store(wino_simd::thread_alloc_calls(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_conv::{LayerBackend, LayerSpec};
    use wino_tensor::SimpleKernels;

    fn spec_1layer() -> ModelSpec {
        ModelSpec::new(16, vec![6, 6], vec![LayerSpec::same(16, 2, 3, 2)])
    }

    fn kernels_for(spec: &ModelSpec) -> Vec<BlockedKernels> {
        spec.shapes(1)
            .unwrap()
            .iter()
            .map(|s| {
                let k = SimpleKernels::from_fn(
                    s.out_channels,
                    s.in_channels,
                    &s.kernel_dims,
                    |co, ci, xy| ((co * 7 + ci * 3 + xy.iter().sum::<usize>()) % 13) as f32 * 0.05,
                );
                BlockedKernels::from_simple(&k).unwrap()
            })
            .collect()
    }

    fn input() -> BlockedImage {
        let mut img = BlockedImage::zeros(1, 16, &[6, 6]).unwrap();
        for (i, v) in img.as_mut_slice().iter_mut().enumerate() {
            *v = ((i % 17) as f32 - 8.0) * 0.1;
        }
        img
    }

    #[test]
    fn serves_one_request_end_to_end() {
        let spec = spec_1layer();
        let kernels = kernels_for(&spec);
        let server = Server::start(spec, kernels, ServeOptions::default()).unwrap();
        let t = server.submit(input(), Duration::from_secs(30)).unwrap();
        let resp = t.wait();
        let out = resp.output.expect("healthy server must serve");
        assert_eq!((out.batch, out.channels, out.dims.as_slice()), (1, 16, &[6, 6][..]));
        assert!(resp.report.deadline_met);
        assert_eq!(resp.report.layers.len(), 1);
        assert_eq!(resp.report.level, DegradeLevel::Full);
        let stats = server.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn mono_model_shares_one_plan_between_full_and_mono_rungs() {
        let mut spec = spec_1layer();
        spec.opts.stage2 = Stage2Backend::Mono;
        let kernels = kernels_for(&spec);
        let mut engine = Engine::new(spec, kernels, 1).unwrap();
        let img = input();
        let (full, _) = engine.run(&img, DegradeLevel::Full, &SerialExecutor).unwrap();
        let (mono, _) = engine.run(&img, DegradeLevel::Mono, &SerialExecutor).unwrap();
        assert_eq!(full.as_slice(), mono.as_slice());
        assert_eq!(engine.plans.len(), 1, "a Mono model cached a second, identical plan");
    }

    #[test]
    fn im2col_rung_matches_winograd_rung() {
        let spec = spec_1layer();
        let kernels = kernels_for(&spec);
        let mut engine = Engine::new(spec, kernels, 1).unwrap();
        let img = input();
        let (full, _) = engine.run(&img, DegradeLevel::Full, &SerialExecutor).unwrap();
        let (base, reports) = engine.run(&img, DegradeLevel::Im2col, &SerialExecutor).unwrap();
        assert_eq!(reports[0].backend, LayerBackend::Im2col);
        let max_err = full
            .as_slice()
            .iter()
            .zip(base.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 1e-3, "ladder rungs disagree: max abs err {max_err}");
    }

    #[test]
    fn strided_spec_ladder_rungs_agree() {
        // A stride-2 spec: the Full rung runs the stride-1 Winograd plan
        // and keeps every second site, the bottom rung the geometry-aware
        // im2col baseline — same subsampled output, same convolution.
        let mut spec = spec_1layer();
        spec.opts = spec.opts.with_stride(&[2, 2]);
        let kernels = kernels_for(&spec);
        let mut engine = Engine::new(spec, kernels, 1).unwrap();
        let img = input();
        let (full, reports_full) = engine.run(&img, DegradeLevel::Full, &SerialExecutor).unwrap();
        assert_eq!(full.dims, vec![3, 3]); // (6 + 2 − 3)/2 + 1
        let engine_backend = match Stage2Backend::default() {
            Stage2Backend::Jit => LayerBackend::WinogradJit,
            Stage2Backend::Mono => LayerBackend::WinogradMono,
        };
        assert_eq!(reports_full[0].backend, engine_backend);
        let (base, reports) = engine.run(&img, DegradeLevel::Im2col, &SerialExecutor).unwrap();
        assert_eq!(base.dims, vec![3, 3]);
        assert_eq!(reports[0].backend, LayerBackend::Im2col);
        let max_err = full
            .as_slice()
            .iter()
            .zip(base.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 1e-3, "strided ladder rungs disagree: max abs err {max_err}");
    }

    #[test]
    fn one_prepared_set_serves_every_cached_plan() {
        // The kernels `Engine::new` transforms once, on the batch-1 JIT
        // plan, serve every `(batch, rung)` plan the batcher caches: bit
        // for bit a raw `run_net` on the Winograd rungs, with no kernel
        // transform in the batch; the same convolution on the im2col rung,
        // which reads the raw kernels.
        let mut spec = ModelSpec::new(
            16,
            vec![6, 6],
            vec![LayerSpec::same(32, 2, 3, 2), LayerSpec::same(16, 2, 3, 4)],
        );
        spec.opts.stage2 = wino_conv::Stage2Backend::Jit;
        let kernels = kernels_for(&spec);
        let mut engine = Engine::new(spec.clone(), kernels.clone(), 1).unwrap();
        let policy = FallbackPolicy::default();
        for batch in 1..=4 {
            let mut img = BlockedImage::zeros(batch, 16, &[6, 6]).unwrap();
            for (i, v) in img.as_mut_slice().iter_mut().enumerate() {
                *v = ((i % 23) as f32 - 11.0) * 0.05;
            }
            let raw = |level| {
                let mut net = plan_model(&spec, batch, 1, level).unwrap();
                net.run_net(&img, &kernels, &SerialExecutor, &policy).unwrap().0
            };
            let full = raw(DegradeLevel::Full);
            for level in [DegradeLevel::Full, DegradeLevel::Mono, DegradeLevel::Im2col] {
                let mut exec = wino_sched::ProbedExecutor::new(SerialExecutor);
                let (out, reports) = engine.run(&img, level, &exec).unwrap();
                let transforms = exec
                    .take_events()
                    .iter()
                    .filter(|e| e.category == wino_probe::SpanCategory::KernelTransform)
                    .count();
                let case = format!("batch {batch}, {level:?}");
                if level == DegradeLevel::Im2col {
                    assert!(reports.iter().all(|r| r.backend == LayerBackend::Im2col), "{case}");
                    let err = full.as_slice().iter().zip(out.as_slice()).map(|(a, b)| (a - b).abs());
                    let max_err = err.fold(0.0f32, f32::max);
                    assert!(max_err < 1e-3, "{case}: max abs err {max_err}");
                } else {
                    assert_eq!(out.as_slice(), raw(level).as_slice(), "{case}");
                    assert_eq!(transforms, 0, "{case}: a cached plan transformed kernels");
                }
            }
        }
    }

    #[test]
    fn batch_assembly_round_trips() {
        let mut a = BlockedImage::zeros(1, 16, &[2, 2]).unwrap();
        let mut b = BlockedImage::zeros(1, 16, &[2, 2]).unwrap();
        a.as_mut_slice().fill(1.0);
        b.as_mut_slice().fill(2.0);
        let now = Instant::now();
        let mk = |img: BlockedImage, id| Pending {
            id,
            input: img,
            enqueued: now,
            deadline: now + Duration::from_secs(1),
            slot: Slot::new(),
        };
        let batch = vec![mk(a, 1), mk(b, 2)];
        let asm = assemble(&batch, 16, &[2, 2]);
        assert_eq!(asm.batch, 2);
        let back0 = split_one(&asm, 0).unwrap();
        let back1 = split_one(&asm, 1).unwrap();
        assert!(back0.as_slice().iter().all(|&v| v == 1.0));
        assert!(back1.as_slice().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn steady_state_hot_path_allocates_outputs_only() {
        let spec = spec_1layer();
        let kernels = kernels_for(&spec);
        let server = Server::start(spec, kernels, ServeOptions::default()).unwrap();
        // Warm-up: the first request allocates the network's resident
        // activations and builds the assembly buffer (`Server::start`
        // planned the network, seeded its scratch and prepared the
        // kernels every batch runs FX on).
        // One request, then the batcher's tally once it has moved past
        // `prev`: the batcher republishes it after it has resolved the
        // batch, so wait for the new value instead of racing the store.
        let serve_one = |prev: u64| {
            server.submit(input(), Duration::from_secs(30)).unwrap().wait().output.unwrap();
            let waited = Instant::now();
            loop {
                let now = server.stats().batcher_alloc_calls;
                if now != prev || waited.elapsed() > Duration::from_secs(5) {
                    return now;
                }
                std::thread::yield_now();
            }
        };
        let mut last = serve_one(0);
        assert!(last > 0, "warm-up must have allocated");
        // Steady state: every round costs exactly the unavoidable
        // output buffers — one engine output (single layer) plus one
        // per-request split — and nothing else. A reallocating scratch
        // arena or assembly buffer would show up as a larger delta.
        for round in 0..6 {
            let now = serve_one(last);
            assert_eq!(now - last, 2, "round {round} allocated scratch on the hot path");
            last = now;
        }
        server.shutdown();
    }

    /// Two layers, so one activation is parked between them.
    fn spec_2layer() -> ModelSpec {
        ModelSpec::new(16, vec![6, 6], vec![LayerSpec::same(32, 2, 3, 2), LayerSpec::same(16, 2, 3, 4)])
    }

    /// The batch sizes the alternation tests prime, then alternate.
    const PRIME: [usize; 4] = [1, 2, 3, 4];
    const ALTERNATE: [usize; 5] = [1, 4, 2, 4, 1];

    #[test]
    fn alternating_batch_sizes_allocate_outputs_only() {
        let spec = spec_2layer();
        let kernels = kernels_for(&spec);
        // A batch closes when four requests are in or 200 ms after pickup:
        // a burst of `b` submissions rides as one batch of `b`.
        let opts =
            ServeOptions { max_batch: 4, max_batch_age: Duration::from_millis(200), ..Default::default() };
        let server = Server::start(spec, kernels, opts).unwrap();
        let round = |b: usize, prev: u64| {
            let tickets: Vec<_> =
                (0..b).map(|_| server.submit(input(), Duration::from_secs(30)).unwrap()).collect();
            for t in tickets {
                let resp = t.wait();
                assert_eq!(resp.report.batch_size, b, "a burst of {b} rode as one batch");
                resp.output.unwrap();
            }
            let waited = Instant::now();
            loop {
                let now = server.stats().batcher_alloc_calls;
                if now != prev || waited.elapsed() > Duration::from_secs(5) {
                    return now;
                }
                std::thread::yield_now();
            }
        };
        let mut last = 0;
        for b in PRIME {
            last = round(b, last);
        }
        // Every batch size has run: the arena and the assembly buffer are
        // as large as batch 4 needs, and a round of any size allocates the
        // engine output and one split per request — nothing else.
        for b in ALTERNATE {
            let now = round(b, last);
            assert_eq!(now - last, 1 + b as u64, "a batch of {b} allocated more than its outputs");
            last = now;
        }
        server.shutdown();
    }

    #[test]
    fn cached_plans_share_one_arena_as_large_as_the_largest_batch_needs() {
        let spec = spec_2layer();
        let kernels = kernels_for(&spec);
        let mut engine = Engine::new(spec.clone(), kernels, 1).unwrap();
        let batch = |b| {
            let mut img = BlockedImage::zeros(b, 16, &[6, 6]).unwrap();
            for (i, v) in img.as_mut_slice().iter_mut().enumerate() {
                *v = ((i % 19) as f32 - 9.0) * 0.05;
            }
            img
        };
        let arena = |engine: &Engine| engine.plans[&engine.holder].scratch_bytes();
        for b in PRIME {
            engine.run(&batch(b), DegradeLevel::Full, &SerialExecutor).unwrap();
        }
        // Each batch size's own arena, as a network planned and run alone
        // holds it.
        let alone: Vec<usize> = PRIME
            .iter()
            .map(|&b| {
                let mut net = plan_model(&spec, b, 1, DegradeLevel::Full).unwrap();
                net.run_net_fx(&batch(b), &engine.prepared, &SerialExecutor, &FallbackPolicy::default()).unwrap();
                net.scratch_bytes()
            })
            .collect();
        let primed = arena(&engine);
        assert_eq!(primed, *alone.iter().max().unwrap(), "the largest batch's arena");
        assert!(primed < alone.iter().sum::<usize>());
        let held: usize = engine.plans.values().map(Network::scratch_bytes).sum();
        assert_eq!(held, primed, "the other cached plans hold nothing");
        for b in ALTERNATE {
            engine.run(&batch(b), DegradeLevel::Full, &SerialExecutor).unwrap();
            assert_eq!((engine.holder, arena(&engine)), ((b, DegradeLevel::Full as u8), primed));
        }
    }

    #[test]
    fn rejects_mismatched_request_shapes() {
        let spec = spec_1layer();
        let kernels = kernels_for(&spec);
        let server = Server::start(spec, kernels, ServeOptions::default()).unwrap();
        let wrong = BlockedImage::zeros(1, 32, &[6, 6]).unwrap();
        match server.submit(wrong, Duration::from_secs(1)) {
            Err(ServeError::Failed(e)) => {
                assert!(matches!(*e, WinoError::Shape(_)), "got {e}")
            }
            other => panic!("expected shape failure, got {other:?}", other = other.err()),
        }
        let wrong_rank = BlockedImage::zeros(1, 16, &[6, 6, 6]).unwrap();
        assert!(server.submit(wrong_rank, Duration::from_secs(1)).is_err());
        let batch_2 = BlockedImage::zeros(2, 16, &[6, 6]).unwrap();
        assert!(server.submit(batch_2, Duration::from_secs(1)).is_err());
        // Each rejection is booked as failed, so the tallies still sum to
        // `submitted`.
        let stats = server.shutdown();
        assert_eq!((stats.submitted, stats.admitted, stats.failed), (3, 0, 3));
    }
}
