//! End-to-end serving tests through the `winograd_nd_repro::serve`
//! facade: queue edge cases (capacity 0, batch of 1, expired deadlines,
//! shutdown drain), admission control, outcome conservation under
//! concurrent producers — and, behind `--features fault-inject`, the
//! full containment story: injected worker panics, barrier stalls and
//! poisoned stages against a live server.

use std::time::Duration;

use winograd_nd_repro::baseline::direct_f64_geo;
use winograd_nd_repro::conv::{ConvOptions, LayerBackend, LayerSpec, Stage2Backend};
use winograd_nd_repro::serve::{ModelSpec, ServeError, ServeOptions, Server, ServiceModel, Ticket};
use winograd_nd_repro::tensor::{BlockedImage, BlockedKernels, SimpleImage, SimpleKernels};

/// With `fault-inject` compiled in, every forward consults the
/// process-global armed faults, so a plain test that runs the engine
/// while a `faults` test has one armed would consume it. Each test
/// therefore holds the fault lock for its duration.
fn engine_lock() -> Option<std::sync::MutexGuard<'static, ()>> {
    #[cfg(feature = "fault-inject")]
    {
        Some(winograd_nd_repro::sched::fault::test_lock())
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        None
    }
}

fn model() -> (ModelSpec, Vec<BlockedKernels>) {
    let spec = ModelSpec::new(16, vec![6, 6], vec![LayerSpec::same(16, 2, 3, 2)]);
    let kernels = spec
        .shapes(1)
        .unwrap()
        .iter()
        .map(|s| {
            let k = SimpleKernels::from_fn(s.out_channels, s.in_channels, &s.kernel_dims, |co, ci, xy| {
                ((co * 7 + ci * 3 + xy.iter().sum::<usize>()) % 13) as f32 * 0.05
            });
            BlockedKernels::from_simple(&k).unwrap()
        })
        .collect();
    (spec, kernels)
}

fn request() -> BlockedImage {
    let mut img = BlockedImage::zeros(1, 16, &[6, 6]).unwrap();
    for (i, v) in img.as_mut_slice().iter_mut().enumerate() {
        *v = ((i % 19) as f32 - 9.0) * 0.07;
    }
    img
}

/// A capacity-0 queue (drain/maintenance mode) sheds every request with
/// the typed back-pressure error — and still shuts down cleanly.
#[test]
fn capacity_zero_sheds_every_request() {
    let _engine = engine_lock();
    let (spec, kernels) = model();
    let opts = ServeOptions { queue_capacity: 0, ..Default::default() };
    let server = Server::start(spec, kernels, opts).unwrap();
    for _ in 0..3 {
        match server.submit(request(), Duration::from_secs(10)) {
            Err(ServeError::Overloaded { depth, capacity }) => {
                assert_eq!((depth, capacity), (0, 0));
            }
            other => panic!("expected Overloaded, got {:?}", other.err()),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.shed_overload, 3);
    assert_eq!(stats.admitted, 0);
    assert_eq!(stats.completed, 0);
}

/// The smallest possible batch: one request, served alone, with full
/// per-request accounting.
#[test]
fn batch_of_one_is_served_with_accounting() {
    let _engine = engine_lock();
    let (spec, kernels) = model();
    let server = Server::start(spec, kernels, ServeOptions::default()).unwrap();
    let ticket = server.submit(request(), Duration::from_secs(30)).unwrap();
    let id = ticket.request_id();
    let resp = ticket.wait();
    let out = resp.output.expect("healthy server must serve");
    assert_eq!((out.batch, out.channels), (1, 16));
    assert_eq!(resp.report.request_id, id);
    assert_eq!(resp.report.batch_size, 1);
    assert!(resp.report.batch_id.is_some());
    assert!(resp.report.deadline_met);
    assert!(resp.report.total_ms >= resp.report.service_ms);
    assert_eq!(resp.report.layers.len(), 1);
    let stats = server.shutdown();
    assert_eq!((stats.completed, stats.failed), (1, 0));
}

/// A deadline that has already passed at enqueue is shed immediately —
/// no ticket, no queue slot consumed.
#[test]
fn deadline_expired_at_enqueue_is_shed() {
    let _engine = engine_lock();
    let (spec, kernels) = model();
    let server = Server::start(spec, kernels, ServeOptions::default()).unwrap();
    match server.submit(request(), Duration::ZERO) {
        Err(ServeError::DeadlineExceeded { missed_by_ms }) => assert!(missed_by_ms >= 0.0),
        other => panic!("expected DeadlineExceeded, got {:?}", other.err()),
    }
    assert_eq!(server.queue_depth(), 0);
    let stats = server.shutdown();
    assert_eq!(stats.shed_deadline, 1);
    assert_eq!(stats.admitted, 0);
}

/// Admission control with an absurdly slow service model predicts a
/// miss for any finite deadline and sheds with the estimate attached.
#[test]
fn predictive_admission_sheds_with_typed_estimate() {
    let _engine = engine_lock();
    let (spec, kernels) = model();
    let opts = ServeOptions {
        service: Some(ServiceModel::from_measurement(1e6, 0.0)),
        ..Default::default()
    };
    let server = Server::start(spec, kernels, opts).unwrap();
    match server.submit(request(), Duration::from_secs(5)) {
        Err(e @ ServeError::PredictedMiss { estimated_ms, budget_ms }) => {
            assert!(estimated_ms > budget_ms);
            assert!(e.is_shed());
        }
        other => panic!("expected PredictedMiss, got {:?}", other.err()),
    }
    let stats = server.shutdown();
    assert_eq!(stats.shed_predicted, 1);
}

/// Requests queued at shutdown are drained and served, not dropped:
/// every ticket resolves with an output.
#[test]
fn shutdown_drains_queued_requests() {
    let _engine = engine_lock();
    let (spec, kernels) = model();
    let opts = ServeOptions { max_batch: 2, ..Default::default() };
    let server = Server::start(spec, kernels, opts).unwrap();
    let tickets: Vec<_> = (0..8)
        .map(|_| server.submit(request(), Duration::from_secs(60)).unwrap())
        .collect();
    let stats = server.shutdown();
    for t in tickets {
        let resp = t.wait();
        assert!(resp.output.is_ok(), "drained request must be served: {:?}", resp.output.err());
    }
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.failed, 0);
}

/// Size-triggered batching: requests submitted back-to-back coalesce
/// into one batch that closes as soon as `max_batch` is reached.
#[test]
fn requests_coalesce_into_one_batch() {
    let _engine = engine_lock();
    let (spec, kernels) = model();
    let opts = ServeOptions {
        max_batch: 4,
        max_batch_age: Duration::from_millis(300),
        ..Default::default()
    };
    let server = Server::start(spec, kernels, opts).unwrap();
    let tickets: Vec<_> = (0..4)
        .map(|_| server.submit(request(), Duration::from_secs(30)).unwrap())
        .collect();
    let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    for r in &responses {
        assert!(r.output.is_ok());
    }
    let max_size = responses.iter().map(|r| r.report.batch_size).max().unwrap();
    assert!(max_size >= 2, "back-to-back submissions must coalesce, got max batch {max_size}");
    let stats = server.shutdown();
    assert_eq!(stats.completed, 4);
    assert!(stats.batches <= 3, "coalescing must not dispatch one batch per request");
}

/// Batched serving of a *strided* model: stride-2 layers run their
/// stride-1 Winograd plan plus the subsample, requests still coalesce into
/// batches, every response carries the strided output geometry, and
/// each de-batched output matches the f64 geometry oracle.
#[test]
fn strided_model_serves_batched_requests() {
    let _engine = engine_lock();
    let mut spec = ModelSpec::new(16, vec![8, 8], vec![LayerSpec::same(16, 2, 3, 2)]);
    spec.opts = ConvOptions::default().with_stride(&[2, 2]);
    assert_eq!(spec.output_geometry().unwrap(), (16, vec![4, 4]));

    let ker_simple = SimpleKernels::from_fn(16, 16, &[3, 3], |co, ci, xy| {
        ((co * 7 + ci * 3 + xy.iter().sum::<usize>()) % 13) as f32 * 0.05 - 0.2
    });
    let kernels = vec![BlockedKernels::from_simple(&ker_simple).unwrap()];
    let geo = spec.opts.geometry(2);

    let opts = ServeOptions {
        max_batch: 4,
        max_batch_age: Duration::from_millis(300),
        ..Default::default()
    };
    let server = Server::start(spec, kernels, opts).unwrap();

    let images: Vec<SimpleImage> = (0..4)
        .map(|i| {
            SimpleImage::from_fn(1, 16, &[8, 8], move |_, c, xy| {
                ((c * 5 + xy[0] * 3 + xy[1] + i * 31) % 17) as f32 * 0.06 - 0.4
            })
        })
        .collect();
    let tickets: Vec<_> = images
        .iter()
        .map(|img| {
            let input = BlockedImage::from_simple(img).unwrap();
            server.submit(input, Duration::from_secs(30)).unwrap()
        })
        .collect();
    let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    let max_size = responses.iter().map(|r| r.report.batch_size).max().unwrap();
    assert!(max_size >= 2, "strided requests must still coalesce, got max batch {max_size}");

    for (img, resp) in images.iter().zip(&responses) {
        let out = resp.output.as_ref().expect("healthy server must serve strided layers");
        assert_eq!((out.batch, out.channels, out.dims.as_slice()), (1, 16, &[4, 4][..]));
        assert_eq!(resp.report.layers.len(), 1);
        let engine = match Stage2Backend::default() {
            Stage2Backend::Jit => LayerBackend::WinogradJit,
            Stage2Backend::Mono => LayerBackend::WinogradMono,
        };
        assert_eq!(resp.report.layers[0].backend, engine, "full rung must execute the Winograd engine");
        // De-batched output vs the f64 oracle (ReLU applied, as the
        // layer spec asks for).
        let mut truth = direct_f64_geo(img, &ker_simple, &[1, 1], &geo);
        for v in &mut truth.data {
            *v = v.max(0.0);
        }
        let got = out.to_simple();
        let max_err = got
            .data
            .iter()
            .zip(&truth.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 1e-3, "served strided output diverged: max err {max_err}");
    }
    let stats = server.shutdown();
    assert_eq!((stats.completed, stats.failed), (4, 0));
}

/// Conservation under concurrent producers and a tight queue: every
/// submission resolves to exactly one typed outcome, and the client-side
/// tallies reconcile with the server's — once with producers that wait on
/// each ticket before the next submission, once with producers that hoard
/// tickets (submit the whole burst before waiting), which keeps the queue
/// full and the shedding paths busy while admitted work drains.
#[test]
fn every_submission_resolves_to_exactly_one_outcome() {
    let _engine = engine_lock();
    for hoard in [false, true] {
        let (spec, kernels) = model();
        let opts = ServeOptions { queue_capacity: 4, ..Default::default() };
        let server = std::sync::Arc::new(Server::start(spec, kernels, opts).unwrap());

        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 32;
        let mut handles = Vec::new();
        for _ in 0..PRODUCERS {
            let server = std::sync::Arc::clone(&server);
            handles.push(std::thread::spawn(move || {
                let (mut tickets, mut ok, mut shed) = (Vec::new(), 0u64, 0u64);
                let mut serve = |t: Ticket| {
                    let resp = t.wait();
                    assert!(resp.output.is_ok(), "healthy server: {:?}", resp.output.err());
                    ok += 1;
                };
                for _ in 0..PER_PRODUCER {
                    match server.submit(request(), Duration::from_secs(30)) {
                        Ok(t) if hoard => tickets.push(t),
                        Ok(t) => serve(t),
                        Err(e) => {
                            assert!(e.is_shed(), "only load shedding is acceptable: {e}");
                            shed += 1;
                        }
                    }
                }
                tickets.into_iter().for_each(serve);
                (ok, shed)
            }));
        }
        let (mut ok, mut shed) = (0u64, 0u64);
        for h in handles {
            let (o, s) = h.join().unwrap();
            ok += o;
            shed += s;
        }
        let server = std::sync::Arc::into_inner(server).expect("all producers joined");
        let stats = server.shutdown();
        let case = format!("hoard={hoard}");
        assert_eq!(ok + shed, (PRODUCERS * PER_PRODUCER) as u64, "{case}");
        assert_eq!(stats.submitted, ok + shed, "{case}");
        assert_eq!(stats.completed, ok, "{case}");
        assert_eq!(
            stats.shed_overload + stats.shed_deadline + stats.shed_predicted,
            shed,
            "{case}: client and server shed tallies must reconcile"
        );
        assert_eq!(stats.failed, 0, "{case}");
        assert!(ok > 0, "{case}: shedding must not wedge the server");
    }
}

/// Fault-injected serving scenarios. The armed fault is process-global,
/// so each test serialises via `fault::test_lock` and disarms on entry
/// and exit (same discipline as `tests/fault_injection.rs`).
#[cfg(feature = "fault-inject")]
mod faults {
    use super::*;
    use winograd_nd_repro::sched::fault::{self, When};
    use winograd_nd_repro::serve::{BreakerConfig, DegradeLevel};

    const THREADS: usize = 4;

    fn pooled_opts() -> ServeOptions {
        ServeOptions { threads: THREADS, ..Default::default() }
    }

    /// Allocation refusals injected into the live batcher thread: the
    /// engine's memory ladder absorbs them (re-tile, then im2col), so
    /// requests keep completing, nothing aborts, and every outcome is
    /// still conserved.
    #[test]
    fn injected_allocator_failures_mid_serve_do_not_abort() {
        use winograd_nd_repro::simd::fault as mem_fault;

        let _guard = fault::test_lock();
        fault::reset();
        mem_fault::reset();

        let (spec, kernels) = model();
        let server = Server::start(spec, kernels, ServeOptions::default()).unwrap();
        // Fail every 5th batcher allocation, enough shots to straddle
        // many batches. Waiting each ticket keeps the schedule
        // deterministic enough that shots land across distinct batches.
        mem_fault::arm_fail_every(5, 16);
        const REQUESTS: usize = 32;
        let mut completed = 0u64;
        let mut failed = 0u64;
        for _ in 0..REQUESTS {
            let resp = server.submit(request(), Duration::from_secs(30)).unwrap().wait();
            match resp.output {
                Ok(_) => completed += 1,
                Err(ServeError::Failed(_)) => failed += 1,
                Err(e) => panic!("admitted requests resolve served or Failed, got {e}"),
            }
        }
        let landed = mem_fault::injected_failures();
        mem_fault::reset();
        let stats = server.shutdown();
        assert!(landed > 0, "the armed injector must have hit the batcher");
        assert_eq!(completed + failed, REQUESTS as u64, "every ticket resolves exactly once");
        assert_eq!(stats.completed, completed);
        assert_eq!(stats.failed, failed);
        assert!(completed > 0, "the ladder must keep the server serving under pressure");

        fault::reset();
    }

    /// The batcher's own buffers are allocated fallibly too. A refused
    /// assembly buffer fails its batch; a refused response copy fails its
    /// request alone, typed, and the next request is served. Neither
    /// aborts the process or moves the breaker, and the tallies reconcile.
    #[test]
    fn refused_batcher_buffers_fail_their_requests_typed() {
        use winograd_nd_repro::conv::WinoError;
        use winograd_nd_repro::simd::fault as mem_fault;

        let _guard = fault::test_lock();
        fault::reset();
        mem_fault::reset();
        let serve = |server: &Server| server.submit(request(), Duration::from_secs(30)).unwrap().wait();
        let refused = |r: Result<BlockedImage, ServeError>| {
            matches!(r, Err(ServeError::Failed(e)) if matches!(*e, WinoError::Alloc(_)))
        };

        let (spec, kernels) = model();
        let server = Server::start(spec, kernels, ServeOptions::default()).unwrap();
        // A fresh batcher's first allocation is the batch's assembly buffer.
        mem_fault::arm_fail_every(1, 1);
        assert!(refused(serve(&server).output), "a refused assembly buffer fails the batch");
        assert_eq!(mem_fault::injected_failures(), 1);
        // Warm, a round allocates the engine output, then the response copy.
        for _ in 0..2 {
            assert!(serve(&server).output.is_ok());
        }
        mem_fault::arm_fail_every(2, 1);
        let resp = serve(&server);
        assert!(resp.report.layers.is_empty() && !resp.report.deadline_met);
        assert!(refused(resp.output), "a refused response copy fails its request");
        assert!(serve(&server).output.is_ok(), "the next request is served");
        assert_eq!(mem_fault::injected_failures(), 1, "re-arming restarts the tally");
        mem_fault::reset();
        let stats = server.shutdown();
        assert_eq!((stats.submitted, stats.admitted), (5, 5));
        assert_eq!((stats.completed, stats.failed), (3, 2));
        assert_eq!(stats.level, DegradeLevel::Full, "neither refusal is an engine failure");

        fault::reset();
    }

    /// An injected worker panic fails one batch attempt; the bounded
    /// in-batch retry serves the request anyway. The caller sees a clean
    /// result — the fault is visible only in the failure tallies.
    #[test]
    fn injected_panic_is_retried_and_request_completes() {
        let _guard = fault::test_lock();
        fault::reset();

        let (spec, kernels) = model();
        let server = Server::start(spec, kernels, pooled_opts()).unwrap();
        fault::arm_panic(2, When::Next);
        let resp = server.submit(request(), Duration::from_secs(30)).unwrap().wait();
        assert!(resp.output.is_ok(), "retry must absorb the panic: {:?}", resp.output.err());
        assert!(resp.report.retries >= 1, "the fault must have cost at least one retry");
        let stats = server.shutdown();
        assert_eq!((stats.completed, stats.failed), (1, 0));
        assert!(stats.batch_failures >= 1);

        fault::reset();
    }

    /// With retries disabled and a hair-trigger breaker, a single
    /// injected panic becomes a typed `Failed` outcome, trips the
    /// breaker one rung down — and the next clean request is served
    /// degraded, whose success climbs the ladder back up.
    #[test]
    fn breaker_trips_on_failure_and_recovers_on_success() {
        let _guard = fault::test_lock();
        fault::reset();

        let (spec, kernels) = model();
        let opts = ServeOptions {
            breaker: BreakerConfig {
                trip_threshold: 1,
                recovery_threshold: 1,
                max_retries: 0,
                backoff: Duration::from_millis(1),
            },
            ..pooled_opts()
        };
        let server = Server::start(spec, kernels, opts).unwrap();

        fault::arm_panic(1, When::Next);
        let resp = server.submit(request(), Duration::from_secs(30)).unwrap().wait();
        match resp.output {
            Err(ServeError::Failed(e)) => {
                assert!(
                    matches!(*e, winograd_nd_repro::conv::WinoError::Pool(_)),
                    "the contained panic must surface as a pool error: {e}"
                );
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(server.level(), DegradeLevel::Mono, "one failure must trip one rung");

        // The next clean request executes on the degraded rung; its
        // success promotes the breaker back to Full.
        let resp = server.submit(request(), Duration::from_secs(30)).unwrap().wait();
        assert!(resp.output.is_ok());
        assert_eq!(resp.report.level, DegradeLevel::Mono);
        assert_eq!(server.level(), DegradeLevel::Full);

        let stats = server.shutdown();
        assert_eq!((stats.completed, stats.failed), (1, 1));
        assert_eq!(stats.breaker_trips, 1);
        assert_eq!(stats.breaker_recoveries, 1);

        fault::reset();
    }

    /// A stalled worker trips the barrier watchdog, poisoning the pool;
    /// the server health-checks, rebuilds it and serves the request on
    /// retry — the caller never notices.
    #[test]
    fn barrier_stall_rebuilds_pool_and_request_completes() {
        let _guard = fault::test_lock();
        fault::reset();

        let (spec, kernels) = model();
        let opts = ServeOptions { watchdog: Some(Duration::from_millis(150)), ..pooled_opts() };
        let server = Server::start(spec, kernels, opts).unwrap();

        fault::arm_stall(1, When::Next, Duration::from_millis(800));
        let resp = server.submit(request(), Duration::from_secs(30)).unwrap().wait();
        assert!(resp.output.is_ok(), "rebuild + retry must serve: {:?}", resp.output.err());
        let stats = server.shutdown();
        assert_eq!((stats.completed, stats.failed), (1, 0));
        assert!(stats.pool_rebuilds >= 1, "the poisoned pool must have been rebuilt");
        assert!(stats.batch_failures >= 1);

        fault::reset();
    }

    /// A poisoned Winograd stage is absorbed *inside* the engine (numeric
    /// guard → im2col rescue): the request completes on the first attempt
    /// with the fallback recorded per layer, and the breaker never sees a
    /// failure.
    #[test]
    fn poisoned_stage_is_absorbed_below_the_breaker() {
        let _guard = fault::test_lock();
        fault::reset();

        let (spec, kernels) = model();
        let server = Server::start(spec, kernels, pooled_opts()).unwrap();
        fault::arm_poison_stage(2);
        let resp = server.submit(request(), Duration::from_secs(30)).unwrap().wait();
        assert!(resp.output.is_ok());
        assert_eq!(resp.report.retries, 0, "the engine's own rescue needs no batch retry");
        assert_eq!(resp.report.layers[0].backend, winograd_nd_repro::conv::LayerBackend::Im2col);
        assert!(matches!(
            resp.report.layers[0].fallback,
            Some(winograd_nd_repro::conv::FallbackReason::NumericGuard(_))
        ));
        let stats = server.shutdown();
        assert_eq!((stats.completed, stats.failed), (1, 0));
        assert_eq!(stats.batch_failures, 0);
        assert_eq!(stats.breaker_trips, 0);

        fault::reset();
    }
}
