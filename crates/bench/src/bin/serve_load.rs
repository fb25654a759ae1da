//! Open-loop load generator for the serving layer — the overload gate's
//! evidence, printed to stderr as `#` lines.
//!
//! Open-loop means arrivals follow a fixed schedule regardless of
//! completions (the standard way to expose coordinated omission): the
//! generator fires `--requests` single-image requests at `--load` times
//! the measured sustainable rate, each with a `--deadline-ms` deadline,
//! and tallies the typed outcome of every one. Nothing is allowed to
//! disappear: every request either completes or carries a
//! `ServeError`.
//!
//! ```text
//! cargo run -p wino-bench --release --bin serve_load -- \
//!     [--requests N] [--threads N] [--deadline-ms D] [--load F] \
//!     [--queue N] [--max-batch N] [--watchdog-ms W] [--memory-ceiling-mib M] [--soak]
//! ```
//!
//! `--soak` (requires the `fault-inject` feature) arms worker panics,
//! barrier stalls and stage poisoning on a fixed cadence through the
//! first half of the run, then drives a fault-free recovery tail and
//! asserts: no escaped panic, all shed/failed requests carry typed
//! errors, the breaker tripped and recovered to `full`, the pool was
//! rebuilt, and the admitted p99 stayed within the deadline.

use std::time::{Duration, Instant};

use wino_bench::{make_executor, Args};
use wino_conv::{FallbackPolicy, LayerSpec, Network};
use wino_serve::{
    BreakerConfig, DegradeLevel, ModelSpec, ServeError, ServeOptions, Server, ServiceModel, Ticket,
};
use wino_tensor::{BlockedImage, BlockedKernels, SimpleKernels};

/// The served workload: two 3×3 "same" layers on 16-channel 12×12
/// images — small enough that a 10k-request soak finishes in seconds,
/// real enough to exercise every pipeline stage.
fn model_spec() -> ModelSpec {
    ModelSpec::new(
        16,
        vec![12, 12],
        vec![LayerSpec::same(16, 2, 3, 2), LayerSpec::same(16, 2, 3, 2)],
    )
}

fn model_kernels(spec: &ModelSpec) -> Vec<BlockedKernels> {
    spec.shapes(1)
        .expect("workload geometry is valid")
        .iter()
        .map(|s| {
            let k = SimpleKernels::from_fn(s.out_channels, s.in_channels, &s.kernel_dims, |co, ci, xy| {
                ((co * 7 + ci * 3 + xy.iter().sum::<usize>()) % 13) as f32 * 0.05 - 0.3
            });
            BlockedKernels::from_simple(&k).expect("workload kernels are blockable")
        })
        .collect()
}

fn request_image(i: usize) -> BlockedImage {
    let mut img = BlockedImage::zeros(1, 16, &[12, 12]).expect("request geometry is valid");
    for (j, v) in img.as_mut_slice().iter_mut().enumerate() {
        *v = (((i * 31 + j) % 19) as f32 - 9.0) * 0.07;
    }
    img
}

/// Measure the real batch-1 service time of the workload — admission
/// prices with it and the offered load is scaled from it — on the path
/// the server runs: FX on one set of kernels prepared once.
fn measure_per_image_ms(spec: &ModelSpec, kernels: &[BlockedKernels], threads: usize) -> f64 {
    let policy = FallbackPolicy::default();
    let mut net = Network::with_policy(
        1,
        spec.in_channels,
        &spec.image_dims,
        &spec.layers,
        spec.opts,
        threads,
        &policy,
    )
    .expect("workload must plan");
    // Measure with the same executor shape the server will use — the
    // fork–join launch cost dominates at this layer size, so a serial
    // measurement would overstate sustainable throughput badly.
    let exec: Box<dyn wino_sched::Executor> = if threads <= 1 {
        Box::new(wino_sched::SerialExecutor)
    } else {
        Box::new(wino_sched::StaticExecutor::new(threads))
    };
    let prepared = net.prepare_kernels(kernels, exec.as_ref()).expect("workload kernels prepare");
    let input = request_image(0);
    // One warmup, then best-of-5.
    let mut best = f64::INFINITY;
    for _ in 0..6 {
        let t = Instant::now();
        let out = net
            .run_net_fx(&input, &prepared, exec.as_ref(), &policy)
            .expect("warmup run failed");
        std::hint::black_box(out.0.as_slice().first());
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best.max(1e-3)
}

/// Pace the open loop: wait until `at`, sleeping coarsely and spinning
/// the final stretch (sleep granularity is far above sub-ms
/// inter-arrival gaps).
fn pace_until(at: Instant) {
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        let left = at - now;
        if left > Duration::from_micros(500) {
            std::thread::sleep(left - Duration::from_micros(300));
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(feature = "fault-inject")]
fn arm_fault(round: usize, threads: usize, stall: Duration) {
    use wino_sched::fault;
    match round % 3 {
        0 => fault::arm_panic(1 % threads.max(1), fault::When::Next),
        1 => fault::arm_stall(1 % threads.max(1), fault::When::Next, stall),
        _ => fault::arm_poison_stage(2),
    }
}

#[derive(Default)]
struct Tally {
    completed: u64,
    completed_in_deadline: u64,
    failed: u64,
    shed_overload: u64,
    shed_deadline: u64,
    shed_predicted: u64,
    shed_memory: u64,
    shut_down: u64,
    latencies_ms: Vec<f64>,
}

impl Tally {
    fn record_rejection(&mut self, e: &ServeError) {
        match e {
            ServeError::Overloaded { .. } => self.shed_overload += 1,
            ServeError::DeadlineExceeded { .. } => self.shed_deadline += 1,
            ServeError::PredictedMiss { .. } => self.shed_predicted += 1,
            ServeError::MemoryPressure { .. } => self.shed_memory += 1,
            ServeError::ShutDown => self.shut_down += 1,
            ServeError::Failed(_) => self.failed += 1,
        }
    }

    fn record_response(&mut self, resp: wino_serve::ServeResponse) {
        match &resp.output {
            Ok(_) => {
                self.completed += 1;
                if resp.report.deadline_met {
                    self.completed_in_deadline += 1;
                }
                self.latencies_ms.push(resp.report.total_ms);
            }
            Err(e) => self.record_rejection(e),
        }
    }

    fn percentile(&self, p: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        let mut v = self.latencies_ms.clone();
        v.sort_by(f64::total_cmp);
        let idx = ((v.len() as f64 - 1.0) * p).round() as usize;
        v[idx.min(v.len() - 1)]
    }

}

fn main() {
    let args = Args::from_env();
    let soak = args.flag("--soak");
    if soak && !cfg!(feature = "fault-inject") {
        eprintln!(
            "error: --soak needs the injection hooks.\nRebuild with: cargo run -p wino-bench \
             --release --features fault-inject --bin serve_load -- --soak"
        );
        std::process::exit(2);
    }
    let requests = args.usize_or("--requests", if soak { 10_000 } else { 2_000 });
    // The soak's deadline budgets for a full queue drain *plus* an
    // injected stall riding the queue wait of everyone behind it.
    let deadline_ms = args.usize_or("--deadline-ms", if soak { 1000 } else { 500 }) as f64;
    let load_factor: f64 =
        args.value("--load").and_then(|v| v.parse().ok()).filter(|f: &f64| *f > 0.0).unwrap_or(2.0);
    let queue_capacity = args.usize_or("--queue", 64);
    let watchdog_ms = args.usize_or("--watchdog-ms", 150) as u64;
    // Byte-budget admission: 0 (the default) leaves admission off.
    let memory_ceiling_mib = args.usize_or("--memory-ceiling-mib", 0);
    let memory_ceiling = (memory_ceiling_mib > 0).then_some(memory_ceiling_mib << 20);
    // Pool faults need a pool: the soak forces at least two workers.
    let requested_threads = make_executor(&args).threads();
    let threads = if soak { requested_threads.max(2) } else { requested_threads };

    if soak {
        // Injected worker panics are caught by the pool and surface as
        // typed errors; keep their backtraces out of the gate log so a
        // *real* panic stays visible. Anything not marked as injected
        // still prints through the default hook.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("injected fault"));
            if !injected {
                default_hook(info);
            }
        }));
    }

    let spec = model_spec();
    let kernels = model_kernels(&spec);

    // Admission prices from the measured per-image time alone: at this
    // layer size fork–join launch overhead dominates, and no estimate
    // from operation counts sees it.
    let per_image_ms = measure_per_image_ms(&spec, &kernels, threads);
    let capacity_rps = 1e3 / per_image_ms;
    let offered_rps = load_factor * capacity_rps;
    eprintln!(
        "# per-image {per_image_ms:.3} ms measured ({threads} threads), sustainable ≈ \
         {capacity_rps:.0} rps, offering {offered_rps:.0} rps"
    );

    let opts = ServeOptions {
        queue_capacity,
        max_batch: args.usize_or("--max-batch", 0),
        threads,
        watchdog: soak.then(|| Duration::from_millis(watchdog_ms)),
        service: Some(ServiceModel::from_measurement(per_image_ms, 0.0)),
        // The injector arms one fault at a time and the in-batch retry
        // clears it, so consecutive-failure streaks never form: the soak
        // trips on every failure to exercise the full ladder walk.
        breaker: BreakerConfig {
            trip_threshold: if soak { 1 } else { 2 },
            recovery_threshold: if soak { 8 } else { 16 },
            ..Default::default()
        },
        memory_ceiling,
        ..Default::default()
    };
    let fp_spec = spec.clone();
    let server = Server::start(spec, kernels, opts).expect("server must start");
    let max_batch = server.max_batch();
    // The analytic footprint of the largest batch the server will build —
    // `check.sh` parses this line to size its address-space rlimit.
    let modeled_bytes = Network::with_policy(
        max_batch.max(1),
        fp_spec.in_channels,
        &fp_spec.image_dims,
        &fp_spec.layers,
        fp_spec.opts,
        threads,
        &FallbackPolicy::default(),
    )
    .map(|net| net.footprint(threads).total())
    .unwrap_or(0);
    eprintln!("# modeled_footprint_bytes {modeled_bytes}");
    eprintln!("# queue {queue_capacity}, max batch {max_batch}, deadline {deadline_ms} ms");

    let interval = Duration::from_secs_f64(1.0 / offered_rps);
    let deadline = Duration::from_secs_f64(deadline_ms / 1e3);
    let mut tally = Tally::default();
    let mut tickets: Vec<Ticket> = Vec::with_capacity(requests);
    let fault_every = (requests / 20).clamp(1, 500);
    let start = Instant::now();
    for i in 0..requests {
        pace_until(start + interval * i as u32);
        #[cfg(feature = "fault-inject")]
        if soak && i < requests / 2 && i % fault_every == fault_every - 1 {
            arm_fault(i / fault_every, threads, Duration::from_millis(watchdog_ms * 3));
        }
        match server.submit(request_image(i), deadline) {
            Ok(t) => tickets.push(t),
            Err(e) => tally.record_rejection(&e),
        }
    }
    #[cfg(feature = "fault-inject")]
    if soak {
        wino_sched::fault::reset();
    }
    let _ = fault_every; // used only under fault-inject

    // Recovery tail: gentle, fault-free load so the breaker can climb
    // back to `full` before the run is judged.
    if soak {
        let tail = 40 * max_batch.max(1);
        let tail_interval = Duration::from_secs_f64(2.0 / capacity_rps);
        let tail_start = Instant::now();
        for i in 0..tail {
            pace_until(tail_start + tail_interval * i as u32);
            match server.submit(request_image(i), deadline) {
                Ok(t) => tickets.push(t),
                Err(e) => tally.record_rejection(&e),
            }
        }
    }

    let admitted_count = tickets.len() as u64;
    for t in tickets {
        tally.record_response(t.wait());
    }
    let duration_s = start.elapsed().as_secs_f64();
    let level = server.level();
    let stats = server.shutdown();

    eprintln!(
        "# {} submitted / {} admitted / {} completed / {} failed; shed {} overload + {} deadline \
         + {} predicted + {} memory; {} breaker trips, {} recoveries, {} pool rebuilds; final \
         level {}",
        stats.submitted,
        stats.admitted,
        stats.completed,
        stats.failed,
        stats.shed_overload,
        stats.shed_deadline,
        stats.shed_predicted,
        stats.shed_memory,
        stats.breaker_trips,
        stats.breaker_recoveries,
        stats.pool_rebuilds,
        level.name()
    );
    eprintln!(
        "# latency p50 {:.2} / p95 {:.2} / p99 {:.2} ms (deadline {deadline_ms} ms); goodput \
         {:.0} rps in deadline over {duration_s:.2} s",
        tally.percentile(0.50),
        tally.percentile(0.95),
        tally.percentile(0.99),
        tally.completed_in_deadline as f64 / duration_s
    );

    if soak {
        // The gate's contract. Reaching this point at all means no panic
        // escaped (an escaped panic kills the batcher; its drop guards
        // would then resolve everything as ShutDown, failing below).
        let mut failures: Vec<String> = Vec::new();
        // Conservation: every submitted request produced exactly one
        // tallied outcome — an output, or one of the typed errors. The
        // client-side tally must agree with the server's own books.
        let outcomes = tally.completed
            + tally.failed
            + tally.shed_overload
            + tally.shed_deadline
            + tally.shed_predicted
            + tally.shed_memory
            + tally.shut_down;
        if outcomes != stats.submitted {
            failures.push(format!(
                "{} outcomes for {} submitted requests: something was dropped or double-counted",
                outcomes, stats.submitted
            ));
        }
        for (what, client, server_side) in [
            ("completed", tally.completed, stats.completed),
            ("failed", tally.failed, stats.failed),
            ("shed_overload", tally.shed_overload, stats.shed_overload),
            ("shed_deadline", tally.shed_deadline, stats.shed_deadline),
            ("shed_predicted", tally.shed_predicted, stats.shed_predicted),
            ("shed_memory", tally.shed_memory, stats.shed_memory),
        ] {
            if client != server_side {
                failures.push(format!("{what}: client saw {client}, server tallied {server_side}"));
            }
        }
        if stats.admitted != admitted_count {
            failures.push(format!(
                "ticket accounting broken: {} tickets vs {} admitted",
                admitted_count, stats.admitted
            ));
        }
        if tally.shut_down != 0 {
            failures.push(format!(
                "{} requests resolved as ShutDown mid-run (batcher died)",
                tally.shut_down
            ));
        }
        if stats.completed == 0 {
            failures.push("no request completed under fault injection".into());
        }
        if stats.breaker_trips == 0 {
            failures.push("fault injection never tripped the breaker".into());
        }
        if stats.breaker_recoveries == 0 || level != DegradeLevel::Full {
            failures.push(format!(
                "breaker did not recover (level {}, {} recoveries)",
                level.name(),
                stats.breaker_recoveries
            ));
        }
        if stats.pool_rebuilds == 0 {
            failures.push("stall injection never forced a pool rebuild".into());
        }
        let p99 = tally.percentile(0.99);
        if p99 > deadline_ms {
            failures.push(format!("completed p99 {p99:.2} ms exceeds the {deadline_ms} ms deadline"));
        }
        if failures.is_empty() {
            eprintln!("SOAK OK: {} requests, zero escaped panics, breaker recovered", stats.submitted);
        } else {
            eprintln!("SOAK FAILED:");
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
    }
}
