//! Open-loop load generator for the serving layer — the overload gate's
//! evidence, emitted as a schema-v3 `BENCH_serve.json` document.
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
//!     [--queue N] [--max-batch N] [--watchdog-ms W] [--out FILE] \
//!     [--date YYYY-MM-DD] [--soak]
//! ```
//!
//! `--soak` (requires the `fault-inject` feature) arms worker panics,
//! barrier stalls and stage poisoning on a fixed cadence through the
//! first half of the run, then drives a fault-free recovery tail and
//! asserts: no escaped panic, all shed/failed requests carry typed
//! errors, the breaker tripped and recovered to `full`, the pool was
//! rebuilt, and the admitted p99 stayed within the deadline.

use std::time::{Duration, Instant};

use wino_bench::perf::{calibrate, memory_json, today_utc};
use wino_bench::{make_executor, Args};
use wino_conv::{FallbackPolicy, LayerSpec, Network};
use wino_probe::{parse_json, validate_schema, Counter, Json, MachineModel, SCHEMA_VERSION};
use wino_serve::{
    BreakerConfig, DegradeLevel, ModelSpec, ServeError, ServeOptions, ServeStats, Server,
    ServiceModel, Ticket,
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

/// Measure the real batch-1 service time of the workload (the offered
/// load is scaled from *measured* capacity, so the overload factor stays
/// honest even where the roofline estimate is off).
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
    let input = request_image(0);
    // One warmup, then best-of-5.
    let mut best = f64::INFINITY;
    for _ in 0..6 {
        let t = Instant::now();
        let out = net.run_net(&input, kernels, exec.as_ref(), &policy).expect("warmup run failed");
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
    backends: std::collections::BTreeMap<&'static str, u64>,
    fallbacks: std::collections::BTreeMap<&'static str, u64>,
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
                for l in &resp.report.layers {
                    *self.backends.entry(l.backend.name()).or_default() += 1;
                    if let Some(f) = &l.fallback {
                        *self.fallbacks.entry(f.code()).or_default() += 1;
                    }
                }
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

    fn mean(&self) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len() as f64
    }
}

#[allow(clippy::too_many_arguments)] // report assembly: each argument is one measured quantity
fn serve_document(
    date: &str,
    machine: &MachineModel,
    stats: &ServeStats,
    tally: &Tally,
    offered_rps: f64,
    sustainable_rps: f64,
    duration_s: f64,
    deadline_ms: f64,
    max_batch: usize,
    modeled_bytes: usize,
    memory_ceiling: Option<usize>,
) -> Json {
    let shed =
        stats.shed_overload + stats.shed_deadline + stats.shed_predicted + stats.shed_memory;
    let mut serve = vec![
        ("requests".into(), Json::Num(stats.submitted as f64)),
        ("admitted".into(), Json::Num(stats.admitted as f64)),
        ("completed".into(), Json::Num(stats.completed as f64)),
        ("failed".into(), Json::Num(stats.failed as f64)),
        ("shed_overload".into(), Json::Num(stats.shed_overload as f64)),
        ("shed_deadline".into(), Json::Num(stats.shed_deadline as f64)),
        ("shed_predicted".into(), Json::Num(stats.shed_predicted as f64)),
        ("shed_memory".into(), Json::Num(stats.shed_memory as f64)),
        ("p50_ms".into(), Json::Num(tally.percentile(0.50))),
        ("p95_ms".into(), Json::Num(tally.percentile(0.95))),
        ("p99_ms".into(), Json::Num(tally.percentile(0.99))),
        ("mean_ms".into(), Json::Num(tally.mean())),
        (
            "goodput_rps".into(),
            Json::Num(if duration_s > 0.0 {
                tally.completed_in_deadline as f64 / duration_s
            } else {
                0.0
            }),
        ),
        (
            "shed_rate".into(),
            Json::Num(if stats.submitted > 0 { shed as f64 / stats.submitted as f64 } else { 0.0 }),
        ),
        ("breaker_trips".into(), Json::Num(stats.breaker_trips as f64)),
        ("breaker_recoveries".into(), Json::Num(stats.breaker_recoveries as f64)),
        ("pool_rebuilds".into(), Json::Num(stats.pool_rebuilds as f64)),
        ("batches".into(), Json::Num(stats.batches as f64)),
        ("batch_failures".into(), Json::Num(stats.batch_failures as f64)),
        ("peak_depth".into(), Json::Num(stats.peak_depth as f64)),
        ("offered_rps".into(), Json::Num(offered_rps)),
        ("sustainable_rps".into(), Json::Num(sustainable_rps)),
        ("duration_s".into(), Json::Num(duration_s)),
        ("deadline_ms".into(), Json::Num(deadline_ms)),
        ("max_batch".into(), Json::Num(max_batch as f64)),
        (
            "backends".into(),
            Json::Obj(
                tally.backends.iter().map(|(k, v)| (k.to_string(), Json::Num(*v as f64))).collect(),
            ),
        ),
        (
            "fallbacks".into(),
            Json::Obj(
                tally
                    .fallbacks
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(*v as f64)))
                    .collect(),
            ),
        ),
    ];
    if let Some(c) = memory_ceiling {
        serve.push(("memory_ceiling_bytes".into(), Json::Num(c as f64)));
    }
    Json::Obj(vec![
        ("schema_version".into(), Json::Num(SCHEMA_VERSION as f64)),
        ("generated_by".into(), Json::Str("wino-bench serve_load".into())),
        ("date".into(), Json::Str(date.to_string())),
        (
            "machine".into(),
            Json::Obj(vec![
                ("peak_gflops".into(), Json::Num(machine.peak_gflops)),
                ("mem_bw_gbps".into(), Json::Num(machine.mem_bw_gbps)),
                ("threads".into(), Json::Num(machine.threads as f64)),
                ("simd".into(), Json::Str(wino_simd::backend_name().to_string())),
            ]),
        ),
        ("serve".into(), Json::Obj(serve)),
        ("memory".into(), memory_json(modeled_bytes, memory_ceiling)),
        (
            "counters".into(),
            Json::Obj(
                Counter::ALL.iter().map(|c| (c.name().to_string(), Json::Num(c.get() as f64))).collect(),
            ),
        ),
    ])
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

    eprintln!("# calibrating machine model ({threads} threads)…");
    let cal_exec = make_executor(&args);
    let machine = calibrate(cal_exec.as_ref());
    drop(cal_exec);
    let roofline = ServiceModel::from_roofline(&machine, &spec, 0.5).expect("workload geometry");
    let per_image_ms = measure_per_image_ms(&spec, &kernels, threads);
    // Admission oracle: the calibrated roofline, floored by the measured
    // service time — at this layer size fork–join launch overhead (which
    // no roofline sees) dominates, and an optimistic oracle admits
    // requests that then time out in the queue.
    let admission = ServiceModel {
        per_image_ms: roofline.per_image_ms.max(per_image_ms),
        batch_overhead_ms: roofline.batch_overhead_ms,
    };
    let sustainable_rps = 1e3 / per_image_ms;
    let offered_rps = load_factor * sustainable_rps;
    eprintln!(
        "# per-image {per_image_ms:.3} ms measured ({:.3} ms roofline), sustainable ≈ \
         {sustainable_rps:.0} rps, offering {offered_rps:.0} rps",
        roofline.per_image_ms
    );

    let opts = ServeOptions {
        queue_capacity,
        max_batch: args.usize_or("--max-batch", 0),
        threads,
        watchdog: soak.then(|| Duration::from_millis(watchdog_ms)),
        service: Some(admission),
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
        let tail_interval = Duration::from_secs_f64(2.0 / sustainable_rps);
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
        "# latency p50 {:.2} / p95 {:.2} / p99 {:.2} ms (deadline {deadline_ms} ms)",
        tally.percentile(0.50),
        tally.percentile(0.95),
        tally.percentile(0.99)
    );

    let date = args.value("--date").map(str::to_string).unwrap_or_else(today_utc);
    let doc = serve_document(
        &date,
        &machine,
        &stats,
        &tally,
        offered_rps,
        sustainable_rps,
        duration_s,
        deadline_ms,
        max_batch,
        modeled_bytes,
        memory_ceiling,
    );
    let rendered = doc.render_pretty();
    let reparsed = parse_json(&rendered).expect("emitted JSON must re-parse");
    if let Err(errs) = validate_schema(&reparsed) {
        eprintln!("error: assembled report fails its own schema:");
        for e in &errs {
            eprintln!("  - {e}");
        }
        std::process::exit(1);
    }
    match args.value("--out") {
        Some(path) => {
            std::fs::write(path, &rendered).expect("write report");
            eprintln!("# wrote {path}");
        }
        None => print!("{rendered}"),
    }

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
