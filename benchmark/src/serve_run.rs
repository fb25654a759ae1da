//! The open-loop workloads: one generator thread (the caller) offers
//! Poisson arrivals to a `Server` whose batcher runs `threads: 1`, so the
//! two threads together are the host's two cores.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use wino_conv::{FallbackPolicy, Network};
use wino_rng::Rng;
use wino_sched::SerialExecutor;
use wino_serve::{
    ModelSpec, ServeOptions, ServeResponse, ServeStats, Server, ServiceModel, Ticket,
};
use wino_tensor::{BlockedImage, BlockedKernels};

use crate::chain::Chain;
use crate::loadgen::poisson_schedule;
use crate::probes::{self, Layers};
use crate::report::{vm_hwm_mb, Outcome, RunCfg, ServeTally, TracedOutcome};
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use crate::verify::{Check, Oracle};
use crate::workloads::{Inputs, Kind, Workload, SERVE_DEADLINE_MS};
use crate::{ms_since, Res};

const MAX_BATCH: usize = 8;
/// `run_net` timings behind the fitted service model.
const FIT_REPS: usize = 9;
/// A ticket is redeemed once its deadline is this far past: by then the
/// batcher has resolved it, so `Ticket::wait` returns at once.
const SETTLE_AFTER: Duration = Duration::from_millis(50);

pub struct ServeRig {
    pub server: Server,
    pub pool: Vec<BlockedImage>,
    /// The fitted per-image service time handed to admission control.
    pub per_image_ms: f64,
    pub start_ms: f64,
    /// Inputs ready → first response, finite and inside its deadline.
    pub setup_s: f64,
}

/// Fit the service model from batch-1 `run_net` timings, start the
/// server, and serve one request.
pub fn setup(w: &Workload, inputs: &Inputs) -> Res<ServeRig> {
    let mut pool = Vec::new();
    for img in &inputs.images {
        pool.push(BlockedImage::from_simple(img)?);
    }
    let mut kernels = Vec::new();
    for k in &inputs.kernels {
        kernels.push(BlockedKernels::from_simple(k)?);
    }
    let t = Instant::now();
    let policy = FallbackPolicy::default();
    let specs = w.layer_specs();
    let mut net =
        Network::with_policy(1, w.in_channels, w.image_dims, &specs, w.opts(), 1, &policy)?;
    let mut fit_ms = Vec::with_capacity(FIT_REPS);
    for rep in 0..=FIT_REPS {
        let t = Instant::now();
        net.run_net(&pool[0], &kernels, &SerialExecutor, &policy)?;
        // The first run pays first-touch of the scratch.
        if rep > 0 {
            fit_ms.push(ms_since(t));
        }
    }
    drop(net);
    let per_image_ms = median(&fit_ms);
    let mut model = ModelSpec::new(w.in_channels, w.image_dims.to_vec(), specs);
    model.opts = w.opts();
    let opts = ServeOptions {
        threads: 1,
        queue_capacity: 16,
        max_batch: MAX_BATCH,
        service: Some(ServiceModel::from_measurement(per_image_ms, 0.0)),
        ..Default::default()
    };
    let start = Instant::now();
    let server = Server::start(model, kernels, opts)?;
    let start_ms = ms_since(start);
    let first = server
        .submit(pool[0].clone(), Duration::from_secs(5))?
        .wait();
    if !first.output?.as_slice().iter().all(|v| v.is_finite()) {
        return Err("the first response was not finite".into());
    }
    Ok(ServeRig {
        server,
        pool,
        per_image_ms,
        start_ms,
        setup_s: t.elapsed().as_secs_f64(),
    })
}

/// Make the server plan every batch size before the timed window: it
/// builds a plan the first time a batch size occurs (tens of ms, and
/// several MiB that stay cached), which is set-up work that would
/// otherwise land in whichever run first meets a burst. A burst of `b`
/// submissions inside the batcher's 2 ms batch age rides as one batch.
pub fn prime_batch_sizes(rig: &ServeRig, max_batch: usize) -> Res<()> {
    for b in 1..=max_batch {
        let mut tickets = Vec::with_capacity(b);
        for i in 0..b {
            tickets.push(
                rig.server
                    .submit(rig.pool[i % rig.pool.len()].clone(), Duration::from_secs(5))?,
            );
        }
        for t in tickets {
            t.wait().output?;
        }
    }
    Ok(())
}

/// One window of offered load and everything observed in it.
#[derive(Default)]
pub struct Phase {
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub tally: ServeTally,
    pub check: Check,
    pub lags_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub service_ms: Vec<f64>,
    pub batch_sizes: Vec<f64>,
    /// `ExecutionReport.fallback` entries seen in responses.
    pub layer_fallbacks: u64,
}

/// What the generator remembers of an admitted request.
#[derive(Clone, Copy)]
struct Sent {
    image: usize,
    deadline: Instant,
    due_ns: u64,
    /// Start and end of the `submit_with_deadline` call.
    submit_ns: (u64, u64),
}

struct Judge<'a> {
    oracle: &'a Oracle,
    ceiling: f64,
    tracer: Option<&'a mut Tracer>,
}

impl Judge<'_> {
    /// Classify one resolved request, verify its output, and rebuild its
    /// spans from the report.
    fn settle(&mut self, sent: Sent, resp: ServeResponse, phase: &mut Phase) {
        let r = &resp.report;
        let lag_ms = (sent.submit_ns.0 - sent.due_ns) as f64 / 1e6;
        match &resp.output {
            Ok(out) if r.deadline_met => {
                let check = self.oracle.check(out, 0, sent.image);
                phase.check = phase.check.merge(check);
                if check.passes(self.ceiling) {
                    phase.tally.met += 1;
                    // From the due time: the generator's lag is the request's wait too.
                    phase.latencies_ms.push(lag_ms + r.total_ms);
                } else {
                    phase.tally.failed += 1;
                }
            }
            Ok(_) => phase.tally.missed += 1,
            Err(e) if e.is_shed() => phase.tally.missed += 1,
            Err(e) => {
                eprintln!("request {} failed: {e}", r.request_id);
                phase.tally.failed += 1;
            }
        }
        if r.batch_id.is_some() {
            phase.queue_wait_ms.push(r.queue_wait_ms);
            phase.service_ms.push(r.service_ms);
            phase.batch_sizes.push(r.batch_size as f64);
        }
        phase.layer_fallbacks += r.layers.iter().filter(|l| l.fallback.is_some()).count() as u64;
        if let Some(tr) = self.tracer.as_deref_mut() {
            let ns = |ms: f64| (ms * 1e6) as u64;
            let (enqueued, id) = (sent.submit_ns.0, r.request_id);
            let served = enqueued + ns(r.queue_wait_ms);
            let req = tr.record(
                "serve.request",
                sent.due_ns,
                enqueued + ns(r.total_ms),
                None,
                id,
            );
            tr.record(
                "serve.submit",
                sent.submit_ns.0,
                sent.submit_ns.1,
                Some(req),
                id,
            );
            tr.record("serve.queue_wait", enqueued, served, Some(req), id);
            tr.record(
                "serve.service",
                served,
                served + ns(r.service_ms),
                Some(req),
                id,
            );
        }
    }
}

/// Offer `rate` requests per second for `seconds`, each image drawn from
/// the pool and each deadline [`SERVE_DEADLINE_MS`] after its due time,
/// then wait for every admitted request.
fn offer(rig: &ServeRig, judge: &mut Judge, rate: f64, seconds: f64, seed: u64) -> Phase {
    let schedule = poisson_schedule(seed, rate, seconds);
    let mut images = Rng::seed_from_u64(seed ^ 0x5eed_1a6e);
    let mut phase = Phase::default();
    let mut sent: VecDeque<(Ticket, Sent)> = VecDeque::new();
    let begin = Instant::now();
    let ns = |t: Instant| (t - begin).as_nanos() as u64;
    // Spans are on the tracer's clock; everything else is relative to `begin`.
    let base_ns = judge.tracer.as_deref().map_or(0, |tr| tr.ns(begin));
    for due_s in schedule {
        let image = images.below(rig.pool.len());
        let input = rig.pool[image].clone();
        let due = begin + Duration::from_secs_f64(due_s);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let gap = due - now;
            if gap > Duration::from_micros(300) {
                if sent
                    .front()
                    .is_some_and(|(_, s)| now > s.deadline + SETTLE_AFTER)
                {
                    let (ticket, s) = sent.pop_front().expect("front was just seen");
                    judge.settle(s, ticket.wait(), &mut phase);
                } else {
                    std::thread::sleep(
                        (gap - Duration::from_micros(200)).min(Duration::from_millis(1)),
                    );
                }
            } else {
                std::hint::spin_loop();
            }
        }
        let deadline = due + Duration::from_millis(SERVE_DEADLINE_MS);
        let t0 = Instant::now();
        let outcome = rig.server.submit_with_deadline(input, deadline);
        let t1 = Instant::now();
        phase.attempted += 1;
        phase.lags_ms.push((t0 - due).as_secs_f64() * 1e3);
        phase.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
        let submit_ns = (base_ns + ns(t0), base_ns + ns(t1));
        match outcome {
            Ok(ticket) => sent.push_back((
                ticket,
                Sent {
                    image,
                    deadline,
                    due_ns: base_ns + ns(due),
                    submit_ns,
                },
            )),
            Err(e) => {
                if e.is_shed() {
                    phase.tally.shed += 1;
                } else {
                    eprintln!("submit failed: {e}");
                    phase.tally.failed += 1;
                }
                if let Some(tr) = judge.tracer.as_deref_mut() {
                    tr.record("serve.submit", submit_ns.0, submit_ns.1, None, 0);
                }
            }
        }
    }
    for (ticket, s) in sent {
        judge.settle(s, ticket.wait(), &mut phase);
    }
    phase
}

/// Inputs, truths, a primed server, and the warm-up window behind it.
struct Warm<'a> {
    rig: ServeRig,
    judge: Judge<'a>,
    rate: f64,
    trace_batch: usize,
}

fn warm_up<'a>(w: &Workload, inputs: &Inputs, oracle: &'a Oracle, cfg: &RunCfg) -> Res<Warm<'a>> {
    let Kind::Serve { rate, trace_batch } = w.kind else {
        unreachable!("layer workloads run in layer_run");
    };
    let rig = setup(w, inputs)?;
    prime_batch_sizes(&rig, MAX_BATCH)?;
    let mut judge = Judge {
        oracle,
        ceiling: w.err_ceiling,
        tracer: None,
    };
    offer(&rig, &mut judge, rate, cfg.warmup_s, cfg.seed ^ 1);
    Ok(Warm {
        rig,
        judge,
        rate,
        trace_batch,
    })
}

fn lag_p99_max(phase: &Phase) -> (f64, f64) {
    let lags = sorted(phase.lags_ms.clone());
    (percentile(&lags, 99), lags[lags.len() - 1])
}

pub fn run(w: &Workload, cfg: &RunCfg) -> Res<Outcome> {
    let inputs = w.inputs(cfg.seed)?;
    let oracle = Oracle::new(w, &inputs, cfg.seed)?;
    let Warm {
        rig,
        mut judge,
        rate,
        ..
    } = warm_up(w, &inputs, &oracle, cfg)?;
    let phase = offer(&rig, &mut judge, rate, cfg.seconds, cfg.seed);
    let peak_rss_mb = vm_hwm_mb();
    let stats = rig.server.shutdown();
    if stats.level != wino_serve::DegradeLevel::Full {
        eprintln!("the breaker left the full rung: {}", stats.level.name());
    }
    let t = phase.tally;
    assert_eq!(
        phase.attempted,
        t.met + t.shed + t.missed + t.failed,
        "every request is accounted for"
    );
    Ok(Outcome {
        lag_ms: Some(lag_p99_max(&phase)),
        goodput_ops_s: t.met as f64 / cfg.seconds,
        latencies_ms: phase.latencies_ms,
        good: t.met,
        attempted: phase.attempted,
        failed: t.failed,
        check: phase.check,
        setup_s: rig.setup_s,
        peak_rss_mb,
        block_medians_ms: None,
        fallbacks: phase.layer_fallbacks,
        serve: Some(t),
    })
}

/// Two windows of a third of the time each over the same schedule, the
/// second with spans, then the stage split of the model at the
/// workload's typical batch size.
pub fn run_traced(w: &Workload, cfg: &RunCfg) -> Res<TracedOutcome> {
    let mut out = Layers::default();
    probes::fmr_cold(w, &mut out);
    let inputs = w.inputs(cfg.seed)?;
    let oracle = Oracle::new(w, &inputs, cfg.seed)?;
    let Warm {
        rig,
        mut judge,
        rate,
        trace_batch,
    } = warm_up(w, &inputs, &oracle, cfg)?;
    let third = cfg.seconds / 3.0;
    let plain = offer(&rig, &mut judge, rate, third, cfg.seed);
    let mut tr = Tracer::default();
    judge.tracer = Some(&mut tr);
    let before = rig.server.stats();
    let phase = offer(&rig, &mut judge, rate, third, cfg.seed);
    let after = rig.server.shutdown();
    let delta = |tally: fn(&ServeStats) -> u64| (tally(&after) - tally(&before)) as f64;

    let p = |v: &[f64], q| {
        if v.is_empty() {
            0.0
        } else {
            percentile(&sorted(v.to_vec()), q)
        }
    };
    out.set("serve.queue_wait.p50_ms", p(&phase.queue_wait_ms, 50));
    out.set("serve.queue_wait.p99_ms", p(&phase.queue_wait_ms, 99));
    out.set("serve.service.p50_ms", p(&phase.service_ms, 50));
    out.set("serve.service.p99_ms", p(&phase.service_ms, 99));
    let served = phase.batch_sizes.len().max(1) as f64;
    out.set(
        "serve.batch_size.mean",
        phase.batch_sizes.iter().sum::<f64>() / served,
    );
    out.set("serve.batches", delta(|s| s.batches));
    out.set("serve.peak_depth", after.peak_depth as f64);
    out.set("serve.shed_overload", delta(|s| s.shed_overload));
    out.set("serve.shed_deadline", delta(|s| s.shed_deadline));
    out.set("serve.shed_predicted", delta(|s| s.shed_predicted));
    out.set("serve.failed", delta(|s| s.failed));
    out.set("serve.deadline_missed", phase.tally.missed as f64);
    out.set("serve.submit.p50_us", p(&phase.submit_us, 50));
    out.set("serve.start.self_ms", rig.start_ms);
    out.set("serve.admit_model_ms", rig.per_image_ms);
    out.set("serve.level_final", after.level as u8 as f64);
    let (lag_p99, lag_max) = lag_p99_max(&phase);
    out.set("loadgen.lag.p99_ms", lag_p99);
    out.set("loadgen.lag.max_ms", lag_max);
    let plain_p50 = median(&plain.latencies_ms);
    out.set(
        "trace.overhead_share",
        (median(&phase.latencies_ms) - plain_p50) / plain_p50,
    );

    // The stage split: the model's layers as independent plans at the
    // typical batch, kernels transformed in every op as `run_net` does,
    // on the serial executor the batcher uses.
    let exec = SerialExecutor;
    let mut chain = Chain::build(w, &inputs, trace_batch, false, &exec, &mut tr)?;
    let mut batch = BlockedImage::zeros(trace_batch, w.in_channels, w.image_dims)?;
    let chunk = rig.pool[0].as_slice().len();
    for (b, dst) in batch.as_mut_slice().chunks_mut(chunk).enumerate() {
        dst.copy_from_slice(rig.pool[b % rig.pool.len()].as_slice());
    }
    let begin = Instant::now();
    // Op ids above every request id of this server.
    let mut op: u64 = 1 << 32;
    while begin.elapsed().as_secs_f64() < cfg.seconds / 7.5 {
        op += 1;
        chain.forward_staged(&batch, &exec, &mut tr, op)?;
    }
    let mut check = phase.check.merge(plain.check);
    for b in 0..trace_batch {
        check = check.merge(oracle.check(chain.output(), b, b % rig.pool.len()));
    }
    probes::forkjoins_per_op(&mut chain, &batch, &exec, &mut out)?;
    probes::forkjoin(&exec, &mut out)?;
    probes::batched_gemm(&mut chain, &exec, &mut out)?;
    probes::chain_metrics(&chain, 1, &tr, &mut out);
    out.set(
        "conv.fallbacks",
        (chain.fallbacks + phase.layer_fallbacks + plain.layer_fallbacks) as f64,
    );

    Ok(TracedOutcome {
        layers: out,
        tracer: tr,
        check,
        attempted: plain.attempted + phase.attempted,
        failed: plain.tally.failed + phase.tally.failed,
        untraced_p50_ms: plain_p50,
        samples: plain.latencies_ms.len(),
    })
}
