//! The closed-loop workloads: one `WinogradLayer` (FX or training mode)
//! or a whole `Network`, driven by one client on the calling thread.

use std::time::Instant;

use wino_conv::{FallbackPolicy, Network, TransformedKernels};
use wino_sched::{Executor, SerialExecutor, StaticExecutor};
use wino_tensor::{BlockedImage, BlockedKernels};

use crate::chain::Chain;
use crate::loadgen::{closed_loop, ClosedLoop};
use crate::probes::{self, Layers};
use crate::report::{vm_hwm_mb, Outcome, RunCfg, TracedOutcome};
use crate::stats::{median, quietest_third, second_blocks};
use crate::trace::Tracer;
use crate::verify::Oracle;
use crate::workloads::{Inputs, Kind, Workload};
use crate::Res;

/// Alternations of the whole op and the staged op in a traced run.
const SLICES: usize = 5;

pub enum Engine {
    /// A one-layer [`Chain`]; the op is `forward_fx` when the kernels are
    /// memoised and `forward` when they are not.
    Layer(Chain),
    Net {
        net: Network,
        memo: Vec<TransformedKernels>,
        /// The last op's output; `forward_fx` allocates one per op.
        last: Option<BlockedImage>,
    },
}

impl Engine {
    pub fn op(&mut self, input: &BlockedImage, exec: &dyn Executor) -> Res<()> {
        match self {
            Engine::Layer(chain) => {
                let l = &mut chain.layers[0];
                match &l.memo {
                    Some(memo) => {
                        l.plan
                            .forward_fx(input, memo, &mut l.out, &mut l.scratch, exec)?
                    }
                    None => l
                        .plan
                        .forward(input, &l.kernels, &mut l.out, &mut l.scratch, exec)?,
                }
            }
            Engine::Net { net, memo, last } => *last = Some(net.forward_fx(input, memo, exec)?),
        }
        Ok(())
    }

    pub fn output(&self) -> &BlockedImage {
        match self {
            Engine::Layer(chain) => chain.output(),
            Engine::Net { last, .. } => last.as_ref().expect("set-up ran the first op"),
        }
    }

    /// Plans that were downgraded at plan time.
    pub fn fallbacks(&self) -> u64 {
        match self {
            Engine::Layer(chain) => chain.fallbacks,
            Engine::Net { net, .. } => net
                .layers()
                .iter()
                .filter(|l| l.planned_fallback.is_some())
                .count() as u64,
        }
    }
}

pub struct Rig {
    pub exec: StaticExecutor,
    pub input: BlockedImage,
    pub engine: Engine,
    /// Inputs ready → first op returned a finite output.
    pub setup_s: f64,
}

/// Pool spawn, plan (codelets, JIT codegen), scratch, kernel memoisation
/// and the first op. The calling thread is the pool's thread 0.
pub fn setup(w: &Workload, inputs: &Inputs, threads: usize, tr: &mut Tracer) -> Res<Rig> {
    let input = BlockedImage::from_simple(&inputs.images[0])?;
    let t = Instant::now();
    let s = tr.enter("sched.pool_spawn", 0);
    let exec = StaticExecutor::new(threads);
    tr.exit(s);
    let mut engine = match w.kind {
        Kind::LayerFx => Engine::Layer(Chain::build(w, inputs, 1, true, &exec, tr)?),
        Kind::LayerTrain => Engine::Layer(Chain::build(w, inputs, 1, false, &exec, tr)?),
        Kind::NetFx => {
            let mut net = Network::with_policy(
                1,
                w.in_channels,
                w.image_dims,
                &w.layer_specs(),
                w.opts(),
                threads,
                &FallbackPolicy::default(),
            )?;
            let mut kernels = Vec::new();
            for k in &inputs.kernels {
                kernels.push(BlockedKernels::from_simple(k)?);
            }
            let memo = net.prepare_kernels(&kernels, &exec)?;
            Engine::Net {
                net,
                memo,
                last: None,
            }
        }
        Kind::Serve { .. } => unreachable!("serve workloads run in serve_run"),
    };
    engine.op(&input, &exec)?;
    if !engine.output().as_slice().iter().all(|v| v.is_finite()) {
        return Err("the first op produced a non-finite output".into());
    }
    Ok(Rig {
        exec,
        input,
        engine,
        setup_s: t.elapsed().as_secs_f64(),
    })
}

/// `closed_loop` over the rig's op, keeping the last error for the log.
fn drive(
    seconds: f64,
    engine: &mut Engine,
    input: &BlockedImage,
    exec: &dyn Executor,
) -> ClosedLoop {
    let mut last_err = None;
    let run = closed_loop(seconds, || {
        engine
            .op(input, exec)
            .map_err(|e| last_err = Some(e))
            .is_ok()
    });
    if let Some(e) = last_err {
        eprintln!("op failed ({} times), last error: {e}", run.errors);
    }
    run
}

pub fn run(w: &Workload, cfg: &RunCfg) -> Res<Outcome> {
    let inputs = w.inputs(cfg.seed)?;
    let Rig {
        exec,
        input,
        mut engine,
        setup_s,
    } = setup(w, &inputs, cfg.threads, &mut Tracer::default())?;
    drive(cfg.warmup_s, &mut engine, &input, &exec);
    let run = drive(cfg.seconds, &mut engine, &input, &exec);
    let peak_rss_mb = vm_hwm_mb();
    // An idle pool worker spins; stop it before the oracle runs.
    drop(exec);
    let check = Oracle::new(w, &inputs, cfg.seed)?.check(engine.output(), 0, 0);
    let completed = run.latencies_ms.len() as u64;
    // Every op ran the same input through the same plan: one mismatch is all of them.
    let good = if check.passes(w.err_ceiling) {
        completed
    } else {
        0
    };
    let blocks = second_blocks(&run.starts_s, &run.latencies_ms, cfg.seconds);
    let quiet = quietest_third(&blocks);
    let latencies_ms: Vec<f64> = if good > 0 {
        quiet.iter().flat_map(|b| b.iter().copied()).collect()
    } else {
        Vec::new()
    };
    Ok(Outcome {
        goodput_ops_s: latencies_ms.len() as f64 / quiet.len().max(1) as f64,
        latencies_ms,
        good,
        attempted: completed + run.errors,
        failed: run.errors + completed - good,
        check,
        setup_s,
        peak_rss_mb,
        block_medians_ms: Some(
            blocks
                .iter()
                .filter(|b| !b.is_empty())
                .map(|b| median(b))
                .collect(),
        ),
        lag_ms: None,
        fallbacks: engine.fallbacks(),
        serve: None,
    })
}

/// The chain the staged op runs on: the layer engine's own, or the one
/// built beside a network.
fn staged_chain<'a>(own: &'a mut Option<Chain>, engine: &'a mut Engine) -> &'a mut Chain {
    match (own, engine) {
        (Some(chain), _) => chain,
        (None, Engine::Layer(chain)) => chain,
        (None, Engine::Net { .. }) => unreachable!("run_traced builds a chain beside a network"),
    }
}

pub fn run_traced(w: &Workload, cfg: &RunCfg) -> Res<TracedOutcome> {
    let mut out = Layers::default();
    probes::fmr_cold(w, &mut out);
    let inputs = w.inputs(cfg.seed)?;
    let mut tr = Tracer::default();
    let Rig {
        exec,
        input,
        mut engine,
        ..
    } = setup(w, &inputs, cfg.threads, &mut tr)?;
    out.set(
        "sched.pool_spawn.self_ms",
        tr.durations_ms("sched.pool_spawn").iter().sum(),
    );
    out.set("conv.fallbacks", engine.fallbacks() as f64);
    // The network's stage split comes from independently built plans of
    // the same shapes.
    let mut own_chain = match engine {
        Engine::Net { .. } => Some(Chain::build(w, &inputs, 1, true, &exec, &mut tr)?),
        Engine::Layer(_) => None,
    };

    drive(cfg.warmup_s, &mut engine, &input, &exec);
    // A third of the window each for the op as a whole and for the op as
    // stage calls, in alternating slices so that machine drift falls on
    // both alike.
    let slice_s = cfg.seconds / 3.0 / SLICES as f64;
    let (mut untraced_ms, mut errors, mut ops) = (Vec::new(), 0, 0);
    for slice in 0..SLICES {
        let whole = drive(slice_s, &mut engine, &input, &exec);
        untraced_ms.extend(whole.latencies_ms);
        errors += whole.errors;
        let chain = staged_chain(&mut own_chain, &mut engine);
        if slice == 0 {
            chain.prepare_staged(&exec)?;
        }
        let begin = Instant::now();
        while begin.elapsed().as_secs_f64() < slice_s {
            ops += 1;
            chain.forward_staged(&input, &exec, &mut tr, ops)?;
        }
    }
    let op_p50_ms = median(&untraced_ms);
    let serial_p50_ms = if cfg.threads > 1 {
        median(&drive(cfg.seconds / 7.5, &mut engine, &input, &SerialExecutor).latencies_ms)
    } else {
        op_p50_ms
    };
    out.set(
        "sched.parallel_eff",
        serial_p50_ms / (cfg.threads as f64 * op_p50_ms),
    );

    let is_net = own_chain.is_some();
    let chain = staged_chain(&mut own_chain, &mut engine);
    let check = Oracle::new(w, &inputs, cfg.seed)?.check(chain.output(), 0, 0);

    probes::forkjoins_per_op(chain, &input, &exec, &mut out)?;
    probes::forkjoin(&exec, &mut out)?;
    probes::batched_gemm(chain, &exec, &mut out)?;
    if !is_net {
        probes::baselines(chain, &input, &exec, op_p50_ms, &mut out)?;
    }
    probes::chain_metrics(chain, cfg.threads, &tr, &mut out);
    if is_net {
        out.set(
            "conv.net_glue.self_ms",
            op_p50_ms - probes::stage_sum_ms(&out),
        );
    }
    out.set(
        "trace.overhead_share",
        (median(&tr.durations_ms("op")) - op_p50_ms) / op_p50_ms,
    );

    let failed = if check.passes(w.err_ceiling) { 0 } else { ops };
    Ok(TracedOutcome {
        layers: out,
        tracer: tr,
        check,
        attempted: ops + untraced_ms.len() as u64 + errors,
        failed: failed + errors,
        untraced_p50_ms: op_p50_ms,
        samples: untraced_ms.len(),
    })
}
