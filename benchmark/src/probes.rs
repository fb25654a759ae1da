//! The traced run's per-layer measurements: every one is a timed or
//! counted call into a crate's public API, made from here.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use wino_probe::SpanCategory;
use wino_sched::{Executor, PoolError};
use wino_tensor::BlockedImage;
use wino_transforms::FmrPlan;

use crate::chain::{Chain, STAGES};
use crate::names::PER_LAYER;
use crate::stats::{median, percentile, sorted};
use crate::trace::{self_ms_per_op, self_times_ns, Tracer};
use crate::workloads::Workload;
use crate::{ms_since, Res};

/// Repetitions of the batched-GEMM and baseline probes.
const REPS: usize = 5;
const MIB: f64 = (1u64 << 20) as f64;

/// Value of every per-layer metric; one that does not apply to a
/// workload stays 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in names::PER_LAYER")) = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// The first `FmrPlan::new` of the process, so call it before planning.
pub fn fmr_cold(w: &Workload, out: &mut Layers) {
    let t = Instant::now();
    black_box(FmrPlan::new(w.layers[0].m, 3));
    out.set("transforms.fmr_plan.cold_ms", ms_since(t));
}

/// Round trips of an empty grid, one task per thread.
pub fn forkjoin(exec: &dyn Executor, out: &mut Layers) -> Res<()> {
    let dims = [exec.threads()];
    let mut us = Vec::with_capacity(2000);
    for i in 0..2100 {
        let t = Instant::now();
        exec.run_grid(&dims, &|_, _| {})?;
        if i >= 100 {
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let us = sorted(us);
    out.set("sched.forkjoin.p50_us", percentile(&us, 50));
    out.set("sched.forkjoin.p99_us", percentile(&us, 99));
    Ok(())
}

/// Counts the grids launched through it.
struct CountingExec<'a> {
    inner: &'a dyn Executor,
    grids: AtomicU64,
}

impl Executor for CountingExec<'_> {
    fn run_grid(
        &self,
        dims: &[usize],
        task: &(dyn Fn(usize, usize) + Sync),
    ) -> Result<(), PoolError> {
        // Relaxed: a tally read after the op has returned.
        self.grids.fetch_add(1, Ordering::Relaxed);
        self.inner.run_grid(dims, task)
    }

    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Fork–joins of one staged op.
pub fn forkjoins_per_op(
    chain: &mut Chain,
    input: &BlockedImage,
    exec: &dyn Executor,
    out: &mut Layers,
) -> Res<()> {
    let counting = CountingExec {
        inner: exec,
        grids: AtomicU64::new(0),
    };
    chain.forward_staged(input, &counting, &mut Tracer::default(), 0)?;
    out.set(
        "sched.forkjoins_per_op",
        counting.grids.load(Ordering::Relaxed) as f64,
    );
    Ok(())
}

fn median_ms(mut f: impl FnMut() -> Res<()>) -> Res<f64> {
    let mut ms = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        f()?;
        ms.push(ms_since(t));
    }
    Ok(median(&ms))
}

/// `batched_gemm_parallel` and, with AVX-512F, the JIT's serial
/// `jit_batched_gemm` on the U and V the first layer's last op left in
/// its scratch.
pub fn batched_gemm(chain: &mut Chain, exec: &dyn Executor, out: &mut Layers) -> Res<()> {
    let l = &mut chain.layers[0];
    let flops = l
        .plan
        .work_model()
        .get(SpanCategory::ElementwiseGemm)
        .map_or(0, |w| w.flops) as f64;
    let s = &mut l.scratch;
    let ms = median_ms(|| {
        Ok(wino_gemm::batched_gemm_parallel(
            &s.u, &s.v, &mut s.x, exec,
        )?)
    })?;
    out.set("gemm.batched.self_ms", ms);
    out.set("gemm.batched.gflops", flops / (ms * 1e6));
    if wino_simd::cpu_has_avx512f() {
        let b = l.plan.block;
        let t = Instant::now();
        let pair = wino_jit::JitKernelPair::compile(b.n_blk, b.c_blk, b.cp_blk)?;
        out.set("jit.compile.self_ms", ms_since(t));
        let ms = median_ms(|| {
            wino_jit::jit_batched_gemm(&s.u, &s.v, &mut s.x, &pair);
            Ok(())
        })?;
        out.set("jit.batched.self_ms", ms);
        out.set("jit.batched.gflops", flops / (ms * 1e6));
    }
    Ok(())
}

/// The im2col and direct baselines on the same layer and executor (the
/// paper's Fig. 5 yardsticks), against the op's untraced median.
pub fn baselines(
    chain: &Chain,
    input: &BlockedImage,
    exec: &dyn Executor,
    op_p50_ms: f64,
    out: &mut Layers,
) -> Res<()> {
    let (plan, kernels) = (&chain.layers[0].plan, &chain.layers[0].kernels);
    let mut output = plan.new_output()?;
    let pad = &plan.shape.padding;
    let im2col = median_ms(|| {
        Ok(wino_baseline::im2col_conv(
            input,
            kernels,
            pad,
            &mut output,
            exec,
        )?)
    })?;
    let direct = median_ms(|| {
        Ok(wino_baseline::direct_conv(
            input,
            kernels,
            pad,
            &mut output,
            exec,
        )?)
    })?;
    out.set("baseline.im2col.self_ms", im2col);
    out.set("baseline.direct.self_ms", direct);
    out.set("conv.speedup_vs_im2col", im2col / op_p50_ms);
    Ok(())
}

/// Everything read off the chain and its spans: set-up steps, the stage
/// split of the staged ops, modelled rates and memory.
pub fn chain_metrics(chain: &Chain, threads: usize, tr: &Tracer, out: &mut Layers) {
    let selfs = self_times_ns(&tr.spans);
    let span_ms = |name: &str| self_ms_per_op(&tr.spans, &selfs, name);
    for step in ["conv.plan", "conv.scratch_alloc", "conv.prepare_kernels"] {
        // From 0.0: an empty f64 sum is −0.0.
        out.set(
            &format!("{step}.self_ms"),
            span_ms(step).iter().fold(0.0, |a, b| a + b),
        );
    }
    let stage_ms: Vec<f64> = STAGES
        .iter()
        .map(|(name, _)| median(&span_ms(name)))
        .collect();
    let total_ms: f64 = stage_ms.iter().sum();
    for (&(name, category), &ms) in STAGES.iter().zip(&stage_ms) {
        if ms == 0.0 {
            continue;
        }
        let (mut flops, mut bytes) = (0u128, 0u128);
        for l in &chain.layers {
            if let Some(work) = l.plan.work_model().get(category) {
                flops += work.flops;
                bytes += work.bytes;
            }
        }
        out.set(&format!("{name}.self_ms"), ms);
        out.set(&format!("{name}.gflops"), flops as f64 / (ms * 1e6));
        // Bytes computed from buffer sizes, not measured traffic.
        out.set(&format!("{name}.computed_gbps"), bytes as f64 / (ms * 1e6));
        out.set(&format!("{name}.share"), ms / total_ms);
    }
    let first = &chain.layers[0].plan;
    let work = first.work_model();
    let per = |category, lanes: usize| {
        work.get(category)
            .map_or(0.0, |w| w.flops as f64 / (first.rows() * lanes) as f64)
    };
    // Scalar ops of the forward and inverse transforms of one tile of one channel.
    out.set(
        "transforms.ops_per_tile",
        per(SpanCategory::InputTransform, first.shape.in_channels)
            + per(SpanCategory::OutputTransform, first.shape.out_channels),
    );
    out.set(
        "conv.scratch_mb",
        chain
            .layers
            .iter()
            .map(|l| l.scratch.bytes())
            .sum::<usize>() as f64
            / MIB,
    );
    out.set(
        "conv.footprint_model_mb",
        chain
            .layers
            .iter()
            .map(|l| l.plan.footprint(threads).total())
            .sum::<usize>() as f64
            / MIB,
    );
    out.set("conv.jit_active", chain.jit_active() as u8 as f64);
}

/// Sum over the stages of their median self time.
pub fn stage_sum_ms(out: &Layers) -> f64 {
    STAGES
        .iter()
        .map(|(name, _)| out.get(&format!("{name}.self_ms")))
        .sum()
}
