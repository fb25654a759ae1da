//! The metric names the binary prints, each with its unit and direction.
//!
//! `BENCHMARK.json` must list exactly these names (`tests/arithmetic.rs`
//! checks both directions). `README.md` says, for every per-layer metric,
//! which call it times and which end-to-end metric it should move.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

pub const END_TO_END: [Metric; 7] = [
    m("latency_p50_ms", "ms", "lower"),
    m("latency_tail_ratio", "ratio", "lower"),
    m("goodput_ops_s", "ops/s", "higher"),
    m("success_share", "ratio", "higher"),
    m("rms_rel_err", "ratio", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// The layer of a per-layer metric is the prefix of its name: `conv` is
/// `wino-conv`, `gemm` is `wino-gemm`, and so on; `loadgen` and `trace`
/// are the benchmark's own generator and spans.
pub const PER_LAYER: [Metric; 58] = [
    m("conv.input_xform.self_ms", "ms", "lower"),
    m("conv.input_xform.gflops", "GFLOP/s", "higher"),
    m("conv.input_xform.computed_gbps", "GB/s", "higher"),
    m("conv.input_xform.share", "ratio", "lower"),
    m("conv.kernel_xform.self_ms", "ms", "lower"),
    m("conv.kernel_xform.gflops", "GFLOP/s", "higher"),
    m("conv.kernel_xform.computed_gbps", "GB/s", "higher"),
    m("conv.kernel_xform.share", "ratio", "lower"),
    m("conv.gemm.self_ms", "ms", "lower"),
    m("conv.gemm.gflops", "GFLOP/s", "higher"),
    m("conv.gemm.computed_gbps", "GB/s", "higher"),
    m("conv.gemm.share", "ratio", "lower"),
    m("conv.output_xform.self_ms", "ms", "lower"),
    m("conv.output_xform.gflops", "GFLOP/s", "higher"),
    m("conv.output_xform.computed_gbps", "GB/s", "higher"),
    m("conv.output_xform.share", "ratio", "lower"),
    m("conv.net_glue.self_ms", "ms", "lower"),
    m("conv.plan.self_ms", "ms", "lower"),
    m("conv.scratch_alloc.self_ms", "ms", "lower"),
    m("conv.prepare_kernels.self_ms", "ms", "lower"),
    m("conv.scratch_mb", "MiB", "lower"),
    m("conv.footprint_model_mb", "MiB", "lower"),
    m("conv.jit_active", "count", "higher"),
    m("conv.fallbacks", "count", "lower"),
    m("conv.speedup_vs_im2col", "ratio", "higher"),
    m("transforms.fmr_plan.cold_ms", "ms", "lower"),
    m("transforms.ops_per_tile", "count", "lower"),
    m("gemm.batched.self_ms", "ms", "lower"),
    m("gemm.batched.gflops", "GFLOP/s", "higher"),
    m("jit.batched.self_ms", "ms", "lower"),
    m("jit.batched.gflops", "GFLOP/s", "higher"),
    m("jit.compile.self_ms", "ms", "lower"),
    m("sched.forkjoin.p50_us", "us", "lower"),
    m("sched.forkjoin.p99_us", "us", "lower"),
    m("sched.forkjoins_per_op", "count", "lower"),
    m("sched.pool_spawn.self_ms", "ms", "lower"),
    m("sched.parallel_eff", "ratio", "higher"),
    m("baseline.im2col.self_ms", "ms", "lower"),
    m("baseline.direct.self_ms", "ms", "lower"),
    m("serve.queue_wait.p50_ms", "ms", "lower"),
    m("serve.queue_wait.p99_ms", "ms", "lower"),
    m("serve.service.p50_ms", "ms", "lower"),
    m("serve.service.p99_ms", "ms", "lower"),
    m("serve.batch_size.mean", "count", "higher"),
    m("serve.batches", "count", "lower"),
    m("serve.peak_depth", "count", "lower"),
    m("serve.shed_overload", "count", "lower"),
    m("serve.shed_deadline", "count", "lower"),
    m("serve.shed_predicted", "count", "lower"),
    m("serve.failed", "count", "lower"),
    m("serve.deadline_missed", "count", "lower"),
    m("serve.submit.p50_us", "us", "lower"),
    m("serve.start.self_ms", "ms", "lower"),
    m("serve.admit_model_ms", "ms", "lower"),
    m("serve.level_final", "level", "lower"),
    m("loadgen.lag.p99_ms", "ms", "lower"),
    m("loadgen.lag.max_ms", "ms", "lower"),
    m("trace.overhead_share", "ratio", "lower"),
];

/// The contract's name rule: starts with a letter or digit, then at most
/// 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The contract's unit rule: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}
