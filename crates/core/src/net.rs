//! Multi-layer network execution with shared auxiliary memory (§4.4).
//!
//! "While the size of the auxiliary buffer can be a couple of times larger
//! than the memory required for storing the computed images, the same
//! memory buffer can be reused for the computation of each layer." —
//! [`Network`] plans a sequence of convolutional layers (each with its
//! own `F(m, r)`) and reuses the auxiliary memory *across passes*: one
//! resident slot per layer (its [`Scratch`] and, strided, its stride-1
//! image) and one resident image per intermediate activation, so a repeat
//! forward allocates nothing but the output it returns. Layer outputs stay
//! in the blocked layout, so no reshuffling happens between layers (§4.1).
//!
//! Every layer is a [`DispatchPlan`], and the module owns the *run-time*
//! walk over the degradation table of [`crate::select`] (DESIGN.md §5):
//! one per-layer function executes the planned candidate, guards its
//! output (numeric guard, then accuracy sentinels) and, when an
//! allocation is refused or a guard trips, re-plans the layer on whichever
//! candidate the table offers next — a re-tiled Winograd plan or the
//! im2col rescue — until one stands or the policy allows no further row.
//! Every [`Network::run_layer`] / [`Network::run_net`] call reports which
//! backend actually ran and why via [`ExecutionReport`].

use wino_sched::probed::{record_coord, span_start};
use wino_sched::Executor;
use wino_tensor::{BlockedImage, BlockedKernels, ConvShape, ShapeError};

use crate::conv::TransformedKernels;
use crate::dispatch::{ensure_scratch, plan_at_rung, DispatchPlan, Kernels, Slot, NO_MEMO};
use crate::error::{check_finite, NumericError, WinoError};
use crate::plan::{ConvOptions, PlanError, Scratch};
use crate::select::{degrade, Candidate, Cause, FallbackPolicy};
use crate::sentinel::{verify_sample, SentinelError};

/// Pointwise activation applied between layers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Activation {
    #[default]
    None,
    Relu,
}

impl Activation {
    fn apply(self, img: &mut BlockedImage) {
        if self == Activation::Relu {
            for v in img.as_mut_slice() {
                *v = v.max(0.0);
            }
        }
    }
}

/// Which implementation computed a layer's output. A strided layer
/// reports the engine that ran its stride-1 plan; the stride itself is in
/// [`DispatchPlan::geo`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerBackend {
    WinogradJit,
    WinogradMono,
    /// Winograd re-run with a re-tiled plan: every tile dimension demoted
    /// by 2 after an accuracy-sentinel trip (better-conditioned
    /// transforms), or grown by 2 after a refused allocation (smaller
    /// transformed-data scratch). The paired [`FallbackReason`] says
    /// which ladder ran.
    WinogradDemoted,
    /// Grouped convolution executed by blocking the C/C' loops around a
    /// shared per-group Winograd plan.
    WinogradGrouped,
    Im2col,
}

impl LayerBackend {
    /// Stable serialization name — one of
    /// [`wino_probe::BACKEND_NAMES`], as emitted into
    /// `layers[i].execution.backend` of a `BENCH_*.json` report.
    pub fn name(self) -> &'static str {
        match self {
            LayerBackend::WinogradJit => "winograd-jit",
            LayerBackend::WinogradMono => "winograd-mono",
            LayerBackend::WinogradDemoted => "winograd-demoted",
            LayerBackend::WinogradGrouped => "winograd-grouped",
            LayerBackend::Im2col => "im2col",
        }
    }
}

/// Why a layer ran on something other than what was asked for.
/// (`PartialEq` only: [`SentinelError`] carries measured f64 errors.)
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FallbackReason {
    /// The JIT stage-2 backend could not be built; the layer uses the
    /// monomorphised backend instead.
    JitUnavailable(PlanError),
    /// No Winograd plan exists for this layer; it runs via im2col.
    PlanFailed(PlanError),
    /// The Winograd output contained NaN/Inf; the layer was re-executed
    /// via im2col.
    NumericGuard(NumericError),
    /// A sampled output tile exceeded the layer's a-priori error bound;
    /// the layer was re-executed demoted (or via im2col — see the
    /// [`ExecutionReport::backend`]).
    SentinelTrip(SentinelError),
    /// The layer is dilated, which the Winograd transform stencils cannot
    /// express; it runs via the geometry-aware im2col baseline. A
    /// designed route, reported under every policy.
    Dilated,
    /// The layer's per-group channel width is narrower than the vector
    /// width (depthwise included), so the blocked Winograd layout cannot
    /// carry it; it runs via the geometry-aware im2col baseline.
    GroupTooNarrow { c_per_group: usize },
    /// The allocator refused a buffer while the layer ran; `bytes` is the
    /// refused request. The memory ladder re-tiled the layer or rescued
    /// it through im2col (see [`ExecutionReport::backend`]).
    Memory { bytes: usize },
}

impl FallbackReason {
    /// The one `PlanError → FallbackReason` mapping: `e` is the first
    /// error a plan-time walk absorbed, `im2col` whether the walk ended
    /// on the im2col route rather than on a downgraded Winograd plan.
    pub(crate) fn absorbed(e: PlanError, im2col: bool) -> FallbackReason {
        match e {
            PlanError::Jit { .. } if !im2col => FallbackReason::JitUnavailable(e),
            _ => FallbackReason::PlanFailed(e),
        }
    }

    /// Stable serialization code — one of
    /// [`wino_probe::FALLBACK_CODES`], as emitted into
    /// `layers[i].execution.fallback` of a `BENCH_*.json` report. The
    /// inner error detail is for `Display`, not the machine-readable
    /// shape.
    pub fn code(&self) -> &'static str {
        match self {
            FallbackReason::JitUnavailable(_) => "jit-unavailable",
            FallbackReason::PlanFailed(_) => "plan-failed",
            FallbackReason::NumericGuard(_) => "numeric-guard",
            FallbackReason::SentinelTrip(_) => "sentinel-trip",
            FallbackReason::Dilated => "dilated",
            FallbackReason::GroupTooNarrow { .. } => "group-narrow",
            FallbackReason::Memory { .. } => "memory",
        }
    }
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FallbackReason::JitUnavailable(e) => write!(f, "jit unavailable ({e}); using mono"),
            FallbackReason::PlanFailed(e) => write!(f, "no winograd plan ({e}); using im2col"),
            FallbackReason::NumericGuard(e) => write!(f, "numeric guard tripped ({e}); using im2col"),
            FallbackReason::SentinelTrip(e) => write!(f, "accuracy {e}; re-executed"),
            FallbackReason::Dilated => {
                write!(f, "dilated layer outside the Winograd stencils; using im2col")
            }
            FallbackReason::GroupTooNarrow { c_per_group } => {
                write!(f, "per-group channel width {c_per_group} below the vector width; using im2col")
            }
            FallbackReason::Memory { bytes } => {
                write!(f, "memory pressure ({bytes} B refused); degraded")
            }
        }
    }
}

/// What actually happened when one layer executed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecutionReport {
    /// Layer index within the network.
    pub layer: usize,
    /// The backend that produced the returned output.
    pub backend: LayerBackend,
    /// The degradation applied, if any (plan-time or execution-time).
    pub fallback: Option<FallbackReason>,
}

/// One planned layer of a [`Network`].
pub struct NetLayer {
    pub plan: DispatchPlan,
    pub activation: Activation,
    /// Downgrade recorded at plan time (`Jit → Mono`, `plan failure →
    /// im2col`) or the designed-route provenance; echoed into every
    /// [`ExecutionReport`].
    pub planned_fallback: Option<FallbackReason>,
}

/// A sequential stack of convolution layers with per-layer resident
/// scratch.
pub struct Network {
    layers: Vec<NetLayer>,
    /// One slot per layer — its scratch, seeded at plan time, and (a
    /// strided layer) the stride-1 image its first forward builds —
    /// reused on every pass. Per-layer slots (rather than one shared arena
    /// rebuilt per transition) keep repeat forwards allocation-free — the
    /// serving hot path's invariant — at the cost of summing, not maxing,
    /// the scratch footprint. A slot is empty for an im2col layer, before
    /// the first forward of a grouped or strided one, or when its seeding
    /// allocation was refused (the run-time walk then deals with it when
    /// the layer runs).
    slots: Vec<Slot>,
    /// The intermediate activations (every layer's output but the last,
    /// which the caller receives), parked here between passes: a batch-8
    /// activation is megabytes, which the allocator hands out as a fresh
    /// mapping — zero-filled and page-faulted in again on every forward.
    /// A slot is `None` until the first pass has produced it and after a
    /// pass that failed at or past its layer; every route overwrites the
    /// whole image it is handed, so a parked one is never cleared.
    acts: Vec<Option<BlockedImage>>,
}

impl Network {
    /// Plan a network from `(out_channels, kernel_dims, padding, m,
    /// activation)` layer specs applied successively to an input of shape
    /// `(batch, in_channels, image_dims)`.
    ///
    /// Strict planning: any plan failure is returned as an error. Use
    /// [`Network::with_policy`] to absorb failures into fallbacks.
    pub fn new(
        batch: usize,
        in_channels: usize,
        image_dims: &[usize],
        specs: &[LayerSpec],
        opts: ConvOptions,
        threads: usize,
    ) -> Result<Network, PlanError> {
        Self::with_policy(
            batch,
            in_channels,
            image_dims,
            specs,
            opts,
            threads,
            &FallbackPolicy::strict(),
        )
    }

    /// Plan a network under `policy`: under [`FallbackPolicy::default`] a
    /// JIT plan failure retries with [`crate::Stage2Backend::Mono`] and a
    /// layer with no Winograd plan at all is planned on
    /// [`crate::Route::Im2col`]; under [`FallbackPolicy::strict`] either is
    /// the error. Downgrades are recorded on the [`NetLayer`] and surface
    /// in every [`ExecutionReport`].
    ///
    /// Geometry errors ([`PlanError::Shape`]) always fail: no backend can
    /// execute an ill-formed layer — nor an empty stack
    /// ([`ShapeError::ZeroDim`]).
    pub fn with_policy(
        batch: usize,
        in_channels: usize,
        image_dims: &[usize],
        specs: &[LayerSpec],
        opts: ConvOptions,
        threads: usize,
        policy: &FallbackPolicy,
    ) -> Result<Network, PlanError> {
        Self::at_rung(batch, in_channels, image_dims, specs, opts, threads, policy, 0)
    }

    /// [`Network::with_policy`] on the candidate a serving circuit
    /// breaker's `rung` selects for every layer: 0 plans as configured, 1
    /// forces stage 2 onto the monomorphised kernels, 2 and beyond plan
    /// every layer on [`crate::Route::Im2col`] — under
    /// [`FallbackPolicy::default`]; [`FallbackPolicy::strict`] plans every
    /// rung as configured. A strided or grouped layer stands on the same
    /// rungs as a dense one: its route is built from the same candidate.
    #[allow(clippy::too_many_arguments)] // with_policy's seven plus the rung
    pub fn at_rung(
        batch: usize,
        in_channels: usize,
        image_dims: &[usize],
        specs: &[LayerSpec],
        opts: ConvOptions,
        threads: usize,
        policy: &FallbackPolicy,
        rung: u8,
    ) -> Result<Network, PlanError> {
        if specs.is_empty() {
            return Err(ShapeError::ZeroDim.into());
        }
        let mut layers = Vec::with_capacity(specs.len());
        let mut c = in_channels;
        let mut dims = image_dims.to_vec();
        for spec in specs {
            let shape =
                ConvShape::new(batch, c, spec.out_channels, &dims, &spec.kernel, &spec.padding)?;
            let (plan, planned_fallback) = plan_at_rung(&shape, &spec.m, opts, policy, rung)?;
            c = spec.out_channels;
            // Chaining uses the geometry's output extents.
            dims = plan.out_dims().to_vec();
            layers.push(NetLayer { plan, activation: spec.activation, planned_fallback });
        }
        // One resident slot per layer, so repeat passes never rebuild.
        // Pre-seeding (of the dense stride-1 layers; any other fills its
        // slot on first use) is an optimisation, not a requirement: a
        // refused allocation leaves the slot empty and the run-time walk
        // deals with memory pressure when the layer actually runs.
        let seed = |l: &NetLayer| l.plan.winograd().and_then(|p| Scratch::try_new(p, threads).ok());
        let slots = layers.iter().map(|l| Slot { scratch: seed(l), dense: None }).collect();
        let acts = layers.iter().map(|_| None).collect();
        Ok(Network { layers, slots, acts })
    }

    /// The network's analytic memory footprint at `threads` thread slots:
    /// every component is a *sum* over the layers' route models
    /// ([`DispatchPlan::footprint`]) — each layer holds its own resident
    /// slot and its own resident output (the price of allocation-free
    /// repeat forwards) and its own memoised kernels.
    pub fn footprint(&self, threads: usize) -> crate::MemoryFootprint {
        let mut acc = crate::MemoryFootprint::empty(threads);
        for l in &self.layers {
            acc.fold(&l.plan.footprint(threads), |a, b| a + b);
        }
        acc
    }

    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    pub fn layers(&self) -> &[NetLayer] {
        &self.layers
    }

    /// Auxiliary bytes currently held across all layer slots: every
    /// scratch plus every strided layer's stride-1 image.
    pub fn scratch_bytes(&self) -> usize {
        self.slots.iter().map(Slot::bytes).sum()
    }

    /// Memoise all kernel transforms for inference (§4.2 "Inference
    /// only"); pass the result to [`Self::forward_fx`]. Only dense
    /// stride-1 Winograd layers ([`DispatchPlan::winograd`]) have a
    /// memoised kernel transform; any other makes this an
    /// [`WinoError::Unsupported`] error.
    pub fn prepare_kernels(
        &mut self,
        kernels: &[BlockedKernels],
        exec: &dyn Executor,
    ) -> Result<Vec<TransformedKernels>, WinoError> {
        if kernels.len() != self.layers.len() {
            return Err(WinoError::LayerCount { expected: self.layers.len(), got: kernels.len() });
        }
        let mut out = Vec::with_capacity(kernels.len());
        for ((layer, slot), kernel) in self.layers.iter().zip(&mut self.slots).zip(kernels) {
            let plan = layer.plan.winograd().ok_or(WinoError::Unsupported(NO_MEMO))?;
            let sc = ensure_scratch(&mut slot.scratch, plan, exec.threads())?;
            out.push(plan.prepare_kernels(kernel, sc, exec)?);
        }
        Ok(out)
    }

    /// Execute one layer: the planned route plus, under
    /// [`FallbackPolicy::default`], the run-time degradations (memory
    /// re-tile, numeric guard, im2col rescue) and, whenever sampling is on,
    /// the accuracy sentinels.
    ///
    /// Pool errors ([`WinoError::Pool`]) are **not** absorbed — a
    /// panicked worker or tripped watchdog means the executor itself is
    /// suspect, so they always propagate.
    pub fn run_layer(
        &mut self,
        index: usize,
        input: &BlockedImage,
        kernels: &BlockedKernels,
        exec: &dyn Executor,
        policy: &FallbackPolicy,
    ) -> Result<(BlockedImage, ExecutionReport), WinoError> {
        let layer = self
            .layers
            .get(index)
            .ok_or(WinoError::Unsupported("layer index out of range"))?;
        let slot = &mut self.slots[index];
        exec_layer(slot, layer, index, input, Kernels::Raw(kernels), exec, policy, None)
    }

    /// The one layer loop: chain `exec_layer` over the network. Each
    /// intermediate layer writes into its parked activation, which goes
    /// back to its slot once the next layer has consumed it.
    fn run<'k>(
        &mut self,
        input: &BlockedImage,
        kernels: impl ExactSizeIterator<Item = Kernels<'k>>,
        exec: &dyn Executor,
        policy: &FallbackPolicy,
    ) -> Result<(BlockedImage, Vec<ExecutionReport>), WinoError> {
        if kernels.len() != self.layers.len() {
            return Err(WinoError::LayerCount { expected: self.layers.len(), got: kernels.len() });
        }
        let mut reports = Vec::with_capacity(self.layers.len());
        let last = self.layers.len() - 1;
        let mut current: Option<BlockedImage> = None;
        for (i, ((layer, slot), kernel)) in
            self.layers.iter().zip(&mut self.slots).zip(kernels).enumerate()
        {
            let inp = current.as_ref().unwrap_or(input);
            let parked = if i < last { self.acts[i].take() } else { None };
            let (out, report) = exec_layer(slot, layer, i, inp, kernel, exec, policy, parked)?;
            reports.push(report);
            if let Some(consumed) = current.replace(out) {
                self.acts[i - 1] = Some(consumed);
            }
        }
        Ok((current.expect("at least one layer"), reports))
    }

    /// Run the whole network (training mode: kernels transformed every
    /// call), returning the final activation plus one [`ExecutionReport`]
    /// per layer.
    pub fn run_net(
        &mut self,
        input: &BlockedImage,
        kernels: &[BlockedKernels],
        exec: &dyn Executor,
        policy: &FallbackPolicy,
    ) -> Result<(BlockedImage, Vec<ExecutionReport>), WinoError> {
        self.run(input, kernels.iter().map(Kernels::Raw), exec, policy)
    }

    /// Run the network strictly (training mode; no degradation, no
    /// numeric guard). Returns the final activation.
    pub fn forward(
        &mut self,
        input: &BlockedImage,
        kernels: &[BlockedKernels],
        exec: &dyn Executor,
    ) -> Result<BlockedImage, WinoError> {
        self.run_net(input, kernels, exec, &FallbackPolicy::strict()).map(|(out, _)| out)
    }

    /// Run the network strictly in inference mode with memoised kernel
    /// transforms.
    pub fn forward_fx(
        &mut self,
        input: &BlockedImage,
        kernels: &[TransformedKernels],
        exec: &dyn Executor,
    ) -> Result<BlockedImage, WinoError> {
        self.run(input, kernels.iter().map(Kernels::Memo), exec, &FallbackPolicy::strict())
            .map(|(out, _)| out)
    }
}

/// Run `plan` once and judge what it produced: the numeric guard (NaN/Inf
/// — on iff `policy.degrade`, and always for a rescue, whose second trip
/// proves the corruption is not Winograd-specific, e.g. a non-finite
/// layer input), then the accuracy sentinels (finite but wrong). A refused allocation, a guard
/// trip and a sentinel trip come back as the typed [`WinoError`] the
/// run-time walk maps to its [`Cause`]. The output is written into
/// `parked` when the caller has one (a `Network`'s resident intermediate
/// activation of this layer, so of every candidate's output shape; taken,
/// so a failed attempt releases it), else into a fresh allocation.
#[allow(clippy::too_many_arguments)] // exec_layer's context plus the candidate under test
fn attempt(
    plan: &DispatchPlan,
    slot: &mut Slot,
    index: usize,
    input: &BlockedImage,
    kernels: Kernels<'_>,
    exec: &dyn Executor,
    policy: &FallbackPolicy,
    rescue: bool,
    parked: &mut Option<BlockedImage>,
) -> Result<BlockedImage, WinoError> {
    let mut out = match parked.take() {
        Some(img) => img,
        None => plan.try_new_output()?,
    };
    let probe = exec.probe();
    let t0 = span_start(probe);
    plan.forward_in(slot, input, kernels, &mut out, exec)?;
    if rescue {
        // SAFETY: the coordinator thread, between fork–joins.
        unsafe { record_coord(probe, wino_probe::SpanCategory::FallbackRescue, t0) };
        check_finite("im2col rescue output", out.as_slice())?;
    } else if policy.degrade {
        check_finite("output", out.as_slice())?;
    }
    // Disabled sentinels do no work at all: no RNG, no oracle, no counters.
    let sampled = policy.sentinel.samples > 0;
    if let (Some(w), Kernels::Raw(k), true) = (plan.winograd(), kernels, sampled) {
        let t0 = span_start(probe);
        let verdict = verify_sample(w, input, k, &out, &policy.sentinel, index);
        // SAFETY: the coordinator thread, between fork–joins.
        unsafe { record_coord(probe, wino_probe::SpanCategory::SentinelVerify, t0) };
        let checked = verdict.inspect_err(|_| wino_probe::Counter::SentinelTrips.add(1))?;
        wino_probe::Counter::SentinelTilesChecked.add(checked as u64);
    }
    Ok(out)
}

/// Execute one layer — shared by every route, by [`Network::run_net`] and
/// by [`Network::forward_fx`]: attempt the planned candidate, and while
/// the attempt fails for a cause the degradation table covers, re-plan
/// the layer on the next candidate and attempt that. The guard runs
/// BEFORE the activation: ReLU computes `f32::max(x, 0.0)`, which maps
/// NaN to 0.0 and would hide the corruption.
#[allow(clippy::too_many_arguments)] // the layer, its two resident buffers, and the call's context
fn exec_layer(
    slot: &mut Slot,
    layer: &NetLayer,
    index: usize,
    input: &BlockedImage,
    kernels: Kernels<'_>,
    exec: &dyn Executor,
    policy: &FallbackPolicy,
    mut parked: Option<BlockedImage>,
) -> Result<(BlockedImage, ExecutionReport), WinoError> {
    let mut report = ExecutionReport {
        layer: index,
        backend: layer.plan.backend(),
        fallback: layer.planned_fallback,
    };
    // Subnormal operands put x86 cores into microcode assists (50–100×
    // per affected FMA); flush them for the duration of the layer.
    // MXCSR is per-thread, so this covers the coordinator's share of
    // the work — full coverage under a serial executor (see
    // `wino_simd::denormals` for the model).
    let _ftz = wino_simd::FlushDenormals::engage();
    // A degraded execution's re-planned candidate. It runs through the
    // same slot (never two arenas at once); `ensure_scratch` re-shapes its
    // scratch, and again for the planned candidate on the next forward.
    let mut replanned: Option<DispatchPlan> = None;
    loop {
        let plan = replanned.as_ref().unwrap_or(&layer.plan);
        let rescue = replanned.is_some() && plan.cand == Candidate::Im2col;
        let failure = match attempt(plan, slot, index, input, kernels, exec, policy, rescue, &mut parked) {
            Ok(mut out) => {
                if replanned.is_some() {
                    tally(&report, rescue);
                }
                layer.activation.apply(&mut out);
                return Ok((out, report));
            }
            Err(e) => e,
        };
        let (mut cause, reason) = match &failure {
            WinoError::Alloc(e) => (Cause::Memory, FallbackReason::Memory { bytes: e.bytes }),
            WinoError::Numeric(e) => (Cause::NonFinite, FallbackReason::NumericGuard(*e)),
            WinoError::Sentinel(e) => (Cause::Sentinel, FallbackReason::SentinelTrip(*e)),
            _ => return Err(failure),
        };
        if cause == Cause::Memory {
            *slot = Slot::default(); // the arena may be most of the pressure: release it before the retry
        }
        // Walk the table until a candidate plans; none left = the failure.
        let mut cand = plan.cand.clone();
        let next = loop {
            let Some(next) = degrade(&cand, cause, plan.out_dims(), policy) else {
                return Err(failure);
            };
            match layer.plan.replan(&next) {
                Ok(p) => break p,
                Err(e) => (cand, cause) = (next, Cause::from(&e)),
            }
        };
        if replanned.is_none() {
            report.fallback = Some(reason); // the first run-time cause stands
        }
        report.backend = next.backend();
        replanned = Some(next);
    }
}

/// Count a degraded execution that stood, by the ladder it came down.
fn tally(report: &ExecutionReport, rescue: bool) {
    use wino_probe::Counter;
    match (report.fallback, rescue) {
        (Some(FallbackReason::Memory { .. }), false) => Counter::MemoryDemotions.add(1),
        (Some(FallbackReason::Memory { .. }), true) => Counter::MemoryRescues.add(1),
        (Some(FallbackReason::SentinelTrip(_)), false) => Counter::SentinelDemotions.add(1),
        (Some(FallbackReason::SentinelTrip(_)), true) => Counter::SentinelRescues.add(1),
        _ => {}
    }
}

/// Specification of one network layer.
#[derive(Clone, Debug)]
pub struct LayerSpec {
    pub out_channels: usize,
    pub kernel: Vec<usize>,
    pub padding: Vec<usize>,
    /// Winograd output-tile size per dimension.
    pub m: Vec<usize>,
    pub activation: Activation,
}

impl LayerSpec {
    /// A "same"-padded layer with cubic kernels and tiles.
    pub fn same(out_channels: usize, rank: usize, r: usize, m: usize) -> LayerSpec {
        LayerSpec {
            out_channels,
            kernel: vec![r; rank],
            padding: vec![r / 2; rank],
            m: vec![m; rank],
            activation: Activation::Relu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WinogradLayer;
    use wino_sched::SerialExecutor;
    use wino_tensor::{SimpleImage, SimpleKernels};

    #[test]
    fn serialization_names_match_schema_sets() {
        // The schema validator (wino-probe) pins the wire names; the
        // producers here must stay inside those sets or reports fail
        // validation at emit time.
        for b in [
            LayerBackend::WinogradJit,
            LayerBackend::WinogradMono,
            LayerBackend::WinogradDemoted,
            LayerBackend::WinogradGrouped,
            LayerBackend::Im2col,
        ] {
            assert!(
                wino_probe::BACKEND_NAMES.contains(&b.name()),
                "{:?} serializes to unknown name {}",
                b,
                b.name()
            );
        }
        let reasons = [
            FallbackReason::JitUnavailable(PlanError::RankTooHigh { rank: 9 }),
            FallbackReason::PlanFailed(PlanError::RankTooHigh { rank: 9 }),
            FallbackReason::NumericGuard(NumericError { stage: "output", index: 0 }),
            FallbackReason::SentinelTrip(SentinelError { unit: 0, rel_err: 1.0, bound: 0.5 }),
            FallbackReason::Dilated,
            FallbackReason::GroupTooNarrow { c_per_group: 1 },
            FallbackReason::Memory { bytes: 4096 },
        ];
        for r in &reasons {
            assert!(
                wino_probe::FALLBACK_CODES.contains(&r.code()),
                "{r:?} serializes to unknown code {}",
                r.code()
            );
        }
    }

    fn kernels_for(net: &Network, seed: usize) -> Vec<BlockedKernels> {
        net.layers()
            .iter()
            .map(|l| {
                let s = &l.plan.shape;
                let k = SimpleKernels::from_fn(s.out_channels, s.in_channels, &s.kernel_dims, |co, ci, xy| {
                    ((co * 7 + ci * 3 + xy.iter().sum::<usize>() + seed) % 13) as f32 * 0.05 - 0.3
                });
                BlockedKernels::from_simple(&k).unwrap()
            })
            .collect()
    }

    /// The stride-1 plan a Winograd-routed layer executes.
    fn engine_plan(l: &NetLayer) -> &WinogradLayer {
        match &l.plan.route {
            crate::Route::Direct(p) | crate::Route::Grouped { plan: p } => p,
            crate::Route::Im2col => panic!("an im2col layer has no Winograd plan"),
        }
    }

    #[test]
    fn steady_state_run_allocates_only_the_returned_output() {
        // The serving hot path relies on this: once the scratch arena,
        // a strided layer's stride-1 image and the intermediate
        // activations are resident, a repeat forward pass allocates
        // exactly the image it returns and nothing else (no per-layer
        // output, no scratch regrow, no hidden temporaries) — and
        // computes the same bits into the reused images.
        let specs = vec![
            LayerSpec::same(32, 2, 3, 2),
            LayerSpec::same(16, 2, 3, 2),
            LayerSpec::same(16, 2, 3, 4),
        ];
        let img = SimpleImage::from_fn(1, 16, &[12, 12], |_, c, xy| {
            ((c + xy[0] * 3 + xy[1]) % 11) as f32 * 0.1 - 0.5
        });
        let input = BlockedImage::from_simple(&img).unwrap();
        let other = BlockedImage::from_simple(&SimpleImage::from_fn(1, 16, &[12, 12], |_, c, xy| {
            ((c * 5 + xy[0] + xy[1] * 2) % 7) as f32 * 0.2 - 0.6
        }))
        .unwrap();
        let policy = FallbackPolicy::default();
        for opts in [ConvOptions::default(), ConvOptions::default().with_stride(&[2, 2])] {
            let strided = !opts.has_identity_geometry(2);
            let mut net = Network::new(1, 16, &[12, 12], &specs, opts, 1).unwrap();
            let kernels = kernels_for(&net, 0);
            let before = wino_simd::thread_alloc_calls();
            let (first, _) = net.run_net(&input, &kernels, &SerialExecutor, &policy).unwrap();
            let cold = wino_simd::thread_alloc_calls() - before;
            if strided {
                // Nothing of a strided layer is seeded at plan time: its
                // scratch and its stride-1 image are built here.
                assert!(cold > 3 + 3, "a cold strided pass builds every slot ({cold})");
                assert_eq!(first.dims, [2, 2]); // 12 → 6 → 3 → 2
            } else {
                assert_eq!(cold, 3, "a cold pass builds every output");
            }
            let resident = net.scratch_bytes();
            for round in 0..3 {
                // A different input in between: a parked activation (and a
                // stride-1 image) holds stale values that the next pass
                // must overwrite entirely.
                net.run_net(&other, &kernels, &SerialExecutor, &policy).unwrap();
                let before = wino_simd::thread_alloc_calls();
                let (out, _) = net.run_net(&input, &kernels, &SerialExecutor, &policy).unwrap();
                let delta = wino_simd::thread_alloc_calls() - before;
                assert_eq!(delta, 1, "round {round}: expected the returned output only");
                assert_eq!(out.as_slice(), first.as_slice(), "round {round}");
                assert_eq!(net.scratch_bytes(), resident, "round {round}");
            }
            // An unguarded pass over a NaN input parks NaN-ridden activations,
            // a guarded one fails in the first layer and releases what it
            // held; the next pass overwrites the former and rebuilds the latter.
            let mut bad = input.clone();
            bad.as_mut_slice()[0] = f32::NAN;
            assert!(net.run_net(&bad, &kernels, &SerialExecutor, &FallbackPolicy::strict()).is_ok());
            assert!(net.run_net(&bad, &kernels, &SerialExecutor, &policy).is_err());
            let (out, _) = net.run_net(&input, &kernels, &SerialExecutor, &policy).unwrap();
            assert_eq!(out.as_slice(), first.as_slice(), "after a failed pass");
        }
    }

    #[test]
    fn footprint_predicts_observed_bytes_within_ten_percent() {
        // The end-to-end accounting gate: the analytic model must price
        // a whole cold start — plan (scratch seeding), kernel
        // memoisation, one forward (per-layer outputs) — within 10% of
        // what the allocator actually handed out. Everything runs on
        // this thread (serial executor), so the per-thread byte tally
        // is exact and immune to concurrent tests.
        // Once on fused plans (rings, no layer-sized scratch), once on staged
        // ones (two reduction blocks over ≥ 32 channels, and at least 32
        // rows, which the dual ring turns down), once strided (no memoised
        // kernels; a stride-1 image beside every scratch).
        let strided = ConvOptions::default().with_stride(&[2, 2]);
        for (opts, c_in, side, fused) in [
            (ConvOptions::default(), 16, 12, true),
            (crate::plan::split_reduction(), 32, 24, false),
            (strided, 16, 12, true),
        ] {
            let specs = vec![LayerSpec::same(32, 2, 3, 2), LayerSpec::same(16, 2, 3, 4)];
            let img = SimpleImage::from_fn(1, c_in, &[side, side], |_, c, xy| {
                ((c + xy[0] * 3 + xy[1]) % 11) as f32 * 0.1 - 0.5
            });
            let input = BlockedImage::from_simple(&img).unwrap();

            let before = wino_simd::thread_alloc_bytes();
            let mut net = Network::new(1, c_in, &[side, side], &specs, opts, 1).unwrap();
            assert!(net.layers().iter().all(|l| engine_plan(l).is_fused() == fused));
            assert!(net.layers().iter().all(|l| !engine_plan(l).is_dual()));
            let kernels = kernels_for(&net, 3);
            let kernel_bytes: usize = kernels.iter().map(|k| k.as_slice().len() * 4).sum();
            let _out = if opts.has_identity_geometry(2) {
                let fx = net.prepare_kernels(&kernels, &SerialExecutor).unwrap();
                net.forward_fx(&input, &fx, &SerialExecutor).unwrap()
            } else {
                net.forward(&input, &kernels, &SerialExecutor).unwrap()
            };
            // The raw kernel tensors are inputs, not part of the plan's
            // footprint — subtract them from the observation.
            let observed = (wino_simd::thread_alloc_bytes() - before) as usize - kernel_bytes;

            let modeled = net.footprint(1).total();
            let ratio = observed as f64 / modeled as f64;
            assert!(
                (0.9..=1.1).contains(&ratio),
                "{opts:?}: modeled {modeled} vs observed {observed} bytes (ratio {ratio:.3})"
            );
        }
    }

    #[test]
    fn two_layer_net_matches_manual_chaining() {
        let specs = vec![LayerSpec::same(32, 2, 3, 2), LayerSpec::same(16, 2, 3, 2)];
        let mut net =
            Network::new(1, 16, &[12, 12], &specs, ConvOptions::default(), 1).unwrap();
        assert_eq!(net.num_layers(), 2);
        let img = SimpleImage::from_fn(1, 16, &[12, 12], |_, c, xy| {
            ((c + xy[0] * 3 + xy[1]) % 11) as f32 * 0.1 - 0.5
        });
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 0);
        let out = net.forward(&input, &kernels, &SerialExecutor).unwrap();

        // Manual chaining with fresh plans and scratches.
        let s1 = ConvShape::new(1, 16, 32, &[12, 12], &[3, 3], &[1, 1]).unwrap();
        let p1 = WinogradLayer::new(s1.clone(), &[2, 2], ConvOptions::default()).unwrap();
        let s2 = ConvShape::new(1, 32, 16, &[12, 12], &[3, 3], &[1, 1]).unwrap();
        let p2 = WinogradLayer::new(s2, &[2, 2], ConvOptions::default()).unwrap();
        let mut sc1 = Scratch::new(&p1, 1);
        let mut sc2 = Scratch::new(&p2, 1);
        let mut a1 = p1.new_output().unwrap();
        p1.forward(&input, &kernels[0], &mut a1, &mut sc1, &SerialExecutor).unwrap();
        for v in a1.as_mut_slice() {
            *v = v.max(0.0);
        }
        let mut a2 = p2.new_output().unwrap();
        p2.forward(&a1, &kernels[1], &mut a2, &mut sc2, &SerialExecutor).unwrap();
        for v in a2.as_mut_slice() {
            *v = v.max(0.0);
        }
        assert_eq!(out.as_slice(), a2.as_slice());
    }

    #[test]
    fn fx_mode_matches_training_mode() {
        let specs = vec![LayerSpec::same(16, 2, 3, 4), LayerSpec::same(16, 2, 3, 4)];
        let mut net = Network::new(1, 16, &[14, 14], &specs, ConvOptions::default(), 1).unwrap();
        let img = SimpleImage::from_fn(1, 16, &[14, 14], |_, c, xy| (c + xy[0] + xy[1]) as f32 * 0.02);
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 5);
        let train = net.forward(&input, &kernels, &SerialExecutor).unwrap();
        let tks = net.prepare_kernels(&kernels, &SerialExecutor).unwrap();
        let fx = net.forward_fx(&input, &tks, &SerialExecutor).unwrap();
        assert_eq!(train.as_slice(), fx.as_slice());
    }

    #[test]
    fn valid_padding_shrinks_through_layers() {
        let specs = vec![
            LayerSpec {
                out_channels: 16,
                kernel: vec![3, 3],
                padding: vec![0, 0],
                m: vec![2, 2],
                activation: Activation::None,
            };
            3
        ];
        let mut net = Network::new(1, 16, &[16, 16], &specs, ConvOptions::default(), 1).unwrap();
        let img = SimpleImage::from_fn(1, 16, &[16, 16], |_, c, xy| (c + xy[0]) as f32 * 0.01);
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 9);
        let out = net.forward(&input, &kernels, &SerialExecutor).unwrap();
        assert_eq!(out.dims, vec![10, 10]); // 16 -> 14 -> 12 -> 10
    }

    #[test]
    fn wider_executor_than_planned_regrows_scratch() {
        // Regression: Network planned with 1 thread must still run on a
        // 4-slot executor (scratch thread slots regrow on demand).
        let specs = vec![LayerSpec::same(16, 2, 3, 2)];
        let mut net = Network::new(1, 16, &[10, 10], &specs, ConvOptions::default(), 1).unwrap();
        let img = SimpleImage::from_fn(1, 16, &[10, 10], |_, c, xy| (c + xy[0]) as f32 * 0.02);
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 4);
        let serial = net.forward(&input, &kernels, &SerialExecutor).unwrap();
        let pool = wino_sched::StaticExecutor::new(4);
        let parallel = net.forward(&input, &kernels, &pool).unwrap();
        assert_eq!(serial.as_slice(), parallel.as_slice());
    }

    #[test]
    fn repeated_forwards_are_deterministic() {
        let specs = vec![LayerSpec::same(16, 2, 3, 2)];
        let mut net = Network::new(2, 16, &[10, 10], &specs, ConvOptions::default(), 1).unwrap();
        let img = SimpleImage::from_fn(2, 16, &[10, 10], |b, c, xy| (b + c + xy[1]) as f32 * 0.03);
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 2);
        let a = net.forward(&input, &kernels, &SerialExecutor).unwrap();
        let b = net.forward(&input, &kernels, &SerialExecutor).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn layer_count_mismatch_is_typed() {
        let specs = vec![LayerSpec::same(16, 2, 3, 2)];
        let mut net = Network::new(1, 16, &[10, 10], &specs, ConvOptions::default(), 1).unwrap();
        let img = SimpleImage::from_fn(1, 16, &[10, 10], |_, c, xy| (c + xy[0]) as f32 * 0.02);
        let input = BlockedImage::from_simple(&img).unwrap();
        let err = net.forward(&input, &[], &SerialExecutor).unwrap_err();
        assert!(matches!(err, WinoError::LayerCount { expected: 1, got: 0 }));
        let err = net.run_net(&input, &[], &SerialExecutor, &FallbackPolicy::default()).unwrap_err();
        assert!(matches!(err, WinoError::LayerCount { expected: 1, got: 0 }));
    }

    #[test]
    fn mismatched_operands_are_typed_not_a_panic() {
        // Regression: `forward_in` asserted its operands, so a wrong image
        // or kernel bank panicked through every `Network` entry point.
        use wino_tensor::ShapeError;
        let specs = vec![LayerSpec::same(16, 2, 3, 2)];
        let mut net = Network::new(1, 16, &[12, 12], &specs, ConvOptions::default(), 1).unwrap();
        let kernels = kernels_for(&net, 1);
        let policy = FallbackPolicy::default();
        let what = |r: Result<BlockedImage, WinoError>| match r {
            Err(WinoError::Shape(ShapeError::Mismatch { what, .. })) => what,
            other => panic!("expected a typed mismatch, got {:?}", other.map(|o| o.dims)),
        };
        let short = BlockedImage::zeros(1, 16, &[10, 12]).unwrap();
        let run = net.run_net(&short, &kernels, &SerialExecutor, &policy).map(|(o, _)| o);
        assert_eq!(what(run), "input extent");
        let run = net.run_layer(0, &short, &kernels[0], &SerialExecutor, &policy).map(|(o, _)| o);
        assert_eq!(what(run), "input extent");
        let fx = net.prepare_kernels(&kernels, &SerialExecutor).unwrap();
        assert_eq!(what(net.forward_fx(&short, &fx, &SerialExecutor)), "input extent");
        let wide = BlockedImage::zeros(1, 32, &[12, 12]).unwrap();
        assert_eq!(what(net.forward(&wide, &kernels, &SerialExecutor)), "input channels");
        let good = BlockedImage::zeros(1, 16, &[12, 12]).unwrap();
        let narrow = [BlockedKernels::zeros(8, 16, &[3, 3]).unwrap()];
        let run = net.forward(&good, &narrow, &SerialExecutor);
        assert_eq!(what(run), "kernel in_channels (C / groups)");
        net.forward(&good, &kernels, &SerialExecutor).expect("the matching operands run");
    }

    #[test]
    fn clean_net_reports_winograd_backend() {
        let specs = vec![LayerSpec::same(16, 2, 3, 2), LayerSpec::same(16, 2, 3, 2)];
        let mut net =
            Network::with_policy(1, 16, &[10, 10], &specs, ConvOptions::default(), 1, &FallbackPolicy::default())
                .unwrap();
        let img = SimpleImage::from_fn(1, 16, &[10, 10], |_, c, xy| (c + xy[1]) as f32 * 0.02);
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 3);
        let (_, reports) =
            net.run_net(&input, &kernels, &SerialExecutor, &FallbackPolicy::default()).unwrap();
        assert_eq!(reports.len(), 2);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.layer, i);
            assert_eq!(r.backend, LayerBackend::WinogradMono);
            assert!(r.fallback.is_none());
        }
    }

    #[test]
    fn unplannable_layer_degrades_to_im2col() {
        // m = 40 on a 10×10 output is BadTileSize: strict planning fails…
        let specs = vec![LayerSpec {
            out_channels: 16,
            kernel: vec![3, 3],
            padding: vec![1, 1],
            m: vec![40, 40],
            activation: Activation::Relu,
        }];
        assert!(matches!(
            Network::new(1, 16, &[10, 10], &specs, ConvOptions::default(), 1),
            Err(PlanError::BadTileSize { .. })
        ));

        // …while the permissive policy plans the layer as im2col and the
        // result matches a well-planned Winograd net within 1e-4.
        let mut net = Network::with_policy(
            1,
            16,
            &[10, 10],
            &specs,
            ConvOptions::default(),
            1,
            &FallbackPolicy::default(),
        )
        .unwrap();
        assert!(net.layers()[0].plan.winograd().is_none());
        assert!(matches!(
            net.layers()[0].planned_fallback,
            Some(FallbackReason::PlanFailed(PlanError::BadTileSize { .. }))
        ));
        assert_eq!(net.scratch_bytes(), 0); // no Winograd layer, no scratch

        let img = SimpleImage::from_fn(1, 16, &[10, 10], |_, c, xy| {
            ((c + xy[0] * 2 + xy[1]) % 9) as f32 * 0.07 - 0.3
        });
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 6);
        let (out, reports) =
            net.run_net(&input, &kernels, &SerialExecutor, &FallbackPolicy::default()).unwrap();
        assert_eq!(reports[0].backend, LayerBackend::Im2col);
        assert!(matches!(reports[0].fallback, Some(FallbackReason::PlanFailed(_))));

        let good = vec![LayerSpec { m: vec![2, 2], ..specs[0].clone() }];
        let mut wino = Network::new(1, 16, &[10, 10], &good, ConvOptions::default(), 1).unwrap();
        let reference = wino.forward(&input, &kernels, &SerialExecutor).unwrap();
        assert_eq!(out.as_slice().len(), reference.as_slice().len());
        for (a, b) in out.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - b).abs() < 1e-4, "im2col fallback diverged: {a} vs {b}");
        }
    }

    #[test]
    fn non_finite_input_is_an_error_not_a_silent_rescue() {
        // A NaN in the *layer input* trips the output guard, but the
        // im2col rescue reproduces it — the second guard trip must
        // surface as an error instead of ReLU mapping the NaN to 0.0.
        let specs = vec![LayerSpec::same(16, 2, 3, 2)];
        let mut net = Network::new(1, 16, &[10, 10], &specs, ConvOptions::default(), 1).unwrap();
        let img = SimpleImage::from_fn(1, 16, &[10, 10], |_, c, xy| {
            if c == 3 && xy == [5, 5] {
                f32::NAN
            } else {
                (c + xy[0]) as f32 * 0.02
            }
        });
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 4);
        let err = net
            .run_net(&input, &kernels, &SerialExecutor, &FallbackPolicy::default())
            .expect_err("a NaN input must not be silently absorbed");
        match err {
            WinoError::Numeric(e) => assert_eq!(e.stage, "im2col rescue output"),
            other => panic!("expected Numeric, got {other:?}"),
        }
    }

    #[test]
    fn im2col_layer_rejects_kernel_memoisation() {
        let specs = vec![LayerSpec {
            out_channels: 16,
            kernel: vec![3, 3],
            padding: vec![1, 1],
            m: vec![40, 40],
            activation: Activation::None,
        }];
        let mut net = Network::with_policy(
            1,
            16,
            &[10, 10],
            &specs,
            ConvOptions::default(),
            1,
            &FallbackPolicy::default(),
        )
        .unwrap();
        let kernels = kernels_for(&net, 1);
        assert!(matches!(
            net.prepare_kernels(&kernels, &SerialExecutor),
            Err(WinoError::Unsupported(_))
        ));
    }

    #[test]
    fn run_layer_executes_one_layer() {
        let specs = vec![LayerSpec::same(16, 2, 3, 2), LayerSpec::same(16, 2, 3, 2)];
        let mut net = Network::new(1, 16, &[10, 10], &specs, ConvOptions::default(), 1).unwrap();
        let img = SimpleImage::from_fn(1, 16, &[10, 10], |_, c, xy| (c + xy[0]) as f32 * 0.02);
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 8);
        let policy = FallbackPolicy::default();
        let (a1, r1) = net.run_layer(0, &input, &kernels[0], &SerialExecutor, &policy).unwrap();
        let (a2, r2) = net.run_layer(1, &a1, &kernels[1], &SerialExecutor, &policy).unwrap();
        assert_eq!(r1.layer, 0);
        assert_eq!(r2.layer, 1);
        let full = net.forward(&input, &kernels, &SerialExecutor).unwrap();
        assert_eq!(a2.as_slice(), full.as_slice());
        // Out-of-range index is a typed error, not a panic.
        assert!(net.run_layer(9, &input, &kernels[0], &SerialExecutor, &policy).is_err());
    }

    /// One oracle layer: f64 direct conv over the full geometry, then
    /// (optionally) ReLU — the ground truth the dispatch-backed network
    /// paths are compared against.
    fn oracle_layer(
        img: &SimpleImage,
        ker: &BlockedKernels,
        padding: &[usize],
        geo: &wino_tensor::ConvGeometry,
        relu: bool,
    ) -> SimpleImage {
        let mut out = wino_baseline::direct_f64_geo(img, &ker.to_simple(), padding, geo);
        if relu {
            for v in &mut out.data {
                *v = v.max(0.0);
            }
        }
        out
    }

    fn assert_close(got: &BlockedImage, want: &SimpleImage, tol: f32, what: &str) {
        let got = got.to_simple();
        assert_eq!(got.dims, want.dims, "{what}: dims");
        assert_eq!(got.channels, want.channels, "{what}: channels");
        for (i, (a, b)) in got.data.iter().zip(&want.data).enumerate() {
            assert!((a - b).abs() <= tol, "{what}: [{i}] {a} vs {b}");
        }
    }

    #[test]
    fn strided_network_chains_geometry_and_reports_the_engine() {
        // Two stride-2 layers: 12×12 → 6×6 → 3×3, every layer executed by
        // its stride-1 plan plus the subsample, and reported as the engine
        // that ran.
        let specs = vec![LayerSpec::same(16, 2, 3, 2), LayerSpec::same(16, 2, 3, 2)];
        let opts = ConvOptions::default().with_stride(&[2, 2]);
        let mut net =
            Network::with_policy(1, 16, &[12, 12], &specs, opts, 1, &FallbackPolicy::default())
                .unwrap();
        assert_eq!(net.layers()[0].plan.out_dims(), vec![6, 6]);
        assert_eq!(net.layers()[1].plan.out_dims(), vec![3, 3]);

        let img = SimpleImage::from_fn(1, 16, &[12, 12], |_, c, xy| {
            ((c + xy[0] * 3 + xy[1]) % 11) as f32 * 0.1 - 0.5
        });
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 7);
        let (out, reports) =
            net.run_net(&input, &kernels, &SerialExecutor, &FallbackPolicy::default()).unwrap();
        for r in &reports {
            assert_eq!(r.backend, LayerBackend::WinogradMono);
            assert!(r.fallback.is_none(), "stride is an epilogue, not a fallback");
        }
        assert_eq!(out.dims, vec![3, 3]);

        let geo = opts.geometry(2);
        let a1 = oracle_layer(&img, &kernels[0], &[1, 1], &geo, true);
        let want = oracle_layer(&a1, &kernels[1], &[1, 1], &geo, true);
        assert_close(&out, &want, 1e-3, "strided net");
    }

    #[test]
    fn grouped_network_reports_grouped_backend() {
        // C = C' = 32, groups = 2: each group is a 16→16 sub-conv — wide
        // enough for the blocked layouts, so the grouped Winograd route
        // runs (and reports) rather than falling back.
        let specs = vec![LayerSpec::same(32, 2, 3, 2)];
        let opts = ConvOptions::default().with_groups(2);
        let mut net =
            Network::with_policy(1, 32, &[10, 10], &specs, opts, 1, &FallbackPolicy::default())
                .unwrap();
        let dp = &net.layers()[0].plan;
        assert!(matches!(dp.route, crate::dispatch::Route::Grouped { .. }));
        assert_eq!(dp.kernel_in_channels(), 16);

        let img = SimpleImage::from_fn(1, 32, &[10, 10], |_, c, xy| {
            ((c * 2 + xy[0] + xy[1] * 3) % 13) as f32 * 0.06 - 0.4
        });
        let input = BlockedImage::from_simple(&img).unwrap();
        // Grouped kernels carry C/G input channels; the dense helper
        // above would build the wrong shape.
        let k = SimpleKernels::from_fn(32, 16, &[3, 3], |co, ci, xy| {
            ((co * 5 + ci * 3 + xy[0] + xy[1]) % 11) as f32 * 0.05 - 0.25
        });
        let kernels = vec![BlockedKernels::from_simple(&k).unwrap()];
        let (out, reports) =
            net.run_net(&input, &kernels, &SerialExecutor, &FallbackPolicy::default()).unwrap();
        assert_eq!(reports[0].backend, LayerBackend::WinogradGrouped);
        assert!(reports[0].fallback.is_none());

        let want = oracle_layer(&img, &kernels[0], &[1, 1], &opts.geometry(2), true);
        assert_close(&out, &want, 1e-3, "grouped net");

        // Memoised kernel transforms are a dense-Winograd feature; a
        // dispatch-planned layer declines them with a typed error.
        assert!(matches!(
            net.prepare_kernels(&kernels, &SerialExecutor),
            Err(WinoError::Unsupported(_))
        ));
    }

    #[test]
    fn an_empty_layer_stack_is_a_typed_error_not_a_panic() {
        // Regression: all three constructors reached an `assert!` and
        // aborted their caller.
        use wino_tensor::ShapeError;
        let opts = ConvOptions::default();
        let zero_dim = |r: Result<Network, PlanError>| {
            matches!(r, Err(PlanError::Shape(ShapeError::ZeroDim)))
        };
        assert!(zero_dim(Network::new(1, 16, &[8, 8], &[], opts, 1)));
        let policy = FallbackPolicy::default();
        assert!(zero_dim(Network::with_policy(1, 16, &[8, 8], &[], opts, 1, &policy)));
        assert!(zero_dim(Network::at_rung(1, 16, &[8, 8], &[], opts, 1, &policy, 2)));
    }

    /// Serial executor that records whether every fork–join it ran found
    /// flush-to-zero engaged on the (coordinator = compute) thread.
    struct FtzWitness(std::sync::atomic::AtomicUsize);

    impl Executor for FtzWitness {
        fn run_grid(
            &self,
            dims: &[usize],
            task: &(dyn Fn(usize, usize) + Sync),
        ) -> Result<(), wino_sched::PoolError> {
            if wino_simd::FlushDenormals::active() {
                // ORDERING: Relaxed — single-threaded test tally.
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            SerialExecutor.run_grid(dims, task)
        }

        fn threads(&self) -> usize {
            1
        }

        fn name(&self) -> &'static str {
            "ftz-witness"
        }
    }

    #[test]
    fn forward_fx_engages_flush_to_zero_like_run_net() {
        // Regression: `forward_fx` was its own layer loop and never
        // engaged FTZ/DAZ, while `run_net` did. Both now run the one
        // per-layer function.
        let specs = vec![LayerSpec::same(16, 2, 3, 2), LayerSpec::same(16, 2, 3, 2)];
        let mut net = Network::new(1, 16, &[10, 10], &specs, ConvOptions::default(), 1).unwrap();
        assert!(net.layers().iter().all(|l| l.plan.winograd().unwrap().is_fused()));
        let img = SimpleImage::from_fn(1, 16, &[10, 10], |_, c, xy| (c + xy[0]) as f32 * 0.02);
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 2);
        let fx = net.prepare_kernels(&kernels, &SerialExecutor).unwrap();

        let witness = FtzWitness(Default::default());
        let engaged = wino_simd::denormals::engaged_count();
        assert!(!wino_simd::FlushDenormals::active(), "the test thread starts without FTZ");
        net.forward_fx(&input, &fx, &witness).unwrap();
        // The process-wide engage counter moved once per layer at least
        // (other tests may move it too)…
        assert!(wino_simd::denormals::engaged_count() >= engaged + 2);
        // …and, on this thread, every fork–join ran under the guard (one
        // per fused layer in FX mode), which was released afterwards.
        let grids = witness.0.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(grids, if cfg!(target_arch = "x86_64") { 2 } else { 0 });
        assert!(!wino_simd::FlushDenormals::active());
    }

    #[test]
    fn dilated_network_takes_the_designed_im2col_route() {
        // Dilation 2 with "same" padding (effective kernel 5, pad 2).
        // The designed route is im2col with a typed provenance — even
        // under the strict policy `Network::new` uses, because this is
        // routing, not degradation.
        let specs = vec![LayerSpec {
            out_channels: 16,
            kernel: vec![3, 3],
            padding: vec![2, 2],
            m: vec![2, 2],
            activation: Activation::Relu,
        }];
        let opts = ConvOptions::default().with_dilation(&[2, 2]);
        let mut net = Network::new(1, 16, &[12, 12], &specs, opts, 1).unwrap();
        assert_eq!(net.layers()[0].plan.out_dims(), vec![12, 12]);
        assert!(matches!(net.layers()[0].planned_fallback, Some(FallbackReason::Dilated)));

        let img = SimpleImage::from_fn(1, 16, &[12, 12], |_, c, xy| {
            ((c + xy[0] * 2 + xy[1]) % 9) as f32 * 0.08 - 0.3
        });
        let input = BlockedImage::from_simple(&img).unwrap();
        let kernels = kernels_for(&net, 11);
        let (out, reports) =
            net.run_net(&input, &kernels, &SerialExecutor, &FallbackPolicy::strict()).unwrap();
        assert_eq!(reports[0].backend, LayerBackend::Im2col);
        assert!(matches!(reports[0].fallback, Some(FallbackReason::Dilated)));

        let want = oracle_layer(&img, &kernels[0], &[2, 2], &opts.geometry(2), true);
        assert_close(&out, &want, 1e-4, "dilated net");
    }

    #[test]
    fn depthwise_network_reports_group_too_narrow() {
        // groups == C: one input channel per group — far below the S=16
        // channel block, so the dispatch layer routes to im2col and says
        // exactly why.
        let specs = vec![LayerSpec::same(16, 2, 3, 2)];
        let opts = ConvOptions::default().with_groups(16);
        let mut net = Network::new(1, 16, &[10, 10], &specs, opts, 1).unwrap();
        assert!(matches!(
            net.layers()[0].planned_fallback,
            Some(FallbackReason::GroupTooNarrow { c_per_group: 1 })
        ));

        let img = SimpleImage::from_fn(1, 16, &[10, 10], |_, c, xy| {
            ((c * 3 + xy[0] + xy[1]) % 7) as f32 * 0.09 - 0.3
        });
        let input = BlockedImage::from_simple(&img).unwrap();
        let k = SimpleKernels::from_fn(16, 1, &[3, 3], |co, _, xy| {
            ((co + xy[0] * 2 + xy[1]) % 5) as f32 * 0.1 - 0.2
        });
        let kernels = vec![BlockedKernels::from_simple(&k).unwrap()];
        let (out, reports) =
            net.run_net(&input, &kernels, &SerialExecutor, &FallbackPolicy::strict()).unwrap();
        assert_eq!(reports[0].backend, LayerBackend::Im2col);
        assert!(matches!(
            reports[0].fallback,
            Some(FallbackReason::GroupTooNarrow { c_per_group: 1 })
        ));

        let want = oracle_layer(&img, &kernels[0], &[1, 1], &opts.geometry(2), true);
        assert_close(&out, &want, 1e-4, "depthwise net");
    }
}
