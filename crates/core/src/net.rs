//! Multi-layer network execution with shared auxiliary memory (§4.4).
//!
//! "While the size of the auxiliary buffer can be a couple of times larger
//! than the memory required for storing the computed images, the same
//! memory buffer can be reused for the computation of each layer." —
//! [`Network`] plans a sequence of convolutional layers (each with its
//! own `F(m, r)`) and reuses one auxiliary arena *across layers and
//! passes*: one [`Scratch`], sized at plan time to the largest layer's
//! need, one stride-1 image for strided layers, and two ping-pong images
//! for the intermediate activations — each buffer re-viewed for the layer
//! at hand and grown only when a layer needs more — so the arena is the
//! largest layer's, and a repeat forward allocates nothing but the output
//! it returns. Layer outputs stay in the blocked layout, so no reshuffling
//! happens between layers (§4.1).
//!
//! Every layer is a [`DispatchPlan`], and the module owns the *run-time*
//! walk over the degradation table of [`crate::select`] (DESIGN.md §5):
//! one per-layer function executes the planned candidate, guards its
//! output (numeric guard, then accuracy sentinels), activates it — guard
//! and ReLU riding stage 3's store wherever stage 3 writes the output
//! (`stage3::Epilogue`) — and, when an
//! allocation is refused or a guard trips, re-plans the layer on whichever
//! candidate the table offers next — a re-tiled Winograd plan or the
//! im2col rescue — until one stands or the policy allows no further row.
//! Every [`Network::run_layer`] / [`Network::run_net`] /
//! [`Network::run_net_fx`] call reports which
//! backend actually ran and why via [`ExecutionReport`].

use wino_sched::probed::{record_coord, span_start};
use wino_sched::Executor;
use wino_tensor::{BlockedImage, BlockedKernels, ConvShape, ShapeError};

use crate::conv::TransformedKernels;
use crate::dispatch::{plan_at_rung, DispatchPlan, Kernels, Slot};
use crate::error::{NumericError, WinoError};
use crate::plan::{keep_larger, ConvOptions, Host, PlanError, Scratch, WinogradLayer};
use crate::select::{degrade, Candidate, Cause, FallbackPolicy};
use crate::sentinel::{verify_sample, SentinelError};
use crate::stage3::Epilogue;

/// Pointwise activation applied between layers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Activation {
    #[default]
    None,
    Relu,
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
    /// Stable kebab-case name, as `fig5`'s dispatch rows print it.
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

    /// Stable kebab-case code, as the dispatch tests match it. The inner
    /// error detail is for `Display`.
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

/// A sequential stack of convolution layers sharing one auxiliary arena.
pub struct Network {
    layers: Vec<NetLayer>,
    /// What every layer runs in, one layer after another, reused on every
    /// pass.
    arena: Arena,
}

/// A network's auxiliary memory (§4.4): one scratch and one stride-1 image
/// that every layer re-views for itself, and the intermediate activations
/// as two ping-pong images. A buffer grows — fallibly, after its old bytes
/// are released — only when a layer needs more than it holds, so after the
/// first pass the arena is as large as the largest layer needs of each
/// buffer, and a repeat pass allocates nothing in it.
#[derive(Default)]
struct Arena {
    /// The scratch — seeded at plan time for every Winograd layer at once;
    /// empty for a network of im2col layers, or when the seeding
    /// allocation was refused (the run-time walk then deals with it when a
    /// layer runs) — and the stride-1 image the first strided layer builds.
    slot: Slot,
    /// The intermediate activations, parked between passes: layer `i`
    /// (all but the last, whose output the caller receives) writes into
    /// `acts[i % 2]` and the next layer reads it there. A batch-8
    /// activation is megabytes, which the allocator hands out as a fresh
    /// mapping — zero-filled and page-faulted in again on every forward.
    /// An image is `None` until a pass has produced it and after a pass
    /// that failed while it held it; every route overwrites the whole view
    /// it is handed, so a parked one is never cleared.
    acts: [Option<BlockedImage>; 2],
}

impl Arena {
    fn bytes(&self) -> usize {
        self.slot.bytes() + self.acts.iter().flatten().map(BlockedImage::bytes).sum::<usize>()
    }

    /// Keep, of this arena and `other`, the larger of each buffer.
    fn absorb(&mut self, other: Arena) {
        self.slot.absorb(other.slot);
        for (mine, theirs) in self.acts.iter_mut().zip(other.acts) {
            keep_larger(mine, theirs, |a| a.as_ref().map_or(0, BlockedImage::bytes));
        }
    }
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
    /// Each layer is planned as [`crate::plan_dispatch`] plans it alone.
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
        let host = Host::detected();
        Self::on_host(batch, in_channels, image_dims, specs, opts, threads, policy, rung, host)
    }

    /// [`Network::at_rung`] on `host`.
    #[allow(clippy::too_many_arguments)] // at_rung's eight plus the host
    pub(crate) fn on_host(
        batch: usize,
        in_channels: usize,
        image_dims: &[usize],
        specs: &[LayerSpec],
        opts: ConvOptions,
        threads: usize,
        policy: &FallbackPolicy,
        rung: u8,
        host: Host,
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
            let (plan, planned_fallback) = plan_at_rung(&shape, &spec.m, opts, policy, rung, host)?;
            // Chaining uses the geometry's output extents.
            (c, dims) = (spec.out_channels, plan.out_dims().to_vec());
            layers.push(NetLayer { plan, activation: spec.activation, planned_fallback });
        }
        // One scratch for every Winograd layer, each buffer allocated once
        // at the largest layer's need, so repeat passes never rebuild.
        // Seeding is an optimisation, not a requirement: a refused
        // allocation leaves the arena empty and the run-time walk deals
        // with memory pressure when a layer actually runs.
        let plans: Vec<&WinogradLayer> = layers.iter().filter_map(|l| l.plan.engine()).collect();
        let scratch = if plans.is_empty() { None } else { Scratch::try_for(&plans, threads).ok() };
        let arena = Arena { slot: Slot { scratch, dense: None }, acts: [None, None] };
        Ok(Network { layers, arena })
    }

    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    pub fn layers(&self) -> &[NetLayer] {
        &self.layers
    }

    /// Auxiliary bytes the network's arena holds right now: its scratch,
    /// its stride-1 image and its two parked activations.
    pub fn scratch_bytes(&self) -> usize {
        self.arena.bytes()
    }

    /// Hand this network's arena to `to`, which keeps, buffer by buffer,
    /// the larger of its own and this one's, and runs in them from then on;
    /// this network keeps none, and grows what it needs if it runs again.
    /// Networks that run one after another — a server's cached
    /// `(batch, rung)` plans — pass one arena between them, as large as the
    /// largest of them needs.
    pub fn lend_arena(&mut self, to: &mut Network) {
        to.arena.absorb(std::mem::take(&mut self.arena));
    }

    /// Memoise all kernel transforms for inference (§4.2 "Inference
    /// only"): the one kernel argument of [`Self::forward_fx`] and
    /// [`Self::run_net_fx`]. Each layer's set carries a copy of its raw
    /// kernels, which every route, re-planned candidate and sentinel can
    /// read, plus — dense — the `V̂` made on its stride-1 plan, strided or
    /// not, in the arena's scratch, which gives it up to the result
    /// ([`crate::WinogradLayer::prepare_kernels`]). The result serves every
    /// plan of the same layer specs at any batch size and on every rung:
    /// `V̂`'s blocking comes from the channel counts alone (Eq. 11).
    pub fn prepare_kernels(
        &mut self,
        kernels: &[BlockedKernels],
        exec: &dyn Executor,
    ) -> Result<Vec<TransformedKernels>, WinoError> {
        if kernels.len() != self.layers.len() {
            return Err(WinoError::LayerCount { expected: self.layers.len(), got: kernels.len() });
        }
        let slot = &mut self.arena.slot;
        self.layers.iter().zip(kernels).map(|(layer, kernel)| layer.plan.prepare_in(slot, kernel, exec)).collect()
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
        exec_layer(&mut self.arena.slot, layer, index, input, Kernels::raw(kernels), exec, policy, None)
    }

    /// The one layer loop: chain `exec_layer` over the network. Each
    /// intermediate layer writes into a parked activation, which goes back
    /// to the arena once the next layer has consumed it.
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
        let arena = &mut self.arena;
        for (i, (layer, kernel)) in self.layers.iter().zip(kernels).enumerate() {
            let inp = current.as_ref().unwrap_or(input);
            let parked = if i < last { arena.acts[i % 2].take() } else { None };
            let (out, report) = exec_layer(&mut arena.slot, layer, i, inp, kernel, exec, policy, parked)?;
            reports.push(report);
            if let Some(consumed) = current.replace(out) {
                arena.acts[(i - 1) % 2] = Some(consumed);
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
        self.run(input, kernels.iter().map(Kernels::raw), exec, policy)
    }

    /// [`Self::run_net`] in inference mode on one prepared set
    /// ([`Self::prepare_kernels`], made on this or any plan of the same
    /// layer specs): each dense layer runs FX on its `V̂` when the plan
    /// accepts it, and transforms the set's raw kernels otherwise. The
    /// numeric guard, the sentinels and the degradation walk run as in
    /// `run_net`; every other route, and every re-planned candidate, reads
    /// the set's raw kernels. A set without them
    /// ([`crate::WinogradLayer::prepare_kernels`]) is
    /// [`WinoError::Unsupported`] before any layer runs.
    pub fn run_net_fx(
        &mut self,
        input: &BlockedImage,
        prepared: &[TransformedKernels],
        exec: &dyn Executor,
        policy: &FallbackPolicy,
    ) -> Result<(BlockedImage, Vec<ExecutionReport>), WinoError> {
        if prepared.iter().any(|tk| tk.raw.is_none()) {
            return Err(WinoError::Unsupported(
                "a network runs on the sets Network::prepare_kernels makes; a layer's set has no raw kernels",
            ));
        }
        self.run(input, prepared.iter().map(Kernels::prepared), exec, policy)
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

    /// Run the network strictly in inference mode on one prepared set:
    /// [`Self::run_net_fx`] under [`FallbackPolicy::strict`].
    pub fn forward_fx(
        &mut self,
        input: &BlockedImage,
        prepared: &[TransformedKernels],
        exec: &dyn Executor,
    ) -> Result<BlockedImage, WinoError> {
        self.run_net_fx(input, prepared, exec, &FallbackPolicy::strict()).map(|(out, _)| out)
    }
}

/// Run `plan` once, judge what it produced and activate it: the numeric
/// guard (NaN/Inf — on iff `policy.degrade`, and always for a rescue, whose
/// second trip proves the corruption is not Winograd-specific, e.g. a
/// non-finite layer input), then the accuracy sentinels (finite but
/// wrong), then the ReLU when `relu`. A refused allocation, a guard
/// trip and a sentinel trip come back as the typed [`WinoError`] the
/// run-time walk maps to its [`Cause`].
///
/// Guard and ReLU are one [`Epilogue`], which the route applies: in stage
/// 3's store where stage 3 writes the output, else in one pass over it
/// ([`DispatchPlan::forward_in`]). With sentinels to run, the ReLU waits
/// for their verdict, in a pass of its own: they verify the values before
/// it.
///
/// The output is written into
/// `parked` when the caller has one (a `Network`'s parked intermediate
/// activation, re-viewed for the layer's output shape — every candidate's
/// — and grown if it is too small; taken, so a failed attempt releases
/// it), else into a fresh allocation.
#[allow(clippy::too_many_arguments)] // exec_layer's context plus the candidate under test
fn attempt(
    plan: &DispatchPlan,
    slot: &mut Slot,
    index: usize,
    input: &BlockedImage,
    kernels: Kernels<'_>,
    exec: &dyn Executor,
    policy: &FallbackPolicy,
    relu: bool,
    rescue: bool,
    parked: &mut Option<BlockedImage>,
) -> Result<BlockedImage, WinoError> {
    let mut out = match parked.take() {
        Some(mut img) => {
            img.try_reshape(plan.shape.batch, plan.shape.out_channels, plan.out_dims())?;
            img
        }
        None => plan.try_new_output()?,
    };
    // Disabled sentinels do no work at all: no RNG, no oracle, no counters.
    let verified = plan.winograd().filter(|_| policy.sentinel.samples > 0);
    let guard = (rescue || policy.degrade).then_some(if rescue { "im2col rescue output" } else { "output" });
    let probe = exec.probe();
    let t0 = span_start(probe);
    plan.forward_in(slot, input, kernels, &mut out, exec, Epilogue { relu: relu && verified.is_none(), guard })?;
    if rescue {
        // SAFETY: the coordinator thread, between fork–joins.
        unsafe { record_coord(probe, wino_probe::SpanCategory::FallbackRescue, t0) };
    }
    if let Some(w) = verified {
        let t0 = span_start(probe);
        let verdict = verify_sample(w, input, kernels.raw, &out, &policy.sentinel, index);
        // SAFETY: the coordinator thread, between fork–joins.
        unsafe { record_coord(probe, wino_probe::SpanCategory::SentinelVerify, t0) };
        let checked = verdict.inspect_err(|_| wino_probe::Counter::SentinelTrips.add(1))?;
        wino_probe::Counter::SentinelTilesChecked.add(checked as u64);
        Epilogue { relu, guard: None }.image(&mut out)?;
    }
    Ok(out)
}

/// Execute one layer — shared by every route and by every `Network`
/// entry point: attempt the planned candidate, and while the attempt
/// fails for a cause the degradation table covers, re-plan the layer on
/// the next candidate and attempt that on the raw kernels. Each attempt
/// applies the layer's activation, where stage 3 writes the output in its
/// store; the guard judges the values BEFORE it: ReLU computes
/// `max(x, 0)`, which maps NaN to 0 and would hide the corruption.
#[allow(clippy::too_many_arguments)] // the layer, the arena's two buffers, and the call's context
fn exec_layer(
    slot: &mut Slot,
    layer: &NetLayer,
    index: usize,
    input: &BlockedImage,
    mut kernels: Kernels<'_>,
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
    // same slot (never two arenas at once); `ensure_scratch` re-views its
    // scratch, growing what is too small, and again for the next layer.
    let mut replanned: Option<DispatchPlan> = None;
    loop {
        let plan = replanned.as_ref().unwrap_or(&layer.plan);
        let rescue = replanned.is_some() && plan.cand == Candidate::Im2col;
        let relu = layer.activation == Activation::Relu;
        let failure = match attempt(plan, slot, index, input, kernels, exec, policy, relu, rescue, &mut parked) {
            Ok(out) => {
                if replanned.is_some() {
                    tally(&report, rescue);
                }
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
        kernels.prepared = None; // a re-planned candidate reads the raw kernels
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
    use crate::fused::Schedule;
    use crate::WinogradLayer;
    use wino_sched::SerialExecutor;
    use wino_tensor::{SimpleImage, SimpleKernels};

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
    pub(super) fn engine_plan(l: &NetLayer) -> &WinogradLayer {
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
                // The stride-1 image is built here, once, at the first
                // layer's size — the largest (12 → 6 → 3 → 2) — beside the
                // outputs and `V̂`s below; the scratch was seeded at plan
                // time for the strided layers too.
                assert_eq!(cold, 3 + 1 + 2, "a cold strided pass builds one stride-1 image");
                assert_eq!(first.dims, [2, 2]);
            } else {
                // Every output, and the one `V̂` of the arena's scratch each
                // time a layer's training-mode pass needs a larger one than
                // any layer before it: T blocks of 32 lines and a line's pad
                // at F(2²) (twice), then of 16 lines and a pad at F(4²).
                let v: Vec<usize> = net.layers().iter().map(|l| engine_plan(l).footprint(1).transformed_kernel_bytes).collect();
                assert_eq!(v, [16 * 33 * 64, 16 * 33 * 64, 36 * 17 * 64]);
                assert_eq!(cold, 3 + 2, "a cold pass builds every output and grows `V̂` twice");
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
        // rows, which the dual ring turns down), once strided (`V̂` made on
        // the stride-1 plans; a stride-1 image beside every scratch).
        let strided = ConvOptions::default().with_stride(&[2, 2]);
        for (opts, c_in, side, fused) in [
            (ConvOptions::default(), 16, 12, true),
            (crate::plan::split_reduction(), 32, 24, false),
            (strided, 16, 12, true),
        ] {
            let specs = two_layers();
            let img = SimpleImage::from_fn(1, c_in, &[side, side], |_, c, xy| {
                ((c + xy[0] * 3 + xy[1]) % 11) as f32 * 0.1 - 0.5
            });
            let input = BlockedImage::from_simple(&img).unwrap();

            let before = wino_simd::thread_alloc_bytes();
            let policy = FallbackPolicy::strict();
            let mut net = Network::with_policy(1, c_in, &[side, side], &specs, opts, 1, &policy).unwrap();
            assert!(net.layers().iter().all(|l| engine_plan(l).is_fused() == fused));
            assert!(net.layers().iter().all(|l| !engine_plan(l).is_dual()));
            let kernels = kernels_for(&net, 3);
            let kernel_bytes: usize = kernels.iter().map(|k| k.as_slice().len() * 4).sum();
            let fx = net.prepare_kernels(&kernels, &SerialExecutor).unwrap();
            let _out = net.forward_fx(&input, &fx, &SerialExecutor).unwrap();
            // The raw kernel tensors are inputs, not part of the plan's
            // footprint — subtract them from the observation.
            let observed = (wino_simd::thread_alloc_bytes() - before) as usize - kernel_bytes;

            // The layers run in one arena, as large as the largest layer's
            // scratch; each has its own output and memoised kernels.
            let fps: Vec<_> = net.layers().iter().map(|l| l.plan.footprint(1)).collect();
            let scratch = fps.iter().map(|fp| fp.scratch_bytes + fp.per_thread_bytes).max().unwrap();
            let own: usize = fps.iter().map(|fp| fp.transformed_kernel_bytes + fp.output_bytes).sum();
            let modeled = scratch + own;
            let ratio = observed as f64 / modeled as f64;
            assert!(
                (0.9..=1.1).contains(&ratio),
                "{opts:?}: modeled {modeled} vs observed {observed} bytes (ratio {ratio:.3})"
            );
        }
    }

    /// Two layers: 16 → 32 at F(2²), 32 → 16 at F(4²).
    fn two_layers() -> Vec<LayerSpec> {
        vec![LayerSpec::same(32, 2, 3, 2), LayerSpec::same(16, 2, 3, 4)]
    }

    /// [`two_layers`] over a 16-channel 24² input, each planned alone on
    /// `host`.
    fn lone_plans(host: Host) -> Vec<WinogradLayer> {
        let mut c = 16;
        two_layers()
            .iter()
            .map(|spec| {
                let shape = ConvShape::new(1, c, spec.out_channels, &[24, 24], &spec.kernel, &spec.padding);
                c = spec.out_channels;
                WinogradLayer::new_on(shape.unwrap(), &spec.m, ConvOptions::default(), host).unwrap()
            })
            .collect()
    }

    /// Hosts of a 64 KiB L2, on which each of [`two_layers`] over a
    /// 16-channel 24² input is staged — one reduction block, 36 rows or
    /// more (too many for the dual ring) and a `V̂` that, beside one strip
    /// of ring, overflows ¾ of the L2 — with LLCs of `usize::MAX`, 5× and
    /// 1× the largest lone hand-off: none streams, none streams alone but
    /// the two together overflow a fifth of the LLC, the largest streams.
    fn small_l2_hosts() -> [Host; 3] {
        let host = |llc_bytes| Host { l2_bytes: 64 << 10, llc_bytes, pin: None };
        let largest = lone_plans(host(usize::MAX)).iter().map(WinogradLayer::hand_off_bytes).max();
        let largest = largest.unwrap();
        [host(usize::MAX), host(5 * largest), host(largest)]
    }

    /// A network plans each layer as it plans alone — schedule, store
    /// flavour and blocking — whatever its layers hand off together, and
    /// runs bit for bit as the lone plans chained by hand, in training
    /// and in FX mode.
    #[test]
    fn a_network_plans_every_layer_as_it_plans_alone() {
        let img = SimpleImage::from_fn(1, 16, &[24, 24], |_, c, xy| {
            ((c * 3 + xy[0] + xy[1] * 5) % 13) as f32 * 0.08 - 0.4
        });
        let input = BlockedImage::from_simple(&img).unwrap();
        for host in small_l2_hosts() {
            let llc = host.llc_bytes;
            let alone = lone_plans(host);
            assert!(alone.iter().all(|p| !p.is_fused() && !p.is_dual() && p.block.c_blk == p.shape.in_channels));
            let policy = FallbackPolicy::strict();
            let net = Network::on_host(1, 16, &[24, 24], &two_layers(), ConvOptions::default(), 1, &policy, 0, host);
            let mut net = net.unwrap();
            for (l, lone) in net.layers().iter().zip(&alone) {
                let plan = engine_plan(l);
                assert_eq!((plan.schedule, plan.streams, plan.block), (lone.schedule, lone.streams, lone.block), "{llc}");
            }
            let kernels = kernels_for(&net, 7);
            let mut chained = input.clone();
            for (plan, k) in alone.iter().zip(&kernels) {
                let mut out = plan.new_output().unwrap();
                plan.forward(&chained, k, &mut out, &mut Scratch::new(plan, 1), &SerialExecutor).unwrap();
                out.as_mut_slice().iter_mut().for_each(|v| *v = v.max(0.0));
                chained = out;
            }
            let (train, _) = net.run_net(&input, &kernels, &SerialExecutor, &FallbackPolicy::default()).unwrap();
            let prepared = net.prepare_kernels(&kernels, &SerialExecutor).unwrap();
            let fx = net.forward_fx(&input, &prepared, &SerialExecutor).unwrap();
            assert_eq!(train.as_slice(), chained.as_slice(), "{llc}");
            assert_eq!(fx.as_slice(), chained.as_slice(), "{llc}");
        }
    }

    /// The layer specs of a workload: `(out_channels, padding, m)` per
    /// layer, 3-wide kernels in `rank` dimensions.
    fn specs_of(rank: usize, layers: &[(usize, usize, usize)]) -> Vec<LayerSpec> {
        let spec = |&(out_channels, pad, m): &(usize, usize, usize)| LayerSpec {
            out_channels,
            kernel: vec![3; rank],
            padding: vec![pad; rank],
            m: vec![m; rank],
            activation: Activation::Relu,
        };
        layers.iter().map(spec).collect()
    }

    /// On a 2 MiB L2 every benchmark workload plans the same schedules
    /// whatever the LLC reads — 105, 260 or 300 MiB, figures the measuring
    /// host has reported on different sittings: only the store flavour
    /// reads the LLC.
    #[test]
    fn the_benchmark_workloads_plan_the_same_on_every_llc() {
        const MIB: usize = 1 << 20;
        let at = |llc_bytes| Host { l2_bytes: 2 * MIB, llc_bytes, pin: None };
        let lone = |host, c, dims: &[usize], pad, m| {
            let shape = ConvShape::new(1, c, c, dims, &vec![3; dims.len()], &vec![pad; dims.len()]).unwrap();
            WinogradLayer::new_on(shape, &vec![m; dims.len()], ConvOptions::default(), host).unwrap().schedule
        };
        let schedules = |host, batch, c_in, dims: &[usize], specs: &[LayerSpec]| -> Vec<Schedule> {
            let policy = FallbackPolicy::default();
            let net = Network::on_host(batch, c_in, dims, specs, ConvOptions::default(), 1, &policy, 0, host);
            net.unwrap().layers().iter().map(|l| engine_plan(l).schedule).collect()
        };
        let serve = specs_of(2, &[(64, 1, 4), (64, 1, 4), (32, 1, 4)]);
        let net3d = specs_of(3, &[(32, 0, 4), (64, 0, 4), (64, 0, 4)]);
        let ring = |rows| Schedule::Ring { rows };
        let dual = Schedule::Dual { c_blk: 16, cols: 32 };
        for llc in [105 * MIB, 260 * MIB, 300 * MIB] {
            let host = at(llc);
            // gemm2d_mono, xform2d_jit and train3d_jit are lone layers.
            for (c, dims, pad, m, want) in [
                (128, &[56, 56][..], 1, 4, Schedule::Staged),
                (64, &[160, 160], 0, 6, ring(12)),
                (128, &[4, 14, 14], 1, 4, dual),
            ] {
                assert_eq!(lone(host, c, dims, pad, m), want, "{dims:?} on {llc}");
            }
            // serve_steady and serve_surge: the serve model at every batch
            // size the server caches a plan for.
            for batch in 1..=8 {
                let planned = schedules(host, batch, 32, &[28, 28], &serve);
                assert!(planned.iter().all(|s| matches!(s, Schedule::Ring { .. })), "B = {batch} on {llc}");
            }
            let planned = schedules(host, 1, 32, &[16, 24, 24], &net3d);
            assert_eq!(planned, [ring(6), Schedule::Staged, Schedule::Staged], "{llc}");
        }
        // The hand-offs behind it, as planned alone.
        let mut c = 32;
        let mut dims = vec![16, 24, 24];
        let kib: Vec<usize> = net3d
            .iter()
            .map(|spec| {
                let shape = ConvShape::new(1, c, spec.out_channels, &dims, &spec.kernel, &spec.padding);
                let shape = shape.unwrap();
                (c, dims) = (spec.out_channels, shape.out_dims());
                let plan = WinogradLayer::new_on(shape, &spec.m, ConvOptions::default(), at(usize::MAX)).unwrap();
                plan.hand_off_bytes() >> 10
            })
            .collect();
        assert_eq!(kib, [2062, 13166, 16529]);
        // gemm2d_mono's layer at batch 2 hands off 26 MiB: past a 105 MiB
        // LLC's share, it streams its stores.
        let shape = ConvShape::new(2, 128, 128, &[56, 56], &[3, 3], &[1, 1]).unwrap();
        let plan = WinogradLayer::new_on(shape, &[4, 4], ConvOptions::default(), at(105 * MIB)).unwrap();
        assert_eq!((plan.schedule, plan.streams), (Schedule::Staged, true));
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
            assert_eq!(r.backend, crate::dispatch::default_backend());
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
    fn strided_and_im2col_layers_prepare_their_kernels() {
        // A strided layer's `V̂` is its stride-1 plan's; an im2col-planned
        // layer (m = 40 on a 10×10 output) reads the raw kernels its set
        // carries. FX mode computes run_net's bits on both without
        // transforming a kernel, strict or under the default policy.
        let im2col = LayerSpec { m: vec![40, 40], ..LayerSpec::same(16, 2, 3, 2) };
        let strided = ConvOptions::default().with_stride(&[2, 2]);
        let policy = FallbackPolicy::default();
        for (specs, opts) in [
            (vec![LayerSpec::same(16, 2, 3, 2), LayerSpec::same(16, 2, 3, 4)], strided),
            (vec![im2col, LayerSpec::same(16, 2, 3, 2)], ConvOptions::default()),
        ] {
            let mut net = Network::with_policy(1, 16, &[10, 10], &specs, opts, 1, &policy).unwrap();
            let routes: Vec<_> = net.layers().iter().map(|l| l.plan.winograd().is_some()).collect();
            assert!(routes.contains(&false), "{opts:?}: a layer outside identity-geometry Winograd");
            let img = SimpleImage::from_fn(1, 16, &[10, 10], |_, c, xy| {
                ((c + xy[0] * 2 + xy[1]) % 9) as f32 * 0.07 - 0.3
            });
            let input = BlockedImage::from_simple(&img).unwrap();
            let kernels = kernels_for(&net, 1);
            let (want, _) = net.run_net(&input, &kernels, &SerialExecutor, &policy).unwrap();
            let fx = net.prepare_kernels(&kernels, &SerialExecutor).unwrap();
            let mut probed = wino_sched::ProbedExecutor::new(SerialExecutor);
            let out = net.forward_fx(&input, &fx, &probed).unwrap();
            assert_eq!(out.as_slice(), want.as_slice(), "{opts:?}: forward_fx");
            let events = probed.take_events();
            let transforms =
                events.iter().filter(|e| e.category == wino_probe::SpanCategory::KernelTransform);
            assert_eq!(transforms.count(), 0, "{opts:?}: a Winograd layer transformed kernels");
            let (out, _) = net.run_net_fx(&input, &fx, &SerialExecutor, &policy).unwrap();
            assert_eq!(out.as_slice(), want.as_slice(), "{opts:?}: run_net_fx");
        }
    }

    #[test]
    fn run_net_fx_keeps_every_rescue() {
        let specs = vec![LayerSpec::same(16, 2, 3, 2)];
        let mut net = Network::new(1, 16, &[10, 10], &specs, ConvOptions::default(), 1).unwrap();
        let kernels = kernels_for(&net, 4);
        let img = SimpleImage::from_fn(1, 16, &[10, 10], |_, c, xy| (c + xy[0]) as f32 * 0.02);
        let input = BlockedImage::from_simple(&img).unwrap();
        let want = net.forward(&input, &kernels, &SerialExecutor).unwrap();
        // The set is the only kernel argument: the caller's kernels are gone.
        let fx = net.prepare_kernels(&kernels, &SerialExecutor).unwrap();
        let layer_set = {
            let plan = engine_plan(&net.layers()[0]);
            plan.prepare_kernels(&kernels[0], &mut Scratch::new(plan, 1), &SerialExecutor).unwrap()
        };
        drop(kernels);

        // A NaN input trips the guard on the FX output and again on the
        // im2col rescue, which re-plans onto the set's raw kernels.
        let mut bad = input.clone();
        bad.as_mut_slice()[3 * 10 + 5] = f32::NAN;
        let policy = FallbackPolicy::default();
        match net.run_net_fx(&bad, &fx, &SerialExecutor, &policy) {
            Err(WinoError::Numeric(e)) => assert_eq!(e.stage, "im2col rescue output"),
            other => panic!("expected Numeric, got {:?}", other.map(|(o, _)| o.dims)),
        }

        // The sentinels check FX tiles against the set's raw kernels.
        let checked = wino_probe::Counter::SentinelTilesChecked.get();
        let sampled = FallbackPolicy::with_sentinel(4, 7);
        let (out, reports) = net.run_net_fx(&input, &fx, &SerialExecutor, &sampled).unwrap();
        assert!(wino_probe::Counter::SentinelTilesChecked.get() > checked);
        assert!(reports[0].fallback.is_none());
        assert_eq!(out.as_slice(), want.as_slice());

        // A prepared set of the wrong length is a typed error.
        let err = net.run_net_fx(&input, &[], &SerialExecutor, &policy).unwrap_err();
        assert!(matches!(err, WinoError::LayerCount { expected: 1, got: 0 }));

        // A layer-level set carries no raw kernels: both network entry
        // points refuse it, typed, before any layer runs — also when only
        // a later layer's entry is one.
        let layer_only = [layer_set];
        let mut probed = wino_sched::ProbedExecutor::new(SerialExecutor);
        let err = net.forward_fx(&input, &layer_only, &probed).map(|o| o.dims).unwrap_err();
        assert!(matches!(err, WinoError::Unsupported(_)), "{err:?}");
        let err = net.run_net_fx(&input, &layer_only, &probed, &policy).map(|(o, _)| o.dims).unwrap_err();
        assert!(matches!(err, WinoError::Unsupported(_)), "{err:?}");
        let specs = vec![LayerSpec::same(16, 2, 3, 2); 2];
        let mut two = Network::new(1, 16, &[10, 10], &specs, ConvOptions::default(), 1).unwrap();
        let mut mixed = two.prepare_kernels(&kernels_for(&two, 4), &SerialExecutor).unwrap();
        mixed[1] = layer_only.into_iter().next().unwrap();
        let err = two.run_net_fx(&input, &mixed, &probed, &policy).map(|(o, _)| o.dims).unwrap_err();
        assert!(matches!(err, WinoError::Unsupported(_)), "{err:?}");
        assert!(probed.take_events().is_empty(), "a layer ran before the refusal");
    }

    #[test]
    fn prepared_sets_allocate_exactly_their_modelled_bytes() {
        // `prepare_kernels` hands its sets exactly what
        // `DispatchPlan::footprint` prices as transformed kernels and what
        // the sets report holding: on every route the raw copy, on a dense
        // one (strided or not) also `V̂`. A missed or doubled term
        // shows here, where the 10 % end-to-end gate would absorb it.
        let im2col = LayerSpec { m: vec![40, 40], ..LayerSpec::same(32, 2, 3, 2) };
        let specs = vec![LayerSpec::same(16, 2, 3, 2), im2col, LayerSpec::same(16, 2, 3, 4)];
        let strided = ConvOptions::default().with_stride(&[2, 2]);
        let policy = FallbackPolicy::default();
        for opts in [ConvOptions::default(), strided] {
            let mut net = Network::with_policy(1, 16, &[10, 10], &specs, opts, 1, &policy).unwrap();
            let routes: Vec<_> = net.layers().iter().map(|l| l.plan.backend()).collect();
            assert_eq!(routes.iter().filter(|b| **b == LayerBackend::Im2col).count(), 1, "{routes:?}");
            let kernels = kernels_for(&net, 2);
            // A training-mode pass first builds every slot, each `V̂` in its
            // scratch: `prepare_kernels` then allocates the raw copies and
            // takes the `V̂`s, which leave the scratch for the sets.
            let input = BlockedImage::zeros(1, 16, &[10, 10]).unwrap();
            net.run_net(&input, &kernels, &SerialExecutor, &policy).unwrap();
            let (bytes, scratch) = (wino_simd::thread_alloc_bytes(), net.scratch_bytes());
            let fx = net.prepare_kernels(&kernels, &SerialExecutor).unwrap();
            let allocated = (wino_simd::thread_alloc_bytes() - bytes) as usize;
            let held = allocated + (scratch - net.scratch_bytes());
            let modelled: usize =
                net.layers().iter().map(|l| l.plan.footprint(1).transformed_kernel_bytes).sum();
            assert_eq!(held, modelled, "{opts:?}: footprint");
            assert_eq!(held, fx.iter().map(TransformedKernels::bytes).sum::<usize>(), "{opts:?}: sets");
        }
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
            assert_eq!(r.backend, crate::dispatch::default_backend());
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

        // The grouped route reads raw kernels: its prepared form is a copy
        // of them, and FX mode computes the same bits.
        let fx = net.prepare_kernels(&kernels, &SerialExecutor).unwrap();
        assert_eq!(net.forward_fx(&input, &fx, &SerialExecutor).unwrap().as_slice(), out.as_slice());
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

/// The stale-arena battery: a layer re-views bytes an earlier, larger one
/// left behind, so no stage may rely on zero-filled scratch or on padding
/// that is never read. Each case sizes an arena on a large run, fills every
/// float of it with NaN, and runs again in it — the same network, whose
/// smaller layers re-view the larger ones' bytes, and the same model at a
/// smaller batch, which borrows the arena — on every schedule and route,
/// in training and FX mode: the outputs must be `==` a fresh network's,
/// and the numeric guard must stay silent.
#[cfg(test)]
mod arena_tests {
    use super::*;
    use crate::plan::Pin;
    use wino_sched::{SerialExecutor, StaticExecutor};
    use wino_simd::S;
    use wino_tensor::{BlockedMatrices, SimpleImage, SimpleKernels};

    /// Fill every float the arena holds with NaN, past the views too.
    fn poison(net: &mut Network) {
        let Arena { slot, acts } = &mut net.arena;
        if let Some(scratch) = &mut slot.scratch {
            scratch.fill(f32::NAN);
        }
        for img in acts.iter_mut().chain([&mut slot.dense]).flatten() {
            let floats = img.bytes() / std::mem::size_of::<f32>();
            img.try_reshape(1, S, &[floats / S]).unwrap();
            img.as_mut_slice().fill(f32::NAN);
        }
    }

    fn image(batch: usize, c: usize, dims: &[usize]) -> BlockedImage {
        let img = SimpleImage::from_fn(batch, c, dims, |b, c, xy| {
            ((b * 17 + c * 3 + xy[0] * 5 + xy[1]) % 19) as f32 * 0.05 - 0.45
        });
        BlockedImage::from_simple(&img).unwrap()
    }

    /// Kernels of every layer, in the grouped convention.
    fn kernels(net: &Network) -> Vec<BlockedKernels> {
        let layer = |l: &NetLayer| {
            let (cp, c, dims) = (l.plan.shape.out_channels, l.plan.kernel_in_channels(), &l.plan.shape.kernel_dims);
            let k = SimpleKernels::from_fn(cp, c, dims, |co, ci, xy| {
                ((co * 7 + ci * 11 + xy.iter().sum::<usize>()) % 13) as f32 * 0.04 - 0.25
            });
            BlockedKernels::from_simple(&k).unwrap()
        };
        net.layers().iter().map(layer).collect()
    }

    /// `got == want`, naming the first element that differs.
    fn assert_same(got: &BlockedImage, want: &BlockedImage, what: &str) {
        assert_eq!(got.as_slice().len(), want.as_slice().len(), "{what}: length");
        let diff = got.as_slice().iter().zip(want.as_slice()).position(|(a, b)| a.to_bits() != b.to_bits());
        if let Some(i) = diff {
            panic!("{what}: element {i} is {} in stale bytes, {} in fresh ones", got.as_slice()[i], want.as_slice()[i]);
        }
    }

    struct Case {
        label: &'static str,
        c_in: usize,
        specs: Vec<LayerSpec>,
        opts: ConvOptions,
        host: Host,
    }

    /// Every layer's output and report of one pass — in FX mode on the
    /// prepared set, else in training mode on the raw kernels.
    fn run(net: &mut Network, input: &BlockedImage, raw: &[BlockedKernels], fx: Option<&[TransformedKernels]>, exec: &dyn Executor) -> (BlockedImage, Vec<ExecutionReport>) {
        let policy = FallbackPolicy::default();
        match fx {
            Some(set) => net.run_net_fx(input, set, exec, &policy),
            None => net.run_net(input, raw, exec, &policy),
        }
        .unwrap()
    }

    fn check(case: &Case) {
        let (large, small, dims) = (3, 1, [10, 10]);
        let execs: [Box<dyn Executor>; 2] = [Box::new(SerialExecutor), Box::new(StaticExecutor::new(2))];
        let policy = FallbackPolicy::default();
        let plan = |batch| {
            Network::on_host(batch, case.c_in, &dims, &case.specs, case.opts, 2, &policy, 0, case.host).unwrap()
        };
        let planned: Vec<_> = plan(1).layers().iter().map(|l| l.planned_fallback).collect();
        for fx_mode in [false, true] {
            for exec in &execs {
                let what = format!("{} {} on {}", case.label, if fx_mode { "fx" } else { "train" }, exec.name());
                let mut net = plan(large);
                let raw = kernels(&net);
                let set = fx_mode.then(|| net.prepare_kernels(&raw, exec.as_ref()).unwrap());
                let fx = set.as_deref();
                let input = image(large, case.c_in, &dims);
                let fresh = |batch, input| run(&mut plan(batch), input, &raw, fx, exec.as_ref());

                // A warm run sizes the arena; the poisoned one re-views it.
                run(&mut net, &input, &raw, fx, exec.as_ref());
                poison(&mut net);
                let (out, reports) = run(&mut net, &input, &raw, fx, exec.as_ref());
                let (want, _) = fresh(large, &input);
                assert_same(&out, &want, &format!("{what}: batch {large}"));
                let fallbacks: Vec<_> = reports.iter().map(|r| r.fallback).collect();
                assert_eq!(fallbacks, planned, "{what}: the guard tripped at batch {large}");

                // The same model at a smaller batch, in the borrowed arena.
                let mut smaller = plan(small);
                net.lend_arena(&mut smaller);
                poison(&mut smaller);
                let input = image(small, case.c_in, &dims);
                let (out, reports) = run(&mut smaller, &input, &raw, fx, exec.as_ref());
                let (want, _) = fresh(small, &input);
                assert_same(&out, &want, &format!("{what}: batch {small}"));
                let fallbacks: Vec<_> = reports.iter().map(|r| r.fallback).collect();
                assert_eq!(fallbacks, planned, "{what}: the guard tripped at batch {small}");
            }
        }
    }

    /// Three layers, each smaller than the one before in one buffer or
    /// another: 32 → 64 at F(4²), 64 → 32 at F(2²), 32 → 32 at F(4²).
    fn shrinking(c: usize) -> Vec<LayerSpec> {
        vec![LayerSpec::same(2 * c, 2, 3, 4), LayerSpec::same(c, 2, 3, 2), LayerSpec::same(c, 2, 3, 4)]
    }

    fn pinned(pin: Pin) -> Host {
        Host::test(pin, false)
    }

    #[test]
    fn a_staged_network_runs_the_same_in_stale_bytes() {
        let host = pinned(Pin::Staged);
        check(&Case { label: "staged", c_in: 32, specs: shrinking(32), opts: ConvOptions::default(), host });
        let opts = crate::plan::split_reduction();
        check(&Case { label: "staged, two reduction blocks", c_in: 32, specs: shrinking(32), opts, host });
    }

    #[test]
    fn a_ring_network_runs_the_same_in_stale_bytes() {
        let host = pinned(Pin::Ring);
        check(&Case { label: "ring", c_in: 32, specs: shrinking(32), opts: ConvOptions::default(), host });
    }

    #[test]
    fn a_dual_network_runs_the_same_in_stale_bytes() {
        let host = pinned(Pin::Dual);
        check(&Case { label: "dual", c_in: 32, specs: shrinking(32), opts: ConvOptions::default(), host });
        let opts = crate::plan::split_reduction();
        check(&Case { label: "dual, two reduction blocks", c_in: 32, specs: shrinking(32), opts, host });
    }

    /// A dual layer lays `Û` out at the dual ring's `C_blk`, whose padded
    /// blocks take more bytes than its plan's blocking; after a staged
    /// layer it finds that layer's stale `Û` in them.
    #[test]
    fn a_dual_layer_after_a_staged_one_runs_the_same_in_stale_bytes() {
        let host = pinned(Pin::DualOnFewRows);
        // 16 → 32 at F(2²) on 10²: 25 tiles an image, staged at batch 3;
        // 32 → 32 at F(6²): 4, dual, in panels of an even number of rows —
        // and the larger `Û`, so the arena's `u` is the dual layer's.
        let specs = vec![LayerSpec::same(32, 2, 3, 2), LayerSpec::same(32, 2, 3, 6)];
        let policy = FallbackPolicy::default();
        let net = Network::on_host(3, 16, &[10, 10], &specs, ConvOptions::default(), 2, &policy, 0, host).unwrap();
        let [staged, dual] = [0, 1].map(|i| super::tests::engine_plan(&net.layers()[i]));
        assert!(!staged.is_dual() && !staged.is_fused() && dual.is_dual());
        let u_at = |c_blk| BlockedMatrices::bytes_for(dual.t_vol(), dual.rows(), 32, dual.block.n_blk, c_blk);
        assert!(u_at(S) > u_at(dual.block.c_blk), "the dual ring's layout of `Û` is the larger");
        assert!(u_at(dual.block.c_blk) > staged.u_bytes(), "and the plan's layout is larger than the staged layer's");
        check(&Case { label: "staged then dual", c_in: 16, specs, opts: ConvOptions::default(), host });
    }

    #[test]
    fn strided_and_grouped_networks_run_the_same_in_stale_bytes() {
        let host = Host::detected();
        let strided = ConvOptions::default().with_stride(&[2, 2]);
        check(&Case { label: "strided", c_in: 32, specs: shrinking(32), opts: strided, host });
        let grouped = ConvOptions::default().with_groups(2);
        check(&Case { label: "grouped", c_in: 32, specs: shrinking(32), opts: grouped, host });
        let both = grouped.with_stride(&[2, 1]);
        check(&Case { label: "strided and grouped", c_in: 32, specs: shrinking(32), opts: both, host });
    }

    #[test]
    fn an_im2col_layer_runs_the_same_in_stale_bytes() {
        // F(40²) plans no Winograd route: the middle layer is im2col's, its
        // output written into a parked, NaN-filled activation.
        let mut specs = shrinking(32);
        specs[1].m = vec![40, 40];
        for pin in [Pin::Staged, Pin::Ring] {
            check(&Case { label: "im2col", c_in: 32, specs: specs.clone(), opts: ConvOptions::default(), host: pinned(pin) });
        }
    }
}

/// The epilogue battery: a layer's numeric guard and ReLU ride stage 3's
/// store where stage 3 writes the output — staged, ring and dual, plain
/// and streaming, full and ragged tiles — and one pass over the output on
/// every other route. Either way a network's outputs are `==` its layers
/// run alone through the public entry point (no epilogue) with a ReLU of
/// the test's own, its reports are the planned ones, and a non-finite
/// value fails exactly as a separate scan of the output fails it.
#[cfg(test)]
mod epilogue_tests {
    use super::*;
    use crate::plan::Pin;
    use wino_sched::{SerialExecutor, StaticExecutor};
    use wino_tensor::{SimpleImage, SimpleKernels};

    /// Inputs and kernels of both signs, so that many pre-activations are
    /// negative.
    fn image(batch: usize, c: usize, dims: &[usize]) -> BlockedImage {
        let img = SimpleImage::from_fn(batch, c, dims, |b, c, xy| {
            ((b * 13 + c * 5 + xy[0] * 7 + xy[1] * 3) % 23) as f32 * 0.04 - 0.44
        });
        BlockedImage::from_simple(&img).unwrap()
    }

    fn kernels(net: &Network) -> Vec<BlockedKernels> {
        let layer = |l: &NetLayer| {
            let (cp, c, dims) = (l.plan.shape.out_channels, l.plan.kernel_in_channels(), &l.plan.shape.kernel_dims);
            let k = SimpleKernels::from_fn(cp, c, dims, |co, ci, xy| {
                ((co * 3 + ci * 7 + xy.iter().sum::<usize>() * 5) % 17) as f32 * 0.03 - 0.25
            });
            BlockedKernels::from_simple(&k).unwrap()
        };
        net.layers().iter().map(layer).collect()
    }

    /// The network's layers, each run alone through `DispatchPlan::forward`
    /// and followed by a ReLU of its own: the final output, and how many
    /// negative pre-activations the ReLUs clamped.
    fn chained_by_hand(net: &Network, input: &BlockedImage, raw: &[BlockedKernels], exec: &dyn Executor) -> (BlockedImage, usize) {
        let mut chained = input.clone();
        let mut clamped = 0;
        for (l, k) in net.layers().iter().zip(raw) {
            let mut out = l.plan.new_output().unwrap();
            l.plan.forward(&chained, k, &mut out, exec).unwrap();
            if l.activation == Activation::Relu {
                for v in out.as_mut_slice() {
                    clamped += usize::from(*v < 0.0);
                    *v = v.max(0.0);
                }
            }
            chained = out;
        }
        (chained, clamped)
    }

    struct Case {
        label: &'static str,
        c_in: usize,
        specs: Vec<LayerSpec>,
        opts: ConvOptions,
        host: Host,
    }

    /// Batch 2 over an 11 × 10 image: every F(2²) and F(4²) layer has
    /// ragged tiles in its first dimension, the F(4²) ones in both.
    const BATCH: usize = 2;
    const DIMS: [usize; 2] = [11, 10];

    /// Three 32-channel layers (a dual plan has two column groups, one per
    /// thread), the middle one without an activation.
    fn specs() -> Vec<LayerSpec> {
        let mut specs = vec![LayerSpec::same(32, 2, 3, 4), LayerSpec::same(32, 2, 3, 2), LayerSpec::same(32, 2, 3, 4)];
        specs[1].activation = Activation::None;
        specs
    }

    fn check(case: &Case) {
        let execs: [Box<dyn Executor>; 2] = [Box::new(SerialExecutor), Box::new(StaticExecutor::new(2))];
        let policies = [FallbackPolicy::strict(), FallbackPolicy::default(), FallbackPolicy::with_sentinel(8, 0xe9)];
        let mut net = Network::on_host(BATCH, case.c_in, &DIMS, &case.specs, case.opts, 2, &policies[1], 0, case.host).unwrap();
        let raw = kernels(&net);
        let input = image(BATCH, case.c_in, &DIMS);
        let planned: Vec<_> = net.layers().iter().map(|l| (l.plan.backend(), l.planned_fallback)).collect();
        for exec in &execs {
            let (want, clamped) = chained_by_hand(&net, &input, &raw, exec.as_ref());
            assert!(clamped > 0, "{}: no pre-activation was negative", case.label);
            let set = net.prepare_kernels(&raw, exec.as_ref()).unwrap();
            for policy in &policies {
                let what = format!("{} on {} under {policy:?}", case.label, exec.name());
                let (train, reports) = net.run_net(&input, &raw, exec.as_ref(), policy).unwrap();
                assert_eq!(train.as_slice(), want.as_slice(), "{what}: training mode");
                let got: Vec<_> = reports.iter().map(|r| (r.backend, r.fallback)).collect();
                assert_eq!(got, planned, "{what}: training-mode reports");
                let (fx, reports) = net.run_net_fx(&input, &set, exec.as_ref(), policy).unwrap();
                assert_eq!(fx.as_slice(), want.as_slice(), "{what}: FX mode");
                let got: Vec<_> = reports.iter().map(|r| (r.backend, r.fallback)).collect();
                assert_eq!(got, planned, "{what}: FX-mode reports");
            }
        }
    }

    #[test]
    fn every_schedule_and_store_flavour_equals_the_lone_plans_and_a_separate_relu() {
        for (label, pin, streams) in [
            ("staged", Pin::Staged, false),
            ("staged, streaming", Pin::Staged, true),
            ("ring", Pin::Ring, false),
            ("ring, streaming", Pin::Ring, true),
            ("dual", Pin::Dual, false),
            ("dual, streaming", Pin::Dual, true),
        ] {
            let host = Host::test(pin, streams);
            let net = Network::on_host(BATCH, 32, &DIMS, &specs(), ConvOptions::default(), 2, &FallbackPolicy::default(), 0, host);
            for l in net.unwrap().layers() {
                let plan = l.plan.winograd().expect("a dense stride-1 route");
                assert_eq!(plan.streams, streams, "{label}");
                let want = match pin {
                    Pin::Staged => !plan.is_fused() && !plan.is_dual(),
                    Pin::Ring => plan.is_fused(),
                    Pin::Dual => plan.is_dual(),
                    Pin::DualOnFewRows => plan.is_dual() == (plan.rows() < 2 * wino_simd::S),
                };
                assert!(want, "{label}: {:?}", plan.schedule);
            }
            check(&Case { label, c_in: 32, specs: specs(), opts: ConvOptions::default(), host });
        }
    }

    #[test]
    fn grouped_strided_and_im2col_layers_keep_their_outputs() {
        let host = Host::detected();
        let strided = ConvOptions::default().with_stride(&[2, 2]);
        check(&Case { label: "strided", c_in: 32, specs: specs(), opts: strided, host });
        let grouped = ConvOptions::default().with_groups(2);
        check(&Case { label: "grouped", c_in: 32, specs: specs(), opts: grouped, host });
        check(&Case { label: "strided and grouped", c_in: 32, specs: specs(), opts: grouped.with_stride(&[2, 1]), host });
        // F(40²) plans no Winograd route: the last layer runs im2col.
        let mut specs = specs();
        specs[2].m = vec![40, 40];
        check(&Case { label: "im2col", c_in: 32, specs, opts: ConvOptions::default(), host });
    }

    /// A guarded store reports the first non-finite element of the output,
    /// as a scan of the unclamped output does, on every schedule and store
    /// flavour, with and without the ReLU — and with the guard off, writes
    /// what the unguarded pass and a separate ReLU write, NaN clamped to 0.
    #[test]
    fn a_guarded_store_trips_where_a_separate_scan_trips() {
        for pin in [Pin::Staged, Pin::Ring, Pin::Dual] {
            for streams in [false, true] {
                let shape = ConvShape::new(BATCH, 32, 32, &DIMS, &[3, 3], &[1, 1]).unwrap();
                let policy = FallbackPolicy::default();
                let (plan, _) = plan_at_rung(&shape, &[4, 4], ConvOptions::default(), &policy, 0, Host::test(pin, streams)).unwrap();
                let mut net = Network { layers: vec![], arena: Arena::default() };
                net.layers.push(NetLayer { plan, activation: Activation::Relu, planned_fallback: None });
                let plan = &net.layers[0].plan;
                let raw = kernels(&net);
                for (at, bad) in [(0, f32::NAN), (5 * 16 + 3, f32::INFINITY), (130 * 16 + 7, f32::NEG_INFINITY)] {
                    let mut input = image(BATCH, 32, &DIMS);
                    input.as_mut_slice()[at] = bad;
                    for exec in [&SerialExecutor as &dyn Executor, &StaticExecutor::new(2)] {
                        let what = format!("{pin:?}, streams {streams}, {bad} at {at}, {}", exec.name());
                        let mut want = plan.new_output().unwrap();
                        plan.forward(&input, &raw[0], &mut want, exec).unwrap();
                        let trip = check_finite_of(&want).expect("a non-finite input reaches the output");
                        for relu in [false, true] {
                            let mut out = plan.new_output().unwrap();
                            let epilogue = Epilogue { relu, guard: Some("output") };
                            let got = plan.forward_in(&mut Slot::default(), &input, Kernels::raw(&raw[0]), &mut out, exec, epilogue);
                            match got {
                                Err(WinoError::Numeric(e)) => assert_eq!(e, trip, "{what}, relu {relu}"),
                                other => panic!("{what}, relu {relu}: {other:?}"),
                            }
                        }
                        let mut out = plan.new_output().unwrap();
                        let epilogue = Epilogue { relu: true, guard: None };
                        plan.forward_in(&mut Slot::default(), &input, Kernels::raw(&raw[0]), &mut out, exec, epilogue).unwrap();
                        want.as_mut_slice().iter_mut().for_each(|v| *v = v.max(0.0));
                        assert_eq!(out.as_slice(), want.as_slice(), "{what}: unguarded");
                        assert!(out.as_slice().iter().all(|v| v.is_finite() || *v == f32::INFINITY), "{what}");
                    }
                }
            }
        }
    }

    fn check_finite_of(img: &BlockedImage) -> Option<NumericError> {
        crate::error::check_finite("output", img.as_slice()).err()
    }

    /// A non-finite network input: strict, the layers run and the ReLUs
    /// clamp what it spoiled, as the lone plans and a separate ReLU do;
    /// under the default policy the first layer's guard trips, its im2col
    /// rescue trips too, and that is the error, at the element a scan of
    /// the rescue's output names.
    #[test]
    fn a_non_finite_input_fails_or_passes_as_the_separate_passes_did() {
        for (label, pin) in [("staged", Pin::Staged), ("ring", Pin::Ring), ("dual", Pin::Dual)] {
            let host = Host::test(pin, false);
            let mut net = Network::on_host(BATCH, 32, &DIMS, &specs(), ConvOptions::default(), 2, &FallbackPolicy::default(), 0, host).unwrap();
            let raw = kernels(&net);
            let mut input = image(BATCH, 32, &DIMS);
            input.as_mut_slice()[40 * 16 + 9] = f32::NAN;
            for exec in [&SerialExecutor as &dyn Executor, &StaticExecutor::new(2)] {
                let what = format!("{label} on {}", exec.name());
                let (want, _) = chained_by_hand(&net, &input, &raw, exec);
                let (out, reports) = net.run_net(&input, &raw, exec, &FallbackPolicy::strict()).unwrap();
                assert_eq!(out.as_slice(), want.as_slice(), "{what}: strict");
                assert!(reports.iter().all(|r| r.fallback.is_none()), "{what}: {reports:?}");

                let rescue = net.layers[0].plan.replan(&Candidate::Im2col).unwrap();
                let mut rescued = rescue.new_output().unwrap();
                rescue.forward(&input, &raw[0], &mut rescued, exec).unwrap();
                let trip = crate::error::check_finite("im2col rescue output", rescued.as_slice()).unwrap_err();
                match net.run_net(&input, &raw, exec, &FallbackPolicy::default()) {
                    Err(WinoError::Numeric(e)) => assert_eq!(e, trip, "{what}"),
                    other => panic!("{what}: {:?}", other.map(|(_, r)| r)),
                }
            }
        }
    }
}
