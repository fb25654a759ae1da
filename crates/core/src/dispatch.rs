//! Geometry dispatch: route every (stride, dilation, groups) combination
//! of a representable layer onto an engine that can execute it.
//!
//! [`crate::WinogradLayer`] is a stride-1, dense algorithm; this module is
//! the layer above it that closes the rest of the scenario matrix:
//!
//! * **identity geometry** — the plain three-stage pipeline
//!   ([`Route::Direct`]);
//! * **stride ≥ 2** — the sub-lattice (polyphase) decomposition
//!   ([`Route::Polyphase`]): writing every kernel tap `t` as
//!   `t = φ + j·s`, the strided output
//!   `y[o] = Σ_t w[t]·x̂[o·s + t]` (`x̂` = zero-padded input) regroups into
//!   `Σ_φ Σ_j w_φ[j] · x̃_φ[o + j]` — one *stride-1, unpadded* convolution
//!   per phase `φ` on the decimated input `x̃_φ[i] = x̂[φ + i·s]` with the
//!   phase kernel `w_φ[j] = w[φ + j·s]` of extent `r_φ = ⌈(r − φ)/s⌉`.
//!   Each phase runs the existing Winograd pipeline and the phase outputs
//!   are summed. Phases accumulate in a fixed order, so the result is
//!   bitwise identical across executors;
//! * **groups with vector-wide per-group channels** — the C/C' loops are
//!   blocked per group around one shared sub-plan ([`Route::Grouped`]):
//!   all groups share the same spatial shape, so one plan plus one scratch
//!   serves every group;
//! * **everything else** (dilation, narrow/depthwise groups, sub-plan
//!   failures) — the im2col baseline ([`Route::Im2col`]), with a typed
//!   [`FallbackReason`] recording *why* Winograd declined. A representable
//!   layer is never rejected; only unrepresentable geometry
//!   ([`wino_tensor::ShapeError`]) is a [`PlanError`].
//!
//! A [`DispatchPlan`] is also the only layer plan [`crate::Network`]
//! holds: which candidate a route is built for, and which one replaces it
//! when planning or execution fails, is the degradation table in
//! [`crate::select`].

// Index-based loops walk several arrays with derived offsets; iterator
// rewrites obscure the math (same policy as the stage code).
#![allow(clippy::needless_range_loop)]

use wino_probe::{SpanCategory, StageWork, WorkModel, ALL_CATEGORIES};
use wino_sched::Executor;
use wino_simd::S;
use wino_tensor::{unflatten, BlockedImage, BlockedKernels, ConvGeometry, ConvShape, TensorError};

use crate::conv::TransformedKernels;
use crate::error::WinoError;
use crate::net::{FallbackReason, LayerBackend};
use crate::plan::{ConvOptions, PlanError, Scratch, Stage2Backend, WinogradLayer, MAX_RANK};
use crate::select::{degrade, plan_walk, Candidate, Cause, FallbackPolicy};

/// One phase of the polyphase (sub-lattice) decomposition: the stride-1
/// Winograd sub-problem convolving the `offset`-decimated input with the
/// `offset`-decimated kernel taps.
#[derive(Debug)]
pub struct Phase {
    /// Phase offset `φ_d ∈ [0, stride_d)` per dimension.
    pub offset: Vec<usize>,
    /// The stride-1 plan for this phase (`r_φ[d] = ⌈(r_d − φ_d)/s_d⌉`
    /// taps over the trimmed extent `out_d + r_φ[d] − 1`, no padding).
    pub plan: WinogradLayer,
}

/// Which engine a dispatched layer runs on.
#[derive(Debug)]
pub enum Route {
    /// Identity geometry: the plain three-stage Winograd pipeline.
    Direct(Box<WinogradLayer>),
    /// Stride ≥ 2 (optionally grouped): sum of per-phase stride-1
    /// Winograd convolutions. Phases where some `r_φ[d] = 0` contribute
    /// nothing and are omitted.
    Polyphase { phases: Vec<Phase> },
    /// Stride 1, groups > 1 with `C/G` and `C'/G` both multiples of the
    /// vector width: one shared per-group Winograd plan, C/C' loops
    /// blocked per group.
    Grouped { plan: Box<WinogradLayer> },
    /// The im2col baseline over the full geometry — the universal
    /// fallback (dilation, narrow groups, sub-plan failure).
    Im2col,
}

/// The kernels one layer execution runs on.
#[derive(Clone, Copy)]
pub(crate) enum Kernels<'a> {
    /// Raw kernels: every route, and every rescue, can use them.
    Raw(&'a BlockedKernels),
    /// Memoised transforms (§4.2 "Inference only"): [`Route::Direct`] only.
    Memo(&'a TransformedKernels),
}

/// The planned route for one layer shape under one [`ConvGeometry`] — the
/// only kind of layer plan a [`crate::Network`] holds.
#[derive(Debug)]
pub struct DispatchPlan {
    /// The layer's stride-1 description: input extents, *undilated*
    /// kernel extents, padding, and **global** channel counts. Kernels
    /// follow the grouped convention
    /// (`kernels.in_channels == C / groups`).
    pub shape: ConvShape,
    /// The geometry the route realises.
    pub geo: ConvGeometry,
    /// Output extents under the geometry.
    out_dims: Vec<usize>,
    pub route: Route,
    /// The options the layer was planned under and the table row the
    /// route realises — where a run-time re-plan starts from.
    opts: ConvOptions,
    pub(crate) cand: Candidate,
}

/// Plan a route for `shape` under the geometry carried by `opts`
/// (see [`ConvOptions::geometry`]).
///
/// Returns the plan plus the typed reason Winograd was (partly) declined,
/// if any — [`FallbackReason::Dilated`] and
/// [`FallbackReason::GroupTooNarrow`] mark *designed* im2col routes and
/// are reported under every policy; plan failures walk the degradation
/// table (JIT → Mono, a larger tile under a memory budget, im2col) as far
/// as `policy` allows. `Err` is reserved for unrepresentable layers
/// ([`PlanError::Shape`]) and for plan failures the policy refuses to
/// absorb.
pub fn plan_dispatch(
    shape: &ConvShape,
    m: &[usize],
    opts: ConvOptions,
    policy: &FallbackPolicy,
) -> Result<(DispatchPlan, Option<FallbackReason>), PlanError> {
    plan_at_rung(shape, m, opts, policy, 0)
}

/// [`plan_dispatch`] starting from the candidate the serve breaker's
/// `rung` selects (0 = as configured).
pub(crate) fn plan_at_rung(
    shape: &ConvShape,
    m: &[usize],
    opts: ConvOptions,
    policy: &FallbackPolicy,
    rung: u8,
) -> Result<(DispatchPlan, Option<FallbackReason>), PlanError> {
    let rank = shape.rank();
    if rank > MAX_RANK {
        return Err(PlanError::RankTooHigh { rank });
    }
    let geo = opts.geometry(rank);
    geo.validate(shape)?; // unrepresentable layers are hard errors
    let out_dims = geo.out_dims(shape)?;
    let asked = Candidate::Winograd { m: m.to_vec(), stage2: opts.stage2, retile: 0 };
    let start = degrade(&asked, Cause::BreakerRung(rung), &out_dims, policy).unwrap_or(asked);
    let ((mut plan, designed), absorbed) =
        plan_walk(start, &out_dims, policy, |c| build(shape, &geo, &out_dims, opts, c))?;
    if let Candidate::Winograd { retile, .. } = &mut plan.cand {
        *retile = 0; // the planned tile is the run-time walk's point of reference
    }
    let reason = absorbed
        .map(|e| FallbackReason::absorbed(e, plan.cand == Candidate::Im2col))
        .or(designed);
    Ok((plan, reason))
}

/// Plan exactly `cand` for the layer — no fallback; errors go back to the
/// table walk. The second value is the designed-route provenance (an
/// im2col route, designed or not, realises the im2col candidate whatever
/// was asked).
fn build(
    shape: &ConvShape,
    geo: &ConvGeometry,
    out_dims: &[usize],
    opts: ConvOptions,
    cand: &Candidate,
) -> Result<(DispatchPlan, Option<FallbackReason>), PlanError> {
    let done = |route, designed| {
        let cand = if matches!(route, Route::Im2col) { Candidate::Im2col } else { cand.clone() };
        let (shape, geo, out_dims) = (shape.clone(), geo.clone(), out_dims.to_vec());
        Ok((DispatchPlan { shape, geo, out_dims, route, opts, cand }, designed))
    };
    // Dilation is outside what the Winograd transform stencils express:
    // a designed im2col route, not a failure.
    if geo.dilation.iter().any(|&d| d > 1) {
        return done(Route::Im2col, Some(FallbackReason::Dilated));
    }
    // Narrow groups (depthwise included) cannot fill the S-wide channel
    // vectors of the blocked layout: designed im2col route.
    let c_per_group = shape.in_channels / geo.groups;
    let k_per_group = shape.out_channels / geo.groups;
    if geo.groups > 1 && (!c_per_group.is_multiple_of(S) || !k_per_group.is_multiple_of(S)) {
        return done(Route::Im2col, Some(FallbackReason::GroupTooNarrow { c_per_group }));
    }
    let Candidate::Winograd { m, stage2, .. } = cand else {
        return done(Route::Im2col, None);
    };
    let sub_opts = ConvOptions { stage2: *stage2, ..opts.with_identity_geometry() };
    if geo.is_identity() {
        let plan = WinogradLayer::new(shape.clone(), m, sub_opts)?;
        return done(Route::Direct(Box::new(plan)), None);
    }

    // From here every sub-problem is a plain stride-1 Winograd plan over
    // the per-group channel counts (== the global ones when groups == 1).
    let rank = shape.rank();
    let plan_sub = |dims: &[usize], kernel: &[usize], padding: &[usize]| {
        let sub = ConvShape::new(shape.batch, c_per_group, k_per_group, dims, kernel, padding)?;
        plan_sub(&sub, m, sub_opts)
    };
    if geo.stride.iter().all(|&s| s == 1) {
        let plan = plan_sub(&shape.image_dims, &shape.kernel_dims, &shape.padding)?;
        return done(Route::Grouped { plan: Box::new(plan) }, None);
    }

    // Polyphase decomposition for stride ≥ 2.
    let n_phases: usize = geo.stride.iter().product();
    let mut phases = Vec::new();
    for flat in 0..n_phases {
        let offset = unflatten(flat, &geo.stride);
        let mut r_phi = Vec::with_capacity(rank);
        for d in 0..rank {
            if shape.kernel_dims[d] <= offset[d] {
                // No kernel tap lands on this phase in dimension d: the
                // whole phase contributes nothing.
                r_phi.clear();
                break;
            }
            r_phi.push((shape.kernel_dims[d] - offset[d]).div_ceil(geo.stride[d]));
        }
        if r_phi.is_empty() {
            continue;
        }
        // Trim the decimated input so the valid (unpadded) phase conv
        // emits exactly `out_dims` — no cropping afterwards.
        let ext: Vec<usize> = (0..rank).map(|d| out_dims[d] + r_phi[d] - 1).collect();
        phases.push(Phase { offset, plan: plan_sub(&ext, &r_phi, &vec![0; rank])? });
    }
    done(Route::Polyphase { phases }, None)
}

/// Plan one stride-1 sub-problem: try the caller's tile clipped to the
/// sub-problem's output extents, then the minimal tile. Clipping keeps
/// the intent (larger tiles where they fit) while tolerating the small,
/// skewed extents polyphase phases produce.
fn plan_sub(shape: &ConvShape, m: &[usize], opts: ConvOptions) -> Result<WinogradLayer, PlanError> {
    let out = shape.out_dims();
    let rank = shape.rank();
    let clip = |mm: &[usize]| -> Vec<usize> {
        (0..rank).map(|d| mm.get(d).copied().unwrap_or(2).min(out[d]).max(1)).collect()
    };
    let first = clip(m);
    WinogradLayer::new(shape.clone(), &first, opts).or_else(|e| {
        let minimal = clip(&vec![2; rank]);
        if minimal == first {
            return Err(e);
        }
        WinogradLayer::new(shape.clone(), &minimal, opts)
    })
}

/// Make `slot` hold a scratch shaped for `p` with at least `threads`
/// thread slots, through the fallible allocation seam: a refused buffer is
/// [`WinoError::Alloc`] (and enters the degradation table), never an abort.
pub(crate) fn ensure_scratch<'s>(
    slot: &'s mut Option<Scratch>,
    p: &WinogradLayer,
    threads: usize,
) -> Result<&'s mut Scratch, WinoError> {
    let fits = slot.as_ref().is_some_and(|sc| sc.fits(p, threads));
    if !fits {
        // Release the mismatched scratch before allocating the new one:
        // under memory pressure holding both arenas at once is exactly
        // what pushes the allocator over the edge.
        *slot = None;
        *slot = Some(Scratch::try_new(p, threads)?);
    }
    Ok(slot.as_mut().expect("scratch ensured above"))
}

impl DispatchPlan {
    /// Output extent per dimension under the geometry.
    pub fn out_dims(&self) -> &[usize] {
        &self.out_dims
    }

    /// Allocate the output image for this layer.
    pub fn new_output(&self) -> Result<BlockedImage, wino_tensor::ShapeError> {
        BlockedImage::zeros(self.shape.batch, self.shape.out_channels, &self.out_dims)
    }

    /// Fallible [`Self::new_output`]: a typed allocation failure instead
    /// of an abort when the allocator refuses the buffer.
    pub fn try_new_output(&self) -> Result<BlockedImage, TensorError> {
        BlockedImage::try_zeros(self.shape.batch, self.shape.out_channels, &self.out_dims)
    }

    /// Kernel input-channel count under the grouped convention: `C / G`.
    pub fn kernel_in_channels(&self) -> usize {
        self.shape.in_channels / self.geo.groups
    }

    /// The dense Winograd plan of a [`Route::Direct`] layer — the one
    /// route with memoisable kernel transforms and accuracy sentinels.
    pub fn winograd(&self) -> Option<&WinogradLayer> {
        match &self.route {
            Route::Direct(p) => Some(p),
            _ => None,
        }
    }

    /// The backend this route reports as ([`LayerBackend::name`]).
    pub fn backend(&self) -> LayerBackend {
        match (&self.route, &self.cand) {
            (Route::Im2col, _) => LayerBackend::Im2col,
            (_, Candidate::Winograd { retile, .. }) if *retile != 0 => {
                LayerBackend::WinogradDemoted
            }
            (Route::Polyphase { .. }, _) => LayerBackend::WinogradPoly,
            (Route::Grouped { .. }, _) => LayerBackend::WinogradGrouped,
            (Route::Direct(p), _) => match p.opts.stage2 {
                Stage2Backend::Jit => LayerBackend::WinogradJit,
                Stage2Backend::Mono => LayerBackend::WinogradMono,
            },
        }
    }

    /// This layer on another row of the degradation table (the run-time
    /// walk's re-plan).
    pub(crate) fn replan(&self, cand: &Candidate) -> Result<DispatchPlan, PlanError> {
        Ok(build(&self.shape, &self.geo, &self.out_dims, self.opts, cand)?.0)
    }

    /// Analytic memory footprint of executing this route at `threads`
    /// thread slots. [`Route::Direct`] is byte-exact (it delegates to
    /// [`WinogradLayer::footprint`]). The other routes are documented
    /// approximations covering the dominant allocations:
    ///
    /// * **Grouped** — the shared per-group scratch is exact; the output
    ///   component counts the full output plus one per-group transient
    ///   (`out_g` is assembled per group, then copied).
    /// * **Polyphase** — phases run sequentially, taking turns in the
    ///   layer's scratch slot; the scratch components are the *maximum*
    ///   over phases, the output component adds the full output, the
    ///   per-phase accumulator image, and the largest decimated phase
    ///   input. Phase kernel copies (`C·C'·r_φ` floats) are omitted as
    ///   second-order.
    /// * **Im2col** — the lowering matrices (`A`, packed `W`, `X`) from
    ///   [`Self::im2col_work_model`] are reported as scratch, plus the
    ///   output.
    pub fn footprint(&self, threads: usize) -> crate::MemoryFootprint {
        let out_bytes =
            BlockedImage::bytes_for(self.shape.batch, self.shape.out_channels, &self.out_dims);
        let mut fp = crate::MemoryFootprint::empty(threads);
        match &self.route {
            Route::Direct(p) => return p.footprint(threads),
            Route::Grouped { plan } => {
                fp = plan.footprint(threads);
                // Full output plus the per-group transient the loop holds.
                fp.output_bytes += out_bytes;
            }
            Route::Polyphase { phases } => {
                let mut max_phase_in = 0;
                for ph in phases {
                    fp.fold(&ph.plan.footprint(threads), usize::max);
                    max_phase_in = max_phase_in.max(BlockedImage::bytes_for(
                        self.shape.batch,
                        self.shape.in_channels,
                        &ph.plan.shape.image_dims,
                    ));
                }
                // Output + the per-phase accumulator + the decimated copy.
                fp.output_bytes = 2 * out_bytes + max_phase_in;
            }
            Route::Im2col => {
                let wm = self.im2col_work_model();
                fp.scratch_bytes =
                    wm.get(SpanCategory::ElementwiseGemm).map_or(0, |w| w.bytes as usize);
                fp.output_bytes = out_bytes;
            }
        }
        fp
    }

    /// FLOPs of the equivalent direct convolution under this geometry —
    /// the effective-GFLOP/s normaliser (grouped layers do `1/G` of the
    /// dense work).
    pub fn direct_flops(&self) -> u128 {
        2 * self.geo.direct_macs(&self.shape).expect("geometry validated at plan time")
    }

    /// Per-stage operation/traffic model: the sub-plans' models summed
    /// (each per-group plan runs `G` times), or the im2col lowering+GEMM
    /// model for the fallback route.
    pub fn work_model(&self) -> WorkModel {
        let g = self.geo.groups as u128;
        let mut model = WorkModel::new();
        match &self.route {
            Route::Direct(p) => p.work_model(),
            Route::Grouped { plan } => {
                merge_scaled(&mut model, &plan.work_model(), g);
                model
            }
            Route::Polyphase { phases } => {
                for ph in phases {
                    merge_scaled(&mut model, &ph.plan.work_model(), g);
                }
                model
            }
            Route::Im2col => self.im2col_work_model(),
        }
    }

    /// The im2col lowering+GEMM model for this plan's geometry,
    /// regardless of route — also the model of the geometry-aware
    /// im2col baseline run on the same layer (the bench probes fold
    /// comparison rows against it).
    pub fn im2col_work_model(&self) -> WorkModel {
        const F32_BYTES: u128 = 4;
        let g = self.geo.groups as u128;
        let ker_vol: u128 = self.shape.kernel_dims.iter().map(|&d| d as u128).product();
        let in_vol: u128 = self.shape.image_dims.iter().map(|&d| d as u128).product();
        let out_vol: u128 = self.out_dims.iter().map(|&d| d as u128).product();
        let rows = self.shape.batch as u128 * out_vol;
        let c_pg = (self.shape.in_channels / self.geo.groups) as u128;
        let k_pg = (self.shape.out_channels / self.geo.groups) as u128;
        let inner = (c_pg * ker_vol).next_multiple_of(S as u128);
        let cp = k_pg.next_multiple_of(S as u128);
        let a_elems = g * rows * inner;
        let w_elems = g * inner * cp;
        let x_elems = g * rows * cp;
        let mut model = WorkModel::new();
        model.set(
            SpanCategory::Im2colLower,
            StageWork {
                flops: 0,
                bytes: (self.shape.batch as u128 * self.shape.in_channels as u128 * in_vol
                    + a_elems
                    + c_pg * self.shape.out_channels as u128 * ker_vol
                    + w_elems
                    + x_elems
                    + self.shape.batch as u128 * self.shape.out_channels as u128 * out_vol)
                    * F32_BYTES,
            },
        );
        model.set(
            SpanCategory::ElementwiseGemm,
            StageWork {
                flops: 2 * g * rows * inner * cp,
                bytes: (a_elems + w_elems + x_elems) * F32_BYTES,
            },
        );
        model
    }

    /// Execute the route with a scratch of its own. `kernels` follow the
    /// grouped convention (`in_channels == C / groups`, global output
    /// channels); `output` must be pre-sized to
    /// [`DispatchPlan::out_dims`]. Deterministic for a fixed plan: phases
    /// and groups run in a fixed order, so repeated calls (and different
    /// executors) are bitwise identical.
    pub fn forward(
        &self,
        input: &BlockedImage,
        kernels: &BlockedKernels,
        output: &mut BlockedImage,
        exec: &dyn Executor,
    ) -> Result<(), WinoError> {
        self.forward_in(&mut None, input, Kernels::Raw(kernels), output, exec)
    }

    /// [`Self::forward`] through a caller-owned scratch `slot` — a
    /// [`crate::Network`] layer's resident one. Every buffer the route
    /// needs beyond `output` is allocated fallibly.
    pub(crate) fn forward_in(
        &self,
        slot: &mut Option<Scratch>,
        input: &BlockedImage,
        kernels: Kernels<'_>,
        output: &mut BlockedImage,
        exec: &dyn Executor,
    ) -> Result<(), WinoError> {
        assert_eq!(input.dims, self.shape.image_dims, "input extent mismatch");
        assert_eq!(input.channels, self.shape.in_channels, "input channel mismatch");
        assert_eq!(output.dims, self.out_dims, "output extent mismatch");
        let threads = exec.threads();
        let kernels = match (kernels, &self.route) {
            (Kernels::Raw(k), _) => k,
            (Kernels::Memo(tk), Route::Direct(plan)) => {
                let sc = ensure_scratch(slot, plan, threads)?;
                return plan.forward_fx(input, tk, output, sc, exec);
            }
            (Kernels::Memo(_), _) => {
                return Err(WinoError::Unsupported(
                    "memoised kernel transforms for an im2col-planned layer",
                ))
            }
        };
        assert_eq!(kernels.in_channels, self.kernel_in_channels(), "grouped kernel convention");
        assert_eq!(kernels.out_channels, self.shape.out_channels, "output channel mismatch");
        let groups = self.geo.groups;
        let c_pg = self.shape.in_channels / groups;
        let k_pg = self.shape.out_channels / groups;
        // One group's (or, dense, the whole) sub-convolution into `out`.
        let per_group = |plan: &WinogradLayer,
                         sc: &mut Scratch,
                         inp: &BlockedImage,
                         ker: &BlockedKernels,
                         out: &mut BlockedImage|
         -> Result<(), WinoError> {
            if groups == 1 {
                return plan.forward(inp, ker, out, sc, exec);
            }
            for g in 0..groups {
                let in_g = inp.channel_block(g * c_pg, c_pg)?;
                let k_g = ker.group_block(0, c_pg, g * k_pg, k_pg)?;
                let mut out_g = plan.try_new_output()?;
                plan.forward(&in_g, &k_g, &mut out_g, sc, exec)?;
                out.write_channel_block(g * k_pg, &out_g)?;
            }
            Ok(())
        };
        match &self.route {
            Route::Direct(plan) | Route::Grouped { plan } => {
                per_group(plan, ensure_scratch(slot, plan, threads)?, input, kernels, output)
            }
            Route::Polyphase { phases } => {
                output.fill_zero();
                let (stride, padding) = (&self.geo.stride, &self.shape.padding);
                for Phase { offset, plan } in phases {
                    let pin = decimate(input, offset, stride, padding, &plan.shape.image_dims)?;
                    let pker = phase_kernels(kernels, offset, stride, &plan.shape.kernel_dims)?;
                    let mut ptmp = self.try_new_output()?;
                    let sc = ensure_scratch(slot, plan, threads)?;
                    per_group(plan, sc, &pin, &pker, &mut ptmp)?;
                    output.accumulate(&ptmp)?;
                }
                Ok(())
            }
            Route::Im2col => {
                output.fill_zero();
                wino_baseline::im2col_conv_geo(
                    input,
                    kernels,
                    &self.shape.padding,
                    &self.geo,
                    output,
                    exec,
                )?;
                Ok(())
            }
        }
    }
}

/// Accumulate `times · other` into `acc`, category by category.
fn merge_scaled(acc: &mut WorkModel, other: &WorkModel, times: u128) {
    for cat in ALL_CATEGORIES {
        if let Some(w) = other.get(cat) {
            let cur = acc.get(cat).unwrap_or_default();
            acc.set(
                cat,
                StageWork { flops: cur.flops + w.flops * times, bytes: cur.bytes + w.bytes * times },
            );
        }
    }
}

/// The decimated phase input `x̃_φ[i] = x̂[φ + i·s]` (`x̂` = zero-padded
/// input), trimmed to `ext` — entries sampling the padding read zero.
/// Copies whole S-wide channel vectors per spatial site.
fn decimate(
    input: &BlockedImage,
    offset: &[usize],
    stride: &[usize],
    padding: &[usize],
    ext: &[usize],
) -> Result<BlockedImage, TensorError> {
    let rank = input.dims.len();
    let mut out = BlockedImage::try_zeros(input.batch, input.channels, ext)?;
    let ext_vol: usize = ext.iter().product();
    let cgs = input.channel_groups();
    let mut in_stride = [1usize; MAX_RANK];
    for d in (0..rank.saturating_sub(1)).rev() {
        in_stride[d] = in_stride[d + 1] * input.dims[d + 1];
    }
    let mut ic = vec![0usize; rank];
    for i in 0..ext_vol {
        let mut flat = i;
        for d in (0..rank).rev() {
            ic[d] = flat % ext[d];
            flat /= ext[d];
        }
        let mut inside = true;
        let mut src_spatial = 0usize;
        for d in 0..rank {
            let x = (offset[d] + ic[d] * stride[d]) as isize - padding[d] as isize;
            if x < 0 || x >= input.dims[d] as isize {
                inside = false;
                break;
            }
            src_spatial += x as usize * in_stride[d];
        }
        if !inside {
            continue; // zero-initialised
        }
        for b in 0..input.batch {
            for cg in 0..cgs {
                let so = input.vec_offset_flat(b, cg, src_spatial);
                let dof = out.vec_offset_flat(b, cg, i);
                out.as_mut_slice()[dof..dof + S].copy_from_slice(&input.as_slice()[so..so + S]);
            }
        }
    }
    Ok(out)
}

/// The phase kernel `w_φ[j] = w[φ + j·s]` of extent `r_φ`.
fn phase_kernels(
    kernels: &BlockedKernels,
    offset: &[usize],
    stride: &[usize],
    r_phi: &[usize],
) -> Result<BlockedKernels, wino_tensor::ShapeError> {
    let rank = r_phi.len();
    let mut out = BlockedKernels::zeros(kernels.in_channels, kernels.out_channels, r_phi)?;
    let taps: usize = r_phi.iter().product();
    let mut j = vec![0usize; rank];
    let mut t = vec![0usize; rank];
    for flat in 0..taps {
        let mut f = flat;
        for d in (0..rank).rev() {
            j[d] = f % r_phi[d];
            f /= r_phi[d];
        }
        for d in 0..rank {
            t[d] = offset[d] + j[d] * stride[d];
        }
        for co in 0..kernels.out_channels {
            for ci in 0..kernels.in_channels {
                out.set(co, ci, &j, kernels.get(co, ci, &t));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_sched::SerialExecutor;
    use wino_tensor::{ShapeError, SimpleImage, SimpleKernels};

    fn image(batch: usize, c: usize, dims: &[usize]) -> SimpleImage {
        SimpleImage::from_fn(batch, c, dims, |b, c, xy| {
            ((b * 31 + c * 7 + xy.iter().sum::<usize>() * 3) % 13) as f32 * 0.1 - 0.5
        })
    }

    fn kernels(cp: usize, c_pg: usize, kd: &[usize]) -> SimpleKernels {
        SimpleKernels::from_fn(cp, c_pg, kd, |co, ci, xy| {
            ((co * 5 + ci * 11 + xy.iter().sum::<usize>()) % 7) as f32 * 0.3 - 0.9
        })
    }

    /// Plan + execute + compare against the f64 oracle; returns the
    /// route's reported backend for the caller to assert on.
    fn check(
        shape: &ConvShape,
        m: &[usize],
        opts: ConvOptions,
        tol: f32,
    ) -> (LayerBackend, Option<FallbackReason>) {
        let (dp, fb) =
            plan_dispatch(shape, m, opts, &FallbackPolicy::default()).expect("representable");
        let geo = opts.geometry(shape.rank());
        let si = image(shape.batch, shape.in_channels, &shape.image_dims);
        let sk = kernels(
            shape.out_channels,
            shape.in_channels / geo.groups,
            &shape.kernel_dims,
        );
        let want = wino_baseline::direct_f64_geo(&si, &sk, &shape.padding, &geo);
        let bi = BlockedImage::from_simple(&si).unwrap();
        let bk = BlockedKernels::from_simple(&sk).unwrap();
        let mut out = dp.new_output().unwrap();
        dp.forward(&bi, &bk, &mut out, &SerialExecutor).unwrap();
        assert_eq!(out.dims, want.dims, "output extents disagree with the oracle");
        let got = out.to_simple();
        for i in 0..got.data.len() {
            assert!(
                (got.data[i] - want.data[i]).abs() <= tol * want.data[i].abs().max(1.0),
                "elem {i}: {} vs {}",
                got.data[i],
                want.data[i]
            );
        }
        (dp.backend(), fb)
    }

    #[test]
    fn identity_routes_direct() {
        let s = ConvShape::new(1, 16, 16, &[10, 10], &[3, 3], &[1, 1]).unwrap();
        let (backend, fb) = check(&s, &[2, 2], ConvOptions::default(), 1e-3);
        assert_eq!(backend, LayerBackend::WinogradMono);
        assert!(fb.is_none());
    }

    #[test]
    fn stride2_polyphase_matches_oracle() {
        let s = ConvShape::new(2, 16, 32, &[13, 13], &[3, 3], &[1, 1]).unwrap();
        let opts = ConvOptions::default().with_stride(&[2, 2]);
        let (backend, fb) = check(&s, &[4, 4], opts, 1e-3);
        assert_eq!(backend, LayerBackend::WinogradPoly);
        assert!(fb.is_none());
    }

    #[test]
    fn stride2_even_kernel_and_no_padding() {
        // r = 2, stride 2: phase 1 has r_φ = 1 → F(m, 1) sub-plans.
        let s = ConvShape::new(1, 16, 16, &[12, 12], &[2, 2], &[0, 0]).unwrap();
        let opts = ConvOptions::default().with_stride(&[2, 2]);
        let (backend, _) = check(&s, &[4, 4], opts, 1e-3);
        assert_eq!(backend, LayerBackend::WinogradPoly);
    }

    #[test]
    fn mixed_stride_3d_matches_oracle() {
        let s = ConvShape::new(1, 16, 16, &[7, 9, 8], &[3, 3, 3], &[1, 1, 1]).unwrap();
        let opts = ConvOptions::default().with_stride(&[2, 1, 2]);
        let (backend, _) = check(&s, &[2, 2, 2], opts, 1e-3);
        assert_eq!(backend, LayerBackend::WinogradPoly);
    }

    #[test]
    fn wide_groups_route_grouped() {
        let s = ConvShape::new(1, 32, 32, &[8, 8], &[3, 3], &[1, 1]).unwrap();
        let opts = ConvOptions::default().with_groups(2);
        let (backend, fb) = check(&s, &[2, 2], opts, 1e-3);
        assert_eq!(backend, LayerBackend::WinogradGrouped);
        assert!(fb.is_none());
    }

    #[test]
    fn strided_grouped_composes() {
        let s = ConvShape::new(1, 32, 32, &[9, 9], &[3, 3], &[1, 1]).unwrap();
        let opts = ConvOptions::default().with_stride(&[2, 2]).with_groups(2);
        let (backend, fb) = check(&s, &[2, 2], opts, 1e-3);
        assert_eq!(backend, LayerBackend::WinogradPoly);
        assert!(fb.is_none());
    }

    #[test]
    fn dilated_routes_im2col_with_reason() {
        let s = ConvShape::new(1, 16, 16, &[9, 9], &[3, 3], &[2, 2]).unwrap();
        let opts = ConvOptions::default().with_dilation(&[2, 2]);
        let (backend, fb) = check(&s, &[2, 2], opts, 1e-3);
        assert_eq!(backend, LayerBackend::Im2col);
        assert_eq!(fb, Some(FallbackReason::Dilated));
    }

    #[test]
    fn depthwise_routes_im2col_with_reason() {
        let s = ConvShape::new(1, 32, 32, &[6, 6], &[3, 3], &[1, 1]).unwrap();
        let opts = ConvOptions::default().with_groups(32);
        let (backend, fb) = check(&s, &[2, 2], opts, 1e-3);
        assert_eq!(backend, LayerBackend::Im2col);
        assert_eq!(fb, Some(FallbackReason::GroupTooNarrow { c_per_group: 1 }));
    }

    #[test]
    fn designed_im2col_routes_survive_a_strict_policy() {
        // Dilation and narrow groups are representable and *designed* to
        // run on im2col — a strict policy must not turn them into errors.
        let s = ConvShape::new(1, 16, 16, &[9, 9], &[3, 3], &[1, 1]).unwrap();
        let opts = ConvOptions::default().with_dilation(&[2, 2]);
        let (dp, fb) = plan_dispatch(&s, &[2, 2], opts, &FallbackPolicy::strict()).unwrap();
        assert!(matches!(dp.route, Route::Im2col));
        assert_eq!(fb, Some(FallbackReason::Dilated));
    }

    #[test]
    fn unrepresentable_groups_are_a_typed_error() {
        let s = ConvShape::new(1, 16, 32, &[8, 8], &[3, 3], &[1, 1]).unwrap();
        let opts = ConvOptions::default().with_groups(3);
        assert!(matches!(
            plan_dispatch(&s, &[2, 2], opts, &FallbackPolicy::default()),
            Err(PlanError::Shape(ShapeError::BadGroups { channels: 16, groups: 3 }))
        ));
    }

    #[test]
    fn stride_larger_than_extent_still_executes() {
        // One output sample per dimension; every phase but the first few
        // vanishes (r_φ = 0) and the survivors have single-tap kernels.
        let s = ConvShape::new(1, 16, 16, &[9, 9], &[3, 3], &[1, 1]).unwrap();
        let opts = ConvOptions::default().with_stride(&[5, 5]);
        let (dp, fb) = plan_dispatch(&s, &[2, 2], opts, &FallbackPolicy::default()).unwrap();
        assert!(fb.is_none());
        assert_eq!(dp.out_dims(), &[2, 2]);
        let (backend, _) = check(&s, &[2, 2], opts, 1e-3);
        assert_eq!(backend, LayerBackend::WinogradPoly);
    }

    #[test]
    fn polyphase_is_bitwise_executor_invariant() {
        let s = ConvShape::new(1, 16, 16, &[11, 11], &[3, 3], &[1, 1]).unwrap();
        let si = image(1, 16, &[11, 11]);
        let sk = kernels(16, 16, &[3, 3]);
        let bi = BlockedImage::from_simple(&si).unwrap();
        let bk = BlockedKernels::from_simple(&sk).unwrap();
        let opts = ConvOptions::default().with_stride(&[2, 2]);
        let (dp, _) = plan_dispatch(&s, &[2, 2], opts, &FallbackPolicy::default()).unwrap();
        let mut serial = dp.new_output().unwrap();
        dp.forward(&bi, &bk, &mut serial, &SerialExecutor).unwrap();
        let pool = wino_sched::StaticExecutor::new(3);
        let mut out = dp.new_output().unwrap();
        dp.forward(&bi, &bk, &mut out, &pool).unwrap();
        assert_eq!(out.as_slice(), serial.as_slice());
    }

    #[test]
    fn work_models_cover_the_routes() {
        let s = ConvShape::new(1, 32, 32, &[12, 12], &[3, 3], &[1, 1]).unwrap();
        let strided = ConvOptions::default().with_stride(&[2, 2]);
        let (dp, _) = plan_dispatch(&s, &[2, 2], strided, &FallbackPolicy::default()).unwrap();
        let wm = dp.work_model();
        assert!(wm.total_flops() > 0);
        assert!(wm.get(SpanCategory::ElementwiseGemm).is_some());
        assert!(dp.direct_flops() > 0);

        let grouped = ConvOptions::default().with_groups(2);
        let (dg, _) = plan_dispatch(&s, &[2, 2], grouped, &FallbackPolicy::default()).unwrap();
        // Grouped direct work is half the dense layer's.
        assert_eq!(dg.direct_flops() * 2, s.direct_flops());
        assert!(dg.work_model().total_flops() > 0);

        let dilated = ConvOptions::default().with_dilation(&[2, 2]);
        let (di, _) = plan_dispatch(&s, &[2, 2], dilated, &FallbackPolicy::default()).unwrap();
        let wm = di.work_model();
        assert!(wm.get(SpanCategory::Im2colLower).is_some());
        assert!(wm.get(SpanCategory::ElementwiseGemm).unwrap().flops > 0);
    }

    #[test]
    fn monolithic_planner_rejects_geometry_options() {
        let s = ConvShape::new(1, 16, 16, &[10, 10], &[3, 3], &[1, 1]).unwrap();
        let opts = ConvOptions::default().with_stride(&[2, 2]);
        assert!(matches!(
            WinogradLayer::new(s, &[2, 2], opts),
            Err(PlanError::Geometry { .. })
        ));
    }
}
