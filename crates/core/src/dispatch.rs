//! Geometry dispatch: route every (stride, dilation, groups) combination
//! of a representable layer onto an engine that can execute it.
//!
//! [`crate::WinogradLayer`] is a stride-1, dense algorithm; this module is
//! the layer above it that closes the rest of the scenario matrix:
//!
//! * **dense layers** — the plain three-stage pipeline ([`Route::Direct`]);
//! * **groups with vector-wide per-group channels** — the C/C' loops are
//!   blocked per group around one shared sub-plan ([`Route::Grouped`]):
//!   all groups share the same spatial shape, so one plan plus one scratch
//!   serves every group;
//! * **everything else** (dilation, narrow/depthwise groups, plan
//!   failures) — the im2col baseline ([`Route::Im2col`]), with a typed
//!   [`FallbackReason`] recording *why* Winograd declined. A representable
//!   layer is never rejected; only unrepresentable geometry
//!   ([`wino_tensor::ShapeError`]) is a [`PlanError`].
//!
//! **Stride is an epilogue, not a route.** A strided output is the
//! stride-1 output sampled every `s`-th site, so the two Winograd routes
//! are planned on the stride-1 shape whatever the stride, and
//! [`DispatchPlan::forward`] runs them into a stride-1 image kept beside
//! the layer's scratch and copies every `s`-th site into the output.
//! Discarding `1 − 1/∏s` of the result still beats both a sub-lattice
//! decomposition and im2col on every catalogue layer at stride 2
//! (EXPERIMENTS.md, "Dispatch matrix"): the dense plan runs generated
//! codelets out of a resident, allocation-free scratch. The im2col route
//! strides natively.
//!
//! A [`DispatchPlan`] is also the only layer plan [`crate::Network`]
//! holds: which candidate a route is built for, and which one replaces it
//! when planning or execution fails, is the degradation table in
//! [`crate::select`].

use wino_probe::{SpanCategory, StageWork, WorkModel};
use wino_sched::Executor;
use wino_simd::S;
use wino_tensor::{BlockedImage, BlockedKernels, BlockedMatrices, ConvGeometry, ConvShape, TensorError};

use crate::conv::TransformedKernels;
use crate::error::{ensure_dims_eq, ensure_eq, WinoError};
use crate::net::{FallbackReason, LayerBackend};
use crate::plan::{keep_larger, ConvOptions, Host, PlanError, Scratch, Stage2Backend, WinogradLayer, MAX_RANK};
use crate::select::{degrade, plan_walk, Candidate, Cause, FallbackPolicy};
use crate::stage2::check_kernel_transforms;
use crate::stage3::Epilogue;

/// Which engine a dispatched layer runs on.
#[derive(Debug)]
pub enum Route {
    /// Dense (`groups == 1`, undilated): the plain three-stage Winograd
    /// pipeline on the layer's stride-1 shape.
    Direct(Box<WinogradLayer>),
    /// Groups > 1 with `C/G` and `C'/G` both multiples of the vector
    /// width: one shared per-group stride-1 Winograd plan, C/C' loops
    /// blocked per group.
    Grouped { plan: Box<WinogradLayer> },
    /// The im2col baseline over the full geometry — the universal
    /// fallback (dilation, narrow groups, plan failure).
    Im2col,
}

/// The kernels one layer execution runs on: the raw kernels and, in FX
/// mode, the layer's prepared set (§4.2 "Inference only").
#[derive(Clone, Copy)]
pub(crate) struct Kernels<'a> {
    /// Every route, every candidate the run-time walk re-plans and the
    /// sentinels' oracle can run on them.
    pub raw: &'a BlockedKernels,
    /// A dense route runs FX on its `V̂` when the plan accepts it.
    pub prepared: Option<&'a TransformedKernels>,
}

impl<'a> Kernels<'a> {
    pub fn raw(kernels: &'a BlockedKernels) -> Kernels<'a> {
        Kernels { raw: kernels, prepared: None }
    }

    /// A prepared set and the raw kernels it carries — every set
    /// [`crate::Network::prepare_kernels`] makes; [`crate::Network::run_net_fx`]
    /// refuses a layer-level one before it gets here.
    pub fn prepared(prepared: &'a TransformedKernels) -> Kernels<'a> {
        let raw = prepared.raw.as_ref().expect("a network's prepared set carries its raw kernels");
        Kernels { raw, prepared: Some(prepared) }
    }

    /// The prepared set `plan` runs FX on: one whose `V̂` has `plan`'s
    /// tile count, channels and blocking.
    fn fx(&self, plan: &WinogradLayer) -> Option<&'a TransformedKernels> {
        self.prepared.filter(|tk| check_kernel_transforms(plan, &tk.v).is_ok())
    }
}

/// What a layer's execution runs in besides its output — a
/// [`crate::Network`]'s, kept between forwards and shared by its layers,
/// which run one after another: each re-views the buffers for itself and
/// grows only the ones too small for it.
#[derive(Default)]
pub(crate) struct Slot {
    /// The Winograd routes' scratch ([`ensure_scratch`] re-views it).
    pub scratch: Option<Scratch>,
    /// A strided layer's stride-1 result. Never cleared: the route
    /// overwrites every element of it.
    pub dense: Option<BlockedImage>,
}

impl Slot {
    /// Bytes currently held.
    pub fn bytes(&self) -> usize {
        self.scratch.as_ref().map_or(0, Scratch::bytes) + self.dense.as_ref().map_or(0, BlockedImage::bytes)
    }

    /// Keep, of this slot and `other`, the larger of each buffer.
    pub fn absorb(&mut self, other: Slot) {
        match (&mut self.scratch, other.scratch) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (mine, theirs) => keep_larger(mine, theirs, |s| s.as_ref().map_or(0, Scratch::bytes)),
        }
        keep_larger(&mut self.dense, other.dense, |d| d.as_ref().map_or(0, BlockedImage::bytes));
    }
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
    /// The host the layer was planned on, which every re-plan keeps.
    host: Host,
}

/// Plan a route for `shape` under the geometry carried by `opts`
/// (see [`ConvOptions::geometry`]).
///
/// Returns the plan plus the typed reason Winograd was (partly) declined,
/// if any — [`FallbackReason::Dilated`] and
/// [`FallbackReason::GroupTooNarrow`] mark *designed* im2col routes and
/// are reported under every policy; plan failures walk the degradation
/// table (JIT → Mono, then im2col) under [`FallbackPolicy::default`].
/// `Err` is reserved for unrepresentable layers ([`PlanError::Shape`])
/// and for plan failures under [`FallbackPolicy::strict`].
pub fn plan_dispatch(
    shape: &ConvShape,
    m: &[usize],
    opts: ConvOptions,
    policy: &FallbackPolicy,
) -> Result<(DispatchPlan, Option<FallbackReason>), PlanError> {
    plan_at_rung(shape, m, opts, policy, 0, Host::detected())
}

/// [`plan_dispatch`] on `host`, starting from the candidate the serve
/// breaker's `rung` selects (0 = as configured).
pub(crate) fn plan_at_rung(
    shape: &ConvShape,
    m: &[usize],
    opts: ConvOptions,
    policy: &FallbackPolicy,
    rung: u8,
    host: Host,
) -> Result<(DispatchPlan, Option<FallbackReason>), PlanError> {
    let out_dims = out_dims(shape, opts)?;
    let geo = opts.geometry(shape.rank());
    let asked = Candidate::Winograd { m: m.to_vec(), stage2: opts.stage2, retile: 0 };
    let start = degrade(&asked, Cause::BreakerRung(rung), &out_dims, policy).unwrap_or(asked);
    let ((mut plan, designed), absorbed) =
        plan_walk(start, &out_dims, policy, |c| build(shape, &geo, &out_dims, opts, c, host))?;
    if let Candidate::Winograd { retile, .. } = &mut plan.cand {
        *retile = 0; // the planned tile is the run-time walk's point of reference
    }
    let reason = absorbed
        .map(|e| FallbackReason::absorbed(e, plan.cand == Candidate::Im2col))
        .or(designed);
    Ok((plan, reason))
}

/// The output extents of a layer under the geometry `opts` carry, or
/// the error that makes the layer unrepresentable.
fn out_dims(shape: &ConvShape, opts: ConvOptions) -> Result<Vec<usize>, PlanError> {
    let rank = shape.rank();
    if rank > MAX_RANK {
        return Err(PlanError::RankTooHigh { rank });
    }
    let geo = opts.geometry(rank);
    geo.validate(shape)?; // unrepresentable layers are hard errors
    Ok(geo.out_dims(shape)?)
}

/// Why a layer's route is a designed im2col one whatever the candidate,
/// or `None`.
fn designed_im2col(shape: &ConvShape, geo: &ConvGeometry) -> Option<FallbackReason> {
    // Dilation is outside what the Winograd transform stencils express:
    // a designed im2col route, not a failure.
    if geo.dilation.iter().any(|&d| d > 1) {
        return Some(FallbackReason::Dilated);
    }
    // Narrow groups (depthwise included) cannot fill the S-wide channel
    // vectors of the blocked layout: designed im2col route.
    let c_per_group = shape.in_channels / geo.groups;
    let k_per_group = shape.out_channels / geo.groups;
    let narrow = geo.groups > 1 && (!c_per_group.is_multiple_of(S) || !k_per_group.is_multiple_of(S));
    narrow.then_some(FallbackReason::GroupTooNarrow { c_per_group })
}

/// The shape of a layer's Winograd plan: stride-1 whatever `geo.stride`
/// is — the stride is `forward_in`'s epilogue — over the per-group channel
/// counts (== the global ones when groups == 1).
fn dense_shape(shape: &ConvShape, geo: &ConvGeometry) -> Result<ConvShape, wino_tensor::ShapeError> {
    let (c, cp) = (shape.in_channels / geo.groups, shape.out_channels / geo.groups);
    ConvShape::new(shape.batch, c, cp, &shape.image_dims, &shape.kernel_dims, &shape.padding)
}

/// Plan exactly `cand` for the layer on `host` — no fallback; errors go
/// back to the table walk. The second value is the designed-route
/// provenance (an im2col route, designed or not, realises the im2col
/// candidate whatever was asked).
fn build(
    shape: &ConvShape,
    geo: &ConvGeometry,
    out_dims: &[usize],
    opts: ConvOptions,
    cand: &Candidate,
    host: Host,
) -> Result<(DispatchPlan, Option<FallbackReason>), PlanError> {
    let done = |route, designed| {
        let cand = if matches!(route, Route::Im2col) { Candidate::Im2col } else { cand.clone() };
        let (shape, geo, out_dims) = (shape.clone(), geo.clone(), out_dims.to_vec());
        Ok((DispatchPlan { shape, geo, out_dims, route, opts, cand, host }, designed))
    };
    if let Some(reason) = designed_im2col(shape, geo) {
        return done(Route::Im2col, Some(reason));
    }
    let Candidate::Winograd { m, stage2, .. } = cand else {
        return done(Route::Im2col, None);
    };
    let sub_opts = ConvOptions { stage2: *stage2, ..opts.with_identity_geometry() };
    let plan = Box::new(WinogradLayer::new_on(dense_shape(shape, geo)?, m, sub_opts, host)?);
    done(if geo.groups == 1 { Route::Direct(plan) } else { Route::Grouped { plan } }, None)
}

/// Make `slot` hold a scratch viewed for `p` with at least `threads`
/// thread slots — the one it holds, re-viewed, with any buffer too small
/// for `p` grown — through the fallible allocation seam: a refused buffer
/// is [`WinoError::Alloc`] (and enters the degradation table), never an
/// abort.
pub(crate) fn ensure_scratch<'s>(
    slot: &'s mut Option<Scratch>,
    p: &WinogradLayer,
    threads: usize,
) -> Result<&'s mut Scratch, WinoError> {
    match slot {
        Some(sc) => sc.fit(p, threads)?,
        None => *slot = Some(Scratch::try_new(p, threads)?),
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

    /// The stride-1 Winograd plan a Winograd route runs, strided, grouped
    /// or neither.
    pub(crate) fn engine(&self) -> Option<&WinogradLayer> {
        match &self.route {
            Route::Direct(p) | Route::Grouped { plan: p } => Some(p),
            Route::Im2col => None,
        }
    }

    /// The dense Winograd plan of an identity-geometry layer — the one
    /// kind with accuracy sentinels.
    pub fn winograd(&self) -> Option<&WinogradLayer> {
        match &self.route {
            Route::Direct(p) if !self.strided() => Some(p),
            _ => None,
        }
    }

    /// Whether the route's stride-1 result is subsampled into the output
    /// (im2col strides natively).
    fn strided(&self) -> bool {
        !matches!(self.route, Route::Im2col) && self.geo.stride.iter().any(|&s| s > 1)
    }

    /// The backend this route reports as ([`LayerBackend::name`]): the
    /// engine it runs — the stride is in [`Self::geo`].
    pub fn backend(&self) -> LayerBackend {
        match (&self.route, &self.cand) {
            (Route::Im2col, _) => LayerBackend::Im2col,
            (_, Candidate::Winograd { retile, .. }) if *retile != 0 => {
                LayerBackend::WinogradDemoted
            }
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
        Ok(build(&self.shape, &self.geo, &self.out_dims, self.opts, cand, self.host)?.0)
    }

    /// Analytic memory footprint of executing this route at `threads`
    /// thread slots. [`Route::Direct`] is byte-exact: the plan's own
    /// [`WinogradLayer::footprint`], whose output is the stride-1 image,
    /// plus — strided — the subsampled output. The other routes:
    ///
    /// * **Grouped** — the shared per-group scratch is exact; the output
    ///   component counts the route's full stride-1 result plus one
    ///   per-group transient (`out_g` is assembled per group, then
    ///   copied), plus — strided — the subsampled output.
    /// * **Im2col** — the lowering matrices (`A`, packed `W`, `X`) from
    ///   [`Self::im2col_work_model`] are reported as scratch, plus the
    ///   output.
    ///
    /// Every route prices its prepared kernels as transformed-kernel
    /// bytes: the raw copy [`crate::Network::prepare_kernels`] keeps on
    /// every route, plus a dense route's `V̂` (strided or not, its
    /// stride-1 plan's) or, grouped, the per-group `V̂` its scratch grows.
    pub fn footprint(&self, threads: usize) -> crate::MemoryFootprint {
        let (batch, cp) = (self.shape.batch, self.shape.out_channels);
        let out_bytes = BlockedImage::bytes_for(batch, cp, &self.out_dims);
        let ker_vol: usize = self.shape.kernel_dims.iter().product();
        let raw_copy = self.kernel_in_channels() * cp * ker_vol * std::mem::size_of::<f32>();
        let mut fp = match &self.route {
            Route::Direct(p) => p.footprint(threads),
            Route::Grouped { plan } => {
                let mut fp = plan.footprint(threads);
                fp.output_bytes += BlockedImage::bytes_for(batch, cp, &self.shape.out_dims());
                fp
            }
            Route::Im2col => {
                let wm = self.im2col_work_model();
                let mut fp = crate::MemoryFootprint::empty(threads);
                fp.scratch_bytes =
                    wm.get(SpanCategory::ElementwiseGemm).map_or(0, |w| w.bytes as usize);
                fp.output_bytes = out_bytes;
                fp
            }
        };
        fp.transformed_kernel_bytes += raw_copy;
        if self.strided() {
            fp.output_bytes += out_bytes;
        }
        fp
    }

    /// FLOPs of the equivalent direct convolution under this geometry —
    /// the effective-GFLOP/s normaliser (grouped layers do `1/G` of the
    /// dense work, strided ones `1/∏s`).
    pub fn direct_flops(&self) -> u128 {
        2 * self.geo.direct_macs(&self.shape).expect("geometry validated at plan time")
    }

    /// The im2col lowering+GEMM model for this plan's geometry,
    /// regardless of route — also the model of the geometry-aware
    /// im2col baseline run on the same layer. The im2col route's
    /// [`Self::footprint`] prices its lowering matrices from it.
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

    /// Execute the route with a slot of its own — scratch and, strided,
    /// stride-1 image are built and dropped inside the call; a
    /// [`crate::Network`] keeps one for all its layers. `kernels` follow the
    /// grouped convention (`in_channels == C / groups`, global output
    /// channels); `output` must be pre-sized to
    /// [`DispatchPlan::out_dims`] — a mismatched operand is a typed
    /// [`wino_tensor::ShapeError`]. Deterministic for a fixed plan: groups
    /// run in a fixed order, so repeated calls (and different executors)
    /// are bitwise identical, and a strided layer's output is bitwise the
    /// subsampled output of the same layer planned at stride 1.
    pub fn forward(
        &self,
        input: &BlockedImage,
        kernels: &BlockedKernels,
        output: &mut BlockedImage,
        exec: &dyn Executor,
    ) -> Result<(), WinoError> {
        self.forward_in(&mut Slot::default(), input, Kernels::raw(kernels), output, exec, Epilogue::NONE)
    }

    /// The layer's prepared kernels (§4.2 "Inference only"): a copy of
    /// the raw kernels, which every route reads, plus a dense route's
    /// `V̂`, made on its stride-1 plan — strided or not — in `slot`'s
    /// scratch, which gives it up.
    pub(crate) fn prepare_in(
        &self,
        slot: &mut Slot,
        kernels: &BlockedKernels,
        exec: &dyn Executor,
    ) -> Result<TransformedKernels, WinoError> {
        ensure_eq("kernel in_channels (C / groups)", self.kernel_in_channels(), kernels.in_channels)?;
        ensure_eq("kernel out_channels", self.shape.out_channels, kernels.out_channels)?;
        let mut raw = BlockedKernels::try_zeros(kernels.in_channels, kernels.out_channels, &kernels.dims)?;
        raw.as_mut_slice().copy_from_slice(kernels.as_slice());
        let v = match &self.route {
            Route::Direct(plan) => {
                let sc = ensure_scratch(&mut slot.scratch, plan, exec.threads())?;
                plan.prepare_kernels(kernels, sc, exec)?.v
            }
            Route::Grouped { .. } | Route::Im2col => BlockedMatrices::placeholder(),
        };
        Ok(TransformedKernels { v, raw: Some(raw) })
    }

    /// [`Self::forward`] through a caller-owned `slot` — a
    /// [`crate::Network`]'s resident one. Every buffer the route needs
    /// beyond `output` is re-viewed from the slot or allocated fallibly.
    /// `epilogue` rides stage 3's store where stage 3 writes `output` — a
    /// dense stride-1 route, the one [`Self::winograd`] returns; every other
    /// route applies it in one pass over `output` after it
    /// ([`Epilogue::image`]).
    pub(crate) fn forward_in(
        &self,
        slot: &mut Slot,
        input: &BlockedImage,
        kernels: Kernels<'_>,
        output: &mut BlockedImage,
        exec: &dyn Executor,
        epilogue: Epilogue,
    ) -> Result<(), WinoError> {
        let s = &self.shape;
        ensure_eq("input batch", s.batch, input.batch)?;
        ensure_eq("input channels", s.in_channels, input.channels)?;
        ensure_dims_eq("input extent", &s.image_dims, &input.dims)?;
        ensure_eq("output batch", s.batch, output.batch)?;
        ensure_eq("output channels", s.out_channels, output.channels)?;
        ensure_dims_eq("output extent", &self.out_dims, &output.dims)?;
        ensure_eq("kernel in_channels (C / groups)", self.kernel_in_channels(), kernels.raw.in_channels)?;
        ensure_eq("kernel out_channels", s.out_channels, kernels.raw.out_channels)?;
        if self.winograd().is_some() {
            return self.run_route(&mut slot.scratch, input, kernels, output, exec, epilogue);
        }
        if self.strided() {
            // Stride as an epilogue: the route's stride-1 result, resident
            // with the scratch, then every `s`-th site of it.
            let dims = s.out_dims();
            match &mut slot.dense {
                Some(dense) => dense.try_reshape(s.batch, s.out_channels, &dims)?,
                None => slot.dense = Some(BlockedImage::try_zeros(s.batch, s.out_channels, &dims)?),
            }
            let dense = slot.dense.as_mut().expect("dense image ensured above");
            self.run_route(&mut slot.scratch, input, kernels, dense, exec, Epilogue::NONE)?;
            subsample(dense, &self.geo.stride, output);
        } else {
            self.run_route(&mut slot.scratch, input, kernels, output, exec, Epilogue::NONE)?;
        }
        Ok(epilogue.image(output)?)
    }

    /// Run the route into `out`, overwriting every element of it: the
    /// layer's output, or (Winograd routes of a strided layer) its
    /// stride-1 image. A dense route applies `epilogue` in stage 3's store;
    /// the others ignore it.
    fn run_route(
        &self,
        slot: &mut Option<Scratch>,
        input: &BlockedImage,
        kernels: Kernels<'_>,
        out: &mut BlockedImage,
        exec: &dyn Executor,
        epilogue: Epilogue,
    ) -> Result<(), WinoError> {
        let threads = exec.threads();
        match &self.route {
            Route::Direct(plan) => {
                let sc = ensure_scratch(slot, plan, threads)?;
                match kernels.fx(plan) {
                    Some(tk) => plan.forward_fx_with(input, tk, out, sc, exec, epilogue),
                    None => plan.forward_with(input, kernels.raw, out, sc, exec, epilogue),
                }
            }
            Route::Grouped { plan } => {
                let sc = ensure_scratch(slot, plan, threads)?;
                let (c_pg, k_pg) = (plan.shape.in_channels, plan.shape.out_channels);
                for g in 0..self.geo.groups {
                    let in_g = input.channel_block(g * c_pg, c_pg)?;
                    let k_g = kernels.raw.group_block(0, c_pg, g * k_pg, k_pg)?;
                    let mut out_g = plan.try_new_output()?;
                    plan.forward(&in_g, &k_g, &mut out_g, sc, exec)?;
                    out.write_channel_block(g * k_pg, &out_g)?;
                }
                Ok(())
            }
            Route::Im2col => {
                let (padding, geo) = (&self.shape.padding, &self.geo);
                Ok(wino_baseline::im2col_conv_geo(input, kernels.raw, padding, geo, out, exec)?)
            }
        }
    }
}

/// `out[b, c, o] = dense[b, c, o · stride]`: every `stride`-th site of a
/// stride-1 result, whole `S`-wide channel vectors, the innermost
/// dimension at a constant step.
fn subsample(dense: &BlockedImage, stride: &[usize], out: &mut BlockedImage) {
    let last = out.dims.len() - 1;
    let (width, step) = (out.dims[last], stride[last] * S);
    let (rows, dense_vol) = (out.spatial_volume() / width, dense.spatial_volume());
    for r in 0..out.batch * out.channel_groups() * rows {
        // Row `r` of the output = (image, outer coordinates); the same
        // coordinates, scaled by the stride, locate its row in `dense`.
        let (mut rem, mut at, mut pitch) = (r % rows, 0, dense.dims[last]);
        for d in (0..last).rev() {
            at += (rem % out.dims[d]) * stride[d] * pitch;
            rem /= out.dims[d];
            pitch *= dense.dims[d];
        }
        let src_row = &dense.as_slice()[(r / rows * dense_vol + at) * S..];
        let dst_row = &mut out.as_mut_slice()[r * width * S..][..width * S];
        for (x, site) in dst_row.chunks_exact_mut(S).enumerate() {
            site.copy_from_slice(&src_row[x * step..][..S]);
        }
    }
}

/// What a dense route on the default stage-2 engine reports.
#[cfg(test)]
pub(crate) fn default_backend() -> LayerBackend {
    match Stage2Backend::default() {
        Stage2Backend::Jit => LayerBackend::WinogradJit,
        Stage2Backend::Mono => LayerBackend::WinogradMono,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_sched::SerialExecutor;
    use wino_tensor::{unflatten, ShapeError, SimpleImage, SimpleKernels};

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
        assert_eq!(backend, default_backend());
        assert!(fb.is_none());
    }

    #[test]
    fn stride2_matches_oracle() {
        let s = ConvShape::new(2, 16, 32, &[13, 13], &[3, 3], &[1, 1]).unwrap();
        let opts = ConvOptions::default().with_stride(&[2, 2]);
        let (backend, fb) = check(&s, &[4, 4], opts, 1e-3);
        assert_eq!(backend, default_backend());
        assert!(fb.is_none());
    }

    #[test]
    fn stride2_even_kernel_and_no_padding() {
        // r = 2: an even kernel, whose stride-1 plan is F(4, 2).
        let s = ConvShape::new(1, 16, 16, &[12, 12], &[2, 2], &[0, 0]).unwrap();
        let opts = ConvOptions::default().with_stride(&[2, 2]);
        let (backend, _) = check(&s, &[4, 4], opts, 1e-3);
        assert_eq!(backend, default_backend());
    }

    #[test]
    fn mixed_stride_3d_matches_oracle() {
        let s = ConvShape::new(1, 16, 16, &[7, 9, 8], &[3, 3, 3], &[1, 1, 1]).unwrap();
        let opts = ConvOptions::default().with_stride(&[2, 1, 2]);
        let (backend, _) = check(&s, &[2, 2, 2], opts, 1e-3);
        assert_eq!(backend, default_backend());
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
        assert_eq!(backend, LayerBackend::WinogradGrouped);
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
        // Two output samples per dimension, 5 apart in the 9×9 stride-1
        // image.
        let s = ConvShape::new(1, 16, 16, &[9, 9], &[3, 3], &[1, 1]).unwrap();
        let opts = ConvOptions::default().with_stride(&[5, 5]);
        let (dp, fb) = plan_dispatch(&s, &[2, 2], opts, &FallbackPolicy::default()).unwrap();
        assert!(fb.is_none());
        assert_eq!(dp.out_dims(), &[2, 2]);
        let (backend, _) = check(&s, &[2, 2], opts, 1e-3);
        assert_eq!(backend, default_backend());
    }

    #[test]
    fn strided_output_is_the_subsampled_stride1_output() {
        // A stronger oracle than a tolerance: a strided layer's output is
        // bit for bit every `s`-th site of the same layer planned at
        // stride 1 — whatever the rank, stride, padding, kernel parity,
        // grouping, stage-2 engine or executor.
        use wino_sched::StaticExecutor;
        type Case<'a> = (&'a [usize], &'a [usize], &'a [usize], &'a [usize], usize);
        let cases: [Case; 9] = [
            (&[17], &[3], &[1], &[2], 1),
            (&[12], &[4], &[0], &[3], 1), // even kernel, no padding
            (&[11, 11], &[3, 3], &[1, 1], &[2, 2], 1),
            (&[10, 13], &[3, 3], &[0, 1], &[3, 2], 1), // mixed
            (&[9, 12], &[2, 2], &[0, 0], &[2, 1], 1),  // even kernel, one unit stride
            (&[6, 7], &[3, 3], &[1, 1], &[9, 8], 1),   // stride larger than the extent
            (&[9, 9], &[3, 3], &[1, 1], &[2, 2], 2),   // grouped
            (&[6, 7, 8], &[3, 3, 3], &[1, 1, 1], &[2, 2, 2], 1),
            (&[5, 8, 7], &[3, 2, 3], &[1, 0, 1], &[1, 3, 2], 2), // grouped, mixed, 3-D
        ];
        let mut engines = vec![Stage2Backend::Mono];
        if wino_simd::cpu_has_avx512f() {
            engines.push(Stage2Backend::Jit);
        }
        let execs: [Box<dyn Executor>; 4] = [
            Box::new(SerialExecutor),
            Box::new(StaticExecutor::new(2)),
            Box::new(StaticExecutor::new(3)),
            Box::new(StaticExecutor::new(4)),
        ];
        for (dims, kernel, padding, stride, groups) in cases {
            let c = 16 * groups;
            let s = ConvShape::new(2, c, c, dims, kernel, padding).unwrap();
            let bi = BlockedImage::from_simple(&image(2, c, dims)).unwrap();
            let bk = BlockedKernels::from_simple(&kernels(c, 16, kernel)).unwrap();
            for &stage2 in &engines {
                let label = format!("{dims:?} k{kernel:?} p{padding:?} s{stride:?} g{groups} {stage2:?}");
                let dense_opts = ConvOptions { stage2, ..ConvOptions::default() }.with_groups(groups);
                let policy = FallbackPolicy::strict();
                let m = vec![2; dims.len()];
                let (dense, _) = plan_dispatch(&s, &m, dense_opts, &policy).expect(&label);
                let (strided, fb) =
                    plan_dispatch(&s, &m, dense_opts.with_stride(stride), &policy).expect(&label);
                assert!(fb.is_none(), "{label}");
                assert_eq!(strided.backend(), dense.backend(), "{label}: reports the engine");
                assert!(strided.winograd().is_none(), "{label}: memo and sentinels stay dense-only");

                let mut full = dense.new_output().unwrap();
                dense.forward(&bi, &bk, &mut full, &SerialExecutor).unwrap();
                let mut want = strided.new_output().unwrap();
                let out_vol: usize = strided.out_dims().iter().product();
                for b in 0..2 {
                    for cg in 0..c / S {
                        for o in 0..out_vol {
                            let at: Vec<usize> = unflatten(o, strided.out_dims())
                                .iter()
                                .zip(stride)
                                .map(|(x, st)| x * st)
                                .collect();
                            let (src, dst) = (full.vec_offset(b, cg, &at), want.vec_offset_flat(b, cg, o));
                            want.as_mut_slice()[dst..dst + S]
                                .copy_from_slice(&full.as_slice()[src..src + S]);
                        }
                    }
                }
                for exec in &execs {
                    let mut got = strided.new_output().unwrap();
                    got.as_mut_slice().fill(f32::NAN); // every element is overwritten
                    strided.forward(&bi, &bk, &mut got, exec.as_ref()).unwrap();
                    assert_eq!(got.as_slice(), want.as_slice(), "{label} on {}", exec.name());
                }
            }
        }
    }

    #[test]
    fn mismatched_operands_fail_typed() {
        // Regression: these were `assert_eq!`s — a wrong operand panicked
        // on every route, where `WinogradLayer::forward` returns
        // `Shape(Mismatch)`.
        let s = ConvShape::new(1, 16, 32, &[12, 12], &[3, 3], &[1, 1]).unwrap();
        let good_in = BlockedImage::zeros(1, 16, &[12, 12]).unwrap();
        let good_k = BlockedKernels::zeros(16, 32, &[3, 3]).unwrap();
        let routes = [
            ConvOptions::default(),
            ConvOptions::default().with_stride(&[2, 2]),
            ConvOptions::default().with_dilation(&[2, 2]), // im2col
        ];
        for opts in routes {
            let (dp, _) = plan_dispatch(&s, &[2, 2], opts, &FallbackPolicy::default()).unwrap();
            let mut out = dp.new_output().unwrap();
            let mismatch = |r: Result<(), WinoError>, what: &str| match r {
                Err(WinoError::Shape(ShapeError::Mismatch { what: w, .. })) => assert_eq!(w, what),
                other => panic!("{what}: expected a typed mismatch, got {other:?}"),
            };
            let run = |i: &BlockedImage, k: &BlockedKernels, o: &mut BlockedImage| {
                dp.forward(i, k, o, &SerialExecutor)
            };
            let short = BlockedImage::zeros(1, 16, &[10, 12]).unwrap();
            mismatch(run(&short, &good_k, &mut out), "input extent");
            let wide = BlockedImage::zeros(1, 32, &[12, 12]).unwrap();
            mismatch(run(&wide, &good_k, &mut out), "input channels");
            let batched = BlockedImage::zeros(2, 16, &[12, 12]).unwrap();
            mismatch(run(&batched, &good_k, &mut out), "input batch");
            let bad_k = BlockedKernels::zeros(8, 32, &[3, 3]).unwrap();
            mismatch(run(&good_in, &bad_k, &mut out), "kernel in_channels (C / groups)");
            let mut bad_out = BlockedImage::zeros(1, 32, &[12, 13]).unwrap();
            mismatch(run(&good_in, &good_k, &mut bad_out), "output extent");
            run(&good_in, &good_k, &mut out).expect("the matching operands run");
        }
    }

    #[test]
    fn work_models_cover_the_routes() {
        let s = ConvShape::new(1, 32, 32, &[12, 12], &[3, 3], &[1, 1]).unwrap();
        let strided = ConvOptions::default().with_stride(&[2, 2]);
        let (dp, _) = plan_dispatch(&s, &[2, 2], strided, &FallbackPolicy::default()).unwrap();
        assert!(dp.direct_flops() > 0);

        let grouped = ConvOptions::default().with_groups(2);
        let (dg, _) = plan_dispatch(&s, &[2, 2], grouped, &FallbackPolicy::default()).unwrap();
        // Grouped direct work is half the dense layer's.
        assert_eq!(dg.direct_flops() * 2, s.direct_flops());

        let dilated = ConvOptions::default().with_dilation(&[2, 2]);
        let (di, _) = plan_dispatch(&s, &[2, 2], dilated, &FallbackPolicy::default()).unwrap();
        let wm = di.im2col_work_model();
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
