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

use wino_probe::{SpanCategory, StageWork, WorkModel, ALL_CATEGORIES};
use wino_sched::Executor;
use wino_simd::S;
use wino_tensor::{BlockedImage, BlockedKernels, ConvGeometry, ConvShape, TensorError};

use crate::conv::TransformedKernels;
use crate::error::{ensure_dims_eq, ensure_eq, WinoError};
use crate::net::{FallbackReason, LayerBackend};
use crate::plan::{ConvOptions, PlanError, Scratch, Stage2Backend, WinogradLayer, MAX_RANK};
use crate::select::{degrade, plan_walk, Candidate, Cause, FallbackPolicy};

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

/// The kernels one layer execution runs on.
#[derive(Clone, Copy)]
pub(crate) enum Kernels<'a> {
    /// Raw kernels: every route, and every rescue, can use them.
    Raw(&'a BlockedKernels),
    /// Memoised transforms (§4.2 "Inference only"): a layer with a
    /// [`DispatchPlan::winograd`] plan only.
    Memo(&'a TransformedKernels),
}

/// Why a layer without a [`DispatchPlan::winograd`] plan declines
/// [`Kernels::Memo`].
pub(crate) const NO_MEMO: &str =
    "only dense stride-1 Winograd layers have a memoised kernel transform";

/// What one layer keeps between forwards — a [`crate::Network`] layer's
/// resident state. A slot serves one layer, whose every candidate shares
/// the stride-1 output shape.
#[derive(Default)]
pub(crate) struct Slot {
    /// The Winograd routes' scratch ([`ensure_scratch`] re-shapes it).
    pub scratch: Option<Scratch>,
    /// A strided layer's stride-1 result. Never cleared: the route
    /// overwrites every element of it.
    pub dense: Option<BlockedImage>,
}

impl Slot {
    /// Bytes currently held.
    pub fn bytes(&self) -> usize {
        let dense = |d: &BlockedImage| BlockedImage::bytes_for(d.batch, d.channels, &d.dims);
        self.scratch.as_ref().map_or(0, Scratch::bytes) + self.dense.as_ref().map_or(0, dense)
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
    // A plain stride-1 Winograd plan whatever `geo.stride` is — the
    // stride is `forward_in`'s epilogue — over the per-group channel
    // counts (== the global ones when groups == 1).
    let sub_opts = ConvOptions { stage2: *stage2, ..opts.with_identity_geometry() };
    let (dims, kernel, padding) = (&shape.image_dims, &shape.kernel_dims, &shape.padding);
    let sub = ConvShape::new(shape.batch, c_per_group, k_per_group, dims, kernel, padding)?;
    let plan = Box::new(WinogradLayer::new(sub, m, sub_opts)?);
    done(if geo.groups == 1 { Route::Direct(plan) } else { Route::Grouped { plan } }, None)
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

    /// The dense Winograd plan of an identity-geometry layer — the one
    /// kind with memoisable kernel transforms and accuracy sentinels.
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
        Ok(build(&self.shape, &self.geo, &self.out_dims, self.opts, cand)?.0)
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
    /// Only a [`Self::winograd`] layer prices a memoised kernel transform.
    pub fn footprint(&self, threads: usize) -> crate::MemoryFootprint {
        let (batch, cp) = (self.shape.batch, self.shape.out_channels);
        let out_bytes = BlockedImage::bytes_for(batch, cp, &self.out_dims);
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
                return fp;
            }
        };
        if self.strided() {
            fp.output_bytes += out_bytes;
        }
        if self.winograd().is_none() {
            fp.transformed_kernel_bytes = 0;
        }
        fp
    }

    /// FLOPs of the equivalent direct convolution under this geometry —
    /// the effective-GFLOP/s normaliser (grouped layers do `1/G` of the
    /// dense work, strided ones `1/∏s`).
    pub fn direct_flops(&self) -> u128 {
        2 * self.geo.direct_macs(&self.shape).expect("geometry validated at plan time")
    }

    /// Per-stage operation/traffic model of the work the route performs:
    /// the stride-1 plan's model (a per-group plan runs `G` times; a
    /// strided layer computes the whole stride-1 image), or the im2col
    /// lowering+GEMM model for the fallback route.
    pub fn work_model(&self) -> WorkModel {
        match &self.route {
            Route::Direct(p) => p.work_model(),
            Route::Grouped { plan } => {
                let (per_group, mut model) = (plan.work_model(), WorkModel::new());
                let g = self.geo.groups as u128;
                for cat in ALL_CATEGORIES {
                    if let Some(w) = per_group.get(cat) {
                        model.set(cat, StageWork { flops: w.flops * g, bytes: w.bytes * g });
                    }
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

    /// Execute the route with a slot of its own — scratch and, strided,
    /// stride-1 image are built and dropped inside the call; a
    /// [`crate::Network`] keeps them. `kernels` follow the
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
        self.forward_in(&mut Slot::default(), input, Kernels::Raw(kernels), output, exec)
    }

    /// [`Self::forward`] through a caller-owned `slot` — a
    /// [`crate::Network`] layer's resident one. Every buffer the route
    /// needs beyond `output` is allocated fallibly.
    pub(crate) fn forward_in(
        &self,
        slot: &mut Slot,
        input: &BlockedImage,
        kernels: Kernels<'_>,
        output: &mut BlockedImage,
        exec: &dyn Executor,
    ) -> Result<(), WinoError> {
        let s = &self.shape;
        ensure_eq("input batch", s.batch, input.batch)?;
        ensure_eq("input channels", s.in_channels, input.channels)?;
        ensure_dims_eq("input extent", &s.image_dims, &input.dims)?;
        ensure_eq("output batch", s.batch, output.batch)?;
        ensure_eq("output channels", s.out_channels, output.channels)?;
        ensure_dims_eq("output extent", &self.out_dims, &output.dims)?;
        if let Kernels::Raw(k) = kernels {
            ensure_eq("kernel in_channels (C / groups)", self.kernel_in_channels(), k.in_channels)?;
            ensure_eq("kernel out_channels", s.out_channels, k.out_channels)?;
        }
        if !self.strided() {
            return self.run_route(&mut slot.scratch, input, kernels, output, exec);
        }
        // Stride as an epilogue: the route's stride-1 result, resident
        // with the scratch, then every `s`-th site of it.
        if slot.dense.is_none() {
            slot.dense = Some(BlockedImage::try_zeros(s.batch, s.out_channels, &s.out_dims())?);
        }
        let dense = slot.dense.as_mut().expect("dense image ensured above");
        self.run_route(&mut slot.scratch, input, kernels, dense, exec)?;
        subsample(dense, &self.geo.stride, output);
        Ok(())
    }

    /// Run the route into `out`, overwriting every element of it: the
    /// layer's output, or (Winograd routes of a strided layer) its
    /// stride-1 image.
    fn run_route(
        &self,
        slot: &mut Option<Scratch>,
        input: &BlockedImage,
        kernels: Kernels<'_>,
        out: &mut BlockedImage,
        exec: &dyn Executor,
    ) -> Result<(), WinoError> {
        let threads = exec.threads();
        let kernels = match (kernels, self.winograd()) {
            (Kernels::Raw(k), _) => k,
            (Kernels::Memo(tk), Some(plan)) => {
                let sc = ensure_scratch(slot, plan, threads)?;
                return plan.forward_fx(input, tk, out, sc, exec);
            }
            (Kernels::Memo(_), None) => return Err(WinoError::Unsupported(NO_MEMO)),
        };
        match &self.route {
            Route::Direct(plan) => {
                plan.forward(input, kernels, out, ensure_scratch(slot, plan, threads)?, exec)
            }
            Route::Grouped { plan } => {
                let sc = ensure_scratch(slot, plan, threads)?;
                let (c_pg, k_pg) = (plan.shape.in_channels, plan.shape.out_channels);
                for g in 0..self.geo.groups {
                    let in_g = input.channel_block(g * c_pg, c_pg)?;
                    let k_g = kernels.group_block(0, c_pg, g * k_pg, k_pg)?;
                    let mut out_g = plan.try_new_output()?;
                    plan.forward(&in_g, &k_g, &mut out_g, sc, exec)?;
                    out.write_channel_block(g * k_pg, &out_g)?;
                }
                Ok(())
            }
            Route::Im2col => {
                out.fill_zero();
                let (padding, geo) = (&self.shape.padding, &self.geo);
                Ok(wino_baseline::im2col_conv_geo(input, kernels, padding, geo, out, exec)?)
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
        assert_eq!(backend, LayerBackend::WinogradMono);
        assert!(fb.is_none());
    }

    #[test]
    fn stride2_matches_oracle() {
        let s = ConvShape::new(2, 16, 32, &[13, 13], &[3, 3], &[1, 1]).unwrap();
        let opts = ConvOptions::default().with_stride(&[2, 2]);
        let (backend, fb) = check(&s, &[4, 4], opts, 1e-3);
        assert_eq!(backend, LayerBackend::WinogradMono);
        assert!(fb.is_none());
    }

    #[test]
    fn stride2_even_kernel_and_no_padding() {
        // r = 2: an even kernel, whose stride-1 plan is F(4, 2).
        let s = ConvShape::new(1, 16, 16, &[12, 12], &[2, 2], &[0, 0]).unwrap();
        let opts = ConvOptions::default().with_stride(&[2, 2]);
        let (backend, _) = check(&s, &[4, 4], opts, 1e-3);
        assert_eq!(backend, LayerBackend::WinogradMono);
    }

    #[test]
    fn mixed_stride_3d_matches_oracle() {
        let s = ConvShape::new(1, 16, 16, &[7, 9, 8], &[3, 3, 3], &[1, 1, 1]).unwrap();
        let opts = ConvOptions::default().with_stride(&[2, 1, 2]);
        let (backend, _) = check(&s, &[2, 2, 2], opts, 1e-3);
        assert_eq!(backend, LayerBackend::WinogradMono);
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
        assert_eq!(backend, LayerBackend::WinogradMono);
    }

    #[test]
    fn strided_output_is_the_subsampled_stride1_output() {
        // A stronger oracle than a tolerance: a strided layer's output is
        // bit for bit every `s`-th site of the same layer planned at
        // stride 1 — whatever the rank, stride, padding, kernel parity,
        // grouping, stage-2 engine or executor.
        use wino_sched::{DynamicExecutor, StaticExecutor};
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
            Box::new(DynamicExecutor::new(4)),
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
