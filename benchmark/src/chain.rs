//! A workload's layers as independently planned `WinogradLayer`s, run
//! stage by stage through the public stage functions. The layer
//! workloads run their op on it; the traced run of every workload takes
//! its stage split from it.

use wino_conv::{
    plan_with_fallback, stage1, stage2, stage3, FallbackPolicy, Scratch, Stage2Backend,
    TransformedKernels, WinogradLayer,
};
use wino_probe::SpanCategory;
use wino_sched::Executor;
use wino_tensor::{BlockedImage, BlockedKernels};

use crate::trace::Tracer;
use crate::workloads::{Inputs, Workload};
use crate::Res;

pub struct ChainLayer {
    pub plan: WinogradLayer,
    pub scratch: Scratch,
    pub kernels: BlockedKernels,
    /// Memoised kernel transform (FX mode); `None` transforms per op.
    pub memo: Option<TransformedKernels>,
    pub out: BlockedImage,
}

pub struct Chain {
    pub layers: Vec<ChainLayer>,
    pub relu: bool,
    /// Plans that came back with a downgrade from `plan_with_fallback`.
    pub fallbacks: u64,
}

/// The four stage spans, with the work-model entry each is divided into.
pub const STAGES: [(&str, SpanCategory); 4] = [
    ("conv.input_xform", SpanCategory::InputTransform),
    ("conv.kernel_xform", SpanCategory::KernelTransform),
    ("conv.gemm", SpanCategory::ElementwiseGemm),
    ("conv.output_xform", SpanCategory::OutputTransform),
];

impl Chain {
    /// Plan, allocate and (when `memoise`) transform kernels for every
    /// layer at `batch`, each step in a span of op 0.
    pub fn build(
        w: &Workload,
        inputs: &Inputs,
        batch: usize,
        memoise: bool,
        exec: &dyn Executor,
        tr: &mut Tracer,
    ) -> Res<Chain> {
        let policy = FallbackPolicy::default();
        let mut layers = Vec::new();
        let mut fallbacks = 0;
        for ((shape, def), ker) in w.shapes(batch)?.iter().zip(w.layers).zip(&inputs.kernels) {
            let s = tr.enter("conv.plan", 0);
            let (plan, downgrade) =
                plan_with_fallback(shape, &vec![def.m; w.rank()], w.opts(), &policy)?;
            tr.exit(s);
            fallbacks += downgrade.is_some() as u64;
            let s = tr.enter("conv.scratch_alloc", 0);
            let mut scratch = Scratch::new(&plan, exec.threads());
            tr.exit(s);
            let kernels = BlockedKernels::from_simple(ker)?;
            let memo = if memoise {
                let s = tr.enter("conv.prepare_kernels", 0);
                let memo = plan.prepare_kernels(&kernels, &mut scratch, exec)?;
                tr.exit(s);
                Some(memo)
            } else {
                None
            };
            let out = plan.new_output()?;
            layers.push(ChainLayer {
                plan,
                scratch,
                kernels,
                memo,
                out,
            });
        }
        Ok(Chain {
            layers,
            relu: w.relu(),
            fallbacks,
        })
    }

    /// Whether every layer runs the JIT stage-2 backend.
    pub fn jit_active(&self) -> bool {
        self.layers
            .iter()
            .all(|l| l.plan.opts.stage2 == Stage2Backend::Jit)
    }

    pub fn output(&self) -> &BlockedImage {
        &self.layers[self.layers.len() - 1].out
    }

    /// Leave every FX layer's kernel transform in its `scratch.v`, where
    /// `stage2::multiply` reads it: a `TransformedKernels` cannot be handed
    /// to `multiply_with` from outside the crate, and neither the FX op
    /// nor the other stages write `scratch.v`. Call once before
    /// [`Self::forward_staged`].
    pub fn prepare_staged(&mut self, exec: &dyn Executor) -> Res<()> {
        for l in self.layers.iter_mut().filter(|l| l.memo.is_some()) {
            stage1::transform_kernels(&l.plan, &l.kernels, &mut l.scratch, exec)?;
        }
        Ok(())
    }

    /// One op as individual stage calls on the same plans and scratch,
    /// each in a span of `op_id` under an `op` span.
    pub fn forward_staged(
        &mut self,
        input: &BlockedImage,
        exec: &dyn Executor,
        tr: &mut Tracer,
        op_id: u64,
    ) -> Res<()> {
        let op = tr.enter("op", op_id);
        for i in 0..self.layers.len() {
            let (done, rest) = self.layers.split_at_mut(i);
            let l = &mut rest[0];
            let input = done.last().map_or(input, |p| &p.out);
            let s = tr.enter(STAGES[0].0, op_id);
            stage1::transform_inputs(&l.plan, input, &mut l.scratch, exec)?;
            tr.exit(s);
            if l.memo.is_none() {
                let s = tr.enter(STAGES[1].0, op_id);
                stage1::transform_kernels(&l.plan, &l.kernels, &mut l.scratch, exec)?;
                tr.exit(s);
            }
            let s = tr.enter(STAGES[2].0, op_id);
            stage2::multiply(&l.plan, &mut l.scratch, exec)?;
            tr.exit(s);
            let s = tr.enter(STAGES[3].0, op_id);
            stage3::inverse_transform(&l.plan, &mut l.scratch, &mut l.out, exec)?;
            tr.exit(s);
            if self.relu {
                for v in l.out.as_mut_slice() {
                    *v = v.max(0.0);
                }
            }
        }
        tr.exit(op);
        Ok(())
    }
}
