//! Span events and the category taxonomy of the paper's pipeline.

/// Thread id used for spans recorded by the coordinating (fork-issuing)
/// thread rather than a worker slot.
pub const COORDINATOR: u32 = u32::MAX;

/// What a span measures. The first four are the paper's pipeline stages
/// (Fig. 1 / Fig. 6 stage breakdown); the rest are finer-grained or
/// infrastructural.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanCategory {
    /// Stage 1a: input tiles gathered, `Bᵀ`-transformed, scattered into U.
    InputTransform,
    /// Stage 1b: kernels `G`-transformed, scattered into V.
    KernelTransform,
    /// Stage 2: the `T` batched tall-skinny matrix products (also the one
    /// big GEMM of the im2col baseline).
    ElementwiseGemm,
    /// Stage 3: `Aᵀ` inverse transform into the output image (also the
    /// im2col baseline's scatter back to the blocked layout).
    OutputTransform,
    /// Per-task gather of one input tile (a sub-span of InputTransform —
    /// worker-thread CPU time, not wall time).
    TileExtract,
    /// Time a worker spent waiting at the end barrier after finishing its
    /// share of a fork–join (arrival → join).
    BarrierWait,
    /// One whole fork–join on an executor (fork → join, coordinator wall
    /// time). Barrier-imbalance statistics pair these with the
    /// `BarrierWait` spans inside them.
    ForkJoin,
    /// A degradation-chain rescue re-executing a layer (e.g. numeric
    /// guard → im2col; see `wino-conv`'s failure model).
    FallbackRescue,
    /// Accuracy-sentinel re-verification: sampled output tiles recomputed
    /// through the f64 direct oracle and compared against the layer's
    /// a-priori error bound.
    SentinelVerify,
    /// The im2col baseline's input/kernel lowering pass.
    Im2colLower,
    /// The vectorised direct-convolution baseline's whole kernel.
    DirectKernel,
    /// Anything else.
    Other,
}

/// All categories, in the order stage reports list them.
pub const ALL_CATEGORIES: [SpanCategory; 12] = [
    SpanCategory::InputTransform,
    SpanCategory::KernelTransform,
    SpanCategory::ElementwiseGemm,
    SpanCategory::OutputTransform,
    SpanCategory::TileExtract,
    SpanCategory::BarrierWait,
    SpanCategory::ForkJoin,
    SpanCategory::FallbackRescue,
    SpanCategory::SentinelVerify,
    SpanCategory::Im2colLower,
    SpanCategory::DirectKernel,
    SpanCategory::Other,
];

impl SpanCategory {
    /// Stable kebab-case name used in JSON reports (see
    /// `docs/bench-schema.md`).
    pub fn name(self) -> &'static str {
        match self {
            SpanCategory::InputTransform => "input-transform",
            SpanCategory::KernelTransform => "kernel-transform",
            SpanCategory::ElementwiseGemm => "elementwise-gemm",
            SpanCategory::OutputTransform => "output-transform",
            SpanCategory::TileExtract => "tile-extract",
            SpanCategory::BarrierWait => "barrier-wait",
            SpanCategory::ForkJoin => "fork-join",
            SpanCategory::FallbackRescue => "fallback-rescue",
            SpanCategory::SentinelVerify => "sentinel-verify",
            SpanCategory::Im2colLower => "im2col-lower",
            SpanCategory::DirectKernel => "direct-kernel",
            SpanCategory::Other => "other",
        }
    }

    /// Inverse of [`SpanCategory::name`].
    pub fn from_name(s: &str) -> Option<SpanCategory> {
        ALL_CATEGORIES.iter().copied().find(|c| c.name() == s)
    }

    /// Whether this category is a pipeline *stage* (reported with work
    /// accounting) as opposed to infrastructure (`ForkJoin`,
    /// `BarrierWait`) or a sub-span (`TileExtract`).
    pub fn is_stage(self) -> bool {
        !matches!(
            self,
            SpanCategory::ForkJoin | SpanCategory::BarrierWait | SpanCategory::TileExtract
        )
    }
}

/// One recorded span: `[start_ns, end_ns]` on `thread` (a worker slot, or
/// [`COORDINATOR`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    pub category: SpanCategory,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanEvent {
    /// Span duration in nanoseconds (0 for inverted spans, which only a
    /// broken clock could produce).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for c in ALL_CATEGORIES {
            assert_eq!(SpanCategory::from_name(c.name()), Some(c));
        }
        assert_eq!(SpanCategory::from_name("nope"), None);
    }

    #[test]
    fn stage_classification() {
        assert!(SpanCategory::InputTransform.is_stage());
        assert!(SpanCategory::DirectKernel.is_stage());
        assert!(!SpanCategory::ForkJoin.is_stage());
        assert!(!SpanCategory::BarrierWait.is_stage());
        assert!(!SpanCategory::TileExtract.is_stage());
    }

    #[test]
    fn duration_saturates() {
        let e = SpanEvent { category: SpanCategory::Other, thread: 0, start_ns: 10, end_ns: 4 };
        assert_eq!(e.duration_ns(), 0);
    }
}
