//! The FMA-issue ceiling the `gemm` bench reports kernels against: a
//! *software* figure from a microbenchmark, not a datasheet value.

use wino_workloads::time_best;

/// Independent accumulators updated in registers only: nothing to load,
/// so the rate is what the FMA ports issue.
struct FmaLoop {
    iters: usize,
}

impl wino_simd::Kernel for FmaLoop {
    type Output = f32;

    #[inline(always)]
    fn run<V: wino_simd::Simd16>(self) -> f32 {
        // Twelve chains cover two ports at four or five cycles of latency.
        let (a, b) = (V::splat(std::hint::black_box(0.999)), V::splat(1e-3));
        let mut acc = [V::splat(1.0); FMA_CHAINS];
        for _ in 0..self.iters {
            for c in acc.iter_mut() {
                *c = a.mul_add(*c, b);
            }
        }
        acc.iter().map(|c| c.to_array()[0]).sum()
    }
}

const FMA_CHAINS: usize = 12;

/// FMA-issue peak of **one thread** on the active backend, in GFLOP/s:
/// a register-only loop of independent 16-lane FMAs. This is the
/// ceiling no kernel can pass.
pub fn fma_issue_peak_gflops() -> f64 {
    let iters = 2_000_000;
    let timing = time_best(3, || {
        std::hint::black_box(wino_simd::dispatch(FmaLoop { iters }));
    });
    (2 * 16 * FMA_CHAINS * iters) as f64 / (timing.best_ms * 1e-3) / 1e9
}
