//! Machine calibration: [`calibrate`] measures the [`MachineModel`]
//! `serve_load` prices admission with (`ServiceModel::from_roofline`),
//! [`fma_issue_peak_gflops`] the ceiling the `gemm` bench reports kernels
//! against. Both are *software* figures from microbenchmarks, not
//! datasheet values.

use wino_probe::MachineModel;
use wino_sched::Executor;
use wino_tensor::BlockedMatrices;
use wino_workloads::time_best;

struct MutPtr(*mut f32);
// SAFETY: calibration tasks write disjoint slots of the sums buffer.
unsafe impl Sync for MutPtr {}
// SAFETY: the pointer targets a caller-owned buffer that outlives the
// fork–join moving this handle between threads.
unsafe impl Send for MutPtr {}
impl MutPtr {
    // A method (not direct field access) so closures capture the Sync
    // wrapper rather than the raw pointer field.
    fn get(&self) -> *mut f32 {
        self.0
    }
}

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
/// ceiling no kernel can pass; [`MachineModel::peak_gflops`] (from
/// [`calibrate`]) is what the shipped GEMM kernel reaches below it.
pub fn fma_issue_peak_gflops() -> f64 {
    let iters = 2_000_000;
    let timing = time_best(3, || {
        std::hint::black_box(wino_simd::dispatch(FmaLoop { iters }));
    });
    (2 * 16 * FMA_CHAINS * iters) as f64 / (timing.best_ms * 1e-3) / 1e9
}

/// Microbenchmark the machine: attainable all-core GEMM GFLOP/s (the
/// shipped monomorphised block-panel kernel on an in-cache problem — so
/// `peak_gflops` is that kernel's rate, not the FMA-issue peak, and
/// moves when the kernel does; see [`fma_issue_peak_gflops`]) and
/// read bandwidth from DRAM (a 64 MiB parallel reduction). Both use the
/// supplied executor, so the model matches the thread count of the runs
/// it will be folded against.
pub fn calibrate(exec: &dyn Executor) -> MachineModel {
    // Peak: t × (rows·c · c·cp) batched GEMM, multi-block in every
    // dimension, sized to live in cache (~1.3 MB of panels).
    let (t, rows, c, cp) = (8usize, 512usize, 128usize, 128usize);
    let mut u = BlockedMatrices::new(t, rows, c, 8, 64);
    let mut v = BlockedMatrices::new(t, c, cp, 64, 64);
    let mut x = BlockedMatrices::new(t, rows, cp, 8, 64);
    for (i, f) in u.as_mut_slice().iter_mut().enumerate() {
        *f = (i % 29) as f32 * 0.03 - 0.4;
    }
    for (i, f) in v.as_mut_slice().iter_mut().enumerate() {
        *f = (i % 23) as f32 * 0.05 - 0.5;
    }
    let timing = time_best(3, || {
        wino_gemm::batched_gemm_parallel(&u, &v, &mut x, exec).expect("calibration gemm failed");
    });
    std::hint::black_box(x.as_slice().first());
    let peak_gflops = 2.0 * (t * rows * c * cp) as f64 / (timing.best_ms * 1e-3) / 1e9;

    // Bandwidth: sum a buffer far larger than any cache, split into
    // many more chunks than threads so static partitioning stays even.
    let words = 16usize << 20; // 64 MiB of f32
    let src = vec![1.0f32; words];
    let tasks = exec.threads().max(1) * 8;
    let chunk = words.div_ceil(tasks);
    let mut sums = vec![0.0f32; tasks];
    let ptr = MutPtr(sums.as_mut_ptr());
    let timing = time_best(3, || {
        exec.run_grid(&[tasks], &|_slot, i| {
            let lo = (i * chunk).min(words);
            let hi = ((i + 1) * chunk).min(words);
            // Eight independent accumulators so the loads, not the
            // f32-add dependency chain, limit throughput.
            let mut acc = [0.0f32; 8];
            let mut j = lo;
            while j + 8 <= hi {
                for (k, a) in acc.iter_mut().enumerate() {
                    *a += src[j + k];
                }
                j += 8;
            }
            let mut s: f32 = acc.iter().sum();
            while j < hi {
                s += src[j];
                j += 1;
            }
            // SAFETY: each task writes only its own slot `i`.
            unsafe { *ptr.get().add(i) = s };
        })
        .expect("calibration bandwidth pass failed");
    });
    std::hint::black_box(sums.first());
    let mem_bw_gbps = (words * 4) as f64 / (timing.best_ms * 1e-3) / 1e9;

    MachineModel { peak_gflops, mem_bw_gbps, threads: exec.threads() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_positive_and_finite() {
        let m = calibrate(&wino_sched::SerialExecutor);
        assert!(m.peak_gflops.is_finite() && m.peak_gflops > 0.0);
        assert!(m.mem_bw_gbps.is_finite() && m.mem_bw_gbps > 0.0);
        assert_eq!(m.threads, 1);
    }
}
