//! Figure 6 harness: batched matrix-multiply throughput of the
//! specialised kernels vs a generic library-style kernel, per `V̂` size.
//!
//! For every legal `V̂` shape `(C_blk × C'_blk)` with at most `128²`
//! elements (multiples of 16, as §4.3.1 requires), tall-skinny panels are
//! multiplied by three engines:
//!
//! * `jit`       — run-time generated machine code (`wino-jit`),
//! * `mono`      — const-generic monomorphised kernels (`wino-gemm`);
//!   both walk a panel in the `R×Q` register tiles the `tile` column
//!   names (largest strip of the winning `n_blk`),
//! * `generic`   — the non-specialised baseline (the MKL/LIBXSMM stand-in).
//!
//! `n_blk` is swept (6..=30, coarse grid) and the best value reported per
//! engine, matching the paper's methodology ("blocking strategies of
//! computing n_blk rows … were considered and the fastest one recorded").
//!
//! ```text
//! cargo run -p wino-bench --release --bin fig6 -- [--rows N] [--t N] [--reps N] [--json]
//! ```
//!
//! `--json` replaces the CSV with a JSON array of the same rows.

use std::time::Instant;

use wino_bench::{Args, Rows};
use wino_gemm::{batched_gemm, batched_gemm_generic, BlockShape, TileTable};
use wino_jit::JitKernelPair;
use wino_tensor::BlockedMatrices;

fn fill(m: &mut BlockedMatrices, seed: usize) {
    for (i, f) in m.as_mut_slice().iter_mut().enumerate() {
        *f = (((i.wrapping_mul(seed * 2 + 0x9E3779B9)) >> 16) & 0xff) as f32 / 255.0 - 0.5;
    }
}

fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let args = Args::from_env();
    let rows = args.usize_or("--rows", 2048);
    let t_count = args.usize_or("--t", 8);
    let reps = args.usize_or("--reps", 3);
    let have_jit = wino_simd::cpu_has_avx512f();
    if !have_jit {
        eprintln!("# warning: no AVX-512F — jit column skipped");
    }

    let mut out = Rows::new(
        args.flag("--json"),
        &["c_blk", "cp_blk", "impl", "n_blk", "tile", "gflops", "speedup_vs_generic"],
    );
    let table = TileTable::active();
    let sizes = [16usize, 32, 48, 64, 96, 128];
    let nb_grid = [6usize, 8, 10, 14, 22, 30];

    for &cb in &sizes {
        for &cpb in &sizes {
            if cb * cpb > 128 * 128 {
                continue;
            }
            // Single k-block: C = C_blk isolates the V̂-size effect.
            let flops = 2.0 * (t_count * rows * cb * cpb) as f64;

            let bench = |nb: usize, engine: &str| -> f64 {
                let shape = BlockShape { n_blk: nb, c_blk: cb, cp_blk: cpb };
                let mut u = BlockedMatrices::new(t_count, rows, cb, shape.n_blk, cb);
                let mut v = BlockedMatrices::new(t_count, cb, cpb, cb, cpb);
                let mut x = BlockedMatrices::new(t_count, rows, cpb, shape.n_blk, cpb);
                fill(&mut u, 1);
                fill(&mut v, 2);
                let secs = match engine {
                    "mono" => best_of(reps, || batched_gemm(&u, &v, &mut x)),
                    "generic" => best_of(reps, || batched_gemm_generic(&u, &v, &mut x)),
                    "jit" => {
                        let pair = JitKernelPair::compile(nb, cb, cpb).expect("jit compile");
                        best_of(reps, || wino_jit::jit_batched_gemm(&u, &v, &mut x, &pair))
                    }
                    "jit-avx2" => {
                        let kern = wino_jit::Avx2Kernel::compile(nb, cb, cpb, false)
                            .expect("avx2 jit compile");
                        best_of(reps, || {
                            for t in 0..u.t_count() {
                                for j in 0..v.col_blocks() {
                                    for i in 0..u.row_blocks() {
                                        // SAFETY: single k block (C = C_blk), offsets in bounds.
                                        unsafe {
                                            kern.call(
                                                u.as_ptr().add(u.block_offset(i, 0, t)),
                                                v.as_ptr().add(v.block_offset(0, j, t)),
                                                x.as_mut_ptr().add(x.block_offset(i, j, t)),
                                            )
                                        };
                                    }
                                }
                            }
                        })
                    }
                    _ => unreachable!(),
                };
                std::hint::black_box(x.as_slice()[0]);
                flops / secs / 1e9
            };

            // Generic baseline: n_blk barely matters, measure once at 8.
            let generic = bench(8, "generic");
            out.push(&[
                cb.to_string(),
                cpb.to_string(),
                "generic".to_string(),
                "8".to_string(),
                String::new(),
                format!("{generic:.2}"),
                "1.00".to_string(),
            ]);
            let mut report_capped = |engine: &str, cap: usize| {
                let (mut best_g, mut best_nb) = (0.0f64, 0usize);
                for &nb in nb_grid.iter().filter(|&&nb| nb <= cap) {
                    let g = bench(nb, engine);
                    if g > best_g {
                        best_g = g;
                        best_nb = nb;
                    }
                }
                out.push(&[
                    cb.to_string(),
                    cpb.to_string(),
                    engine.to_string(),
                    best_nb.to_string(),
                    // The AVX2 generator keeps its own n_blk × 1 block.
                    if engine == "jit-avx2" {
                        format!("{best_nb}x1")
                    } else {
                        let (r, q) = table.largest_tile(best_nb, cpb);
                        format!("{r}x{q}")
                    },
                    format!("{best_g:.2}"),
                    format!("{:.2}", best_g / generic),
                ]);
            };
            report_capped("mono", usize::MAX);
            if have_jit {
                report_capped("jit", usize::MAX);
            }
            if wino_simd::cpu_has_avx2_fma() {
                report_capped("jit-avx2", wino_jit::MAX_N_BLK_AVX2);
            }
        }
    }
    out.finish();
}
