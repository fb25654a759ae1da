//! Micro-benchmarks for the batched GEMM engines (Fig. 6's statistical
//! companion): JIT vs monomorphised vs generic, against the FMA-issue
//! peak of one thread. The peak is re-measured next to every row (a
//! virtualised host's clock can move by tens of percent within seconds),
//! so `pct_fma_peak` compares like with like where `gflops` cannot.
//!
//! Three groups of rows, all single-thread and hot in cache:
//!
//! * `n_blk = 8` on the paper-relevant square `V̂` shapes (the historical
//!   rows, generic baseline included);
//! * the blockings `default_shape` actually plans for the layers of the
//!   six `BENCHMARK.json` workloads — the shapes production runs, where a
//!   kernel that is fast at `n_blk = 8` can still fall off a cliff;
//! * one-tile panels (`C_blk = 128`), one per register-tile shape of the
//!   AVX-512 table, to compare the tiles themselves.
//!
//! Plain `harness = false` benchmark: no registry dependencies, timing via
//! `wino_workloads::time_best`. Run with
//! `cargo bench -p wino-bench --bench gemm`; with `-- --check` it also
//! fails if Mono at the widest planned `n_blk` runs below 0.8× its own
//! `n_blk = 8` rate on the same blocks (a ratio within one process, so
//! host-state noise cancels — `scripts/bench.sh --smoke` runs this).

use wino_bench::perf::fma_issue_peak_gflops;
use wino_gemm::{batched_gemm, batched_gemm_generic, default_shape, BlockShape, TileTable};
use wino_jit::JitKernelPair;
use wino_tensor::BlockedMatrices;
use wino_workloads::time_best;

const REPS: usize = 5;
const T: usize = 4;

/// Stage 2 of every layer the benchmark workloads run: `(workload, C, C',
/// panel rows = tiles × batch)`. The serve layers are listed at batch 8.
const PLANNED: [(&str, usize, usize, usize); 9] = [
    ("gemm2d_mono", 128, 128, 196),
    ("xform2d_jit", 64, 64, 729),
    ("train3d_jit", 128, 128, 16),
    ("net3d_fx.0", 32, 32, 144),
    ("net3d_fx.1", 32, 64, 75),
    ("net3d_fx.2", 64, 64, 75),
    ("serve.0", 32, 64, 392),
    ("serve.1", 64, 64, 392),
    ("serve.2", 64, 32, 392),
];

struct Bench {
    u: BlockedMatrices,
    v: BlockedMatrices,
    x: BlockedMatrices,
    shape: BlockShape,
    flops: f64,
}

impl Bench {
    /// One `k` block (`C = C_blk`), about a thousand rows in whole panels.
    fn new(shape: BlockShape) -> Bench {
        let BlockShape { n_blk: nb, c_blk: cb, cp_blk: cpb } = shape;
        let rows = nb * (1024 / nb).max(1);
        let mut u = BlockedMatrices::new(T, rows, cb, nb, cb);
        let mut v = BlockedMatrices::new(T, cb, cpb, cb, cpb);
        let x = BlockedMatrices::new(T, rows, cpb, nb, cpb);
        for (i, f) in u.as_mut_slice().iter_mut().enumerate() {
            *f = (i % 13) as f32 * 0.1 - 0.6;
        }
        for (i, f) in v.as_mut_slice().iter_mut().enumerate() {
            *f = (i % 7) as f32 * 0.1 - 0.3;
        }
        Bench { u, v, x, shape, flops: (2 * T * rows * cb * cpb) as f64 }
    }

    fn report(&self, engine: &str, label: &str, best_ms: f64, code_bytes: Option<usize>) {
        let gflops = self.flops / best_ms / 1e6;
        let BlockShape { n_blk, c_blk, cp_blk } = self.shape;
        let (r, q) = TileTable::active().largest_tile(n_blk, cp_blk);
        let tile = if engine == "generic" { String::new() } else { format!("{r}x{q}") };
        println!(
            "{engine},{label},{n_blk},{c_blk}x{cp_blk},{tile},{best_ms:.3},{gflops:.1},{:.0},{}",
            100.0 * gflops / fma_issue_peak_gflops(),
            code_bytes.map_or(String::new(), |b| b.to_string()),
        );
    }

    fn mono_ms(&mut self) -> f64 {
        time_best(REPS, || batched_gemm(&self.u, &self.v, &mut self.x)).best_ms
    }

    fn mono(&mut self, label: &str) {
        let best_ms = self.mono_ms();
        self.report("mono", label, best_ms, None);
    }

    fn generic(&mut self, label: &str) {
        let tm = time_best(REPS, || batched_gemm_generic(&self.u, &self.v, &mut self.x));
        self.report("generic", label, tm.best_ms, None);
    }

    fn jit(&mut self, label: &str) {
        if !wino_simd::cpu_has_avx512f() {
            return;
        }
        let BlockShape { n_blk, c_blk, cp_blk } = self.shape;
        let pair = JitKernelPair::compile(n_blk, c_blk, cp_blk).unwrap();
        let tm =
            time_best(REPS, || wino_jit::jit_batched_gemm(&self.u, &self.v, &mut self.x, &pair));
        self.report("jit", label, tm.best_ms, Some(pair.k0.code_bytes()));
    }
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let peak = fma_issue_peak_gflops();
    println!(
        "# simd {}, fma_peak {peak:.1} GFLOP/s (one thread, registers only)",
        wino_simd::backend_name()
    );
    println!("engine,layer,n_blk,block,tile,best_ms,gflops,pct_fma_peak,code_bytes");

    for &(cb, cpb) in &[(32usize, 32usize), (64, 64), (128, 128)] {
        let mut b = Bench::new(BlockShape { n_blk: 8, c_blk: cb, cp_blk: cpb });
        b.mono("n_blk8");
        b.generic("n_blk8");
        b.jit("n_blk8");
    }

    let mut widest = default_shape(PLANNED[0].1, PLANNED[0].2, PLANNED[0].3);
    for &(layer, c, cp, rows) in &PLANNED {
        let shape = default_shape(c, cp, rows);
        let mut b = Bench::new(shape);
        b.mono(layer);
        b.jit(layer);
        if shape.n_blk > widest.n_blk {
            widest = shape;
        }
    }

    for &(nb, cpb) in &[(16usize, 16usize), (12, 32), (8, 32), (8, 48), (6, 64)] {
        let mut b = Bench::new(BlockShape { n_blk: nb, c_blk: 128, cp_blk: cpb });
        b.mono("tile");
        b.jit("tile");
    }

    // The cliff gate: the widest planned panel against n_blk = 8 on the
    // same blocks, timed back to back (same FLOPs per row, so the ratio
    // of rates is the inverse ratio of times per row). Best of three
    // pairs, so one clock change between the halves of a pair cannot
    // fail a kernel that passes.
    let shape = widest;
    let (mut wide, mut narrow) = (Bench::new(shape), Bench::new(BlockShape { n_blk: 8, ..shape }));
    let ratio = (0..3)
        .map(|_| (wide.flops / wide.mono_ms()) / (narrow.flops / narrow.mono_ms()))
        .fold(0.0, f64::max);
    println!(
        "# mono n_blk {} / n_blk 8 on {}x{}: {ratio:.2} (gate: >= 0.80)",
        shape.n_blk, shape.c_blk, shape.cp_blk
    );
    if check && ratio < 0.8 {
        eprintln!("error: mono at n_blk = {} runs at {ratio:.2}x its n_blk = 8 rate", shape.n_blk);
        std::process::exit(1);
    }
}
