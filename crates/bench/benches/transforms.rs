//! Transform-codelet cost per tile: the generated straight-line codelets
//! the stages run, for `Bᵀ`, `G` and `Aᵀ` of F(2|4|6, 3), F(3, 4) and
//! F(2, 5) on 2-D tiles and of F(4, 3) on 3-D ones (`F(4.3)^3`, the
//! `train3d_jit` and `net3d_fx` tile: 216 vectors, 13.5 KiB a tile, whose
//! two ping-pong buffers beside source and sink outgrow a 48 KiB L1) —
//! `*_generated` one L1-resident tile per
//! `wino_simd::dispatch` and per `transform_tile` call, so each tile also
//! pays the call's set-up (the table lookups and strides a stage builds
//! once per fork–join); `*_batched` one dispatch around calls of
//! `BATCH` tiles each, so the set-up is paid once per call, as the
//! stages pay it, and the difference is the per-tile dispatch and set-up
//! — and, on `wino-transforms`' scalar interpreter
//! (`PairedProgram::apply`), the Fig. 2 pairing optimisation against the
//! unpaired program.
//!
//! Plain `harness = false` benchmark: no registry dependencies, timing via
//! `wino_workloads::time_best`. Run with
//! `cargo bench -p wino-bench --bench transforms`.

use wino_conv::codelet::{transform_tile, Matrix};
use wino_simd::{AlignedVec, Kernel, Simd16, S};
use wino_transforms::{FmrPlan, MatrixProgram, PairNode, PairedProgram};
use wino_workloads::time_best;

const REPS: usize = 20;
const TILES_PER_REP: usize = 2_000;
/// Tiles per `transform_tile` call in the `*_batched` rows: enough to
/// amortise the set-up, few enough that input and output stay in the L2
/// (200 KiB at F(6, 3)).
const BATCH: usize = 25;

fn unpaired(p: &PairedProgram, dense: &wino_transforms::F32Matrix) -> PairedProgram {
    let mp = MatrixProgram::compile(dense);
    PairedProgram {
        n_out: p.n_out,
        n_in: p.n_in,
        nodes: mp
            .rows
            .iter()
            .enumerate()
            .map(|(i, r)| PairNode::Direct { out: i, row: r.clone() })
            .collect(),
    }
}

/// `calls` calls of the stages' tile driver on the active backend, each
/// over every tile of `input`, in one dispatch.
struct StageTile<'a> {
    calls: usize,
    which: Matrix,
    rows: &'a [(usize, usize)],
    input: &'a [f32],
    output: &'a mut [f32],
    tmp_a: &'a mut [f32],
    tmp_b: &'a mut [f32],
}

impl Kernel for StageTile<'_> {
    type Output = ();

    #[inline(always)]
    fn run<V: Simd16>(self) {
        for _ in 0..self.calls {
            transform_tile::<V>(
                self.which,
                self.rows,
                std::hint::black_box(self.input),
                self.output,
                self.tmp_a,
                self.tmp_b,
            )
        }
    }
}

/// `Bᵀ` along both dimensions of the `S` scalar `α × α` tiles in `tile`
/// (`[lane][i][j]`), on the scalar interpreter: each line is copied into
/// `line`, transformed into `out` and copied back — the same moves for
/// the paired and the unpaired program.
fn interpret_tile(bt: &PairedProgram, tile: &mut [f32], line: &mut [f32], out: &mut [f32]) {
    let alpha = bt.n_in;
    for lane in tile.chunks_exact_mut(alpha * alpha) {
        for (stride, count) in [(1, alpha), (alpha, 1)] {
            // Lines along j (stride 1) start at every row, lines along i
            // (stride α) at every column.
            for k in 0..alpha {
                let base = k * count;
                for i in 0..alpha {
                    line[i] = lane[base + i * stride];
                }
                bt.apply(&line[..alpha], &mut out[..alpha]);
                for i in 0..alpha {
                    lane[base + i * stride] = out[i];
                }
            }
        }
    }
}

/// One CSV row: `best_ms` for `TILES_PER_REP` tiles of `elems` elements.
fn row(bench: &str, fmr: &str, best_ms: f64, elems: f64) {
    println!(
        "{bench},{fmr},{best_ms:.3},{:.1},{:.1}",
        best_ms * 1e6 / TILES_PER_REP as f64,
        elems / best_ms / 1e3
    );
}

/// The `*_generated` and `*_batched` rows of `Bᵀ`, `G` and `Aᵀ` of
/// `F(m, r)` in every one of `rank` dimensions, through the stages'
/// driver.
fn codelet_rows(m: usize, r: usize, rank: usize, fmr: &str) {
    let rows = vec![(m, r); rank];
    let t_vol = (m + r - 1).pow(rank as u32);
    let source: Vec<f32> = (0..BATCH * t_vol * S).map(|i| (i % 97) as f32 * 0.01).collect();
    let mut output = vec![0.0f32; BATCH * t_vol * S];
    let mut tmp_a = AlignedVec::zeroed(t_vol * S);
    let mut tmp_b = AlignedVec::zeroed(t_vol * S);
    for (name, which, in_vol) in
        [("bt", Matrix::Bt, t_vol), ("g", Matrix::G, r.pow(rank as u32)), ("at", Matrix::At, t_vol)]
    {
        let elems = (in_vol * S * TILES_PER_REP) as f64;
        // (tiles per call, calls per dispatch)
        for (suffix, tiles, calls) in [("generated", 1, 1), ("batched", BATCH, TILES_PER_REP / BATCH)] {
            let input = &source[..tiles * in_vol * S];
            let t = time_best(REPS, || {
                for _ in 0..TILES_PER_REP / (tiles * calls) {
                    wino_simd::dispatch(StageTile {
                        calls,
                        which,
                        rows: &rows,
                        input,
                        output: &mut output,
                        tmp_a: tmp_a.as_mut_slice(),
                        tmp_b: tmp_b.as_mut_slice(),
                    });
                }
            });
            std::hint::black_box(output.first());
            row(&format!("{name}_{suffix}"), fmr, t.best_ms, elems);
        }
    }
}

fn main() {
    println!("# simd backend: {}", wino_simd::backend_name());
    println!("bench,fmr,best_ms,ns_per_tile,melem_per_s");
    for (m, r) in [(2usize, 3usize), (4, 3), (6, 3), (3, 4), (2, 5)] {
        let plan = FmrPlan::new(m, r);
        let alpha = plan.alpha();
        let t_vol = alpha * alpha;
        let fmr = format!("F({m}.{r})");
        codelet_rows(m, r, 2, &fmr);

        // Fig. 2: paired vs unpaired program, both on the scalar
        // interpreter (an unpaired program has no generated form).
        let elems = (t_vol * S * TILES_PER_REP) as f64;
        let bt = &plan.bt;
        let bt_unpaired = unpaired(bt, &plan.transform.bt.to_f32());
        let (mut line, mut out) = (vec![0.0f32; alpha], vec![0.0f32; alpha]);
        let source: Vec<f32> = (0..t_vol * S).map(|i| (i % 97) as f32 * 0.01).collect();
        let source = &source[..];
        let mut tile = source.to_vec();
        for (name, prog) in [("bt_paired", bt), ("bt_unpaired", &bt_unpaired)] {
            let t = time_best(REPS, || {
                for _ in 0..TILES_PER_REP {
                    tile.copy_from_slice(std::hint::black_box(source));
                    interpret_tile(prog, &mut tile, &mut line, &mut out);
                }
            });
            std::hint::black_box(tile.first());
            row(name, &fmr, t.best_ms, elems);
        }
    }
    codelet_rows(4, 3, 3, "F(4.3)^3");
}
