//! Transform-codelet throughput: vectorised `Bᵀ`/`Aᵀ` tile transforms per
//! second, with and without the Fig. 2 pairing optimisation.
//!
//! Plain `harness = false` benchmark: no registry dependencies, timing via
//! `wino_workloads::time_best`. Run with `cargo bench --bench transforms`.

use wino_conv::vecprog::transform_all_dims;
use wino_simd::{Kernel, Simd16, S};
use wino_transforms::{FmrPlan, MatrixProgram, PairNode, PairedProgram};
use wino_workloads::time_best;

const REPS: usize = 20;
const TILES_PER_REP: usize = 2_000;

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

/// One `Bᵀ`-transformed 2-D tile on the active backend — one dispatch
/// per tile, the granularity the stages use.
struct Tile2d<'a> {
    bt: &'a PairedProgram,
    input: &'a [f32],
    buf_a: &'a mut [f32],
    buf_b: &'a mut [f32],
}

impl Kernel for Tile2d<'_> {
    type Output = ();

    #[inline(always)]
    fn run<V: Simd16>(self) {
        self.buf_a.copy_from_slice(self.input);
        let mut dims = [self.bt.n_in; 2];
        transform_all_dims::<V>(&[self.bt, self.bt], self.buf_a, self.buf_b, &mut dims);
    }
}

fn main() {
    println!("bench,fmr,best_ms,melem_per_s");
    for (m, r) in [(2usize, 3usize), (4, 3), (6, 3)] {
        let plan = FmrPlan::new(m, r);
        let alpha = plan.alpha();
        let vol = alpha * alpha;
        let input: Vec<f32> = (0..vol * S).map(|i| (i % 97) as f32 * 0.01).collect();
        let elems = (vol * S * TILES_PER_REP) as f64;

        let mut buf_a = input.clone();
        let mut buf_b = vec![0.0f32; vol * S];
        let t = time_best(REPS, || {
            for _ in 0..TILES_PER_REP {
                wino_simd::dispatch(Tile2d {
                    bt: &plan.bt,
                    input: &input,
                    buf_a: &mut buf_a,
                    buf_b: &mut buf_b,
                });
            }
        });
        println!("bt_paired,F({m}.{r}),{:.3},{:.1}", t.best_ms, elems / t.best_ms / 1e3);

        let bt_dense = plan.transform.bt.to_f32();
        let bt_unpaired = unpaired(&plan.bt, &bt_dense);
        let t = time_best(REPS, || {
            for _ in 0..TILES_PER_REP {
                wino_simd::dispatch(Tile2d {
                    bt: &bt_unpaired,
                    input: &input,
                    buf_a: &mut buf_a,
                    buf_b: &mut buf_b,
                });
            }
        });
        println!("bt_unpaired,F({m}.{r}),{:.3},{:.1}", t.best_ms, elems / t.best_ms / 1e3);
        std::hint::black_box(buf_b.first());
    }
}
