//! Transform-codelet cost per tile: the generated straight-line codelets
//! the stages run, for `Bᵀ`, `G` and `Aᵀ` of F(2|4|6, 3), F(3, 4) and
//! F(2, 5) on one L1-resident 2-D tile — and, on the reference
//! interpreter (`vecprog`), the Fig. 2 pairing optimisation against the
//! unpaired program.
//!
//! Plain `harness = false` benchmark: no registry dependencies, timing via
//! `wino_workloads::time_best`. Run with
//! `cargo bench -p wino-bench --bench transforms`.

use wino_conv::codelet::{transform_tile, Matrix};
use wino_conv::vecprog::transform_all_dims;
use wino_simd::{AlignedVec, Kernel, Simd16, S};
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

/// One 2-D tile through the stages' tile driver on the active backend —
/// one dispatch per tile, the granularity the stages use.
struct StageTile<'a> {
    which: Matrix,
    plans: &'a [FmrPlan],
    input: &'a [f32],
    output: &'a mut [f32],
    tmp_a: &'a mut [f32],
    tmp_b: &'a mut [f32],
}

impl Kernel for StageTile<'_> {
    type Output = ();

    #[inline(always)]
    fn run<V: Simd16>(self) {
        transform_tile::<V>(
            self.which,
            self.plans,
            self.input,
            self.output,
            self.tmp_a,
            self.tmp_b,
        )
    }
}

/// One `Bᵀ`-transformed 2-D tile straight on the interpreter, for the
/// Fig. 2 rows (an unpaired program has no generated form).
struct InterpretedTile<'a> {
    bt: &'a PairedProgram,
    input: &'a [f32],
    buf_a: &'a mut [f32],
    buf_b: &'a mut [f32],
}

impl Kernel for InterpretedTile<'_> {
    type Output = ();

    #[inline(always)]
    fn run<V: Simd16>(self) {
        self.buf_a.copy_from_slice(self.input);
        let mut dims = [self.bt.n_in; 2];
        transform_all_dims::<V>(&[self.bt, self.bt], self.buf_a, self.buf_b, &mut dims);
    }
}

fn main() {
    println!("# simd backend: {}", wino_simd::backend_name());
    println!("bench,fmr,best_ms,ns_per_tile,melem_per_s");
    let row = |bench: &str, m: usize, r: usize, best_ms: f64, elems: f64| {
        println!(
            "{bench},F({m}.{r}),{best_ms:.3},{:.1},{:.1}",
            best_ms * 1e6 / TILES_PER_REP as f64,
            elems / best_ms / 1e3
        );
    };
    for (m, r) in [(2usize, 3usize), (4, 3), (6, 3), (3, 4), (2, 5)] {
        let plans = [FmrPlan::new(m, r), FmrPlan::new(m, r)];
        let alpha = plans[0].alpha();
        let t_vol = alpha * alpha;
        let source: Vec<f32> = (0..t_vol * S).map(|i| (i % 97) as f32 * 0.01).collect();
        let mut output = vec![0.0f32; t_vol * S];
        let mut tmp_a = AlignedVec::zeroed(t_vol * S);
        let mut tmp_b = AlignedVec::zeroed(t_vol * S);

        // The generated codelets, through the stages' driver.
        for (name, which, in_vol) in
            [("bt", Matrix::Bt, t_vol), ("g", Matrix::G, r * r), ("at", Matrix::At, t_vol)]
        {
            let input = &source[..in_vol * S];
            let elems = (in_vol * S * TILES_PER_REP) as f64;
            let t = time_best(REPS, || {
                for _ in 0..TILES_PER_REP {
                    wino_simd::dispatch(StageTile {
                        which,
                        plans: &plans,
                        input: std::hint::black_box(input),
                        output: &mut output,
                        tmp_a: tmp_a.as_mut_slice(),
                        tmp_b: tmp_b.as_mut_slice(),
                    });
                }
            });
            std::hint::black_box(output.first());
            row(&format!("{name}_generated"), m, r, t.best_ms, elems);
        }

        // Fig. 2: paired vs unpaired program, both on the interpreter.
        let elems = (t_vol * S * TILES_PER_REP) as f64;
        let bt = &plans[0].bt;
        let bt_unpaired = unpaired(bt, &plans[0].transform.bt.to_f32());
        for (name, prog) in [("bt_paired", bt), ("bt_unpaired", &bt_unpaired)] {
            let t = time_best(REPS, || {
                for _ in 0..TILES_PER_REP {
                    wino_simd::dispatch(InterpretedTile {
                        bt: prog,
                        input: &source,
                        buf_a: tmp_a.as_mut_slice(),
                        buf_b: tmp_b.as_mut_slice(),
                    });
                }
            });
            std::hint::black_box(tmp_b.as_slice().first());
            row(name, m, r, t.best_ms, elems);
        }
    }
}
