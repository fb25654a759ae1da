//! Codelet programs: compiled sparse forms of transform matrices.
//!
//! The paper's transformation stages never multiply by a dense `Bᵀ`/`G`/`Aᵀ`;
//! instead a code generator emits straight-line code with the *minimal*
//! number of operations (§4.2.1). We reproduce that by "compiling" each
//! transform matrix into a [`MatrixProgram`] at plan time:
//!
//! * structural zeros are skipped entirely,
//! * coefficients ±1 become add/sub/copy instead of multiply,
//! * everything else becomes a fused multiply–add.
//!
//! The program is data (a list of terms per output row). On the hot path it
//! is not interpreted at all: [`crate::emit`] prints its pair-optimised form
//! as straight-line Rust, which `wino-conv` compiles in at build time for
//! every `F(m, r)` it plans and runs S = 16 channels per operation,
//! exactly like the paper's generated codelets. The scalar interpreter
//! here serves tests and the reference paths; the S-wide vector
//! interpreter in `wino-conv` is the reference the generated code is
//! tested equal to.

// Index-based loops are the idiom throughout: most walk several
// arrays with derived offsets, where iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]
use crate::matgen::F32Matrix;

/// One term of an output row: `coeff * input[src]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Term {
    pub src: usize,
    pub coeff: f32,
}

impl Term {
    /// Whether this term is a plain add/sub (coefficient ±1) rather than a
    /// genuine multiplication.
    pub fn is_unit(self) -> bool {
        self.coeff == 1.0 || self.coeff == -1.0
    }
}

/// The terms contributing to one output element. An empty row denotes a
/// structurally zero output.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RowProgram {
    pub terms: Vec<Term>,
}

/// Operation counts for a compiled program (the paper's cost model counts
/// FMAs; we separate multiplies from adds for finer reporting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCount {
    /// Multiplications (including the multiply half of an FMA).
    pub muls: usize,
    /// Additions/subtractions (including the add half of an FMA).
    pub adds: usize,
}

impl OpCount {
    pub fn total(self) -> usize {
        self.muls + self.adds
    }
}

/// A transform matrix compiled to sparse row programs.
#[derive(Clone, Debug)]
pub struct MatrixProgram {
    pub n_out: usize,
    pub n_in: usize,
    pub rows: Vec<RowProgram>,
}

impl MatrixProgram {
    /// Compile a dense `f32` matrix (as produced by
    /// [`crate::matgen::RatMatrix::to_f32`]) into a sparse program.
    pub fn compile(m: &F32Matrix) -> MatrixProgram {
        let rows = (0..m.rows)
            .map(|i| RowProgram {
                terms: (0..m.cols)
                    .filter(|&j| m.at(i, j) != 0.0)
                    .map(|j| Term { src: j, coeff: m.at(i, j) })
                    .collect(),
            })
            .collect();
        MatrixProgram { n_out: m.rows, n_in: m.cols, rows }
    }

    /// Count scalar operations per application of the program to one line.
    pub fn op_count(&self) -> OpCount {
        let mut c = OpCount::default();
        for row in &self.rows {
            for (k, t) in row.terms.iter().enumerate() {
                if !t.is_unit() {
                    c.muls += 1;
                }
                if k > 0 {
                    c.adds += 1;
                }
            }
        }
        c
    }

    /// Apply to a strided line of scalars: `out[i] = Σ coeff·input[src]`.
    ///
    /// `input` and `output` may not alias. Used by the reference/test paths;
    /// hot paths run the generated codelets of `wino-conv`.
    pub fn apply_strided(
        &self,
        input: &[f32],
        in_stride: usize,
        output: &mut [f32],
        out_stride: usize,
    ) {
        debug_assert!(input.len() > (self.n_in - 1) * in_stride);
        debug_assert!(output.len() > (self.n_out - 1) * out_stride);
        for (i, row) in self.rows.iter().enumerate() {
            let mut acc = 0.0f32;
            for t in &row.terms {
                acc += t.coeff * input[t.src * in_stride];
            }
            output[i * out_stride] = acc;
        }
    }

    /// Apply to a contiguous line.
    pub fn apply(&self, input: &[f32], output: &mut [f32]) {
        self.apply_strided(input, 1, output, 1);
    }

    /// Reconstruct the dense matrix (for testing the compile step).
    pub fn to_dense(&self) -> F32Matrix {
        let mut data = vec![0.0f32; self.n_out * self.n_in];
        for (i, row) in self.rows.iter().enumerate() {
            for t in &row.terms {
                data[i * self.n_in + t.src] = t.coeff;
            }
        }
        F32Matrix { rows: self.n_out, cols: self.n_in, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matgen::Transform1D;

    fn bt_program(m: usize, r: usize) -> MatrixProgram {
        let t = Transform1D::generate(m, r);
        MatrixProgram::compile(&t.bt.to_f32())
    }

    #[test]
    fn compile_skips_zeros() {
        let p = bt_program(2, 3);
        // Paper's Bᵀ for F(2,3) has exactly 8 non-zeros, all ±1.
        let total_terms: usize = p.rows.iter().map(|r| r.terms.len()).sum();
        assert_eq!(total_terms, 8);
        let c = p.op_count();
        assert_eq!(c.muls, 0, "F(2,3) Bᵀ is multiplication-free");
        assert_eq!(c.adds, 4);
    }

    #[test]
    fn apply_matches_dense_matvec() {
        for (m, r) in [(2, 3), (4, 3), (6, 3), (3, 4), (2, 5)] {
            let t = Transform1D::generate(m, r);
            for mat in [t.bt.to_f32(), t.g.to_f32(), t.at.to_f32()] {
                let p = MatrixProgram::compile(&mat);
                let input: Vec<f32> = (0..mat.cols).map(|i| (i as f32 * 0.37) - 1.0).collect();
                let mut out = vec![0.0f32; mat.rows];
                p.apply(&input, &mut out);
                for i in 0..mat.rows {
                    let want: f32 = (0..mat.cols).map(|j| mat.at(i, j) * input[j]).sum();
                    assert!(
                        (out[i] - want).abs() <= 1e-5 * want.abs().max(1.0),
                        "F({m},{r}) row {i}: {} vs {}",
                        out[i],
                        want
                    );
                }
            }
        }
    }

    #[test]
    fn strided_apply() {
        let p = bt_program(2, 3);
        let dense = p.to_dense();
        let line = [1.0f32, -2.0, 3.0, 0.5];
        // Scatter input with stride 3, output with stride 2.
        let mut input = vec![0.0f32; 4 * 3];
        for (i, &v) in line.iter().enumerate() {
            input[i * 3] = v;
        }
        let mut output = vec![0.0f32; 4 * 2];
        p.apply_strided(&input, 3, &mut output, 2);
        for i in 0..4 {
            let want: f32 = (0..4).map(|j| dense.at(i, j) * line[j]).sum();
            assert_eq!(output[i * 2], want);
        }
    }

    #[test]
    fn to_dense_roundtrips() {
        let t = Transform1D::generate(4, 3);
        let dense = t.g.to_f32();
        let p = MatrixProgram::compile(&dense);
        assert_eq!(p.to_dense(), dense);
    }

    #[test]
    fn op_counts_grow_with_tile_size() {
        // §5.1: transform op count grows roughly quadratically with m.
        let c2 = bt_program(2, 3).op_count().total();
        let c4 = bt_program(4, 3).op_count().total();
        let c6 = bt_program(6, 3).op_count().total();
        assert!(c2 < c4 && c4 < c6, "{c2} {c4} {c6}");
    }
}
