//! S-wide *interpreter* of transform codelet programs (§4.2.1) — the
//! reference.
//!
//! The paper's codelets operate on "S tiles at a time … tiles from S
//! adjacent channels". In our representation a tile of vectors is a
//! buffer of `∏ dims` elements, each element being `S = 16` consecutive
//! floats (one vector register). [`transform_dim`] applies a compiled
//! [`PairedProgram`] (the minimal-operation form of `Bᵀ`, `G` or `Aᵀ`)
//! along one dimension of such a tile by walking its node list; applying
//! it along every dimension in turn realises the tensor–matrix mode-n
//! products of Eqn. 8.
//!
//! No engine path comes here: every layer that plans runs the generated
//! straight-line form of the same programs ([`crate::codelet`]). This
//! module is what the differential tests hold that generated code equal
//! to, element for element and row for row of the table, and it runs
//! programs the table does not hold — `PointSchedule::Integer`, the
//! unpaired form of the Fig. 2 ablation (`benches/transforms.rs`).
//!
//! Everything here is generic over the vector backend `V` and
//! `#[inline(always)]`: it is compiled into the [`wino_simd::Kernel`]
//! body that calls it.

use wino_simd::{Simd16, S};
use wino_transforms::{PairNode, PairedProgram, Term};

/// Dot product of a term list against a strided line of vectors.
///
/// # Safety
/// For every term `t`, `input + (base + t.src·stride)·S` must be valid for
/// 16 reads.
#[inline(always)]
unsafe fn dot_line<V: Simd16>(terms: &[Term], input: *const f32, base: usize, stride: usize) -> V {
    let mut acc = V::zero();
    for t in terms {
        let v = V::load(input.add((base + t.src * stride) * S));
        acc = V::splat(t.coeff).mul_add(v, acc);
    }
    acc
}

/// Apply `prog` along dimension `d` of the vector-tile `input` with shape
/// `in_dims` (vector elements, row-major). The output tile has the same
/// shape except `out_dims[d] = prog.n_out`.
///
/// `input` and `output` must not alias (ping-pong between two scratch
/// buffers; the caller owns them).
///
/// # Panics
/// If the rank exceeds 8, `in_dims[d] != prog.n_in`, or a slice is
/// shorter than its tile.
#[inline(always)]
pub fn transform_dim<V: Simd16>(
    prog: &PairedProgram,
    input: &[f32],
    in_dims: &[usize],
    d: usize,
    output: &mut [f32],
) {
    let mut out_dims_v: [usize; 8] = [0; 8];
    assert!(in_dims.len() <= out_dims_v.len(), "rank {} exceeds 8", in_dims.len());
    assert_eq!(in_dims[d], prog.n_in, "dimension {d} extent != program input size");
    let in_vol: usize = in_dims.iter().product();
    assert!(input.len() >= in_vol * S, "input shorter than its tile");
    out_dims_v[..in_dims.len()].copy_from_slice(in_dims);
    out_dims_v[d] = prog.n_out;
    let out_dims = &out_dims_v[..in_dims.len()];
    let out_vol: usize = out_dims.iter().product();
    assert!(output.len() >= out_vol * S, "output shorter than its tile");
    for node in &prog.nodes {
        let outs_in_range = match node {
            PairNode::Direct { out, .. } => *out < prog.n_out,
            PairNode::Pair { out_plus, out_minus, .. } => (*out_plus).max(*out_minus) < prog.n_out,
        };
        let srcs_in_range = node.term_lists().iter().all(|l| l.iter().all(|t| t.src < prog.n_in));
        assert!(outs_in_range && srcs_in_range, "program indexes a vector outside its own extents");
    }

    // Strides along d (in vector elements).
    let in_stride: usize = in_dims[d + 1..].iter().product();
    let out_stride: usize = out_dims[d + 1..].iter().product();
    // Lines: outer = dims before d, inner = dims after d.
    let outer: usize = in_dims[..d].iter().product();
    let inner: usize = in_stride;

    let in_ptr = input.as_ptr();
    let out_ptr = output.as_mut_ptr();
    for o in 0..outer {
        let in_base_o = o * in_dims[d] * in_stride;
        let out_base_o = o * prog.n_out * out_stride;
        for i in 0..inner {
            let in_base = in_base_o + i;
            let out_base = out_base_o + i;
            for node in &prog.nodes {
                // SAFETY: all indices are within the tile volumes computed
                // above, which both slices were asserted to hold.
                unsafe {
                    match node {
                        PairNode::Direct { out, row } => {
                            let v: V = dot_line(&row.terms, in_ptr, in_base, in_stride);
                            v.store(out_ptr.add((out_base + out * out_stride) * S));
                        }
                        PairNode::Pair { out_plus, out_minus, u_terms, v_terms } => {
                            let u: V = dot_line(u_terms, in_ptr, in_base, in_stride);
                            let v: V = dot_line(v_terms, in_ptr, in_base, in_stride);
                            (u + v).store(out_ptr.add((out_base + out_plus * out_stride) * S));
                            (u - v).store(out_ptr.add((out_base + out_minus * out_stride) * S));
                        }
                    }
                }
            }
        }
    }
}

/// Apply per-dimension programs `progs[d]` along every dimension of the
/// tile in `buf_a` (shape `dims`, which is updated in place to the output
/// shape). Uses `buf_b` as the ping-pong partner; returns `true` if the
/// final result is in `buf_a`, `false` if in `buf_b`.
///
/// # Panics
/// As [`transform_dim`], per dimension.
#[inline(always)]
pub fn transform_all_dims<V: Simd16>(
    progs: &[&PairedProgram],
    buf_a: &mut [f32],
    buf_b: &mut [f32],
    dims: &mut [usize],
) -> bool {
    assert_eq!(progs.len(), dims.len());
    let (mut src, mut dst) = (buf_a, buf_b);
    let mut in_a = true;
    for (d, prog) in progs.iter().enumerate() {
        transform_dim::<V>(prog, src, dims, d, dst);
        dims[d] = prog.n_out;
        std::mem::swap(&mut src, &mut dst);
        in_a = !in_a;
    }
    in_a
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_simd::{Backend, Kernel};
    use wino_transforms::{FmrPlan, MatrixProgram};

    struct OneDim<'a> {
        prog: &'a PairedProgram,
        input: &'a [f32],
        in_dims: &'a [usize],
        d: usize,
        output: &'a mut [f32],
    }

    impl Kernel for OneDim<'_> {
        type Output = ();
        #[inline(always)]
        fn run<V: Simd16>(self) {
            super::transform_dim::<V>(self.prog, self.input, self.in_dims, self.d, self.output)
        }
    }

    struct AllDims<'a> {
        progs: &'a [&'a PairedProgram],
        buf_a: &'a mut [f32],
        buf_b: &'a mut [f32],
        dims: &'a mut [usize],
    }

    impl Kernel for AllDims<'_> {
        type Output = bool;
        #[inline(always)]
        fn run<V: Simd16>(self) -> bool {
            super::transform_all_dims::<V>(self.progs, self.buf_a, self.buf_b, self.dims)
        }
    }

    /// [`super::transform_dim`] on the active backend.
    fn transform_dim(
        prog: &PairedProgram,
        input: &[f32],
        in_dims: &[usize],
        d: usize,
        output: &mut [f32],
    ) {
        wino_simd::dispatch(OneDim { prog, input, in_dims, d, output })
    }

    /// [`super::transform_all_dims`] on the active backend.
    fn transform_all_dims(
        progs: &[&PairedProgram],
        buf_a: &mut [f32],
        buf_b: &mut [f32],
        dims: &mut [usize],
    ) -> bool {
        wino_simd::dispatch(AllDims { progs, buf_a, buf_b, dims })
    }

    /// Scalar oracle: dense matrix applied along dimension d, one lane at
    /// a time.
    fn dense_transform_dim(
        mat: &wino_transforms::F32Matrix,
        input: &[f32],
        in_dims: &[usize],
        d: usize,
    ) -> (Vec<f32>, Vec<usize>) {
        let mut out_dims = in_dims.to_vec();
        out_dims[d] = mat.rows;
        let out_vol: usize = out_dims.iter().product();
        let mut out = vec![0.0f32; out_vol * S];
        let in_stride: usize = in_dims[d + 1..].iter().product();
        let out_stride: usize = out_dims[d + 1..].iter().product();
        let outer: usize = in_dims[..d].iter().product();
        for o in 0..outer {
            for i in 0..in_stride {
                for row in 0..mat.rows {
                    for lane in 0..S {
                        let mut acc = 0.0f32;
                        for col in 0..mat.cols {
                            let idx = (o * in_dims[d] + col) * in_stride + i;
                            acc += mat.at(row, col) * input[idx * S + lane];
                        }
                        let oidx = (o * mat.rows + row) * out_stride + i;
                        out[oidx * S + lane] = acc;
                    }
                }
            }
        }
        (out, out_dims)
    }

    fn filled(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.01).collect()
    }

    fn close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert!(
                (a[i] - b[i]).abs() <= 1e-4 * b[i].abs().max(1.0),
                "elem {i}: {} vs {}",
                a[i],
                b[i]
            );
        }
    }

    #[test]
    fn matches_dense_oracle_2d() {
        let plan = FmrPlan::new(2, 3); // alpha = 4
        let dims = [4usize, 4];
        let input = filled(16 * S);
        for d in 0..2 {
            let mut out = vec![0.0f32; 16 * S];
            transform_dim(&plan.bt, &input, &dims, d, &mut out);
            let (want, out_dims) = dense_transform_dim(&plan.transform.bt.to_f32(), &input, &dims, d);
            assert_eq!(out_dims, dims.to_vec());
            close(&out[..want.len()], &want);
        }
    }

    #[test]
    fn matches_dense_oracle_3d_nonsquare() {
        // G: r -> alpha (expanding transform) along each dim of a 3-D tile.
        let plan = FmrPlan::new(4, 3); // alpha = 6, r = 3
        let dims = [3usize, 3, 3];
        let input = filled(27 * S);
        for d in 0..3 {
            let mut out_dims = dims.to_vec();
            out_dims[d] = 6;
            let out_vol: usize = out_dims.iter().product();
            let mut out = vec![0.0f32; out_vol * S];
            transform_dim(&plan.g, &input, &dims, d, &mut out);
            let (want, wdims) = dense_transform_dim(&plan.transform.g.to_f32(), &input, &dims, d);
            assert_eq!(wdims, out_dims);
            close(&out, &want);
        }
    }

    #[test]
    fn contracting_transform() {
        // Aᵀ: alpha -> m.
        let plan = FmrPlan::new(2, 3);
        let dims = [4usize, 4];
        let input = filled(16 * S);
        let mut out = vec![0.0f32; 2 * 4 * S];
        transform_dim(&plan.at, &input, &dims, 0, &mut out);
        let (want, _) = dense_transform_dim(&plan.transform.at.to_f32(), &input, &dims, 0);
        close(&out, &want);
    }

    #[test]
    fn all_dims_pipeline_equals_sequential_dense() {
        let plan = FmrPlan::new(2, 3);
        let mut dims = vec![4usize, 4];
        let input = filled(16 * S);
        let mut a = input.clone();
        let mut b = vec![0.0f32; 16 * S];
        let in_a = transform_all_dims(&[&plan.bt, &plan.bt], &mut a, &mut b, &mut dims);
        let result = if in_a { &a } else { &b };

        let dense_bt = plan.transform.bt.to_f32();
        let (tmp, tdims) = dense_transform_dim(&dense_bt, &input, &[4, 4], 0);
        let (want, _) = dense_transform_dim(&dense_bt, &tmp, &tdims, 1);
        close(&result[..want.len()], &want);
        assert_eq!(dims, vec![4, 4]);
    }

    #[test]
    fn one_dimensional_tile() {
        let plan = FmrPlan::new(3, 2); // alpha = 4
        let dims = [4usize];
        let input = filled(4 * S);
        let mut out = vec![0.0f32; 3 * S];
        transform_dim(&plan.at, &input, &dims, 0, &mut out);
        let (want, _) = dense_transform_dim(&plan.transform.at.to_f32(), &input, &dims, 0);
        close(&out, &want);
    }

    #[test]
    fn unpaired_program_agrees_with_paired() {
        // Cross-check the Fig. 2 pairing optimisation in the vector domain:
        // build an all-Direct program from the same matrix and compare.
        let plan = FmrPlan::new(6, 3);
        let mp = MatrixProgram::compile(&plan.transform.bt.to_f32());
        let unpaired = PairedProgram {
            n_out: mp.n_out,
            n_in: mp.n_in,
            nodes: mp
                .rows
                .iter()
                .enumerate()
                .map(|(i, r)| PairNode::Direct { out: i, row: r.clone() })
                .collect(),
        };
        let dims = [8usize];
        let input = filled(8 * S);
        let mut out1 = vec![0.0f32; 8 * S];
        let mut out2 = vec![0.0f32; 8 * S];
        transform_dim(&plan.bt, &input, &dims, 0, &mut out1);
        transform_dim(&unpaired, &input, &dims, 0, &mut out2);
        close(&out1, &out2);
    }

    /// [`crate::codelet::transform_dim_generated`], ready for whichever
    /// backend runs it.
    struct OneDimGenerated<'a> {
        which: crate::codelet::Matrix,
        plan: &'a FmrPlan,
        input: &'a [f32],
        in_dims: &'a [usize],
        d: usize,
        output: &'a mut [f32],
        nt: bool,
    }

    impl Kernel for OneDimGenerated<'_> {
        type Output = ();
        #[inline(always)]
        fn run<V: Simd16>(self) {
            crate::codelet::transform_dim_generated::<V>(
                self.which,
                self.plan,
                self.input,
                self.in_dims,
                self.d,
                self.output,
                self.nt,
            )
        }
    }

    /// Every backend this process may run, every row of the generated
    /// table (`F(1..=8, 1..=5)`), ranks 1–3, all three transform matrices
    /// along every dimension: the interpreter within the dense oracle's
    /// tolerance (hence the backends of each other), and the generated
    /// codelet — plain and streaming-store instantiation — equal to the
    /// interpreter element for element.
    #[test]
    fn every_backend_matches_dense_oracle() {
        use crate::codelet::Matrix;
        use wino_simd::AlignedVec;
        for backend in Backend::available() {
            for (m, r) in crate::codelet::table_rows() {
                let plan = FmrPlan::new(m, r);
                let t = &plan.transform;
                let mats = [
                    (Matrix::Bt, &plan.bt, t.bt.to_f32()),
                    (Matrix::G, &plan.g, t.g.to_f32()),
                    (Matrix::At, &plan.at, t.at.to_f32()),
                ];
                for (which, prog, dense) in &mats {
                    // The f32 oracle and the interpreter round differently:
                    // allow ε-multiples of the largest row's 1-norm.
                    let norm = (0..dense.rows)
                        .map(|i| (0..dense.cols).map(|j| dense.at(i, j).abs()).sum::<f32>())
                        .fold(1.0f32, f32::max);
                    for rank in 1..=3 {
                        let dims = vec![prog.n_in; rank];
                        let vol: usize = dims.iter().product();
                        let input = filled(vol * S);
                        for d in 0..rank {
                            let (want, out_dims) = dense_transform_dim(dense, &input, &dims, d);
                            let mut out = vec![0.0f32; want.len()];
                            backend.run(OneDim {
                                prog,
                                input: &input,
                                in_dims: &dims,
                                d,
                                output: &mut out,
                            });
                            assert_eq!(out_dims[d], prog.n_out);
                            for i in 0..want.len() {
                                assert!(
                                    (out[i] - want[i]).abs() <= 1e-5 * norm,
                                    "{} F({m},{r}) {which:?} rank {rank} dim {d} elem {i}: \
                                     {} vs {}",
                                    backend.name(),
                                    out[i],
                                    want[i]
                                );
                            }
                            for nt in [false, true] {
                                let mut generated = AlignedVec::try_zeroed(want.len()).unwrap();
                                backend.run(OneDimGenerated {
                                    which: *which,
                                    plan: &plan,
                                    input: &input,
                                    in_dims: &dims,
                                    d,
                                    output: generated.as_mut_slice(),
                                    nt,
                                });
                                wino_simd::sfence();
                                assert_eq!(
                                    generated.as_slice(),
                                    &out[..],
                                    "{} F({m},{r}) {which:?} rank {rank} dim {d} nt {nt}: \
                                     generated codelet != interpreter",
                                    backend.name()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The checks that stand between a safe caller and the raw loads and
    /// stores, one test each.
    fn misuse(in_dims: &[usize], input_len: usize, output_len: usize) {
        let plan = FmrPlan::new(2, 3); // Bᵀ: 4 → 4
        transform_dim(&plan.bt, &vec![0.0; input_len], in_dims, 0, &mut vec![0.0; output_len]);
    }

    #[test]
    #[should_panic(expected = "extent != program input size")]
    fn a_mismatched_extent_panics() {
        misuse(&[5, 2], 10 * S, 10 * S);
    }

    #[test]
    #[should_panic(expected = "input shorter than its tile")]
    fn a_short_input_panics() {
        misuse(&[4, 2], 8 * S - 1, 8 * S);
    }

    #[test]
    #[should_panic(expected = "output shorter than its tile")]
    fn a_short_output_panics() {
        misuse(&[4, 2], 8 * S, 8 * S - 1);
    }

    #[test]
    #[should_panic(expected = "exceeds 8")]
    fn a_rank_beyond_eight_panics() {
        misuse(&[4, 1, 1, 1, 1, 1, 1, 1, 1], 4 * S, 4 * S);
    }

    #[test]
    #[should_panic(expected = "outside its own extents")]
    fn a_program_indexing_past_its_extents_panics() {
        let mut prog = FmrPlan::new(2, 3).bt;
        prog.n_in = 3; // its terms still read vector 3
        transform_dim(&prog, &[0.0; 3 * S], &[3], 0, &mut [0.0; 4 * S]);
    }
}
