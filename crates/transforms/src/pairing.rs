//! The Fig. 2 common-subexpression optimisation.
//!
//! When `α = m + r - 1` is even, the interpolation-point schedule is
//! symmetric (±p pairs), and pairs of rows of `Bᵀ` (and `G`) take the form
//! `rowᵢ = u + v`, `rowⱼ = u - v` for sparse `u = (rowᵢ + rowⱼ)/2` and
//! `v = (rowᵢ - rowⱼ)/2`. Computing `u·x` and `v·x` once and forming
//! `u·x ± v·x` replaces two long dot products with two short ones plus two
//! adds — the paper's example reduces 6 FMAs to 4 and the dependent latency
//! from 18 to 12 cycles.
//!
//! [`PairedProgram::optimize`] searches all row pairs greedily, keeps the
//! pairings that lower the operation count, and leaves the rest as direct
//! rows. The result is straight-line data: printed as Rust source by
//! [`crate::emit`] for `wino-conv`'s build-time codelets, or interpreted by
//! the scalar executor here and the S-wide vector executor in `wino-conv`
//! (the reference the generated codelets are tested against).

// Index-based loops are the idiom throughout: most walk several
// arrays with derived offsets, where iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]
use crate::program::{MatrixProgram, OpCount, RowProgram, Term};

/// One node of a paired program.
#[derive(Clone, Debug, PartialEq)]
pub enum PairNode {
    /// `out[row] = Σ terms` — an unpaired row.
    Direct { out: usize, row: RowProgram },
    /// `out[plus] = u + v`, `out[minus] = u - v` with
    /// `u = Σ u_terms`, `v = Σ v_terms`.
    Pair {
        out_plus: usize,
        out_minus: usize,
        u_terms: Vec<Term>,
        v_terms: Vec<Term>,
    },
}

impl PairNode {
    /// The node's term lists: the row and nothing for `Direct`, `u` and
    /// `v` for `Pair`.
    pub fn term_lists(&self) -> [&[Term]; 2] {
        match self {
            PairNode::Direct { row, .. } => [&row.terms, &[]],
            PairNode::Pair { u_terms, v_terms, .. } => [u_terms, v_terms],
        }
    }
}

/// A transform program with Fig. 2 row pairings applied.
#[derive(Clone, Debug, PartialEq)]
pub struct PairedProgram {
    pub n_out: usize,
    pub n_in: usize,
    pub nodes: Vec<PairNode>,
}

fn terms_cost(terms: &[Term]) -> OpCount {
    let mut c = OpCount::default();
    for (k, t) in terms.iter().enumerate() {
        if !t.is_unit() {
            c.muls += 1;
        }
        if k > 0 {
            c.adds += 1;
        }
    }
    c
}

/// Split rows `a`, `b` into (u, v) with `a = u + v`, `b = u - v`.
/// Returns `None` when the pairing does not reduce the operation count.
fn try_pair(a: &RowProgram, b: &RowProgram, n_in: usize) -> Option<(Vec<Term>, Vec<Term>)> {
    let mut ca = vec![0.0f32; n_in];
    let mut cb = vec![0.0f32; n_in];
    for t in &a.terms {
        ca[t.src] = t.coeff;
    }
    for t in &b.terms {
        cb[t.src] = t.coeff;
    }
    let mut u = Vec::new();
    let mut v = Vec::new();
    for s in 0..n_in {
        let uu = 0.5 * (ca[s] + cb[s]);
        let vv = 0.5 * (ca[s] - cb[s]);
        if uu != 0.0 {
            u.push(Term { src: s, coeff: uu });
        }
        if vv != 0.0 {
            v.push(Term { src: s, coeff: vv });
        }
    }
    if u.is_empty() || v.is_empty() {
        return None; // rows are (anti-)equal; pairing degenerates
    }
    let direct = terms_cost(&a.terms).total() + terms_cost(&b.terms).total();
    // u·x, v·x, plus the final add and sub.
    let paired = terms_cost(&u).total() + terms_cost(&v).total() + 2;
    if paired < direct {
        Some((u, v))
    } else {
        None
    }
}

impl PairedProgram {
    /// Greedily pair rows of `p` while the total operation count decreases.
    pub fn optimize(p: &MatrixProgram) -> PairedProgram {
        let n = p.n_out;
        let mut used = vec![false; n];
        let mut nodes = Vec::new();
        loop {
            // Find the best remaining pairing.
            #[allow(clippy::type_complexity)] // (row i, row j, shared terms, residual terms, gain)
            let mut best: Option<(usize, usize, Vec<Term>, Vec<Term>, usize)> = None;
            for i in 0..n {
                if used[i] {
                    continue;
                }
                for j in (i + 1)..n {
                    if used[j] {
                        continue;
                    }
                    if let Some((u, v)) = try_pair(&p.rows[i], &p.rows[j], p.n_in) {
                        let direct = terms_cost(&p.rows[i].terms).total()
                            + terms_cost(&p.rows[j].terms).total();
                        let paired = terms_cost(&u).total() + terms_cost(&v).total() + 2;
                        let gain = direct - paired;
                        if best.as_ref().is_none_or(|b| gain > b.4) {
                            best = Some((i, j, u, v, gain));
                        }
                    }
                }
            }
            match best {
                Some((i, j, u, v, _)) => {
                    used[i] = true;
                    used[j] = true;
                    nodes.push(PairNode::Pair {
                        out_plus: i,
                        out_minus: j,
                        u_terms: u,
                        v_terms: v,
                    });
                }
                None => break,
            }
        }
        for i in 0..n {
            if !used[i] {
                nodes.push(PairNode::Direct { out: i, row: p.rows[i].clone() });
            }
        }
        PairedProgram { n_out: n, n_in: p.n_in, nodes }
    }

    /// Total operation count of the paired program.
    pub fn op_count(&self) -> OpCount {
        let mut c = OpCount::default();
        for node in &self.nodes {
            match node {
                PairNode::Direct { row, .. } => {
                    let rc = terms_cost(&row.terms);
                    c.muls += rc.muls;
                    c.adds += rc.adds;
                }
                PairNode::Pair { u_terms, v_terms, .. } => {
                    for t in [u_terms, v_terms] {
                        let rc = terms_cost(t);
                        c.muls += rc.muls;
                        c.adds += rc.adds;
                    }
                    c.adds += 2; // u+v and u-v
                }
            }
        }
        c
    }

    /// Scalar interpreter (tests / reference path).
    pub fn apply(&self, input: &[f32], output: &mut [f32]) {
        debug_assert!(input.len() >= self.n_in);
        debug_assert!(output.len() >= self.n_out);
        let dot = |terms: &[Term]| -> f32 {
            terms.iter().map(|t| t.coeff * input[t.src]).sum()
        };
        for node in &self.nodes {
            match node {
                PairNode::Direct { out, row } => output[*out] = dot(&row.terms),
                PairNode::Pair { out_plus, out_minus, u_terms, v_terms } => {
                    let u = dot(u_terms);
                    let v = dot(v_terms);
                    output[*out_plus] = u + v;
                    output[*out_minus] = u - v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matgen::Transform1D;
    use crate::program::MatrixProgram;

    fn programs(m: usize, r: usize) -> (MatrixProgram, PairedProgram) {
        let t = Transform1D::generate(m, r);
        let p = MatrixProgram::compile(&t.bt.to_f32());
        let q = PairedProgram::optimize(&p);
        (p, q)
    }

    #[test]
    fn pairing_preserves_semantics() {
        for (m, r) in [(2, 3), (4, 3), (6, 3), (8, 3), (4, 5), (3, 2)] {
            let (p, q) = programs(m, r);
            let input: Vec<f32> = (0..p.n_in).map(|i| (i as f32) * 0.73 - 2.0).collect();
            let mut out_p = vec![0.0f32; p.n_out];
            let mut out_q = vec![0.0f32; p.n_out];
            p.apply(&input, &mut out_p);
            q.apply(&input, &mut out_q);
            for i in 0..p.n_out {
                assert!(
                    (out_p[i] - out_q[i]).abs() <= 1e-4 * out_p[i].abs().max(1.0),
                    "F({m},{r}) row {i}: {} vs {}",
                    out_p[i],
                    out_q[i]
                );
            }
        }
    }

    #[test]
    fn pairing_reduces_ops_for_symmetric_points() {
        // F(6,3): α = 8, points include ±1, ±2, ±1/2 — symmetric pairs exist,
        // so Fig. 2 pairing must find savings.
        let (p, q) = programs(6, 3);
        let before = p.op_count().total();
        let after = q.op_count().total();
        assert!(after < before, "expected savings: {before} -> {after}");
    }

    #[test]
    fn pairing_never_increases_ops() {
        for (m, r) in [(1, 3), (2, 3), (3, 3), (4, 3), (5, 3), (6, 3), (7, 3), (8, 3), (2, 2), (4, 4)] {
            let (p, q) = programs(m, r);
            assert!(
                q.op_count().total() <= p.op_count().total(),
                "F({m},{r}) pairing increased ops"
            );
        }
    }

    #[test]
    fn g_matrix_also_pairs() {
        let t = Transform1D::generate(4, 3);
        let p = MatrixProgram::compile(&t.g.to_f32());
        let q = PairedProgram::optimize(&p);
        let g: Vec<f32> = vec![0.3, -1.1, 0.7];
        let mut a = vec![0.0f32; p.n_out];
        let mut b = vec![0.0f32; p.n_out];
        p.apply(&g, &mut a);
        q.apply(&g, &mut b);
        for i in 0..p.n_out {
            assert!((a[i] - b[i]).abs() <= 1e-5 * a[i].abs().max(1.0));
        }
    }

    #[test]
    fn paper_fig2_shape_saves_two_fmas() {
        // Reconstruct the Fig. 2 situation: two rows
        //   o1 = i1/2 + i2/2 + i3/2   (3 FMAs direct)
        //   o2 = i1/2 - i2/2 + i3/2   (3 FMAs direct)
        // Pairing: u = i1/2 + i3/2 (2 terms), v = i2/2 (1 term),
        // o1 = u + v, o2 = u - v  → 4 ops of multiply + 2 adds vs 6.
        use crate::matgen::F32Matrix;
        let m = F32Matrix {
            rows: 2,
            cols: 3,
            data: vec![0.5, 0.5, 0.5, 0.5, -0.5, 0.5],
        };
        let p = MatrixProgram::compile(&m);
        let q = PairedProgram::optimize(&p);
        assert_eq!(p.op_count().total(), 10); // 6 muls + 4 adds
        assert!(q.op_count().total() < p.op_count().total());
        // There must be exactly one pair node covering both rows.
        assert_eq!(q.nodes.len(), 1);
        assert!(matches!(q.nodes[0], PairNode::Pair { .. }));
    }
}
