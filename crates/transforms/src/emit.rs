//! Lowering a [`PairedProgram`] to Rust source: the build-time half of
//! the paper's codelet generator (§4.2.1).
//!
//! [`emit_line_codelet`] prints one program as a straight-line
//! `unsafe fn` over `V: Simd16` that transforms one *line* of 16-lane
//! vectors: every input vector is loaded once, coefficients are literals,
//! `±1` terms are plain add/sub, and a Fig. 2 pair shares its `u`/`v`
//! sums. The arithmetic is the S-wide interpreter's (`wino-conv`'s
//! `vecprog::transform_dim`), term for term and in the same order, so the
//! two agree under f32 `==` — which the differential tests in `wino-conv`
//! assert for every generated function on every vector backend.
//!
//! The only changes are ones that cannot alter a value: the
//! interpreter's leading `0 + c·x` becomes `c·x` (or `x`, or `0 − x`, or
//! folds into a following `+ x'` as `x' − x`), and `fma(±1, x, acc)`
//! becomes `acc ± x`.
//!
//! This crate stays dependency-free: the output is text. `wino-conv`'s
//! build script writes [`PRELUDE`] and one function per distinct program
//! of its `F(m, r)` table into `OUT_DIR` and `include!`s the file.

use std::fmt::Write;

use crate::pairing::{PairNode, PairedProgram};
use crate::program::Term;

/// What every emitted function expects in scope: the vector trait and the
/// store helper that turns the `NT` parameter into the store flavour.
pub const PRELUDE: &str = "\
use wino_simd::Simd16;

/// Store `v` at `p`: non-temporal when `NT` (the data is next read by a
/// later stage), a regular store otherwise.
///
/// # Safety
/// `p` must be valid for 16 writes, and 64-byte aligned when `NT`.
#[inline(always)]
pub(crate) unsafe fn put<V: Simd16, const NT: bool>(v: V, p: *mut f32) {
    if NT {
        v.store_nt(p)
    } else {
        v.store(p)
    }
}
";

/// `k * stride` as source text, without the `0 *` / `1 *` noise.
fn offset(ptr: &str, k: usize, stride: &str) -> String {
    match k {
        0 => ptr.to_string(),
        1 => format!("{ptr}.add({stride})"),
        _ => format!("{ptr}.add({k} * {stride})"),
    }
}

/// Statements computing `Σ coeff·x[src]` into the variable `var`, in the
/// interpreter's term order.
fn emit_sum(out: &mut String, var: &str, terms: &[Term]) {
    let x = |t: &Term| format!("x{}", t.src);
    let (init, rest) = match terms {
        // A structurally zero row.
        [] => ("V::zero()".to_string(), terms),
        // `(0 − a) + b` is `b − a`, exactly.
        [a, b, rest @ ..] if a.coeff == -1.0 && b.coeff == 1.0 => {
            (format!("{} - {}", x(b), x(a)), rest)
        }
        [a, rest @ ..] if a.coeff == 1.0 => (x(a), rest),
        [a, rest @ ..] if a.coeff == -1.0 => (format!("V::zero() - {}", x(a)), rest),
        [a, rest @ ..] => (format!("V::splat({:?}_f32) * {}", a.coeff, x(a)), rest),
    };
    writeln!(out, "        let {var} = {init};").unwrap();
    for t in rest {
        let next = if t.coeff == 1.0 {
            format!("{var} + {}", x(t))
        } else if t.coeff == -1.0 {
            format!("{var} - {}", x(t))
        } else {
            format!("V::splat({:?}_f32).mul_add({}, {var})", t.coeff, x(t))
        };
        writeln!(out, "        let {var} = {next};").unwrap();
    }
}

/// Print `prog` as `pub(crate) unsafe fn {name}<V: Simd16, const NT:
/// bool>(inp, in_stride, out, out_stride)`: input vector `k` of the line
/// is read at `inp + k·in_stride`, output vector `k` written at
/// `out + k·out_stride` (strides in floats). `title` becomes the first
/// doc line.
pub fn emit_line_codelet(name: &str, title: &str, prog: &PairedProgram) -> String {
    let (n_in, n_out) = (prog.n_in, prog.n_out);
    let ops = prog.op_count();
    let mut used = vec![false; n_in];
    for t in prog.nodes.iter().flat_map(|n| n.term_lists()).flatten() {
        used[t.src] = true;
    }
    let mut s = String::new();
    writeln!(s, "/// {title}: {n_in} → {n_out} vectors per line, {} mul + {} add.", ops.muls, ops.adds)
        .unwrap();
    writeln!(s, "///").unwrap();
    writeln!(s, "/// # Safety").unwrap();
    writeln!(s, "/// `inp + k·in_stride` must be valid for 16 reads for every `k < {n_in}` and")
        .unwrap();
    writeln!(s, "/// `out + k·out_stride` for 16 writes for every `k < {n_out}` (64-byte aligned")
        .unwrap();
    writeln!(s, "/// when `NT`); no written vector may overlap a read one.").unwrap();
    writeln!(s, "#[inline(always)]").unwrap();
    writeln!(s, "pub(crate) unsafe fn {name}<V: Simd16, const NT: bool>(").unwrap();
    writeln!(s, "    inp: *const f32,").unwrap();
    // A side that only touches vector 0 never strides.
    writeln!(s, "    {}in_stride: usize,", if used.iter().skip(1).any(|&u| u) { "" } else { "_" })
        .unwrap();
    writeln!(s, "    out: *mut f32,").unwrap();
    writeln!(s, "    {}out_stride: usize,", if n_out > 1 { "" } else { "_" }).unwrap();
    writeln!(s, ") {{").unwrap();
    writeln!(s, "    // SAFETY: every pointer below is `inp + k·in_stride` with `k < {n_in}` or")
        .unwrap();
    writeln!(s, "    // `out + k·out_stride` with `k < {n_out}`, which the caller's contract covers;")
        .unwrap();
    writeln!(s, "    // all loads precede the first store.").unwrap();
    writeln!(s, "    unsafe {{").unwrap();

    for k in (0..n_in).filter(|&k| used[k]) {
        writeln!(s, "        let x{k} = V::load({});", offset("inp", k, "in_stride")).unwrap();
    }
    for node in &prog.nodes {
        match node {
            PairNode::Direct { out, row } => {
                emit_sum(&mut s, "y", &row.terms);
                writeln!(s, "        put::<V, NT>(y, {});", offset("out", *out, "out_stride"))
                    .unwrap();
            }
            PairNode::Pair { out_plus, out_minus, u_terms, v_terms } => {
                emit_sum(&mut s, "u", u_terms);
                emit_sum(&mut s, "v", v_terms);
                writeln!(s, "        put::<V, NT>(u + v, {});", offset("out", *out_plus, "out_stride"))
                    .unwrap();
                writeln!(s, "        put::<V, NT>(u - v, {});", offset("out", *out_minus, "out_stride"))
                    .unwrap();
            }
        }
    }
    writeln!(s, "    }}").unwrap();
    writeln!(s, "}}").unwrap();
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FmrPlan;

    #[test]
    fn f23_input_transform_is_multiplication_free() {
        let src = emit_line_codelet("bt", "`Bᵀ` of F(2, 3)", &FmrPlan::new(2, 3).bt);
        assert!(src.contains("pub(crate) unsafe fn bt<V: Simd16, const NT: bool>("), "{src}");
        assert!(src.contains("# Safety") && src.contains("// SAFETY:"), "{src}");
        assert!(!src.contains("splat"), "F(2,3) Bᵀ is all ±1:\n{src}");
        assert_eq!(src.matches("V::load(").count(), 4, "each input loaded once:\n{src}");
        assert_eq!(src.matches("put::<V, NT>(").count(), 4, "{src}");
    }

    #[test]
    fn every_output_is_stored_once_and_every_term_appears() {
        for m in 1..=8 {
            let plan = FmrPlan::new(m, 3);
            for prog in [&plan.bt, &plan.g, &plan.at] {
                let src = emit_line_codelet("f", "t", prog);
                assert_eq!(src.matches("put::<V, NT>(").count(), prog.n_out, "F({m},3):\n{src}");
                // One multiply per non-unit coefficient, exactly as counted.
                assert_eq!(src.matches("splat(").count(), prog.op_count().muls, "F({m},3):\n{src}");
                assert!(src.matches("V::load(").count() <= prog.n_in);
            }
        }
    }

    #[test]
    fn coefficients_round_trip_through_their_literals() {
        // `{:?}` prints the shortest decimal that parses back to the same
        // f32 — the property the emitted literals rely on.
        let plan = FmrPlan::new(8, 3);
        for prog in [&plan.bt, &plan.g, &plan.at] {
            for t in prog.nodes.iter().flat_map(|n| n.term_lists()).flatten() {
                let back: f32 = format!("{:?}", t.coeff).parse().unwrap();
                assert_eq!(back.to_bits(), t.coeff.to_bits());
            }
        }
    }

    #[test]
    fn a_structurally_zero_row_stores_zero() {
        use crate::program::RowProgram;
        let prog = PairedProgram {
            n_out: 1,
            n_in: 2,
            nodes: vec![PairNode::Direct { out: 0, row: RowProgram::default() }],
        };
        let src = emit_line_codelet("z", "zero", &prog);
        assert!(src.contains("let y = V::zero();"), "{src}");
        assert!(!src.contains("V::load("), "unused inputs are not loaded:\n{src}");
    }
}
