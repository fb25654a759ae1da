//! Generates the straight-line transform codelets (§4.2.1) into
//! `$OUT_DIR/codelets.rs`, which `src/codelet.rs` includes: `Bᵀ`, `G` and
//! `Aᵀ` of every `F(m, r)` the engine plans — the rectangle
//! `m ∈ 1..=MAX_M`, `r ∈ 1..=MAX_R` under `PointSchedule::Mixed` — printed
//! by `wino_transforms::emit` from the Fig. 2 pair programs. The rectangle
//! is written out beside them (`TABLE_MAX_M`, `TABLE_MAX_R`); the planner's
//! tile-size check and the tile search read it from there, so a dimension
//! outside it fails at plan time instead of reaching a stage. So is one
//! `Row` per `F(m, r)` (`ROWS`): the scalar op counts of its three
//! programs and its γ, the numbers the engine would otherwise recompute
//! from the exact matrices at plan time.

use std::fmt::Write;

use wino_transforms::{emit, FmrPlan, PairedProgram};

/// Largest output tile per dimension: beyond `m = 8` the f32 transforms
/// are useless even for inference (Table 3).
const MAX_M: usize = 8;
/// Widest kernel per dimension.
const MAX_R: usize = 5;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");

    let mut src = String::from(
        "// @generated by crates/core/build.rs through wino_transforms::emit — do not edit.\n\n",
    );
    src += emit::PRELUDE;
    // The paper's 3-wide rows first: a codelet several rows share (below)
    // carries the name of the first.
    let mut rows: Vec<(usize, usize)> =
        (1..=MAX_R).flat_map(|r| (1..=MAX_M).map(move |m| (m, r))).collect();
    rows.sort_by_key(|&(m, r)| (r != 3, r, m));
    let plans: Vec<FmrPlan> = rows.iter().map(|&(m, r)| FmrPlan::new(m, r)).collect();

    // Each family's program and the vectors a line of it reads and writes.
    type Program = fn(&FmrPlan) -> &PairedProgram;
    let families: [(&str, &str, &str, Program, &str); 3] = [
        ("bt", "Bt", "Bᵀ", |p| &p.bt, "(m + r - 1, m + r - 1)"),
        ("g", "G", "G", |p| &p.g, "(r, m + r - 1)"),
        ("at", "At", "Aᵀ", |p| &p.at, "(m + r - 1, m)"),
    ];
    let mut dispatchers = String::new();
    for (tag, family, title, program, extents) in families {
        // Rows with equal programs share one codelet and one `match` arm:
        // `Bᵀ` depends only on the points, i.e. on `α = m + r − 1`
        // (12 codelets for the 40 rows).
        let mut codelets: Vec<(String, &PairedProgram, Vec<String>)> = Vec::new();
        for (&(m, r), plan) in rows.iter().zip(&plans) {
            let prog = program(plan);
            let pattern = format!("({m}, {r})");
            if let Some((_, _, patterns)) = codelets.iter_mut().find(|(_, p, _)| *p == prog) {
                patterns.push(pattern);
                continue;
            }
            let name = format!("{tag}_m{m}_r{r}");
            src.push('\n');
            src += &emit::emit_line_codelet(&name, &format!("`{title}` of F({m}, {r})"), prog);
            codelets.push((name, prog, vec![pattern]));
        }

        let d = &mut dispatchers;
        writeln!(d, "\nimpl Family for {family} {{").unwrap();
        writeln!(d, "    fn extents(m: usize, r: usize) -> (usize, usize) {{\n        {extents}\n    }}\n").unwrap();
        writeln!(d, "    // SAFETY: under `Family::pass`'s contract every line the pass visits").unwrap();
        writeln!(d, "    // meets the contract of the `F(m, r)` codelet it is handed to.").unwrap();
        writeln!(d, "    #[inline(always)]").unwrap();
        writeln!(d, "    unsafe fn pass<V: Simd16, const NT: bool>(row: (usize, usize), pass: &Pass) {{").unwrap();
        writeln!(d, "        match row {{").unwrap();
        for (name, _, patterns) in &codelets {
            writeln!(d, "            {} => table_row!(V, NT, pass, {name}),", patterns.join(" | ")).unwrap();
        }
        writeln!(d, "            (m, r) => unreachable!(\"no generated `{title}` codelet for F({{m}}, {{r}})\"),").unwrap();
        writeln!(d, "        }}\n    }}\n}}").unwrap();
    }

    writeln!(src, "\n/// Every `F(m, r)` with `m ≤ TABLE_MAX_M`, `r ≤ TABLE_MAX_R` has a table row.").unwrap();
    writeln!(src, "pub const TABLE_MAX_M: usize = {MAX_M};").unwrap();
    writeln!(src, "/// See [`TABLE_MAX_M`].").unwrap();
    writeln!(src, "pub const TABLE_MAX_R: usize = {MAX_R};").unwrap();
    src += &dispatchers;

    // The rows in `(r, m)` order, `F(m, r)` at `(r − 1)·MAX_M + m − 1`.
    // `{:?}` prints the shortest literal that reads back as the same f64.
    writeln!(src, "\n/// Every table row, `F(m, r)` at `(r − 1)·TABLE_MAX_M + m − 1`.").unwrap();
    writeln!(src, "pub(super) static ROWS: [Row; {}] = [", MAX_M * MAX_R).unwrap();
    for r in 1..=MAX_R {
        for m in 1..=MAX_M {
            let plan = &plans[rows.iter().position(|&row| row == (m, r)).unwrap()];
            let ops = |p: &PairedProgram| p.op_count().total();
            let gamma = plan.conditioning().gamma;
            writeln!(
                src,
                "    Row {{ m: {m}, r: {r}, bt_ops: {}, g_ops: {}, at_ops: {}, gamma: {gamma:?} }},",
                ops(&plan.bt),
                ops(&plan.g),
                ops(&plan.at)
            )
            .unwrap();
        }
    }
    writeln!(src, "];").unwrap();

    let out_dir = std::env::var_os("OUT_DIR").expect("cargo sets OUT_DIR for build scripts");
    std::fs::write(std::path::Path::new(&out_dir).join("codelets.rs"), src)
        .expect("write the generated codelets into OUT_DIR");
}
