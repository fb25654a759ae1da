//! Lint driver: locate the workspace, walk every `crates/*/src/**/*.rs`
//! (plus the root `src/`), and apply the [`crate::rules`] table — also to
//! the transform codelets `wino-conv`'s build script generates, which are
//! source the compiler sees but no directory walk finds.

use std::path::{Path, PathBuf};

use crate::rules::{lint_file, Violation, RULES};

/// Locate the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// The workspace root for this build (resolved from the crate's own
/// manifest dir, so it works from any cwd), falling back to a cwd search.
pub fn default_root() -> Option<PathBuf> {
    workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .or_else(|| std::env::current_dir().ok().and_then(|d| workspace_root(&d)))
}

/// All lintable sources: `crates/*/src/**/*.rs` and `src/**/*.rs`,
/// workspace-relative, sorted.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            if src.is_dir() {
                walk_rs(&src, &mut out)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk_rs(&root_src, &mut out)?;
    }
    out.sort();
    Ok(out)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)?.flatten() {
        let p = entry.path();
        if p.is_dir() {
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Coverage counters reported alongside violations.
#[derive(Debug, Default, Clone, Copy)]
pub struct LintStats {
    pub files: usize,
    pub unsafe_tokens: usize,
    pub relaxed_tokens: usize,
}

/// Lint one source text as the workspace-relative path `rel`, adding to
/// `violations` and `stats`.
fn lint_source(rel: &str, src: &str, violations: &mut Vec<Violation>, stats: &mut LintStats) {
    stats.files += 1;
    for t in crate::lexer::lex(src) {
        if t.kind == crate::lexer::TokKind::Ident {
            match t.text(src) {
                "unsafe" => stats.unsafe_tokens += 1,
                "Relaxed" => stats.relaxed_tokens += 1,
                _ => {}
            }
        }
    }
    violations.extend(lint_file(rel, src));
}

/// Lint the given files (absolute paths; `root` is used to relativise for
/// scope/allowlist matching and reporting).
pub fn lint_paths(root: &Path, paths: &[PathBuf]) -> std::io::Result<(Vec<Violation>, LintStats)> {
    let mut violations = Vec::new();
    let mut stats = LintStats::default();
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/");
        lint_source(&rel, &std::fs::read_to_string(p)?, &mut violations, &mut stats);
    }
    Ok((violations, stats))
}

/// The path the generated transform codelets are linted (and reported)
/// under: inside `crates/core`, so that crate's scoped rules apply.
pub const GENERATED_CODELETS_PATH: &str = "crates/core/src/$OUT_DIR/codelets.rs";

/// Lint the whole workspace rooted at `root`, plus the codelets
/// `wino-conv` was built with ([`wino_conv::codelet::GENERATED_SOURCE`]).
pub fn lint_workspace(root: &Path) -> std::io::Result<(Vec<Violation>, LintStats)> {
    let files = collect_sources(root)?;
    let (mut violations, mut stats) = lint_paths(root, &files)?;
    let generated = wino_conv::codelet::GENERATED_SOURCE;
    lint_source(GENERATED_CODELETS_PATH, generated, &mut violations, &mut stats);
    Ok((violations, stats))
}

/// One-line-per-rule table, for `wino-lint --list-rules`.
pub fn describe_rules() -> String {
    let mut s = String::new();
    for r in RULES {
        s.push_str(&format!("{:32} {}\n", r.id, r.summary));
        for a in r.allow {
            s.push_str(&format!("{:32}   allow {}: {}\n", "", a.path, a.reason));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_is_found_and_has_crates() {
        let root = default_root().expect("workspace root");
        assert!(root.join("crates/sched/src/barrier.rs").is_file(), "{root:?}");
    }

    #[test]
    fn collect_sources_finds_this_file_but_not_fixtures() {
        let root = default_root().unwrap();
        let files = collect_sources(&root).unwrap();
        assert!(files.iter().any(|p| p.ends_with("crates/analyze/src/lint.rs")));
        assert!(!files.iter().any(|p| p.to_string_lossy().contains("fixtures")));
    }

    #[test]
    fn workspace_is_clean() {
        // The acceptance gate: the linter must pass on the entire
        // workspace. If this fails, run `cargo run -p wino-analyze --bin
        // wino-lint` for the full report.
        let root = default_root().unwrap();
        let (violations, stats) = lint_workspace(&root).unwrap();
        assert!(stats.files > 50, "suspiciously few files linted: {}", stats.files);
        assert!(stats.unsafe_tokens > 50, "unsafe sweep lost sites: {}", stats.unsafe_tokens);
        let report: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
        assert!(violations.is_empty(), "workspace lint violations:\n{}", report.join("\n"));
    }

    #[test]
    fn generated_codelets_are_linted_and_their_unsafe_is_covered() {
        use wino_conv::codelet::{GENERATED_SOURCE as src, TABLE_MAX_M as M, TABLE_MAX_R as R};
        // One line codelet per distinct program of the table: `G` and `Aᵀ`
        // of every `F(m, r)`, `Bᵀ` once per `α = m + r − 1`. Each is an
        // `unsafe fn` with an `unsafe` block inside, and is one arm — one
        // `table_row!` wrapper, whose own `unsafe` is linted with
        // `codelet.rs` — of its family's dispatcher.
        let codelets = 2 * M * R + (M + R - 1);
        assert_eq!(src.matches("pub(crate) unsafe fn ").count(), codelets + 1, "codelets + `put`");
        assert_eq!(src.matches("=> table_row!(V, NT, pass, ").count(), codelets);
        let unsafe_tokens = crate::lexer::lex(src)
            .iter()
            .filter(|t| t.kind == crate::lexer::TokKind::Ident && t.text(src) == "unsafe")
            .count();
        // … plus the store helper and the three dispatchers.
        assert_eq!(unsafe_tokens, 2 * codelets + 4, "generated source lost unsafe sites");
        assert_eq!(lint_file(GENERATED_CODELETS_PATH, src), vec![]);
        // The coverage is real: the same text without its justifications
        // trips the rule once per site.
        let stripped = src.replace("// SAFETY:", "//").replace("# Safety", "#");
        let vs = lint_file(GENERATED_CODELETS_PATH, &stripped);
        assert!(vs.len() >= unsafe_tokens - 4, "{} violations", vs.len());
        assert!(vs.iter().all(|v| v.rule == "unsafe-needs-safety"));
    }

    #[test]
    fn seeded_violation_fixture_trips_every_rule() {
        let root = default_root().unwrap();
        let fixture = root.join("crates/analyze/fixtures/violations.rs");
        let src = std::fs::read_to_string(&fixture).unwrap();
        // Lint it as if it lived in the substrate crate so every scoped
        // rule applies.
        let vs = crate::rules::lint_file("crates/sched/src/violations.rs", &src);
        let rules_hit: std::collections::BTreeSet<&str> = vs.iter().map(|v| v.rule).collect();
        for r in ["unsafe-needs-safety", "relaxed-needs-ordering", "no-static-mut",
                  "no-transmute-outside-simd-jit", "allow-needs-rationale",
                  "drop-guard-protocol", "no-blocking-under-lock",
                  "target-feature-confined"] {
            assert!(rules_hit.contains(r), "fixture did not trip {r}; hit: {rules_hit:?}");
        }
        // And the decoys (violating text inside strings/comments/idents)
        // must NOT fire: exactly one violation per seeded site. The
        // allocation seed is out of scope under the sched path and is
        // counted by the core-path lint below instead.
        assert_eq!(vs.len(), 11, "unexpected violation set:\n{}",
            vs.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n"));

        // The allocation-accounting rule is scoped to the accounted
        // crates; re-lint the fixture as one of them and check exactly
        // the seeded allocation site fires (decoys stay silent).
        let vs = crate::rules::lint_file("crates/core/src/violations.rs", &src);
        let alloc: Vec<_> = vs.iter().filter(|v| v.rule == "alloc-needs-accounting").collect();
        assert_eq!(alloc.len(), 1, "alloc-needs-accounting fixture sites:\n{}",
            vs.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n"));
        // So is the clock rule: the two seeded reads, not the helper decoy.
        let clock = vs.iter().filter(|v| v.rule == "clock-through-span-helpers").count();
        assert_eq!(clock, 2);
    }
}
