//! Lint driver: locate the workspace, walk every `crates/*/src/**/*.rs`
//! (plus the root `src/`), and apply the [`crate::rules`] table — also to
//! the transform codelets `wino-conv`'s build script generates, which are
//! source the compiler sees but no directory walk finds. The cross-file
//! rules also read the tests, benches, examples and benchmark sources.

use std::path::{Path, PathBuf};

use crate::rules::{lint_corpus, lint_file, FileCtx, Violation, RULES};

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
    collect(root, &["src"], &["src"])
}

/// The other sources a public item's callers may live in: every crate's
/// tests, benches and build script, the root package's tests and
/// examples, and the benchmark package.
fn collect_callers(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let top = ["tests", "examples", "benchmark/src", "benchmark/tests"];
    collect(root, &["tests", "benches", "build.rs"], &top)
}

/// `.rs` files under `crates/*/<per_crate>` and `<top>`, sorted.
fn collect(root: &Path, per_crate: &[&str], top: &[&str]) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            for sub in per_crate {
                walk_rs(&entry.path().join(sub), &mut out)?;
            }
        }
    }
    for sub in top {
        walk_rs(&root.join(sub), &mut out)?;
    }
    out.sort();
    Ok(out)
}

/// `path` itself if it is a `.rs` file, else every `.rs` file below it.
fn walk_rs(path: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if path.is_dir() {
        for entry in std::fs::read_dir(path)?.flatten() {
            walk_rs(&entry.path(), out)?;
        }
    } else if path.is_file() && path.extension().is_some_and(|e| e == "rs") {
        out.push(path.to_path_buf());
    }
    Ok(())
}

fn relative(root: &Path, p: &Path) -> String {
    p.strip_prefix(root).unwrap_or(p).to_string_lossy().replace('\\', "/")
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
        lint_source(&relative(root, p), &std::fs::read_to_string(p)?, &mut violations, &mut stats);
    }
    Ok((violations, stats))
}

/// Every rule over one source text linted as `rel`, the cross-file rules
/// seeing it as the whole workspace — how the seeded fixture is checked.
pub fn lint_alone(rel: &str, src: &str) -> Vec<Violation> {
    let mut violations = lint_file(rel, src);
    violations.extend(lint_corpus(&[FileCtx::new(rel, src)]));
    violations
}

/// The path the generated transform codelets are linted (and reported)
/// under: inside `crates/core`, so that crate's scoped rules apply.
pub const GENERATED_CODELETS_PATH: &str = "crates/core/src/$OUT_DIR/codelets.rs";

/// Lint the whole workspace rooted at `root`, plus the codelets
/// `wino-conv` was built with ([`wino_conv::codelet::GENERATED_SOURCE`]):
/// the per-file rules over each, then the cross-file rules over them and
/// the sources their callers may live in.
pub fn lint_workspace(root: &Path) -> std::io::Result<(Vec<Violation>, LintStats)> {
    let files = collect_sources(root)?;
    let (mut violations, mut stats) = lint_paths(root, &files)?;
    let generated = wino_conv::codelet::GENERATED_SOURCE;
    lint_source(GENERATED_CODELETS_PATH, generated, &mut violations, &mut stats);
    let mut texts = vec![(GENERATED_CODELETS_PATH.to_string(), generated.to_string())];
    for p in files.iter().chain(&collect_callers(root)?) {
        texts.push((relative(root, p), std::fs::read_to_string(p)?));
    }
    let corpus: Vec<FileCtx> = texts.iter().map(|(rel, src)| FileCtx::new(rel, src)).collect();
    violations.extend(lint_corpus(&corpus));
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
        // rule applies. The cross-file rules see the fixture as the whole
        // workspace.
        let vs = lint_alone("crates/sched/src/violations.rs", &src);
        let rules_hit: std::collections::BTreeSet<&str> = vs.iter().map(|v| v.rule).collect();
        let core_only = ["alloc-needs-accounting", "clock-through-span-helpers"];
        for r in RULES.iter().map(|r| r.id).filter(|r| !core_only.contains(r)) {
            assert!(rules_hit.contains(r), "fixture did not trip {r}; hit: {rules_hit:?}");
        }
        // And the decoys (violating text inside strings/comments/idents)
        // must NOT fire: exactly one violation per seeded site. The
        // allocation and clock seeds are out of scope under the sched path
        // and are counted by the core-path lint below instead.
        assert_eq!(vs.len(), 14, "unexpected violation set:\n{}",
            vs.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n"));
        let uncalled: Vec<&str> = vs
            .iter()
            .filter(|v| v.rule == "pub-needs-caller")
            .map(|v| v.msg.split('`').nth(1).unwrap_or(""))
            .collect();
        assert_eq!(uncalled, [
            "pub fn seed_uncalled_pub",
            "pub struct SeedReexported",
            "pub const SEED_NAMED_IN_TEXT",
        ]);

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
