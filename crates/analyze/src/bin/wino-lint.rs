//! `wino-lint` — workspace safety linter. Lints every
//! `crates/*/src/**/*.rs` (plus the root `src/`) against the rule table
//! in `wino_analyze::rules::RULES` and exits non-zero on any violation.
//!
//! Usage:
//!   wino-lint                     lint the whole workspace
//!   wino-lint FILE...             lint specific files (paths may be
//!                                 absolute or workspace-relative)
//!   wino-lint --as-path REL FILE  lint FILE as if it lived at REL
//!                                 (fixture testing: scoped rules apply,
//!                                 cross-file rules see FILE alone)
//!   wino-lint --list-rules        print the rule table and exit
//!   wino-lint --root DIR          override workspace root discovery

use std::path::PathBuf;
use std::process::ExitCode;

use wino_analyze::lint;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut as_path: Option<String> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--list-rules" => {
                print!("{}", lint::describe_rules());
                return ExitCode::SUCCESS;
            }
            "--root" => match args.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => return usage("--root needs a directory"),
            },
            "--as-path" => match args.next() {
                Some(p) => as_path = Some(p),
                None => return usage("--as-path needs a workspace-relative path"),
            },
            "--help" | "-h" => return usage(""),
            _ if a.starts_with('-') => return usage(&format!("unknown flag {a}")),
            _ => files.push(PathBuf::from(a)),
        }
    }

    let Some(root) = root.or_else(lint::default_root) else {
        eprintln!("wino-lint: could not locate the workspace root");
        return ExitCode::from(2);
    };

    if let Some(rel) = as_path {
        // Fixture mode: lint each given file under an assumed
        // workspace-relative path so scoped rules and allowlists apply.
        if files.len() != 1 {
            return usage("--as-path takes exactly one file");
        }
        let src = match std::fs::read_to_string(&files[0]) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("wino-lint: {}: {e}", files[0].display());
                return ExitCode::from(2);
            }
        };
        let violations = lint::lint_alone(&rel, &src);
        for v in &violations {
            println!("{v}");
        }
        println!("wino-lint: 1 file as {rel}, {} violation(s)", violations.len());
        return if violations.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let result = if files.is_empty() {
        lint::lint_workspace(&root)
    } else {
        let files: Vec<PathBuf> = files
            .into_iter()
            .map(|f| if f.is_absolute() { f } else { root.join(f) })
            .collect();
        lint::lint_paths(&root, &files)
    };
    match result {
        Ok((violations, stats)) => {
            for v in &violations {
                println!("{v}");
            }
            println!(
                "wino-lint: {} files, {} unsafe tokens, {} Relaxed tokens, {} violation(s)",
                stats.files,
                stats.unsafe_tokens,
                stats.relaxed_tokens,
                violations.len()
            );
            if violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("wino-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("wino-lint: {err}");
    }
    eprintln!(
        "usage: wino-lint [--root DIR] [--list-rules] [--as-path REL FILE] [FILE...]"
    );
    ExitCode::from(2)
}
