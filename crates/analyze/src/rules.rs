//! The workspace lint rules: a declarative table ([`RULES`]) of
//! machine-enforced hygiene invariants for `unsafe` code and atomics,
//! with per-rule allowlists so exceptions are explicit, justified, and
//! reviewed in one place.
//!
//! New crates inherit every rule automatically (the driver lints
//! `crates/*/src/**/*.rs`); to add a rule, append an entry here and give
//! it a `Check`: a function over one file's lexed token stream, or — for
//! a rule about callers, like `pub-needs-caller` — over every workspace
//! source at once (see DESIGN.md §"Static analysis & concurrency
//! verification").

use crate::lexer::{lex, TokKind, Token};

/// Which files a rule applies to, as workspace-relative path prefixes.
pub enum Scope {
    /// Every linted file.
    All,
    /// Only files under these prefixes.
    Only(&'static [&'static str]),
    /// Every linted file except those under these prefixes.
    Except(&'static [&'static str]),
}

impl Scope {
    fn applies(&self, path: &str) -> bool {
        match self {
            Scope::All => true,
            Scope::Only(pre) => pre.iter().any(|p| path.starts_with(p)),
            Scope::Except(pre) => !pre.iter().any(|p| path.starts_with(p)),
        }
    }
}

/// A justified exception to a rule: the file it covers and why.
pub struct AllowEntry {
    pub path: &'static str,
    pub reason: &'static str,
}

/// One lint rule.
pub struct Rule {
    /// Stable kebab-case id, printed with every violation.
    pub id: &'static str,
    pub summary: &'static str,
    pub scope: Scope,
    /// Files exempt from this rule, each with a recorded reason.
    pub allow: &'static [AllowEntry],
    check: Check,
}

/// What a rule's check sees.
enum Check {
    /// One file at a time ([`lint_file`]).
    File(fn(&FileCtx) -> Vec<RawViolation>),
    /// Every workspace source at once ([`lint_corpus`]): the check
    /// returns the index of the file each violation is in.
    Corpus(fn(&[FileCtx]) -> Vec<(usize, RawViolation)>),
}

/// A violation before path/allowlist resolution: line + message.
pub struct RawViolation {
    pub line: u32,
    pub msg: String,
}

/// A resolved violation ready for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub path: String,
    pub line: u32,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.msg)
    }
}

/// Lexed file handed to rule checks.
pub struct FileCtx<'a> {
    pub path: &'a str,
    pub src: &'a str,
    pub toks: Vec<Token>,
}

impl<'a> FileCtx<'a> {
    pub fn new(path: &'a str, src: &'a str) -> FileCtx<'a> {
        FileCtx { path, src, toks: lex(src) }
    }

    fn text(&self, i: usize) -> &str {
        self.toks[i].text(self.src)
    }

    fn is_comment(&self, i: usize) -> bool {
        matches!(self.toks[i].kind, TokKind::LineComment | TokKind::BlockComment)
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        self.toks[i].kind == TokKind::Punct && self.toks[i].punct(self.src) == c
    }

    fn is_boundary(&self, i: usize) -> bool {
        self.is_punct(i, ';') || self.is_punct(i, '{') || self.is_punct(i, '}')
    }

    /// Previous non-comment token index before `i`.
    fn prev_code(&self, i: usize) -> Option<usize> {
        (0..i).rev().find(|&j| !self.is_comment(j))
    }

    /// Next non-comment token index after `i`.
    fn next_code(&self, i: usize) -> Option<usize> {
        (i + 1..self.toks.len()).find(|&j| !self.is_comment(j))
    }

    /// The `}` closing the `{` at `open` (or the end of the file).
    fn close_brace(&self, open: usize) -> usize {
        let mut depth = 0i32;
        for k in open..self.toks.len() {
            if self.is_punct(k, '{') {
                depth += 1;
            } else if self.is_punct(k, '}') {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
        }
        self.toks.len()
    }

    /// Whether token `i` is the last segment of the path `<ty>::<i>`.
    fn qualified_by(&self, i: usize, ty: &str) -> bool {
        let Some(c1) = self.prev_code(i) else { return false };
        let Some(c2) = self.prev_code(c1) else { return false };
        let Some(c3) = self.prev_code(c2) else { return false };
        self.is_punct(c1, ':') && self.is_punct(c2, ':') && self.text(c3) == ty
    }

    /// Whether token `i` carries an adjacent justification comment
    /// containing any of `markers`.
    ///
    /// "Adjacent" means: a comment between the start of the enclosing
    /// statement (the previous `;`/`{`/`}`) and the token, or a trailing
    /// comment up to and on the line where the statement ends (the next
    /// `;`/`{`/`}`). This matches both styles in the workspace:
    ///
    /// ```text
    /// // SAFETY: …
    /// let x = unsafe { … };
    ///
    /// count.store(0, Ordering::Relaxed); // ORDERING: …
    /// ```
    pub fn annotated(&self, i: usize, markers: &[&str]) -> bool {
        let has = |j: usize| {
            let t = self.text(j);
            markers.iter().any(|m| t.contains(m))
        };
        // Backward to the statement start.
        for j in (0..i).rev() {
            if self.is_comment(j) {
                if has(j) {
                    return true;
                }
            } else if self.is_boundary(j) {
                break;
            }
        }
        // Forward to the statement end, then trailing comments on that line.
        let mut end_line: Option<u32> = None;
        for j in i + 1..self.toks.len() {
            let t = &self.toks[j];
            if let Some(line) = end_line {
                if t.line > line {
                    break;
                }
                if self.is_comment(j) && has(j) {
                    return true;
                }
            } else if self.is_comment(j) {
                if has(j) {
                    return true;
                }
            } else if self.is_boundary(j) {
                end_line = Some(t.line);
            }
        }
        false
    }
}

// ---- rule checks ----

fn check_unsafe_needs_safety(f: &FileCtx) -> Vec<RawViolation> {
    let mut out = Vec::new();
    for (i, t) in f.toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && f.text(i) == "unsafe"
            && !f.annotated(i, &["SAFETY:", "# Safety"])
        {
            out.push(RawViolation {
                line: t.line,
                msg: "`unsafe` without an adjacent `// SAFETY:` comment (or `# Safety` doc \
                      section) justifying it"
                    .to_string(),
            });
        }
    }
    out
}

fn check_relaxed_needs_ordering(f: &FileCtx) -> Vec<RawViolation> {
    let mut out = Vec::new();
    for (i, t) in f.toks.iter().enumerate() {
        // Must be `Ordering::Relaxed`.
        if t.kind != TokKind::Ident || f.text(i) != "Relaxed" || !f.qualified_by(i, "Ordering") {
            continue;
        }
        if !f.annotated(i, &["ORDERING:"]) {
            out.push(RawViolation {
                line: t.line,
                msg: "`Ordering::Relaxed` without an adjacent `// ORDERING:` comment \
                      justifying why no synchronisation is needed"
                    .to_string(),
            });
        }
    }
    out
}

fn check_no_static_mut(f: &FileCtx) -> Vec<RawViolation> {
    let mut out = Vec::new();
    for (i, t) in f.toks.iter().enumerate() {
        if t.kind == TokKind::Ident && f.text(i) == "static" {
            if let Some(n) = f.next_code(i) {
                if f.toks[n].kind == TokKind::Ident && f.text(n) == "mut" {
                    out.push(RawViolation {
                        line: t.line,
                        msg: "`static mut` is forbidden: use an atomic, a lock, or \
                              interior mutability with a safety argument"
                            .to_string(),
                    });
                }
            }
        }
    }
    out
}

fn check_no_transmute(f: &FileCtx) -> Vec<RawViolation> {
    let mut out = Vec::new();
    for (i, t) in f.toks.iter().enumerate() {
        if t.kind == TokKind::Ident && f.text(i) == "transmute" {
            out.push(RawViolation {
                line: t.line,
                msg: "`mem::transmute` outside `crates/simd`/`crates/jit` — prefer safe \
                      conversions or pointer casts; if unavoidable, add this file to the \
                      rule's allowlist with a reason"
                    .to_string(),
            });
        }
    }
    out
}

fn check_target_feature_confined(f: &FileCtx) -> Vec<RawViolation> {
    let mut out = Vec::new();
    for (i, t) in f.toks.iter().enumerate() {
        // The attribute is `target_feature(enable = …)`; the `cfg`
        // predicate `target_feature = "…"` is followed by `=` and passes.
        if t.kind == TokKind::Ident
            && f.text(i) == "target_feature"
            && f.next_code(i).is_some_and(|n| f.is_punct(n, '('))
        {
            out.push(RawViolation {
                line: t.line,
                msg: "`#[target_feature(…)]` outside `crates/simd`/`crates/jit` — write the \
                      body generic over `wino_simd::Simd16` and enter it through \
                      `wino_simd::dispatch`, whose arms sit behind a CPU-detection proof token"
                    .to_string(),
            });
        }
    }
    out
}

fn check_allow_needs_rationale(f: &FileCtx) -> Vec<RawViolation> {
    let mut out = Vec::new();
    for i in 0..f.toks.len() {
        if !f.is_punct(i, '#') {
            continue;
        }
        // `#[allow(` or `#![allow(`
        let Some(mut j) = f.next_code(i) else { continue };
        if f.is_punct(j, '!') {
            let Some(j2) = f.next_code(j) else { continue };
            j = j2;
        }
        if !f.is_punct(j, '[') {
            continue;
        }
        let Some(k) = f.next_code(j) else { continue };
        if f.toks[k].kind != TokKind::Ident || f.text(k) != "allow" {
            continue;
        }
        // Find the attribute's closing `]` (bracket depth from `[`).
        let mut depth = 0i32;
        let mut close = None;
        for m in j..f.toks.len() {
            if f.is_punct(m, '[') {
                depth += 1;
            } else if f.is_punct(m, ']') {
                depth -= 1;
                if depth == 0 {
                    close = Some(m);
                    break;
                }
            }
        }
        let Some(close) = close else { continue };
        let close_line = f.toks[close].line;
        // Trailing rationale: a comment on the attribute's closing line,
        // or a comment line directly above the attribute.
        let trailing = (close + 1..f.toks.len())
            .take_while(|&m| f.toks[m].line == close_line)
            .any(|m| f.is_comment(m));
        let above = (0..i)
            .rev()
            .take_while(|&m| f.toks[m].line + 1 >= f.toks[i].line)
            .any(|m| f.is_comment(m) && f.toks[m].line + 1 == f.toks[i].line);
        if !trailing && !above {
            out.push(RawViolation {
                line: f.toks[i].line,
                msg: "`#[allow(…)]` without a rationale comment (same line or the line \
                      directly above)"
                    .to_string(),
            });
        }
    }
    out
}

/// State-word writes a drop guard may discharge its protocol with.
const GUARD_WRITES: &[&str] = &[
    "resolve",
    "store",
    "swap",
    "fetch_add",
    "fetch_or",
    "fetch_and",
    "fetch_sub",
    "compare_exchange",
];

/// Strip comment delimiters and leading whitespace so tag detection keys
/// on how the comment *starts*, not what it mentions in prose.
fn comment_body(text: &str) -> &str {
    text.trim_start_matches(['/', '*', '!']).trim_start()
}

/// Find the `impl … Drop for <name>` item in `f`, returning the token
/// range of the `fn drop` body (exclusive of its braces).
fn find_drop_body(f: &FileCtx, name: &str) -> Option<(usize, usize)> {
    let mut i = 0;
    while i < f.toks.len() {
        if f.toks[i].kind != TokKind::Ident || f.text(i) != "impl" {
            i += 1;
            continue;
        }
        // Scan the impl header (up to the body `{`) for `Drop`, `for`,
        // and the type name — tolerant of generics in between.
        let mut body_open = None;
        let (mut saw_drop, mut saw_for, mut saw_name) = (false, false, false);
        for j in i + 1..f.toks.len() {
            if f.is_punct(j, '{') {
                body_open = Some(j);
                break;
            }
            if f.toks[j].kind == TokKind::Ident {
                match f.text(j) {
                    "Drop" => saw_drop = true,
                    "for" => saw_for = true,
                    t if t == name => saw_name = saw_for,
                    _ => {}
                }
            }
        }
        let open = body_open?;
        if !(saw_drop && saw_for && saw_name) {
            i = open + 1;
            continue;
        }
        // Inside the impl body, find `fn drop` and its body braces.
        for j in open + 1..f.toks.len() {
            if f.toks[j].kind == TokKind::Ident
                && f.text(j) == "fn"
                && f.next_code(j).is_some_and(|k| f.text(k) == "drop")
            {
                let fn_open = (j + 1..f.toks.len()).find(|&k| f.is_punct(k, '{'))?;
                let close = f.close_brace(fn_open);
                return (close < f.toks.len()).then_some((fn_open + 1, close));
            }
        }
        return None;
    }
    None
}

fn check_drop_guard_protocol(f: &FileCtx) -> Vec<RawViolation> {
    let mut out = Vec::new();
    for (i, t) in f.toks.iter().enumerate() {
        if !f.is_comment(i) || !comment_body(f.text(i)).starts_with("PROTOCOL: drop-guard") {
            continue;
        }
        // The tag annotates the next item: `struct X` (Drop impl located
        // by name) or the `impl … Drop for X` itself.
        let mut j = match f.next_code(i) {
            Some(j) => j,
            None => continue,
        };
        // Skip `pub`, `pub(crate)`, and attributes.
        loop {
            if f.toks[j].kind == TokKind::Ident && f.text(j) == "pub" {
                j = match f.next_code(j) {
                    Some(n) if f.is_punct(n, '(') => {
                        let close = (n..f.toks.len()).find(|&k| f.is_punct(k, ')'));
                        match close.and_then(|c| f.next_code(c)) {
                            Some(n2) => n2,
                            None => break,
                        }
                    }
                    Some(n) => n,
                    None => break,
                };
            } else if f.is_punct(j, '#') {
                let close = (j..f.toks.len()).find(|&k| f.is_punct(k, ']'));
                j = match close.and_then(|c| f.next_code(c)) {
                    Some(n) => n,
                    None => break,
                };
            } else {
                break;
            }
        }
        let name = if f.toks[j].kind == TokKind::Ident && f.text(j) == "struct" {
            f.next_code(j).map(|n| f.text(n).to_string())
        } else if f.toks[j].kind == TokKind::Ident && f.text(j) == "impl" {
            // Type name = first ident after `for` in the impl header.
            let mut name = None;
            for k in j + 1..f.toks.len() {
                if f.is_punct(k, '{') {
                    break;
                }
                if f.toks[k].kind == TokKind::Ident && f.text(k) == "for" {
                    name = f.next_code(k).map(|n| f.text(n).to_string());
                    break;
                }
            }
            name
        } else {
            out.push(RawViolation {
                line: t.line,
                msg: "`// PROTOCOL: drop-guard` tag must annotate a struct or its `impl Drop`"
                    .to_string(),
            });
            continue;
        };
        let Some(name) = name else { continue };
        let Some((body_start, body_end)) = find_drop_body(f, &name) else {
            out.push(RawViolation {
                line: t.line,
                msg: format!(
                    "type `{name}` is tagged `// PROTOCOL: drop-guard` but has no `impl Drop \
                     for {name}` in this file"
                ),
            });
            continue;
        };
        // The drop body must write the state word before any return path.
        let first_write = (body_start..body_end).find(|&k| {
            f.toks[k].kind == TokKind::Ident
                && GUARD_WRITES.contains(&f.text(k))
                && f.next_code(k).is_some_and(|n| f.is_punct(n, '('))
        });
        let Some(first_write) = first_write else {
            out.push(RawViolation {
                line: t.line,
                msg: format!(
                    "drop guard `{name}` never writes its state word (no \
                     resolve/store/CAS call in `fn drop`)"
                ),
            });
            continue;
        };
        for k in body_start..first_write {
            if f.toks[k].kind == TokKind::Ident && f.text(k) == "return" {
                out.push(RawViolation {
                    line: f.toks[k].line,
                    msg: format!(
                        "drop guard `{name}` can return before writing its state word — the \
                         protocol write must dominate every exit of `fn drop`"
                    ),
                });
            }
        }
    }
    out
}

/// Calls that can block (or spin unboundedly) and therefore must not run
/// while a spin-lock guard is live.
const BLOCKING_CALLS: &[&str] = &[
    "spin",
    "take_blocking",
    "take_timeout",
    "pop_batch",
    "wait",
    "join",
    "sleep",
    "recv",
    "park",
];

fn check_no_blocking_under_lock(f: &FileCtx) -> Vec<RawViolation> {
    let mut out = Vec::new();
    // (guard name, brace depth its binding lives at)
    let mut guards: Vec<(String, i32)> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0;
    while i < f.toks.len() {
        if f.is_punct(i, '{') {
            depth += 1;
        } else if f.is_punct(i, '}') {
            depth -= 1;
            guards.retain(|(_, d)| *d <= depth);
        } else if f.toks[i].kind == TokKind::Ident {
            let t = f.text(i);
            if t == "let" {
                // Scan the statement (to its `;` at this depth) for a
                // lock acquisition; bind the guard to this block depth.
                let let_depth = depth;
                let mut name = None;
                let mut acquires = false;
                let mut j = i + 1;
                let mut d = depth;
                while j < f.toks.len() {
                    if f.is_punct(j, '{') {
                        d += 1;
                    } else if f.is_punct(j, '}') {
                        d -= 1;
                    } else if f.is_punct(j, ';') && d == let_depth {
                        break;
                    } else if f.toks[j].kind == TokKind::Ident {
                        let tj = f.text(j);
                        if name.is_none() && tj != "mut" {
                            name = Some(tj.to_string());
                        }
                        if (tj == "acquire" || tj == "lock")
                            && f.next_code(j).is_some_and(|n| f.is_punct(n, '('))
                        {
                            acquires = true;
                        }
                        // A blocking call in the initializer still runs
                        // under any guard already live.
                        if !guards.is_empty()
                            && BLOCKING_CALLS.contains(&tj)
                            && f.next_code(j).is_some_and(|n| f.is_punct(n, '('))
                            && !f.annotated(j, &["BLOCKING:"])
                        {
                            out.push(RawViolation {
                                line: f.toks[j].line,
                                msg: format!(
                                    "`{tj}(…)` while the lock guard `{}` is live — blocking \
                                     under a spin-lock can deadlock the substrate; release \
                                     the guard first (scope it or `drop` it) or justify with \
                                     `// BLOCKING:`",
                                    guards.last().map(|(g, _)| g.as_str()).unwrap_or("_")
                                ),
                            });
                        }
                    }
                    j += 1;
                }
                if acquires {
                    guards.push((name.unwrap_or_default(), let_depth));
                }
                i = j;
                continue;
            }
            if t == "drop" {
                // `drop(guard)` releases the named guard early.
                if let Some(n) = f.next_code(i) {
                    if f.is_punct(n, '(') {
                        if let Some(a) = f.next_code(n) {
                            let arg = f.text(a).to_string();
                            guards.retain(|(g, _)| *g != arg);
                        }
                    }
                }
            } else if !guards.is_empty()
                && BLOCKING_CALLS.contains(&t)
                && f.next_code(i).is_some_and(|n| f.is_punct(n, '('))
                && !f.annotated(i, &["BLOCKING:"])
            {
                out.push(RawViolation {
                    line: f.toks[i].line,
                    msg: format!(
                        "`{t}(…)` while the lock guard `{}` is live — blocking under a \
                         spin-lock can deadlock the substrate; release the guard first \
                         (scope it or `drop` it) or justify with `// BLOCKING:`",
                        guards.last().map(|(g, _)| g.as_str()).unwrap_or("_")
                    ),
                });
            }
        }
        i += 1;
    }
    out
}

/// The raw infallible [`AlignedVec`] constructors. Their `try_*`
/// siblings return a typed `AllocError` and are always clean; these
/// abort the process when the allocator refuses.
const RAW_ALLOC_CALLS: &[&str] = &["zeroed", "from_slice"];

fn check_alloc_needs_accounting(f: &FileCtx) -> Vec<RawViolation> {
    let mut out = Vec::new();
    for (i, t) in f.toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = f.text(i);
        // Must be `AlignedVec::<name>` — plain `zeroed` methods on other
        // types are not allocation seams.
        if !RAW_ALLOC_CALLS.contains(&name)
            || !f.qualified_by(i, "AlignedVec")
            || f.next_code(i).is_none_or(|n| !f.is_punct(n, '('))
        {
            continue;
        }
        if !f.annotated(i, &["ALLOC:"]) {
            out.push(RawViolation {
                line: t.line,
                msg: format!(
                    "infallible allocation `{name}(…)` in a memory-accounted crate — use the \
                     `try_*` constructor (typed AllocError) or justify the abort-on-OOM path \
                     with an adjacent `// ALLOC:` comment"
                ),
            });
        }
    }
    out
}

fn check_clock_through_span_helpers(f: &FileCtx) -> Vec<RawViolation> {
    let mut out = Vec::new();
    for (i, t) in f.toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let read = match f.text(i) {
            "now_ns" => true,
            // `Instant::now`, called or passed as a function.
            "now" => f.qualified_by(i, "Instant"),
            _ => false,
        };
        if read {
            out.push(RawViolation {
                line: t.line,
                msg: "clock read in a convolution crate — take the timestamp through \
                      `wino_sched::probed::span_start(exec.probe())`, which reads the clock \
                      only when the run carries a collector"
                    .to_string(),
            });
        }
    }
    out
}

/// The keywords a `pub` item the caller rule checks starts with.
const ITEM_KEYWORDS: &[&str] = &["fn", "const", "static", "struct", "enum", "trait", "type"];

impl FileCtx<'_> {
    /// The code token after `pub` at `i` and its optional `(…)` restriction.
    fn after_pub(&self, i: usize) -> Option<(usize, bool)> {
        let j = self.next_code(i)?;
        if !self.is_punct(j, '(') {
            return Some((j, false));
        }
        let close = (j..self.toks.len()).find(|&k| self.is_punct(k, ')'))?;
        Some((self.next_code(close)?, true))
    }

    /// If the bare `pub` at `i` starts an item, the item's keyword and the
    /// index of its name.
    fn pub_item(&self, i: usize) -> Option<(&str, usize)> {
        let (mut j, restricted) = self.after_pub(i)?;
        if restricted {
            return None;
        }
        // Qualifiers: `const fn`, `unsafe`, `async`, `extern "C"`.
        while matches!(self.text(j), "unsafe" | "async" | "extern")
            || self.toks[j].kind == TokKind::Str
            || (self.text(j) == "const" && self.next_code(j).is_some_and(|n| self.text(n) == "fn"))
        {
            j = self.next_code(j)?;
        }
        let name = self.next_code(j)?;
        let is_item = self.toks[j].kind == TokKind::Ident && ITEM_KEYWORDS.contains(&self.text(j));
        (is_item && self.toks[name].kind == TokKind::Ident && self.text(name) != "_")
            .then(|| (self.text(j), name))
    }

    /// Per token: whether it is compiled only under test — inside a
    /// `mod tests { … }` or an item carrying `#[cfg(test)]`.
    fn test_mask(&self) -> Vec<bool> {
        let mut mask = vec![false; self.toks.len()];
        let code: Vec<usize> = (0..self.toks.len()).filter(|&i| !self.is_comment(i)).collect();
        let is = |w: &[usize], pat: &[&str]| {
            w.len() >= pat.len() && w.iter().zip(pat).all(|(&k, p)| self.text(k) == *p)
        };
        for (c, &i) in code.iter().enumerate() {
            let w = &code[c..];
            let end = if is(w, &["mod", "tests", "{"]) {
                self.close_brace(w[2])
            } else if is(w, &["#", "[", "cfg", "(", "test", ")", "]"]) {
                // The item ends at its first `;`, `,` or braced body
                // outside any `(…)` / `[…]`, past further attributes — or,
                // a field or struct-literal entry without a trailing `,`,
                // just before the `}` that closes the enclosing braces.
                let mut depth = 0i32;
                let mut end = self.toks.len();
                for &k in &w[7..] {
                    match self.text(k) {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        ";" | "," if depth == 0 => end = k,
                        "{" if depth == 0 => end = self.close_brace(k),
                        "}" if depth == 0 => end = k - 1,
                        _ => continue,
                    }
                    if end < self.toks.len() {
                        break;
                    }
                }
                end
            } else {
                continue;
            };
            mask[i..=end.min(self.toks.len() - 1)].fill(true);
        }
        mask
    }

    /// Per token: whether it is inside a `pub use …;` re-export.
    fn reexport_mask(&self) -> Vec<bool> {
        let mut mask = vec![false; self.toks.len()];
        for i in 0..self.toks.len() {
            if self.toks[i].kind != TokKind::Ident || self.text(i) != "pub" {
                continue;
            }
            if let Some((j, _)) = self.after_pub(i).filter(|&(j, _)| self.text(j) == "use") {
                let end = (j..self.toks.len()).find(|&k| self.is_punct(k, ';'));
                mask[i..=end.unwrap_or(self.toks.len() - 1)].fill(true);
            }
        }
        mask
    }
}

/// Whether `path` is in a crate's library or binary sources, where a
/// `pub` item is public surface.
fn defines_public_items(path: &str) -> bool {
    let mut parts = path.split('/');
    parts.next() == Some("crates") && parts.nth(1) == Some("src")
}

fn check_pub_needs_caller(files: &[FileCtx]) -> Vec<(usize, RawViolation)> {
    use std::collections::HashMap;
    // Every identifier token outside a re-export, workspace-wide, and per
    // file those inside its test code.
    let mut total: HashMap<&str, usize> = HashMap::new();
    let mut in_tests: Vec<HashMap<&str, usize>> = Vec::new();
    let mut test_masks = Vec::new();
    for f in files {
        let (test, reexport) = (f.test_mask(), f.reexport_mask());
        let mut tests = HashMap::new();
        for (i, t) in f.toks.iter().enumerate() {
            if t.kind == TokKind::Ident && !reexport[i] {
                *total.entry(f.text(i)).or_default() += 1;
                if test[i] {
                    *tests.entry(f.text(i)).or_default() += 1;
                }
            }
        }
        in_tests.push(tests);
        test_masks.push(test);
    }
    let mut out = Vec::new();
    for (fi, (f, test)) in files.iter().zip(&test_masks).enumerate() {
        if !defines_public_items(f.path) {
            continue;
        }
        let pubs = (0..f.toks.len())
            .filter(|&i| !test[i] && f.toks[i].kind == TokKind::Ident && f.text(i) == "pub");
        for (kw, n) in pubs.filter_map(|i| f.pub_item(i)) {
            let name = f.text(n);
            // Less the definition itself and its own file's tests.
            let callers = total[name] - 1 - in_tests[fi].get(name).copied().unwrap_or(0);
            if callers == 0 {
                out.push((fi, RawViolation {
                    line: f.toks[n].line,
                    msg: format!(
                        "`pub {kw} {name}` is named nowhere but its own file's tests — delete \
                         it, or move it into `mod tests`"
                    ),
                }));
            }
        }
    }
    out
}

/// The workspace rule table. Order is the reporting order.
pub static RULES: &[Rule] = &[
    Rule {
        id: "unsafe-needs-safety",
        summary: "every `unsafe` block/fn/impl carries an adjacent `// SAFETY:` justification",
        scope: Scope::All,
        allow: &[],
        check: Check::File(check_unsafe_needs_safety),
    },
    Rule {
        id: "relaxed-needs-ordering",
        summary: "every `Ordering::Relaxed` in the concurrency substrate carries `// ORDERING:`",
        // The substrate crates where a missing happens-before is a
        // correctness bug rather than a style preference.
        scope: Scope::Only(&["crates/sched", "crates/simd", "crates/serve"]),
        allow: &[AllowEntry {
            path: "crates/simd/src/denormals.rs",
            reason: "the ENGAGED guard counter is observability-only (read by tests and \
                     wino-probe after the guarded region ends); it orders nothing, so every \
                     `Relaxed` in the file would carry the same vacuous justification — the \
                     MXCSR state it describes is per-thread and needs no happens-before",
        }],
        check: Check::File(check_relaxed_needs_ordering),
    },
    Rule {
        id: "no-static-mut",
        summary: "`static mut` is forbidden workspace-wide",
        scope: Scope::All,
        allow: &[],
        check: Check::File(check_no_static_mut),
    },
    Rule {
        id: "no-transmute-outside-simd-jit",
        summary: "`mem::transmute` is confined to the SIMD and JIT crates",
        scope: Scope::Except(&["crates/simd", "crates/jit"]),
        allow: &[AllowEntry {
            path: "crates/sched/src/pool.rs",
            reason: "erases the job closure's lifetime into the type-erased JobPtr; soundness \
                     is the fork–join protocol proven by the model checker (no participant \
                     can dereference the pointer after `run` returns)",
        }],
        check: Check::File(check_no_transmute),
    },
    Rule {
        id: "target-feature-confined",
        summary: "`#[target_feature(…)]` is confined to the SIMD and JIT crates",
        // One dispatch mechanism: an ISA-specific function anywhere else
        // is a second code path that nothing proves the CPU can run.
        scope: Scope::Except(&["crates/simd", "crates/jit"]),
        allow: &[],
        check: Check::File(check_target_feature_confined),
    },
    Rule {
        id: "allow-needs-rationale",
        summary: "`#[allow(…)]` requires a rationale comment",
        scope: Scope::All,
        allow: &[],
        check: Check::File(check_allow_needs_rationale),
    },
    Rule {
        id: "drop-guard-protocol",
        summary: "`// PROTOCOL: drop-guard` types have a Drop whose state write dominates \
                  every exit",
        // Self-scoping: fires only where the tag appears, so it applies
        // everywhere a guard type might live.
        scope: Scope::All,
        allow: &[],
        check: Check::File(check_drop_guard_protocol),
    },
    Rule {
        id: "alloc-needs-accounting",
        summary: "raw infallible allocations in the accounted crates use `try_*` or carry \
                  `// ALLOC:`",
        // The crates whose buffers the memory-footprint model accounts
        // for: an unannotated infallible allocation there can abort the
        // process under memory pressure instead of returning the typed
        // refusal the degradation ladder and the serving layer's
        // per-batch failure handling rely on.
        scope: Scope::Only(&["crates/core", "crates/serve", "crates/tensor"]),
        allow: &[],
        check: Check::File(check_alloc_needs_accounting),
    },
    Rule {
        id: "clock-through-span-helpers",
        summary: "the convolution crates read the clock only through `wino_sched::probed`",
        // Whether a run is instrumented has one gate, `exec.probe()`; the
        // helpers honour it, a direct `now_ns()` / `Instant::now()` in a
        // stage or tile loop would be paid by every uninstrumented run.
        scope: Scope::Only(&["crates/core/src", "crates/baseline/src"]),
        allow: &[],
        check: Check::File(check_clock_through_span_helpers),
    },
    Rule {
        id: "no-blocking-under-lock",
        summary: "no blocking/spinning call while a spin-lock guard is live in serve/sched",
        scope: Scope::Only(&["crates/serve", "crates/sched"]),
        allow: &[],
        check: Check::File(check_no_blocking_under_lock),
    },
    Rule {
        id: "pub-needs-caller",
        summary: "a bare `pub` item in `crates/*/src` is named somewhere besides its own \
                  file's tests and `pub use` re-exports",
        // The callers may live in any workspace source; the check itself
        // only looks for definitions in `crates/*/src`.
        scope: Scope::All,
        allow: &[],
        check: Check::Corpus(check_pub_needs_caller),
    },
];

impl Rule {
    fn applies(&self, path: &str) -> bool {
        self.scope.applies(path) && !self.allow.iter().any(|a| a.path == path)
    }
}

/// Run every applicable per-file rule over one file.
pub fn lint_file(path: &str, src: &str) -> Vec<Violation> {
    let ctx = FileCtx::new(path, src);
    let mut out = Vec::new();
    for rule in RULES {
        let Check::File(check) = rule.check else { continue };
        if !rule.applies(path) {
            continue;
        }
        for rv in check(&ctx) {
            out.push(Violation { path: path.to_string(), line: rv.line, rule: rule.id, msg: rv.msg });
        }
    }
    out.sort_by_key(|v| v.line);
    out
}

/// Run every cross-file rule over `files`, the whole set of sources the
/// rules may look for callers in.
pub(crate) fn lint_corpus(files: &[FileCtx]) -> Vec<Violation> {
    let mut out = Vec::new();
    for rule in RULES {
        let Check::Corpus(check) = rule.check else { continue };
        for (i, rv) in check(files) {
            let path = files[i].path;
            if rule.applies(path) {
                out.push(Violation { path: path.to_string(), line: rv.line, rule: rule.id, msg: rv.msg });
            }
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(path: &str, src: &str) -> Vec<(&'static str, u32)> {
        lint_file(path, src).into_iter().map(|v| (v.rule, v.line)).collect()
    }

    #[test]
    fn annotated_unsafe_passes() {
        let src = "fn f() {\n    // SAFETY: index is bounds-checked above\n    let x = unsafe { *p.add(1) };\n}\n";
        assert_eq!(ids("crates/x/src/lib.rs", src), vec![]);
    }

    #[test]
    fn bare_unsafe_fails() {
        let src = "fn f() {\n    let x = unsafe { *p.add(1) };\n}\n";
        assert_eq!(ids("crates/x/src/lib.rs", src), vec![("unsafe-needs-safety", 2)]);
    }

    #[test]
    fn trailing_safety_comment_passes() {
        let src = "fn f() {\n    let x = unsafe { g() }; // SAFETY: g has no preconditions\n}\n";
        assert_eq!(ids("crates/x/src/lib.rs", src), vec![]);
    }

    #[test]
    fn safety_doc_section_passes() {
        let src = "/// Does things.\n///\n/// # Safety\n/// Caller must own the buffer.\npub unsafe fn f() {}\n";
        assert_eq!(ids("crates/x/src/lib.rs", src), vec![]);
    }

    #[test]
    fn unsafe_in_string_or_ident_is_ignored() {
        let src = "fn unsafe_fn() { let s = \"unsafe\"; let r = r#\"unsafe {}\"#; }\n";
        assert_eq!(ids("crates/x/src/lib.rs", src), vec![]);
    }

    #[test]
    fn safety_in_string_does_not_annotate() {
        let src = "fn f() {\n    let s = \"// SAFETY: fake\"; let x = unsafe { g() };\n}\n";
        assert_eq!(ids("crates/x/src/lib.rs", src), vec![("unsafe-needs-safety", 2)]);
    }

    #[test]
    fn previous_statement_boundary_blocks_stale_comment() {
        let src = "fn f() {\n    // SAFETY: for the first one only\n    unsafe { a() };\n    let _ = 1;\n    unsafe { b() };\n}\n";
        assert_eq!(ids("crates/x/src/lib.rs", src), vec![("unsafe-needs-safety", 5)]);
    }

    #[test]
    fn relaxed_rule_only_in_substrate_crates() {
        let src = "fn f(a: &AtomicUsize) { a.store(0, Ordering::Relaxed); }\n";
        assert_eq!(ids("crates/sched/src/x.rs", src), vec![("relaxed-needs-ordering", 1)]);
        assert_eq!(ids("crates/gemm/src/x.rs", src), vec![]);
    }

    #[test]
    fn relaxed_with_ordering_comment_passes() {
        let src = "fn f(a: &AtomicUsize) {\n    // ORDERING: counter is only read after join\n    a.store(0, Ordering::Relaxed);\n}\n";
        assert_eq!(ids("crates/sched/src/x.rs", src), vec![]);
    }

    #[test]
    fn non_ordering_relaxed_ident_is_ignored() {
        let src = "enum Mode { Relaxed } fn f() { let _ = Mode::Relaxed; }\n";
        assert_eq!(ids("crates/sched/src/x.rs", src), vec![]);
    }

    #[test]
    fn static_mut_forbidden_but_static_lifetime_fine() {
        let src = "static mut G: u32 = 0;\nfn f(s: &'static mut u32) {}\nstatic OK: u32 = 1;\n";
        assert_eq!(ids("crates/x/src/lib.rs", src), vec![("no-static-mut", 1)]);
    }

    #[test]
    fn transmute_scoped_and_allowlisted() {
        let src = "fn f() {\n    // SAFETY: same layout\n    let x = unsafe { std::mem::transmute::<u32, f32>(1) };\n}\n";
        assert_eq!(ids("crates/gemm/src/x.rs", src), vec![("no-transmute-outside-simd-jit", 3)]);
        assert_eq!(ids("crates/simd/src/x.rs", src), vec![]);
        assert_eq!(ids("crates/jit/src/x.rs", src), vec![]);
        // Allowlisted file: suppressed.
        assert_eq!(ids("crates/sched/src/pool.rs", src), vec![]);
    }

    #[test]
    fn relaxed_allowlist_covers_the_denormal_guard_file() {
        // Allowlist mechanics: the same bare `Relaxed` that fires in an
        // arbitrary simd file is suppressed in the allowlisted one — and
        // only the `relaxed-needs-ordering` rule is relaxed there; an
        // unannotated `unsafe` in that file must still fire.
        let src = "fn f(a: &AtomicU64) { a.store(0, Ordering::Relaxed); }\n";
        assert_eq!(ids("crates/simd/src/x.rs", src), vec![("relaxed-needs-ordering", 1)]);
        assert_eq!(ids("crates/simd/src/denormals.rs", src), vec![]);
        let src = "fn f() { unsafe { g() }; }\n";
        assert_eq!(
            ids("crates/simd/src/denormals.rs", src),
            vec![("unsafe-needs-safety", 1)]
        );
    }

    #[test]
    fn every_allow_entry_names_an_existing_file_with_a_reason() {
        // Allowlist hygiene: entries must not outlive the files they
        // exempt, and each must record a non-trivial reason.
        let root = crate::lint::default_root().expect("workspace root");
        for rule in RULES {
            for a in rule.allow {
                assert!(
                    root.join(a.path).is_file(),
                    "[{}] allowlist entry {} names a missing file",
                    rule.id,
                    a.path
                );
                assert!(
                    a.reason.len() > 20,
                    "[{}] allowlist entry {} needs a real reason",
                    rule.id,
                    a.path
                );
            }
        }
    }

    #[test]
    fn drop_guard_with_dominating_write_passes() {
        let src = "// PROTOCOL: drop-guard\nstruct G { s: AtomicUsize }\nimpl Drop for G {\n    fn drop(&mut self) {\n        self.s.store(1, Ordering::Release);\n        if self.s.load(Ordering::Acquire) > 9 { return; }\n    }\n}\n";
        assert_eq!(ids("crates/serve/src/x.rs", src), vec![]);
    }

    #[test]
    fn drop_guard_tag_on_impl_passes() {
        let src = "struct G { s: AtomicUsize }\n// PROTOCOL: drop-guard — resolve is the state write\nimpl<A: Atomics> Drop for G {\n    fn drop(&mut self) { self.s.resolve(1); }\n}\n";
        assert_eq!(ids("crates/serve/src/x.rs", src), vec![]);
    }

    #[test]
    fn drop_guard_early_return_fails() {
        let src = "// PROTOCOL: drop-guard\nstruct G { s: AtomicUsize, armed: bool }\nimpl Drop for G {\n    fn drop(&mut self) {\n        if !self.armed {\n            return;\n        }\n        self.s.store(1, Ordering::Release);\n    }\n}\n";
        assert_eq!(ids("crates/serve/src/x.rs", src), vec![("drop-guard-protocol", 6)]);
    }

    #[test]
    fn drop_guard_missing_drop_impl_fails() {
        let src = "// PROTOCOL: drop-guard\npub struct G { s: AtomicUsize }\n";
        assert_eq!(ids("crates/serve/src/x.rs", src), vec![("drop-guard-protocol", 1)]);
    }

    #[test]
    fn drop_guard_without_state_write_fails() {
        let src = "// PROTOCOL: drop-guard\nstruct G;\nimpl Drop for G {\n    fn drop(&mut self) { log(self); }\n}\n";
        assert_eq!(ids("crates/serve/src/x.rs", src), vec![("drop-guard-protocol", 1)]);
    }

    #[test]
    fn drop_guard_prose_mention_is_not_a_tag() {
        let src = "/// Mentions the PROTOCOL: drop-guard idiom in prose only.\nfn f() {}\n";
        assert_eq!(ids("crates/serve/src/x.rs", src), vec![]);
    }

    #[test]
    fn blocking_under_live_guard_fails() {
        let src = "fn f(q: &Q) {\n    let _g = q.acquire();\n    let _ = A::spin(&mut s, None);\n}\n";
        assert_eq!(ids("crates/serve/src/x.rs", src), vec![("no-blocking-under-lock", 3)]);
        // Out of scope: the same pattern elsewhere is not linted.
        assert_eq!(ids("crates/gemm/src/x.rs", src), vec![]);
    }

    #[test]
    fn blocking_after_guard_scope_closes_passes() {
        let src = "fn f(q: &Q) {\n    {\n        let _g = q.acquire();\n        q.len();\n    }\n    q.take_blocking();\n}\n";
        assert_eq!(ids("crates/serve/src/x.rs", src), vec![]);
    }

    #[test]
    fn explicit_drop_releases_the_guard() {
        let src = "fn f(q: &Q) {\n    let g = q.acquire();\n    drop(g);\n    q.take_blocking();\n}\n";
        assert_eq!(ids("crates/serve/src/x.rs", src), vec![]);
    }

    #[test]
    fn blocking_annotation_escape_is_honoured() {
        let src = "fn f(q: &Q) {\n    let _g = q.acquire();\n    // BLOCKING: bounded by the watchdog; holder is the only consumer\n    let _ = A::spin(&mut s, Some(age));\n}\n";
        assert_eq!(ids("crates/serve/src/x.rs", src), vec![]);
    }

    #[test]
    fn raw_alloc_in_accounted_crates_fails() {
        let src = "fn f(len: usize) -> AlignedVec { AlignedVec::zeroed(len) }\n";
        assert_eq!(ids("crates/core/src/x.rs", src), vec![("alloc-needs-accounting", 1)]);
        assert_eq!(ids("crates/tensor/src/x.rs", src), vec![("alloc-needs-accounting", 1)]);
        // Out of scope: the substrate and bench crates allocate freely.
        assert_eq!(ids("crates/simd/src/x.rs", src), vec![]);
        assert_eq!(ids("crates/bench/src/x.rs", src), vec![]);
    }

    #[test]
    fn try_constructors_and_alloc_annotations_pass() {
        let src = "fn f(len: usize) -> Result<AlignedVec, AllocError> {\n    AlignedVec::try_zeroed(len)\n}\n";
        assert_eq!(ids("crates/core/src/x.rs", src), vec![]);
        let src = "fn f(len: usize) -> AlignedVec {\n    // ALLOC: plan-time constructor; callers size-check against the budget first\n    AlignedVec::zeroed(len)\n}\n";
        assert_eq!(ids("crates/core/src/x.rs", src), vec![]);
        let src = "fn f(len: usize) -> AlignedVec { AlignedVec::zeroed(len) } // ALLOC: test helper\n";
        assert_eq!(ids("crates/core/src/x.rs", src), vec![]);
    }

    #[test]
    fn unqualified_zeroed_methods_are_not_allocations() {
        // `.zeroed()` on some other type, `Mask::zeroed`, or prose in a
        // comment must not fire; only the AlignedVec seam counts.
        let src = "fn f(m: &Mask) { let _ = Mask::zeroed(3); let _ = m.uninit(); }\n// AlignedVec::zeroed in prose\nfn g() {}\n";
        assert_eq!(ids("crates/core/src/x.rs", src), vec![]);
    }

    #[test]
    fn clock_reads_in_the_convolution_crates_go_through_the_span_helpers() {
        let rule = "clock-through-span-helpers";
        let src = "fn f() {\n    let t0 = wino_probe::now_ns();\n    let t1 = std::time::Instant::now();\n    let e = EPOCH.get_or_init(Instant::now);\n}\n";
        assert_eq!(ids("crates/core/src/x.rs", src), vec![(rule, 2), (rule, 3), (rule, 4)]);
        assert_eq!(ids("crates/baseline/src/x.rs", src), vec![(rule, 2), (rule, 3), (rule, 4)]);
        // Out of scope: the helpers' own crate, the clock's, the harnesses.
        assert_eq!(ids("crates/sched/src/probed.rs", src), vec![]);
        assert_eq!(ids("crates/probe/src/clock.rs", src), vec![]);
        assert_eq!(ids("crates/bench/src/x.rs", src), vec![]);
        // The helpers, another type's `now`, and prose are not clock reads.
        let src = "fn f(exec: &dyn Executor) {\n    let t0 = span_start(exec.probe());\n    let d = Date::now();\n    let s = \"Instant::now() now_ns()\"; // now_ns()\n}\n";
        assert_eq!(ids("crates/core/src/x.rs", src), vec![]);
    }

    #[test]
    fn pub_needs_caller_counts_other_files_but_not_its_own_tests() {
        let lib = "pub fn used() {}\npub fn tested() {}\n#[cfg(test)]\nmod tests {\n    fn t() { super::tested(); }\n}\n";
        let caller = "fn main() { wino_x::used(); }\n";
        let corpus = |files: &[(&'static str, &'static str)]| {
            let ctxs: Vec<FileCtx> = files.iter().map(|&(p, s)| FileCtx::new(p, s)).collect();
            lint_corpus(&ctxs).into_iter().map(|v| (v.rule, v.line)).collect::<Vec<_>>()
        };
        let lib_path = "crates/x/src/lib.rs";
        assert_eq!(corpus(&[(lib_path, lib), ("crates/x/tests/t.rs", caller)]), [
            ("pub-needs-caller", 2)
        ]);
        // Only `crates/*/src` is public surface.
        assert_eq!(corpus(&[("crates/x/tests/t.rs", lib)]), []);
    }

    #[test]
    fn a_cfg_test_field_masks_only_itself() {
        // A `#[cfg(test)]` field (with and without a trailing `,`) and
        // struct-literal entry end at their own `,` / closing brace: the
        // `impl` after them is not test code, so its uncalled `pub fn` is
        // flagged and the calls inside it count.
        let lib = "pub struct Host {\n    a: u8,\n    #[cfg(test)]\n    pin: Option<u8>,\n}\npub struct Pair {\n    #[cfg(test)]\n    b: u8\n}\nfn host() -> Host {\n    Host {\n        a: 0,\n        #[cfg(test)]\n        pin: None,\n    }\n}\nimpl Host {\n    pub fn uncalled(&self) {}\n    pub fn called(&self) { helper(); }\n}\npub fn helper() {}\n";
        let caller = "fn main() { let p: wino_x::Pair; wino_x::host().called(); }\n";
        let ctxs = [FileCtx::new("crates/x/src/lib.rs", lib), FileCtx::new("crates/x/tests/t.rs", caller)];
        let found: Vec<_> = lint_corpus(&ctxs).into_iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(found, [("pub-needs-caller", 18)]);
    }

    #[test]
    fn allow_without_rationale_fails() {
        let src = "#[allow(clippy::type_complexity)]\nfn f() {}\n";
        assert_eq!(ids("crates/x/src/lib.rs", src), vec![("allow-needs-rationale", 1)]);
    }

    #[test]
    fn allow_with_trailing_or_above_rationale_passes() {
        let src = "#[allow(clippy::too_many_arguments)] // mirrors the table columns\nfn f() {}\n// the pairing search state is inherently nested\n#[allow(clippy::type_complexity)]\nfn g() {}\n";
        assert_eq!(ids("crates/x/src/lib.rs", src), vec![]);
    }

    #[test]
    fn target_feature_attribute_is_confined_to_simd_and_jit() {
        let src = "#[target_feature(enable = \"avx2\")]\nfn f() {}\n";
        assert_eq!(ids("crates/core/src/x.rs", src), vec![("target-feature-confined", 1)]);
        assert!(ids("crates/simd/src/avx2.rs", src).is_empty());
        assert!(ids("crates/jit/src/x.rs", src).is_empty());
        // The cfg predicate and prose are not the attribute.
        let src = "#[cfg(target_feature = \"avx2\")]\nfn f() { let _ = \"#[target_feature(\"; }\n";
        assert!(ids("crates/core/src/x.rs", src).is_empty());
    }
}
