//! `lint` — a workspace-specific invariant checker for the Megh reproduction.
//!
//! The Megh decision loop earns its contracts (allocation-free in steady
//! state, deterministic under a seed, free of explicit panic paths) by
//! convention; this crate makes the conventions machine-enforced. A
//! decide costs 48–300 µs on a trained agent (`benchmark/baseline.json`,
//! dominated by the θ scan in `BoltzmannPolicy::sample`), so the point is
//! not a latency number but that an allocation, a `HashMap` or an
//! `unwrap` cannot slip into the loop unreviewed. The checker has two
//! layers and stops at the call graph:
//!
//! 1. **Token rules**: a hand-rolled line lexer strips string literals
//!    and comments, then a rule table matches forbidden tokens per scope.
//! 2. **Call-graph rules**: a recursive-descent item parser over the
//!    same lexer extracts `fn` items, `impl` blocks, struct fields, and
//!    intra-workspace call edges; a fixed-point pass then propagates three
//!    transitive properties — *may-allocate*, *may-panic*, *nondeterminism
//!    taint* — so a `deny_alloc` function calling an allocating helper in an
//!    *unmarked* file is caught across the crate boundary. Receiver
//!    resolution is typed-lite (parameter types, struct field tables,
//!    local inference) and over-approximates by name when the type is
//!    unknown. The same graph measures `depth_budget(N)` call depths.
//!
//! What it does **not** do is reason about values. Implicit panics —
//! `a[i]`, `&s[lo..hi]`, integer `/` and `%` — are the compiler's job:
//! every [`HOT_PATH_FILES`] module and the serve daemon carries
//! [`PANIC_FREE_ATTR`], so `cargo clippy -- -D warnings` rejects such a
//! site outright, and the kernels are written with `get`, `zip`,
//! `chunks_exact` and `NonZeroUsize` instead. This crate only checks that
//! the attribute is still there (`hot_path_marker`). See DESIGN §14.
//!
//! The analyzer also emits the committed `LINT_REPORT.json` artifact
//! (per-rule counts, per-function property table, allow inventory, depth
//! budgets) and a `lint-diff` mode against it — see [`report`] and the
//! `lint` binary.
//!
//! # Annotation grammar
//!
//! Rules are steered by `// lint:` comment directives:
//!
//! * `// lint: deny_alloc` — file-level marker: this module participates in
//!   the no-alloc rule (heap-constructor tokens become violations) and its
//!   functions join the transitive property table.
//! * `// lint: allow(<name>, ...)` — escape hatch. Placed on the offending
//!   line, or alone on the line directly above it. Token-rule names:
//!   `alloc`, `nondet`, `panic`, `missing_docs`, `unsafe_code`. Graph-rule
//!   names (placed on the `fn` signature line, or alone directly above it):
//!   `transitive_alloc`, `transitive_panic`, `transitive_nondet` — these
//!   vouch for the function's whole call subtree and stop propagation
//!   through it — and `call_depth_budget`.
//! * `// lint: depth_budget(N)` — on a `fn` signature line, or alone
//!   directly above it: the function's longest transitive workspace call
//!   chain must stay ≤ `N`.
//!
//! Every allow directive is tracked: one that no longer suppresses a
//! violation or a propagated fact is itself reported (`dead_allow`), so
//! escape hatches cannot quietly outlive the code they excused.
//!
//! # Rule classes
//!
//! | rule                 | scope                                    | forbids |
//! |----------------------|------------------------------------------|---------|
//! | `alloc`              | files marked `deny_alloc`                | heap-constructor tokens (`Vec::new`, `vec!`, `Box::new`, `format!`, `collect`, `clone`, ...) |
//! | `nondet`             | `crates/{core,sim,baselines}/src`        | `HashMap`/`HashSet` (iteration order is seeded per-process), `Instant::now`, `SystemTime::now`, thread-local RNG, free `thread::spawn` (scoped spawns with seed-ordered merges, as in `sim::sweep`, are the sanctioned pattern) |
//! | `panic`              | `crates/{core,sim,linalg,baselines}/src` | `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` and non-total `partial_cmp` comparisons; in `crates/bench/src` only the `partial_cmp` token fires (fail-fast `expect` is idiomatic in experiment binaries, NaN-panicking sort comparators are not) |
//! | `missing_docs`       | `crates/{core,linalg}/src`               | `pub fn` without a preceding doc comment |
//! | `unsafe_code`        | every scanned file                       | the `unsafe` keyword outside the annotated allowlist |
//! | `hot_path_marker`    | [`HOT_PATH_FILES`] and the serve daemon  | *absence* of the `// lint: deny_alloc` marker (hot-path files) or of the [`PANIC_FREE_ATTR`] line (all of them) — a decision-hot-path module cannot silently opt out of the alloc rule or of clippy's indexing/division gate by dropping a line |
//! | `transitive_alloc`   | functions in `deny_alloc` files          | reaching an (unallowed) allocating function through any call chain |
//! | `transitive_panic`   | `deny_alloc` files in the `panic` scope  | reaching a potentially panicking function |
//! | `transitive_nondet`  | `deny_alloc` files in the `nondet` scope | reaching a nondeterministic function |
//! | `call_depth_budget`  | functions carrying `depth_budget(N)`     | a transitive workspace call chain longer than `N` (recursion counts as unbounded) |
//! | `dead_allow`         | every scanned file                       | an `allow(...)` directive that suppresses nothing |
//!
//! Test code is exempt from all of it: `#[cfg(test)]` modules are skipped by
//! brace tracking (their functions also stay out of the call graph), and
//! `tests/` / `benches/` / `src/bin` directories are outside the library
//! scopes. The call graph is additionally *cfg-aware*: a function carrying
//! its own `#[cfg(...)]` attribute (feature-gated verification helpers,
//! platform-specific code) is not part of the always-on build, so it is
//! excluded from the graph — conditionally compiled cold paths need no
//! manual `allow(transitive_*)` vouches.
//!
//! An *allowed* token suppresses the propagated fact too: the annotation
//! means a human vetted that line, so the vetted construct does not taint
//! callers. The transitive rules therefore catch exactly the silent case —
//! forbidden constructs in files where no rule (and no reviewer) was
//! watching.

// No unsafe code anywhere in this crate (also enforced by `cargo run -p lint`).
#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

mod fix;
mod graph;
mod items;
pub mod report;

pub use fix::{fix_root, fix_sources};

pub use report::{
    diff_reports, render_diff, AllowEntry, DepthBudgetEntry, FnEntry, LintReport, ReportDiff,
    ReportStats, RuleCount, REPORT_FILE, SCHEMA_VERSION,
};

/// Every rule class, in the fixed order the report counts them.
pub const RULES: &[&str] = &[
    "alloc",
    "nondet",
    "panic",
    "missing_docs",
    "unsafe_code",
    "hot_path_marker",
    "transitive_alloc",
    "transitive_panic",
    "transitive_nondet",
    "dead_allow",
    "call_depth_budget",
];

/// Rule (and allow) names of the transitive variants, class-aligned
/// with the analyzer's property arrays (0 = alloc, 1 = panic,
/// 2 = nondet).
pub(crate) const TRANSITIVE_RULES: [&str; 3] =
    ["transitive_alloc", "transitive_panic", "transitive_nondet"];

/// Verb phrases for transitive-violation messages, class-aligned.
pub(crate) const CLASS_WORDS: [&str; 3] = [
    "may transitively allocate",
    "may transitively panic",
    "is transitively nondeterministic",
];

/// One rule breach at a specific file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule class name (also the `allow(...)` escape-hatch name).
    pub rule: &'static str,
    /// Human-readable explanation, including the matched token.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A source line after lexing: executable code with literals blanked, plus
/// the comment text (where `lint:` directives live).
#[derive(Debug, Default, Clone)]
pub(crate) struct LexedLine {
    /// Code with string/char-literal contents replaced by spaces and all
    /// comments removed.
    pub(crate) code: String,
    /// Concatenated comment text for this line (no `//` / `/*` markers).
    pub(crate) comment: String,
    /// True when the line's comment is a doc comment (`///`, `//!`, `/**`).
    pub(crate) is_doc: bool,
}

impl LexedLine {
    fn has_code(&self) -> bool {
        !self.code.trim().is_empty()
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Normal,
    LineComment { doc: bool },
    BlockComment { doc: bool, depth: usize },
    Str,
    RawStr { hashes: usize },
    Char,
}

/// Split `source` into [`LexedLine`]s, blanking string/char literals and
/// routing comments into the `comment` field.
pub(crate) fn lex(source: &str) -> Vec<LexedLine> {
    let mut lines: Vec<LexedLine> = Vec::new();
    let mut cur = LexedLine::default();
    let mut mode = Mode::Normal;
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0usize;

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            // Line comments end at the newline; other modes carry over.
            if matches!(mode, Mode::LineComment { .. }) {
                mode = Mode::Normal;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match mode {
            Mode::Normal => {
                let next = chars.get(i + 1).copied();
                let next2 = chars.get(i + 2).copied();
                if c == '/' && next == Some('/') {
                    let doc = matches!(next2, Some('/') | Some('!'))
                        // `////` dividers are plain comments, not docs.
                        && !(next2 == Some('/') && chars.get(i + 3) == Some(&'/'));
                    if doc {
                        cur.is_doc = true;
                    }
                    mode = Mode::LineComment { doc };
                    i += 2;
                    if doc {
                        i += 1;
                    }
                } else if c == '/' && next == Some('*') {
                    let doc =
                        matches!(next2, Some('*') | Some('!')) && chars.get(i + 3) != Some(&'/');
                    if doc {
                        cur.is_doc = true;
                    }
                    mode = Mode::BlockComment { doc, depth: 1 };
                    i += 2;
                } else if c == 'r' && (next == Some('"') || next == Some('#')) {
                    // Possible raw string r"..." / r#"..."#; only if `r` is
                    // not part of an identifier (e.g. `var#` is not Rust).
                    let prev_ident =
                        i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
                    let mut j = i + 1;
                    let mut hashes = 0usize;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if !prev_ident && chars.get(j) == Some(&'"') {
                        cur.code.push('"');
                        mode = Mode::RawStr { hashes };
                        i = j + 1;
                    } else {
                        cur.code.push(c);
                        i += 1;
                    }
                } else if c == '"' {
                    cur.code.push('"');
                    mode = Mode::Str;
                    i += 1;
                } else if c == '\'' {
                    // Distinguish a char literal from a lifetime: a literal
                    // closes with `'` after one (possibly escaped) char.
                    let is_char_lit = match next {
                        Some('\\') => true,
                        Some(_) => next2 == Some('\''),
                        None => false,
                    };
                    if is_char_lit {
                        cur.code.push('\'');
                        mode = Mode::Char;
                        i += 1;
                    } else {
                        cur.code.push(c);
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            Mode::LineComment { .. } => {
                cur.comment.push(c);
                i += 1;
            }
            Mode::BlockComment { doc, depth } => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment {
                        doc,
                        depth: depth + 1,
                    };
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    if depth == 1 {
                        mode = Mode::Normal;
                    } else {
                        mode = Mode::BlockComment {
                            doc,
                            depth: depth - 1,
                        };
                    }
                    i += 2;
                } else {
                    if doc {
                        cur.is_doc = true;
                    }
                    cur.comment.push(c);
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    // Never jump over a newline: the top of the loop counts it.
                    i += if chars.get(i + 1) == Some(&'\n') {
                        1
                    } else {
                        2
                    };
                } else if c == '"' {
                    cur.code.push('"');
                    mode = Mode::Normal;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            Mode::RawStr { hashes } => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0usize;
                    while seen < hashes && chars.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        cur.code.push('"');
                        mode = Mode::Normal;
                        i = j;
                    } else {
                        i += 1;
                    }
                } else {
                    i += 1;
                }
            }
            Mode::Char => {
                if c == '\\' {
                    i += if chars.get(i + 1) == Some(&'\n') {
                        1
                    } else {
                        2
                    };
                } else if c == '\'' {
                    cur.code.push('\'');
                    mode = Mode::Normal;
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    lines.push(cur);
    lines
}

/// Number of physical lines the lexer produces for `source` — exposed
/// for property tests (the lexer itself is crate-private).
pub fn lexed_line_count(source: &str) -> usize {
    lex(source).len()
}

/// Directives parsed from one line's comments.
#[derive(Debug, Default, Clone)]
pub(crate) struct Directives {
    deny_alloc: bool,
    allows: Vec<String>,
    /// `depth_budget(N)`: ceiling on the transitive call depth of the
    /// function whose signature shares this line.
    depth_budget: Option<u64>,
}

fn parse_directives(comment: &str) -> Directives {
    let mut out = Directives::default();
    let mut rest = comment;
    while let Some(pos) = rest.find("lint:") {
        let body = rest[pos + 5..].trim_start();
        if body.starts_with("deny_alloc") {
            out.deny_alloc = true;
        } else if let Some(args) = body.strip_prefix("allow(") {
            if let Some(end) = args.find(')') {
                for name in args[..end].split(',') {
                    let name = name.trim();
                    if !name.is_empty() {
                        out.allows.push(name.to_string());
                    }
                }
            }
        } else if let Some(args) = body.strip_prefix("depth_budget(") {
            if let Some(end) = args.find(')') {
                out.depth_budget = args[..end].trim().parse().ok();
            }
        }
        rest = &rest[pos + 5..];
    }
    out
}

/// Whether `code` contains `token` at a position where it is not part of a
/// longer identifier (so `expect(` does not match `expect_err(`, and
/// `unsafe` does not match `unsafe_code` inside an attribute).
fn has_token(code: &str, token: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0usize;
    while let Some(pos) = code[start..].find(token) {
        let at = start + pos;
        // Method-call tokens start with `.`: the receiver before them is
        // legitimately an identifier, so only non-dotted tokens need a
        // left boundary.
        let before_ok = token.starts_with('.') || at == 0 || {
            let b = bytes[at - 1] as char;
            !(b.is_alphanumeric() || b == '_')
        };
        let end = at + token.len();
        let after_ok = end >= bytes.len() || {
            let a = bytes[end] as char;
            // Tokens ending in `(`, `!` or `<` are already delimited.
            let last = token.as_bytes()[token.len() - 1] as char;
            if last == '(' || last == '!' || last == '<' {
                true
            } else {
                !(a.is_alphanumeric() || a == '_')
            }
        };
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

/// Rule scopes derived from the workspace-relative path.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    /// `panic` rule applies (library source of core/sim/linalg/baselines).
    pub no_panic: bool,
    /// The NaN-comparison subset of the `panic` rule applies: only the
    /// `.partial_cmp(` token fires. Covers `crates/bench` (including its
    /// binaries), where fail-fast `unwrap`/`expect` is idiomatic but a
    /// `partial_cmp(..).unwrap()` sort comparator is the exact NaN panic
    /// class the full-scope crates purged.
    pub nan_cmp: bool,
    /// `nondet` rule applies (decision-path crates core/sim/baselines).
    pub deterministic: bool,
    /// `missing_docs` rule applies (public API of core/linalg).
    pub docs: bool,
    /// `unsafe_code` rule applies (all scanned files).
    pub no_unsafe: bool,
}

/// Compute which rule classes apply to a workspace-relative path.
pub fn scope_for(rel_path: &str) -> Scope {
    let rel = rel_path.replace('\\', "/");
    let in_src = |krate: &str| rel.starts_with(&format!("crates/{krate}/src/"));
    Scope {
        no_panic: ["core", "sim", "linalg", "baselines"]
            .iter()
            .any(|c| in_src(c)),
        nan_cmp: in_src("bench"),
        deterministic: ["core", "sim", "baselines"].iter().any(|c| in_src(c)),
        docs: ["core", "linalg"].iter().any(|c| in_src(c)),
        no_unsafe: true,
    }
}

const ALLOC_TOKENS: &[&str] = &[
    "Vec::new",
    "Vec::with_capacity",
    "vec!",
    "Box::new",
    "format!",
    "String::new",
    "String::from",
    ".to_vec(",
    ".to_string(",
    ".to_owned(",
    ".collect(",
    ".collect::<",
    ".clone(",
];

const NONDET_TOKENS: &[&str] = &[
    "HashMap",
    "HashSet",
    "RandomState",
    "Instant::now",
    "SystemTime::now",
    "thread_rng",
    "from_entropy",
    // Free-threaded spawn completes in scheduler order. Parallelism in
    // the decision-path crates must use scoped spawns whose results are
    // merged in a deterministic order (see `megh-sim::sweep`).
    "thread::spawn",
];

/// Decision-hot-path modules that must carry the file-level
/// `// lint: deny_alloc` marker and the [`PANIC_FREE_ATTR`] line (the
/// `hot_path_marker` rule).
///
/// Both regimes are opt-in per file; without this list a hot-path
/// module could silently leave either by dropping one line. These are
/// the Sherman–Morrison product kernels (DOK), the Boltzmann policy,
/// the agents' decide paths, the streaming trace-source layer, and the
/// per-step simulation accounting kernels.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/agent.rs",
    "crates/core/src/hier.rs",
    "crates/core/src/lspi.rs",
    "crates/core/src/policy.rs",
    "crates/linalg/src/dok.rs",
    "crates/linalg/src/sherman.rs",
    "crates/linalg/src/sparse_vec.rs",
    "crates/sim/src/step.rs",
    "crates/trace/src/source.rs",
];

/// The serve daemon allocates per request, so it is not `deny_alloc`,
/// but a long-running process must not die on an index or a division
/// either: `hot_path_marker` requires [`PANIC_FREE_ATTR`] of it too.
const DAEMON_FILE: &str = "crates/serve/src/daemon.rs";

/// The inner attribute that hands implicit panics to clippy: outside
/// test builds, `a[i]`, `&s[a..b]` and integer `/` / `%` do not compile
/// under `cargo clippy -- -D warnings`. Spelt without whitespace, and
/// matched against the file's code with whitespace removed, because
/// rustfmt wraps the attribute over four lines.
pub const PANIC_FREE_ATTR: &str = "#![cfg_attr(not(test),deny(clippy::indexing_slicing,clippy::integer_division_remainder_used))]";

const PANIC_TOKENS: &[&str] = &[
    ".unwrap(",
    ".expect(",
    ".expect_err(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
    ".partial_cmp(",
];

/// One scanned file: token-level results plus everything the call-graph
/// pass needs (parsed items, per-line facts, allow bookkeeping).
pub(crate) struct FileScan {
    pub(crate) rel_path: String,
    pub(crate) scope: Scope,
    pub(crate) deny_alloc: bool,
    lines: Vec<LexedLine>,
    directives: Vec<Directives>,
    pub(crate) parsed: items::ParsedFile,
    /// Per line, per class (alloc/panic/nondet): the first *unallowed*
    /// forbidden token, i.e. a fact that propagates through the graph.
    pub(crate) line_facts: Vec<[Option<&'static str>; 3]>,
    /// Direct (token-level) violations, in line order.
    violations: Vec<Violation>,
    /// Every allow directive outside tests/doc comments: (line idx, name).
    allow_sites: Vec<(usize, String)>,
    /// Directive occurrences that suppressed something real.
    used: BTreeSet<(usize, String)>,
}

impl FileScan {
    /// Directive lookup for line `idx`: inline on the line itself wins,
    /// else a directive alone on the directly preceding (code-free)
    /// line. Returns the directive's line index.
    pub(crate) fn allow_site(&self, idx: usize, name: &str) -> Option<usize> {
        allow_site(&self.lines, &self.directives, idx, name)
    }

    /// Marks the directive at `idx` as live for `name`.
    pub(crate) fn credit(&mut self, idx: usize, name: &str) {
        self.used.insert((idx, name.to_string()));
    }

    /// The `depth_budget(N)` directive for the signature at line `idx`:
    /// inline on the line itself, or alone on the directly preceding
    /// (code-free) comment line — same placement grammar as `allow`,
    /// so rustfmt-driven comment relocation cannot detach a budget.
    pub(crate) fn depth_budget_at(&self, idx: usize) -> Option<u64> {
        if let Some(budget) = self.directives.get(idx).and_then(|d| d.depth_budget) {
            return Some(budget);
        }
        if idx > 0 && !self.lines[idx - 1].has_code() {
            return self.directives[idx - 1].depth_budget;
        }
        None
    }
}

fn allow_site(
    lines: &[LexedLine],
    directives: &[Directives],
    idx: usize,
    name: &str,
) -> Option<usize> {
    if directives
        .get(idx)
        .is_some_and(|d| d.allows.iter().any(|a| a == name))
    {
        return Some(idx);
    }
    if idx > 0 && !lines[idx - 1].has_code() && directives[idx - 1].allows.iter().any(|a| a == name)
    {
        return Some(idx - 1);
    }
    None
}

/// Marks lines inside `#[cfg(test)] mod ... { }` blocks via brace depth.
fn compute_in_test(lines: &[LexedLine]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut depth: i64 = 0;
    let mut pending_cfg_test = false;
    let mut test_close_depth: Option<i64> = None;
    for (idx, line) in lines.iter().enumerate() {
        if test_close_depth.is_some() {
            in_test[idx] = true;
        }
        if line.code.contains("#[cfg(test)]") {
            pending_cfg_test = true;
        }
        let mut line_opens_test = false;
        if pending_cfg_test && has_token(&line.code, "mod") {
            line_opens_test = true;
            pending_cfg_test = false;
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    if line_opens_test && test_close_depth.is_none() {
                        test_close_depth = Some(depth);
                        in_test[idx] = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if test_close_depth == Some(depth) {
                        test_close_depth = None;
                    }
                }
                _ => {}
            }
        }
    }
    in_test
}

/// What the upward walk above a `pub fn` found.
enum DocStatus {
    /// A doc comment: the rule is satisfied.
    Doc,
    /// An `allow(missing_docs)` directive at this line index.
    Allowed(usize),
    /// Neither.
    Missing,
}

/// Walk upward from a `pub fn` line over attributes and blank lines looking
/// for a doc comment or an explicit `allow(missing_docs)` directive.
fn doc_status(lines: &[LexedLine], directives: &[Directives], idx: usize) -> DocStatus {
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let line = &lines[i];
        if directives[i].allows.iter().any(|a| a == "missing_docs") {
            return DocStatus::Allowed(i);
        }
        if line.is_doc {
            return DocStatus::Doc;
        }
        let code = line.code.trim();
        // Skip attribute lines (possibly spanning multiple lines) and blanks.
        let is_attr = code.starts_with("#[") || code.ends_with(']') && !code.contains('{');
        if code.is_empty() || is_attr {
            continue;
        }
        return DocStatus::Missing;
    }
    DocStatus::Missing
}

/// Whether the file carries [`PANIC_FREE_ATTR`], however it is wrapped.
fn has_panic_free_attr(lines: &[LexedLine]) -> bool {
    let code: String = lines
        .iter()
        .flat_map(|l| l.code.chars())
        .filter(|c| !c.is_whitespace())
        .collect();
    code.contains(PANIC_FREE_ATTR)
}

/// Token-level scan of one file (everything except the graph rules).
fn scan_file(rel_path: &str, source: &str) -> FileScan {
    let scope = scope_for(rel_path);
    let lines = lex(source);
    // Doc comments describe directives without enacting them; only plain
    // comments carry `lint:` annotations.
    let directives: Vec<Directives> = lines
        .iter()
        .map(|l| {
            if l.is_doc {
                Directives::default()
            } else {
                parse_directives(&l.comment)
            }
        })
        .collect();
    let deny_alloc = directives.iter().any(|d| d.deny_alloc);

    let mut violations = Vec::new();
    let rel_normalized = rel_path.replace('\\', "/");
    let hot = HOT_PATH_FILES.contains(&rel_normalized.as_str());
    let mut missing = Vec::new();
    if hot && !deny_alloc {
        missing.push("the `// lint: deny_alloc` marker");
    }
    if (hot || rel_normalized == DAEMON_FILE) && !has_panic_free_attr(&lines) {
        missing.push("the clippy indexing/division gate (`lint::PANIC_FREE_ATTR`)");
    }
    if !missing.is_empty() {
        violations.push(Violation {
            file: rel_path.to_string(),
            line: 1,
            rule: "hot_path_marker",
            message: format!(
                "decision-hot-path module must carry {}",
                missing.join(" and ")
            ),
        });
    }

    let in_test = compute_in_test(&lines);
    let parsed = items::parse_file(&lines, &in_test);

    let mut line_facts: Vec<[Option<&'static str>; 3]> = vec![[None; 3]; lines.len()];
    let mut used: BTreeSet<(usize, String)> = BTreeSet::new();

    for (idx, line) in lines.iter().enumerate() {
        if !line.has_code() || in_test[idx] {
            continue;
        }
        let lineno = idx + 1;
        let code = &line.code;

        // The three propagated classes share one shape: an allowed token
        // is *vetted* (credits its directive, leaves no fact); an
        // unallowed token is a fact everywhere and a violation in scope.
        let alloc_allow = allow_site(&lines, &directives, idx, "alloc");
        for token in ALLOC_TOKENS {
            if has_token(code, token) {
                if let Some(site) = alloc_allow {
                    used.insert((site, "alloc".to_string()));
                } else {
                    if line_facts[idx][0].is_none() {
                        line_facts[idx][0] = Some(token);
                    }
                    if deny_alloc {
                        violations.push(Violation {
                            file: rel_path.to_string(),
                            line: lineno,
                            rule: "alloc",
                            message: format!(
                                "heap-constructor token `{}` in a deny_alloc module",
                                token.trim_matches(&['.', '(', ':', '<'][..])
                            ),
                        });
                    }
                }
            }
        }

        let nondet_allow = allow_site(&lines, &directives, idx, "nondet");
        for token in NONDET_TOKENS {
            if has_token(code, token) {
                if let Some(site) = nondet_allow {
                    used.insert((site, "nondet".to_string()));
                } else {
                    if line_facts[idx][2].is_none() {
                        line_facts[idx][2] = Some(token);
                    }
                    if scope.deterministic {
                        violations.push(Violation {
                            file: rel_path.to_string(),
                            line: lineno,
                            rule: "nondet",
                            message: format!(
                                "nondeterministic construct `{token}` in a decision-path crate (use BTreeMap/BTreeSet or a seeded RNG)"
                            ),
                        });
                    }
                }
            }
        }

        let panic_allow = allow_site(&lines, &directives, idx, "panic");
        for token in PANIC_TOKENS {
            if has_token(code, token) {
                if let Some(site) = panic_allow {
                    used.insert((site, "panic".to_string()));
                } else {
                    if line_facts[idx][1].is_none() {
                        line_facts[idx][1] = Some(token);
                    }
                    if scope.no_panic || (scope.nan_cmp && *token == ".partial_cmp(") {
                        violations.push(Violation {
                            file: rel_path.to_string(),
                            line: lineno,
                            rule: "panic",
                            message: format!(
                                "potential panic path `{}` in library code (return a typed error or use total_cmp)",
                                token.trim_matches(&['.', '('][..])
                            ),
                        });
                    }
                }
            }
        }

        if scope.docs {
            let trimmed = code.trim_start();
            let is_pub_fn = trimmed.starts_with("pub fn ")
                || trimmed.starts_with("pub const fn ")
                || trimmed.starts_with("pub unsafe fn ")
                || trimmed.starts_with("pub async fn ");
            if is_pub_fn {
                match doc_status(&lines, &directives, idx) {
                    DocStatus::Doc => {}
                    DocStatus::Allowed(site) => {
                        used.insert((site, "missing_docs".to_string()));
                    }
                    DocStatus::Missing => {
                        if let Some(site) = allow_site(&lines, &directives, idx, "missing_docs") {
                            used.insert((site, "missing_docs".to_string()));
                        } else {
                            violations.push(Violation {
                                file: rel_path.to_string(),
                                line: lineno,
                                rule: "missing_docs",
                                message: "pub fn without a doc comment".to_string(),
                            });
                        }
                    }
                }
            }
        }

        if scope.no_unsafe && has_token(code, "unsafe") {
            if let Some(site) = allow_site(&lines, &directives, idx, "unsafe_code") {
                used.insert((site, "unsafe_code".to_string()));
            } else {
                violations.push(Violation {
                    file: rel_path.to_string(),
                    line: lineno,
                    rule: "unsafe_code",
                    message: "`unsafe` outside the annotated allowlist".to_string(),
                });
            }
        }
    }

    // Inventory every allow directive (outside tests; doc-comment
    // directives are inert by construction).
    let mut allow_sites = Vec::new();
    for (idx, d) in directives.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        for name in &d.allows {
            allow_sites.push((idx, name.clone()));
        }
    }

    FileScan {
        rel_path: rel_normalized,
        scope,
        deny_alloc,
        lines,
        directives,
        parsed,
        line_facts,
        violations,
        allow_sites,
        used,
    }
}

/// Scan one file's source, returning every *token-level* violation.
///
/// `rel_path` is the workspace-relative path used both for scope decisions
/// and for reporting. The call-graph rules (`transitive_*`, `dead_allow`)
/// need the whole corpus — use [`analyze_sources`] / [`analyze_root`] for
/// those.
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Violation> {
    scan_file(rel_path, source).violations
}

/// A full analysis: every violation plus the machine-readable report.
pub struct Analysis {
    /// All violations (token, transitive, and dead-allow), sorted by
    /// (file, line, rule).
    pub violations: Vec<Violation>,
    /// The `LINT_REPORT.json` content for this corpus.
    pub report: LintReport,
    /// Structured dead-allow sites for `--fix`: (file, 0-based line
    /// index, allow name).
    pub dead_allows: Vec<(String, usize, String)>,
}

/// Analyze a set of in-memory sources as one corpus: token rules per
/// file, then the cross-file call-graph rules and the allow inventory.
pub fn analyze_sources(sources: &[(String, String)]) -> Analysis {
    let mut files: Vec<FileScan> = sources
        .iter()
        .map(|(rel, src)| scan_file(rel, src))
        .collect();
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));

    let outcome = graph::analyze(&mut files);

    let mut violations: Vec<Violation> = files.iter().flat_map(|f| f.violations.clone()).collect();
    violations.extend(outcome.violations.iter().cloned());

    // Dead-escape detection: a directive nothing credited is stale.
    let mut dead_allows: Vec<(String, usize, String)> = Vec::new();
    for file in &files {
        for (idx, name) in &file.allow_sites {
            if !file.used.contains(&(*idx, name.clone())) {
                dead_allows.push((file.rel_path.clone(), *idx, name.clone()));
                violations.push(Violation {
                    file: file.rel_path.clone(),
                    line: idx + 1,
                    rule: "dead_allow",
                    message: format!(
                        "allow({name}) no longer suppresses anything (stale escape hatch — remove it)"
                    ),
                });
            }
        }
    }

    violations.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(b.rule))
    });

    let rules = RULES
        .iter()
        .map(|rule| RuleCount {
            rule: (*rule).to_string(),
            violations: violations.iter().filter(|v| v.rule == *rule).count(),
        })
        .collect();

    let mut functions: Vec<FnEntry> = outcome
        .fns
        .iter()
        .filter(|g| files[g.file].deny_alloc)
        .map(|g| {
            let item = &files[g.file].parsed.fns[g.item];
            FnEntry {
                function: g.qname.clone(),
                file: files[g.file].rel_path.clone(),
                line: item.sig_line + 1,
                direct_alloc: g.facts[0],
                direct_panic: g.facts[1],
                direct_nondet: g.facts[2],
                transitive_alloc: g.eff[0],
                transitive_panic: g.eff[1],
                transitive_nondet: g.eff[2],
            }
        })
        .collect();
    functions.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.function.cmp(&b.function))
    });

    let mut allows: Vec<AllowEntry> = files
        .iter()
        .flat_map(|f| {
            f.allow_sites.iter().map(|(idx, name)| AllowEntry {
                file: f.rel_path.clone(),
                line: idx + 1,
                name: name.clone(),
                live: f.used.contains(&(*idx, name.clone())),
            })
        })
        .collect();
    allows.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.name.cmp(&b.name))
    });

    let stats = ReportStats {
        files: files.len(),
        functions: outcome.fns.len(),
        call_edges: outcome.edge_count,
        hot_functions: functions.len(),
    };

    Analysis {
        violations,
        dead_allows,
        report: LintReport {
            schema: SCHEMA_VERSION,
            rules,
            functions,
            allows,
            depth_budgets: outcome.depth_budgets,
            stats,
        },
    }
}

/// Collects every eligible `.rs` file under `root` (sorted walk).
fn collect_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut sources = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = fs::read_dir(&dir)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(|e| e.path());
        for entry in entries {
            let path = entry.path();
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if path.is_dir() {
                let skip = rel == "target"
                    || rel == "vendor"
                    || rel == ".git"
                    || rel.ends_with("/target")
                    || rel == "crates/lint/tests";
                if !skip {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let scan = rel.starts_with("crates/") || rel.starts_with("src/");
                if scan {
                    let source = fs::read_to_string(&path)?;
                    sources.push((rel, source));
                }
            }
        }
    }
    sources.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(sources)
}

/// Analyze every eligible `.rs` file under `root` as one corpus.
///
/// Scans `crates/*/src` and the facade `src/`; skips `vendor/` (shims stand
/// in for external crates and are not held to workspace rules), `target/`,
/// and this crate's own test fixtures.
///
/// # Errors
///
/// Returns any underlying I/O error from the directory walk.
pub fn analyze_root(root: &Path) -> io::Result<Analysis> {
    Ok(analyze_sources(&collect_sources(root)?))
}

/// Recursively scan every eligible `.rs` file under `root`, returning
/// every violation (token, transitive, and dead-allow rules).
///
/// # Errors
///
/// Returns any underlying I/O error from the directory walk.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    Ok(analyze_root(root)?.violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_blanks_strings_and_comments() {
        let lines = lex("let x = \"Vec::new()\"; // Vec::new in comment\n");
        assert!(!lines[0].code.contains("Vec::new"));
        assert!(lines[0].comment.contains("Vec::new"));
    }

    #[test]
    fn lexer_handles_lifetimes_and_char_literals() {
        let lines = lex("fn f<'a>(x: &'a str) { let c = 'x'; let d = '\\n'; }\n");
        assert!(lines[0].code.contains("'a str"));
        assert!(!lines[0].code.contains("\\n"));
    }

    #[test]
    fn directive_parsing() {
        let d = parse_directives(" lint: allow(panic, alloc)");
        assert_eq!(d.allows, vec!["panic", "alloc"]);
        assert!(parse_directives(" lint: deny_alloc").deny_alloc);
    }

    #[test]
    fn bench_scope_flags_partial_cmp_but_not_expect() {
        let sorted = "fn f(xs: &mut Vec<f64>) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        let violations = scan_source("crates/bench/src/bin/fig0.rs", sorted);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "panic");
        assert!(violations[0].message.contains("partial_cmp"));
        // Fail-fast expect stays idiomatic in experiment binaries.
        let failfast = "fn f() { std::fs::read(\"x\").expect(\"boom\"); }\n";
        assert!(scan_source("crates/bench/src/bin/fig0.rs", failfast).is_empty());
        // Outside the bench scope nothing changed.
        assert!(scan_source("examples/demo.rs", sorted).is_empty());
    }

    #[test]
    fn cfg_gated_functions_stay_out_of_the_call_graph() {
        let hot = |attr: &str| {
            format!(
                "// lint: deny_alloc\npub struct S;\nimpl S {{\n    pub fn hot(&self) {{ self.gated(); }}\n{attr}    fn gated(&self) {{ helper(); }}\n}}\n"
            )
        };
        let helper = "pub fn helper() -> Vec<u8> { vec![1] }\n".to_string();
        // Ungated: `gated` reaches the allocating helper -> transitive_alloc.
        let sources = [
            ("crates/core/src/a.rs".to_string(), hot("")),
            ("crates/core/src/b.rs".to_string(), helper.clone()),
        ];
        let analysis = analyze_sources(&sources);
        assert!(
            analysis
                .violations
                .iter()
                .any(|v| v.rule == "transitive_alloc"),
            "{:?}",
            analysis.violations
        );
        // Feature-gated: the function is not in the always-on build, so
        // no vouch is needed and nothing fires.
        let sources = [
            (
                "crates/core/src/a.rs".to_string(),
                hot("    #[cfg(feature = \"check-invariants\")]\n"),
            ),
            ("crates/core/src/b.rs".to_string(), helper),
        ];
        let analysis = analyze_sources(&sources);
        assert!(
            analysis
                .violations
                .iter()
                .all(|v| !v.rule.starts_with("transitive_")),
            "{:?}",
            analysis.violations
        );
    }

    #[test]
    fn cfg_gated_call_sites_stay_out_of_the_call_graph() {
        // The callee is always compiled (it has a node), but the *call*
        // is feature-gated — the check-invariants hook shape:
        //     #[cfg(feature = "...")]
        //     self.verify(...);
        // inside an ungated hot function. Without call-site awareness
        // the edge would demand an `allow(transitive_alloc)` vouch.
        let hot = |attr: &str| {
            format!(
                "// lint: deny_alloc\npub struct S;\nimpl S {{\n    pub fn hot(&self) {{\n{attr}        self.verify();\n    }}\n    fn verify(&self) {{ helper(); }}\n}}\n"
            )
        };
        let helper = "pub fn helper() -> Vec<u8> { vec![1] }\n".to_string();
        // Ungated call: `hot` reaches the allocating helper through
        // `verify` -> transitive_alloc fires on both.
        let sources = [
            ("crates/core/src/a.rs".to_string(), hot("")),
            ("crates/core/src/b.rs".to_string(), helper.clone()),
        ];
        let analysis = analyze_sources(&sources);
        assert!(
            analysis
                .violations
                .iter()
                .any(|v| v.rule == "transitive_alloc" && v.message.contains("`S::hot`")),
            "{:?}",
            analysis.violations
        );
        // Feature-gated call: the edge is absent from the always-on
        // build, so `hot` stays clean with no vouch. `verify` itself
        // still fires — it *is* always compiled and still allocates.
        let sources = [
            (
                "crates/core/src/a.rs".to_string(),
                hot("        #[cfg(feature = \"check-invariants\")]\n"),
            ),
            ("crates/core/src/b.rs".to_string(), helper),
        ];
        let analysis = analyze_sources(&sources);
        assert!(
            analysis
                .violations
                .iter()
                .all(|v| !(v.rule == "transitive_alloc" && v.message.contains("`S::hot`"))),
            "{:?}",
            analysis.violations
        );
        assert!(
            analysis
                .violations
                .iter()
                .any(|v| v.rule == "transitive_alloc" && v.message.contains("`S::verify`")),
            "{:?}",
            analysis.violations
        );
    }

    #[test]
    fn token_boundaries() {
        assert!(has_token(".expect(\"x\")", ".expect("));
        assert!(!has_token(".expect_err(e)", ".expect("));
        assert!(!has_token("#[forbid(unsafe_code)]", "unsafe"));
        assert!(has_token("unsafe impl X {}", "unsafe"));
        assert!(has_token(".collect::<Vec<f64>>()", ".collect::<"));
    }
}
