//! `--fix`: mechanical rewriting of `lint: allow(...)` directives.
//!
//! Two transformations, both derived from the same analysis that powers
//! the `dead_allow` rule:
//!
//! 1. **Dead-name deletion** — an allow name nothing credited is
//!    removed from its directive; a directive whose every name is dead
//!    is deleted outright, together with a trailing reason clause
//!    (`— construction`, `- cold path`, `: see #12`) and, when that
//!    empties the comment, the comment marker or the whole line.
//! 2. **Grammar normalization** — surviving directives are rewritten to
//!    the canonical spelling `lint: allow(a, b)` (single space after the
//!    colon, `, `-separated names, no interior padding).
//!
//! The rewrite is a pure function of the source set ([`fix_sources`]),
//! so tests can prove idempotence: running it on its own output changes
//! nothing, because deleting a dead name never creates a new dead name
//! and the canonical spelling maps to itself. Directives inside
//! `#[cfg(test)]` modules, doc comments, and block comments are left
//! untouched — the analyzer ignores the first two, and span surgery
//! inside block comments is not worth the edge cases.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

use crate::{analyze_sources, collect_sources, compute_in_test, lex};

/// Rewrites every fixable directive in `sources`; returns only the
/// files whose content changed, as `(rel_path, new_content)`.
pub fn fix_sources(sources: &[(String, String)]) -> Vec<(String, String)> {
    let analysis = analyze_sources(sources);
    let mut dead: BTreeMap<&str, BTreeSet<(usize, String)>> = BTreeMap::new();
    for (file, idx, name) in &analysis.dead_allows {
        dead.entry(file).or_default().insert((*idx, name.clone()));
    }
    let empty = BTreeSet::new();
    let mut changed = Vec::new();
    for (rel, src) in sources {
        let file_dead = dead.get(rel.as_str()).unwrap_or(&empty);
        if let Some(fixed) = fix_file(src, file_dead) {
            changed.push((rel.clone(), fixed));
        }
    }
    changed
}

/// Fixes every eligible `.rs` file under `root` in place; returns the
/// relative paths that would change (and, unless `check`, were
/// rewritten on disk).
///
/// With `check`, the filesystem is left untouched — callers use a
/// non-empty return to fail CI when a `--fix` run is pending.
///
/// # Errors
///
/// Returns any underlying I/O error from the walk or the rewrites.
pub fn fix_root(root: &Path, check: bool) -> io::Result<Vec<String>> {
    let sources = collect_sources(root)?;
    let changed = fix_sources(&sources);
    let mut paths = Vec::new();
    for (rel, content) in changed {
        if !check {
            fs::write(root.join(&rel), content)?;
        }
        paths.push(rel);
    }
    Ok(paths)
}

/// Applies both transformations to one file; `None` when nothing moved.
fn fix_file(src: &str, dead: &BTreeSet<(usize, String)>) -> Option<String> {
    let lexed = lex(src);
    let in_test = compute_in_test(&lexed);
    let mut out: Vec<String> = Vec::new();
    let mut any = false;
    let mut in_block = false;
    for (idx, raw) in src.lines().enumerate() {
        let skip = in_block
            || in_test.get(idx).copied().unwrap_or(false)
            || lexed.get(idx).is_some_and(|l| l.is_doc);
        // Coarse block-comment tracking: enough to refuse surgery on
        // `/* ... */` spans (the analyzer reads them, `--fix` does not).
        if raw.contains("/*") && !raw.contains("*/") {
            in_block = true;
        } else if in_block && raw.contains("*/") {
            in_block = false;
        }
        if skip {
            out.push(raw.to_string());
            continue;
        }
        match fix_line(raw, idx, dead) {
            LineFix::Unchanged => out.push(raw.to_string()),
            LineFix::Replaced(new) => {
                any = true;
                out.push(new);
            }
            LineFix::Deleted => any = true,
        }
    }
    if !any {
        return None;
    }
    let mut text = out.join("\n");
    if src.ends_with('\n') {
        text.push('\n');
    }
    Some(text)
}

/// Outcome of fixing a single line.
enum LineFix {
    Unchanged,
    Replaced(String),
    Deleted,
}

/// Rewrites every `lint: allow(...)` span in the line comment of `raw`.
fn fix_line(raw: &str, idx: usize, dead: &BTreeSet<(usize, String)>) -> LineFix {
    let Some(cstart) = comment_start(raw) else {
        return LineFix::Unchanged;
    };
    let mut line = raw.to_string();
    let mut changed = false;
    // Collect spans first, then edit right-to-left so earlier offsets
    // stay valid after surgery.
    let spans = allow_spans(&line[cstart..]);
    for (span_start, span_end, names) in spans.into_iter().rev() {
        let (abs_start, abs_end) = (cstart + span_start, cstart + span_end);
        let keep: Vec<&str> = names
            .iter()
            .map(String::as_str)
            .filter(|n| !dead.contains(&(idx, n.to_string())))
            .collect();
        if keep.is_empty() {
            // Drop the directive, any trailing reason clause, and the
            // whitespace that led into it.
            let tail = line[abs_end..].trim_start();
            let end = if tail.starts_with('—')
                || tail.starts_with('–')
                || tail.starts_with('-')
                || tail.starts_with(':')
            {
                line.len()
            } else {
                abs_end
            };
            let start = line[..abs_start].trim_end().len();
            line.replace_range(start..end, "");
            changed = true;
        } else {
            let canonical = format!("lint: allow({})", keep.join(", "));
            if line[abs_start..abs_end] != canonical {
                line.replace_range(abs_start..abs_end, &canonical);
                changed = true;
            }
        }
    }
    if !changed {
        return LineFix::Unchanged;
    }
    // If the surgery emptied the comment, drop the marker; if that
    // empties the line, drop the line.
    let comment_text = line.get(cstart..).unwrap_or("");
    if comment_text.trim_start_matches('/').trim().is_empty() {
        line.truncate(cstart);
        let trimmed = line.trim_end();
        if trimmed.trim_start().is_empty() {
            return LineFix::Deleted;
        }
        line = trimmed.to_string();
    }
    LineFix::Replaced(line)
}

/// Start of the `//` line comment in `raw`, outside string literals.
fn comment_start(raw: &str) -> Option<usize> {
    let bytes = raw.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1, // skip the escaped byte
            b'"' => in_str = !in_str,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

/// Every `lint: allow(...)` span in `comment`, left to right: byte
/// range (relative to `comment`) from the `l` of `lint:` through the
/// closing `)`, plus the parsed names.
fn allow_spans(comment: &str) -> Vec<(usize, usize, Vec<String>)> {
    let mut spans = Vec::new();
    let mut from = 0;
    while let Some(pos) = comment[from..].find("lint:") {
        let at = from + pos;
        let body = comment[at + 5..].trim_start();
        if let Some(args) = body.strip_prefix("allow(") {
            if let Some(close) = args.find(')') {
                let names: Vec<String> = args[..close]
                    .split(',')
                    .map(str::trim)
                    .filter(|n| !n.is_empty())
                    .map(str::to_string)
                    .collect();
                // Absolute end: position of `)` inside `comment` + 1.
                let body_off = comment[at + 5..].len() - body.len();
                let end = at + 5 + body_off + "allow(".len() + close + 1;
                spans.push((at, end, names));
                from = end;
                continue;
            }
        }
        from = at + 5;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fix_one(src: &str, dead: &[(usize, &str)]) -> Option<String> {
        let dead: BTreeSet<(usize, String)> =
            dead.iter().map(|(i, n)| (*i, n.to_string())).collect();
        fix_file(src, &dead)
    }

    #[test]
    fn dead_name_is_removed_from_multi_name_directive() {
        let src = "fn f() {} // lint: allow(alloc, panic)\n";
        let fixed = fix_one(src, &[(0, "panic")]).unwrap();
        assert_eq!(fixed, "fn f() {} // lint: allow(alloc)\n");
    }

    #[test]
    fn fully_dead_inline_directive_leaves_code_line() {
        let src = "let x = Vec::new(); // lint: allow(alloc)\n";
        let fixed = fix_one(src, &[(0, "alloc")]).unwrap();
        assert_eq!(fixed, "let x = Vec::new();\n");
    }

    #[test]
    fn fully_dead_directive_line_is_deleted_with_reason() {
        let src = "fn a() {}\n// lint: allow(panic) — cold path\nfn b() {}\n";
        let fixed = fix_one(src, &[(1, "panic")]).unwrap();
        assert_eq!(fixed, "fn a() {}\nfn b() {}\n");
    }

    #[test]
    fn leading_prose_survives_directive_deletion() {
        let src = "x(); // programming error, asserted by tests. lint: allow(panic)\n";
        let fixed = fix_one(src, &[(0, "panic")]).unwrap();
        assert_eq!(fixed, "x(); // programming error, asserted by tests.\n");
    }

    #[test]
    fn grammar_is_normalized() {
        let src = "f(); // lint:allow( alloc ,panic )\n";
        let fixed = fix_one(src, &[]).unwrap();
        assert_eq!(fixed, "f(); // lint: allow(alloc, panic)\n");
    }

    #[test]
    fn canonical_directives_are_untouched() {
        let src = "f(); // lint: allow(alloc)\ng(); // lint: deny_alloc\n";
        assert!(fix_one(src, &[]).is_none());
    }

    #[test]
    fn doc_comments_and_tests_are_skipped() {
        let src = "\
/// lint:allow( alloc )
fn f() {}
#[cfg(test)]
mod tests {
    fn t() {} // lint:allow( panic )
}
";
        assert!(fix_one(src, &[]).is_none());
    }

    #[test]
    fn fix_is_idempotent_on_its_own_output() {
        let src = "a(); // lint:allow( alloc ,panic )\n// lint: allow(nondet) - stale\nb();\n";
        let dead = [(1usize, "nondet")];
        let once = fix_one(src, &dead).unwrap();
        // The dead set for the fixed text is empty (the directive is
        // gone); idempotence is "no further change".
        assert!(fix_one(&once, &[]).is_none(), "{once:?}");
    }
}
