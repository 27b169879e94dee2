//! The machine-readable lint artifact (`LINT_REPORT.json`) and the
//! `lint-diff` comparison against the committed snapshot.
//!
//! The report is committed per PR like `BENCH_decision_latency.json`:
//! per-rule violation counts, the per-function property table for every
//! hot-path (deny_alloc) function, the allow-directive inventory with
//! liveness, and the depth-budget table. Every field is a pure function of the source tree —
//! no timestamps, no wall-clock, sorted collections — so the bytes are
//! reproducible on any machine and diffable across PRs.
//!
//! `lint-diff` mirrors `bench-diff`: *fatal* when a function present in
//! both snapshots gains a property it did not have (a previously-clean
//! function regressed) or a budgeted call depth grows, *non-fatal notes*
//! for count drift, new/removed functions, and allow-inventory churn.

use serde::{Deserialize, Serialize};

/// One rule's violation count at HEAD (0 in a clean tree).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleCount {
    /// Rule class name.
    pub rule: String,
    /// Violations found in the scan.
    pub violations: usize,
}

/// One hot-path function's property row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FnEntry {
    /// Qualified display name (`Type::name` or `name`).
    pub function: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based signature line.
    pub line: usize,
    /// Direct may-allocate fact (unallowed token in the body).
    pub direct_alloc: bool,
    /// Direct may-panic fact.
    pub direct_panic: bool,
    /// Direct nondeterminism fact.
    pub direct_nondet: bool,
    /// Transitive may-allocate (call-graph closure).
    pub transitive_alloc: bool,
    /// Transitive may-panic.
    pub transitive_panic: bool,
    /// Transitive nondeterminism taint.
    pub transitive_nondet: bool,
}

impl FnEntry {
    /// Property accessors in a fixed order, paired with their names —
    /// the diff walks these.
    fn properties(&self) -> [(&'static str, bool); 6] {
        [
            ("direct_alloc", self.direct_alloc),
            ("direct_panic", self.direct_panic),
            ("direct_nondet", self.direct_nondet),
            ("transitive_alloc", self.transitive_alloc),
            ("transitive_panic", self.transitive_panic),
            ("transitive_nondet", self.transitive_nondet),
        ]
    }
}

/// One budgeted function's measured transitive call depth.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepthBudgetEntry {
    /// Qualified display name.
    pub function: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based signature line (where `depth_budget(N)` sits inline).
    pub line: usize,
    /// The committed ceiling.
    pub budget: u64,
    /// Longest workspace call chain; `None` = reaches a recursive cycle.
    pub depth: Option<u64>,
}

/// One `// lint: allow(...)` directive occurrence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllowEntry {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based directive line.
    pub line: usize,
    /// Allowed rule name.
    pub name: String,
    /// Whether the directive still suppresses something real.
    pub live: bool,
}

/// Corpus-level totals.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReportStats {
    /// Files scanned.
    pub files: usize,
    /// Non-test functions parsed.
    pub functions: usize,
    /// Resolved intra-workspace call edges.
    pub call_edges: usize,
    /// Functions in deny_alloc (hot-path) files — the property table.
    pub hot_functions: usize,
}

/// The committed per-PR lint artifact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LintReport {
    /// Schema version for forward compatibility.
    pub schema: usize,
    /// Per-rule violation counts, fixed rule order.
    pub rules: Vec<RuleCount>,
    /// Property table for hot-path functions, (file, line) order.
    pub functions: Vec<FnEntry>,
    /// Allow-directive inventory, (file, line, name) order.
    pub allows: Vec<AllowEntry>,
    /// Depth-budget table, (file, line) order.
    pub depth_budgets: Vec<DepthBudgetEntry>,
    /// Corpus totals.
    pub stats: ReportStats,
}

/// Current schema version: 5 — the call-graph property table of the
/// first schema plus v3's depth-budget table. Schema 5 dropped v3's
/// lock-order and guard sections and v4's implicit-panic columns and
/// totals along with the analyses that filled them.
pub const SCHEMA_VERSION: usize = 5;

/// File name of the committed snapshot at the workspace root.
pub const REPORT_FILE: &str = "LINT_REPORT.json";

/// A diff between the committed snapshot and the current scan.
#[derive(Debug, Clone, Default)]
pub struct ReportDiff {
    /// Regressions that must fail CI (`error:` lines).
    pub fatal: Vec<String>,
    /// Non-fatal drift (`note:` lines).
    pub notes: Vec<String>,
}

impl ReportDiff {
    /// True when nothing moved at all.
    pub fn is_clean(&self) -> bool {
        self.fatal.is_empty() && self.notes.is_empty()
    }
}

/// Compares the committed snapshot (`prev`) against the current scan
/// (`cur`).
///
/// Fatal: a function present in both whose any property flipped
/// `false -> true` (a previously-clean function gained a violating
/// property), and any increase in a rule's violation count above zero.
/// Notes: everything else that moved — recovered properties, function
/// table churn, allow-inventory churn, stats drift.
pub fn diff_reports(prev: &LintReport, cur: &LintReport) -> ReportDiff {
    let mut diff = ReportDiff::default();

    for rule in &cur.rules {
        let before = prev
            .rules
            .iter()
            .find(|r| r.rule == rule.rule)
            .map_or(0, |r| r.violations);
        if rule.violations > before {
            diff.fatal.push(format!(
                "rule `{}` went from {} to {} violation(s)",
                rule.rule, before, rule.violations
            ));
        } else if rule.violations < before {
            diff.notes.push(format!(
                "rule `{}` dropped from {} to {} violation(s)",
                rule.rule, before, rule.violations
            ));
        }
    }

    // Function rows are paired by (file, qualified name, occurrence
    // ordinal): a trait-impl wrapper and an inherent method can share a
    // qualified name within one file, and rows are (file, line)-sorted,
    // so the k-th occurrence on each side is the same function even as
    // line numbers drift.
    let nth_match = |list: &[FnEntry], entry: &FnEntry, n: usize| -> Option<usize> {
        list.iter()
            .enumerate()
            .filter(|(_, f)| f.function == entry.function && f.file == entry.file)
            .map(|(i, _)| i)
            .nth(n)
    };
    let mut seen: std::collections::BTreeMap<(&str, &str), usize> = Default::default();
    for entry in &cur.functions {
        let ordinal = seen
            .entry((entry.file.as_str(), entry.function.as_str()))
            .or_insert(0);
        let before = nth_match(&prev.functions, entry, *ordinal).map(|i| &prev.functions[i]);
        *ordinal += 1;
        match before {
            None => diff
                .notes
                .push(format!("new hot-path function `{}`", entry.function)),
            Some(before) => {
                for ((name, now), (_, was)) in
                    entry.properties().iter().zip(before.properties().iter())
                {
                    if *now && !*was {
                        diff.fatal.push(format!(
                            "`{}` gained {} (was clean in the committed snapshot)",
                            entry.function, name
                        ));
                    } else if !*now && *was {
                        diff.notes
                            .push(format!("`{}` lost {}", entry.function, name));
                    }
                }
            }
        }
    }
    let mut seen_prev: std::collections::BTreeMap<(&str, &str), usize> = Default::default();
    for before in &prev.functions {
        let ordinal = seen_prev
            .entry((before.file.as_str(), before.function.as_str()))
            .or_insert(0);
        if nth_match(&cur.functions, before, *ordinal).is_none() {
            diff.notes.push(format!(
                "hot-path function `{}` no longer present",
                before.function
            ));
        }
        *ordinal += 1;
    }

    let key = |a: &AllowEntry| (a.file.clone(), a.line, a.name.clone());
    for allow in &cur.allows {
        match prev.allows.iter().find(|a| key(a) == key(allow)) {
            None => diff.notes.push(format!(
                "new allow({}) at {}:{}",
                allow.name, allow.file, allow.line
            )),
            Some(before) if before.live != allow.live => diff.notes.push(format!(
                "allow({}) at {}:{} went {}",
                allow.name,
                allow.file,
                allow.line,
                if allow.live { "live" } else { "dead" }
            )),
            Some(_) => {}
        }
    }
    let removed = prev
        .allows
        .iter()
        .filter(|a| !cur.allows.iter().any(|b| key(b) == key(a)))
        .count();
    if removed > 0 {
        diff.notes
            .push(format!("{removed} allow directive(s) removed"));
    }

    // Depth budgets: growth eats committed headroom silently — fatal
    // until the snapshot is regenerated deliberately.
    let cur_depths = &cur.depth_budgets;
    let prev_depths = &prev.depth_budgets;
    let dkey = |d: &DepthBudgetEntry| (d.file.clone(), d.function.clone());
    for entry in cur_depths {
        match prev_depths.iter().find(|d| dkey(d) == dkey(entry)) {
            None => diff.notes.push(format!(
                "new depth budget on `{}` ({} with depth {})",
                entry.function,
                entry.budget,
                match entry.depth {
                    Some(d) => d.to_string(),
                    None => "unbounded".to_string(),
                }
            )),
            Some(before) => match (before.depth, entry.depth) {
                (Some(_), None) => diff.fatal.push(format!(
                    "`{}` call depth became unbounded (reaches a recursive cycle)",
                    entry.function
                )),
                (Some(was), Some(now)) if now > was => diff.fatal.push(format!(
                    "`{}` call depth grew from {} to {} (budget {})",
                    entry.function, was, now, entry.budget
                )),
                (Some(was), Some(now)) if now < was => diff.notes.push(format!(
                    "`{}` call depth dropped from {} to {}",
                    entry.function, was, now
                )),
                _ => {
                    if before.budget != entry.budget {
                        diff.notes.push(format!(
                            "`{}` budget changed from {} to {}",
                            entry.function, before.budget, entry.budget
                        ));
                    }
                }
            },
        }
    }
    for before in prev_depths {
        if !cur_depths.iter().any(|d| dkey(d) == dkey(before)) {
            diff.notes
                .push(format!("depth budget on `{}` removed", before.function));
        }
    }

    if prev.stats != cur.stats {
        diff.notes.push(format!(
            "stats: files {} -> {}, functions {} -> {}, call edges {} -> {}, hot functions {} -> {}",
            prev.stats.files,
            cur.stats.files,
            prev.stats.functions,
            cur.stats.functions,
            prev.stats.call_edges,
            cur.stats.call_edges,
            prev.stats.hot_functions,
            cur.stats.hot_functions
        ));
    }

    diff
}

/// Renders a diff in the `bench-diff` style: one `error:` line per
/// fatal regression (the greppable part), `note:` lines for drift.
pub fn render_diff(diff: &ReportDiff) -> String {
    let mut out = String::new();
    if diff.is_clean() {
        out.push_str("lint-diff: no movement against the committed snapshot\n");
        return out;
    }
    for line in &diff.fatal {
        out.push_str(&format!("error: {line}\n"));
    }
    for line in &diff.notes {
        out.push_str(&format!("note: {line}\n"));
    }
    out.push_str(&format!(
        "lint-diff: {} fatal, {} note(s)\n",
        diff.fatal.len(),
        diff.notes.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, transitive_alloc: bool) -> FnEntry {
        FnEntry {
            function: name.to_string(),
            file: "crates/core/src/agent.rs".to_string(),
            line: 10,
            direct_alloc: false,
            direct_panic: false,
            direct_nondet: false,
            transitive_alloc,
            transitive_panic: false,
            transitive_nondet: false,
        }
    }

    fn report(functions: Vec<FnEntry>) -> LintReport {
        LintReport {
            schema: SCHEMA_VERSION,
            rules: vec![RuleCount {
                rule: "alloc".to_string(),
                violations: 0,
            }],
            functions,
            allows: Vec::new(),
            depth_budgets: Vec::new(),
            stats: ReportStats::default(),
        }
    }

    #[test]
    fn gained_property_is_fatal() {
        let prev = report(vec![entry("MeghAgent::decide", false)]);
        let cur = report(vec![entry("MeghAgent::decide", true)]);
        let diff = diff_reports(&prev, &cur);
        assert_eq!(diff.fatal.len(), 1, "{diff:?}");
        assert!(diff.fatal[0].contains("transitive_alloc"), "{diff:?}");
        assert!(render_diff(&diff).contains("error:"));
    }

    #[test]
    fn lost_property_and_churn_are_notes() {
        let prev = report(vec![entry("a", true), entry("gone", false)]);
        let cur = report(vec![entry("a", false), entry("fresh", false)]);
        let diff = diff_reports(&prev, &cur);
        assert!(diff.fatal.is_empty(), "{diff:?}");
        assert_eq!(diff.notes.len(), 3, "{diff:?}");
    }

    #[test]
    fn count_increase_is_fatal_decrease_is_note() {
        let mut prev = report(Vec::new());
        let mut cur = report(Vec::new());
        prev.rules[0].violations = 1;
        let diff = diff_reports(&prev, &cur);
        assert_eq!(diff.notes.len(), 1);
        prev.rules[0].violations = 0;
        cur.rules[0].violations = 2;
        let diff = diff_reports(&prev, &cur);
        assert_eq!(diff.fatal.len(), 1);
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report(vec![entry("x", true)]);
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: LintReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn identical_reports_diff_clean() {
        let r = report(vec![entry("x", false)]);
        let diff = diff_reports(&r, &r.clone());
        assert!(diff.is_clean());
        assert!(render_diff(&diff).contains("no movement"));
    }
}
