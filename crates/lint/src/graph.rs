//! Call-graph construction and fixed-point property propagation.
//!
//! Three per-function properties form the lattice (each a 2-point
//! chain, product lattice overall): **may-allocate**, **may-panic**,
//! **nondeterminism taint**. A function's *direct* facts come from the
//! token scan (unallowed forbidden tokens inside its body); its
//! *transitive* value is the least fixed point of
//!
//! ```text
//! eff(f) = facts(f) ∪ ⋃ { eff(g) | f calls g, g not exempted }
//! ```
//!
//! over the intra-workspace call graph. Name resolution is *typed-lite*:
//! receivers are resolved through parameter types, struct field tables,
//! and local-binding inference, falling back to a global name match
//! when the receiver type is unknown — so ambiguity adds edges
//! (over-approximation) rather than hiding them. Calls whose receiver
//! type is known to be external (`Vec`, `Instant`, ...) add no edges;
//! the forbidden std surface is what the token rules watch directly.
//!
//! The graph is `#[cfg]`-aware at both granularities: whole gated items
//! contribute no nodes (see [`crate::items::FnItem::cfg_gated`]), and a
//! call site behind an inner `#[cfg(...)]` attribute — a feature-gated
//! statement or block inside an otherwise ungated function, e.g. the
//! `check-invariants` verification hooks — contributes no edge
//! ([`crate::items::CallSite::cfg_gated`]). Both are absent from the
//! always-on build, so neither needs an `allow(transitive_*)` vouch.
//!
//! A function carrying `// lint: allow(transitive_alloc)` (or
//! `transitive_panic` / `transitive_nondet`) on its signature line — or
//! alone on the line directly above — vouches for its entire call
//! subtree: the property neither fires on it nor propagates through it
//! to callers. The dead-allow pass verifies such a vouching directive
//! against an exemption-free fixpoint, so an escape that no longer
//! covers anything real is itself reported.
//!
//! One more rule reads the same graph: `call_depth_budget` — functions
//! carrying `// lint: depth_budget(N)` must keep their longest
//! transitive workspace call chain ≤ N (recursion counts as unbounded).

use std::collections::{BTreeMap, BTreeSet};

use crate::report::DepthBudgetEntry;
use crate::{FileScan, Violation, CLASS_WORDS, TRANSITIVE_RULES};

/// Number of propagated property classes (alloc, panic, nondet).
pub(crate) const CLASSES: usize = 3;

/// How a receiver/qualifier resolved.
enum TypeRes {
    /// A workspace-defined type.
    Ws(String),
    /// A known-external type (std or vendored): no workspace edges.
    External,
    /// Could not resolve: over-approximate by callee name.
    Unknown,
}

/// One function node in the global graph.
pub(crate) struct GraphFn {
    /// Index of the owning file in the `FileScan` slice.
    pub file: usize,
    /// Index into that file's `parsed.fns`.
    pub item: usize,
    /// Display name: `Type::name` or `name`.
    pub qname: String,
    /// Direct facts per class, from the token scan.
    pub facts: [bool; CLASSES],
    /// First offending site per class: (1-based line, token).
    pub fact_site: [Option<(usize, &'static str)>; CLASSES],
    /// Signature-line `allow(transitive_*)` exemptions.
    pub exempt: [bool; CLASSES],
    /// Resolved callee node indices (sorted, deduplicated).
    pub edges: Vec<usize>,
    /// A call site resolved *unambiguously* back to this function
    /// itself. The edge is dropped from `edges` (it adds nothing to the
    /// taint closure) but the depth pass must still see it: direct
    /// recursion has no finite longest path. Ambiguous self hits
    /// (name-collision over-approximation, e.g. forwarding impls) do
    /// not set this.
    pub self_recursive: bool,
    /// Transitive properties (exemption-aware fixpoint).
    pub eff: [bool; CLASSES],
}

/// Everything the propagation pass hands back to the driver.
pub(crate) struct GraphOutcome {
    /// Transitive-rule violations (one per function × class).
    pub violations: Vec<Violation>,
    /// All graph nodes, in deterministic (file, item) order.
    pub fns: Vec<GraphFn>,
    /// Total resolved call edges.
    pub edge_count: usize,
    /// Every budgeted function with its measured depth (report section).
    pub depth_budgets: Vec<DepthBudgetEntry>,
}

/// Builds the graph over all scanned files, runs both fixpoints, emits
/// transitive violations, and credits `allow(transitive_*)` directives
/// (via [`FileScan::credit`]) that still cover a real propagation.
pub(crate) fn analyze(files: &mut [FileScan]) -> GraphOutcome {
    let mut fns: Vec<GraphFn> = Vec::new();
    // (file idx, class) exemption sites awaiting liveness credit.
    let mut exempt_sites: Vec<(usize, usize, usize)> = Vec::new(); // (gfn, class, line_idx)

    for (fi, file) in files.iter().enumerate() {
        for (ii, item) in file.parsed.fns.iter().enumerate() {
            if item.is_test || item.cfg_gated {
                // Test functions and `#[cfg(...)]`-gated functions are
                // absent from the always-on build: neither contributes
                // nodes, facts, or edges to the call graph, so feature-
                // gated verification helpers need no manual
                // `allow(transitive_*)` vouches.
                continue;
            }
            let qname = match &item.self_type {
                Some(t) => format!("{t}::{}", item.name),
                None => item.name.clone(),
            };
            let mut node = GraphFn {
                file: fi,
                item: ii,
                qname,
                facts: [false; CLASSES],
                fact_site: [None; CLASSES],
                exempt: [false; CLASSES],
                edges: Vec::new(),
                self_recursive: false,
                eff: [false; CLASSES],
            };
            for (class, rule) in TRANSITIVE_RULES.iter().enumerate() {
                if let Some(site) = file.allow_site(item.sig_line, rule) {
                    node.exempt[class] = true;
                    exempt_sites.push((fns.len(), class, site));
                }
            }
            fns.push(node);
        }
    }

    // Attribute line facts to the innermost enclosing non-test function.
    let mut by_file: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (gi, g) in fns.iter().enumerate() {
        by_file.entry(g.file).or_default().push(gi);
    }
    for (fi, file) in files.iter().enumerate() {
        let Some(candidates) = by_file.get(&fi) else {
            continue;
        };
        for (line, classes) in file.line_facts.iter().enumerate() {
            if classes.iter().all(Option::is_none) {
                continue;
            }
            let owner = candidates
                .iter()
                .copied()
                .filter(|&gi| {
                    let it = &file.parsed.fns[fns[gi].item];
                    it.sig_line <= line && line <= it.end_line
                })
                .max_by_key(|&gi| {
                    let it = &file.parsed.fns[fns[gi].item];
                    (it.depth, it.sig_line)
                });
            if let Some(gi) = owner {
                for (class, token) in classes.iter().enumerate() {
                    if let Some(token) = token {
                        let g = &mut fns[gi];
                        g.facts[class] = true;
                        if g.fact_site[class].is_none() {
                            g.fact_site[class] = Some((line + 1, token));
                        }
                    }
                }
            }
        }
    }

    // Global resolution indexes.
    let mut types: BTreeSet<&str> = BTreeSet::new();
    let mut struct_fields: BTreeMap<&str, &BTreeMap<String, String>> = BTreeMap::new();
    for file in files.iter() {
        for t in &file.parsed.types {
            types.insert(t);
        }
        for (s, fields) in &file.parsed.struct_fields {
            types.insert(s);
            struct_fields.insert(s, fields);
        }
    }
    let mut methods: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (gi, g) in fns.iter().enumerate() {
        let item = &files[g.file].parsed.fns[g.item];
        by_name.entry(&item.name).or_default().push(gi);
        match &item.self_type {
            Some(t) => methods
                .entry((t.as_str(), item.name.as_str()))
                .or_default()
                .push(gi),
            None => free_by_name.entry(&item.name).or_default().push(gi),
        }
    }

    // Resolve the receiver chain of `x.y.method(..)` to a type.
    let resolve_chain = |file: &FileScan, item_idx: usize, chain: &[String]| -> TypeRes {
        let item = &file.parsed.fns[item_idx];
        let classify = |ty: &str| -> TypeRes {
            if types.contains(ty) {
                TypeRes::Ws(ty.to_string())
            } else {
                TypeRes::External
            }
        };
        let walk_fields = |mut ty: String, fields: &[String]| -> TypeRes {
            for field in fields {
                if !types.contains(ty.as_str()) {
                    return TypeRes::External;
                }
                match struct_fields.get(ty.as_str()).and_then(|m| m.get(field)) {
                    Some(next) => ty = next.clone(),
                    None => return TypeRes::Unknown,
                }
            }
            classify(&ty)
        };
        let (head, rest) = match chain.split_first() {
            Some(split) => split,
            None => return TypeRes::Unknown,
        };
        if head == "self" {
            return match &item.self_type {
                Some(t) => walk_fields(t.clone(), rest),
                None => TypeRes::Unknown,
            };
        }
        if let Some(local) = item.locals.get(head) {
            return match local {
                crate::items::LocalTy::Known(t) => walk_fields(t.clone(), rest),
                crate::items::LocalTy::SelfChain(fields) => match &item.self_type {
                    Some(t) => {
                        let mut full = fields.clone();
                        full.extend_from_slice(rest);
                        walk_fields(t.clone(), &full)
                    }
                    None => TypeRes::Unknown,
                },
                crate::items::LocalTy::Unknown => TypeRes::Unknown,
            };
        }
        if let Some(param) = item.params.get(head) {
            return match param {
                Some(t) => walk_fields(t.clone(), rest),
                None => TypeRes::Unknown,
            };
        }
        TypeRes::Unknown
    };

    // Edge resolution: the union over a function's call sites.
    let mut edge_count = 0usize;
    for (gi, g) in fns.iter_mut().enumerate() {
        let (fi, ii) = (g.file, g.item);
        let file = &files[fi];
        let item = &file.parsed.fns[ii];
        let mut union: BTreeSet<usize> = BTreeSet::new();
        for call in &item.calls {
            if call.cfg_gated {
                // A call behind an inner `#[cfg(...)]` attribute (a
                // feature-gated statement or block inside an ungated
                // function) is absent from the always-on build: no edge,
                // same as calls inside `#[cfg]`-gated items.
                continue;
            }
            let mut targets: BTreeSet<usize> = BTreeSet::new();
            let name = call.callee.as_str();
            let with_type = |t: &str, targets: &mut BTreeSet<usize>| {
                match methods.get(&(t, name)) {
                    Some(ids) => targets.extend(ids.iter().copied()),
                    // Derived/blanket methods have no item; fall back to
                    // the global name match (usually empty for std
                    // trait names like `clone`).
                    None => {
                        if let Some(ids) = by_name.get(name) {
                            targets.extend(ids.iter().copied());
                        }
                    }
                }
            };
            match &call.recv {
                crate::items::Recv::Free => {
                    if let Some(ids) = free_by_name.get(name) {
                        targets.extend(ids.iter().copied());
                    }
                }
                crate::items::Recv::Chain(chain) => match resolve_chain(file, ii, chain) {
                    TypeRes::Ws(t) => with_type(&t, &mut targets),
                    TypeRes::External => {}
                    TypeRes::Unknown => {
                        if let Some(ids) = by_name.get(name) {
                            targets.extend(ids.iter().copied());
                        }
                    }
                },
                crate::items::Recv::Unknown => {
                    if let Some(ids) = by_name.get(name) {
                        targets.extend(ids.iter().copied());
                    }
                }
                crate::items::Recv::Path(segs) => match segs.last().map(String::as_str) {
                    None => {
                        if let Some(ids) = free_by_name.get(name) {
                            targets.extend(ids.iter().copied());
                        }
                    }
                    Some("Self") => {
                        if let Some(t) = &item.self_type {
                            with_type(&t.clone(), &mut targets);
                        }
                    }
                    Some(q) if types.contains(q) => with_type(q, &mut targets),
                    Some(q) if q.chars().next().is_some_and(char::is_uppercase) => {
                        // External type (Vec::new, Instant::now, ...).
                    }
                    Some(_module) => {
                        // Module/crate path: a free function somewhere.
                        if let Some(ids) = free_by_name.get(name) {
                            targets.extend(ids.iter().copied());
                        }
                    }
                },
            }
            if targets.remove(&gi) && targets.is_empty() {
                // An unambiguous self-call makes the call depth
                // unbounded. When other candidates remain the self hit
                // is a name-collision artifact (e.g. a forwarding impl
                // over-approximated by callee name) and is dropped: it
                // adds nothing to the taint closure either way.
                g.self_recursive = true;
            }
            union.extend(targets);
        }
        edge_count += union.len();
        g.edges = union.into_iter().collect();
    }

    // Exemption-aware fixpoint (what violations see) and the raw
    // exemption-free fixpoint (what judges exemption liveness).
    let eff = fixpoint(&fns, true);
    let raw = fixpoint(&fns, false);
    for (gi, g) in fns.iter_mut().enumerate() {
        g.eff = eff[gi];
    }

    // Credit transitive allows that still cover a real propagation:
    // without the exemption, the function would reach the property
    // through at least one call edge.
    for &(gi, class, line_idx) in &exempt_sites {
        let covers = fns[gi]
            .edges
            .iter()
            .any(|&target| raw[target][class] || fns[target].facts[class]);
        if covers || fns[gi].facts[class] {
            let fi = fns[gi].file;
            files[fi].credit(line_idx, TRANSITIVE_RULES[class]);
        }
    }

    // Transitive violations: only where the *direct* scan was clean —
    // direct facts already fired the token rule in these scopes.
    let mut violations = Vec::new();
    for g in fns.iter() {
        let file = &files[g.file];
        if !file.deny_alloc {
            continue;
        }
        let item = &file.parsed.fns[g.item];
        let applicable = [
            true,                     // alloc: the file is deny_alloc
            file.scope.no_panic,      // panic
            file.scope.deterministic, // nondet
        ];
        for class in 0..CLASSES {
            if !applicable[class] || g.exempt[class] || g.facts[class] {
                continue;
            }
            let culprit = g
                .edges
                .iter()
                .copied()
                .find(|&target| eff[target][class] && !fns[target].exempt[class]);
            if let Some(culprit) = culprit {
                let (path, site) = witness(&fns, &eff, culprit, class);
                let via: Vec<String> = path
                    .iter()
                    .map(|&p| format!("`{}`", fns[p].qname))
                    .collect();
                let site_txt = match site {
                    Some((target, line, token)) => format!(
                        " (`{}` at {}:{})",
                        token.trim_matches(&['.', '(', ':', '<'][..]),
                        files[fns[target].file].rel_path,
                        line
                    ),
                    None => String::new(),
                };
                violations.push(Violation {
                    file: file.rel_path.clone(),
                    line: item.sig_line + 1,
                    rule: TRANSITIVE_RULES[class],
                    message: format!(
                        "`{}` {} via {}{}",
                        g.qname,
                        CLASS_WORDS[class],
                        via.join(" -> "),
                        site_txt
                    ),
                });
            }
        }
    }

    // ---- call_depth_budget -------------------------------------------
    // Vouches that covered an over-budget function: (file, directive
    // line), credited once the immutable traversal of `files` is done.
    let mut credits: Vec<(usize, usize)> = Vec::new();
    let mut depth_memo: Vec<Option<Option<u64>>> = vec![None; fns.len()];
    let mut visiting = vec![false; fns.len()];
    let mut depth_budgets: Vec<DepthBudgetEntry> = Vec::new();
    for (gi, g) in fns.iter().enumerate() {
        let file = &files[g.file];
        let item = &file.parsed.fns[g.item];
        let Some(budget) = file.depth_budget_at(item.sig_line) else {
            continue;
        };
        let depth = depth_of(gi, &fns, &mut depth_memo, &mut visiting);
        depth_budgets.push(DepthBudgetEntry {
            function: g.qname.clone(),
            file: file.rel_path.clone(),
            line: item.sig_line + 1,
            budget,
            depth,
        });
        let over = match depth {
            None => true,
            Some(d) => d > budget,
        };
        if over {
            match file.allow_site(item.sig_line, "call_depth_budget") {
                Some(site) => credits.push((g.file, site)),
                None => violations.push(Violation {
                    file: file.rel_path.clone(),
                    line: item.sig_line + 1,
                    rule: "call_depth_budget",
                    message: match depth {
                        None => format!(
                            "`{}` has unbounded call depth (reaches a recursive cycle); \
                             budget is {budget}",
                            g.qname
                        ),
                        Some(d) => format!(
                            "`{}` transitive call depth {d} exceeds its budget of {budget}",
                            g.qname
                        ),
                    },
                }),
            }
        }
    }
    depth_budgets.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.function.cmp(&b.function))
    });

    for (fi, site) in credits {
        files[fi].credit(site, "call_depth_budget");
    }

    GraphOutcome {
        violations,
        fns,
        edge_count,
        depth_budgets,
    }
}

/// Longest transitive workspace call chain below `gi`; `None` means the
/// function reaches a call cycle, so no finite depth exists. Memoized
/// DFS; a node on the current stack signals a cycle, which poisons every
/// function that can reach it (correct: their longest path is
/// unbounded too).
fn depth_of(
    gi: usize,
    fns: &[GraphFn],
    memo: &mut [Option<Option<u64>>],
    visiting: &mut [bool],
) -> Option<u64> {
    if let Some(v) = memo[gi] {
        return v;
    }
    if fns[gi].self_recursive {
        memo[gi] = Some(None);
        return None;
    }
    if visiting[gi] {
        return None;
    }
    visiting[gi] = true;
    let mut best: Option<u64> = Some(0);
    for &t in &fns[gi].edges {
        match depth_of(t, fns, memo, visiting) {
            None => {
                best = None;
                break;
            }
            Some(d) => {
                if let Some(b) = best {
                    best = Some(b.max(d + 1));
                }
            }
        }
    }
    visiting[gi] = false;
    memo[gi] = Some(best);
    best
}

/// Least fixed point of the propagation equations. `use_exemptions`
/// selects whether `allow(transitive_*)` stops flow through a node.
fn fixpoint(fns: &[GraphFn], use_exemptions: bool) -> Vec<[bool; CLASSES]> {
    let mut eff: Vec<[bool; CLASSES]> = fns.iter().map(|g| g.facts).collect();
    loop {
        let mut changed = false;
        for gi in 0..fns.len() {
            let mut row = eff[gi];
            for (class, slot) in row.iter_mut().enumerate() {
                if *slot {
                    continue;
                }
                let gained = fns[gi].edges.iter().any(|&target| {
                    eff[target][class] && !(use_exemptions && fns[target].exempt[class])
                });
                if gained {
                    *slot = true;
                    changed = true;
                }
            }
            eff[gi] = row;
        }
        if !changed {
            return eff;
        }
    }
}

/// Shortest call path (BFS, deterministic order) from `start` to a
/// function with a direct fact of `class`; returns the node path and
/// the fact site.
fn witness(
    fns: &[GraphFn],
    eff: &[[bool; CLASSES]],
    start: usize,
    class: usize,
) -> (Vec<usize>, Option<(usize, usize, &'static str)>) {
    let mut prev: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([start]);
    let mut seen: BTreeSet<usize> = BTreeSet::from([start]);
    let mut found = None;
    while let Some(node) = queue.pop_front() {
        if fns[node].facts[class] {
            found = Some(node);
            break;
        }
        for &next in &fns[node].edges {
            if eff[next][class] && !fns[next].exempt[class] && seen.insert(next) {
                prev.insert(next, node);
                queue.push_back(next);
            }
        }
    }
    match found {
        None => (vec![start], None),
        Some(end) => {
            let mut path = vec![end];
            let mut cur = end;
            while let Some(&p) = prev.get(&cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            let site = fns[end].fact_site[class].map(|(line, token)| (end, line, token));
            (path, site)
        }
    }
}
