//! Item-level parsing: `fn` items, `impl`/`trait` contexts, `struct`
//! fields, local bindings, and call sites.
//!
//! This is a *recursive-descent item parser over the lexer*, not a Rust
//! frontend: it runs on the [`crate::LexedLine`] stream (literals
//! blanked, comments stripped) and extracts exactly what the call-graph
//! pass needs — which functions exist, what their receiver type is,
//! what their parameters and locals are typed as, and which calls their
//! bodies make. Everything it cannot classify it records as *unknown*,
//! and the resolver (see `graph.rs`) over-approximates unknowns by
//! name, so parser imprecision can add spurious call edges but never
//! hide real ones behind a wrong type.

use std::collections::{BTreeMap, BTreeSet};

use crate::LexedLine;

/// One token of executable code.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// A numeric literal (kept as a token so a receiver chain like
    /// `pair.0.dot(..)` is not mistaken for a field chain).
    Num,
    /// Any other single significant character.
    Punct(char),
}

/// A token plus the 0-based line it came from.
#[derive(Debug, Clone)]
pub(crate) struct SpannedTok {
    pub tok: Tok,
    pub line: usize,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Recv {
    /// `name(...)` — a free (or locally-imported) function call.
    Free,
    /// `a::b::name(...)` — qualifier path, last segment first dropped.
    Path(Vec<String>),
    /// `x.y.name(...)` — a pure field chain receiver (idents/`self`).
    Chain(Vec<String>),
    /// Receiver exists but is not a simple chain (call result, index,
    /// parenthesised expression, `?`-propagation, ...).
    Unknown,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub(crate) struct CallSite {
    /// Callee name (last path segment / method name).
    pub callee: String,
    /// Receiver / qualifier shape.
    pub recv: Recv,
    /// The call sits behind an *inner* `#[cfg(...)]` attribute — a
    /// feature-gated statement, block, or match arm inside an otherwise
    /// ungated function. Such calls are absent from the always-on
    /// build, so the call graph drops their edges (see `graph.rs`),
    /// exactly as whole `#[cfg]`-gated items are dropped.
    pub cfg_gated: bool,
}

/// A local binding's inferred type.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LocalTy {
    /// Annotated or inferred base type name (first path segment base).
    Known(String),
    /// `let x = self.a.b;` — resolve through struct field tables later.
    SelfChain(Vec<String>),
    /// Anything else.
    Unknown,
}

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub(crate) struct FnItem {
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` target base name, if any.
    pub self_type: Option<String>,
    /// 0-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 0-based line of the body's closing brace (== `sig_line` for
    /// bodyless trait-method declarations).
    pub end_line: usize,
    /// Whether the item sits inside a `#[cfg(test)]` module.
    pub is_test: bool,
    /// Whether the item carries a `#[cfg(...)]` attribute of its own —
    /// conditionally compiled code (feature gates, platform gates) that
    /// is absent from the always-on build and therefore stays out of
    /// the call graph, like test code.
    pub cfg_gated: bool,
    /// Parameter name → base type name (None when generic/unknown).
    pub params: BTreeMap<String, Option<String>>,
    /// Generic type parameter names declared by the signature.
    pub generics: BTreeSet<String>,
    /// Local `let` bindings, last shadowing wins.
    pub locals: BTreeMap<String, LocalTy>,
    /// Calls made by the body (closures included).
    pub calls: Vec<CallSite>,
    /// Brace depth of the body (innermost-wins fact attribution).
    pub depth: usize,
}

/// Everything item-level extracted from one file.
#[derive(Debug, Clone, Default)]
pub(crate) struct ParsedFile {
    /// Functions in source order.
    pub fns: Vec<FnItem>,
    /// Struct name → (field name → base type name).
    pub struct_fields: BTreeMap<String, BTreeMap<String, String>>,
    /// Every type this file defines (structs, enums, impl targets).
    pub types: BTreeSet<String>,
}

/// Rust keywords that can precede a `(` without being calls.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "where", "move", "ref", "mut", "pub", "use", "mod", "const", "static", "let", "fn", "impl",
    "trait", "struct", "enum", "type", "dyn", "crate", "super", "self", "Self", "unsafe", "async",
    "await", "extern",
];

/// Tokenizes blanked code lines into identifiers and puncts.
fn tokenize(lines: &[LexedLine]) -> Vec<SpannedTok> {
    let mut toks = Vec::new();
    for (line_idx, line) in lines.iter().enumerate() {
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push(SpannedTok {
                    tok: Tok::Ident(chars[start..i].iter().collect()),
                    line: line_idx,
                });
            } else if c.is_ascii_digit() {
                // Consume the whole numeric literal, suffixes included
                // (`1.5e-3f64`, `0xFF`); a trailing `.` only belongs to
                // the number when a digit follows (so `x.0.dot` keeps
                // its dots).
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                if i + 1 < chars.len() && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                }
                toks.push(SpannedTok {
                    tok: Tok::Num,
                    line: line_idx,
                });
            } else if c == '\'' {
                // Lifetime (`'a`) or the shell of a blanked char literal
                // (`''` / `'x'` with contents blanked): skip either.
                if i + 1 < chars.len() && (chars[i + 1].is_alphabetic() || chars[i + 1] == '_') {
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                } else {
                    i += 1;
                }
            } else if c == '"' {
                // Blanked string shells carry no information.
                i += 1;
            } else {
                toks.push(SpannedTok {
                    tok: Tok::Punct(c),
                    line: line_idx,
                });
                i += 1;
            }
        }
    }
    toks
}

fn ident(toks: &[SpannedTok], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s),
        _ => None,
    }
}

fn punct(toks: &[SpannedTok], i: usize) -> Option<char> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// Skips a balanced `<...>` group starting at the `<`; returns the
/// index just past the matching `>`. `->` and `=>` arrows inside do
/// not close the group.
fn skip_generics(toks: &[SpannedTok], mut i: usize) -> usize {
    debug_assert_eq!(punct(toks, i), Some('<'));
    let mut depth = 0usize;
    while i < toks.len() {
        match punct(toks, i) {
            Some('<') => depth += 1,
            Some('>') => {
                let arrow = i > 0 && matches!(punct(toks, i - 1), Some('-') | Some('='));
                if !arrow {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
            }
            Some(';') | Some('{') => return i, // malformed; bail before the body
            _ => {}
        }
        i += 1;
    }
    i
}

/// Reads a type's *base name*: skips `&`, `mut`, `dyn`, lifetimes and
/// parens, then returns the first path segment identifier (`Vec` for
/// `Vec<f64>`, `SparseVec` for `&mut SparseVec`, `[]` for the slices and
/// arrays `&[T]` / `[T; N]` — like `Vec`, a known-external type whose
/// `get`/`iter`/`len` are std's — and None for `(A, B)`, `impl Trait`,
/// `fn(..)`, ...). Returns the index just past whatever was consumed
/// *of the prefix* (callers re-scan for `,`/`)`).
fn type_base(toks: &[SpannedTok], mut i: usize) -> (Option<String>, usize) {
    loop {
        match toks.get(i).map(|t| &t.tok) {
            Some(Tok::Punct('&')) => i += 1,
            Some(Tok::Ident(s)) if s == "mut" || s == "dyn" => i += 1,
            _ => break,
        }
    }
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) if s == "impl" || s == "fn" => (None, i + 1),
        Some(Tok::Punct('[')) => (Some("[]".to_string()), i + 1),
        Some(Tok::Ident(first)) => {
            // Walk `a::b::C` to its last segment.
            let mut base = first.clone();
            let mut j = i + 1;
            while punct(toks, j) == Some(':') && punct(toks, j + 1) == Some(':') {
                if let Some(seg) = ident(toks, j + 2) {
                    base = seg.to_string();
                    j += 3;
                } else {
                    break;
                }
            }
            (Some(base), j)
        }
        _ => (None, i),
    }
}

/// Parses `fn` signature tokens starting at the `fn` keyword index.
/// Returns the partially-filled item and the index of the body `{`
/// (or of the `;` for bodyless declarations).
fn parse_fn_header(
    toks: &[SpannedTok],
    fn_kw: usize,
    self_type: Option<String>,
) -> Option<(FnItem, usize, bool)> {
    let name = ident(toks, fn_kw + 1)?.to_string();
    let mut item = FnItem {
        name,
        self_type,
        sig_line: toks[fn_kw].line,
        end_line: toks[fn_kw].line,
        is_test: false,
        cfg_gated: false,
        params: BTreeMap::new(),
        generics: BTreeSet::new(),
        locals: BTreeMap::new(),
        calls: Vec::new(),
        depth: 0,
    };
    let mut i = fn_kw + 2;
    if punct(toks, i) == Some('<') {
        // Generic parameter names: the identifiers that directly follow
        // `<` or a top-level `,` (bounds after `:` are skipped).
        let end = skip_generics(toks, i);
        let mut expect_param = true;
        let mut depth = 0usize;
        for spanned in &toks[i..end] {
            match &spanned.tok {
                Tok::Punct('<') => depth += 1,
                Tok::Punct('>') => depth = depth.saturating_sub(1),
                Tok::Punct(',') if depth == 1 => expect_param = true,
                Tok::Punct(':') if depth == 1 => expect_param = false,
                Tok::Ident(s) if depth == 1 && expect_param && s != "const" => {
                    item.generics.insert(s.clone());
                    expect_param = false;
                }
                _ => {}
            }
        }
        i = end;
    }
    if punct(toks, i) != Some('(') {
        return None;
    }
    // Parameters: at paren depth 1, grab `name: Type` pairs.
    let mut depth = 0usize;
    loop {
        match toks.get(i).map(|t| &t.tok) {
            None => return None,
            Some(Tok::Punct('(')) => {
                depth += 1;
                i += 1;
            }
            Some(Tok::Punct(')')) => {
                depth -= 1;
                i += 1;
                if depth == 0 {
                    break;
                }
            }
            Some(Tok::Ident(pname))
                if depth == 1
                    && punct(toks, i + 1) == Some(':')
                    && punct(toks, i + 2) != Some(':')
                    && (i == 0
                        || matches!(punct(toks, i - 1), Some('(') | Some(',') | Some('&'))
                        || matches!(ident(toks, i - 1), Some("mut"))) =>
            {
                let (base, next) = type_base(toks, i + 2);
                let ty = base.filter(|b| !item.generics.contains(b));
                item.params.insert(pname.clone(), ty);
                i = next.max(i + 2);
            }
            _ => i += 1,
        }
    }
    // Return type / where clause: scan to the body `{` or a `;`.
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('{') => return Some((item, i, true)),
            Tok::Punct(';') => return Some((item, i, false)),
            // `-> ... <...>` generics may hide `>`-free braces? No:
            // return types and where clauses contain no `{`.
            _ => i += 1,
        }
    }
    None
}

/// Parses `struct Name { field: Type, ... }` fields starting just past
/// the struct name; tuple structs and unit structs record no fields.
fn parse_struct_fields(
    toks: &[SpannedTok],
    mut i: usize,
    fields: &mut BTreeMap<String, String>,
) -> usize {
    if punct(toks, i) == Some('<') {
        i = skip_generics(toks, i);
    }
    // Skip a possible `where` clause up to `{`, `;` or `(`.
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('{') => break,
            Tok::Punct(';') | Tok::Punct('(') => return i,
            _ => i += 1,
        }
    }
    let mut depth = 0usize;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('{') => {
                depth += 1;
                i += 1;
            }
            Tok::Punct('}') => {
                depth -= 1;
                i += 1;
                if depth == 0 {
                    return i;
                }
            }
            Tok::Ident(fname)
                if depth == 1
                    && punct(toks, i + 1) == Some(':')
                    && punct(toks, i + 2) != Some(':')
                    && fname != "pub" =>
            {
                let (base, next) = type_base(toks, i + 2);
                if let Some(base) = base {
                    fields.insert(fname.clone(), base);
                }
                i = next.max(i + 2);
            }
            _ => i += 1,
        }
    }
    i
}

/// Walks a receiver chain backwards from the `.` before a method name.
/// `dot` is the index of that `.`. Returns the chain in source order
/// (`["self", "policy"]`), or None for non-chain receivers.
fn receiver_chain(toks: &[SpannedTok], dot: usize) -> Option<Vec<String>> {
    let mut chain: Vec<String> = Vec::new();
    let mut i = dot; // invariant: toks[i] is the `.` awaiting a receiver
    loop {
        if i == 0 {
            return None;
        }
        match &toks[i - 1].tok {
            Tok::Ident(seg) => {
                chain.push(seg.clone());
                // Another `.` continues the chain — unless it is the
                // second dot of a range (`0..self.n.get()`); `::` means
                // a path-qualified head (rare; treat as unknown);
                // anything else ends it.
                let range = i >= 3 && punct(toks, i - 3) == Some('.');
                if i >= 2 && punct(toks, i - 2) == Some('.') && !range {
                    i -= 2;
                } else if i >= 3
                    && punct(toks, i - 2) == Some(':')
                    && punct(toks, i - 3) == Some(':')
                {
                    return None;
                } else {
                    chain.reverse();
                    return Some(chain);
                }
            }
            Tok::Num => {
                // Tuple-field hop (`pair.0.dot(..)`): the hop itself is
                // untypable here, so the chain is unknown.
                return None;
            }
            _ => return None,
        }
    }
}

/// Walks a `a::b::name(` qualifier backwards from the `::` before the
/// callee. `colon2` is the index of the *second* colon (the one
/// directly before the name). Returns segments in source order,
/// excluding the callee itself.
fn qualifier_path(toks: &[SpannedTok], colon2: usize) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    // toks[colon2] == ':' and toks[colon2 - 1] == ':'.
    let mut i = colon2 - 1; // first colon of the `::` pair
    loop {
        if i == 0 {
            break;
        }
        match &toks[i - 1].tok {
            Tok::Ident(seg) => {
                segs.push(seg.clone());
                if i >= 3 && punct(toks, i - 2) == Some(':') && punct(toks, i - 3) == Some(':') {
                    i -= 3;
                } else {
                    break;
                }
            }
            Tok::Punct('>') => {
                // `Vec::<T>::new` style turbofish in the qualifier:
                // give up on the deeper segments (over-approximate).
                break;
            }
            _ => break,
        }
    }
    segs.reverse();
    segs
}

/// Infers a `let` initializer's type from the tokens after the `=`.
fn infer_initializer(toks: &[SpannedTok], mut i: usize, self_type: Option<&str>) -> LocalTy {
    // `Type::...` or `Type { ... }` — both start with an uppercase path.
    if let Some(first) = ident(toks, i) {
        if first == "self" {
            // Pure field chain `self.a.b;` (no calls) resolves later.
            let mut chain = Vec::new();
            i += 1;
            while punct(toks, i) == Some('.') {
                match ident(toks, i + 1) {
                    Some(seg) => {
                        chain.push(seg.to_string());
                        i += 2;
                    }
                    None => return LocalTy::Unknown,
                }
            }
            if matches!(punct(toks, i), Some(';')) && !chain.is_empty() {
                return LocalTy::SelfChain(chain);
            }
            return LocalTy::Unknown;
        }
        if first.chars().next().is_some_and(char::is_uppercase) {
            // Walk the expression path `A::B::c`, tracking the last
            // *uppercase* segment — in `SparseVec::zeros(n)` the type is
            // `SparseVec`, not the constructor-fn segment.
            let mut base = first.to_string();
            let mut next = i + 1;
            loop {
                if punct(toks, next) == Some('<') {
                    next = skip_generics(toks, next);
                }
                if punct(toks, next) == Some(':') && punct(toks, next + 1) == Some(':') {
                    next += 2;
                    if punct(toks, next) == Some('<') {
                        next = skip_generics(toks, next);
                    }
                    match ident(toks, next) {
                        Some(seg) => {
                            if seg.chars().next().is_some_and(char::is_uppercase) {
                                base = seg.to_string();
                            }
                            next += 1;
                        }
                        None => return LocalTy::Unknown,
                    }
                } else {
                    break;
                }
            }
            {
                let base = if base == "Self" {
                    match self_type {
                        Some(t) => t.to_string(),
                        None => return LocalTy::Unknown,
                    }
                } else {
                    base
                };
                // Constructor-ish forms only: `T::ctor(...)`, `T { .. }`,
                // `T(...)` — a bare `CONST` or `T::CONST` stays unknown
                // unless followed by one of these.
                return match toks.get(next).map(|t| &t.tok) {
                    Some(Tok::Punct('(')) | Some(Tok::Punct('{')) => LocalTy::Known(base),
                    _ => LocalTy::Unknown,
                };
            }
        }
    }
    LocalTy::Unknown
}

/// Context kinds the brace-tracking stack distinguishes.
#[derive(Debug, Clone)]
enum Ctx {
    /// `impl Type { ... }` / `trait Name { ... }` — methods bind here.
    Impl(String),
    /// A function body; the index points into `ParsedFile::fns`.
    Fn(usize),
    /// Any other brace (blocks, closures, struct literals, modules).
    Other,
}

/// Walks upward from a `fn` signature line over attribute, blank, and
/// comment-only lines looking for a `#[cfg(...)]` attribute attached to
/// the item (the same upward-attribution shape as the doc-comment
/// check). `#[cfg_attr(...)]` does not count: the item itself is always
/// compiled, only an attribute on it is conditional.
fn cfg_gated_at(lines: &[LexedLine], sig_line: usize) -> bool {
    if lines[sig_line].code.contains("#[cfg(") {
        return true;
    }
    let mut i = sig_line;
    while i > 0 {
        i -= 1;
        let code = lines[i].code.trim();
        if code.is_empty() {
            continue; // blank or comment-only line
        }
        let is_attr = code.starts_with("#[") || (code.ends_with(']') && !code.contains('{'));
        if !is_attr {
            return false; // first real code line above: not our attribute
        }
        if code.contains("#[cfg(") {
            return true;
        }
    }
    false
}

/// Advances past one `#[ ... ]` attribute group, entered at its `#`.
/// Returns the token index just after the matching `]` (or the end of
/// the stream for an unterminated attribute).
fn skip_attr(toks: &[SpannedTok], hash: usize) -> usize {
    let mut j = hash + 2; // past `#` `[`
    let mut depth = 1i32;
    while j < toks.len() && depth > 0 {
        match toks[j].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Token-level mask of code conditioned on an `#[cfg(...)]` attribute:
/// the statement, expression, block, match arm, or item that the
/// attribute gates. Call sites inside such a span are conditionally
/// compiled, so the graph pass treats them like calls in `#[cfg]`-gated
/// items — no always-on edge. `#[cfg_attr(...)]` does not gate: the
/// code is always compiled, only an attribute on it is conditional.
///
/// The span starts after the attribute (skipping stacked attributes)
/// and ends at the first `;` or `,` at bracket depth 0, or when a brace
/// group opened inside the span closes back to depth 0 — which covers
/// `#[cfg] { .. }` blocks, gated `fn`/`mod` items, and braced match
/// arms. Imprecision is one-sided in the safe direction: a span cut
/// short leaves later calls ungated and merely keeps their edges.
fn cfg_gated_spans(toks: &[SpannedTok]) -> Vec<bool> {
    let mut gated = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        let is_cfg = matches!(toks[i].tok, Tok::Punct('#'))
            && punct(toks, i + 1) == Some('[')
            && ident(toks, i + 2) == Some("cfg")
            && punct(toks, i + 3) == Some('(');
        if !is_cfg {
            i += 1;
            continue;
        }
        let mut j = skip_attr(toks, i);
        // Stacked attributes between the cfg and its item all belong to
        // the same gated target.
        while punct(toks, j) == Some('#') && punct(toks, j + 1) == Some('[') {
            j = skip_attr(toks, j);
        }
        let mut depth = 0i32;
        while j < toks.len() {
            let c = match toks[j].tok {
                Tok::Punct(c) => Some(c),
                _ => None,
            };
            match c {
                Some('{') | Some('(') | Some('[') => depth += 1,
                Some('}') | Some(')') | Some(']') => {
                    if depth == 0 {
                        break; // closes the *enclosing* scope, not ours
                    }
                    depth -= 1;
                    gated[j] = true;
                    j += 1;
                    if depth == 0 && c == Some('}') {
                        break; // the gated block/item body just closed
                    }
                    continue;
                }
                Some(';') | Some(',') if depth == 0 => {
                    gated[j] = true;
                    j += 1;
                    break;
                }
                _ => {}
            }
            gated[j] = true;
            j += 1;
        }
        i = j.max(i + 1);
    }
    gated
}

/// Parses one file's token stream into items.
///
/// `in_test` marks lines inside `#[cfg(test)]` modules (computed by the
/// caller's brace scan); functions whose signature line is marked are
/// tagged [`FnItem::is_test`]; functions carrying their own `#[cfg]`
/// attribute are tagged [`FnItem::cfg_gated`].
pub(crate) fn parse_file(lines: &[LexedLine], in_test: &[bool]) -> ParsedFile {
    let toks = tokenize(lines);
    let cfg_gated_toks = cfg_gated_spans(&toks);
    let mut out = ParsedFile::default();
    // Stack entries: (ctx, depth at which its `{` opened).
    let mut stack: Vec<(Ctx, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;

    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('{') => {
                stack.push((Ctx::Other, depth));
                depth += 1;
                i += 1;
            }
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                while let Some((ctx, d)) = stack.last() {
                    if *d >= depth {
                        if let Ctx::Fn(fi) = ctx {
                            out.fns[*fi].end_line = toks[i].line;
                        }
                        stack.pop();
                    } else {
                        break;
                    }
                }
                i += 1;
            }
            Tok::Ident(kw) if kw == "impl" => {
                // `impl<G> Trait for Type<G> { ... }` — target is the
                // last path's base. Only at item position: inside a fn
                // body `impl` can only appear in types, which the fn
                // header parser has already consumed, so treat any
                // remaining occurrence conservatively.
                let mut j = i + 1;
                if punct(&toks, j) == Some('<') {
                    j = skip_generics(&toks, j);
                }
                let (first, next) = type_base(&toks, j);
                let mut target = first;
                let mut j = next;
                if punct(&toks, j) == Some('<') {
                    j = skip_generics(&toks, j);
                }
                if ident(&toks, j) == Some("for") {
                    let (second, next) = type_base(&toks, j + 1);
                    target = second.or(target);
                    j = next;
                }
                // Scan to the body `{` (skipping where clauses).
                while j < toks.len() && !matches!(toks[j].tok, Tok::Punct('{') | Tok::Punct(';')) {
                    j += 1;
                }
                if punct(&toks, j) == Some('{') {
                    if let Some(target) = target {
                        out.types.insert(target.clone());
                        stack.push((Ctx::Impl(target), depth));
                    } else {
                        stack.push((Ctx::Other, depth));
                    }
                    depth += 1;
                    i = j + 1;
                } else {
                    i = j + 1;
                }
            }
            Tok::Ident(kw) if kw == "trait" => {
                let name = ident(&toks, i + 1).map(str::to_string);
                let mut j = i + 2;
                while j < toks.len() && !matches!(toks[j].tok, Tok::Punct('{') | Tok::Punct(';')) {
                    j += 1;
                }
                if punct(&toks, j) == Some('{') {
                    match name {
                        Some(name) => stack.push((Ctx::Impl(name), depth)),
                        None => stack.push((Ctx::Other, depth)),
                    }
                    depth += 1;
                    i = j + 1;
                } else {
                    i = j + 1;
                }
            }
            Tok::Ident(kw) if (kw == "struct" || kw == "enum") && ident(&toks, i + 1).is_some() => {
                let name = ident(&toks, i + 1).unwrap_or_default().to_string();
                out.types.insert(name.clone());
                if kw == "struct" {
                    let mut fields = BTreeMap::new();
                    let next = parse_struct_fields(&toks, i + 2, &mut fields);
                    out.struct_fields.insert(name, fields);
                    i = next.max(i + 2);
                } else {
                    i += 2;
                }
            }
            Tok::Ident(kw) if kw == "fn" && ident(&toks, i + 1).is_some() => {
                let self_type = stack.iter().rev().find_map(|(ctx, _)| match ctx {
                    Ctx::Impl(t) => Some(t.clone()),
                    _ => None,
                });
                match parse_fn_header(&toks, i, self_type) {
                    Some((mut item, body, has_body)) => {
                        item.is_test = in_test.get(item.sig_line).copied().unwrap_or(false);
                        item.cfg_gated = cfg_gated_at(lines, item.sig_line);
                        item.depth = depth;
                        let fi = out.fns.len();
                        if has_body {
                            out.fns.push(item);
                            stack.push((Ctx::Fn(fi), depth));
                            depth += 1;
                        } else {
                            out.fns.push(item);
                        }
                        i = body + 1;
                    }
                    None => i += 1,
                }
            }
            Tok::Ident(kw) if kw == "let" => {
                // Only meaningful inside a fn body.
                let cur_fn = stack.iter().rev().find_map(|(ctx, _)| match ctx {
                    Ctx::Fn(fi) => Some(*fi),
                    _ => None,
                });
                let mut j = i + 1;
                if ident(&toks, j) == Some("mut") {
                    j += 1;
                }
                if let (Some(fi), Some(name)) = (cur_fn, ident(&toks, j)) {
                    if name.chars().next().is_some_and(char::is_lowercase) || name.starts_with('_')
                    {
                        let name = name.to_string();
                        let k = j + 1;
                        let ty = if punct(&toks, k) == Some(':') && punct(&toks, k + 1) != Some(':')
                        {
                            let (base, _next) = type_base(&toks, k + 1);
                            match base {
                                Some(b) if !out.fns[fi].generics.contains(&b) => LocalTy::Known(b),
                                _ => LocalTy::Unknown,
                            }
                        } else if punct(&toks, k) == Some('=') && punct(&toks, k + 1) != Some('=') {
                            let self_ty = out.fns[fi].self_type.clone();
                            infer_initializer(&toks, k + 1, self_ty.as_deref())
                        } else {
                            LocalTy::Unknown
                        };
                        out.fns[fi].locals.insert(name, ty);
                    }
                }
                i = j + 1;
            }
            Tok::Ident(name) if punct(&toks, i + 1) == Some('(') => {
                let cur_fn = stack.iter().rev().find_map(|(ctx, _)| match ctx {
                    Ctx::Fn(fi) => Some(*fi),
                    _ => None,
                });
                let skip = cur_fn.is_none()
                    || KEYWORDS.contains(&name.as_str())
                    || (i > 0 && punct(&toks, i - 1) == Some('#')); // attrs
                if !skip {
                    let recv = if i > 0 && punct(&toks, i - 1) == Some('.') {
                        match receiver_chain(&toks, i - 1) {
                            Some(chain) => Recv::Chain(chain),
                            None => Recv::Unknown,
                        }
                    } else if i > 1
                        && punct(&toks, i - 1) == Some(':')
                        && punct(&toks, i - 2) == Some(':')
                    {
                        Recv::Path(qualifier_path(&toks, i - 1))
                    } else {
                        Recv::Free
                    };
                    if let Some(fi) = cur_fn {
                        out.fns[fi].calls.push(CallSite {
                            callee: name.clone(),
                            recv,
                            cfg_gated: cfg_gated_toks[i],
                        });
                    }
                }
                i += 1;
            }
            Tok::Ident(name) if punct(&toks, i + 1) == Some('!') => {
                // Macro invocation: skip the bang so `name(` above never
                // sees it as a call.
                let _ = name;
                i += 2;
            }
            _ => i += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex;

    fn parse(src: &str) -> ParsedFile {
        let lines = lex(src);
        let in_test = vec![false; lines.len()];
        parse_file(&lines, &in_test)
    }

    #[test]
    fn extracts_free_fns_and_methods() {
        let src = "\
fn free_one() {}
struct Agent { policy: Policy }
impl Agent {
    fn decide(&mut self, view: &View) -> usize { self.policy.sample(view) }
}
impl Scheduler for Agent {
    fn name(&self) -> &str { helper() }
}
";
        let p = parse(src);
        let names: Vec<(String, Option<String>)> = p
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.self_type.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free_one".into(), None),
                ("decide".into(), Some("Agent".into())),
                ("name".into(), Some("Agent".into())),
            ]
        );
        assert_eq!(p.struct_fields["Agent"]["policy"], "Policy");
        assert_eq!(p.fns[1].params["view"], Some("View".into()));
        let call = &p.fns[1].calls[0];
        assert_eq!(call.callee, "sample");
        assert_eq!(call.recv, Recv::Chain(vec!["self".into(), "policy".into()]));
        assert_eq!(p.fns[2].calls[0].recv, Recv::Free);
    }

    #[test]
    fn generic_params_are_not_types() {
        let src = "fn run<S, F>(sim: &Sim, make: F) -> usize where F: Fn(u64) -> S { make(1) }\n";
        let p = parse(src);
        assert_eq!(p.fns.len(), 1, "{:?}", p.fns);
        assert!(p.fns[0].generics.contains("S"));
        assert!(p.fns[0].generics.contains("F"));
        assert_eq!(p.fns[0].params["sim"], Some("Sim".into()));
        assert_eq!(p.fns[0].params["make"], None);
    }

    #[test]
    fn qualified_calls_and_locals() {
        let src = "\
fn build(dim: usize) {
    let v = SparseVec::zeros(dim);
    let w: DokMatrix = helper();
    v.dot(&w);
    megh_linalg::mean(&[1.0]);
}
";
        let p = parse(src);
        let f = &p.fns[0];
        assert_eq!(f.locals["v"], LocalTy::Known("SparseVec".into()));
        assert_eq!(f.locals["w"], LocalTy::Known("DokMatrix".into()));
        let kinds: Vec<(&str, &Recv)> = f
            .calls
            .iter()
            .map(|c| (c.callee.as_str(), &c.recv))
            .collect();
        assert_eq!(kinds[0].0, "zeros");
        assert_eq!(*kinds[0].1, Recv::Path(vec!["SparseVec".into()]));
        assert_eq!(kinds[2].0, "dot");
        assert_eq!(*kinds[2].1, Recv::Chain(vec!["v".into()]));
        assert_eq!(kinds[3].0, "mean");
        assert_eq!(*kinds[3].1, Recv::Path(vec!["megh_linalg".into()]));
    }

    #[test]
    fn macros_are_not_calls() {
        let src = "fn f() { vec![1, 2]; format!(\"x\"); real_call(); }\n";
        let p = parse(src);
        let names: Vec<&str> = p.fns[0].calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(names, vec!["real_call"]);
    }

    #[test]
    fn call_result_receivers_are_unknown() {
        let src = "fn f(xs: &[f64]) { xs.iter().map(g).sum::<f64>(); (a + b).norm(); }\n";
        let p = parse(src);
        for call in &p.fns[0].calls {
            if call.callee == "map" || call.callee == "norm" {
                assert_eq!(call.recv, Recv::Unknown, "{call:?}");
            }
        }
    }

    #[test]
    fn range_bound_receivers_keep_their_chain() {
        let src = "fn f(&self) { for _ in 0..self.factor.get() {} }\n";
        let p = parse(src);
        let call = &p.fns[0].calls[0];
        assert_eq!(call.callee, "get");
        assert_eq!(call.recv, Recv::Chain(vec!["self".into(), "factor".into()]));
    }

    #[test]
    fn nested_fn_bodies_attribute_calls_to_innermost() {
        let src = "\
fn outer() {
    fn inner() { deep_call(); }
    outer_call();
}
";
        let p = parse(src);
        assert_eq!(p.fns.len(), 2);
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = p.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(outer.calls[0].callee, "outer_call");
        assert_eq!(inner.calls[0].callee, "deep_call");
    }

    #[test]
    fn struct_literal_initializer_is_known() {
        let src = "fn f() { let cfg = MeghConfig { seed: 1 }; cfg.validate(); }\n";
        let p = parse(src);
        assert_eq!(p.fns[0].locals["cfg"], LocalTy::Known("MeghConfig".into()));
    }

    #[test]
    fn cfg_gated_call_sites_are_tagged() {
        // The four shapes an inner `#[cfg]` gates in this workspace: a
        // statement, a block, a struct-literal field, and a match arm.
        let src = "\
impl Agent {
    fn update(&mut self) {
        self.step();
        #[cfg(feature = \"check-invariants\")]
        self.verify_update();
        #[cfg(feature = \"check-invariants\")]
        {
            let structure = self.check_consistency();
            helper(structure);
        }
        self.finish();
    }
    fn build(kind: u8) -> Agent {
        Agent {
            policy: make_policy(),
            #[cfg(feature = \"check-invariants\")]
            shadow: Self::shadow_for(),
        };
        match kind {
            #[cfg(unix)]
            0 => unix_path(),
            _ => default_path(),
        }
    }
}
";
        let p = parse(src);
        let gated_of = |f: &FnItem, callee: &str| {
            f.calls
                .iter()
                .find(|c| c.callee == callee)
                .map(|c| c.cfg_gated)
        };
        let update = &p.fns[0];
        assert_eq!(gated_of(update, "step"), Some(false));
        assert_eq!(gated_of(update, "verify_update"), Some(true));
        assert_eq!(gated_of(update, "check_consistency"), Some(true));
        assert_eq!(gated_of(update, "helper"), Some(true));
        assert_eq!(gated_of(update, "finish"), Some(false));
        let build = &p.fns[1];
        assert_eq!(gated_of(build, "make_policy"), Some(false));
        assert_eq!(gated_of(build, "shadow_for"), Some(true));
        assert_eq!(gated_of(build, "unix_path"), Some(true));
        assert_eq!(gated_of(build, "default_path"), Some(false));
    }

    #[test]
    fn cfg_attr_does_not_gate_calls() {
        // `#[cfg_attr(..)]` conditions an attribute, not the code.
        let src = "\
fn f() {
    #[cfg_attr(test, allow(dead_code))]
    let x = helper();
    other(x);
}
";
        let p = parse(src);
        for call in &p.fns[0].calls {
            assert!(!call.cfg_gated, "{call:?}");
        }
    }
}
