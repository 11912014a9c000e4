//! Per-function fact extraction and the approximate intra-crate call graph.
//!
//! For every parsed function ([`crate::parser`]) this module records what
//! the flow analyses need: the calls it makes (with a best-effort
//! `Type::method` qualification), the nondeterminism *sources* it touches
//! (wall clock, unordered-collection iteration, env reads, pointer-to-int
//! casts, float folds over unordered iterators), and how
//! many *panicking constructs* it contains (indexing/slicing, the
//! `unwrap` family, explicit panic macros).
//!
//! Edges are resolved **by name** within one crate: a call to `foo` points
//! at every function named `foo` in the crate, `Type::foo` prefers the
//! qualified match. That over-approximates (a `merge` call may resolve to
//! several `merge` methods) — deliberately so: for taint and panic-path
//! analyses a spurious edge costs a reviewable false positive, a missing
//! edge silently hides a real flow.

use std::collections::{BTreeMap, VecDeque};

use crate::parser::{ItemTree, EXPR_KEYWORDS};
use crate::tokenizer::{TokKind, Token};

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Bare callee name (`place`, `to_json`, ...).
    pub name: String,
    /// `Type::name` when the call is written `Type::name(..)`.
    pub qual: Option<String>,
    /// True for `.name(..)` method-call syntax.
    pub is_method: bool,
    /// 1-based position of the callee token.
    pub line: u32,
    /// See `line`.
    pub col: u32,
}

/// A nondeterminism source occurrence inside a function body.
#[derive(Debug, Clone)]
pub struct TaintSource {
    /// Stable source-class key (`wall-clock`, `unordered-iter`,
    /// `env-read`, `ptr-to-int`, `float-fold-unordered`).
    pub kind: &'static str,
    /// Human description of the exact construct (`` `Instant::now()` ``).
    pub what: String,
    /// 1-based position of the source token.
    pub line: u32,
    /// See `line`.
    pub col: u32,
}

/// Everything the crate-level analyses need to know about one function.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Workspace-relative file path.
    pub file: String,
    /// Bare name.
    pub name: String,
    /// `Type::name` for methods.
    pub qual: Option<String>,
    /// 1-based position of the function item.
    pub line: u32,
    /// See `line`.
    pub col: u32,
    /// Inside a `#[cfg(test)]` item or a `tests/` tree: excluded from
    /// production analyses.
    pub is_test: bool,
    /// Call sites in body order.
    pub calls: Vec<CallSite>,
    /// Nondeterminism sources in body order.
    pub sources: Vec<TaintSource>,
    /// Count of panicking constructs (indexing/slicing, `unwrap`-family,
    /// explicit panic/assert macros).
    pub panic_count: usize,
}

/// The panic-construct classes counted by [`extract_fns`].
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];
const UNWRAP_FAMILY: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Extract per-function facts for one file. `file_is_test` marks a whole
/// `tests/` tree file (every function in it is test-only).
pub fn extract_fns(rel: &str, sig: &[&Token], tree: &ItemTree, file_is_test: bool) -> Vec<FnDef> {
    let mut out = Vec::with_capacity(tree.fns.len());
    for f in &tree.fns {
        let Some((open, close)) = f.body else {
            continue;
        };
        let body_start = (open + 1).min(sig.len());
        let body_end = close.min(sig.len());
        let body = &sig[body_start..body_end];
        let mut def = FnDef {
            file: rel.to_string(),
            name: f.name.clone(),
            qual: f.qual.clone(),
            line: f.span.line,
            col: f.span.col,
            is_test: file_is_test || f.is_test,
            calls: Vec::new(),
            sources: Vec::new(),
            panic_count: 0,
        };
        scan_calls(body, &mut def.calls);
        scan_sources(body, &mut def.sources);
        def.panic_count = count_panic_sites(body);
        out.push(def);
    }
    out
}

fn ident<'a>(body: &[&'a Token], i: usize) -> Option<&'a str> {
    body.get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

fn is_punct(body: &[&Token], i: usize, c: char) -> bool {
    body.get(i).is_some_and(|t| t.is_punct(c))
}

/// Every `name(` / `.name(` / `Recv::name(` occurrence that is not a macro
/// invocation, a definition, or a control-flow keyword.
fn scan_calls(body: &[&Token], out: &mut Vec<CallSite>) {
    for i in 0..body.len() {
        let Some(name) = ident(body, i) else { continue };
        if !is_punct(body, i + 1, '(') {
            continue;
        }
        if EXPR_KEYWORDS.contains(&name) {
            continue;
        }
        // `fn name(` is a nested definition, not a call.
        if i > 0 && ident(body, i - 1) == Some("fn") {
            continue;
        }
        let is_method = i > 0 && is_punct(body, i - 1, '.');
        let qual = if i >= 3
            && is_punct(body, i - 1, ':')
            && is_punct(body, i - 2, ':')
            && body.get(i - 3).is_some_and(|t| t.kind == TokKind::Ident)
        {
            body.get(i - 3).map(|r| format!("{}::{name}", r.text))
        } else {
            None
        };
        let t = body[i];
        out.push(CallSite {
            name: name.to_string(),
            qual,
            is_method,
            line: t.line,
            col: t.col,
        });
    }
}

/// True when the idents/puncts at `body[from..]` match `pat` (same
/// convention as the rule passes: 1-byte puncts or identifiers).
fn seq(body: &[&Token], from: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(k, p)| {
        body.get(from + k).is_some_and(|t| {
            if p.len() == 1 && !p.as_bytes()[0].is_ascii_alphanumeric() {
                t.is_punct(p.as_bytes()[0] as char)
            } else {
                t.is_ident(p)
            }
        })
    })
}

/// Nondeterminism sources, in body order.
fn scan_sources(body: &[&Token], out: &mut Vec<TaintSource>) {
    let mut has_unordered = false;
    let mut float_hint = false;
    for t in body {
        if t.kind == TokKind::Ident && (t.text == "f64" || t.text == "f32") {
            float_hint = true;
        }
        if t.kind == TokKind::Num && is_float_literal(&t.text) {
            float_hint = true;
        }
    }
    for i in 0..body.len() {
        let Some(name) = ident(body, i) else { continue };
        match name {
            "Instant" | "SystemTime" if seq(body, i + 1, &[":", ":", "now"]) => {
                push_source(out, body[i], "wall-clock", format!("`{name}::now()`"));
            }
            "HashMap" | "HashSet" => {
                has_unordered = true;
                push_source(
                    out,
                    body[i],
                    "unordered-iter",
                    format!("`{name}` (hash iteration order)"),
                );
            }
            "env" if seq(body, i + 1, &[":", ":"]) => {
                if let Some(what) = ident(body, i + 3) {
                    if matches!(what, "var" | "var_os" | "vars" | "vars_os") {
                        push_source(out, body[i], "env-read", format!("`env::{what}`"));
                    }
                }
            }
            "as_ptr" | "as_mut_ptr" if seq(body, i + 1, &["(", ")", "as"]) => {
                push_source(
                    out,
                    body[i],
                    "ptr-to-int",
                    format!("`.{name}() as <int>` (address-dependent value)"),
                );
            }
            _ => {}
        }
    }
    // Float accumulation over an unordered iterator: only meaningful when
    // the body both iterates a hash collection and folds floats — float
    // addition is non-associative, so the hash order leaks into the sum.
    if has_unordered && float_hint {
        for i in 0..body.len() {
            if is_punct(body, i, '.') {
                if let Some(m) = ident(body, i + 1) {
                    if matches!(m, "sum" | "product" | "fold") {
                        push_source(
                            out,
                            body[i + 1],
                            "float-fold-unordered",
                            format!("float `.{m}(..)` over a hash-ordered iterator"),
                        );
                        break;
                    }
                }
            }
        }
    }
}

fn push_source(out: &mut Vec<TaintSource>, t: &Token, kind: &'static str, what: String) {
    out.push(TaintSource {
        kind,
        what,
        line: t.line,
        col: t.col,
    });
}

/// True for numeric literal text with float syntax (`1.5`, `1e9`, `2.0f64`)
/// as opposed to integer syntax (`42`, `0xff`, `1_000u64`).
fn is_float_literal(text: &str) -> bool {
    let lower = text.to_ascii_lowercase();
    if lower.starts_with("0x") || lower.starts_with("0o") || lower.starts_with("0b") {
        return false;
    }
    lower.contains('.')
        || lower.contains("f3")
        || lower.contains("f6")
        || (lower.contains('e')
            && !lower.ends_with("e")
            && lower.chars().next().is_some_and(|c| c.is_ascii_digit()))
}

/// Panicking constructs in a body: indexing/slicing brackets, the
/// `unwrap`-family, and explicit panic/assert macros (`debug_assert*` is
/// compiled out of release builds and not counted).
fn count_panic_sites(body: &[&Token]) -> usize {
    let mut n = 0usize;
    for i in 0..body.len() {
        let t = body[i];
        if t.is_punct('[') {
            // Indexing: `expr[`, i.e. preceded by an identifier, `)`, `]`,
            // or `?`. Array literals (`= [`), attribute brackets (`#[`),
            // types (`: [u8; 4]`), and macro brackets (`vec![`) are not.
            let indexes = i > 0
                && body.get(i - 1).is_some_and(|p| {
                    (p.kind == TokKind::Ident && !EXPR_KEYWORDS.contains(&p.text.as_str()))
                        || p.is_punct(')')
                        || p.is_punct(']')
                        || p.is_punct('?')
                });
            if indexes {
                n += 1;
            }
        } else if t.is_punct('.') {
            if let Some(m) = ident(body, i + 1) {
                if UNWRAP_FAMILY.contains(&m) && is_punct(body, i + 2, '(') {
                    n += 1;
                }
            }
        } else if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && is_punct(body, i + 1, '!')
        {
            n += 1;
        }
    }
    n
}

/// A crate-wide call graph over non-test functions.
#[derive(Debug, Default)]
pub struct CrateGraph {
    /// The function table (production functions only).
    pub fns: Vec<FnDef>,
    /// `edges[i]` = indices of functions `fns[i]` may call.
    pub edges: Vec<Vec<usize>>,
    /// Reverse edges (callers of `fns[i]`).
    pub redges: Vec<Vec<usize>>,
}

impl CrateGraph {
    /// Build the graph from every production function of one crate.
    pub fn build(fns: Vec<FnDef>) -> Self {
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_qual: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
            if let Some(q) = &f.qual {
                by_qual.entry(q.as_str()).or_default().push(i);
            }
        }
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for (i, f) in fns.iter().enumerate() {
            for call in &f.calls {
                let targets = call
                    .qual
                    .as_deref()
                    .and_then(|q| by_qual.get(q))
                    .or_else(|| by_name.get(call.name.as_str()));
                if let Some(ts) = targets {
                    for &t in ts {
                        if t != i && !edges[i].contains(&t) {
                            edges[i].push(t);
                        }
                    }
                }
            }
        }
        let mut redges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for (i, outs) in edges.iter().enumerate() {
            for &t in outs {
                redges[t].push(i);
            }
        }
        CrateGraph { fns, edges, redges }
    }

    /// Indices of functions matching `(file_suffix, qual_or_name)` — used to
    /// resolve configured entry points like
    /// (`crates/core/src/fleet.rs`, `FrontDoor::place`).
    pub fn resolve_entry(&self, file_suffix: &str, qual: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.file.ends_with(file_suffix) && (f.qual.as_deref() == Some(qual) || f.name == qual)
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Forward reachability from `entries` (inclusive).
    pub fn reachable(&self, entries: &[usize]) -> Vec<bool> {
        let mut seen = vec![false; self.fns.len()];
        let mut queue: VecDeque<usize> = entries.iter().copied().collect();
        for &e in entries {
            if e < seen.len() {
                seen[e] = true;
            }
        }
        while let Some(i) = queue.pop_front() {
            for &t in &self.edges[i] {
                if !seen[t] {
                    seen[t] = true;
                    queue.push_back(t);
                }
            }
        }
        seen
    }

    /// For every function, the taint witness if nondeterminism reaches it:
    /// either a source in its own body, or (transitively) a call to a
    /// tainted function. Propagation runs **up** the call graph — a caller
    /// of a tainted function observes its nondeterministic result.
    pub fn taint(&self) -> Vec<Option<TaintWitness>> {
        let mut witness: Vec<Option<TaintWitness>> = vec![None; self.fns.len()];
        let mut queue = VecDeque::new();
        for (i, f) in self.fns.iter().enumerate() {
            if let Some(src) = f.sources.first() {
                witness[i] = Some(TaintWitness {
                    source: src.clone(),
                    source_fn: i,
                    via: None,
                });
                queue.push_back(i);
            }
        }
        while let Some(i) = queue.pop_front() {
            let (source, source_fn) = {
                let w = witness[i].as_ref().expect("queued fns carry a witness");
                (w.source.clone(), w.source_fn)
            };
            for &caller in &self.redges[i] {
                if witness[caller].is_none() {
                    witness[caller] = Some(TaintWitness {
                        source: source.clone(),
                        source_fn,
                        via: Some(i),
                    });
                    queue.push_back(caller);
                }
            }
        }
        witness
    }

    /// Render the `fn -> fn -> source_fn` chain for a witness, shortest
    /// path as discovered by the BFS.
    pub fn taint_chain(&self, witness: &[Option<TaintWitness>], from: usize) -> String {
        let mut names = vec![self.display_name(from)];
        let mut cur = from;
        let mut guard = 0usize;
        while let Some(w) = witness.get(cur).and_then(|w| w.as_ref()) {
            let Some(next) = w.via else { break };
            names.push(self.display_name(next));
            cur = next;
            guard += 1;
            if guard > self.fns.len() {
                break;
            }
        }
        names.join(" -> ")
    }

    fn display_name(&self, i: usize) -> String {
        self.fns[i]
            .qual
            .clone()
            .unwrap_or_else(|| self.fns[i].name.clone())
    }
}

/// Why a function is considered tainted.
#[derive(Debug, Clone)]
pub struct TaintWitness {
    /// The originating source occurrence.
    pub source: TaintSource,
    /// Index of the function whose body contains the source.
    pub source_fn: usize,
    /// The callee through which taint arrived (`None` for the source
    /// function itself).
    pub via: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser;
    use crate::tokenizer::tokenize;

    fn fns_of(src: &str) -> Vec<FnDef> {
        let toks = tokenize(src);
        let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let tree = parser::parse(&sig);
        extract_fns("crates/x/src/lib.rs", &sig, &tree, false)
    }

    #[test]
    fn calls_sources_and_panics_are_extracted() {
        let src = r#"
            fn measure() -> u64 {
                let t = Instant::now();
                helper(t.elapsed());
                data[0].unwrap();
                panic!("boom");
                vec![1, 2];
                #[inline]
                fn nested() {}
                t.as_nanos()
            }
        "#;
        let fns = fns_of(src);
        assert_eq!(fns.len(), 1);
        let f = &fns[0];
        let call_names: Vec<&str> = f.calls.iter().map(|c| c.name.as_str()).collect();
        assert!(call_names.contains(&"helper"));
        assert!(call_names.contains(&"elapsed"));
        assert!(!call_names.contains(&"vec"), "macros are not calls");
        assert_eq!(f.sources.len(), 1);
        assert_eq!(f.sources[0].kind, "wall-clock");
        // data[0] indexing + .unwrap() + panic! = 3 (vec![..] excluded).
        assert_eq!(f.panic_count, 3);
    }

    #[test]
    fn taint_propagates_to_callers_with_a_chain() {
        let src = r#"
            fn source_fn() -> u64 { SystemTime::now(); 0 }
            fn middle() -> u64 { source_fn() }
            fn top() { let x = middle(); sink.record(x); }
            fn unrelated() { clean(); }
        "#;
        let g = CrateGraph::build(fns_of(src));
        let w = g.taint();
        let idx = |n: &str| g.fns.iter().position(|f| f.name == n).expect("fn");
        assert!(w[idx("source_fn")].is_some());
        assert!(w[idx("middle")].is_some());
        assert!(w[idx("top")].is_some());
        assert!(w[idx("unrelated")].is_none());
        let chain = g.taint_chain(&w, idx("top"));
        assert_eq!(chain, "top -> middle -> source_fn");
    }

    #[test]
    fn reachability_follows_qualified_and_method_calls() {
        let src = r#"
            impl World {
                fn step(&mut self) { self.dispatch(); }
                fn dispatch(&mut self) { queue[0]; }
                fn cold(&mut self) { other.unwrap(); }
            }
        "#;
        let g = CrateGraph::build(fns_of(src));
        let entries = g.resolve_entry("lib.rs", "World::step");
        assert_eq!(entries.len(), 1);
        let seen = g.reachable(&entries);
        let idx = |n: &str| g.fns.iter().position(|f| f.name == n).expect("fn");
        assert!(seen[idx("dispatch")]);
        assert!(!seen[idx("cold")]);
    }
}
