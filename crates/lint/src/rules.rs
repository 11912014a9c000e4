//! The per-file rules (`no-partial-float-cmp`, `empty-expect`) plus the
//! `lint:allow` escape-hatch machinery. Test code is masked structurally
//! via the item parser ([`crate::parser`]), which also feeds the
//! per-function facts the crate-level flow analyses consume.

use std::fmt;

use crate::callgraph::{self, FnDef};
use crate::config::{self, is_test_tree, BAD_ALLOW, EMPTY_EXPECT, NO_PARTIAL_FLOAT_CMP};
use crate::parser;
use crate::tokenizer::{tokenize, TokKind, Token};

/// One machine-readable finding. Renders as `rule-id: file:line:col message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier (also the `lint:allow` key).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Human explanation of the violated invariant.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}:{} {}",
            self.rule, self.path, self.line, self.col, self.message
        )
    }
}

/// A parsed, well-formed `lint:allow(rule): reason` directive. The engine
/// also consults these to suppress crate-level (taint) findings, which is
/// why they are part of [`FileAnalysis`].
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// The rule being exempted.
    pub rule: String,
    /// 1-based line the directive sits on (covers itself and the next line).
    pub line: u32,
}

impl AllowDirective {
    /// True when this directive suppresses a finding of `rule` at `line`.
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        self.rule == rule && (self.line == line || self.line + 1 == line)
    }
}

/// Everything a single-file analysis produces: the per-file findings plus
/// the per-function facts and allow directives the engine's crate-level
/// flow phases (taint, panic-path) consume.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Rule violations (post-suppression) plus any `bad-allow` diagnostics,
    /// sorted by position.
    pub diags: Vec<Diagnostic>,
    /// Per-function call/source/panic facts (empty for non-Rust inputs).
    pub fns: Vec<FnDef>,
    /// Well-formed `lint:allow` directives in the file.
    pub allows: Vec<AllowDirective>,
}

/// Analyze one file. `rel` must be the workspace-relative path (it drives
/// rule scoping); `src` is the file contents.
pub fn analyze_file(rel: &str, src: &str) -> FileAnalysis {
    let toks = tokenize(src);
    let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
    let tree = parser::parse(&sig);
    let file_is_test = is_test_tree(rel);

    let mut diags: Vec<Diagnostic> = Vec::new();
    let allows = parse_allows(rel, &toks, &mut diags);

    let mut raw: Vec<Diagnostic> = Vec::new();
    rule_partial_float_cmp(rel, &sig, &mut raw);
    if !file_is_test {
        rule_empty_expect(rel, &sig, &tree.test_mask, &mut raw);
    }

    // A valid allow on the finding's own line or the line above suppresses it.
    for d in raw {
        if !allows.iter().any(|a| a.covers(d.rule, d.line)) {
            diags.push(d);
        }
    }

    let fns = callgraph::extract_fns(rel, &sig, &tree, file_is_test);

    diags.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    FileAnalysis { diags, fns, allows }
}

/// Extract directives of the form `// lint:allow(<rule>): <reason>` from
/// comment tokens. The marker must open the comment (prose merely
/// *mentioning* the syntax is not a directive). Malformed directives
/// (missing reason, unknown rule) suppress nothing and are themselves
/// reported as `bad-allow`.
fn parse_allows(rel: &str, toks: &[Token], diags: &mut Vec<Diagnostic>) -> Vec<AllowDirective> {
    let mut allows = Vec::new();
    for t in toks.iter().filter(|t| t.kind == TokKind::Comment) {
        let content = t.text.trim_start_matches(['/', '*', '!']).trim_start();
        let Some(rest) = content.strip_prefix("lint:allow") else {
            continue;
        };
        let bad = |msg: String| Diagnostic {
            rule: BAD_ALLOW,
            path: rel.to_string(),
            line: t.line,
            col: t.col,
            message: msg,
        };
        let Some(rest) = rest.strip_prefix('(') else {
            diags.push(bad(
                "malformed lint:allow; expected `lint:allow(<rule-id>): <reason>`".into(),
            ));
            continue;
        };
        let Some(close) = rest.find(')') else {
            diags.push(bad("malformed lint:allow; missing `)` after rule-id".into()));
            continue;
        };
        let rule = rest[..close].trim().to_string();
        if !config::ALLOWABLE_RULES.contains(&rule.as_str()) {
            diags.push(bad(format!("lint:allow names unknown rule-id `{rule}`")));
            continue;
        }
        let after = &rest[close + 1..];
        let reason = after
            .strip_prefix(':')
            .map(|r| r.trim_end_matches("*/").trim())
            .unwrap_or("");
        if reason.is_empty() {
            diags.push(bad(format!(
                "lint:allow({rule}) is missing its mandatory reason; write `lint:allow({rule}): <why this site is safe>`"
            )));
            continue;
        }
        allows.push(AllowDirective { rule, line: t.line });
    }
    allows
}

fn diag(rule: &'static str, rel: &str, t: &Token, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        path: rel.to_string(),
        line: t.line,
        col: t.col,
        message,
    }
}

/// `partial_cmp(..).unwrap()/expect(..)` chains, and any `partial_cmp`
/// inside a `sort_by`/`max_by`/`min_by` comparator — the exact Histogram
/// NaN-panic class fixed in PR 4. `fn partial_cmp` definitions are exempt.
fn rule_partial_float_cmp(rel: &str, sig: &[&Token], out: &mut Vec<Diagnostic>) {
    let mut flagged: Vec<(u32, u32)> = Vec::new();
    for i in 0..sig.len() {
        if !sig[i].is_ident("partial_cmp") {
            continue;
        }
        if i > 0 && sig[i - 1].is_ident("fn") {
            continue; // a PartialOrd impl, not a call site
        }
        if !sig.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        if let Some(close) = matching_paren(sig, i + 1) {
            let chained_panic = sig.get(close + 1).is_some_and(|t| t.is_punct('.'))
                && sig
                    .get(close + 2)
                    .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"));
            if chained_panic {
                flagged.push((sig[i].line, sig[i].col));
                out.push(diag(
                    NO_PARTIAL_FLOAT_CMP,
                    rel,
                    sig[i],
                    "`partial_cmp(..)` chained into unwrap/expect panics on NaN (the PR 4 \
                     Histogram bug); use `total_cmp` for floats"
                        .to_string(),
                ));
            }
        }
    }
    // Comparator closures: sort_by(|a, b| a.partial_cmp(b) ...) in any form,
    // including NaN-"tolerant" `unwrap_or(Equal)`, which breaks total order.
    const COMPARATORS: &[&str] = &["sort_by", "sort_unstable_by", "max_by", "min_by"];
    for i in 0..sig.len() {
        if !(sig[i].kind == TokKind::Ident && COMPARATORS.contains(&sig[i].text.as_str())) {
            continue;
        }
        if !sig.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        if let Some(close) = matching_paren(sig, i + 1) {
            for t in &sig[i + 2..close] {
                if t.is_ident("partial_cmp") && !flagged.contains(&(t.line, t.col)) {
                    out.push(diag(
                        NO_PARTIAL_FLOAT_CMP,
                        rel,
                        t,
                        format!(
                            "`partial_cmp` inside a `{}` comparator is not a total order \
                             under NaN; use `total_cmp`",
                            sig[i].text
                        ),
                    ));
                }
            }
        }
    }
}

/// `.expect("")`: a panic whose message names no invariant, in non-test
/// code. Clippy denies bare `unwrap()` (`clippy::unwrap_used`) but has no
/// lint for an empty `expect` message. Zero tolerance, no escape hatch.
/// `mask` is the parser's structural test mask.
fn rule_empty_expect(rel: &str, sig: &[&Token], mask: &[bool], out: &mut Vec<Diagnostic>) {
    for i in 0..sig.len() {
        if mask.get(i).copied().unwrap_or(false) || !sig[i].is_punct('.') {
            continue;
        }
        let empty_expect = sig.get(i + 1).is_some_and(|t| t.is_ident("expect"))
            && sig.get(i + 2).is_some_and(|t| t.is_punct('('))
            && sig.get(i + 3).is_some_and(|t| t.is_empty_str())
            && sig.get(i + 4).is_some_and(|t| t.is_punct(')'));
        if empty_expect {
            out.push(diag(
                EMPTY_EXPECT,
                rel,
                sig[i + 1],
                "`expect(\"\")` panics without naming the violated invariant; write \
                 `expect(\"<invariant>\")` or return a typed error"
                    .to_string(),
            ));
        }
    }
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(sig: &[&Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in sig.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}
