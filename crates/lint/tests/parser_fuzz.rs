//! Fuzz the syntax-aware layer: random byte mutations of the fixture
//! corpus (plus fully random byte soup) must never panic the tokenizer,
//! the item-tree parser, or the full per-file analysis, and every span
//! the parser reports must stay inside the file it came from.
//!
//! The fixtures are the seed corpus because they already concentrate the
//! constructs the parser cares about — `fn` items, `impl` blocks,
//! `#[cfg(test)]` masks, strings, lifetimes, raw identifiers — so a few
//! flipped bytes land in interesting places far more often than uniform
//! noise does.

use std::fs;
use std::path::Path;

use proptest::prelude::*;

use microedge_lint::rules;
use microedge_lint::tokenizer::{tokenize, TokKind, Token};
use microedge_lint::{config, parser};

/// The fixture corpus, loaded once.
fn corpus() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut files: Vec<_> = fs::read_dir(&dir)
        .expect("fixture dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| fs::read_to_string(&p).expect("fixture readable"))
        .collect()
}

/// Apply `(offset, byte)` mutations to `src` and re-validate as UTF-8
/// (lossily), mirroring how a corrupted file would reach the scanner.
fn mutate(src: &str, edits: &[(usize, u8)]) -> String {
    let mut bytes = src.as_bytes().to_vec();
    for &(offset, byte) in edits {
        if bytes.is_empty() {
            break;
        }
        let at = offset % bytes.len();
        bytes[at] = byte;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Every span the analysis reports must sit inside the file: lines are
/// 1-based and never exceed the line count; columns are 1-based.
fn assert_spans_in_bounds(src: &str) {
    let line_count = u32::try_from(src.lines().count().max(1)).expect("line count fits u32");
    let toks = tokenize(src);
    let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
    let tree = parser::parse(&sig);
    assert!(tree.test_mask.len() >= sig.len());
    for f in &tree.fns {
        assert!(
            (1..=line_count).contains(&f.span.line),
            "fn `{}` starts out of bounds: line {} of {line_count}",
            f.name,
            f.span.line
        );
        assert!(
            f.span.end_line >= f.span.line && f.span.end_line <= line_count,
            "fn `{}` ends out of bounds: {}..{} of {line_count}",
            f.name,
            f.span.line,
            f.span.end_line
        );
        assert!(f.span.col >= 1);
    }
    // The full analysis (all rules + fact extraction) must also hold.
    let analysis = rules::analyze_file("crates/core/src/fuzzed.rs", src);
    for d in &analysis.diags {
        assert!(
            (1..=line_count).contains(&d.line) && d.col >= 1,
            "diagnostic out of bounds: {d}"
        );
    }
    for f in &analysis.fns {
        assert!((1..=line_count).contains(&f.line), "FnDef out of bounds");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mutated_fixtures_never_panic_and_spans_stay_in_bounds(
        pick in 0usize..64,
        edits in prop::collection::vec((0usize..4096, 0u8..=255), 0..32),
    ) {
        let corpus = corpus();
        let src = &corpus[pick % corpus.len()];
        let mutated = mutate(src, &edits);
        assert_spans_in_bounds(&mutated);
    }

    #[test]
    fn random_byte_soup_never_panics(
        bytes in prop::collection::vec(0u8..=255, 0..512),
    ) {
        let soup = String::from_utf8_lossy(&bytes).into_owned();
        assert_spans_in_bounds(&soup);
    }
}

#[test]
fn pristine_corpus_parses_within_bounds() {
    for src in corpus() {
        assert_spans_in_bounds(&src);
    }
}

#[test]
fn fixture_corpus_is_nonempty() {
    // The fuzz seeds come from FIXTURE_DIR; if the corpus moves, the fuzz
    // silently degrades to byte soup only. Pin it.
    assert!(
        corpus().len() >= 10,
        "expected the {} corpus to stay populated",
        config::FIXTURE_DIR
    );
}
