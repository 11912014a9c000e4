//! Integration tests for the lint engine: one violating and one conforming
//! fixture per rule, the allow escape hatch (acceptance + missing-reason
//! rejection), tokenizer edge cases, the panic-path ratchet, the manifest
//! guard, and a self-check that the real workspace is clean.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use microedge_lint::{baseline, config, engine, rules};

/// Analyze a fixture file as if it lived at `rel` inside the workspace.
fn scan(rel: &str, fixture: &str) -> rules::FileAnalysis {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let src = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    rules::analyze_file(rel, &src)
}

fn rules_of(f: &rules::FileAnalysis) -> Vec<&'static str> {
    f.diags.iter().map(|d| d.rule).collect()
}

#[test]
fn partial_cmp_panic_chains_and_comparators_are_flagged() {
    let f = scan("crates/metrics/src/latency.rs", "partial_cmp_violation.rs");
    assert_eq!(
        rules_of(&f),
        vec!["no-partial-float-cmp"; 3],
        "{:?}",
        f.diags
    );
    let lines: Vec<u32> = f.diags.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![2, 5, 10]);
    // Machine-readable rendering: `rule-id: file:line:col message`.
    let rendered = f.diags[0].to_string();
    assert!(
        rendered.starts_with("no-partial-float-cmp: crates/metrics/src/latency.rs:2:25 "),
        "unexpected rendering: {rendered}"
    );
}

#[test]
fn canonical_partial_ord_impl_is_not_a_call_site() {
    let f = scan("crates/sim/src/event.rs", "partial_cmp_ok.rs");
    assert!(f.diags.is_empty(), "{:?}", f.diags);
}

#[test]
fn empty_expect_is_flagged_outside_tests() {
    let f = scan("crates/core/src/runtime.rs", "unwrap_ratchet.rs");
    // `y.expect("")` is flagged; the bare `x.unwrap()` is clippy's
    // (`unwrap_used`), `expect("<invariant>")` is the sanctioned form, and
    // the `#[cfg(test)]` module is masked.
    assert_eq!(rules_of(&f), vec!["empty-expect"], "{:?}", f.diags);
    assert_eq!((f.diags[0].line, f.diags[0].col), (3, 15));
    // Integration-test trees are out of scope.
    let f = scan("crates/core/tests/world.rs", "unwrap_ratchet.rs");
    assert!(f.diags.is_empty(), "{:?}", f.diags);
}

#[test]
fn valid_allow_suppresses_same_line_and_preceding_line() {
    let f = scan("crates/metrics/src/latency.rs", "allow_ok.rs");
    assert!(
        f.diags.is_empty(),
        "allow comments must suppress: {:?}",
        f.diags
    );
}

#[test]
fn allow_without_reason_is_rejected_and_suppresses_nothing() {
    let f = scan("crates/metrics/src/latency.rs", "allow_missing_reason.rs");
    assert_eq!(
        rules_of(&f),
        vec!["bad-allow", "no-partial-float-cmp"],
        "{:?}",
        f.diags
    );
    assert!(
        f.diags[0].message.contains("mandatory reason"),
        "{}",
        f.diags[0].message
    );
}

#[test]
fn allow_with_unknown_rule_is_rejected() {
    let f = scan("crates/metrics/src/latency.rs", "allow_unknown_rule.rs");
    assert_eq!(
        rules_of(&f),
        vec!["bad-allow", "no-partial-float-cmp", "bad-allow"],
        "{:?}",
        f.diags
    );
    // A misspelled id and a rule retired to clippy are both unknown here.
    for d in [&f.diags[0], &f.diags[2]] {
        assert!(d.message.contains("unknown rule-id"), "{}", d.message);
    }
}

#[test]
fn banned_names_in_strings_and_comments_do_not_trip_rules() {
    // Scanned as non-test sim code so every per-file rule is on.
    let f = scan("crates/sim/src/stats.rs", "tokenizer_edge.rs");
    assert!(
        f.diags.is_empty(),
        "tokenizer edge cases leaked: {:?}",
        f.diags
    );
    // Nor do they register as taint sources or panic sites.
    assert!(
        f.fns
            .iter()
            .all(|d| d.sources.is_empty() && d.panic_count == 0),
        "{:?}",
        f.fns
    );
}

#[test]
fn baseline_roundtrip_and_ratchet_direction() {
    let mut panic_path = BTreeMap::new();
    panic_path.insert("microedge-core".to_string(), 120usize);
    panic_path.insert("microedge-orch".to_string(), 0usize);

    // Round-trip through the committed file format.
    let parsed = baseline::parse(&baseline::format(&panic_path)).expect("own format parses");
    assert_eq!(parsed, panic_path);

    // Equal or shrinking debt passes.
    assert!(baseline::check(&panic_path, &parsed).is_empty());
    let mut roomy = parsed.clone();
    roomy.insert("microedge-core".to_string(), 200);
    assert!(baseline::check(&panic_path, &roomy).is_empty());

    // Growth fails, with the machine-readable diagnostic shape.
    let mut tight = parsed.clone();
    tight.insert("microedge-core".to_string(), 100);
    let diags = baseline::check(&panic_path, &tight);
    assert_eq!(diags.len(), 1);
    assert!(diags[0]
        .to_string()
        .starts_with("panic-path-ratchet: lint-baseline.toml:1:1 "));

    // A crate missing from the baseline ratchets against zero.
    let diags = baseline::check(&panic_path, &BTreeMap::new());
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("microedge-core"));

    // Malformed files are rejected, not ignored — including a file that
    // lost its section or still carries the retired unwrap table.
    assert!(baseline::parse("[panic-path]\nnot a pair").is_err());
    assert!(baseline::parse("\"microedge-core\" = 1").is_err());
    assert!(baseline::parse("# comments only\n").is_err());
    assert!(baseline::parse("[unwrap-ratchet]\n\"microedge-core\" = 1").is_err());
    assert!(baseline::parse("[panic-path]\n\"microedge-core\" = 1").is_ok());
}

/// Analyze a fixture and build its crate-level call graph, as the engine's
/// phase 2 does for real crates.
fn graph(rel: &str, fixture: &str) -> (microedge_lint::callgraph::CrateGraph, rules::FileAnalysis) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let src = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    let analysis = rules::analyze_file(rel, &src);
    let g = microedge_lint::callgraph::CrateGraph::build(analysis.fns.clone());
    (g, analysis)
}

#[test]
fn taint_reaches_sink_through_call_chain() {
    let (g, _) = graph("crates/metrics/src/latency.rs", "taint_violation.rs");
    let diags = microedge_lint::taint::taint_artifact_path(&g);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "taint-artifact-path");
    // The finding sits at the sink call site inside `observe`…
    assert_eq!(diags[0].line, 13);
    // …and the message names the sink, the source kind, and the chain.
    assert!(
        diags[0].message.contains("`record`"),
        "{}",
        diags[0].message
    );
    assert!(
        diags[0].message.contains("`Instant::now()`"),
        "{}",
        diags[0].message
    );
    assert!(
        diags[0].message.contains("observe -> sample_ns"),
        "{}",
        diags[0].message
    );
}

#[test]
fn simulated_time_does_not_taint_the_same_sink() {
    let (g, _) = graph("crates/metrics/src/latency.rs", "taint_ok.rs");
    let diags = microedge_lint::taint::taint_artifact_path(&g);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn taint_allow_directive_covers_the_sink_call_site() {
    let (g, analysis) = graph("crates/metrics/src/latency.rs", "taint_allow.rs");
    let diags = microedge_lint::taint::taint_artifact_path(&g);
    assert_eq!(diags.len(), 1, "{diags:?}");
    // The engine drops findings whose sink line is covered by a well-formed
    // allow directive; replicate its filter here.
    assert!(
        analysis
            .allows
            .iter()
            .any(|a| a.covers(diags[0].rule, diags[0].line)),
        "allow at the sink call site must cover the finding"
    );
}

#[test]
fn panic_path_counts_only_constructs_reachable_from_entries() {
    let (g, _) = graph("crates/core/src/fleet.rs", "panic_path.rs");
    let (debt, breakdown) = microedge_lint::taint::panic_path_debt(&g);
    // `place` (one indexing) + `probe` (one unwrap); `offline_report`'s
    // two constructs are unreachable and must not count.
    assert_eq!(debt, 2, "{breakdown:?}");
    let fns: Vec<&str> = breakdown.iter().map(|(f, _, _, _)| f.as_str()).collect();
    assert!(fns.contains(&"FrontDoor::place"), "{breakdown:?}");
    assert!(fns.contains(&"FrontDoor::probe"), "{breakdown:?}");
    assert!(!fns.iter().any(|f| f.contains("offline_report")));

    // The same file outside the entry point's path contributes nothing.
    let (g, _) = graph("crates/orch/src/report.rs", "panic_path.rs");
    let (debt, _) = microedge_lint::taint::panic_path_debt(&g);
    assert_eq!(debt, 0);
}

#[test]
fn packages_with_their_own_main_get_separate_call_graphs() {
    // The root package's example and the benchmark workspace each build a
    // binary with its own `main`. Calls resolve by name within a package
    // (a `World::new` defined in another crate falls back to every `new`),
    // so filing both under one package would link the example's `main` to
    // the benchmark's wall-clock `Tracer::new` and report a false taint at
    // the example's artifact sink.
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("two_mains_workspace");
    let _ = fs::remove_dir_all(&root);
    for (rel, src) in [
        ("Cargo.toml", "[workspace]\n"),
        ("crates/.keep", ""),
        (
            "examples/report.rs",
            "fn main() {\n    let w = World::new();\n    print!(\"{}\", w.render_summary());\n}\n",
        ),
        (
            "perfbench/src/bin/clock.rs",
            "use std::time::Instant;\nstruct Tracer(Instant);\nimpl Tracer {\n    fn new() -> Self {\n        \
             Tracer(Instant::now())\n    }\n}\nfn main() {\n    drop(Tracer::new());\n}\n",
        ),
    ] {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("file has a parent")).expect("mkdir");
        fs::write(&path, src).expect("write");
    }

    let report = engine::lint_workspace(&root).expect("workspace scan");
    let taint: Vec<String> = report
        .diags
        .iter()
        .filter(|d| d.rule == "taint-artifact-path")
        .map(|d| d.to_string())
        .collect();
    assert!(
        taint.is_empty(),
        "call graphs leaked across packages: {taint:?}"
    );
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn manifest_without_workspace_lints_is_reported() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lints_opt_in_workspace");
    let _ = fs::remove_dir_all(&root);
    let opted_in = "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n";
    for (rel, src) in [
        ("Cargo.toml", opted_in),
        ("crates/good/Cargo.toml", opted_in),
        // `workspace = true` under another table does not count.
        (
            "crates/bad/Cargo.toml",
            "[package]\nname = \"bad\"\nversion.workspace = true\n\n[dependencies]\nworkspace = true\n",
        ),
    ] {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("file has a parent")).expect("mkdir");
        fs::write(&path, src).expect("write");
    }

    let report = engine::lint_workspace(&root).expect("workspace scan");
    let rendered: Vec<String> = report.diags.iter().map(|d| d.to_string()).collect();
    assert_eq!(rendered.len(), 1, "{rendered:?}");
    assert!(
        rendered[0]
            .starts_with("workspace-lints: crates/bad/Cargo.toml:1:1 package microedge-bad "),
        "{rendered:?}"
    );
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn panic_entry_point_naming_a_missing_function_is_reported() {
    // Every configured entry point resolves except the sharded one, whose
    // file only has a method under another name — as after a rename that
    // left the config behind.
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("stale_entry_workspace");
    let _ = fs::remove_dir_all(&root);
    let opted_in = "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n";
    let mut files: BTreeMap<&str, String> = BTreeMap::new();
    let mut missing = None;
    for &(file, qual) in config::PANIC_ENTRY_POINTS {
        let (ty, method) = qual.split_once("::").expect("entries are Type::method");
        let method = if ty == "ShardedWorld" {
            missing = Some(qual);
            "run_renamed"
        } else {
            method
        };
        let src = files.entry(file).or_default();
        src.push_str(&format!(
            "impl {ty} {{\n    pub fn {method}(&self) {{}}\n}}\n"
        ));
    }
    let missing = missing.expect("a ShardedWorld entry point is configured");
    files.insert("Cargo.toml", opted_in.to_string());
    files.insert("crates/core/Cargo.toml", opted_in.to_string());
    for (rel, src) in &files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("file has a parent")).expect("mkdir");
        fs::write(&path, src).expect("write");
    }

    let report = engine::lint_workspace(&root).expect("workspace scan");
    let rendered: Vec<String> = report.diags.iter().map(|d| d.to_string()).collect();
    assert_eq!(rendered.len(), 1, "{rendered:?}");
    assert!(
        rendered[0].starts_with("panic-path-ratchet: crates/core/src/shard.rs:1:1 "),
        "{rendered:?}"
    );
    assert!(
        rendered[0].contains(&format!("`{missing}`")),
        "{rendered:?}"
    );
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn self_check_the_real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf();
    assert_eq!(
        engine::find_root(&root.join("crates/lint/src")),
        Some(root.clone())
    );

    let report = engine::lint_workspace_with_baseline(&root).expect("workspace scan");
    assert!(
        report.files_scanned > 50,
        "scan looks truncated: {} files",
        report.files_scanned
    );
    let rendered: Vec<String> = report.diags.iter().map(|d| d.to_string()).collect();
    assert!(
        rendered.is_empty(),
        "workspace must lint clean:\n{}",
        rendered.join("\n")
    );
    // Every tracked package appears in the ratchet, even at zero debt.
    for krate in [
        "microedge",
        "microedge-core",
        "microedge-sim",
        "microedge-lint",
    ] {
        assert!(
            report.panic_ratchet.contains_key(krate),
            "missing panic-path entry for {krate}"
        );
    }
    // The replay hot path exists, so the panic-path measure must resolve
    // its entry points and see a non-empty reachable set.
    assert!(
        report.panic_ratchet["microedge-core"] > 0,
        "panic-path entries failed to resolve: {:?}",
        report.panic_breakdown
    );
    // Taint is burned to zero workspace-wide; pin that so a regression
    // cannot hide behind an allow.
    let raw = engine::lint_workspace(&root).expect("workspace scan");
    assert!(
        !raw.diags.iter().any(|d| d.rule == "taint-artifact-path"),
        "taint must stay at zero findings: {:?}",
        raw.diags
    );
    // The fixture corpus (deliberate violations) must be excluded from the walk.
    let files = engine::workspace_files(&root).expect("walk");
    assert!(
        !files
            .iter()
            .any(|f| f.to_string_lossy().contains(config::FIXTURE_DIR)),
        "fixtures leaked into the workspace scan"
    );
}
