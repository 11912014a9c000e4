//! Integration tests for the lint engine: one violating and one conforming
//! fixture per rule, the allow escape hatch (acceptance + missing-reason
//! rejection), tokenizer edge cases, the ratchet, and a self-check that the
//! real workspace is clean.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use microedge_lint::{baseline, config, engine, rules};

/// Scan a fixture file as if it lived at `rel` inside the workspace.
fn scan(rel: &str, fixture: &str) -> rules::FileFindings {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let src = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    rules::scan_file(rel, &src)
}

fn rules_of(f: &rules::FileFindings) -> Vec<&'static str> {
    f.diags.iter().map(|d| d.rule).collect()
}

#[test]
fn wall_clock_violations_are_flagged_with_positions() {
    let f = scan("crates/core/src/clock.rs", "wall_clock_violation.rs");
    assert_eq!(rules_of(&f), vec!["no-wall-clock", "no-wall-clock"]);
    // `Instant` on line 4 col 13, `SystemTime` on line 5 col 13.
    assert_eq!((f.diags[0].line, f.diags[0].col), (4, 13));
    assert_eq!((f.diags[1].line, f.diags[1].col), (5, 13));
    // Machine-readable rendering: `rule-id: file:line:col message`.
    let rendered = f.diags[0].to_string();
    assert!(
        rendered.starts_with("no-wall-clock: crates/core/src/clock.rs:4:13 "),
        "unexpected rendering: {rendered}"
    );
}

#[test]
fn wall_clock_exempt_in_bench_measurement_modules() {
    for rel in [
        "crates/bench/src/perf.rs",
        "crates/bench/src/scale_sharded.rs",
        "perfbench/src/spans.rs",
    ] {
        let f = scan(rel, "wall_clock_violation.rs");
        assert!(
            f.diags.is_empty(),
            "measurement modules may read the wall clock ({rel}): {:?}",
            f.diags
        );
    }
    // The sharded replay itself is NOT a measurement module: the shard
    // machinery must take time from the EventQueue like everything else.
    let f = scan("crates/core/src/shard.rs", "wall_clock_violation.rs");
    assert_eq!(rules_of(&f), vec!["no-wall-clock"; 2], "{:?}", f.diags);
}

#[test]
fn wall_clock_conforming_snippet_is_clean() {
    let f = scan("crates/core/src/clock.rs", "wall_clock_ok.rs");
    assert!(f.diags.is_empty(), "{:?}", f.diags);
}

#[test]
fn ambient_rng_violations_are_flagged_workspace_wide() {
    // The rule applies even in the bench crate: replays must be seedable.
    let f = scan("crates/bench/src/runner.rs", "ambient_rng_violation.rs");
    assert_eq!(rules_of(&f), vec!["no-ambient-rng"; 4], "{:?}", f.diags);
}

#[test]
fn ambient_rng_conforming_snippet_is_clean() {
    let f = scan("crates/workloads/src/camera.rs", "ambient_rng_ok.rs");
    assert!(f.diags.is_empty(), "{:?}", f.diags);
}

#[test]
fn unordered_collections_flagged_in_artifact_crates_only() {
    let f = scan("crates/core/src/pool.rs", "unordered_violation.rs");
    assert_eq!(
        rules_of(&f),
        vec!["no-unordered-collections"; 6],
        "{:?}",
        f.diags
    );
    // The new shard modules feed byte-identical artifacts too: the sharded
    // replay (crates/core) and the worker pool it runs on (crates/sim) are
    // both inside the ordered-collections scope.
    for rel in ["crates/core/src/shard.rs", "crates/sim/src/par.rs"] {
        let f = scan(rel, "unordered_violation.rs");
        assert_eq!(
            rules_of(&f),
            vec!["no-unordered-collections"; 6],
            "shard modules must stay in scope ({rel}): {:?}",
            f.diags
        );
    }
    // Outside the scoped crates the same source is accepted.
    let f = scan("crates/bench/src/packing.rs", "unordered_violation.rs");
    assert!(f.diags.is_empty(), "{:?}", f.diags);
}

#[test]
fn ordered_collections_are_clean() {
    let f = scan("crates/core/src/pool.rs", "unordered_ok.rs");
    assert!(f.diags.is_empty(), "{:?}", f.diags);
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
}

#[test]
fn canonical_partial_ord_impl_is_not_a_call_site() {
    let f = scan("crates/sim/src/event.rs", "partial_cmp_ok.rs");
    assert!(f.diags.is_empty(), "{:?}", f.diags);
}

#[test]
fn unsafe_tokens_are_flagged() {
    let f = scan("crates/tpu/src/device.rs", "unsafe_violation.rs");
    assert_eq!(rules_of(&f), vec!["no-unsafe"]);
    assert_eq!(f.diags[0].line, 2);
}

#[test]
fn ratchet_counts_bare_unwrap_and_empty_expect_outside_tests() {
    let f = scan("crates/core/src/runtime.rs", "unwrap_ratchet.rs");
    // `x.unwrap()` + `y.expect("")` count; `expect("<invariant>")` and the
    // unwraps inside the `#[cfg(test)]` module do not.
    assert_eq!(f.unwrap_count, 2);
    assert!(f.diags.is_empty(), "{:?}", f.diags);
}

#[test]
fn ratchet_ignores_integration_test_trees() {
    let f = scan("crates/core/tests/world.rs", "unwrap_ratchet.rs");
    assert_eq!(f.unwrap_count, 0);
}

#[test]
fn valid_allow_suppresses_same_line_and_preceding_line() {
    let f = scan("crates/core/src/clock.rs", "allow_ok.rs");
    assert!(
        f.diags.is_empty(),
        "allow comments must suppress: {:?}",
        f.diags
    );
}

#[test]
fn allow_without_reason_is_rejected_and_suppresses_nothing() {
    let f = scan("crates/core/src/clock.rs", "allow_missing_reason.rs");
    assert_eq!(
        rules_of(&f),
        vec!["bad-allow", "no-wall-clock"],
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
    let f = scan("crates/core/src/pool.rs", "allow_unknown_rule.rs");
    assert_eq!(
        rules_of(&f),
        vec![
            "bad-allow",
            "no-unordered-collections",
            "no-unordered-collections"
        ],
        "{:?}",
        f.diags
    );
    assert!(
        f.diags[0].message.contains("unknown rule-id"),
        "{}",
        f.diags[0].message
    );
}

#[test]
fn banned_names_in_strings_and_comments_do_not_trip_rules() {
    // Scanned as a sim file so every rule (incl. unordered collections) is on.
    let f = scan("crates/sim/src/stats.rs", "tokenizer_edge.rs");
    assert!(
        f.diags.is_empty(),
        "tokenizer edge cases leaked: {:?}",
        f.diags
    );
    assert_eq!(f.unwrap_count, 0);
}

#[test]
fn baseline_roundtrip_and_ratchet_direction() {
    let mut unwrap = BTreeMap::new();
    unwrap.insert("microedge-core".to_string(), 3usize);
    unwrap.insert("microedge-orch".to_string(), 0usize);
    let mut panic_path = BTreeMap::new();
    panic_path.insert("microedge-core".to_string(), 120usize);

    // Round-trip through the committed two-section file format.
    let parsed =
        baseline::parse(&baseline::format(&unwrap, &panic_path)).expect("own format parses");
    assert_eq!(parsed.unwrap, unwrap);
    assert_eq!(parsed.panic_path, panic_path);

    // Equal or shrinking debt passes, on both tables.
    assert!(baseline::check(&unwrap, &panic_path, &parsed).is_empty());
    let mut roomy = baseline::parse(&baseline::format(&unwrap, &panic_path)).expect("parses");
    roomy.unwrap.insert("microedge-core".to_string(), 5);
    roomy.panic_path.insert("microedge-core".to_string(), 200);
    assert!(baseline::check(&unwrap, &panic_path, &roomy).is_empty());

    // Growth fails per table, with the machine-readable diagnostic shape.
    let mut tight = baseline::parse(&baseline::format(&unwrap, &panic_path)).expect("parses");
    tight.unwrap.insert("microedge-core".to_string(), 2);
    tight.panic_path.insert("microedge-core".to_string(), 100);
    let diags = baseline::check(&unwrap, &panic_path, &tight);
    assert_eq!(diags.len(), 2);
    assert!(diags[0]
        .to_string()
        .starts_with("unwrap-ratchet: lint-baseline.toml:1:1 "));
    assert!(diags[1]
        .to_string()
        .starts_with("panic-path-ratchet: lint-baseline.toml:1:1 "));

    // A crate missing from the baseline ratchets against zero.
    let diags = baseline::check(&unwrap, &panic_path, &baseline::Baseline::default());
    assert_eq!(diags.len(), 2);
    assert!(diags.iter().all(|d| d.message.contains("microedge-core")));

    // Malformed files are rejected, not ignored — including a file that
    // silently lost one of its two sections.
    assert!(baseline::parse("[unwrap-ratchet]\nnot a pair").is_err());
    assert!(baseline::parse("\"microedge-core\" = 1").is_err());
    assert!(baseline::parse("[unwrap-ratchet]\n\"microedge-core\" = 1").is_err());
    assert!(baseline::parse("[panic-path]\n\"microedge-core\" = 1").is_err());
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
fn narrowing_casts_flagged_in_scoped_crates_only() {
    let f = scan("crates/core/src/pool.rs", "narrowing_violation.rs");
    assert_eq!(
        rules_of(&f),
        vec!["no-narrowing-as-cast"; 3],
        "{:?}",
        f.diags
    );
    let lines: Vec<u32> = f.diags.iter().map(|d| d.line).collect();
    // One per lossy cast; the `#[cfg(test)]` module is masked.
    assert_eq!(lines, vec![5, 6, 7]);

    // Outside core/sim/metrics the same source is accepted.
    let f = scan("crates/bench/src/packing.rs", "narrowing_violation.rs");
    assert!(f.diags.is_empty(), "{:?}", f.diags);
    // Integration-test trees are out of scope even inside those crates.
    let f = scan("crates/core/tests/world.rs", "narrowing_violation.rs");
    assert!(f.diags.is_empty(), "{:?}", f.diags);
}

#[test]
fn safe_cast_sources_are_not_flagged() {
    let f = scan("crates/sim/src/stats.rs", "narrowing_ok.rs");
    assert!(f.diags.is_empty(), "{:?}", f.diags);
}

#[test]
fn narrowing_allow_with_reason_suppresses() {
    let f = scan("crates/core/src/fleet.rs", "narrowing_allow.rs");
    assert!(f.diags.is_empty(), "{:?}", f.diags);
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
    // The wall-clock read itself is still reported where it happens.
    assert!(report
        .diags
        .iter()
        .any(|d| d.rule == "no-wall-clock" && d.path == "perfbench/src/bin/clock.rs"));
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
    // Every tracked package appears in both ratchets, even at zero debt.
    for krate in [
        "microedge",
        "microedge-core",
        "microedge-sim",
        "microedge-lint",
    ] {
        assert!(
            report.ratchet.contains_key(krate),
            "missing ratchet entry for {krate}"
        );
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
    // The two hard rules are burned to zero workspace-wide; pin that so a
    // regression cannot hide behind an allow or a baseline bump.
    let raw = engine::lint_workspace(&root).expect("workspace scan");
    assert!(
        !raw.diags
            .iter()
            .any(|d| d.rule == "taint-artifact-path" || d.rule == "no-narrowing-as-cast"),
        "hard rules must stay at zero findings: {:?}",
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
