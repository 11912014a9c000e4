//! Per-crate / per-file scoping for the lint rules.
//!
//! The scoping is deliberately *code*, not a config file: changing where a
//! determinism rule applies is a reviewable source change to the lint crate,
//! with the same weight as changing the rule itself.

/// Rule identifiers, exactly as they appear in diagnostics and in
/// `lint:allow(<rule-id>)` escape hatches.
pub const NO_PARTIAL_FLOAT_CMP: &str = "no-partial-float-cmp";
/// See [`NO_PARTIAL_FLOAT_CMP`].
pub const EMPTY_EXPECT: &str = "empty-expect";
/// See [`NO_PARTIAL_FLOAT_CMP`].
pub const TAINT_ARTIFACT_PATH: &str = "taint-artifact-path";
/// See [`NO_PARTIAL_FLOAT_CMP`].
pub const PANIC_PATH_RATCHET: &str = "panic-path-ratchet";
/// See [`NO_PARTIAL_FLOAT_CMP`].
pub const WORKSPACE_LINTS: &str = "workspace-lints";
/// Diagnostic id for malformed `lint:allow` directives themselves.
pub const BAD_ALLOW: &str = "bad-allow";

/// Every rule id that may legally appear in a `lint:allow(...)` directive.
pub const ALLOWABLE_RULES: &[&str] = &[NO_PARTIAL_FLOAT_CMP, TAINT_ARTIFACT_PATH];

/// The measurement modules of the bench crate and of the `perfbench`
/// benchmark, which time the *simulator itself* (replay wall time,
/// admission throughput, per-layer ns/op, span self time). The wall-clock
/// ban itself is clippy's (`disallowed-methods` in `clippy.toml`, waived
/// by an `expect` at the top of each bench module); this list now feeds
/// only taint's wall-clock source filter, because these timings land on
/// `host_` artifact lines that the determinism gate strips.
pub const WALL_CLOCK_EXEMPT_FILES: &[&str] = &[
    "crates/bench/src/perf.rs",
    "crates/bench/src/admission_overhead.rs",
    "crates/bench/src/scale.rs",
    "crates/bench/src/scale_sharded.rs",
    "crates/bench/src/fleet.rs",
    "crates/bench/src/netchaos.rs",
    "crates/bench/src/defrag.rs",
    "perfbench/src/calib.rs",
    "perfbench/src/ledger.rs",
    "perfbench/src/main.rs",
    "perfbench/src/probes.rs",
    "perfbench/src/spans.rs",
];

/// Sink *function names* for the `taint-artifact-path` analysis: calling
/// one of these from a nondeterminism-tainted function is a finding. They
/// are the points where a value escapes into a committed artifact, a
/// metrics sketch, or a cross-shard/cross-cluster message.
pub const TAINT_SINK_NAMES: &[&str] = &[
    // artifact serializers
    "to_json",
    "write_csv",
    // metrics sketches / recorders
    "record",
    "record_ns",
    "record_duration",
    "merge",
    // cross-shard / cross-cluster message builders
    "schedule_command",
    "admit_global",
    "submit_control",
    "pump_control",
    "place",
];

/// Sink name *prefixes* (e.g. every `render_*` artifact writer).
pub const TAINT_SINK_PREFIXES: &[&str] = &["render_"];

/// Hot entry points for the `panic-path-ratchet`: `(file suffix,
/// qualified name)`. Panicking constructs reachable from these in the
/// call graph are counted against the per-crate baseline; an entry that
/// resolves to no function in its scanned crate is itself a finding.
pub const PANIC_ENTRY_POINTS: &[(&str, &str)] = &[
    // the deterministic replay loop ("World::step" of the paper)
    ("crates/core/src/runtime.rs", "World::run_until"),
    ("crates/core/src/runtime.rs", "World::run_to_completion"),
    ("crates/core/src/runtime.rs", "World::dispatch"),
    // sharded epoch exchange
    (
        "crates/core/src/shard.rs",
        "ShardedWorld::run_net_with_workers",
    ),
    // federated placement front door
    ("crates/core/src/fleet.rs", "FrontDoor::place"),
];

/// Directory names never scanned, at any depth. `vendor` holds offline
/// stand-ins for external crates (not ours to lint), `target` is build
/// output.
pub const SKIP_DIRS: &[&str] = &[".git", "target", "vendor"];

/// The lint's own fixture corpus: deliberately-violating snippets that must
/// not count as workspace findings.
pub const FIXTURE_DIR: &str = "crates/lint/tests/fixtures";

/// True for integration-test trees (`tests/` at any depth). They never
/// feed artifacts, so only `no-partial-float-cmp` looks at them.
pub fn is_test_tree(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/")
}

/// True when `name` is a taint sink (exact name or configured prefix).
pub fn is_taint_sink(name: &str) -> bool {
    TAINT_SINK_NAMES.contains(&name) || TAINT_SINK_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// The cargo package a workspace-relative path belongs to, as named in
/// `lint-baseline.toml` (`crates/core` -> `microedge-core`; the benchmark's
/// own workspace `perfbench/` -> `perfbench`; the root package's `src/`,
/// `examples/`, `tests/` -> `microedge`). Each package gets its own call
/// graph, so two binaries' `main`s must never map to the same package.
pub fn crate_of(rel: &str) -> String {
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some(dir) = rest.split('/').next() {
            return format!("microedge-{dir}");
        }
    }
    if rel.starts_with("perfbench/") {
        return "perfbench".to_string();
    }
    "microedge".to_string()
}
