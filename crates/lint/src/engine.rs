//! Workspace walking and the top-level lint entry points.
//!
//! Linting runs in two phases: a per-file pass (token-sequence rules and
//! fact extraction) followed by per-crate flow analyses over the assembled
//! call graphs (`taint-artifact-path` and the `panic-path-ratchet` debt
//! measure). Alongside, every first-party manifest must opt into the
//! workspace's compiler lints (`workspace-lints`).

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::baseline;
use crate::callgraph::{CrateGraph, FnDef};
use crate::config::{self, crate_of};
use crate::rules::{analyze_file, AllowDirective, Diagnostic};
use crate::taint;

/// Result of linting a whole workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// All rule and `bad-allow` diagnostics, sorted by `(path, line, col)`.
    pub diags: Vec<Diagnostic>,
    /// Measured panic-path debt per cargo package: panicking constructs
    /// reachable from the hot entry points in that crate's call graph
    /// (crates with zero debt included, so the baseline lists every
    /// package explicitly).
    pub panic_ratchet: BTreeMap<String, usize>,
    /// Per-function panic-path breakdown, heaviest first:
    /// `(qualified name, file, line, count)`.
    pub panic_breakdown: Vec<(String, String, u32, usize)>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Collect every workspace `.rs` file under `root`, depth-first in sorted
/// order (deterministic output), skipping `vendor/`, `target/`, `.git/`,
/// and the lint's own deliberately-violating fixture corpus.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let rel = rel_path(root, &path);
        if path.is_dir() {
            if config::SKIP_DIRS.contains(&name.as_ref()) || rel == config::FIXTURE_DIR {
                continue;
            }
            walk(root, &path, files)?;
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lint every workspace `.rs` file under `root`. Does *not* apply the
/// ratchet baseline — see [`lint_workspace_with_baseline`].
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    // Check every package's lints opt-in, and seed it so a debt-free crate
    // still appears (as 0) in the regenerated baseline, keeping the
    // committed file exhaustive.
    for (krate, manifest) in packages(root)? {
        if !opts_into_workspace_lints(&root.join(&manifest)) {
            report.diags.push(Diagnostic {
                rule: config::WORKSPACE_LINTS,
                path: manifest,
                line: 1,
                col: 1,
                message: format!(
                    "package {krate} does not opt into the workspace lints; add \
                     `[lints]` / `workspace = true` so `unsafe_code = \"forbid\"` and \
                     `clippy::unwrap_used = \"deny\"` apply to it"
                ),
            });
        }
        report.panic_ratchet.insert(krate, 0);
    }

    // Phase 1: per-file rules + fact extraction.
    let mut crate_fns: BTreeMap<String, Vec<FnDef>> = BTreeMap::new();
    let mut file_allows: BTreeMap<String, Vec<AllowDirective>> = BTreeMap::new();
    for path in workspace_files(root)? {
        let rel = rel_path(root, &path);
        let src = fs::read_to_string(&path)?;
        let analysis = analyze_file(&rel, &src);
        report.diags.extend(analysis.diags);
        if !config::is_test_tree(&rel) {
            let mut fns: Vec<FnDef> = analysis.fns.into_iter().filter(|f| !f.is_test).collect();
            // The bench measurement modules are sanctioned wall-clock
            // readers (see WALL_CLOCK_EXEMPT_FILES): their host timings
            // land in `host_*` artifact lines that the determinism gate
            // strips before byte-comparison. Dropping that source class
            // here keeps taint focused on *unsanctioned* flows instead of
            // re-reporting the sanctioned one at every downstream sink.
            if config::WALL_CLOCK_EXEMPT_FILES.contains(&rel.as_str()) {
                for f in &mut fns {
                    f.sources.retain(|s| s.kind != "wall-clock");
                }
            }
            crate_fns.entry(crate_of(&rel)).or_default().extend(fns);
        }
        if !analysis.allows.is_empty() {
            file_allows.insert(rel.clone(), analysis.allows);
        }
        report.files_scanned += 1;
    }

    // Phase 2: per-crate flow analyses over the call graphs. A configured
    // panic-path entry point that resolves in no graph of a scanned crate
    // is stale (renamed or deleted): its path would silently drop out of
    // the ratchet and make the count look better, so it is a finding.
    let mut unresolved: Vec<(&str, &str)> = config::PANIC_ENTRY_POINTS
        .iter()
        .copied()
        .filter(|(file, _)| crate_fns.contains_key(&crate_of(file)))
        .collect();
    for (krate, fns) in crate_fns {
        let graph = CrateGraph::build(fns);
        unresolved.retain(|(file, qual)| graph.resolve_entry(file, qual).is_empty());
        for d in taint::taint_artifact_path(&graph) {
            let covered = file_allows
                .get(&d.path)
                .is_some_and(|allows| allows.iter().any(|a| a.covers(d.rule, d.line)));
            if !covered {
                report.diags.push(d);
            }
        }
        let (debt, breakdown) = taint::panic_path_debt(&graph);
        *report.panic_ratchet.entry(krate).or_insert(0) += debt;
        report.panic_breakdown.extend(breakdown);
    }
    report
        .panic_breakdown
        .sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
    for (file, qual) in unresolved {
        report.diags.push(Diagnostic {
            rule: config::PANIC_PATH_RATCHET,
            path: file.to_string(),
            line: 1,
            col: 1,
            message: format!(
                "panic-path entry point `{qual}` resolves to no function; point \
                 PANIC_ENTRY_POINTS in crates/lint/src/config.rs at the code that \
                 now runs that path"
            ),
        });
    }

    report
        .diags
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    Ok(report)
}

/// Lint the workspace and fold in ratchet-baseline violations. A missing
/// or unparseable baseline file is itself a failure (the gate must never
/// silently pass because the ratchet got lost).
pub fn lint_workspace_with_baseline(root: &Path) -> io::Result<Report> {
    let mut report = lint_workspace(root)?;
    let baseline_path = root.join(baseline::BASELINE_FILE);
    match fs::read_to_string(&baseline_path) {
        Ok(text) => match baseline::parse(&text) {
            Ok(base) => report
                .diags
                .extend(baseline::check(&report.panic_ratchet, &base)),
            Err(e) => report.diags.push(baseline_error(format!(
                "{} is malformed ({e}); fix it or regenerate with --update-baseline",
                baseline::BASELINE_FILE
            ))),
        },
        Err(_) => report.diags.push(baseline_error(format!(
            "{} not found at the workspace root; regenerate with --update-baseline",
            baseline::BASELINE_FILE
        ))),
    }
    Ok(report)
}

fn baseline_error(message: String) -> Diagnostic {
    Diagnostic {
        rule: config::PANIC_PATH_RATCHET,
        path: baseline::BASELINE_FILE.to_string(),
        line: 1,
        col: 1,
        message,
    }
}

/// The first-party cargo packages: the root package plus every
/// `crates/*` member, as `(baseline key name, workspace-relative
/// manifest path)`. The benchmark workspace `perfbench/` is not a member.
fn packages(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut out = vec![("microedge".to_string(), "Cargo.toml".to_string())];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut names: Vec<_> = fs::read_dir(&crates_dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .filter(|e| e.path().is_dir())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        out.extend(
            names
                .into_iter()
                .map(|n| (format!("microedge-{n}"), format!("crates/{n}/Cargo.toml"))),
        );
    }
    Ok(out)
}

/// True when the manifest has a `[lints]` table containing
/// `workspace = true`. An unreadable manifest does not opt in.
fn opts_into_workspace_lints(manifest: &Path) -> bool {
    let Ok(text) = fs::read_to_string(manifest) else {
        return false;
    };
    let mut in_lints = false;
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

/// Locate the workspace root: the nearest ancestor of `start` containing
/// both `Cargo.toml` and a `crates/` directory.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}
