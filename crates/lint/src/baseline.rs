//! The ratchet baseline: committed per-crate `[panic-path]` debt counts
//! (`lint-baseline.toml`) — panicking constructs reachable from the replay
//! hot entry points.
//!
//! The gate fails only when a crate's count **grows** past its baseline, so
//! robustness debt can shrink freely but never accrete. After a burn-down,
//! regenerate with `cargo run -p microedge-lint -- --update-baseline`.
//!
//! The file is a one-table TOML subset (`"key" = integer` lines under a
//! `[panic-path]` header) parsed here by hand — the lint is zero-dependency.

use std::collections::BTreeMap;

use crate::config::PANIC_PATH_RATCHET;
use crate::rules::Diagnostic;

/// Name of the committed baseline file at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.toml";

/// Parse the baseline file contents into per-crate `[panic-path]` counts.
///
/// Returns `Err` with a description on any line that is not a comment,
/// blank, the `[panic-path]` header, or a `"crate" = count` entry. A
/// missing `[panic-path]` section is an error: the gate must never
/// silently pass because the ratchet got lost.
pub fn parse(text: &str) -> Result<BTreeMap<String, usize>, String> {
    let mut base = BTreeMap::new();
    let mut in_section = false;
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            if line != "[panic-path]" {
                return Err(format!("line {}: unknown section {line}", ln + 1));
            }
            in_section = true;
            continue;
        }
        if !in_section {
            return Err(format!("line {}: entry outside any section", ln + 1));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {}: expected `\"crate\" = count`", ln + 1));
        };
        let key = key.trim().trim_matches('"').to_string();
        let value: usize = value
            .trim()
            .parse()
            .map_err(|_| format!("line {}: count is not an integer", ln + 1))?;
        base.insert(key, value);
    }
    if !in_section {
        return Err("missing [panic-path] section".to_string());
    }
    Ok(base)
}

/// Render per-crate counts back into the canonical committed form.
pub fn format(panic_path: &BTreeMap<String, usize>) -> String {
    let mut out = String::from(
        "# Ratcheted per-crate debt baseline. microedge-lint fails a crate whose\n\
         # count GROWS past its baseline; shrinking is always allowed (and welcome).\n\
         # After a genuine burn-down, regenerate:\n\
         #\n\
         #     cargo run -p microedge-lint -- --update-baseline\n\
         \n\
         # Panicking constructs (indexing/slicing, unwrap-family, explicit panic!)\n\
         # reachable from the hot entry points: World::run_until/dispatch, the\n\
         # ShardedWorld epoch loop, and FrontDoor::place.\n\
         [panic-path]\n",
    );
    for (k, v) in panic_path {
        out.push_str(&format!("\"{k}\" = {v}\n"));
    }
    out
}

/// Compare measured counts against the baseline; one diagnostic per crate
/// whose debt grew. Crates absent from the baseline ratchet against zero.
pub fn check(
    measured: &BTreeMap<String, usize>,
    base: &BTreeMap<String, usize>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (krate, &count) in measured {
        let allowed = base.get(krate).copied().unwrap_or(0);
        if count > allowed {
            diags.push(Diagnostic {
                rule: PANIC_PATH_RATCHET,
                path: BASELINE_FILE.to_string(),
                line: 1,
                col: 1,
                message: format!(
                    "crate {krate} has {count} panicking constructs reachable from the hot \
                     entry points (World::run_until/dispatch, ShardedWorld epoch loop, \
                     FrontDoor::place), baseline {allowed}; replace indexing/unwraps on the \
                     hot path with checked accesses (or, after a genuine burn-down, \
                     regenerate with --update-baseline)"
                ),
            });
        }
    }
    diags
}
