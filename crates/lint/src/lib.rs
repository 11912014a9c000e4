#![warn(missing_docs)]

//! # microedge-lint — determinism/robustness static analysis for this workspace
//!
//! Every evaluation artifact in this repo (`BENCH_*.json`, the Fig. 5/6/7
//! replays) is gated on *byte-identical determinism*. The bans that
//! rustc and clippy can check with type information — wall clock and
//! hash-ordered collections (`clippy.toml`), `unsafe` and bare `unwrap()`
//! (`[workspace.lints]`), lossy `as` casts (crate-root `deny`s in `sim`,
//! `core` and `metrics`) — live in that configuration (see `LINTS.md` at
//! the workspace root). This crate keeps only what needs its own call
//! graph or has no clippy equivalent: interprocedural
//! `taint-artifact-path`, the `panic-path-ratchet`, `no-partial-float-cmp`,
//! `empty-expect`, and the `workspace-lints` manifest guard.
//!
//! The engine is **zero-dependency** by design: a small comment/string/
//! char-literal-aware Rust tokenizer ([`tokenizer`]) feeds an item-tree
//! parser ([`parser`]), the per-file rule passes ([`rules`]) and an
//! intra-crate call graph ([`callgraph`]) for the flow analyses
//! ([`taint`]), over every workspace `.rs` file ([`engine`]), with a
//! committed, ratcheted debt baseline ([`baseline`]).
//!
//! Diagnostics are machine-readable, one per line:
//!
//! ```text
//! rule-id: file:line:col message
//! ```
//!
//! A `no-partial-float-cmp` or `taint-artifact-path` site can be exempted
//! with an inline escape hatch on the same line or the line above — the
//! reason is mandatory:
//!
//! ```text
//! // lint:allow(taint-artifact-path): host-measurement channel, stripped by the determinism gate
//! ```

pub mod baseline;
pub mod callgraph;
pub mod config;
pub mod engine;
pub mod parser;
pub mod rules;
pub mod taint;
pub mod tokenizer;

pub use engine::{find_root, lint_workspace, lint_workspace_with_baseline, Report};
pub use rules::{analyze_file, Diagnostic, FileAnalysis};
