#!/usr/bin/env bash
# CI-style gate: formatting, lints-as-errors, rustdoc links, build, the test
# suite, and the five artifact determinism gates (chaos, scale, fleet, net,
# defrag).
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> microedge-lint (call-graph rules + panic-path ratchet, see LINTS.md)"
cargo run --quiet -p microedge-lint

# clippy.toml and [workspace.lints] carry the type-aware determinism bans.
echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Intra-doc links to renamed or deleted items must not dangle.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --quiet --workspace

# Benchmark artifacts mix deterministic simulation output with host
# measurements (events/s, wall time, RSS, worker count, speedups).
# Measurement lines carry "host_" keys on their own lines; strip them and
# the rest must be byte-identical across worker counts.
strip_host_lines() {
  grep -v '"host_' "$1"
}

# Compares one artifact produced under two MICROEDGE_WORKERS settings,
# host_ lines stripped: assert_deterministic_artifact <name> <dir_a> <dir_b>
assert_deterministic_artifact() {
  local name="$1" a="$2" b="$3"
  strip_host_lines "$a/$name" > "$a/$name.filtered"
  strip_host_lines "$b/$name" > "$b/$name.filtered"
  cmp "$a/$name.filtered" "$b/$name.filtered"
}

artifacts="$(mktemp -d)"
trap 'rm -rf "$artifacts"' EXIT

# BENCH_chaos.json has no host_ lines, so stripping them is a no-op there.
for study in chaos scale fleet net defrag; do
  echo "==> $study smoke + determinism (repro --$study --quick)"
  MICROEDGE_WORKERS=1 cargo run --release -p microedge-bench --bin repro -- "--$study" --quick --csv "$artifacts/a"
  MICROEDGE_WORKERS=8 cargo run --release -p microedge-bench --bin repro -- "--$study" --quick --csv "$artifacts/b"
  assert_deterministic_artifact "BENCH_$study.json" "$artifacts/a" "$artifacts/b"
done

echo "All checks passed."
