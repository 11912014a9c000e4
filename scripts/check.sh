#!/usr/bin/env bash
# CI-style gate: formatting, lints-as-errors, build, the test suite, and
# the five artifact determinism gates (chaos, scale, fleet, net, defrag).
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> microedge-lint (determinism/robustness rules + ratchets, see LINTS.md)"
cargo run --quiet -p microedge-lint

echo "==> microedge-lint tests-report (informational, never gates)"
cargo run --quiet -p microedge-lint -- --tests-report | tail -n 1

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

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

echo "==> chaos study smoke + determinism (repro --chaos --quick)"
MICROEDGE_WORKERS=1 cargo run --release -p microedge-bench --bin repro -- --chaos --quick --csv "$artifacts/a"
MICROEDGE_WORKERS=8 cargo run --release -p microedge-bench --bin repro -- --chaos --quick --csv "$artifacts/b"
cmp "$artifacts/a/BENCH_chaos.json" "$artifacts/b/BENCH_chaos.json"

echo "==> scale study smoke + sharded-replay determinism (repro --scale --quick)"
MICROEDGE_WORKERS=1 cargo run --release -p microedge-bench --bin repro -- --scale --quick --csv "$artifacts/a"
MICROEDGE_WORKERS=8 cargo run --release -p microedge-bench --bin repro -- --scale --quick --csv "$artifacts/b"
assert_deterministic_artifact BENCH_scale.json "$artifacts/a" "$artifacts/b"

echo "==> fleet front-door smoke + determinism (repro --fleet --quick)"
MICROEDGE_WORKERS=1 cargo run --release -p microedge-bench --bin repro -- --fleet --quick --csv "$artifacts/a"
MICROEDGE_WORKERS=8 cargo run --release -p microedge-bench --bin repro -- --fleet --quick --csv "$artifacts/b"
assert_deterministic_artifact BENCH_fleet.json "$artifacts/a" "$artifacts/b"

echo "==> network chaos smoke + determinism (repro --net --quick)"
MICROEDGE_WORKERS=1 cargo run --release -p microedge-bench --bin repro -- --net --quick --csv "$artifacts/a"
MICROEDGE_WORKERS=8 cargo run --release -p microedge-bench --bin repro -- --net --quick --csv "$artifacts/b"
assert_deterministic_artifact BENCH_net.json "$artifacts/a" "$artifacts/b"

echo "==> online defragmentation smoke + determinism (repro --defrag --quick)"
MICROEDGE_WORKERS=1 cargo run --release -p microedge-bench --bin repro -- --defrag --quick --csv "$artifacts/a"
MICROEDGE_WORKERS=8 cargo run --release -p microedge-bench --bin repro -- --defrag --quick --csv "$artifacts/b"
assert_deterministic_artifact BENCH_defrag.json "$artifacts/a" "$artifacts/b"

echo "All checks passed."
