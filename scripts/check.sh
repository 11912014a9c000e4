#!/usr/bin/env bash
# CI-style gate: formatting, the source and manifest gates clippy cannot
# express, clippy -D warnings, the microedge-core panic-site ratchet, rustdoc
# links, build, the test suite, and the five artifact determinism gates
# (chaos, scale, fleet, net, defrag). LINTS.md maps each rule to its gate.
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# `--untracked` also searches new files not yet added (still honouring
# .gitignore). The `if` form matters: `set -e` ignores a failing `! cmd`.
echo "==> no float partial_cmp, no empty expect, every manifest opts into [workspace.lints]"
if git grep --untracked -nE '\.partial_cmp\(' -- '*.rs' ':!vendor'; then
  echo "partial_cmp is not a total order on floats; use total_cmp" >&2
  exit 1
fi
if git grep --untracked -nF '.expect("")' -- '*.rs' ':!vendor'; then
  echo "an empty expect message names no invariant" >&2
  exit 1
fi
for manifest in Cargo.toml crates/*/Cargo.toml; do
  if ! grep -A1 -Fx '[lints]' "$manifest" | grep -Fx 'workspace = true' >/dev/null; then
    echo "$manifest: missing [lints] workspace = true" >&2
    exit 1
  fi
done

# clippy.toml and [workspace.lints] carry the type-aware determinism bans.
echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Panicking constructs in microedge-core's non-test library code, counted by
# clippy. Lower the ceiling as sites burn down; never raise it. The extra
# flags get their own target dir so they do not invalidate the cache of the
# clippy step above, and a fresh cache replays its warnings.
panic_ceiling=160
echo "==> microedge-core panic sites <= $panic_ceiling"
panic_report="$(CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}/panic-sites" \
  cargo clippy --quiet -p microedge-core --lib --message-format short -- \
  -W clippy::indexing_slicing -W clippy::expect_used -W clippy::panic \
  -W clippy::unreachable -W clippy::todo -W clippy::unimplemented 2>&1)"
panic_sites="$(grep -c '^crates/core/src/' <<<"$panic_report" || true)"
if ((panic_sites > panic_ceiling)); then
  grep '^crates/core/src/' <<<"$panic_report" >&2
  echo "microedge-core has $panic_sites panic sites, above the ceiling of $panic_ceiling" >&2
  exit 1
fi
echo "$panic_sites panic sites"

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
