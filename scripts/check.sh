#!/usr/bin/env bash
# CI-style gate: formatting, the source and manifest gates clippy cannot
# express, clippy -D warnings, the microedge-core panic-site ratchet, rustdoc
# links, build, the test suite, and the repro artifact gate (the paper
# artifacts' stdout and all seven BENCH_*.json at 1 and 8 workers, the
# 8-worker run under overflow traps, and the seven committed BENCH_*.json
# against their regeneration). LINTS.md maps each rule to its gate. Run from
# anywhere inside the repo.
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
panic_ceiling=146
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
# measurements (wall time, events/s, RSS, worker and core counts), which
# crates/bench/src/artifact.rs writes on "host_" lines of their own. One
# repro run per worker count prints the paper artifacts and writes every
# study's artifact. The 8-worker runs use a release build with
# `-C overflow-checks=on` (the target dir CI's overflow step reuses), so every
# study, the 1M-camera tier included, runs once with arithmetic traps. With
# host lines stripped, each artifact must be byte-identical across worker
# counts, and each committed BENCH_*.json must match the one regenerated
# here; so must the paper stdout across worker counts (the cargo tests hold
# it to its committed golden). The studies' stdout carries wall-clock columns
# and is not compared.
artifacts="$(mktemp -d)"
trap 'rm -rf "$artifacts"' EXIT
overflow_target="${CARGO_TARGET_DIR:-target}/overflow"
repro() {
  local workers=$1
  shift
  if ((workers == 1)); then
    MICROEDGE_WORKERS=1 cargo run --quiet --release -p microedge-bench --bin repro -- "$@"
  else
    MICROEDGE_WORKERS=$workers RUSTFLAGS="-C overflow-checks=on" CARGO_TARGET_DIR="$overflow_target" \
      cargo run --quiet --release -p microedge-bench --bin repro -- "$@"
  fi
}
for workers in 1 8; do
  echo "==> repro: paper artifacts, then every study (MICROEDGE_WORKERS=$workers)"
  repro "$workers" > "$artifacts/stdout.$workers"
  repro "$workers" --chaos --scale --fleet --net --defrag --perf --csv "$artifacts/$workers" > /dev/null
done
# Stripped copies are written by plain commands, so a missing artifact fails
# here instead of comparing as empty.
strip_host() {
  grep -v '"host_' "$1" > "$2"
}
echo "==> determinism: stdout and host_-stripped artifacts at 1 vs 8 workers"
cmp "$artifacts/stdout.1" "$artifacts/stdout.8"
for name in chaos kernel admission scale fleet net defrag; do
  strip_host "$artifacts/1/BENCH_$name.json" "$artifacts/$name.1"
  strip_host "$artifacts/8/BENCH_$name.json" "$artifacts/$name.8"
  cmp "$artifacts/$name.1" "$artifacts/$name.8"
done
echo "==> committed artifacts: host_-stripped BENCH_*.json match the regenerated ones"
for name in chaos kernel admission scale fleet net defrag; do
  strip_host "BENCH_$name.json" "$artifacts/$name.committed"
  cmp "$artifacts/$name.committed" "$artifacts/$name.1"
done

echo "All checks passed."
