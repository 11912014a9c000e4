#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <fig6_trace|serial_100k|fleet_churn> \
        --seed <n> --seconds <s> --trace <0|1>

The binary is built with cargo into $CARGO_TARGET_DIR (default
.bench_build). Its standard output is passed through, with one
`{"host": ...}` provenance line inserted before the last line, which is the
result object. Any other flag (--quick, --reference <hex>) goes to the
binary unchanged; the self-tests use them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path("perfbench") / "Cargo.toml"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    """Runs cmd from the repository root; kills it and fails on timeout."""
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        fail(f"{cmd[0]} did not finish within {timeout} s")


def target_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Builds the release binary; its output goes to stderr."""
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        fail("the repository's crates are missing; run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(MANIFEST)]
    done = run(cmd, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail("cargo build failed")
    return target_dir() / "release" / "perfbench"


def first_line(path, prefix):
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def host(workers):
    """Provenance of a result, kept apart from its metrics."""
    rustc = run(["rustc", "-V"], 60, capture_output=True, text=True)
    commit = None
    if (ROOT / ".git").exists():
        git = run(["git", "rev-parse", "HEAD"], 60, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "rustc": rustc.stdout.strip(),
        "profile": "release",
        "commit": commit,
    }


def main():
    binary = build()
    args = sys.argv[1:]
    out_dir = target_dir() / "perfbench"
    done = run([str(binary), *args, "--out-dir", str(out_dir)],
               RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        fail(f"the benchmark exited with code {done.returncode}")
    lines = done.stdout.splitlines()
    if not lines:
        fail("the benchmark printed nothing")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"malformed result line: {lines[-1]}")
    workers = None
    for line in lines[:-1]:
        print(line)
        if line.startswith('{"check"'):
            workers = json.loads(line)["check"]["workers"]
    print(json.dumps({"host": host(workers)}))
    print(lines[-1])


if __name__ == "__main__":
    main()
