//! The `repro` binary at its command-line surface: exit codes, the files a
//! run writes, and the paper set against its committed goldens.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro starts")
}

/// A fresh, absent directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("microedge-repro-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn an_unwritable_csv_dir_fails_the_run() {
    let dir = scratch("unwritable");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("file");
    std::fs::write(&file, "").unwrap();
    let below_a_file = file.join("x");
    let out = repro(&["--chaos", "--csv", below_a_file.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exit {:?}: {stderr}", out.status);
    assert!(stderr.contains("failed to write"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_unknown_flag_exits_2() {
    let out = repro(&["--no-such-artifact"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --no-such-artifact"));
}

#[test]
fn a_good_run_writes_every_selected_bench_file() {
    let dir = scratch("good");
    let out = repro(&[
        "--chaos",
        "--net",
        "--defrag",
        "--csv",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "exit {:?}", out.status);
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    assert_eq!(
        written,
        ["BENCH_chaos.json", "BENCH_defrag.json", "BENCH_net.json"]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The default run (every paper artifact) prints `golden/repro.stdout` and,
/// under `--csv`, writes exactly the golden CSV files, byte for byte. The
/// paper set reads no host clock, so its output is a function of the code
/// alone. A change meant to move these outputs regenerates them, from the
/// repository root:
///
/// ```text
/// cargo run --release -p microedge-bench --bin repro -- --csv crates/bench/tests/golden \
///     > crates/bench/tests/golden/repro.stdout
/// ```
#[test]
fn the_paper_set_matches_its_goldens() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let dir = scratch("golden");
    let out = repro(&["--csv", dir.to_str().unwrap()]);
    assert!(out.status.success(), "exit {:?}", out.status);
    let read = |path: PathBuf| std::fs::read_to_string(path).unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_matches_golden("repro.stdout", &stdout, &read(golden.join("repro.stdout")));
    let file_names = |dir: &Path| {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name != "repro.stdout")
            .collect();
        names.sort();
        names
    };
    let names = file_names(&golden);
    assert_eq!(
        file_names(&dir),
        names,
        "the written files are the golden set"
    );
    for name in &names {
        assert_matches_golden(name, &read(dir.join(name)), &read(golden.join(name)));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Fails at the first line where `actual` and `golden` differ.
fn assert_matches_golden(name: &str, actual: &str, golden: &str) {
    let mismatch = actual
        .lines()
        .zip(golden.lines())
        .position(|(a, g)| a != g)
        .unwrap_or(actual.lines().count().min(golden.lines().count()));
    assert!(
        actual == golden,
        "{name} differs from golden/{name} at line {}:\n  got:    {:?}\n  golden: {:?}",
        mismatch + 1,
        actual.lines().nth(mismatch),
        golden.lines().nth(mismatch)
    );
}
