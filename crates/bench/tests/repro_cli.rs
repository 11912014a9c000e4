//! The `repro` binary at its command-line surface: exit codes and the
//! files a run writes.

use std::path::PathBuf;
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
    let out = repro(&[
        "--chaos",
        "--quick",
        "--csv",
        below_a_file.to_str().unwrap(),
    ]);
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
fn a_quick_study_without_csv_writes_nothing_and_fails() {
    let dir = scratch("quick-no-csv");
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--chaos", "--quick"])
        .current_dir(&dir)
        .output()
        .expect("repro starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("refusing to write BENCH_chaos.json"),
        "{stderr}"
    );
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "a file was written"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_good_run_writes_every_selected_bench_file() {
    let dir = scratch("good");
    let out = repro(&[
        "--chaos",
        "--net",
        "--defrag",
        "--quick",
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
