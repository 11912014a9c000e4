//! `microedge-lint` binary: lint the workspace, or regenerate the
//! panic-path baseline with `--update-baseline`. Exit 0 when clean, 1 on
//! findings, 2 on usage/IO errors.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use microedge_lint::rules::Diagnostic;
use microedge_lint::{baseline, engine};

/// Output format for findings.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    /// `rule-id: file:line:col message` (the LINTS.md contract).
    Text,
    /// GitHub Actions workflow commands (`::error file=...`), rendered by
    /// the Actions runner as inline PR annotations.
    Github,
}

fn main() -> ExitCode {
    let mut update_baseline = false;
    let mut format = Format::Text;
    let mut root_arg: Option<PathBuf> = None;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--update-baseline" => update_baseline = true,
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("github") => format = Format::Github,
                Some(other) => return usage(&format!("unknown format `{other}` (text|github)")),
                None => return usage("--format requires a value (text|github)"),
            },
            "--root" => match args.next() {
                Some(p) => root_arg = Some(PathBuf::from(p)),
                None => return usage("--root requires a path"),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root =
        match root_arg.or_else(|| env::current_dir().ok().and_then(|d| engine::find_root(&d))) {
            Some(r) => r,
            None => return usage("could not locate the workspace root (run from inside the repo)"),
        };

    if update_baseline {
        let report = match engine::lint_workspace(&root) {
            Ok(r) => r,
            Err(e) => return fail(&format!("scan failed: {e}")),
        };
        let path = root.join(baseline::BASELINE_FILE);
        let text = baseline::format(&report.panic_ratchet);
        if let Err(e) = fs::write(&path, text) {
            return fail(&format!("cannot write {}: {e}", path.display()));
        }
        let panics: usize = report.panic_ratchet.values().sum();
        println!(
            "microedge-lint: wrote {} ({} packages, {} hot-path panic constructs)",
            path.display(),
            report.panic_ratchet.len(),
            panics
        );
        for (name, file, line, count) in report.panic_breakdown.iter().take(10) {
            println!("  panic-path: {count:3}  {name} ({file}:{line})");
        }
        return ExitCode::SUCCESS;
    }

    let report = match engine::lint_workspace_with_baseline(&root) {
        Ok(r) => r,
        Err(e) => return fail(&format!("scan failed: {e}")),
    };
    for d in &report.diags {
        emit(d, format);
    }
    if report.diags.is_empty() {
        let panics: usize = report.panic_ratchet.values().sum();
        println!(
            "microedge-lint: {} files clean; panic-path at {} within baseline",
            report.files_scanned, panics
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("microedge-lint: {} finding(s)", report.diags.len());
        ExitCode::FAILURE
    }
}

/// Print one diagnostic in the selected format. GitHub workflow commands
/// must keep the message on one line; newlines become `%0A` per the
/// Actions escaping rules.
fn emit(d: &Diagnostic, format: Format) {
    match format {
        Format::Text => println!("{d}"),
        Format::Github => {
            let msg = d
                .message
                .replace('%', "%25")
                .replace('\r', "%0D")
                .replace('\n', "%0A");
            println!(
                "::error file={},line={},col={},title={}::{msg}",
                d.path, d.line, d.col, d.rule
            );
        }
    }
}

const USAGE: &str = "\
microedge-lint — determinism/robustness static analysis (see LINTS.md)

USAGE:
    cargo run -p microedge-lint [-- OPTIONS]

OPTIONS:
    --update-baseline   Recount panic-path debt and rewrite lint-baseline.toml
    --format <fmt>      Output format: text (default) or github (Actions
                        inline annotations)
    --root <path>       Workspace root (default: walk up from the current dir)
    -h, --help          Show this help
";

fn usage(msg: &str) -> ExitCode {
    eprintln!("microedge-lint: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("microedge-lint: {msg}");
    ExitCode::from(2)
}
