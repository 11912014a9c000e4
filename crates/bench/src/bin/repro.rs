//! Regenerates every table and figure of the MicroEdge paper.
//!
//! ```text
//! repro [--fig1] [--fig5] [--table1] [--fig6] [--fig7a] [--fig7b] [--ablations]
//!       [--chaos] [--perf] [--scale] [--fleet] [--net] [--defrag] [--csv <dir>]
//! ```
//!
//! Every artifact is one row of [`ARTIFACTS`]. With no selection flag the
//! paper artifacts (`--fig1` … `--ablations`) run; the studies run only
//! when asked for. Every artifact has one size, the one committed;
//! `--csv <dir>` also dumps each selected artifact's series as CSV for
//! external plotting.
//!
//! The studies write `BENCH_*.json` (to the `--csv` directory if given,
//! else the working directory) through [`microedge_bench::artifact`]:
//! `--chaos` the fault-injection study (`BENCH_chaos.json`, simulated time
//! only), `--scale` the 1k→100k serial and sharded 100k/1M scale-out
//! (`BENCH_scale.json`), `--perf` the scale study and then the kernel and
//! admission-planning harnesses (`BENCH_kernel.json`,
//! `BENCH_admission.json`), `--fleet` the federated front door and whole-
//! cluster kill tiers (`BENCH_fleet.json`), `--net` the lossy-transport
//! study (`BENCH_net.json`) and `--defrag` the online defragmenter under
//! 24 h churn (`BENCH_defrag.json`). Host measurements sit on `host_`
//! lines; with those stripped, every file is byte-identical across runs
//! and `MICROEDGE_WORKERS` settings. A failed write exits non-zero.
//!
//! Artifacts that read no host clock run concurrently through the
//! deterministic executor ([`microedge_sim::par`]); the host-timed ones run
//! alone afterwards, so concurrent load cannot contaminate what they
//! measure. Output is printed in table order either way, byte-identical to
//! a serial run.

use std::fmt::{Display, Write as _};
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use microedge_bench as bench;
use microedge_bench::runner::SystemConfig;
use microedge_cluster::cost::CostModel;
use microedge_workloads::apps::CameraApp;
use microedge_workloads::trace::{synthesize, TraceConfig};

/// One artifact `repro` regenerates.
struct Artifact {
    /// The flags that select it; the first is its own.
    flags: &'static [&'static str],
    /// Whether a run with no selection flag includes it.
    default: bool,
    /// Whether it reads the host clock, and so runs alone.
    host_timed: bool,
    /// Renders it.
    run: fn() -> Output,
}

impl Artifact {
    /// A paper artifact: in the default set.
    const fn paper(flags: &'static [&'static str], run: fn() -> Output) -> Self {
        Self {
            flags,
            default: true,
            host_timed: false,
            run,
        }
    }

    /// A study: runs only when one of `flags` is given.
    const fn study(flags: &'static [&'static str], run: fn() -> Output) -> Self {
        Self {
            flags,
            default: false,
            host_timed: false,
            run,
        }
    }

    const fn host_timed(self) -> Self {
        Self {
            host_timed: true,
            ..self
        }
    }
}

/// Every artifact, in stdout order.
static ARTIFACTS: [Artifact; 13] = [
    Artifact::paper(&["--fig1"], fig1),
    Artifact::paper(&["--fig5"], fig5),
    Artifact::paper(&["--table1"], table1),
    Artifact::paper(&["--fig6"], fig6),
    Artifact::paper(&["--fig7a"], fig7a),
    Artifact::paper(&["--fig7b"], fig7b),
    Artifact::paper(&["--ablations"], ablations),
    Artifact::study(&["--chaos"], chaos),
    // Scale before the harnesses: its tiers record the process's peak RSS.
    Artifact::study(&["--scale", "--perf"], scale).host_timed(),
    Artifact::study(&["--perf"], perf).host_timed(),
    Artifact::study(&["--fleet"], fleet).host_timed(),
    Artifact::study(&["--net"], net).host_timed(),
    Artifact::study(&["--defrag"], defrag).host_timed(),
];

/// What one artifact produces.
#[derive(Debug, Default)]
struct Output {
    /// Its stdout contribution.
    text: String,
    /// CSV series as `(file name, body)`, written only under `--csv`.
    csv: Vec<(String, String)>,
    /// `BENCH_*.json` documents as `(file name, body)`.
    bench: Vec<(String, String)>,
}

impl Output {
    /// Appends a rendered block, then a newline, to the stdout text.
    fn print(&mut self, block: impl Display) {
        let _ = writeln!(self.text, "{block}");
    }

    /// Adds the series `<name>.csv`: the `header` line, then one line per
    /// item.
    fn csv<T>(
        &mut self,
        name: &str,
        header: &str,
        items: impl IntoIterator<Item = T>,
        row: impl Fn(T) -> Vec<String>,
    ) {
        let mut body = format!("{header}\n");
        for item in items {
            body += &csv_line(&row(item));
            body.push('\n');
        }
        self.csv.push((format!("{name}.csv"), body));
    }

    /// Adds the BENCH file `name`.
    fn json(&mut self, name: &str, body: String) {
        self.bench.push((name.to_owned(), body));
    }

    /// Writes the BENCH files, and under `--csv` the CSV series, into
    /// `csv_dir` or else the working directory.
    fn write(&self, csv_dir: Option<&Path>) -> io::Result<()> {
        let csv: &[_] = if csv_dir.is_some() { &self.csv } else { &[] };
        let dir = csv_dir.unwrap_or(Path::new("."));
        for (name, body) in csv.iter().chain(&self.bench) {
            let path = dir.join(name);
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, body))
                .map_err(|e| {
                    io::Error::new(e.kind(), format!("failed to write {}: {e}", path.display()))
                })?;
            eprintln!("wrote {}", path.display());
        }
        Ok(())
    }
}

/// One CSV line, without its newline; a field holding a comma, quote or
/// newline is quoted.
fn csv_line(fields: &[String]) -> String {
    let quoted: Vec<String> = fields
        .iter()
        .map(|f| {
            if f.contains([',', '"', '\n']) {
                format!("\"{}\"", f.replace('"', "\"\""))
            } else {
                f.clone()
            }
        })
        .collect();
    quoted.join(",")
}

/// Frames per camera in the paper artifacts' data-plane sweeps.
const FRAMES: u64 = 1000;

fn fig1() -> Output {
    let mut out = Output::default();
    out.print(bench::fig1::render_fig1());
    let header = "model,inference_ms,fps_for_full_util,sustains_15fps";
    out.csv("fig1", header, &bench::fig1::fig1_rows(), |r| {
        vec![
            r.model().to_owned(),
            format!("{:.1}", r.inference_ms()),
            format!("{:.1}", r.fps_for_full_util()),
            r.sustains_15fps().to_string(),
        ]
    });
    out
}

fn fig5() -> Output {
    let mut out = Output::default();
    for (app, configs) in [
        (
            CameraApp::coral_pie(),
            SystemConfig::fig5_configs().to_vec(),
        ),
        (
            CameraApp::bodypix(),
            vec![SystemConfig::Baseline, SystemConfig::microedge_full()],
        ),
    ] {
        let points = bench::scalability::fig5_sweep(&app, &configs, 6, FRAMES);
        out.print(bench::scalability::render_sweep(&app, &points));
        let header = "config,tpus,max_cameras,avg_utilization,slo_met";
        out.csv(&format!("fig5_{}", app.name()), header, &points, |p| {
            vec![
                p.config().label(),
                p.tpus().to_string(),
                p.max_cameras().to_string(),
                format!("{:.4}", p.avg_utilization()),
                p.all_slo_met().to_string(),
            ]
        });
    }
    out
}

fn table1() -> Output {
    let mut out = Output::default();
    let app = CameraApp::coral_pie();
    out.print(bench::cost::render_table1(&app, 17));
    let rows = bench::cost::table1_rows(&app, 17, CostModel::paper_prices());
    out.csv("table1", "config,tpus,rpis,total_usd", &rows, |r| {
        vec![
            r.config().label(),
            r.tpus().to_string(),
            r.rpis().to_string(),
            r.total_usd().to_string(),
        ]
    });
    out
}

fn fig6() -> Output {
    use bench::trace_study::{render_fig6, render_fig6_summary, run_fig6, TraceOutcome};
    let mut out = Output::default();
    let trace_cfg = TraceConfig::microedge_downsized();
    let trace = synthesize(&trace_cfg, 42);
    let outcomes = run_fig6(&trace, &trace_cfg, 6);
    out.print(render_fig6(&outcomes));
    // The paper (§6.3): "to fully understand the benefits of
    // co-compilation and workload partitioning, we would need to run a
    // much larger configuration of the workload on a larger cluster.
    // Such a study would show a stronger separation".
    let scaled_cfg = trace_cfg.scaled(2.5);
    let scaled_trace = synthesize(&scaled_cfg, 43);
    let scaled = run_fig6(&scaled_trace, &scaled_cfg, 12);
    out.print(render_fig6_summary(
        "Fig. 6 at 2.5× workload on 12 TPUs (the paper's predicted stronger separation)",
        &scaled,
    ));
    type SeriesFn = fn(&TraceOutcome) -> &[f64];
    let exports: [(&str, SeriesFn); 2] = [
        ("fig6a_utilization", |o| o.windowed_utilization()),
        ("fig6b_served", |o| o.served_series()),
    ];
    let mut labels = vec!["minute".to_owned()];
    labels.extend(outcomes.iter().map(|o| o.config().label()));
    let header = csv_line(&labels);
    for (name, series) in exports {
        let minutes = outcomes.iter().map(|o| series(o).len()).max().unwrap_or(0);
        out.csv(name, &header, 0..minutes, |m| {
            let mut row = vec![m.to_string()];
            row.extend(
                outcomes
                    .iter()
                    .map(|o| format!("{:.4}", series(o).get(m).copied().unwrap_or(0.0))),
            );
            row
        });
    }
    out
}

fn fig7a() -> Output {
    use bench::admission_overhead::{render_fig7a, run_overhead};
    let mut out = Output::default();
    let samples = 5000;
    let rows = run_overhead(samples, 42);
    out.print(render_fig7a(&rows, samples));
    let header = "config,mean_ms,std_ms,overhead_pct";
    out.csv("fig7a", header, &rows, |r| {
        vec![
            r.label().to_owned(),
            format!("{:.1}", r.mean_ms()),
            format!("{:.1}", r.std_ms()),
            format!("{:.2}", r.overhead_pct()),
        ]
    });
    out
}

fn fig7b() -> Output {
    use bench::latency_breakdown::{measure_breakdown, render_fig7b, serverless_row};
    let mut out = Output::default();
    let frames = FRAMES.min(300);
    out.print(render_fig7b(frames));
    let rows = [
        measure_breakdown(SystemConfig::Baseline, frames),
        measure_breakdown(SystemConfig::microedge_full(), frames),
        serverless_row(),
    ];
    let header = "design,pre_ms,transmission_ms,inference_ms,post_ms,total_ms";
    out.csv("fig7b", header, &rows, |r| {
        let mut row = vec![r.label().to_owned()];
        row.extend(r.phases_ms().iter().map(|p| format!("{p:.2}")));
        row.push(format!("{:.2}", r.total_ms()));
        row
    });
    out
}

fn ablations() -> Output {
    let mut out = Output::default();
    let frames = FRAMES.min(300);
    out.print(bench::latency_breakdown::render_serverless_ablation());
    out.print(bench::packing::render_packing(60, 6, 10));
    out.print(bench::pipeline_ablation::render_pipeline_ablation(frames));
    out.print(bench::diff_detector::render_diff_detector(6, frames));
    out.print(bench::tail_latency::render_tail_latency(6, frames));
    out
}

fn chaos() -> Output {
    use bench::chaos::{render_chaos, run_chaos, to_json};
    let mut out = Output::default();
    let points = run_chaos();
    out.print(render_chaos(&points));
    out.json("BENCH_chaos.json", to_json(&points));
    out
}

fn perf() -> Output {
    let mut out = Output::default();
    let kernel = bench::perf::run_kernel_perf();
    out.print(kernel.render_summary());
    out.json("BENCH_kernel.json", kernel.to_json());
    let admission = bench::admission_overhead::run_admission_perf();
    out.print(bench::scalability::render_admission_scalability(&admission));
    out.json("BENCH_admission.json", admission.to_json());
    out
}

fn scale() -> Output {
    let mut out = Output::default();
    let serial = bench::scale::run_scale();
    out.print(serial.render_summary());
    let sharded = bench::scale_sharded::run_scale_sharded();
    out.print(sharded.render_summary());
    out.json(
        "BENCH_scale.json",
        bench::scale_sharded::to_json(&serial, &sharded),
    );
    out
}

fn fleet() -> Output {
    use bench::fleet::{render_fleet, run_fleet_chaos, run_fleet_perf};
    let mut out = Output::default();
    let tiers = run_fleet_chaos();
    let perf = run_fleet_perf();
    out.print(render_fleet(&perf, &tiers));
    out.json("BENCH_fleet.json", bench::fleet::to_json(&perf, &tiers));
    out
}

fn net() -> Output {
    use bench::netchaos::{render_net_chaos, run_net_chaos, to_json};
    let mut out = Output::default();
    let tiers = run_net_chaos();
    out.print(render_net_chaos(&tiers));
    out.json("BENCH_net.json", to_json(&tiers));
    out
}

fn defrag() -> Output {
    use bench::defrag::{render_defrag, run_defrag_study, to_json};
    let mut out = Output::default();
    let study = run_defrag_study();
    out.print(render_defrag(&study));
    out.json("BENCH_defrag.json", to_json(&study));
    out
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// The selected artifacts in table order and the `--csv` directory. A
/// usage error exits with status 2.
fn parse_args() -> (Vec<&'static Artifact>, Option<PathBuf>) {
    let mut csv_dir = None;
    let mut flags: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--csv" => match args.next() {
                Some(dir) => csv_dir = Some(PathBuf::from(dir)),
                None => usage_error("--csv requires a directory argument"),
            },
            flag if ARTIFACTS.iter().any(|a| a.flags.contains(&flag)) => flags.push(arg),
            other => {
                let known: Vec<&str> = ARTIFACTS.iter().map(|a| a.flags[0]).collect();
                usage_error(&format!(
                    "unknown flag {other}; known: {} --csv <dir>",
                    known.join(" ")
                ));
            }
        }
    }
    let selected = ARTIFACTS
        .iter()
        .filter(|a| {
            if flags.is_empty() {
                a.default
            } else {
                a.flags.iter().any(|f| flags.iter().any(|g| g == f))
            }
        })
        .collect();
    (selected, csv_dir)
}

fn main() -> ExitCode {
    let (selected, csv_dir) = parse_args();
    println!("MicroEdge reproduction — paper artifacts\n");
    let batch: Vec<usize> = (0..selected.len())
        .filter(|&i| !selected[i].host_timed)
        .collect();
    let mut outputs: Vec<Option<Output>> = selected.iter().map(|_| None).collect();
    for (i, out) in microedge_sim::par::par_map(batch, |_, i| (i, (selected[i].run)())) {
        outputs[i] = Some(out);
    }
    for (artifact, done) in selected.iter().zip(outputs) {
        let out = done.unwrap_or_else(|| (artifact.run)());
        print!("{}", out.text);
        if let Err(e) = out.write(csv_dir.as_deref()) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_fields_are_quoted_when_needed() {
        let fields = ["plain", "with,comma", "with\"quote"].map(str::to_owned);
        assert_eq!(csv_line(&fields), "plain,\"with,comma\",\"with\"\"quote\"");
    }

    /// In each committed BENCH file, every key on a line holding a
    /// `host_` key is a `host_` key, so stripping host lines removes no
    /// deterministic field. Their deterministic part is checked against a
    /// regeneration, at 1 and 8 workers, by `scripts/check.sh`.
    #[test]
    fn committed_bench_files_keep_host_keys_on_host_lines() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for name in [
            "chaos",
            "kernel",
            "admission",
            "scale",
            "fleet",
            "net",
            "defrag",
        ] {
            let name = format!("BENCH_{name}.json");
            let body = std::fs::read_to_string(root.join(&name)).unwrap();
            for line in body.lines().filter(|l| l.contains("\"host_")) {
                assert_eq!(
                    line.matches("\": ").count(),
                    line.matches("\"host_").count(),
                    "{name}: a host line holds a deterministic key: {line}"
                );
            }
        }
    }
}
