//! The repository benchmark's measuring binary. `perfbench/run.py` builds
//! and runs it; see `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <fig6_trace|serial_100k|fleet_churn> --seed <n>
//!           --seconds <s> --trace <0|1> [--quick] [--reference <hex>]
//!           [--out-dir <dir>]
//! ```
//!
//! `--trace 0` repeats set-up and replay until `--seconds` have passed and
//! prints the end-to-end metrics, host times as medians over the repetitions,
//! each scaled to the reference host speed by the probe in `calib`. `--trace
//! 1` runs one untraced and one traced replay, the layer probes, and prints
//! the per-layer ledger. Either way every replay's output digest is checked,
//! and the last line of standard output is the result object.

mod calib;
mod digest;
mod ledger;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ledger::{Ctx, Ledger};
use stats::{median, percentile};
use workloads::{
    fig6_outcome, fleet_outcome, serial_outcome, Fig6, Fleet, FleetInputs, FleetShape, Outcome,
    Serial, Size, Workload, FLEET_WORKERS,
};

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    reference: Option<u64>,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = digest::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut reference = None;
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            size = Size::Quick;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(seconds > 0.0 && seconds <= 150.0) {
                    return Err(bad("expected 0 < seconds <= 150"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            "--reference" => {
                reference = Some(u64::from_str_radix(&value, 16).map_err(|_| bad("expected hex"))?);
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        size,
        reference,
        out_dir,
    })
}

/// A workload after set-up, ready to replay.
enum Built {
    Fig6(Fig6),
    Serial(Box<Serial>),
    Fleet(Fleet),
}

/// What a set-up produced besides the world: facts for the `check` line.
struct SetupInfo {
    built: Built,
    setup_s: f64,
    inputs: u64,
    shape: String,
}

fn setup(w: Workload, seed: u64, size: Size, ctx: &mut Ctx) -> SetupInfo {
    ctx.tracer.open("setup");
    let start = Instant::now();
    let built = match w {
        Workload::Fig6Trace => Built::Fig6(Fig6::setup(seed, size, ctx)),
        Workload::Serial100k => Built::Serial(Box::new(Serial::setup(seed, size, ctx))),
        Workload::FleetChurn => {
            ctx.tracer.open("inputs");
            let inputs = FleetInputs::generate(FleetShape::at(size), seed);
            ctx.tracer.close();
            let fleet = Fleet::setup(&inputs, ctx);
            let setup_s = start.elapsed().as_secs_f64();
            ctx.tracer.close();
            return SetupInfo {
                built: Built::Fleet(fleet),
                setup_s,
                inputs: inputs.digest(),
                shape: inputs.shape(),
            };
        }
    };
    let setup_s = start.elapsed().as_secs_f64();
    ctx.tracer.close();
    let (inputs, shape) = match &built {
        Built::Fig6(f) => (f.inputs_digest(), f.shape()),
        Built::Serial(s) => (s.inputs_digest(), s.shape()),
        Built::Fleet(_) => unreachable!("returned above"),
    };
    SetupInfo {
        built,
        setup_s,
        inputs,
        shape,
    }
}

/// Replays `built`; returns the outcome and the replay's host time, which
/// runs from the first replay call to the returned `RunResults`.
fn replay(built: Built, workers: usize, ctx: &mut Ctx) -> (Outcome, f64) {
    ctx.tracer.open("replay");
    let start = Instant::now();
    let (outcome, replay_s) = match built {
        Built::Fig6(f) => {
            let runs = f.replay(ctx);
            let replay_s = start.elapsed().as_secs_f64();
            (fig6_outcome(&runs), replay_s)
        }
        Built::Serial(s) => {
            let cameras = s.cameras();
            let results = s.replay(ctx);
            let replay_s = start.elapsed().as_secs_f64();
            (serial_outcome(&results, cameras), replay_s)
        }
        Built::Fleet(f) => {
            let run = f.replay(workers, ctx);
            let replay_s = start.elapsed().as_secs_f64();
            (fleet_outcome(&run), replay_s)
        }
    };
    ctx.tracer.close();
    (outcome, replay_s)
}

/// One set-up and replay.
struct Rep {
    setup_s: f64,
    replay_s: f64,
    outcome: Outcome,
    inputs: u64,
    shape: String,
}

fn run_once(w: Workload, seed: u64, size: Size, workers: usize, ctx: &mut Ctx) -> Rep {
    let info = setup(w, seed, size, ctx);
    let (outcome, replay_s) = replay(info.built, workers, ctx);
    Rep {
        setup_s: info.setup_s,
        replay_s,
        outcome,
        inputs: info.inputs,
        shape: info.shape,
    }
}

/// Failure accounting: a replay fails if it panics, if its digest differs
/// from the reference, or if a conservation ledger is off.
struct Checker {
    reference: Option<u64>,
    committed: bool,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(reference: Option<u64>) -> Self {
        Checker {
            committed: reference.is_some(),
            reference,
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs `f` as one attempted replay and checks what it returns.
    fn attempt(&mut self, f: impl FnOnce() -> Rep) -> Option<Rep> {
        self.attempted += 1;
        let Ok(rep) = catch_unwind(AssertUnwindSafe(f)) else {
            self.failed += 1;
            return None;
        };
        let digest = rep.outcome.digest();
        let reference = *self.reference.get_or_insert(digest);
        if digest != reference || rep.outcome.violations > 0 {
            self.failed += 1;
        }
        Some(rep)
    }

    fn merge(&mut self, other: &Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Metrics in emission order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn push(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.push((name.to_owned(), value, unit));
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// The `check` line: the digest with the counters it covers, the inputs
/// hash and shape the seed produced, and every repetition's timings.
fn check_line(args: &Args, checker: &Checker, first: &Rep, workers: usize, extra: &str) -> String {
    let counters: Vec<String> = first
        .outcome
        .fields
        .iter()
        .map(|(name, value)| format!("[\"{name}\", {value}]"))
        .collect();
    format!(
        "{{\"check\": {{\"workload\": \"{}\", \"seed\": {}, \"digest\": \"{:016x}\", \"reference\": \"{}\", \"inputs\": \"{:016x}\", \"shape\": \"{}\", \"workers\": {workers}{extra}, \"counters\": [{}]}}}}",
        args.workload.name(),
        args.seed,
        first.outcome.digest(),
        if checker.committed { "committed" } else { "first replay" },
        first.inputs,
        first.shape,
        counters.join(", "),
    )
}

/// The digest every replay of this run must reproduce, if known up front:
/// `--reference`, else the committed one for a full-size run's seed.
fn reference_for(args: &Args) -> Option<u64> {
    let committed = match args.size {
        Size::Full => digest::reference(args.workload.name(), args.seed),
        Size::Quick => None,
    };
    args.reference.or(committed)
}

fn workers_of(w: Workload) -> usize {
    match w {
        Workload::FleetChurn => FLEET_WORKERS,
        Workload::Fig6Trace | Workload::Serial100k => 1,
    }
}

fn list(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!("[{}]", parts.join(", "))
}

/// Fewest timed replays a run makes, after the untimed first one.
const MIN_REPS: usize = 3;
/// Fewest set-ups a run makes.
const MIN_SETUPS: usize = 5;
/// Set-ups are repeated until they add up to this much host time...
const MIN_SETUP_TOTAL_S: f64 = 0.5;
/// ...or this many have run.
const MAX_SETUPS: usize = 1_000;

/// `--trace 0`: end-to-end metrics over repeated set-up and replay.
fn untraced(args: &Args) -> (Vec<String>, String) {
    let w = args.workload;
    let workers = workers_of(w);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut checker = Checker::new(reference_for(args));
    let mut ctx = Ctx::new(false);
    let start = Instant::now();
    let (mut setups, mut replays) = (Vec::new(), Vec::new());
    // The first set-up and replay fault in the process's memory and fill
    // the allocator; they are checked but not timed. Later ones reuse that
    // memory, so the peak after it is the workload's; the probe allocates
    // only after it is read.
    let first = checker.attempt(|| run_once(w, args.seed, args.size, workers, &mut ctx));
    let rss_mb = microedge_bench::scale::peak_rss_bytes().map_or(0.0, |b| b as f64 / 1048576.0);
    // The probe runs now and after every timed replay, so each timed
    // set-up and replay sits between two probes.
    let mut probe = calib::Probe::new(workers);
    let mut probes = vec![probe.seconds()];
    let timed = Instant::now();
    while first.is_some() {
        let rep = checker.attempt(|| run_once(w, args.seed, args.size, workers, &mut ctx));
        let before = probes[probes.len() - 1];
        let after = probe.seconds();
        probes.push(after);
        if let Some(rep) = rep {
            setups.push((rep.setup_s, before, after));
            replays.push((rep.replay_s, before, after));
        }
        let done = checker.attempted as usize - 1;
        let per_rep = timed.elapsed() / u32::try_from(done).expect("few reps");
        if done >= MIN_REPS && start.elapsed() + per_rep > budget {
            break;
        }
    }
    // Set-up is short next to a replay; time more on their own so its
    // figure rests on enough samples and enough host time.
    while !setups.is_empty()
        && (setups.len() < MIN_SETUPS
            || (setups.iter().map(|s| s.0).sum::<f64>() < MIN_SETUP_TOTAL_S
                && setups.len() < MAX_SETUPS))
    {
        let last = probes[probes.len() - 1];
        setups.push((setup(w, args.seed, args.size, &mut ctx).setup_s, last, last));
    }
    let host = |v: &[(f64, f64, f64)]| v.iter().map(|s| s.0).collect::<Vec<f64>>();
    let scaled = |v: &[(f64, f64, f64)]| {
        v.iter()
            .map(|&(t, before, after)| calib::at_reference(t, before, after))
            .collect::<Vec<f64>>()
    };
    let mut lines = Vec::new();
    let mut metrics = Metrics::new();
    if let Some(first) = &first {
        let extra = format!(
            ", \"setup_s\": {}, \"replay_s\": {}, \"probe_s\": {}",
            list(&host(&setups)),
            list(&host(&replays)),
            list(&probes)
        );
        lines.push(check_line(args, &checker, first, workers, &extra));
        push(&mut metrics, "setup_s", median(&scaled(&setups)), "s");
        push(&mut metrics, "replay_s", median(&scaled(&replays)), "s");
        push(&mut metrics, "peak_rss_mb", rss_mb, "MiB");
        push(
            &mut metrics,
            "sim_admit_rate",
            first.outcome.admit_rate,
            "ratio",
        );
        push(
            &mut metrics,
            "sim_frame_p99_ms",
            first.outcome.frame_p99_ms,
            "sim_ms",
        );
    }
    let correct = checker.failed == 0 && first.is_some();
    (
        lines,
        result_line(correct, checker.attempted, checker.failed, &metrics),
    )
}

fn us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Span names whose self time the traced run reports.
const SELF_TIMED: [&str; 10] = [
    "setup",
    "inputs",
    "build",
    "admit",
    "remove",
    "replay",
    "run_until",
    "finish",
    "defrag_epoch",
    "sharded_run",
];

/// `--trace 1`: one untraced replay, one traced replay, the per-workload
/// extras, the standalone shard and the isolated probes.
fn traced(args: &Args) -> (Vec<String>, String) {
    let (w, seed, size) = (args.workload, args.seed, args.size);
    let workers = workers_of(w);
    let mut checker = Checker::new(reference_for(args));
    let mut fleet_checker = Checker::new(None);
    let mut ctx = Ctx::new(true);

    // Untraced, traced, untraced: the first replay warms the allocator and
    // page tables, and the overhead compares the last two, both warm.
    let base = checker.attempt(|| run_once(w, seed, size, workers, &mut Ctx::new(false)));
    let traced_rep = checker.attempt(|| run_once(w, seed, size, workers, &mut ctx));
    let warm = checker.attempt(|| run_once(w, seed, size, workers, &mut Ctx::new(false)));
    let (Some(base), Some(traced_rep), Some(warm)) = (base, traced_rep, warm) else {
        return (
            Vec::new(),
            result_line(false, checker.attempted, checker.failed, &Metrics::new()),
        );
    };
    let mut layer = std::mem::take(&mut ctx.ledger);

    // The fleet layers, at 2 and 1 workers: the workload itself when it is
    // the fleet, else the quick fleet (a tenth of the clusters, same
    // per-cluster shape). Each checker asserts its replays share a digest.
    let (fleet, w2, w1) = if w == Workload::FleetChurn {
        let w1 = checker.attempt(|| run_once(w, seed, size, 1, &mut Ctx::new(false)));
        (
            Some(traced_rep.outcome.clone()),
            Some(traced_rep.replay_s),
            w1.map(|r| r.replay_s),
        )
    } else {
        let quick = |workers, ctx: &mut Ctx| {
            run_once(Workload::FleetChurn, seed, Size::Quick, workers, ctx)
        };
        let w2 = fleet_checker.attempt(|| quick(FLEET_WORKERS, &mut ctx));
        let w1 = fleet_checker.attempt(|| quick(1, &mut Ctx::new(false)));
        (
            w2.as_ref().map(|r| r.outcome.clone()),
            w2.map(|r| r.replay_s),
            w1.map(|r| r.replay_s),
        )
    };
    ctx.ledger = Ledger::default();

    if w == Workload::Serial100k {
        ctx.tracer.open("teardown");
        if let Built::Serial(s) = setup(w, seed, size, &mut Ctx::new(false)).built {
            s.teardown_tenth(&mut ctx);
        }
        ctx.tracer.close();
        layer.remove_ns = std::mem::take(&mut ctx.ledger).remove_ns;
    }

    ctx.tracer.open("shard_probe");
    let shard = probes::standalone_shard(FleetShape::at(size).per_cluster, seed, &mut ctx);
    ctx.tracer.close();
    let shard_ledger = std::mem::take(&mut ctx.ledger);
    let run_until_events = if w == Workload::FleetChurn {
        // The sharded replay's event loop is out of reach; its shard
        // stand-in supplies the queue and runtime rows.
        layer.pending.clone_from(&shard_ledger.pending);
        layer.slice_ns.clone_from(&shard_ledger.slice_ns);
        layer.run_until_ns = shard_ledger.run_until_ns;
        layer.finish_ns = shard_ledger.finish_ns;
        layer.remove_ns.clone_from(&shard_ledger.remove_ns);
        shard.events_processed()
    } else {
        traced_rep.outcome.events
    };

    ctx.tracer.open("probes");
    let mut hold = Vec::new();
    for (dname, depth) in probes::HOLD_DEPTHS {
        for (hname, horizon) in probes::HOLD_HORIZONS {
            let ns = probes::event_hold_ns(depth, horizon, seed);
            hold.push((format!("event.hold_ns.{dname}.{hname}"), ns));
        }
    }
    let full = FleetShape::at(Size::Full);
    let sketch_ns = probes::sketch_record_ns(seed);
    let place_ns = probes::fleet_place_ns(full, seed);
    let send_ns = probes::send_telemetry_ns(full, seed);
    ctx.tracer.close();

    let mut m = Metrics::new();
    let pending: Vec<f64> = layer.pending.iter().map(|&p| p as f64).collect();
    push(&mut m, "event.pending.p50", median(&pending), "count");
    push(
        &mut m,
        "event.pending.max",
        percentile(&pending, 100.0),
        "count",
    );
    for (name, ns) in &hold {
        push(&mut m, name, *ns, "ns");
    }
    ledger_metrics(&mut m, &layer, run_until_events, &traced_rep.outcome);
    push(&mut m, "stats.sketch_record_ns", sketch_ns, "ns");
    push(&mut m, "fleet.place_ns", place_ns, "ns");
    push(&mut m, "net.send_telemetry_ns", send_ns, "ns");
    if let Some(f) = fleet.as_ref().and_then(|o| o.fleet.as_ref()) {
        fleet_metrics(&mut m, f);
    }
    let defrag_ms = ms(&shard_ledger.defrag_ns);
    push(&mut m, "defrag.epoch_ms.p50", median(&defrag_ms), "ms");
    push(
        &mut m,
        "defrag.epoch_ms.p99",
        percentile(&defrag_ms, 99.0),
        "ms",
    );
    if let (Some(w2), Some(w1)) = (w2, w1) {
        let speedup = w1 / w2;
        push(&mut m, "shard.replay_s.w1", w1, "s");
        push(&mut m, "shard.replay_s.w2", w2, "s");
        push(&mut m, "shard.parallel_speedup", speedup, "ratio");
        // Amdahl on two workers: speedup = 1 / (f + (1 - f) / 2).
        push(
            &mut m,
            "shard.serial_fraction",
            2.0 / speedup - 1.0,
            "ratio",
        );
    }
    push(
        &mut m,
        "trace.overhead_ratio",
        traced_rep.replay_s / warm.replay_s,
        "ratio",
    );
    let own = ctx.tracer.self_seconds();
    for name in SELF_TIMED {
        push(
            &mut m,
            &format!("self_s.{name}"),
            own.get(name).copied().unwrap_or(0.0),
            "s",
        );
    }

    let run_id = format!(
        "{}-seed{}-pid{}-{}",
        w.name(),
        seed,
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis())
    );
    let path = args.out_dir.join(format!("spans-{run_id}.jsonl"));
    if let Err(e) = ctx.tracer.write_jsonl(&path, &run_id) {
        eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        checker.failed += 1;
    }
    let extra = format!(
        ", \"traced_digest\": \"{:016x}\", \"fleet_digests_agree\": {}, \"spans\": \"{}\"",
        traced_rep.outcome.digest(),
        fleet_checker.failed == 0,
        path.display(),
    );
    let lines = vec![check_line(args, &checker, &base, workers, &extra)];
    checker.merge(&fleet_checker);
    (
        lines,
        result_line(checker.failed == 0, checker.attempted, checker.failed, &m),
    )
}

/// The fleet, transport, defrag-count and export rows of the ledger.
fn fleet_metrics(m: &mut Metrics, f: &workloads::FleetOutcome) {
    let p = f.fleet.placement;
    push(m, "fleet.admitted", p.admitted as f64, "count");
    push(m, "fleet.spills", p.spills as f64, "count");
    push(m, "fleet.fallbacks", p.fallbacks as f64, "count");
    push(m, "fleet.rejections", p.rejections as f64, "count");
    push(m, "fleet.home_ratio", ratio(p.home, p.admitted), "ratio");
    let s = &f.net.stats;
    push(m, "net.telemetry_sent", s.telemetry.sent as f64, "count");
    push(
        m,
        "net.telemetry_dropped",
        s.telemetry.dropped as f64,
        "count",
    );
    push(
        m,
        "net.control_retransmits",
        s.control.retransmits as f64,
        "count",
    );
    let sent = s.control.sent + s.heartbeat.sent + s.telemetry.sent;
    let delivered = s.control.delivered + s.heartbeat.delivered + s.telemetry.delivered;
    push(m, "net.goodput", ratio(delivered, sent), "ratio");
    let d = &f.defrag;
    let skips = d.skipped_gain
        + d.skipped_guard
        + d.skipped_budget
        + d.skipped_cost
        + d.skipped_unplaceable;
    push(m, "defrag.cycles", d.cycles as f64, "count");
    push(m, "defrag.moves", d.moves as f64, "count");
    push(
        m,
        "defrag.move_ratio",
        ratio(d.moves, d.moves + skips),
        "ratio",
    );
    push(m, "shard.exports", f.exports as f64, "count");
}

/// The runtime and admission rows of the ledger.
fn ledger_metrics(m: &mut Metrics, layer: &Ledger, run_until_events: u64, outcome: &Outcome) {
    push(
        m,
        "runtime.ns_per_event",
        ratio(layer.run_until_ns, run_until_events),
        "ns",
    );
    let slices = ms(&layer.slice_ns);
    push(m, "runtime.slice_ms.p50", median(&slices), "ms");
    push(m, "runtime.slice_ms.p99", percentile(&slices, 99.0), "ms");
    push(m, "runtime.slice_samples", slices.len() as f64, "count");
    push(m, "runtime.finish_ms", layer.finish_ns as f64 / 1e6, "ms");
    push(m, "runtime.events", outcome.events as f64, "count");
    push(m, "runtime.frames", outcome.frames as f64, "count");
    push(
        m,
        "runtime.frames_dropped",
        outcome.frames_dropped as f64,
        "count",
    );
    let admits = us(&layer.admit_ns);
    push(m, "admission.admit_us.p50", median(&admits), "us");
    push(m, "admission.admit_us.p99", percentile(&admits, 99.0), "us");
    push(m, "admission.admits", admits.len() as f64, "count");
    push(m, "admission.rejected", layer.rejected as f64, "count");
    let removes = us(&layer.remove_ns);
    push(m, "admission.remove_us.p50", median(&removes), "us");
    push(
        m,
        "admission.remove_us.p99",
        percentile(&removes, 99.0),
        "us",
    );
    push(m, "admission.removes", removes.len() as f64, "count");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (lines, result) = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    for line in lines {
        println!("{line}");
    }
    println!("{result}");
    ExitCode::SUCCESS
}
