//! The three replay workloads. Each one generates its inputs from the seed,
//! builds and admits (`setup`), then replays to a returned `RunResults`
//! (`replay`). Only the generated inputs reach the program.

use std::collections::BTreeMap;

use microedge_bench::runner::{build_world, experiment_cluster, SystemConfig};
use microedge_bench::scale::size_cluster;
use microedge_bench::trace_study::fig6_configs;
use microedge_cluster::topology::ClusterBuilder;
use microedge_core::config::Features;
use microedge_core::defrag::DefragConfig;
use microedge_core::net::{DegradedLink, LinkSchedule, LinkState, NetConfig, NetReport};
use microedge_core::runtime::{RunResults, StreamId, StreamSpec, World, WorldCommand};
use microedge_core::shard::{FleetReport, ShardedWorld};
use microedge_sim::rng::DetRng;
use microedge_sim::time::{SimDuration, SimTime};
use microedge_workloads::apps::CameraApp;
use microedge_workloads::trace::{synthesize, TraceConfig};

use crate::digest::digest;
use crate::ledger::{Ctx, Slicer};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 6 trace study, all five configurations serially.
    Fig6Trace,
    /// One `World` of 100 000 one-FPS cameras, no churn.
    Serial100k,
    /// A sharded, fronted, lossy, defragmented fleet with churn.
    FleetChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig6Trace,
        Workload::Serial100k,
        Workload::FleetChurn,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig6Trace => "fig6_trace",
            Workload::Serial100k => "serial_100k",
            Workload::FleetChurn => "fleet_churn",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size, or the quick variant the self-tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Small enough for a self-test; same shapes, fewer cameras.
    Quick,
}

/// The deterministic outcome of one replay: the counters the digest covers,
/// plus the simulated end-to-end metrics and the ledgers that must balance.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Digest input, in a fixed order.
    pub fields: Vec<(&'static str, u64)>,
    /// Admitted ÷ attempted (the headline configuration on `fig6_trace`).
    pub admit_rate: f64,
    /// Simulated end-to-end frame latency p99, ms (same scope).
    pub frame_p99_ms: f64,
    /// Events delivered, over every world of the replay.
    pub events: u64,
    /// Frames completed.
    pub frames: u64,
    /// Frames dropped.
    pub frames_dropped: u64,
    /// Conservation-ledger violations; any is a failed run.
    pub violations: u64,
    /// Fleet-tier reports, for the sharded workload.
    pub fleet: Option<FleetOutcome>,
}

/// The fleet, network and defrag reports of a sharded replay.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Front-door and failover counters.
    pub fleet: FleetReport,
    /// Transport ledgers and detector counters.
    pub net: NetReport,
    /// Defragmenter counters merged over shards.
    pub defrag: microedge_metrics::defrag::DefragStats,
    /// Frame exports delivered across shards.
    pub exports: u64,
}

impl Outcome {
    /// The output digest.
    pub fn digest(&self) -> u64 {
        digest(&self.fields)
    }
}

fn results_fields(fields: &mut Vec<(&'static str, u64)>, results: &RunResults) {
    let reports = results.reports();
    fields.push(("streams", reports.len() as u64));
    fields.push(("emitted", reports.iter().map(|r| r.emitted()).sum()));
    fields.push(("completed", reports.iter().map(|r| r.completed()).sum()));
    fields.push(("dropped", results.frames_dropped()));
    fields.push(("events", results.events_processed()));
    fields.push(("end_ns", results.end().as_nanos()));
    fields.push(("frame_p99", frame_p99_ms(results).to_bits()));
    fields.push(("frame_mean", results.breakdowns().mean_total_ms().to_bits()));
    fields.push(("commands_failed", results.commands_failed()));
}

fn frame_p99_ms(results: &RunResults) -> f64 {
    results
        .breakdowns()
        .total_percentile_ms(99.0)
        .unwrap_or(0.0)
}

fn completed(results: &RunResults) -> u64 {
    results.reports().iter().map(|r| r.completed()).sum()
}

/// A one-FPS ssd-mobilenet-v2 camera, the scale tiers' stream.
fn camera(name: &str, frames: u64, offset_ms: u64) -> microedge_core::runtime::StreamSpecBuilder {
    StreamSpec::builder(name, "ssd-mobilenet-v2")
        .fps(1.0)
        .frame_limit(frames)
        .start_offset(SimDuration::from_millis(offset_ms))
}

// ---------------------------------------------------------------- fig6_trace

#[derive(Debug, Clone, Copy)]
enum Action {
    Arrive { seq: u32, app: usize },
    Depart { seq: u32 },
}

/// The Fig. 6 trace study, set up: the merged arrival/departure timeline
/// and one world per configuration.
pub struct Fig6 {
    actions: Vec<(SimTime, Action)>,
    end: SimTime,
    worlds: Vec<(SystemConfig, World)>,
}

/// TPUs of the Fig. 6 cluster.
const FIG6_TPUS: u32 = 6;

fn fig6_trace_config(size: Size) -> TraceConfig {
    let mut cfg = TraceConfig::microedge_downsized();
    cfg.duration = match size {
        Size::Full => SimDuration::from_secs(6 * 3600),
        Size::Quick => SimDuration::from_secs(20 * 60),
    };
    cfg
}

impl Fig6 {
    /// Synthesises the trace for `seed` and builds the five worlds.
    pub fn setup(seed: u64, size: Size, ctx: &mut Ctx) -> Fig6 {
        ctx.tracer.open("inputs");
        let cfg = fig6_trace_config(size);
        let trace = synthesize(&cfg, seed);
        let mut actions = Vec::new();
        for ev in &trace {
            let app = ev.class.app_index();
            actions.push((ev.at, Action::Arrive { seq: ev.seq, app }));
            if let Some(lifetime) = ev.lifetime {
                actions.push((ev.at + lifetime, Action::Depart { seq: ev.seq }));
            }
        }
        // Departures before arrivals at one instant, as the study orders them.
        actions.sort_by_key(|&(at, a)| (at, matches!(a, Action::Arrive { .. })));
        ctx.tracer.close();
        ctx.tracer.open("build");
        let worlds = fig6_configs()
            .into_iter()
            .map(|c| (c, build_world(experiment_cluster(FIG6_TPUS), c)))
            .collect();
        ctx.tracer.close();
        Fig6 {
            actions,
            end: SimTime::ZERO + cfg.duration,
            worlds,
        }
    }

    /// Hash of the generated inputs.
    pub fn inputs_digest(&self) -> u64 {
        let mut fields: Vec<(&str, u64)> = Vec::new();
        for (at, action) in &self.actions {
            match action {
                Action::Arrive { seq, app } => fields.extend([
                    ("arrive", at.as_nanos()),
                    ("seq", u64::from(*seq)),
                    ("app", *app as u64),
                ]),
                Action::Depart { seq } => {
                    fields.extend([("depart", at.as_nanos()), ("seq", u64::from(*seq))]);
                }
            }
        }
        digest(&fields)
    }

    /// The cluster shape, which no seed changes.
    pub fn shape(&self) -> String {
        format!("configs={} tpus={FIG6_TPUS}", self.worlds.len())
    }

    /// Replays the trace through every configuration, serially.
    pub fn replay(self, ctx: &mut Ctx) -> Vec<Fig6Run> {
        let apps = CameraApp::trace_apps();
        let mut runs = Vec::with_capacity(self.worlds.len());
        for (config, mut world) in self.worlds {
            let mut slicer = Slicer::new();
            let mut live: BTreeMap<u32, StreamId> = BTreeMap::new();
            let (mut admitted, mut rejected) = (0u64, 0u64);
            for &(at, action) in &self.actions {
                if at >= self.end {
                    break;
                }
                ctx.advance(&mut world, &mut slicer, at);
                match action {
                    Action::Arrive { seq, app } => {
                        let app = &apps[app];
                        let spec =
                            StreamSpec::builder(&format!("trace-{seq}"), app.model().as_str())
                                .fps(app.fps())
                                .units(app.units())
                                .collocated(config.collocated())
                                .build();
                        match ctx.admit(|| world.admit_stream(spec)) {
                            Ok(id) => {
                                live.insert(seq, id);
                                admitted += 1;
                            }
                            Err(_) => rejected += 1,
                        }
                    }
                    Action::Depart { seq } => {
                        if let Some(id) = live.remove(&seq) {
                            ctx.remove(|| world.remove_stream(id))
                                .expect("live stream can be removed");
                        }
                    }
                }
            }
            ctx.advance(&mut world, &mut slicer, self.end);
            let end = self.end;
            let (results, served) = ctx.finish(|| world.finish_with_served_series(end));
            runs.push(Fig6Run {
                results,
                served,
                admitted,
                rejected,
            });
        }
        runs
    }
}

/// One configuration's replay of the trace.
pub struct Fig6Run {
    results: RunResults,
    served: Vec<f64>,
    admitted: u64,
    rejected: u64,
}

/// Summarises the five replays; the first configuration is the headline.
pub fn fig6_outcome(runs: &[Fig6Run]) -> Outcome {
    let mut fields = Vec::new();
    for run in runs {
        fields.push(("admitted", run.admitted));
        fields.push(("rejected", run.rejected));
        fields.push(("served_sum", run.served.iter().sum::<f64>().to_bits()));
        fields.push((
            "util_sum",
            run.results
                .windowed_utilization()
                .iter()
                .sum::<f64>()
                .to_bits(),
        ));
        results_fields(&mut fields, &run.results);
    }
    let head = &runs[0];
    Outcome {
        fields,
        admit_rate: head.admitted as f64 / (head.admitted + head.rejected) as f64,
        frame_p99_ms: frame_p99_ms(&head.results),
        events: runs.iter().map(|r| r.results.events_processed()).sum(),
        frames: runs.iter().map(|r| completed(&r.results)).sum(),
        frames_dropped: runs.iter().map(|r| r.results.frames_dropped()).sum(),
        violations: 0,
        fleet: None,
    }
}

// --------------------------------------------------------------- serial_100k

/// Frames each `serial_100k` camera emits.
const SERIAL_FRAMES: u64 = 10;

fn serial_cameras(size: Size) -> u64 {
    match size {
        Size::Full => 100_000,
        Size::Quick => 2_000,
    }
}

/// The serial tier, set up: every camera admitted to one world.
pub struct Serial {
    world: World,
    offsets_ms: Vec<u64>,
    tpus: u32,
    vrpis: u32,
    ids: Vec<StreamId>,
}

impl Serial {
    /// Sizes the cluster as `scale::size_cluster` does and admits every
    /// camera, at seeded start offsets within the first second.
    pub fn setup(seed: u64, size: Size, ctx: &mut Ctx) -> Serial {
        let cameras = serial_cameras(size);
        ctx.tracer.open("inputs");
        let mut rng = DetRng::seed_from(seed);
        let offsets_ms: Vec<u64> = (0..cameras).map(|_| rng.uniform_range(0, 1000)).collect();
        let specs: Vec<StreamSpec> = offsets_ms
            .iter()
            .enumerate()
            .map(|(i, &off)| camera(&format!("cam-{i}"), SERIAL_FRAMES, off).build())
            .collect();
        ctx.tracer.close();
        ctx.tracer.open("build");
        let (tpus, vrpis) = size_cluster(cameras);
        let cluster = ClusterBuilder::new().trpis(tpus).vrpis(vrpis).build();
        let mut world = World::new(cluster, Features::all());
        ctx.tracer.close();
        let mut ids = Vec::with_capacity(specs.len());
        for spec in specs {
            let id = ctx
                .admit(|| world.admit_stream(spec))
                .expect("the cluster is sized for every camera");
            ids.push(id);
        }
        Serial {
            world,
            offsets_ms,
            tpus,
            vrpis,
            ids,
        }
    }

    /// Cameras admitted.
    pub fn cameras(&self) -> u64 {
        self.offsets_ms.len() as u64
    }

    /// Hash of the generated inputs.
    pub fn inputs_digest(&self) -> u64 {
        let fields: Vec<(&str, u64)> = self.offsets_ms.iter().map(|&o| ("offset", o)).collect();
        digest(&fields)
    }

    /// The cluster shape, which no seed changes.
    pub fn shape(&self) -> String {
        format!(
            "cameras={} tpus={} vrpis={}",
            self.offsets_ms.len(),
            self.tpus,
            self.vrpis
        )
    }

    /// Removes every tenth camera before any replay: the admission index's
    /// removal cost at full occupancy, for the traced run's ledger (the
    /// replay itself has no removals).
    pub fn teardown_tenth(mut self, ctx: &mut Ctx) {
        for &id in self.ids.iter().step_by(10) {
            ctx.remove(|| self.world.remove_stream(id))
                .expect("admitted camera can be removed");
        }
    }

    /// Replays every frame and finalises.
    pub fn replay(self, ctx: &mut Ctx) -> RunResults {
        let deadline = SimTime::from_secs(SERIAL_FRAMES + 3);
        ctx.run_to_completion(self.world, deadline)
    }
}

/// Summarises the serial replay.
pub fn serial_outcome(results: &RunResults, cameras: u64) -> Outcome {
    let mut fields = Vec::new();
    results_fields(&mut fields, results);
    Outcome {
        fields,
        admit_rate: results.reports().len() as f64 / cameras as f64,
        frame_p99_ms: frame_p99_ms(results),
        events: results.events_processed(),
        frames: completed(results),
        frames_dropped: results.frames_dropped(),
        violations: 0,
        fleet: None,
    }
}

// --------------------------------------------------------------- fleet_churn

/// The shape of a churned fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetShape {
    /// Clusters, one shard each.
    pub clusters: u32,
    /// Cameras pre-admitted per cluster, which is sized for exactly them.
    pub per_cluster: u64,
    /// Front-door regions (contiguous runs of clusters).
    pub regions: u32,
}

impl FleetShape {
    /// The shape at `size`: 100k cameras over 50 clusters in 10 regions, or
    /// a tenth of the clusters with the same per-region shape.
    pub fn at(size: Size) -> FleetShape {
        match size {
            Size::Full => FleetShape {
                clusters: 50,
                per_cluster: 2_000,
                regions: 10,
            },
            Size::Quick => FleetShape {
                clusters: 5,
                per_cluster: 500,
                regions: 1,
            },
        }
    }

    /// Pre-admitted cameras.
    pub fn cameras(self) -> u64 {
        u64::from(self.clusters) * self.per_cluster
    }
}

/// Frames each pre-admitted fleet camera emits.
const FLEET_FRAMES: u64 = 20;
/// Frames each mid-run arrival emits.
const FLEET_LATE_FRAMES: u64 = 10;
/// Every this-many-th camera of a cluster exports its completions.
const EXPORT_STRIDE: u64 = 8;
/// Share of pre-admitted cameras removed mid-run.
const REMOVE_SHARE: f64 = 0.2;
/// Mid-run arrivals per pre-admitted camera (one in ten).
const ARRIVAL_STRIDE: u64 = 10;
/// Loss on every uplink, parts per million (1 %).
const LOSS_PPM: u32 = 10_000;
/// Window of simulated time in which removals and arrivals fall.
const CHURN_WINDOW: (u64, u64) = (1_000, 16_000);
/// Replay deadline; the fleet drains well before it.
const FLEET_DEADLINE: SimTime = SimTime::from_secs(60);
/// Worker threads of the measured fleet replay.
pub const FLEET_WORKERS: usize = 2;

/// The churned fleet's generated inputs.
#[derive(Debug, Clone)]
pub struct FleetInputs {
    shape: FleetShape,
    seed: u64,
    /// Start offset (ms) and removal instant (if removed) of each
    /// pre-admitted camera, cluster-major.
    cameras: Vec<(u64, Option<SimTime>)>,
    /// Instant and home region of each mid-run arrival.
    arrivals: Vec<(SimTime, u32)>,
}

impl FleetInputs {
    /// Draws the churn for `seed`.
    pub fn generate(shape: FleetShape, seed: u64) -> FleetInputs {
        let mut rng = DetRng::seed_from(seed);
        let (lo, hi) = CHURN_WINDOW;
        let cameras = (0..shape.cameras())
            .map(|_| {
                let offset = rng.uniform_range(0, 1000);
                let removed = rng
                    .chance(REMOVE_SHARE)
                    .then(|| SimTime::from_millis(rng.uniform_range(lo, hi)));
                (offset, removed)
            })
            .collect();
        let arrivals = (0..shape.cameras() / ARRIVAL_STRIDE)
            .map(|_| {
                let at = SimTime::from_millis(rng.uniform_range(lo, hi));
                // Skewed toward the low regions (region r draws a share
                // of sqrt((r+1)/R) - sqrt(r/R)), so the busiest homes fill
                // and the front door spills and falls back.
                let u = rng.uniform_f64();
                let home = (f64::from(shape.regions) * u * u) as u32;
                (at, home.min(shape.regions - 1))
            })
            .collect();
        FleetInputs {
            shape,
            seed,
            cameras,
            arrivals,
        }
    }

    /// Start offset (ms) and removal instant of each pre-admitted camera.
    pub fn cameras(&self) -> &[(u64, Option<SimTime>)] {
        &self.cameras
    }

    /// Instant and home region of each mid-run arrival.
    pub fn arrivals(&self) -> &[(SimTime, u32)] {
        &self.arrivals
    }

    /// Hash of the generated inputs.
    pub fn digest(&self) -> u64 {
        let mut fields: Vec<(&str, u64)> = Vec::new();
        for &(offset, removed) in &self.cameras {
            fields.push(("offset", offset));
            fields.push(("removed", removed.map_or(u64::MAX, SimTime::as_nanos)));
        }
        for &(at, home) in &self.arrivals {
            fields.push(("arrival", at.as_nanos()));
            fields.push(("home", u64::from(home)));
        }
        digest(&fields)
    }

    /// The fleet shape, which no seed changes.
    pub fn shape(&self) -> String {
        let (tpus, vrpis) = size_cluster(self.shape.per_cluster);
        format!(
            "clusters={} regions={} cameras={} tpus_per_cluster={tpus} vrpis_per_cluster={vrpis}",
            self.shape.clusters,
            self.shape.regions,
            self.shape.cameras()
        )
    }

    /// The per-camera spec of pre-admitted camera `i` of its cluster.
    pub fn camera_spec(cluster: u32, i: u64, offset_ms: u64) -> StreamSpec {
        camera(&format!("cam-{cluster}-{i}"), FLEET_FRAMES, offset_ms)
            .export_completions(i.is_multiple_of(EXPORT_STRIDE))
            .build()
    }

    /// The spec of mid-run arrival `i`.
    pub fn arrival_spec(i: usize) -> StreamSpec {
        camera(&format!("late-{i}"), FLEET_LATE_FRAMES, 0).build()
    }
}

/// Every uplink 1 % lossy from the start.
pub fn lossy_links(links: u32) -> LinkSchedule {
    LinkSchedule::scripted(
        (0..links)
            .map(|link| {
                (
                    SimTime::ZERO,
                    link,
                    LinkState::Degraded(DegradedLink::lossy(LOSS_PPM)),
                )
            })
            .collect(),
    )
}

/// The churned fleet, set up: pre-admitted, with removals in the command
/// mailbox and arrivals queued at the front door.
pub struct Fleet {
    world: ShardedWorld,
    attempted: u64,
}

impl Fleet {
    /// Builds the fleet for `inputs` and performs every pre-run admission.
    pub fn setup(inputs: &FleetInputs, ctx: &mut Ctx) -> Fleet {
        let shape = inputs.shape;
        ctx.tracer.open("inputs");
        let specs: Vec<StreamSpec> = inputs
            .cameras
            .iter()
            .enumerate()
            .map(|(k, &(offset, _))| {
                let cluster = u32::try_from(k as u64 / shape.per_cluster).expect("fits u32");
                FleetInputs::camera_spec(cluster, k as u64 % shape.per_cluster, offset)
            })
            .collect();
        ctx.tracer.close();
        ctx.tracer.open("build");
        let (tpus, vrpis) = size_cluster(shape.per_cluster);
        let clusters =
            (0..shape.clusters).map(|_| ClusterBuilder::new().trpis(tpus).vrpis(vrpis).build());
        let mut world = ShardedWorld::new(clusters, Features::all())
            .with_front_door(shape.regions, 1)
            .with_network(NetConfig::new(lossy_links(shape.clusters)).with_seed(inputs.seed));
        world.enable_defrag(DefragConfig::default());
        ctx.tracer.close();
        for (k, (spec, &(_, removed))) in specs.into_iter().zip(&inputs.cameras).enumerate() {
            let shard = u32::try_from(k as u64 / shape.per_cluster).expect("fits u32");
            let id = ctx
                .admit(|| world.admit_stream(shard, spec))
                .expect("each cluster is sized for its cameras");
            if let Some(at) = removed {
                world.schedule_command(at, shard, WorldCommand::Remove(id.local));
            }
        }
        for (i, &(at, home)) in inputs.arrivals.iter().enumerate() {
            world.admit_global(at, home, FleetInputs::arrival_spec(i));
        }
        Fleet {
            world,
            attempted: shape.cameras() + inputs.arrivals.len() as u64,
        }
    }

    /// Replays the fleet on `workers` threads, through the merge.
    pub fn replay(self, workers: usize, ctx: &mut Ctx) -> FleetRun {
        let (reports, _) = ctx.call("sharded_run", || {
            self.world.run_net_with_workers(FLEET_DEADLINE, workers)
        });
        FleetRun {
            results: reports.0,
            fleet: reports.1,
            net: reports.2,
            attempted: self.attempted,
        }
    }
}

/// A finished fleet replay.
pub struct FleetRun {
    results: RunResults,
    fleet: FleetReport,
    net: NetReport,
    attempted: u64,
}

const CONTROL_FIELDS: [&str; 7] = [
    "control_sent",
    "control_delivered",
    "control_dropped",
    "control_gave_up",
    "control_retransmits",
    "control_shed",
    "control_reordered",
];
const HEARTBEAT_FIELDS: [&str; 7] = [
    "heartbeat_sent",
    "heartbeat_delivered",
    "heartbeat_dropped",
    "heartbeat_gave_up",
    "heartbeat_retransmits",
    "heartbeat_shed",
    "heartbeat_reordered",
];
const TELEMETRY_FIELDS: [&str; 7] = [
    "telemetry_sent",
    "telemetry_delivered",
    "telemetry_dropped",
    "telemetry_gave_up",
    "telemetry_retransmits",
    "telemetry_shed",
    "telemetry_reordered",
];

/// Summarises a fleet replay.
pub fn fleet_outcome(run: &FleetRun) -> Outcome {
    let mut fields = Vec::new();
    results_fields(&mut fields, &run.results);
    let exports = run.results.remote_ingest().count();
    fields.push(("exports", exports));
    let p = run.fleet.placement;
    fields.extend([
        ("place_admitted", p.admitted),
        ("place_home", p.home),
        ("place_spills", p.spills),
        ("place_fallbacks", p.fallbacks),
        ("place_rejections", p.rejections),
        ("admit_rejected", run.fleet.admit_rejected),
        ("evacuated", run.fleet.evacuated),
        ("readmitted", run.fleet.readmitted),
        ("unplaced", run.fleet.unplaced),
    ]);
    let s = &run.net.stats;
    for (names, c) in [
        (CONTROL_FIELDS, &s.control),
        (HEARTBEAT_FIELDS, &s.heartbeat),
        (TELEMETRY_FIELDS, &s.telemetry),
    ] {
        let values = [
            c.sent,
            c.delivered,
            c.dropped,
            c.gave_up,
            c.retransmits,
            c.shed,
            c.reordered,
        ];
        fields.extend(names.into_iter().zip(values));
    }
    let d = &run.net.detection;
    fields.extend([
        ("detections", d.detections),
        ("false_positives", d.false_positives),
        ("reconciliations", d.reconciliations),
        ("stale_drains", run.net.stale_drains),
        ("conservation_violations", s.conservation_violations()),
    ]);
    let g = run.results.defrag();
    fields.extend([
        ("defrag_cycles", g.cycles),
        ("defrag_moves", g.moves),
        ("defrag_pods", g.pods_migrated),
        ("defrag_units", g.units_recovered_micro),
        ("defrag_disruption", g.disruption_ns),
        ("skip_gain", g.skipped_gain),
        ("skip_guard", g.skipped_guard),
        ("skip_budget", g.skipped_budget),
        ("skip_cost", g.skipped_cost),
        ("skip_unplaceable", g.skipped_unplaceable),
    ]);
    Outcome {
        fields,
        admit_rate: run.results.reports().len() as f64 / run.attempted as f64,
        frame_p99_ms: frame_p99_ms(&run.results),
        events: run.results.events_processed(),
        frames: completed(&run.results),
        frames_dropped: run.results.frames_dropped(),
        violations: s.conservation_violations(),
        fleet: Some(FleetOutcome {
            fleet: run.fleet,
            net: run.net.clone(),
            defrag: g.clone(),
            exports,
        }),
    }
}
