//! Network-chaos study (`repro --net`), feeding `BENCH_net.json`.
//!
//! One fleet — [`NET_CLUSTERS`] clusters in [`NET_REGIONS`] regions behind
//! the front door with the lossy-transport plane armed — replayed across
//! five link-condition tiers:
//!
//! * **loss tiers** `0 / 0.1 / 1 / 10 %`: every uplink degraded from the
//!   first instant ([`DegradedLink::lossy`]: 20 ms latency, 10 ms jitter,
//!   5 % reorder) at the tier's loss rate. Per-message loss draws compare
//!   one shared hash against the tier's threshold, so a higher tier drops
//!   a strict superset of a lower tier's messages — goodput and
//!   availability degrade monotonically by construction, and the committed
//!   artifact shows it.
//! * **flapping partitions**: staggered square-wave partitions longer than
//!   the detector's lease, so heartbeat silence produces *gray failures* —
//!   false-positive suspicions of perfectly alive clusters — which the
//!   resumed heartbeats then reconcile, stream for stream.
//!
//! Each tier reports the per-class conservation ledgers (`delivered +
//! dropped + gave_up == sent`, enforced), export goodput and frame-drop
//! rate, control retransmit overhead, detector false-positive counts and
//! rates, and suspicion-derived availability nines. Everything but the
//! wall-clock is simulated time.

#![expect(
    clippy::disallowed_methods,
    reason = "times the simulator itself; lands on host_ lines"
)]

use std::time::Instant;

use microedge_cluster::topology::ClusterBuilder;
use microedge_core::config::Features;
use microedge_core::net::{DegradedLink, LinkSchedule, LinkState, NetConfig, NetReport};
use microedge_core::runtime::StreamSpec;
use microedge_core::shard::{FleetReport, ShardedWorld};
use microedge_metrics::recovery::availability_nines;
use microedge_metrics::report::Table;
use microedge_sim::time::{SimDuration, SimTime};

use crate::artifact::{self, fixed};

/// Clusters in the chaos fleet (one uplink each).
pub const NET_CLUSTERS: u32 = 8;
/// Regions the fleet is partitioned into.
pub const NET_REGIONS: u32 = 2;
/// Pre-admitted exporting cameras (one per cluster, admitted at t = 0
/// through the front door).
pub const NET_EXPORT_STREAMS: u32 = NET_CLUSTERS;
/// Mid-run admissions whose deploy commands ride the control channel.
pub const NET_LATE_ADMITS: u32 = 6;
/// The loss tiers, parts per million: 0 %, 0.1 %, 1 %, 10 %.
pub const LOSS_TIERS_PPM: [u32; 4] = [0, 1_000, 10_000, 100_000];

/// First partition onset of the flapping tier.
pub const FLAP_FIRST: SimDuration = SimDuration::from_secs(4);
/// Down-phase length — longer than the 4 s lease, so every full window
/// starves the detector into a false positive.
pub const FLAP_DOWN: SimDuration = SimDuration::from_secs(6);
/// Up-phase length — long enough for reconciliation and a summary
/// refresh before the next window.
pub const FLAP_UP: SimDuration = SimDuration::from_secs(6);
/// Per-link onset stagger, so the fleet never loses every uplink at once.
pub const FLAP_STAGGER: SimDuration = SimDuration::from_millis(1_500);
/// Instant the flapping stops (every link healed), leaving the tail of
/// the run for the reconciler to close every suspicion span.
pub const FLAP_UNTIL: SimTime = SimTime::from_secs(18);

/// One link-condition tier of the study.
#[derive(Debug, Clone)]
pub struct NetChaosTier {
    /// Tier label (`"0%"` … `"10%"`, `"flapping"`).
    pub label: String,
    /// Loss rate of the degraded links, ppm (0 for the flapping tier:
    /// its links alternate healthy/partitioned instead).
    pub loss_ppm: u32,
    /// Fleet-tier counters of the run.
    pub report: FleetReport,
    /// Network-tier counters of the run.
    pub net: NetReport,
    /// Frames completed fleet-wide (deterministic work fingerprint).
    pub frames: u64,
    /// Simulation events processed.
    pub events: u64,
    /// Simulated run window the availability is measured over.
    pub window: SimDuration,
    /// Host wall-clock seconds for the tier (non-deterministic).
    pub host_wall_s: f64,
}

impl NetChaosTier {
    /// Fraction of frame exports that reached the aggregation peer.
    #[must_use]
    pub fn goodput(&self) -> f64 {
        self.net.stats.telemetry.delivery_fraction()
    }

    /// Fraction of frame exports lost on the wire.
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        1.0 - self.goodput()
    }

    /// Detector false positives per heartbeat sent.
    #[must_use]
    pub fn fp_rate(&self) -> f64 {
        self.net
            .detection
            .false_positive_rate(self.net.stats.heartbeat.sent)
    }

    /// Control retransmissions per logical control message.
    #[must_use]
    pub fn retransmit_overhead(&self) -> f64 {
        self.net.stats.control.retransmit_overhead()
    }

    /// Mean fraction of the window each cluster was *not* under
    /// suspicion.
    #[must_use]
    pub fn availability(&self) -> f64 {
        self.net.availability(self.window)
    }

    /// [`availability`](Self::availability) expressed as nines.
    #[must_use]
    pub fn nines(&self) -> f64 {
        availability_nines(self.availability())
    }
}

/// Frame budget of the pre-admitted exporting cameras (24 s at 15 FPS):
/// outlives the flapping, so every suspicion reconciles.
pub const NET_EXPORT_FRAMES: u64 = 360;

/// A schedule degrading every uplink from t = 0 at `loss_ppm`.
#[must_use]
pub fn loss_schedule(loss_ppm: u32) -> LinkSchedule {
    if loss_ppm == 0 {
        return LinkSchedule::scripted(Vec::new());
    }
    LinkSchedule::scripted(
        (0..NET_CLUSTERS)
            .map(|link| {
                (
                    SimTime::ZERO,
                    link,
                    LinkState::Degraded(DegradedLink::lossy(loss_ppm)),
                )
            })
            .collect(),
    )
}

/// The staggered square-wave partition schedule of the flapping tier.
#[must_use]
pub fn flapping_schedule() -> LinkSchedule {
    LinkSchedule::flapping(
        NET_CLUSTERS,
        SimTime::ZERO + FLAP_FIRST,
        FLAP_DOWN,
        FLAP_UP,
        FLAP_STAGGER,
        FLAP_UNTIL,
    )
}

/// Runs one tier: the standard fleet and workload under `schedule`, with
/// an explicit worker count (callers pin it for determinism checks; the
/// `repro` path passes the ambient `MICROEDGE_WORKERS` resolution).
///
/// # Panics
///
/// Panics if any class's conservation ledger fails to balance — the
/// invariant the whole transport is built around.
#[must_use]
pub fn run_net_tier(
    label: &str,
    loss_ppm: u32,
    schedule: LinkSchedule,
    workers: usize,
) -> NetChaosTier {
    let fleet = (0..NET_CLUSTERS).map(|_| ClusterBuilder::new().trpis(1).vrpis(4).build());
    let mut world = ShardedWorld::new(fleet, Features::all())
        .with_front_door(NET_REGIONS, 1)
        .with_network(NetConfig::new(schedule));
    for c in 0..NET_EXPORT_STREAMS {
        world.admit_global(
            SimTime::ZERO,
            c * NET_REGIONS / NET_CLUSTERS,
            StreamSpec::builder(&format!("cam-{c}"), "ssd-mobilenet-v2")
                .frame_limit(NET_EXPORT_FRAMES)
                .export_completions(true)
                .start_offset(SimDuration::from_millis(u64::from(c) * 997 % 1000))
                .build(),
        );
    }
    // Mid-run admissions: their deploy commands ride the (lossy) control
    // channel — delayed under degradation, retransmitted across flaps.
    for i in 0..NET_LATE_ADMITS {
        world.admit_global(
            SimTime::from_millis(2_000 + u64::from(i) * 400),
            i % NET_REGIONS,
            StreamSpec::builder(&format!("late-{i}"), "ssd-mobilenet-v2")
                .frame_limit(NET_EXPORT_FRAMES / 2)
                .build(),
        );
    }
    let start = Instant::now();
    let (results, report, net) = world.run_net_with_workers(SimTime::from_secs(60), workers);
    let host_wall_s = start.elapsed().as_secs_f64();
    assert_eq!(
        net.stats.conservation_violations(),
        0,
        "conservation violated in tier {label}: {:?}",
        net.stats
    );
    NetChaosTier {
        label: label.to_owned(),
        loss_ppm,
        report,
        frames: results.reports().iter().map(|r| r.completed()).sum(),
        events: results.events_processed(),
        window: SimDuration::from_nanos(results.end().as_nanos()),
        net,
        host_wall_s,
    }
}

/// Runs every tier: the four loss tiers, then the flapping-partition tier.
#[must_use]
pub fn run_net_chaos() -> Vec<NetChaosTier> {
    let workers = microedge_sim::par::worker_count(NET_CLUSTERS as usize);
    let mut tiers: Vec<NetChaosTier> = LOSS_TIERS_PPM
        .iter()
        .map(|&ppm| {
            let label = format!("{}%", ppm as f64 / 10_000.0);
            run_net_tier(&label, ppm, loss_schedule(ppm), workers)
        })
        .collect();
    tiers.push(run_net_tier("flapping", 0, flapping_schedule(), workers));
    tiers
}

// ───────────────────────── rendering ─────────────────────────

/// Renders the human table `repro --net` prints.
#[must_use]
pub fn render_net_chaos(tiers: &[NetChaosTier]) -> String {
    let mut table = Table::new(&[
        "tier",
        "goodput",
        "drop rate",
        "rtx/msg",
        "gave up",
        "false pos",
        "reconciled",
        "availability",
        "nines",
    ]);
    for t in tiers {
        table.row_owned(vec![
            t.label.clone(),
            format!("{:.4}", t.goodput()),
            format!("{:.4}", t.drop_rate()),
            format!("{:.3}", t.retransmit_overhead()),
            t.net.stats.control.gave_up.to_string(),
            t.net.detection.false_positives.to_string(),
            format!(
                "{}/{}",
                t.net.detection.reconciled_streams, t.net.detection.suspected_streams
            ),
            format!("{:.6}", t.availability()),
            format!("{:.2}", t.nines()),
        ]);
    }
    format!(
        "### Network chaos — QoS classes under degraded links \
         ({clusters} clusters, {exports} exporting cameras, {late} mid-run admissions)\n{table}",
        clusters = NET_CLUSTERS,
        exports = NET_EXPORT_STREAMS,
        late = NET_LATE_ADMITS,
    )
}

/// Renders the `BENCH_net.json` document.
#[must_use]
pub fn to_json(tiers: &[NetChaosTier]) -> String {
    artifact::document(|d| {
        d.str("benchmark", "net_chaos")
            .str(
                "workload",
                &format!(
                    "{NET_CLUSTERS} clusters / {NET_REGIONS} regions, {NET_EXPORT_STREAMS} exporting \
                     cameras + {NET_LATE_ADMITS} mid-run admissions; loss tiers {LOSS_TIERS_PPM:?} ppm \
                     + flapping partitions (down {down} s > lease)",
                    down = FLAP_DOWN.as_secs_f64(),
                ),
            )
            .rows("tiers", 6, tiers, |r, t| {
                let s = &t.net.stats;
                let d = &t.net.detection;
                r.str("tier", &t.label)
                    .num("loss_ppm", t.loss_ppm)
                    .br()
                    .obj("control", |o| {
                        o.num("sent", s.control.sent)
                            .num("delivered", s.control.delivered)
                            .num("dropped", s.control.dropped)
                            .num("gave_up", s.control.gave_up)
                            .num("retransmits", s.control.retransmits)
                            .num("shed", s.control.shed);
                    })
                    .br()
                    .obj("heartbeat", |o| {
                        o.num("sent", s.heartbeat.sent)
                            .num("delivered", s.heartbeat.delivered)
                            .num("dropped", s.heartbeat.dropped);
                    })
                    .br()
                    .obj("telemetry", |o| {
                        o.num("sent", s.telemetry.sent)
                            .num("delivered", s.telemetry.delivered)
                            .num("dropped", s.telemetry.dropped)
                            .num("reordered", s.telemetry.reordered);
                    })
                    .br()
                    .num("goodput", fixed(t.goodput(), 6))
                    .num("frame_drop_rate", fixed(t.drop_rate(), 6))
                    .num("retransmit_overhead", fixed(t.retransmit_overhead(), 6))
                    .br()
                    .num("detections", d.detections)
                    .num("false_positives", d.false_positives)
                    .num("fp_rate", fixed(t.fp_rate(), 6))
                    .num("reconciliations", d.reconciliations)
                    .num("suspected_streams", d.suspected_streams)
                    .num("reconciled_streams", d.reconciled_streams)
                    .br()
                    .num("stale_drains", t.net.stale_drains)
                    .num("stale_restores", t.net.stale_restores)
                    .num("admit_rejected", t.report.admit_rejected)
                    .num("conservation_violations", s.conservation_violations())
                    .br()
                    .num("availability", fixed(t.availability(), 6))
                    .num("nines", fixed(t.nines(), 3))
                    .num("frames", t.frames)
                    .num("events", t.events)
                    .host("wall_s", fixed(t.host_wall_s, 3));
            });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::strip_host_lines;

    #[test]
    fn loss_tiers_degrade_monotonically() {
        let zero = run_net_tier("0%", 0, loss_schedule(0), 2);
        let ten = run_net_tier("10%", 100_000, loss_schedule(100_000), 2);
        assert!((zero.goodput() - 1.0).abs() < f64::EPSILON);
        assert_eq!(zero.net.detection.false_positives, 0);
        assert!(ten.goodput() < 1.0);
        assert!(ten.net.stats.telemetry.dropped > 0);
        assert!(ten.availability() <= zero.availability());
    }

    #[test]
    fn flapping_tier_false_positives_and_reconciles() {
        let t = run_net_tier("flapping", 0, flapping_schedule(), 2);
        assert!(t.net.detection.false_positives > 0);
        assert!(t.net.detection.reconciliations > 0);
        assert_eq!(
            t.net.detection.reconciled_streams, t.net.detection.suspected_streams,
            "the reconciler must recover every suspected stream"
        );
        assert!(t.availability() < 1.0);
        assert!(t.nines() > 0.0);
    }

    #[test]
    fn net_json_keeps_wall_time_on_host_lines() {
        let tiers = vec![
            run_net_tier("0.1%", 1_000, loss_schedule(1_000), 1),
            run_net_tier("flapping", 0, flapping_schedule(), 1),
        ];
        let json = to_json(&tiers);
        assert!(json.contains("\"benchmark\": \"net_chaos\""));
        assert!(json.contains("\"conservation_violations\": 0"));
        assert!(json.ends_with("}\n"));
        assert_eq!(
            json.matches(['{', '[']).count(),
            json.matches(['}', ']']).count()
        );
        assert!(!strip_host_lines(&json).contains("wall"));
    }
}
