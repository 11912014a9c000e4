//! Property tests for the lossy-transport plane: under random link
//! schedules and workloads, every message class must balance its
//! conservation ledger — control commands are delivered exactly once or
//! end in a typed give-up, frame exports arrive once or are counted as
//! drops, nothing is ever silently lost — and the whole lossy replay must
//! stay byte-identical at every `MICROEDGE_WORKERS` value.

use proptest::prelude::*;

use microedge::cluster::topology::ClusterBuilder;
use microedge::core::config::Features;
use microedge::core::net::{DegradedLink, LinkSchedule, LinkState, NetConfig};
use microedge::core::runtime::{RunResults, StreamSpec, WorldCommand};
use microedge::core::shard::{FleetReport, ShardedWorld};
use microedge::core::NetReport;
use microedge::sim::time::{SimDuration, SimTime};
use microedge::workloads::apps::CameraApp;

/// One randomly drawn camera.
#[derive(Debug, Clone)]
struct Cam {
    app: usize,
    frame_limit: u64,
    offset_ms: u64,
    export: bool,
}

fn cam_strategy() -> impl Strategy<Value = Cam> {
    (0..3usize, 1u64..5, 0u64..900, prop::bool::ANY).prop_map(
        |(app, frame_limit, offset_ms, export)| Cam {
            app,
            frame_limit,
            offset_ms,
            export,
        },
    )
}

/// One randomly drawn link-state transition.
#[derive(Debug, Clone)]
struct LinkFlip {
    at_ms: u64,
    link: u32,
    state: u8,
    loss_ppm: u32,
}

fn flip_strategy() -> impl Strategy<Value = LinkFlip> {
    const LOSS_TIERS: [u32; 4] = [1_000, 10_000, 100_000, 300_000];
    (0u64..20_000, 0u32..4, 0u8..3, 0usize..LOSS_TIERS.len()).prop_map(
        |(at_ms, link, state, tier)| LinkFlip {
            at_ms,
            link,
            state,
            loss_ppm: LOSS_TIERS[tier],
        },
    )
}

/// A mid-run admission riding the control channel.
#[derive(Debug, Clone)]
struct LateAdmit {
    at_ms: u64,
    shard: u32,
    cam: Cam,
}

fn late_strategy() -> impl Strategy<Value = LateAdmit> {
    (500u64..10_000, 0u32..4, cam_strategy()).prop_map(|(at_ms, shard, cam)| LateAdmit {
        at_ms,
        shard,
        cam,
    })
}

/// A full workload: per-shard cameras, link flips, late admissions, seed.
type Workload = (Vec<Vec<Cam>>, Vec<LinkFlip>, Vec<LateAdmit>, u64);

fn workload_strategy() -> impl Strategy<Value = Workload> {
    (
        prop::collection::vec(prop::collection::vec(cam_strategy(), 1..4), 2..4),
        prop::collection::vec(flip_strategy(), 0..8),
        prop::collection::vec(late_strategy(), 1..5),
        0u64..u64::MAX,
    )
}

fn spec_for(tag: &str, idx: usize, cam: &Cam) -> StreamSpec {
    let app = &CameraApp::trace_apps()[cam.app];
    StreamSpec::builder(&format!("net-{tag}-{idx}"), app.model().as_str())
        .units(app.units())
        .fps(app.fps())
        .frame_limit(cam.frame_limit)
        .start_offset(SimDuration::from_millis(cam.offset_ms))
        .export_completions(cam.export)
        .build()
}

/// Builds and runs the lossy replay; returns the run plus the count of
/// pre-run admissions each shard accepted.
fn run_lossy(
    shards: &[Vec<Cam>],
    flips: &[LinkFlip],
    late: &[LateAdmit],
    seed: u64,
    workers: usize,
) -> (RunResults, FleetReport, NetReport, u64) {
    let n = u32::try_from(shards.len()).expect("shard count fits u32");
    let clusters: Vec<_> = shards
        .iter()
        .map(|_| ClusterBuilder::new().trpis(2).vrpis(8).build())
        .collect();
    let schedule = LinkSchedule::scripted(
        flips
            .iter()
            .map(|f| {
                let state = match f.state {
                    0 => LinkState::Healthy,
                    1 => LinkState::Degraded(DegradedLink::lossy(f.loss_ppm)),
                    _ => LinkState::Partitioned,
                };
                (SimTime::from_millis(f.at_ms), f.link % n, state)
            })
            .collect(),
    );
    let mut world = ShardedWorld::new(clusters, Features::all())
        .with_network(NetConfig::new(schedule).with_seed(seed));
    let mut accepted = 0u64;
    for (shard, cams) in shards.iter().enumerate() {
        for (idx, cam) in cams.iter().enumerate() {
            if world
                .admit_stream(
                    u32::try_from(shard).expect("shard index fits u32"),
                    spec_for("pre", idx, cam),
                )
                .is_ok()
            {
                accepted += 1;
            }
        }
    }
    for (idx, l) in late.iter().enumerate() {
        world.schedule_command(
            SimTime::from_millis(l.at_ms),
            l.shard % n,
            WorldCommand::Admit(Box::new(spec_for("late", idx, &l.cam))),
        );
    }
    let (results, fleet, net) = world.run_net_with_workers(SimTime::from_secs(120), workers);
    (results, fleet, net, accepted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The conservation law holds for every class under any link trace:
    /// `delivered + dropped + gave_up == sent`, sheds are a subset of the
    /// give-ups, and a delivered control command executes exactly once —
    /// the stream count proves no duplication and no silent loss.
    #[test]
    fn every_class_conserves_messages((shards, flips, late, seed) in workload_strategy()) {
        let (results, _, net, accepted) = run_lossy(&shards, &flips, &late, seed, 2);
        prop_assert_eq!(
            net.stats.conservation_violations(), 0,
            "unbalanced ledgers: {:?}", net.stats
        );
        // Control: every submitted command resolved, one way or the other.
        let c = net.stats.control;
        prop_assert_eq!(c.sent, late.len() as u64);
        prop_assert_eq!(c.delivered + c.gave_up, c.sent);
        // Exactly-once: each delivered admission either created a stream
        // incarnation or was refused by the destination's admission
        // control — never both, never twice.
        prop_assert_eq!(
            results.reports().len() as u64,
            accepted + c.delivered - results.commands_failed(),
            "delivered commands must map 1:1 onto admissions"
        );
        // Telemetry: best-effort, never retransmitted.
        prop_assert_eq!(net.stats.telemetry.retransmits, 0);
        prop_assert_eq!(net.stats.telemetry.gave_up, 0);
    }

    /// The lossy replay is byte-identical across `MICROEDGE_WORKERS`
    /// ∈ {1, 2, 8}, network report included.
    #[test]
    fn lossy_replay_is_worker_invariant((shards, flips, late, seed) in workload_strategy()) {
        let (r, f, n, _) = run_lossy(&shards, &flips, &late, seed, 1);
        let oracle = format!("{r:?}|{f:?}|{n:?}");
        for workers in [2usize, 8] {
            let (r, f, n, _) = run_lossy(&shards, &flips, &late, seed, workers);
            let digest = format!("{r:?}|{f:?}|{n:?}");
            prop_assert_eq!(&oracle, &digest, "lossy replay diverged at {} workers", workers);
        }
    }
}
