//! Property tests for the sharded replay: random mixed-model workloads —
//! with fault injection riding the cross-shard command path — must produce
//! byte-identical results at every `MICROEDGE_WORKERS` value, and the
//! sharding machinery itself must be invisible: a one-shard replay of a
//! command-free workload is indistinguishable from the plain `World` it
//! wraps. A fixed composed fleet — front door, lossy uplinks, churn,
//! exports and the defragmenter all armed at once — is held to the same
//! worker-count invariance.
//!
//! The two oracles are deliberately split. Worker-count invariance holds
//! unconditionally (workers only change which thread steps a shard, never
//! what the shard observes). The plain-`World` oracle is stated for
//! command-free workloads because command-delivered faults consume event
//! sequence numbers that `World::inject_faults` does not, so the two paths
//! legally diverge in tie-breaking order at identical timestamps.

use proptest::prelude::*;

use microedge::cluster::topology::ClusterBuilder;
use microedge::core::config::Features;
use microedge::core::defrag::DefragConfig;
use microedge::core::faults::{ClassRates, FaultModel, FaultSchedule};
use microedge::core::net::{DegradedLink, LinkSchedule, LinkState, NetConfig, NetReport};
use microedge::core::runtime::{RunResults, StreamSpec, World, WorldCommand};
use microedge::core::shard::{FleetReport, ShardedWorld};
use microedge::core::units::TpuUnits;
use microedge::sim::time::{SimDuration, SimTime};
use microedge::workloads::apps::CameraApp;

/// One randomly drawn camera: which trace app it runs, how many frames it
/// emits, when it starts, and whether its completions export cross-shard.
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

/// A full workload: per-shard camera lists (2–3 shards, 1–5 cameras each)
/// plus a fault-schedule seed.
fn workload_strategy() -> impl Strategy<Value = (Vec<Vec<Cam>>, u64)> {
    (
        prop::collection::vec(prop::collection::vec(cam_strategy(), 1..5), 2..4),
        0u64..u64::MAX,
    )
}

fn spec_for(shard: usize, idx: usize, cam: &Cam) -> StreamSpec {
    let app = &CameraApp::trace_apps()[cam.app];
    StreamSpec::builder(&format!("prop-{shard}-{idx}"), app.model().as_str())
        .units(app.units())
        .fps(app.fps())
        .frame_limit(cam.frame_limit)
        .start_offset(SimDuration::from_millis(cam.offset_ms))
        .export_completions(cam.export)
        .build()
}

/// Builds the sharded world for a workload, optionally arming each shard
/// with a generated fault schedule, and runs it at `workers`.
fn run_sharded(shards: &[Vec<Cam>], fault_seed: Option<u64>, workers: usize) -> RunResults {
    let clusters: Vec<_> = shards
        .iter()
        .map(|_| ClusterBuilder::new().trpis(2).vrpis(8).build())
        .collect();
    let mut world = ShardedWorld::new(clusters, Features::all());
    for (shard, cams) in shards.iter().enumerate() {
        for (idx, cam) in cams.iter().enumerate() {
            // Refusals are part of the workload: both replays being compared
            // see the identical admission sequence either way.
            let _ = world.admit_stream(
                u32::try_from(shard).expect("shard index fits u32"),
                spec_for(shard, idx, cam),
            );
        }
    }
    if let Some(seed) = fault_seed {
        let model = FaultModel {
            tpu: Some(ClassRates::new(
                SimDuration::from_secs(20),
                SimDuration::from_secs(4),
            )),
            node: None,
            link: None,
        };
        for shard in 0..u32::try_from(shards.len()).expect("shard count fits u32") {
            let cluster = ClusterBuilder::new().trpis(2).vrpis(8).build();
            let schedule = FaultSchedule::generate(
                &model,
                &cluster,
                SimTime::from_secs(30),
                seed ^ u64::from(shard),
            );
            world.inject_faults(shard, &schedule);
        }
    }
    world
        .run_net_with_workers(SimTime::from_secs(120), workers)
        .0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sharded replay with fault injection is byte-identical across
    /// `MICROEDGE_WORKERS` ∈ {1, 2, 8}: the single-worker replay is the
    /// oracle and the parallel replays must reproduce it exactly.
    #[test]
    fn worker_count_is_invisible_under_faults((shards, seed) in workload_strategy()) {
        let oracle = format!("{:?}", run_sharded(&shards, Some(seed), 1));
        for workers in [2usize, 8] {
            let digest = format!("{:?}", run_sharded(&shards, Some(seed), workers));
            prop_assert_eq!(
                &oracle,
                &digest,
                "sharded replay diverged at {} workers",
                workers
            );
        }
    }

    /// For command-free workloads the whole sharding apparatus — epoch
    /// barriers, clock alignment, shard merge — is invisible: one shard
    /// replaying the workload equals the plain `World` it wraps. Exports
    /// are disabled because a one-shard ring routes them back to itself,
    /// an ingest stream the plain `World` has no counterpart for.
    #[test]
    fn one_shard_equals_the_plain_world(mut cams in prop::collection::vec(cam_strategy(), 1..8)) {
        for cam in &mut cams {
            cam.export = false;
        }
        let shards = vec![cams.clone()];
        let sharded = run_sharded(&shards, None, 1);

        let cluster = ClusterBuilder::new().trpis(2).vrpis(8).build();
        let mut world = World::new(cluster, Features::all());
        for (idx, cam) in cams.iter().enumerate() {
            let _ = world.admit_stream(spec_for(0, idx, cam));
        }
        world.run_until(SimTime::from_secs(120));
        // The sharded run reports its last epoch barrier as the end time;
        // close the plain world at the same instant so the metric windows
        // line up.
        let oracle = format!("{:?}", world.finish(sharded.end()));
        let sharded = format!("{sharded:?}");
        prop_assert_eq!(&oracle, &sharded, "one-shard replay diverged from the plain World");
    }
}

/// One replay of a small fleet with every barrier-touching feature armed at
/// once: front door with regions and spill, 1 %-lossy uplinks, mid-run
/// removals and global arrivals, exporting streams, and the defragmenter at
/// every barrier.
fn run_composed_fleet(workers: usize) -> (RunResults, FleetReport, NetReport) {
    const CLUSTERS: u32 = 4;
    const CAMERAS: u64 = 16;
    let clusters = (0..CLUSTERS).map(|_| ClusterBuilder::new().trpis(3).vrpis(16).build());
    let lossy = LinkSchedule::scripted(
        (0..CLUSTERS)
            .map(|link| {
                let state = LinkState::Degraded(DegradedLink::lossy(10_000));
                (SimTime::ZERO, link, state)
            })
            .collect(),
    );
    let mut world = ShardedWorld::new(clusters, Features::all())
        .with_front_door(2, 1)
        .with_network(NetConfig::new(lossy).with_seed(7));
    world.enable_defrag(DefragConfig {
        interval_epochs: 1,
        ..DefragConfig::default()
    });
    let model = |k: u64| {
        if k.is_multiple_of(2) {
            "mobilenet-v1"
        } else {
            "ssd-mobilenet-v2"
        }
    };
    for shard in 0..CLUSTERS {
        for i in 0..CAMERAS {
            let k = u64::from(shard) * CAMERAS + i;
            let spec = StreamSpec::builder(&format!("cam-{shard}-{i}"), model(k))
                .units(TpuUnits::from_micro(100_000 + (k * 37_000) % 300_000))
                .frame_limit(20)
                .start_offset(SimDuration::from_millis((k * 131) % 1000))
                .export_completions(i.is_multiple_of(4))
                .build();
            let Ok(id) = world.admit_stream(shard, spec) else {
                continue;
            };
            if i.is_multiple_of(2) {
                let at = SimTime::from_millis(1_000 + (k * 277) % 4_000);
                world.schedule_command(at, shard, WorldCommand::Remove(id.local));
            }
        }
    }
    for i in 0..16u64 {
        let spec = StreamSpec::builder(&format!("late-{i}"), model(i))
            .units(TpuUnits::from_micro(500_000 + (i * 61_000) % 400_000))
            .frame_limit(10)
            .build();
        let at = SimTime::from_millis(2_000 + i * 350);
        // Homed mostly in region 0, so it fills and the door spills.
        world.admit_global(at, u32::from(i % 4 == 3), spec);
    }
    world.run_net_with_workers(SimTime::from_secs(60), workers)
}

/// The composed fleet is byte-identical at every worker count. Each shard's
/// clock alignment, defragmenter tick and outbox drain run on the worker
/// pool, so this checks that the thread a shard lands on never changes
/// what the barrier exchange sees — and that those paths ran.
#[test]
fn composed_fleet_is_worker_invariant() {
    let oracle = run_composed_fleet(1);
    assert!(oracle.0.defrag().moves > 0, "the defragmenter never moved");
    assert!(
        oracle.1.placement.spills > 0,
        "the front door never spilled"
    );
    assert!(
        oracle.0.remote_ingest().count() > 0,
        "no export was routed across shards"
    );
    let oracle = format!("{oracle:?}");
    for workers in [2, 8] {
        let digest = format!("{:?}", run_composed_fleet(workers));
        assert_eq!(
            oracle, digest,
            "composed fleet diverged at {workers} workers"
        );
    }
}
