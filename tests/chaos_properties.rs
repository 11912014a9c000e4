//! Chaos property tests: random interleavings of fault injection,
//! repairs, admissions, removals, defrag cycles, and time advancement
//! under the self-healing configuration must preserve the global
//! invariants —
//! no TPU oversubscription, no leaked units, every stream in exactly
//! one lifecycle phase — and identical scenarios must replay
//! bit-for-bit.

use proptest::prelude::*;

use microedge::cluster::node::NodeId;
use microedge::cluster::topology::ClusterBuilder;
use microedge::core::config::Features;
use microedge::core::defrag::DefragConfig;
use microedge::core::faults::{
    ChaosConfig, ClassRates, FaultEvent, FaultKind, FaultModel, FaultSchedule,
};
use microedge::core::runtime::{StreamId, StreamPhase, StreamSpec, World};
use microedge::core::units::TpuUnits;
use microedge::sim::time::{SimDuration, SimTime};
use microedge::tpu::device::TpuId;
use microedge::workloads::apps::CameraApp;

const TPUS: u32 = 3;

fn chaos_world() -> World {
    let cluster = ClusterBuilder::new().trpis(TPUS).vrpis(12).build();
    let mut world = World::new(cluster, Features::all());
    world.enable_chaos(ChaosConfig::heal_degrade());
    // Every `Op::Defrag` runs a cycle, so short blips can land right after
    // a migration, inside its guard.
    world.enable_defrag(DefragConfig {
        interval_epochs: 1,
        ..DefragConfig::default()
    });
    world
}

#[derive(Debug, Clone)]
enum Op {
    /// Admit a camera of one of the three trace apps.
    Admit(usize),
    /// Remove the n-th admitted stream, if still around.
    Remove(usize),
    /// Fail a component (0 = TPU, 1 = node, 2 = uplink) and schedule its
    /// repair after the given delay in microseconds: a blip that can end
    /// inside one running inference, or an outage of up to half a minute.
    Fault(u8, usize, u64),
    /// Advance simulated time (crossing heartbeat/lease boundaries).
    Advance(u64),
    /// Run one defrag cycle: migrations, each guarded for its priced cost.
    Defrag,
}

fn op_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0..3usize).prop_map(Op::Admit),
            1 => (0..24usize).prop_map(Op::Remove),
            2 => (0u8..3, 0..16usize, prop_oneof![50u64..10_000, 500_000u64..30_000_000])
                .prop_map(|(class, target, delay)| Op::Fault(class, target, delay)),
            3 => (50u64..6_000).prop_map(Op::Advance),
            1 => Just(Op::Defrag),
        ],
        1..40,
    )
}

/// The invariants that must hold at every observable instant, fault or
/// no fault: the TPU Units Rule, unit conservation against the set of
/// running pods (the replayed oracle), stream-phase accounting, and the
/// pending-restart queue only holding parked streams.
fn check_invariants(world: &World, admitted: &[StreamId]) {
    let pool = world.scheduler().pool();
    let mut total_load = TpuUnits::ZERO;
    for account in pool.accounts() {
        assert!(account.load() <= TpuUnits::ONE, "TPU Units Rule violated");
        total_load += account.load();
    }
    let assigned: TpuUnits = world
        .orchestrator()
        .running_pods()
        .iter()
        .filter_map(|&pod| world.scheduler().assignment(pod))
        .flatten()
        .map(|a| a.units())
        .sum();
    assert_eq!(
        total_load, assigned,
        "pool load must equal the running pods' assignments"
    );
    // Every admitted stream is in exactly one phase, and the live ones are
    // exactly the active count.
    let live = admitted
        .iter()
        .filter(|&&id| {
            world
                .stream_phase(id)
                .expect("every admitted stream has a phase")
                .is_live()
        })
        .count();
    assert_eq!(world.active_streams(), live);
    for id in world.pending_restarts() {
        assert_eq!(world.stream_phase(id), Some(StreamPhase::Parked));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random churn of faults, repairs, admissions, and removals never
    /// oversubscribes a TPU, leaks units, or corrupts phase accounting —
    /// while events are in flight and after the dust settles.
    #[test]
    fn fault_churn_preserves_invariants(ops in op_strategy()) {
        let apps = CameraApp::trace_apps();
        let mut world = chaos_world();
        let nodes: Vec<NodeId> = world
            .orchestrator()
            .cluster()
            .nodes()
            .iter()
            .map(|n| n.id())
            .collect();
        let mut admitted: Vec<StreamId> = Vec::new();
        let mut seq = 0u32;

        for op in ops {
            match op {
                Op::Admit(app_idx) => {
                    let app = &apps[app_idx];
                    let spec = StreamSpec::builder(
                        &format!("churn-{seq}"),
                        app.model().as_str(),
                    )
                    .units(app.units())
                    .fps(app.fps())
                    .build();
                    seq += 1;
                    if let Ok(id) = world.admit_stream(spec) {
                        admitted.push(id);
                    }
                }
                Op::Remove(idx) => {
                    if let Some(&id) = admitted.get(idx) {
                        // May be parked or already gone; every outcome is
                        // legal, the invariants below are not optional.
                        let _ = world.remove_stream(id);
                    }
                }
                Op::Fault(class, target, repair_us) => {
                    let at = world.now() + SimDuration::from_millis(1);
                    let back = at + SimDuration::from_micros(repair_us);
                    let (fail, repair) = match class {
                        0 => {
                            let tpu = TpuId(target as u32 % TPUS);
                            (FaultKind::TpuFail(tpu), FaultKind::TpuRepair(tpu))
                        }
                        1 => {
                            let node = nodes[target % nodes.len()];
                            (FaultKind::NodeFail(node), FaultKind::NodeRepair(node))
                        }
                        _ => {
                            let node = nodes[target % nodes.len()];
                            (FaultKind::LinkFail(node), FaultKind::LinkRepair(node))
                        }
                    };
                    world.inject_faults(&FaultSchedule::scripted(vec![
                        FaultEvent { at, kind: fail },
                        FaultEvent { at: back, kind: repair },
                    ]));
                }
                Op::Advance(ms) => {
                    let next = world.now() + SimDuration::from_millis(ms);
                    world.run_until(next);
                }
                Op::Defrag => world.defrag_epoch(),
            }
            // Units of crashed/parked pods are held until the reclamation
            // poll; run it before the conservation check.
            world.poll_reclamation();
            check_invariants(&world, &admitted);
        }

        // Let every repair land and the reconciler drain, then check the
        // final state: the invariants still hold and no stream is stuck in
        // a transient phase once all hardware is back.
        let end = world.now() + SimDuration::from_secs(120);
        world.run_until(end);
        world.poll_reclamation();
        check_invariants(&world, &admitted);
        for &id in &admitted {
            let phase = world.stream_phase(id).unwrap();
            assert_ne!(
                phase,
                StreamPhase::Interrupted,
                "all hardware repaired, nothing may stay interrupted"
            );
        }
        let results = world.finish(end);
        for &id in &admitted {
            prop_assert!(results.stream_phase(id).is_some());
        }
    }

    /// A generated MTBF/MTTR schedule replays bit-for-bit: two worlds fed
    /// the identical seed produce identical event counts, phases, and
    /// recovery metrics.
    #[test]
    fn generated_schedules_replay_identically(seed in 0u64..1_000, horizon_s in 20u64..90) {
        let horizon = SimTime::from_secs(horizon_s);
        let fingerprint = || {
            let cluster = ClusterBuilder::new().trpis(TPUS).vrpis(12).build();
            let mut world = World::new(cluster.clone(), Features::all());
            world.enable_chaos(ChaosConfig::heal_degrade());
            let mut ids = Vec::new();
            for i in 0..5u64 {
                let spec = StreamSpec::builder(&format!("cam-{i}"), "ssd-mobilenet-v2")
                    .start_offset(SimDuration::from_millis(i * 13))
                    .build();
                ids.push(world.admit_stream(spec).unwrap());
            }
            let model = FaultModel {
                tpu: Some(ClassRates::new(
                    SimDuration::from_secs(40),
                    SimDuration::from_secs(10),
                )),
                node: Some(ClassRates::new(
                    SimDuration::from_secs(120),
                    SimDuration::from_secs(15),
                )),
                link: Some(ClassRates::new(
                    SimDuration::from_secs(60),
                    SimDuration::from_secs(3),
                )),
            };
            world.inject_faults(&FaultSchedule::generate(&model, &cluster, horizon, seed));
            world.run_until(horizon);
            let results = world.finish(horizon);
            let streams: Vec<(String, u64, u64)> = ids
                .iter()
                .map(|&id| {
                    let r = results.report(id).expect("reported");
                    (
                        format!("{:?}", results.stream_phase(id)),
                        r.emitted(),
                        r.completed(),
                    )
                })
                .collect();
            let downtime: Vec<u64> = results
                .availabilities()
                .values()
                .map(|a| a.downtime.as_nanos())
                .collect();
            (
                results.events_processed(),
                results.frames_dropped(),
                results.recovery().count(),
                streams,
                downtime,
            )
        };
        prop_assert_eq!(fingerprint(), fingerprint());
    }
}
