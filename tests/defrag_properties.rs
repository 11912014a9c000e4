//! Property tests for the online defragmenter.
//!
//! Four invariants, matching the guarantees `core::defrag` documents:
//!
//! 1. **Unit conservation** — a defrag cycle moves committed units, it
//!    never mints or loses them, under arbitrary arrive/depart churn.
//! 2. **Idle defrag is invisible** — a defragmenter whose `min_gain` gate
//!    blocks every move leaves the data plane byte-identical to a world
//!    with no defragmenter at all.
//! 3. **Budget** — the summed migration cost a single cycle executes
//!    never exceeds its `cycle_budget`, and no single move does either.
//! 4. **Worker invariance** — sharded replays *with the defragmenter
//!    armed* stay byte-identical across `MICROEDGE_WORKERS` ∈ {1, 2, 8}.

use std::collections::BTreeSet;

use proptest::prelude::*;

use microedge::bench::defrag::{churn_trace, run_churn_arm};
use microedge::cluster::topology::ClusterBuilder;
use microedge::core::config::Features;
use microedge::core::defrag::{run_cycle, DefragConfig};
use microedge::core::runtime::{RunResults, StreamSpec};
use microedge::core::scheduler::ExtendedScheduler;
use microedge::core::shard::ShardedWorld;
use microedge::core::units::TpuUnits;
use microedge::metrics::defrag::DefragStats;
use microedge::models::catalog::Catalog;
use microedge::orch::lifecycle::Orchestrator;
use microedge::orch::pod::{PodSpec, ResourceRequest, EXT_MODEL, EXT_TPU_UNITS};
use microedge::sim::time::{SimDuration, SimTime};

/// Builds a post-churn scheduler: `loads` pods deployed in order, then
/// every pod whose index is in `depart` torn down, leaving whatever
/// fragmentation first-fit plus the departures produced.
fn churned_scheduler(
    tpus: u32,
    loads: &[u32],
    depart: &[bool],
) -> (Orchestrator, ExtendedScheduler) {
    let cluster = ClusterBuilder::new().trpis(tpus).vrpis(2).build();
    let mut sched =
        ExtendedScheduler::new(&cluster, Catalog::builtin(), Features::co_compiling_only());
    let mut orch = Orchestrator::new(cluster);
    let mut pods = Vec::new();
    for (i, &milli) in loads.iter().enumerate() {
        let spec = PodSpec::builder(&format!("cam-{i}"), "coral-pie:latest")
            .resources(ResourceRequest::camera_default())
            .extension(EXT_MODEL, "mobilenet-v1")
            .extension(EXT_TPU_UNITS, &format!("0.{milli:03}"))
            .build();
        if let Ok(d) = sched.deploy(&mut orch, spec) {
            pods.push(d.pod());
        }
    }
    for (pod, &gone) in pods.iter().zip(depart) {
        if gone {
            sched.teardown(&mut orch, *pod).expect("pod is live");
        }
    }
    (orch, sched)
}

fn pool_load_micro(sched: &ExtendedScheduler) -> u64 {
    sched
        .pool()
        .accounts()
        .iter()
        .map(|a| a.load().as_micro())
        .sum()
}

/// A random sharded camera workload (2–3 shards, 1–5 cameras each).
fn fleet_strategy() -> impl Strategy<Value = Vec<Vec<(u32, u64, u64)>>> {
    prop::collection::vec(
        prop::collection::vec((100u32..600, 1u64..5, 0u64..900), 1..5),
        2..4,
    )
}

/// Builds and runs a sharded world over `shards`, with the defragmenter
/// armed under `config` (or not, when `None`).
fn run_fleet(
    shards: &[Vec<(u32, u64, u64)>],
    config: Option<DefragConfig>,
    workers: usize,
) -> RunResults {
    let clusters: Vec<_> = shards
        .iter()
        .map(|_| ClusterBuilder::new().trpis(2).vrpis(8).build())
        .collect();
    let mut world = ShardedWorld::new(clusters, Features::all());
    if let Some(config) = config {
        world.enable_defrag(config);
    }
    for (shard, cams) in shards.iter().enumerate() {
        for (idx, &(milli, frames, offset_ms)) in cams.iter().enumerate() {
            let _ = world.admit_stream(
                u32::try_from(shard).expect("shard index fits u32"),
                StreamSpec::builder(&format!("prop-{shard}-{idx}"), "mobilenet-v1")
                    .units(TpuUnits::from_micro(u64::from(milli) * 1_000))
                    .frame_limit(frames)
                    .start_offset(SimDuration::from_millis(offset_ms))
                    .build(),
            );
        }
    }
    world
        .run_net_with_workers(SimTime::from_secs(120), workers)
        .0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Over a random churn trace, the defrag arm's per-round ledger audit
    /// (pool load == live multiset, to the micro-unit) never fires, and
    /// the planner's recovered-unit counter only grows when moves happen.
    #[test]
    fn defrag_churn_conserves_units(
        rounds in 20u32..60,
        tpus in 4u32..10,
        seed in 0u64..1_000,
    ) {
        let trace = churn_trace(rounds, 0.7, seed);
        let arm = run_churn_arm(&trace, tpus, true);
        prop_assert_eq!(arm.conservation_violations, 0);
        if arm.stats.moves == 0 {
            prop_assert_eq!(arm.stats.units_recovered_micro, 0);
        }
    }

    /// A defragmenter that can never clear its `min_gain` gate (the gate
    /// is above a whole TPU) executes nothing and is invisible: the
    /// stream-visible results equal a run with no defragmenter at all.
    #[test]
    fn idle_defrag_is_a_no_op(shards in fleet_strategy()) {
        let gated = DefragConfig {
            interval_epochs: 1,
            min_gain: TpuUnits::from_micro(2_000_000),
            ..DefragConfig::default()
        };
        let with = run_fleet(&shards, Some(gated), 1);
        let without = run_fleet(&shards, None, 1);
        prop_assert_eq!(with.defrag().moves, 0);
        prop_assert_eq!(with.defrag().units_recovered_micro, 0);
        let a = format!("{:?}", with.reports());
        let b = format!("{:?}", without.reports());
        prop_assert_eq!(&a, &b, "an idle defragmenter touched the data plane");
    }

    /// One planning cycle's executed migration cost — summed and per
    /// move — never exceeds its `cycle_budget`, whatever the budget.
    #[test]
    fn cycle_disruption_respects_budget(
        loads in prop::collection::vec(150u32..650, 4..24),
        depart in prop::collection::vec(prop::bool::ANY, 24),
        budget_ms in 1u64..5_000,
        tpus in 4u32..10,
    ) {
        let (_orch, mut sched) = churned_scheduler(tpus, &loads, &depart);
        let config = DefragConfig {
            cycle_budget: SimDuration::from_millis(budget_ms),
            max_moves_per_cycle: 32,
            ..DefragConfig::default()
        };
        let before = pool_load_micro(&sched);
        let mut stats = DefragStats::default();
        let moves = run_cycle(&mut sched, &BTreeSet::new(), &config, &mut stats);
        let total: SimDuration = moves
            .iter()
            .fold(SimDuration::ZERO, |acc, mv| acc + mv.cost);
        prop_assert!(
            total <= config.cycle_budget,
            "cycle spent {total} against a budget of {}",
            config.cycle_budget
        );
        for mv in &moves {
            prop_assert!(mv.cost <= config.cycle_budget);
        }
        prop_assert_eq!(stats.disruption_ns, total.as_nanos());
        prop_assert_eq!(pool_load_micro(&sched), before, "the cycle minted or lost units");
    }

    /// With the defragmenter armed at every barrier, sharded replays stay
    /// byte-identical across worker counts: each shard's defrag tick reads
    /// and writes only that shard, so threads can never reorder its
    /// decisions.
    #[test]
    fn worker_count_is_invisible_with_defrag(shards in fleet_strategy()) {
        let config = DefragConfig {
            interval_epochs: 1,
            ..DefragConfig::default()
        };
        let oracle = format!("{:?}", run_fleet(&shards, Some(config), 1));
        for workers in [2usize, 8] {
            let digest = format!("{:?}", run_fleet(&shards, Some(config), workers));
            prop_assert_eq!(
                &oracle,
                &digest,
                "defrag-armed replay diverged at {} workers",
                workers
            );
        }
    }
}
