//! Online-defragmentation study (`repro --defrag`).
//!
//! Two sections, one artifact (`BENCH_defrag.json`):
//!
//! 1. **24-hour churn trace** — one round per simulated minute of
//!    arrive/depart churn against an [`ExtendedScheduler`], replayed twice
//!    on the *same* trace: once plain, once with a
//!    [`microedge_core::defrag`] planning cycle every
//!    [`DEFRAG_EVERY_ROUNDS`] rounds. Every round samples packing
//!    efficiency against the Martello–Toth L2 lower bound
//!    ([`crate::packing::l2_lower_bound`]), the pool's fragmentation
//!    ratio, and a unit-conservation audit (pool load must equal the live
//!    multiset, to the micro-unit).
//! 2. **Sharded fleet section** — a 4-cluster [`ShardedWorld`] behind the
//!    front door, where scripted departures shatter every cluster into
//!    0.6-unit holes and late 0.8-unit global admissions only fit if the
//!    epoch-barrier defragmenter has consolidated them.

#![expect(
    clippy::disallowed_methods,
    reason = "times the simulator itself; lands on host_ lines"
)]

use std::collections::BTreeMap;
use std::time::Instant;

use microedge_cluster::topology::ClusterBuilder;
use microedge_core::config::Features;
use microedge_core::defrag::{run_cycle, DefragConfig};
use microedge_core::runtime::{StreamSpec, WorldCommand};
use microedge_core::scheduler::ExtendedScheduler;
use microedge_core::shard::ShardedWorld;
use microedge_core::units::TpuUnits;
use microedge_metrics::defrag::{packing_efficiency, DefragStats};
use microedge_metrics::report::{fmt_f64, Table};
use microedge_models::catalog::Catalog;
use microedge_orch::lifecycle::Orchestrator;
use microedge_orch::pod::{PodId, PodSpec, ResourceRequest, EXT_MODEL, EXT_TPU_UNITS};
use microedge_sim::rng::DetRng;
use microedge_sim::time::{SimDuration, SimTime};
use microedge_tpu::device::TpuId;

use crate::artifact::{self, fixed};
use crate::packing::l2_lower_bound;

/// TPUs in the churn cluster (full mode).
pub const DEFRAG_TPUS: u32 = 24;
/// Churn rounds in full mode: 24 hours at one round per minute.
pub const DEFRAG_ROUNDS: u32 = 1440;
/// Quick-mode cluster size.
pub const DEFRAG_TPUS_QUICK: u32 = 12;
/// Quick-mode rounds (2 hours).
pub const DEFRAG_ROUNDS_QUICK: u32 = 120;
/// A planning cycle runs every this many rounds (= simulated minutes).
pub const DEFRAG_EVERY_ROUNDS: u32 = 3;
/// Per-round probability that a live camera departs. The steady-state
/// fleet is `arrival_rate / DEPART_CHANCE` cameras.
pub const DEPART_CHANCE: f64 = 1.0 / 45.0;
/// Trace seed.
pub const DEFRAG_SEED: u64 = 0x00DE_F7A6;

/// One step of the policy-independent churn trace. Departures name the
/// *arrival ordinal*, not a pod id, so the same trace replays against
/// both arms even when their admission outcomes diverge: departing a
/// camera the arm rejected is a no-op.
#[derive(Debug, Clone)]
pub enum Op {
    /// A camera arrives asking for `micro` micro-units of `model`.
    Arrive {
        /// Catalog name of the camera's model.
        model: &'static str,
        /// Requested TPU units, in micro-units.
        micro: u64,
    },
    /// The `n`-th arrival (if admitted and still live) departs.
    Depart(u32),
}

/// Generates `rounds` rounds of churn. Arrivals are 80% small cameras
/// (0.10–0.50 units) and 20% large (0.70–0.95 units) — the large tail is
/// what fragmentation starves. Departure draws walk the ordinal set the
/// generator itself tracks, so the trace is independent of any arm's
/// admission decisions.
#[must_use]
pub fn churn_trace(rounds: u32, arrival_chance: f64, seed: u64) -> Vec<Vec<Op>> {
    let models = ["mobilenet-v1", "ssd-mobilenet-v2"];
    let mut rng = DetRng::seed_from(seed);
    let mut live: Vec<u32> = Vec::new();
    let mut arrivals = 0u32;
    let mut trace = Vec::with_capacity(rounds as usize);
    for _ in 0..rounds {
        let mut ops = Vec::new();
        // Departures first: holes open before the round's arrival lands.
        let mut idx = 0;
        while idx < live.len() {
            if rng.chance(DEPART_CHANCE) {
                ops.push(Op::Depart(live.swap_remove(idx)));
            } else {
                idx += 1;
            }
        }
        if rng.chance(arrival_chance) {
            let micro = if rng.chance(0.8) {
                rng.uniform_range(100_000, 500_001)
            } else {
                rng.uniform_range(700_000, 950_001)
            };
            let model = models[rng.index(models.len())];
            ops.push(Op::Arrive { model, micro });
            live.push(arrivals);
            arrivals += 1;
        }
        trace.push(ops);
    }
    trace
}

/// One arm of the churn replay: the same trace with or without the
/// defragmenter. Every field except `host_wall_s` is deterministic.
#[derive(Debug, Clone)]
pub struct DefragArm {
    /// Whether the defragmenter ran.
    pub defrag: bool,
    /// Cameras admitted over the trace.
    pub admitted: u64,
    /// Cameras rejected over the trace.
    pub rejected: u64,
    /// Mean packing efficiency (L2 bins / TPUs used) over all rounds.
    pub mean_efficiency: f64,
    /// Mean efficiency over the second half of the trace (steady state).
    pub steady_efficiency: f64,
    /// Worst single-round efficiency.
    pub min_efficiency: f64,
    /// Mean fragmentation ratio (largest free slot / total free).
    pub mean_fragmentation: f64,
    /// Rounds where pool load differed from the live multiset (must be 0).
    pub conservation_violations: u64,
    /// Hourly packing-efficiency samples (one per 60 rounds, plus final).
    pub efficiency_series: Vec<f64>,
    /// Planner counters for this arm (all-zero on the plain arm).
    pub stats: DefragStats,
    /// Wall-clock seconds for the arm (host measurement).
    pub host_wall_s: f64,
}

impl DefragArm {
    /// Admission success rate over the whole trace.
    #[must_use]
    pub fn admit_rate(&self) -> f64 {
        let total = self.admitted + self.rejected;
        if total == 0 {
            return 1.0;
        }
        self.admitted as f64 / total as f64
    }
}

/// Replays `trace` against a `tpus`-TPU cluster, with the defragmenter on
/// or off. Partitioning is disabled (churn regime, matching
/// [`crate::packing`]): each camera places whole, so fragmentation is
/// load-bearing rather than hidden by stage-splitting.
///
/// # Panics
///
/// Panics if the pool's unit ledger ever disagrees with the live-pod
/// multiset mid-replay in debug builds (the release replay records the
/// violation and keeps going, so the artifact reports the count).
#[must_use]
pub fn run_churn_arm(trace: &[Vec<Op>], tpus: u32, defrag: bool) -> DefragArm {
    let start = Instant::now();
    let cluster = ClusterBuilder::new().trpis(tpus).vrpis(4).build();
    let mut sched =
        ExtendedScheduler::new(&cluster, Catalog::builtin(), Features::co_compiling_only());
    let mut orch = Orchestrator::new(cluster);
    // A cron-style repacker gets a fatter budget than the default
    // epoch-barrier config: its cycle window is a whole simulated minute,
    // not a 500 ms barrier.
    let config = DefragConfig {
        interval_epochs: 1,
        cycle_budget: SimDuration::from_secs(20),
        max_moves_per_cycle: 16,
        ..DefragConfig::default()
    };
    let mut stats = DefragStats::default();

    // Live pods keyed by arrival ordinal; values carry the pod id and the
    // admitted micro-units (the conservation ledger's expected side).
    let mut live: BTreeMap<u32, (PodId, u64)> = BTreeMap::new();
    let mut arrivals = 0u32;
    let (mut admitted, mut rejected) = (0u64, 0u64);
    let mut conservation_violations = 0u64;
    let mut efficiency = Vec::with_capacity(trace.len());
    let mut frag_sum = 0.0;

    for (round, ops) in trace.iter().enumerate() {
        for op in ops {
            match op {
                Op::Arrive { model, micro } => {
                    let ordinal = arrivals;
                    arrivals += 1;
                    let spec = PodSpec::builder(format!("cam-{ordinal}"), "coral-pie:latest")
                        .resources(ResourceRequest::camera_default())
                        .extension(EXT_MODEL, model)
                        .extension(EXT_TPU_UNITS, &format!("{}", *micro as f64 / 1e6))
                        .build();
                    match sched.deploy(&mut orch, spec) {
                        Ok(deployment) => {
                            live.insert(ordinal, (deployment.pod(), *micro));
                            admitted += 1;
                        }
                        Err(_) => rejected += 1,
                    }
                }
                Op::Depart(ordinal) => {
                    if let Some((pod, _)) = live.remove(ordinal) {
                        sched.teardown(&mut orch, pod).expect("live pod tears down");
                    }
                }
            }
        }
        if defrag && (round as u32).is_multiple_of(DEFRAG_EVERY_ROUNDS) {
            run_cycle(&mut sched, |_| false, &config, &mut stats);
        }

        // Per-round audit: the pool's committed load must equal the live
        // multiset exactly — defrag moves units, it must never mint them.
        let pool_load: u64 = (0..tpus)
            .map(|i| sched.pool().account(TpuId(i)).load().as_micro())
            .sum();
        let live_load: u64 = live.values().map(|(_, micro)| micro).sum();
        if pool_load != live_load {
            debug_assert_eq!(pool_load, live_load, "defrag minted or lost units");
            conservation_violations += 1;
        }

        let units: Vec<TpuUnits> = live
            .values()
            .map(|(_, micro)| TpuUnits::from_micro(*micro))
            .collect();
        efficiency.push(packing_efficiency(
            l2_lower_bound(&units),
            sched.pool().used_tpus(),
        ));
        frag_sum += sched.pool().capacity_summary().fragmentation_ratio();
    }

    let rounds = efficiency.len().max(1) as f64;
    let steady: &[f64] = &efficiency[efficiency.len() / 2..];
    let hourly_stride = (trace.len() / 24).max(1);
    let mut series: Vec<f64> = efficiency.iter().step_by(hourly_stride).copied().collect();
    if let Some(&last) = efficiency.last() {
        series.push(last);
    }
    DefragArm {
        defrag,
        admitted,
        rejected,
        mean_efficiency: efficiency.iter().sum::<f64>() / rounds,
        steady_efficiency: steady.iter().sum::<f64>() / steady.len().max(1) as f64,
        min_efficiency: efficiency.iter().copied().fold(1.0, f64::min),
        mean_fragmentation: frag_sum / rounds,
        conservation_violations,
        efficiency_series: series,
        stats,
        host_wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Fleet-section shape: clusters (= regions) of 2 TPUs each.
pub const FLEET_CLUSTERS: u32 = 4;
const FLEET_STREAMS_PER_CLUSTER: u32 = 4;
const FLEET_LATE_UNITS: u64 = 800_000;

/// One arm of the sharded fleet section: deterministic end-to-end defrag
/// through `ShardedWorld` epoch barriers and the front door.
#[derive(Debug, Clone)]
pub struct DefragFleetArm {
    /// Whether `ShardedWorld::enable_defrag` was armed.
    pub defrag: bool,
    /// Late 0.8-unit global admissions the front door rejected.
    pub admit_rejected: u64,
    /// Late global admissions that found a consolidated slot.
    pub late_admitted: u64,
    /// Merged planner counters across shards.
    pub stats: DefragStats,
    /// Frames completed fleet-wide (work fingerprint).
    pub frames: u64,
}

/// Runs the fleet section once. Each of the four 2-TPU clusters admits
/// four 0.4-unit cameras (two per TPU), then one camera per TPU departs
/// at t=2 s, leaving every TPU 0.4 loaded: 1.2 free units per cluster but
/// a largest hole of only 0.6. At t=6 s one 0.8-unit camera per region
/// arrives through the front door — placeable only where the barrier
/// defragmenter has consolidated the stragglers onto one TPU.
///
/// # Panics
///
/// Panics if a scripted pre-churn admission fails (the fleet is sized so
/// they cannot).
#[must_use]
pub fn run_fleet_arm(defrag: bool) -> DefragFleetArm {
    let fleet = (0..FLEET_CLUSTERS).map(|_| ClusterBuilder::new().trpis(2).vrpis(2).build());
    let mut world =
        ShardedWorld::new(fleet, Features::co_compiling_only()).with_front_door(FLEET_CLUSTERS, 1);
    if defrag {
        world.enable_defrag(DefragConfig {
            interval_epochs: 1,
            ..DefragConfig::default()
        });
    }
    for c in 0..FLEET_CLUSTERS {
        let mut ids = Vec::new();
        for i in 0..FLEET_STREAMS_PER_CLUSTER {
            let id = world
                .admit_stream(
                    c,
                    StreamSpec::builder(&format!("cam-{c}-{i}"), "mobilenet-v1")
                        .units(TpuUnits::from_micro(400_000))
                        .frame_limit(150)
                        .build(),
                )
                .expect("pre-churn fleet has room");
            ids.push(id);
        }
        // First-fit pairs arrivals (0,1) on TPU 0 and (2,3) on TPU 1;
        // removing 0 and 2 leaves one 0.4-unit pod per TPU.
        for &victim in &[0usize, 2] {
            world.schedule_command(
                SimTime::from_secs(2),
                c,
                WorldCommand::Remove(ids[victim].local),
            );
        }
    }
    for region in 0..FLEET_CLUSTERS {
        world.admit_global(
            SimTime::from_secs(6),
            region,
            StreamSpec::builder(&format!("late-{region}"), "mobilenet-v1")
                .units(TpuUnits::from_micro(FLEET_LATE_UNITS))
                .frame_limit(60)
                .build(),
        );
    }
    let workers = microedge_sim::par::worker_count(FLEET_CLUSTERS as usize);
    let (results, report, _) = world.run_net_with_workers(SimTime::from_secs(30), workers);
    DefragFleetArm {
        defrag,
        admit_rejected: report.admit_rejected,
        late_admitted: u64::from(FLEET_CLUSTERS) - report.admit_rejected,
        stats: results.defrag().clone(),
        frames: results.reports().iter().map(|r| r.completed()).sum(),
    }
}

/// The full study: both churn arms plus both fleet arms.
#[derive(Debug, Clone)]
pub struct DefragStudy {
    /// TPUs in the churn cluster.
    pub tpus: u32,
    /// Churn rounds replayed (one per simulated minute).
    pub rounds: u32,
    /// Churn arms: `[plain, defrag]`.
    pub arms: Vec<DefragArm>,
    /// Fleet arms: `[plain, defrag]`.
    pub fleet: Vec<DefragFleetArm>,
}

/// Runs the study. Quick mode shrinks the trace to 2 simulated hours on
/// half the TPUs (tests, CI smoke); arms run in parallel via the
/// deterministic `par_map`, so worker count never touches the results.
#[must_use]
pub fn run_defrag_study(quick: bool) -> DefragStudy {
    let (tpus, rounds, arrival_chance) = if quick {
        (DEFRAG_TPUS_QUICK, DEFRAG_ROUNDS_QUICK, 0.45)
    } else {
        (DEFRAG_TPUS, DEFRAG_ROUNDS, 0.9)
    };
    let trace = churn_trace(rounds, arrival_chance, DEFRAG_SEED);
    let arms = microedge_sim::par::par_map(vec![false, true], |_, defrag| {
        run_churn_arm(&trace, tpus, defrag)
    });
    let fleet = microedge_sim::par::par_map(vec![false, true], |_, defrag| run_fleet_arm(defrag));
    DefragStudy {
        tpus,
        rounds,
        arms,
        fleet,
    }
}

fn arm_label(defrag: bool) -> &'static str {
    if defrag {
        "defrag"
    } else {
        "no-defrag"
    }
}

/// Renders the study as the markdown tables `repro --defrag` prints.
#[must_use]
pub fn render_defrag(study: &DefragStudy) -> String {
    let mut table = Table::new(&[
        "arm",
        "admit rate",
        "mean eff",
        "steady eff",
        "min eff",
        "frag ratio",
        "moves",
        "recovered units",
        "disruption s",
    ]);
    for arm in &study.arms {
        table.row_owned(vec![
            arm_label(arm.defrag).to_owned(),
            fmt_f64(arm.admit_rate(), 4),
            fmt_f64(arm.mean_efficiency, 4),
            fmt_f64(arm.steady_efficiency, 4),
            fmt_f64(arm.min_efficiency, 4),
            fmt_f64(arm.mean_fragmentation, 3),
            arm.stats.moves.to_string(),
            fmt_f64(arm.stats.units_recovered_micro as f64 / 1e6, 2),
            fmt_f64(arm.stats.disruption().as_secs_f64(), 3),
        ]);
    }
    let mut fleet_table = Table::new(&[
        "arm",
        "late admitted",
        "late rejected",
        "moves",
        "recovered units",
        "frames",
    ]);
    for arm in &study.fleet {
        fleet_table.row_owned(vec![
            arm_label(arm.defrag).to_owned(),
            arm.late_admitted.to_string(),
            arm.admit_rejected.to_string(),
            arm.stats.moves.to_string(),
            fmt_f64(arm.stats.units_recovered_micro as f64 / 1e6, 2),
            arm.frames.to_string(),
        ]);
    }
    format!(
        "### Online defragmentation — {rounds}-minute churn trace, {tpus} TPUs \
         (packing efficiency = L2 lower bound / TPUs used)\n{table}\n\
         ### Fleet section — {clusters}×2-TPU clusters, 0.8-unit late admits \
         through the front door\n{fleet_table}\n",
        rounds = study.rounds,
        tpus = study.tpus,
        clusters = FLEET_CLUSTERS,
    )
}

/// Renders the `BENCH_defrag.json` document.
#[must_use]
pub fn to_json(study: &DefragStudy) -> String {
    artifact::document(|d| {
        d.str("benchmark", "defrag")
            .str(
                "workload",
                &format!(
                    "{rounds}-round churn trace on {tpus} TPUs \
                     (1 round = 1 simulated minute; 80% 0.10-0.50-unit cameras, 20% 0.70-0.95; \
                     depart p={DEPART_CHANCE:.4}/round; defrag cycle every {DEFRAG_EVERY_ROUNDS} rounds) + \
                     {FLEET_CLUSTERS}x2-TPU sharded fleet with late 0.8-unit front-door admits",
                    rounds = study.rounds,
                    tpus = study.tpus,
                ),
            )
            .rows("arms", 6, &study.arms, |r, a| {
                let s = &a.stats;
                r.str("arm", arm_label(a.defrag))
                    .num("admitted", a.admitted)
                    .num("rejected", a.rejected)
                    .num("admit_rate", fixed(a.admit_rate(), 6))
                    .br()
                    .num("mean_efficiency", fixed(a.mean_efficiency, 6))
                    .num("steady_efficiency", fixed(a.steady_efficiency, 6))
                    .num("min_efficiency", fixed(a.min_efficiency, 6))
                    .num("mean_fragmentation", fixed(a.mean_fragmentation, 6))
                    .br()
                    .num("conservation_violations", a.conservation_violations)
                    .br()
                    .num("cycles", s.cycles)
                    .num("moves", s.moves)
                    .num("pods_migrated", s.pods_migrated)
                    .num("units_recovered_micro", s.units_recovered_micro)
                    .num("disruption_ns", s.disruption_ns)
                    .br()
                    .obj("skipped", |o| {
                        o.num("gain", s.skipped_gain)
                            .num("guard", s.skipped_guard)
                            .num("budget", s.skipped_budget)
                            .num("cost", s.skipped_cost)
                            .num("unplaceable", s.skipped_unplaceable);
                    })
                    .br()
                    .nums(
                        "efficiency_hourly",
                        a.efficiency_series.iter().map(|&e| fixed(e, 4)),
                    )
                    .host("wall_s", fixed(a.host_wall_s, 3));
            })
            .rows("fleet", 6, &study.fleet, |r, f| {
                r.str("arm", arm_label(f.defrag))
                    .num("late_admitted", f.late_admitted)
                    .num("admit_rejected", f.admit_rejected)
                    .num("cycles", f.stats.cycles)
                    .num("moves", f.stats.moves)
                    .num("units_recovered_micro", f.stats.units_recovered_micro)
                    .num("disruption_ns", f.stats.disruption_ns)
                    .num("frames", f.frames);
            });
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_study_defrag_dominates_plain() {
        let study = run_defrag_study(true);
        let plain = &study.arms[0];
        let defrag = &study.arms[1];
        assert!(!plain.defrag && defrag.defrag);
        assert_eq!(plain.conservation_violations, 0);
        assert_eq!(defrag.conservation_violations, 0);
        assert!(defrag.stats.moves > 0, "defrag arm never moved a pod");
        assert_eq!(plain.stats, DefragStats::default());
        assert!(
            defrag.steady_efficiency >= plain.steady_efficiency,
            "defrag {d} < plain {p}",
            d = defrag.steady_efficiency,
            p = plain.steady_efficiency
        );
    }

    #[test]
    fn fleet_defrag_unblocks_late_admits() {
        let plain = run_fleet_arm(false);
        let defrag = run_fleet_arm(true);
        assert_eq!(plain.stats.moves, 0);
        assert!(defrag.stats.moves > 0);
        assert!(
            defrag.late_admitted > plain.late_admitted,
            "defrag {d} vs plain {p} late admits",
            d = defrag.late_admitted,
            p = plain.late_admitted
        );
    }
}
