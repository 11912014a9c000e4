//! Online defragmentation: swap-cost-budgeted live repacking toward the
//! Martello–Toth L2 bound (see EXPERIMENTS.md, "Online defragmentation").
//!
//! Arrive/depart churn fragments the TPU pool: free capacity survives in
//! total but shatters into slivers spread across many TPUs, so whole-ish
//! placement requests bounce off a fleet that provably has room (the
//! packing benches show bins-used drifting away from the Martello–Toth L2
//! lower bound). Nothing in the admission path ever repacks — admission is
//! a one-time action by design — so repacking has to be a background
//! activity.
//!
//! This module is that activity's *planner*: a deterministic, budgeted
//! greedy pass that picks **donor** TPUs (lightly loaded, so their load is
//! cheap to move and their freed slot is nearly whole), plans each donor's
//! full eviction with best-fit receivers on the capacity index
//! ([`ExtendedScheduler::plan_evict`]), prices the move with the *real*
//! swap-cost model — full parameter transfer at [`TpuSpec::swap_time`]
//! bandwidth plus the co-compiled partial-cache transition from
//! `tpu::cocompile` — and executes only the moves whose recovered
//! contiguous capacity beats their migration-disruption budget.
//!
//! The planner mutates only scheduler state (assignments + pool). The
//! *runtime* consequences — re-seeding each migrated pod's load-balancer
//! weights, re-syncing device cache plans, and arming the swap-seq/epoch
//! guard so in-flight frames are never corrupted — are applied by
//! `World::defrag_epoch` from the [`ExecutedMove`]s returned here, and the
//! whole cycle runs at epoch barriers inside `ShardedWorld`, where every
//! shard is quiescent.
//!
//! # Examples
//!
//! ```
//! use microedge_core::defrag::DefragConfig;
//! use microedge_core::units::TpuUnits;
//!
//! let config = DefragConfig::default();
//! assert_eq!(config.interval_epochs, 4);
//! assert!(config.min_gain > TpuUnits::ZERO);
//! ```

use microedge_metrics::defrag::DefragStats;
use microedge_orch::pod::PodId;
use microedge_sim::time::SimDuration;
use microedge_tpu::cocompile::CoCompiler;
use microedge_tpu::device::TpuId;
use microedge_tpu::spec::TpuSpec;

use crate::pool::TpuPool;
use crate::scheduler::{EvictPlan, ExtendedScheduler};
use crate::units::TpuUnits;

/// Tuning knobs for the background defragmenter. All thresholds are exact
/// (integer micro-units, integer nanoseconds), so identical configs yield
/// identical plans on every run and worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefragConfig {
    /// Run a planning cycle every this many epoch barriers (sharded runs)
    /// or `defrag_epoch` calls (plain worlds).
    pub interval_epochs: u32,
    /// Ceiling on the summed migration disruption one cycle may incur.
    pub cycle_budget: SimDuration,
    /// Ceiling on donor evictions per cycle, independent of budget.
    pub max_moves_per_cycle: u32,
    /// Donors carrying less recoverable load than this are not worth a
    /// move (the freed slot barely grows).
    pub min_gain: TpuUnits,
    /// Exchange rate: a move is executed only if its disruption per whole
    /// recovered unit stays at or below this.
    pub max_cost_per_unit: SimDuration,
}

impl Default for DefragConfig {
    /// Conservative defaults: plan every 4 epochs (2 s of simulated time at
    /// the default 500 ms barrier), spend at most 5 s of modeled disruption
    /// per cycle across at most 8 moves, ignore donors freeing under
    /// 0.05 units, and never pay more than 30 s per recovered unit.
    fn default() -> Self {
        DefragConfig {
            interval_epochs: 4,
            cycle_budget: SimDuration::from_secs(5),
            max_moves_per_cycle: 8,
            min_gain: TpuUnits::from_micro(50_000),
            max_cost_per_unit: SimDuration::from_secs(30),
        }
    }
}

/// One executed donor eviction, as reported back to the runtime layer: the
/// scheduler-level plan plus its priced disruption. The runtime replays
/// `plan.moves` into each migrated pod's LBS, re-syncs every donor and
/// receiver device once per cycle, and holds every migrated stream under a
/// swap guard for `cost`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutedMove {
    /// The eviction that was applied to the scheduler.
    pub plan: EvictPlan,
    /// Modeled migration disruption: the busiest receiver's parameter swap
    /// plus its co-compile transition and first-invocation uncached stream.
    pub cost: SimDuration,
}

/// Candidate donors in planning order: available TPUs carrying load, with
/// the *least-loaded* (most free) first. A lightly loaded TPU maximizes
/// the fragmentation score — it pins an almost-whole contiguous slot at
/// the cheapest migration cost — while a fully loaded TPU is already
/// perfectly packed and is never a donor.
///
/// Pure and read-only (shared by the Criterion planner microbench); order
/// comes from the capacity index, so it is deterministic for a given pool
/// state.
#[must_use]
pub fn donor_candidates(pool: &TpuPool) -> Vec<TpuId> {
    pool.tpus_by_free_descending(TpuUnits::ZERO)
        .filter(|&tpu| {
            let account = pool.account(tpu);
            !account.load().is_zero() && !account.free_units().is_zero()
        })
        .collect()
}

/// Prices an eviction plan with the real swap-cost model. Receivers absorb
/// the donor's pods in parallel (each TPU has its own USB path), so the
/// move's disruption is the *busiest* receiver's bill: newly transferred
/// parameter bytes at swap bandwidth, plus the Edge TPU co-compile of its
/// post-move resident set, plus the first-invocation stream of whatever
/// that set leaves uncached. A plan that loads no new bytes anywhere (all
/// models already resident on every receiver) is free — only LBS weights
/// change.
///
/// # Panics
///
/// Panics if a receiver's post-move resident set contains a model the
/// scheduler's catalog does not know (plans are built from the same
/// catalog, so this indicates scheduler corruption).
#[must_use]
pub fn move_cost(plan: &EvictPlan, sched: &ExtendedScheduler, spec: TpuSpec) -> SimDuration {
    let compiler = CoCompiler::new(spec);
    let mut worst = SimDuration::ZERO;
    for (&receiver, &new_bytes) in &plan.newly_loaded {
        let residents = plan
            .residents_after
            .get(&receiver)
            .expect("every receiver with new bytes has a post-move resident set");
        let profiles: Vec<_> = residents
            .iter()
            .map(|model| sched.catalog().expect(model).clone())
            .collect();
        let cache_plan = compiler
            .plan(&profiles)
            .expect("post-move residents are distinct");
        let uncached = cache_plan.total_param_bytes() - cache_plan.cached_bytes();
        let cost = spec.swap_time(new_bytes)
            + compiler.compile_time(&cache_plan)
            + spec.stream_time(uncached);
        if cost > worst {
            worst = cost;
        }
    }
    worst
}

/// Runs one budgeted planning cycle against the scheduler, executing every
/// move that clears all gates and accounting both executions and skips in
/// `stats`. Donors are visited least-loaded first; each donor replans
/// against the pool state its predecessors left behind, so a cycle's moves
/// compose without double-booking receivers.
///
/// `frozen` answers which pods must not migrate this cycle — the runtime
/// freezes pods whose stream is mid-swap or not serving, which is the same
/// swap-seq/epoch guard the failure-recovery path uses. It is asked only
/// about pods on a donor that reached the guard.
///
/// The donors' pods come from one TPU → pods index built per cycle in a
/// single pass over the assignments, not from a scan of every assignment
/// per donor. An executed move adds its pods under their receivers; the
/// entries it leaves behind on the donor are filtered out when that list
/// is next read.
///
/// Gates, in order, with the stat bumped when a donor is skipped:
/// 1. recoverable load ≥ `min_gain` (`skipped_gain`);
/// 2. the rest of the fleet has volume for the donor's load
///    (`skipped_unplaceable` — cheap pre-check before planning);
/// 3. no resident pod is frozen (`skipped_guard`);
/// 4. best-fit receiver planning succeeds (`skipped_unplaceable`);
/// 5. the move fits the cycle's remaining budget (`skipped_budget`);
/// 6. disruption per recovered unit ≤ `max_cost_per_unit` (`skipped_cost`).
pub fn run_cycle(
    sched: &mut ExtendedScheduler,
    frozen: impl Fn(PodId) -> bool,
    config: &DefragConfig,
    stats: &mut DefragStats,
) -> Vec<ExecutedMove> {
    stats.cycles += 1;
    let spec = TpuSpec::coral_usb();
    let mut executed: Vec<ExecutedMove> = Vec::new();
    let mut budget = config.cycle_budget;
    let mut residents: Option<Vec<Vec<PodId>>> = None;
    for donor in donor_candidates(sched.pool()) {
        if executed.len() >= usize::try_from(config.max_moves_per_cycle).expect("u32 fits usize") {
            break;
        }
        let account = sched.pool().account(donor);
        // Earlier moves this cycle may have filled this candidate (it was a
        // best-fit receiver) or the chaos layer may have failed it; a full
        // or unavailable TPU is no longer a donor at all.
        if !account.is_available() || account.load().is_zero() || account.free_units().is_zero() {
            continue;
        }
        let gain = account.load();
        if gain < config.min_gain {
            stats.skipped_gain += 1;
            continue;
        }
        let elsewhere = TpuUnits::from_micro(sched.pool().capacity_summary().total_free_micro)
            .saturating_sub(account.free_units());
        if elsewhere < gain {
            stats.skipped_unplaceable += 1;
            continue;
        }
        let residents = residents.get_or_insert_with(|| pods_by_tpu(sched));
        let pods = pods_on(sched, residents, donor);
        if pods.iter().any(|&pod| frozen(pod)) {
            stats.skipped_guard += 1;
            continue;
        }
        let Ok(mut plan) = sched.plan_evict_pods(donor, pods) else {
            stats.skipped_unplaceable += 1;
            continue;
        };
        let cost = move_cost(&plan, sched, spec);
        if cost > budget {
            stats.skipped_budget += 1;
            continue;
        }
        // cost / (gain / SCALE) > max_cost_per_unit, cross-multiplied so the
        // comparison is exact in integers.
        if u128::from(cost.as_nanos()) * u128::from(TpuUnits::ONE.as_micro())
            > u128::from(config.max_cost_per_unit.as_nanos()) * u128::from(plan.recovered_micro)
        {
            stats.skipped_cost += 1;
            continue;
        }
        sched.apply_evict(&mut plan);
        for mv in &plan.moves {
            for stage in &mv.plans {
                for alloc in stage.allocations() {
                    if let Some(pods) = residents.get_mut(alloc.tpu().index()) {
                        pods.push(mv.pod);
                    }
                }
            }
        }
        budget = budget.saturating_sub(cost);
        stats.moves += 1;
        stats.pods_migrated += plan.moves.len() as u64;
        stats.units_recovered_micro += plan.recovered_micro;
        stats.disruption_ns += cost.as_nanos();
        executed.push(ExecutedMove { plan, cost });
    }
    executed
}

/// Every pod holding an allocation, listed under each TPU it uses (indexed
/// by [`TpuId::index`]), from one pass over the assignments.
fn pods_by_tpu(sched: &ExtendedScheduler) -> Vec<Vec<PodId>> {
    let mut residents = vec![Vec::new(); sched.pool().len()];
    for (pod, stages) in sched.placements() {
        for alloc in stages.iter().flat_map(|stage| stage.allocations()) {
            if let Some(pods) = residents.get_mut(alloc.tpu().index()) {
                pods.push(pod);
            }
        }
    }
    residents
}

/// The pods on `donor` now, ascending — exactly
/// [`ExtendedScheduler::pods_using`]. Sorts and de-duplicates the donor's
/// index list in place and drops the pods that have since moved off it.
fn pods_on<'a>(
    sched: &ExtendedScheduler,
    residents: &'a mut [Vec<PodId>],
    donor: TpuId,
) -> &'a [PodId] {
    let Some(pods) = residents.get_mut(donor.index()) else {
        return &[];
    };
    pods.sort_unstable();
    pods.dedup();
    pods.retain(|&pod| sched.pod_uses(pod, donor));
    pods
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    use microedge_cluster::topology::ClusterBuilder;
    use microedge_models::catalog::Catalog;
    use microedge_orch::lifecycle::Orchestrator;
    use microedge_orch::pod::{PodSpec, ResourceRequest, EXT_MODEL, EXT_TPU_UNITS};

    use crate::config::Features;

    fn setup(tpus: u32) -> (Orchestrator, ExtendedScheduler) {
        let cluster = ClusterBuilder::new().trpis(tpus).vrpis(2).build();
        let sched = ExtendedScheduler::new(&cluster, Catalog::builtin(), Features::all());
        (Orchestrator::new(cluster), sched)
    }

    fn pod(name: &str, units: &str) -> PodSpec {
        PodSpec::builder(name, "coral-pie:latest")
            .resources(ResourceRequest::camera_default())
            .extension(EXT_MODEL, "mobilenet-v1")
            .extension(EXT_TPU_UNITS, units)
            .build()
    }

    /// FirstFit fills t0 and t1 to 0.9 each, leaving t2/t3 idle — both
    /// loaded TPUs are donor candidates and one move fully empties one.
    fn fragmented(tpus: u32) -> (Orchestrator, ExtendedScheduler, Vec<PodId>) {
        let (mut orch, mut sched) = setup(tpus);
        let mut pods = Vec::new();
        for (name, units) in [("a", "0.6"), ("b", "0.3"), ("c", "0.6"), ("d", "0.3")] {
            let d = sched.deploy(&mut orch, pod(name, units)).expect("seed pod");
            pods.push(d.pod());
        }
        (orch, sched, pods)
    }

    #[test]
    fn cycle_empties_a_donor() {
        let (_orch, mut sched, _) = fragmented(4);
        assert!(
            !donor_candidates(sched.pool()).is_empty(),
            "fragmented pool offers donors"
        );
        let mut stats = DefragStats::default();
        let config = DefragConfig {
            max_moves_per_cycle: 1,
            ..DefragConfig::default()
        };
        let moves = run_cycle(&mut sched, |_| false, &config, &mut stats);
        assert_eq!(moves.len(), 1, "one move allowed, one executed");
        let donor = moves[0].plan.donor;
        assert!(
            sched.pool().account(donor).load().is_zero(),
            "executed donor is fully emptied"
        );
        assert_eq!(stats.moves, 1);
        assert_eq!(stats.units_recovered_micro, moves[0].plan.recovered_micro);
        assert!(moves[0].cost > SimDuration::ZERO, "real moves cost time");
    }

    #[test]
    fn frozen_pods_pin_their_donor() {
        let (_orch, mut sched, pods) = fragmented(4);
        let frozen: BTreeSet<PodId> = pods.into_iter().collect();
        let mut stats = DefragStats::default();
        let moves = run_cycle(
            &mut sched,
            |pod| frozen.contains(&pod),
            &DefragConfig::default(),
            &mut stats,
        );
        assert!(moves.is_empty(), "every donor hosts a frozen pod");
        assert!(stats.skipped_guard > 0);
        assert_eq!(stats.moves, 0);
    }

    #[test]
    fn zero_budget_blocks_every_move() {
        let (_orch, mut sched, _) = fragmented(4);
        let mut stats = DefragStats::default();
        let config = DefragConfig {
            cycle_budget: SimDuration::ZERO,
            ..DefragConfig::default()
        };
        let moves = run_cycle(&mut sched, |_| false, &config, &mut stats);
        assert!(moves.is_empty());
        assert!(stats.skipped_budget > 0, "budget gate fired");
    }

    #[test]
    fn cost_gate_rejects_expensive_moves() {
        let (_orch, mut sched, _) = fragmented(4);
        let mut stats = DefragStats::default();
        let config = DefragConfig {
            max_cost_per_unit: SimDuration::from_nanos(1),
            ..DefragConfig::default()
        };
        let moves = run_cycle(&mut sched, |_| false, &config, &mut stats);
        assert!(moves.is_empty());
        assert!(stats.skipped_cost > 0, "exchange-rate gate fired");
    }

    #[test]
    fn conservation_across_a_cycle() {
        let (mut orch, mut sched) = setup(6);
        for (i, units) in ["0.6", "0.3", "0.6", "0.3", "0.5", "0.2"]
            .iter()
            .enumerate()
        {
            sched
                .deploy(&mut orch, pod(&format!("p{i}"), units))
                .expect("seed pod");
        }
        let before: TpuUnits = sched.pool().accounts().iter().map(|a| a.load()).sum();
        let mut stats = DefragStats::default();
        let moves = run_cycle(&mut sched, |_| false, &DefragConfig::default(), &mut stats);
        assert!(!moves.is_empty(), "churned pool yields at least one move");
        let after: TpuUnits = sched.pool().accounts().iter().map(|a| a.load()).sum();
        assert_eq!(before, after, "defrag conserves total assigned units");
    }

    #[test]
    fn move_cost_is_free_when_no_bytes_move() {
        let (_orch, sched) = setup(2);
        let plan = EvictPlan {
            donor: TpuId(0),
            recovered_micro: 300_000,
            moves: Vec::new(),
            newly_loaded: BTreeMap::new(),
            residents_after: BTreeMap::new(),
            pool_after: None,
        };
        assert_eq!(
            move_cost(&plan, &sched, TpuSpec::coral_usb()),
            SimDuration::ZERO
        );
    }

    #[test]
    fn donors_are_partially_loaded_only() {
        let (mut orch, mut sched) = setup(3);
        // t0 full (1.0), t1 partial (0.4), t2 idle.
        sched.deploy(&mut orch, pod("full", "1.0")).expect("pod");
        sched.deploy(&mut orch, pod("part", "0.4")).expect("pod");
        let donors = donor_candidates(sched.pool());
        assert_eq!(donors.len(), 1, "only the partial TPU qualifies");
        let account = sched.pool().account(donors[0]);
        assert!(!account.load().is_zero());
        assert!(!account.free_units().is_zero());
    }
}
