//! The fleet tier's duties at each epoch barrier: releasing front-door
//! admissions and cluster kills, collecting evacuees, refreshing cluster
//! summaries, re-placing the displaced with backoff, and folding the
//! fleet's outcome into the merged results.

use std::collections::BTreeMap;

use microedge_metrics::recovery::{AvailabilityTracker, RecoveryBreakdown, RecoveryRecorder};
use microedge_sim::time::{SimDuration, SimTime};

use super::deliver;
use super::net_plane::{NetPlane, Suspicion, REFRESH_KEY_SALT};
use crate::faults::HealPolicy;
use crate::fleet::{ClusterId, ClusterSummary, FrontDoor, PlacementStats};
use crate::runtime::{RunResults, StreamId, StreamSpec, World, WorldCommand};

/// A fleet-level operation waiting in the mailbox, resolved through the
/// front door when released.
#[derive(Debug)]
pub(super) enum FleetOp {
    /// Admit a stream wherever the front door places it.
    Admit {
        home_region: u32,
        spec: Box<StreamSpec>,
    },
    /// Whole-cluster failure: drain the cluster's summary and evacuate
    /// every stream it serves.
    Kill(ClusterId),
}

/// A displaced stream awaiting global re-placement at an epoch barrier.
#[derive(Debug, Clone)]
pub(super) struct PendingEvacuee {
    /// Packed global id of the evacuated incarnation.
    origin: StreamId,
    /// Region of the cluster that died — re-placement prefers staying
    /// close to the stream's original locality.
    home_region: u32,
    /// When the cluster died.
    fault_at: SimTime,
    /// The barrier at which the front door learned of the death.
    detected_at: SimTime,
    /// Failed re-placement attempts so far (drives the backoff and the
    /// give-up below).
    attempts: u32,
    /// Earliest barrier of the next attempt.
    next_try: SimTime,
    spec: StreamSpec,
}

/// Re-placement attempts per evacuee before the fleet gives up. With the
/// default [`HealPolicy`] ladder (1/2/4/8… s, ±25%) the budget spans
/// roughly half a minute of simulated retrying.
pub const EVAC_MAX_ATTEMPTS: u32 = 6;

/// Typed terminal outcome of an evacuee the fleet stopped retrying. The
/// stream's outage span stays open, so its `metrics::recovery`
/// availability tracker records it lost, and [`FleetReport::unplaced`]
/// accounts for it alongside the still-waiting evacuees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvacGiveUp {
    /// The retry budget ([`EVAC_MAX_ATTEMPTS`]) ran out with no cluster
    /// able to take the stream.
    AttemptsExhausted {
        /// Attempts made.
        attempts: u32,
    },
    /// The stream's model has no profile: no cluster can ever host it.
    UnknownModel,
}

impl std::fmt::Display for EvacGiveUp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvacGiveUp::AttemptsExhausted { attempts } => {
                write!(f, "gave up after {attempts} re-placement attempts")
            }
            EvacGiveUp::UnknownModel => write!(f, "no cluster can host an unknown model"),
        }
    }
}

/// Deterministic fleet-tier outcome counters of one sharded run — the
/// front door's placement statistics plus the whole-cluster-failure story.
/// Fully determined by the workload, so it participates in byte-compared
/// artifacts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetReport {
    /// Front-door placement counters (home/spill/fallback/rejections).
    pub placement: PlacementStats,
    /// Clusters killed via
    /// [`ShardedWorld::kill_cluster`](super::ShardedWorld::kill_cluster).
    pub clusters_killed: u64,
    /// Streams displaced by cluster deaths.
    pub evacuated: u64,
    /// Evacuees successfully re-admitted on a surviving cluster.
    pub readmitted: u64,
    /// Re-admission attempts the destination cluster refused (the summary
    /// was optimistic); the evacuee retries at a later barrier.
    pub readmit_failures: u64,
    /// Evacuees never re-placed by end of run (counted lost): the
    /// still-waiting plus the abandoned (`gave_up`).
    pub unplaced: u64,
    /// Evacuees abandoned with a typed [`EvacGiveUp`] after exhausting
    /// their retry budget (a subset of `unplaced`).
    pub gave_up: u64,
    /// Global admissions the front door could not place anywhere (or whose
    /// demand could not be estimated).
    pub admit_rejected: u64,
}

/// All fleet-tier state: the front door plus the bookkeeping the sharded
/// replay drives serially at epoch barriers.
#[derive(Debug)]
pub(super) struct FleetState {
    pub(super) door: FrontDoor,
    /// Clusters killed so far — their summaries stay drained (a barrier
    /// refresh would otherwise resurrect them from their idle pools).
    pub(super) dead: Vec<bool>,
    /// Evacuees the fleet could not re-place yet, FIFO; each carries its
    /// attempt count and jittered-backoff wake-up.
    pub(super) retry: Vec<PendingEvacuee>,
    /// Backoff ladder between re-placement attempts.
    pub(super) heal: HealPolicy,
    /// Typed terminal outcomes of abandoned evacuees, in give-up order.
    pub(super) give_ups: Vec<(StreamId, EvacGiveUp)>,
    /// Open/closed outage spans per evacuated incarnation, by packed id.
    pub(super) trackers: BTreeMap<StreamId, AvailabilityTracker>,
    /// Fleet-level recovery breakdowns (detection = barrier lag,
    /// rescheduling = barriers spent waiting for capacity).
    pub(super) recorder: RecoveryRecorder,
    /// Evacuee → re-admitted incarnation, packed ids.
    pub(super) lineage: Vec<(StreamId, StreamId)>,
    pub(super) report: FleetReport,
}

/// Resolves fleet op `op`, submitted as `seq`, at its release instant `at`
/// (serial, in the global `(at, seq)` order — deterministic at any worker
/// count).
pub(super) fn release_fleet_op(
    f: &mut FleetState,
    shards: &mut [World],
    net: Option<&mut NetPlane>,
    at: SimTime,
    seq: u64,
    op: FleetOp,
) {
    match op {
        FleetOp::Admit { home_region, spec } => {
            // Shard 0 hosts the profiling service: every cluster shares
            // the model catalog, so any shard's estimate is the fleet's.
            let demand = match shards[0].estimate_demand(&spec) {
                Ok(d) => d,
                Err(_) => {
                    f.report.admit_rejected += 1;
                    return;
                }
            };
            match f.door.admit(home_region, demand) {
                Some(placement) => {
                    // The deploy command rides the destination's uplink:
                    // under the network plane it can be delayed, shed at a
                    // saturated window, or given up after the retransmit
                    // budget — the placement debit stands either way (a
                    // capacity leak the next summary refresh corrects).
                    let cmd = WorldCommand::Admit(spec);
                    deliver(shards, net, at, seq, placement.cluster.0, cmd);
                }
                None => f.report.admit_rejected += 1,
            }
        }
        FleetOp::Kill(cluster) => {
            // A cluster death is not a message — nothing rides the network.
            let slot = &mut f.dead[cluster.index()];
            if !*slot {
                *slot = true;
                f.door.drain(cluster);
                shards[cluster.index()].schedule_command(at, WorldCommand::Evacuate);
                f.report.clusters_killed += 1;
            }
        }
    }
}

/// The front door's epoch-barrier duties: collect the epoch's evacuees,
/// refresh every live cluster's summary from its pool's capacity index
/// (ground truth overrides the interim debits), then re-place evacuees on
/// surviving clusters — synchronously, so a refused admission is caught
/// here and retried at a later barrier under the [`HealPolicy`] backoff.
///
/// With the network plane armed, summary refreshes ride the telemetry
/// channel: a dropped refresh leaves the door acting on a stale summary,
/// and a cluster silent past the staleness bound is drained until a
/// refresh gets through again (bounded-staleness reconciliation).
pub(super) fn exchange_fleet(
    f: &mut FleetState,
    shards: &mut [World],
    mut net: Option<&mut NetPlane>,
    barrier: SimTime,
) {
    // 1. Collect evacuations shard-by-shard (each shard's list is already
    //    in stream-id order). Fresh evacuees are eligible immediately.
    let mut waiting = std::mem::take(&mut f.retry);
    for (i, shard) in shards.iter_mut().enumerate() {
        let src = u32::try_from(i).expect("shard count fits u32");
        let home_region = f.door.topology().region_of(ClusterId(src));
        for ev in shard.take_evacuations() {
            f.trackers
                .entry(ev.stream.with_shard(src))
                .or_default()
                .outage_begins(ev.fault_at);
            f.report.evacuated += 1;
            waiting.push(PendingEvacuee {
                origin: ev.stream.with_shard(src),
                home_region,
                fault_at: ev.fault_at,
                detected_at: barrier,
                attempts: 0,
                next_try: barrier,
                spec: ev.spec,
            });
        }
    }
    // 2. Refresh summaries from the pools (O(1) per unchanged cluster).
    //    Dead clusters stay drained: their idle pools must not resurrect.
    //    Suspected clusters stay drained too — the detector already pulled
    //    them from rotation; reconciliation restores them, not a refresh.
    for (i, shard) in shards.iter().enumerate() {
        let id = u32::try_from(i).expect("shard count fits u32");
        if f.dead[i] {
            continue;
        }
        if let Some(n) = net.as_deref_mut() {
            let lease = &mut n.leases[i];
            if lease.suspicion != Suspicion::None {
                continue;
            }
            let key = barrier.as_nanos().wrapping_add(REFRESH_KEY_SALT);
            if n.transport.send_telemetry(id, key).is_none() {
                // Refresh lost. The door keeps acting on the stale summary
                // until the staleness bound trips; past it, drain the
                // cluster rather than place against fiction.
                let age = barrier.saturating_since(lease.last_refresh);
                if !lease.stale && age > n.staleness_bound {
                    lease.stale = true;
                    n.report.stale_drains += 1;
                    f.door.drain(ClusterId(id));
                }
                continue;
            }
            lease.last_refresh = barrier;
            if lease.stale {
                lease.stale = false;
                n.report.stale_restores += 1;
            }
        }
        f.door.observe(
            ClusterId(id),
            ClusterSummary::from_pool(
                shard.scheduler().pool().capacity_summary(),
                u64::try_from(shard.active_streams()).expect("stream count fits u64"),
            ),
        );
    }
    // 3. Re-place, FIFO among the due. Admission is synchronous — every
    //    shard's clock sits exactly at the barrier, so admitting here is
    //    legal and the failure signal is immediate. Each failure burns an
    //    attempt and re-arms the jittered backoff; the budget is finite.
    for mut ev in waiting {
        if ev.next_try > barrier {
            f.retry.push(ev);
            continue;
        }
        let demand = match shards[0].estimate_demand(&ev.spec) {
            Ok(d) => d,
            Err(_) => {
                // Unknown model: no cluster can ever host it. Lost, typed.
                f.report.readmit_failures += 1;
                f.report.gave_up += 1;
                f.give_ups.push((ev.origin, EvacGiveUp::UnknownModel));
                continue;
            }
        };
        let placed = f.door.place(ev.home_region, demand).and_then(|placement| {
            let dest = placement.cluster;
            match shards[dest.index()].admit_stream(ev.spec.clone()) {
                Ok(local) => Some((placement, demand, local.with_shard(dest.0))),
                Err(_) => {
                    // The summary was optimistic (intra-barrier staleness,
                    // or fragmentation finer than max_free resolves). Two
                    // defenses shrink this path: the front door tiebreaks
                    // toward the more contiguous candidate, and the
                    // defragmenter compacts pools between barriers. Debit
                    // pessimistically so later evacuees look elsewhere.
                    f.door.commit_placement(dest, demand);
                    f.report.readmit_failures += 1;
                    None
                }
            }
        });
        match placed {
            Some((placement, demand, new_id)) => {
                f.door.record_placement(placement, demand);
                let tracker = f
                    .trackers
                    .get_mut(&ev.origin)
                    .expect("evacuee has an open tracker");
                tracker.outage_ends(barrier);
                tracker.count_restart();
                f.recorder.record(&RecoveryBreakdown::new(
                    ev.detected_at.saturating_since(ev.fault_at),
                    barrier.saturating_since(ev.detected_at),
                    SimDuration::ZERO,
                ));
                f.lineage.push((ev.origin, new_id));
                f.report.readmitted += 1;
            }
            None => {
                ev.attempts += 1;
                if ev.attempts >= EVAC_MAX_ATTEMPTS {
                    f.report.gave_up += 1;
                    f.give_ups.push((
                        ev.origin,
                        EvacGiveUp::AttemptsExhausted {
                            attempts: ev.attempts,
                        },
                    ));
                } else {
                    ev.next_try = barrier + f.heal.backoff(ev.attempts, ev.origin.0);
                    f.retry.push(ev);
                }
            }
        }
    }
}

/// Folds the fleet state into the merged results once the run ends:
/// still-open outages become lost streams, availability spans and
/// recovery breakdowns merge in, lineage links records each re-admission.
pub(super) fn finish_fleet(f: FleetState, results: &mut RunResults, end: SimTime) -> FleetReport {
    let mut report = f.report;
    report.unplaced = f.retry.len() as u64 + report.gave_up;
    debug_assert_eq!(f.give_ups.len() as u64, report.gave_up);
    report.placement = f.door.stats();
    for (origin, tracker) in f.trackers {
        let lost = tracker.in_outage();
        results.merge_availability(origin, tracker.finish(end, lost));
    }
    results.recovery_mut().merge(&f.recorder);
    for (old, new) in f.lineage {
        results.link_lineage(old, new);
    }
    report
}
