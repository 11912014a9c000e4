//! Sharded single-replay parallelism: one deterministic simulation spanning
//! many per-cluster [`World`] shards.
//!
//! A [`ShardedWorld`] owns one `World` per cluster shard — each with its own
//! event queue, stream slab, TPU pool, and telemetry sketches — and advances
//! all of them in lock-step **epochs**. Within an epoch, shards share no
//! state and run concurrently on the deterministic worker pool
//! ([`microedge_sim::par`]); all cross-shard traffic is exchanged only at
//! the epoch barrier, serially, in a canonical order. That makes the replay
//! bit-identical at any worker count:
//!
//! 1. **Partition.** Each shard drains its queue through
//!    `EventQueue::pop_due(barrier)` (inclusive), so every event is handled
//!    in exactly one epoch regardless of who else is running. It first
//!    reads the records those events' handlers touch
//!    (`World::warm_until`), because the other shards' epochs have evicted
//!    them; the pass only reads.
//! 2. **Align and route.** Still inside the parallel step, each shard
//!    advances its clock to the barrier (`World::advance_to`), so
//!    barrier-time deliveries are legal on all shards, then runs its
//!    defragmenter tick (`World::defrag_epoch`) and drains its outbox. It
//!    stably sorts its exports by `(time, stream id)` and draws each one's
//!    fate on its own uplink. A draw is a pure hash of the message and of
//!    link state frozen at the epoch start. All of it touches only that
//!    shard.
//! 3. **Exchange.** Serial, like the mailbox release and the fleet and
//!    network duties. In source-shard order, the barrier adds each
//!    source's telemetry counts to the ledger and schedules its surviving
//!    exports into its ring successor's queue. Every destination has one
//!    source, so its insertion order is that source's canonical order, a
//!    total order that does not depend on thread interleaving.
//!    Control-plane commands ([`WorldCommand`]) are released from a global
//!    mailbox to their owning shard the same way, keyed by `(time,
//!    submission seq)`.
//!
//! Determinism therefore needs no synchronisation beyond the barrier: the
//! worker pool only decides *when* a shard's epoch runs, never *what* it
//! observes. The per-shard results merge into one fleet-level
//! [`RunResults`] via [`RunResults::merge_shards`] (sketch merges + integer
//! sums), and a single-shard `ShardedWorld` is byte-identical to the plain
//! `World` it wraps — the differential oracle `tests/sharded_determinism.rs`
//! pins down.
//!
//! This module holds the epoch loop and the mailbox; the child module
//! `net_plane` owns the lossy network plane and the export routing, and
//! `fleet_duties` the front door's barrier work.
//!
//! # Examples
//!
//! ```
//! use microedge_cluster::topology::ClusterBuilder;
//! use microedge_core::config::Features;
//! use microedge_core::runtime::StreamSpec;
//! use microedge_core::shard::ShardedWorld;
//! use microedge_sim::par;
//! use microedge_sim::time::SimTime;
//!
//! let clusters = (0..2).map(|_| ClusterBuilder::new().trpis(1).vrpis(2).build());
//! let mut sharded = ShardedWorld::new(clusters, Features::all());
//! for shard in 0..2 {
//!     let spec = StreamSpec::builder(&format!("cam-{shard}"), "ssd-mobilenet-v2")
//!         .frame_limit(30)
//!         .export_completions(true)
//!         .build();
//!     sharded.admit_stream(shard, spec).unwrap();
//! }
//! let workers = par::worker_count(2);
//! let (results, _, _) = sharded.run_net_with_workers(SimTime::from_secs(10), workers);
//! assert_eq!(results.reports().len(), 2);
//! // Each shard's exports were ingested by its neighbour.
//! assert_eq!(results.remote_ingest().count(), 60);
//! ```

use std::collections::BTreeMap;

use microedge_cluster::topology::Cluster;
use microedge_metrics::recovery::RecoveryRecorder;
use microedge_sim::par;
use microedge_sim::time::{SimDuration, SimTime};

use crate::config::Features;
use crate::defrag::DefragConfig;
use crate::faults::{ChaosConfig, FaultSchedule, HealPolicy};
use crate::fleet::{ClusterId, ClusterSummary, FrontDoor};
use crate::net::{NetConfig, NetReport, Transport};
use crate::runtime::{RunResults, StreamId, StreamSpec, World, WorldCommand};
use crate::scheduler::DeployError;

mod fleet_duties;
mod net_plane;
#[cfg(test)]
mod tests;

use fleet_duties::{exchange_fleet, finish_fleet, release_fleet_op, FleetOp, FleetState};
pub use fleet_duties::{EvacGiveUp, FleetReport, EVAC_MAX_ATTEMPTS};
use net_plane::{route_exports, LinkLease, NetPlane, RoutedExports};

/// A stream id qualified by its owning shard — the stable identity
/// cross-shard messages and merged results are keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct GlobalStreamId {
    /// Index of the owning shard.
    pub shard: u32,
    /// The shard-local id.
    pub local: StreamId,
}

impl GlobalStreamId {
    /// The packed id merged [`RunResults`] are keyed by.
    #[must_use]
    pub fn packed(self) -> StreamId {
        self.local.with_shard(self.shard)
    }
}

/// An operation waiting in the global mailbox for its instant. Direct
/// commands and fleet ops share one `(at, seq)` total order: an admission
/// submitted before a cluster kill at the same instant still sees that
/// cluster alive, and a command submitted after it finds its stream
/// evacuated.
#[derive(Debug)]
struct Pending {
    at: SimTime,
    /// Submission order: the tie-breaker for operations at the same instant.
    seq: u64,
    op: PendingOp,
}

/// What a mailbox entry does when it is released.
#[derive(Debug)]
enum PendingOp {
    /// A control-plane command for one shard.
    Command { shard: u32, cmd: WorldCommand },
    /// A fleet-level operation, resolved through the front door.
    Fleet(FleetOp),
}

/// The epoch length: half a second of simulated time. Long enough
/// that barrier overhead vanishes against millions of events per epoch,
/// short enough that cross-shard latency (messages ride at earliest the
/// next barrier) stays below a frame interval at 1 FPS.
pub const EPOCH: SimDuration = SimDuration::from_millis(500);

/// A deterministic multi-cluster simulation: per-cluster [`World`] shards
/// advanced in lock-step epochs with barrier-exchanged cross-shard traffic.
/// See the [module docs](self) for the determinism argument.
#[derive(Debug)]
pub struct ShardedWorld {
    shards: Vec<World>,
    /// The last completed barrier (all shard clocks are aligned to it
    /// between epochs).
    now: SimTime,
    /// Commands and fleet ops not yet released.
    mailbox: Vec<Pending>,
    next_seq: u64,
    /// The fleet front door and its bookkeeping, armed by
    /// [`ShardedWorld::with_front_door`].
    fleet: Option<Box<FleetState>>,
    /// The lossy-network plane, armed by [`ShardedWorld::with_network`].
    net: Option<Box<NetPlane>>,
}

/// The dense shard-table slot for a `u32` shard id.
fn shard_index(shard: u32) -> usize {
    usize::try_from(shard).expect("u32 shard id fits usize")
}

/// Delivers control command `cmd`, submitted as `seq`, to shard `dest` at
/// `at`: over the network plane's control channel when one is armed,
/// otherwise straight into the shard's queue.
fn deliver(
    shards: &mut [World],
    net: Option<&mut NetPlane>,
    at: SimTime,
    seq: u64,
    dest: u32,
    cmd: WorldCommand,
) {
    match net {
        Some(n) => n.submit_control(at, seq, dest, cmd),
        None => shards[shard_index(dest)].schedule_command(at, cmd),
    }
}

impl ShardedWorld {
    /// Builds one shard per cluster with the built-in catalog and shipped
    /// policy (the same defaults as [`World::new`]) and the [`EPOCH`]
    /// barrier interval.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is empty or any cluster has no TPUs.
    #[must_use]
    pub fn new(clusters: impl IntoIterator<Item = Cluster>, features: Features) -> Self {
        let shards: Vec<World> = clusters
            .into_iter()
            .map(|c| World::new(c, features))
            .collect();
        assert!(
            !shards.is_empty(),
            "a sharded world needs at least one shard"
        );
        ShardedWorld {
            shards,
            now: SimTime::ZERO,
            mailbox: Vec::new(),
            next_seq: 0,
            fleet: None,
            net: None,
        }
    }

    /// Arms the federated front door ([`crate::fleet`]) over this fleet:
    /// the clusters are partitioned into `regions` contiguous regions and
    /// global admissions probe the home region first, then up to `spill`
    /// neighbouring regions per side, then the whole fleet. Summaries seed
    /// from the current pools and refresh from each shard's capacity index
    /// at every epoch barrier.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ regions ≤ shard count`.
    #[must_use]
    pub fn with_front_door(mut self, regions: u32, spill: u32) -> Self {
        let summaries: Vec<ClusterSummary> = self
            .shards
            .iter()
            .map(|shard| {
                ClusterSummary::from_pool(
                    shard.scheduler().pool().capacity_summary(),
                    u64::try_from(shard.active_streams()).expect("stream count fits u64"),
                )
            })
            .collect();
        self.fleet = Some(Box::new(FleetState {
            door: FrontDoor::new(summaries, regions, spill),
            dead: vec![false; self.shards.len()],
            retry: Vec::new(),
            heal: HealPolicy::default(),
            give_ups: Vec::new(),
            trackers: BTreeMap::new(),
            recorder: RecoveryRecorder::new(),
            lineage: Vec::new(),
            report: FleetReport::default(),
        }));
        self
    }

    /// Arms the lossy-network plane ([`crate::net`]): every cross-shard
    /// message — frame exports, control commands, fleet admissions — rides
    /// cluster `i`'s uplink (link `i`) under the scheduled
    /// [`crate::net::LinkState`]s, and each cluster heartbeats the fleet
    /// over the same link so lossy/partitioned links starve the lease
    /// detector into false-positive suspicions. Works with or without a
    /// front door; with one, suspicions drain placements and summary
    /// refreshes become best-effort with bounded staleness.
    #[must_use]
    pub fn with_network(mut self, cfg: NetConfig) -> Self {
        let links = self.shards.len();
        self.net = Some(Box::new(NetPlane {
            transport: Transport::new(links, cfg.schedule, cfg.seed, cfg.retransmit),
            detection: cfg.detection,
            staleness_bound: cfg.staleness_bound,
            pending: Vec::new(),
            leases: vec![LinkLease::NEW; links],
            report: NetReport {
                suspicion_ns: vec![0; links],
                ..NetReport::default()
            },
        }));
        self
    }

    /// The last completed epoch barrier.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Direct access to a shard (read-only; pre-run setup beyond admission
    /// goes through [`ShardedWorld::shard_mut`]).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn shard(&self, shard: u32) -> &World {
        &self.shards[shard_index(shard)]
    }

    /// Mutable access to a shard for pre-run configuration (data-plane
    /// overrides, direct fault scheduling). Mid-run mutation must go
    /// through the command mailbox instead, or determinism is forfeit.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_mut(&mut self, shard: u32) -> &mut World {
        &mut self.shards[shard_index(shard)]
    }

    /// Admits a stream on `shard` at the shard's current clock (normally
    /// before the first epoch; mid-run admissions ride the mailbox via
    /// [`WorldCommand::Admit`]).
    ///
    /// # Errors
    ///
    /// See [`World::admit_stream`].
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn admit_stream(
        &mut self,
        shard: u32,
        spec: StreamSpec,
    ) -> Result<GlobalStreamId, DeployError> {
        let local = self.shards[shard_index(shard)].admit_stream(spec)?;
        Ok(GlobalStreamId { shard, local })
    }

    /// Arms chaos mode on every shard (fault detection, self-healing).
    pub fn enable_chaos(&mut self, config: ChaosConfig) {
        for shard in &mut self.shards {
            shard.enable_chaos(config);
        }
    }

    /// Arms the background defragmenter on every shard. Cycles run at
    /// epoch barriers (every `config.interval_epochs` of them), inside the
    /// parallel step once each shard has drained to the barrier. A cycle
    /// reads and writes only its own shard's quiescent local state, so
    /// repacking is byte-identical at any worker count.
    pub fn enable_defrag(&mut self, config: DefragConfig) {
        for shard in &mut self.shards {
            shard.enable_defrag(config);
        }
    }

    /// Submits a control-plane command for `shard`, to fire at `at`. The
    /// command waits in the global mailbox and is released to the shard at
    /// the epoch barrier covering its timestamp; commands at the same
    /// instant fire in submission order.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last completed barrier.
    pub fn schedule_command(&mut self, at: SimTime, shard: u32, cmd: WorldCommand) {
        assert!(
            shard_index(shard) < self.shards.len(),
            "shard {shard} out of range"
        );
        self.submit(at, PendingOp::Command { shard, cmd });
    }

    /// Queues `op` in the mailbox at `at`, after everything submitted
    /// before it at the same instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last completed barrier.
    fn submit(&mut self, at: SimTime, op: PendingOp) {
        assert!(
            at >= self.now,
            "cannot submit at {at} behind the barrier {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.mailbox.push(Pending { at, seq, op });
    }

    /// Schedules a fault trace for `shard` through the command mailbox
    /// (arming chaos mode on that shard with the default config first, as
    /// [`World::inject_faults`] does).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn inject_faults(&mut self, shard: u32, schedule: &FaultSchedule) {
        if !self.shards[shard_index(shard)].chaos_enabled() {
            self.shards[shard_index(shard)].enable_chaos(ChaosConfig::default());
        }
        for ev in schedule.events() {
            if ev.at < self.now {
                continue;
            }
            self.schedule_command(ev.at, shard, WorldCommand::Fault(ev.kind));
        }
    }

    /// Submits a globally-placed admission: when `at` is released the
    /// front door picks a cluster — home region first, then up to `spill`
    /// neighbouring regions, then the whole fleet — and routes the stream
    /// into that shard's mailbox. Shares the `(at, seq)` total order with
    /// [`ShardedWorld::schedule_command`], so an admission submitted
    /// before a [`ShardedWorld::kill_cluster`] at the same instant still
    /// sees the cluster alive.
    ///
    /// # Panics
    ///
    /// Panics without a front door, if `at` precedes the last completed
    /// barrier, or if `home_region` is out of range.
    pub fn admit_global(&mut self, at: SimTime, home_region: u32, spec: StreamSpec) {
        let fleet = self
            .fleet
            .as_ref()
            .expect("admit_global needs with_front_door");
        assert!(
            home_region < fleet.door.topology().regions(),
            "home region {home_region} out of range"
        );
        let spec = Box::new(spec);
        self.submit(at, PendingOp::Fleet(FleetOp::Admit { home_region, spec }));
    }

    /// Schedules a whole-cluster failure at `at`: the front door drains
    /// the cluster's summary (no further placements land there) and the
    /// shard evacuates every live stream; evacuees are re-placed on
    /// surviving clusters at the next epoch barrier, with downtime and
    /// recovery breakdowns recorded per stream. Killing an already-dead
    /// cluster is a no-op.
    ///
    /// # Panics
    ///
    /// Panics without a front door, if `at` precedes the last completed
    /// barrier, or if `cluster` is out of range.
    pub fn kill_cluster(&mut self, at: SimTime, cluster: ClusterId) {
        assert!(
            (cluster.index()) < self.shards.len(),
            "cluster {id} out of range",
            id = cluster.0
        );
        assert!(self.fleet.is_some(), "kill_cluster needs with_front_door");
        self.submit(at, PendingOp::Fleet(FleetOp::Kill(cluster)));
    }

    /// Runs epochs on `workers` threads until every queue and the mailbox
    /// drain (or `deadline` is reached), then merges the per-shard results.
    /// Returns them with the fleet-tier [`FleetReport`] (all-zero unless a
    /// front door was armed) and the network-tier [`NetReport`] (all-zero
    /// unless a network plane was armed). The worker count — the whole
    /// point — does not affect any of the three, byte for byte.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` precedes the last completed barrier.
    #[must_use]
    pub fn run_net_with_workers(
        mut self,
        deadline: SimTime,
        workers: usize,
    ) -> (RunResults, FleetReport, NetReport) {
        assert!(deadline >= self.now, "deadline behind the barrier");
        // Release order within a barrier is (time, submission seq): direct
        // per-shard commands and fleet ops interleave in one global
        // submission order.
        self.mailbox.sort_by_key(|p| (p.at, p.seq));
        let mut mailbox = std::mem::take(&mut self.mailbox).into_iter().peekable();
        let mut fleet = self.fleet.take();
        let mut net = self.net.take();
        while self.now < deadline {
            let barrier = self
                .now
                .checked_add(EPOCH)
                .unwrap_or(deadline)
                .min(deadline);
            // 0. Advance the link state machines to the epoch's start:
            //    every draw this epoch — control attempts before the run,
            //    exports and heartbeats after — sees the same states.
            if let Some(n) = net.as_mut() {
                n.transport.advance_to(self.now);
            }
            // 1. Release due commands/ops in the global order. Serial and
            //    sorted, so per-shard queue insertion order (and thus event
            //    seq numbers) is identical at any worker count.
            while let Some(p) = mailbox.next_if(|p| p.at <= barrier) {
                let net = net.as_deref_mut();
                match p.op {
                    PendingOp::Command { shard, cmd } => {
                        deliver(&mut self.shards, net, p.at, p.seq, shard, cmd);
                    }
                    // Fleet ops are only submitted with a front door armed.
                    PendingOp::Fleet(op) => {
                        if let Some(f) = fleet.as_deref_mut() {
                            release_fleet_op(f, &mut self.shards, net, p.at, p.seq, op);
                        }
                    }
                }
            }
            // 1b. Pump the control channel: wire attempts due this epoch
            //     deliver into their shard (possibly delayed past the
            //     barrier), retransmit with capped backoff, or give up.
            if let Some(n) = net.as_mut() {
                n.pump_control(barrier, &mut self.shards);
            }
            // 2. Run every shard to the barrier in parallel, then align its
            //    clock, tick its defragmenter and draw its exports' fates —
            //    all shard-local, so workers only decide scheduling, not
            //    behaviour. The epoch starts with a warm pass over the
            //    records its pending events read: the other shards' epochs
            //    evicted them. With every local event ≤ barrier drained and
            //    the clock aligned, the shard is quiescent: the safe instant
            //    for the defragmenter to repack live placements (guard
            //    events it schedules land strictly after the barrier).
            let transport = net.as_ref().map(|n| &n.transport);
            let (shards, exports): (Vec<World>, Vec<RoutedExports>) = par::par_map_with_workers(
                std::mem::take(&mut self.shards),
                workers,
                move |i, mut shard| {
                    shard.warm_until(barrier);
                    shard.run_until(barrier);
                    shard.advance_to(barrier);
                    shard.defrag_epoch();
                    let link = u32::try_from(i).expect("shard count fits u32");
                    let exports = route_exports(shard.take_outbox(), link, barrier, transport);
                    (shard, exports)
                },
            )
            .into_iter()
            .unzip();
            self.shards = shards;
            // 3. Barrier hand-off, serial, in source-shard order. Ring
            //    routing: each shard announces completions to its successor
            //    (the aggregation peer), so every destination has exactly
            //    one source and receives its exports in that source's
            //    canonical order; `par_map` returns results in shard order.
            let k = u32::try_from(self.shards.len()).expect("shard count fits u32");
            for (src, routed) in (0..k).zip(exports) {
                if let Some(n) = net.as_mut() {
                    n.transport.merge_telemetry(&routed.ledger);
                }
                let dest = &mut self.shards[shard_index((src + 1) % k)];
                for (at, latency) in routed.deliveries {
                    dest.schedule_ingest(at, latency);
                }
            }
            // 3b. Heartbeats: each live cluster beacons the fleet over its
            //     uplink; losses starve the lease detector into (possibly
            //     false-positive) suspicions, resumptions reconcile them.
            if let Some(n) = net.as_mut() {
                n.heartbeats(barrier, &self.shards, fleet.as_deref_mut());
            }
            // 4. Fleet barrier duties: collect evacuees, refresh summaries
            //    from the pools' capacity indexes, re-place the displaced.
            //    Serial and order-canonical, like the exchange above.
            if let Some(f) = fleet.as_mut() {
                exchange_fleet(f, &mut self.shards, net.as_deref_mut(), barrier);
            }
            self.now = barrier;
            // Evacuees still waiting in the fleet's retry list do not keep
            // the run going: only capacity released by *running* events can
            // unblock them, and with every queue empty they can never place.
            let net_idle = net.as_ref().is_none_or(|n| n.pending.is_empty());
            if mailbox.peek().is_none()
                && net_idle
                && self.shards.iter().all(|s| s.pending_events() == 0)
            {
                break;
            }
        }
        let end = self.now.max(SimTime::from_nanos(1));
        let parts: Vec<RunResults> = self
            .shards
            .into_iter()
            .map(|shard| shard.finish(end))
            .collect();
        let mut results = RunResults::merge_shards(parts);
        let report = match fleet {
            Some(f) => finish_fleet(*f, &mut results, end),
            None => FleetReport::default(),
        };
        let net_report = match net {
            Some(n) => n.finish(end),
            None => NetReport::default(),
        };
        (results, report, net_report)
    }
}
