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
//!    in exactly one epoch regardless of who else is running.
//! 2. **Align.** Still inside the parallel step, each shard advances its
//!    clock to the barrier (`World::advance_to`), so barrier-time
//!    deliveries are legal on all shards, then runs its defragmenter tick
//!    (`World::defrag_epoch`) and drains its outbox. All of it touches
//!    only that shard.
//! 3. **Exchange.** Serial, like the mailbox release and the fleet and
//!    network duties. Outbound frame exports are concatenated in shard
//!    order and stably sorted by `(time, source shard, stream id)` — a
//!    total order over messages that does not depend on thread
//!    interleaving — then delivered to the destination shards' queues.
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
use microedge_metrics::recovery::{AvailabilityTracker, RecoveryBreakdown, RecoveryRecorder};
use microedge_sim::par;
use microedge_sim::rng::splitmix64;
use microedge_sim::time::{SimDuration, SimTime};

use crate::config::Features;
use crate::defrag::DefragConfig;
use crate::faults::{ChaosConfig, DetectionModel, FaultSchedule, HealPolicy};
use crate::fleet::{ClusterId, ClusterSummary, FrontDoor, PlacementStats};
use crate::net::{NetConfig, NetReport, Transport};
use crate::runtime::{FrameExport, RunResults, StreamId, StreamSpec, World, WorldCommand};
use crate::scheduler::DeployError;

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

/// A control-plane command waiting in the global mailbox.
#[derive(Debug, Clone)]
struct PendingCommand {
    at: SimTime,
    /// Submission order: the tie-breaker for commands at the same instant.
    seq: u64,
    shard: u32,
    cmd: WorldCommand,
}

/// A fleet-level operation waiting for its instant: resolved through the
/// front door when released, sharing the `(at, seq)` total order with the
/// per-shard command mailbox — an admission submitted before a cluster
/// kill still sees that cluster alive.
#[derive(Debug, Clone)]
enum FleetOp {
    /// Admit a stream wherever the front door places it.
    Admit {
        home_region: u32,
        spec: Box<StreamSpec>,
    },
    /// Whole-cluster failure: drain the cluster's summary and evacuate
    /// every stream it serves.
    Kill(ClusterId),
}

#[derive(Debug, Clone)]
struct PendingFleetOp {
    at: SimTime,
    seq: u64,
    op: FleetOp,
}

/// A displaced stream awaiting global re-placement at an epoch barrier.
#[derive(Debug, Clone)]
struct PendingEvacuee {
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
    /// Clusters killed via [`ShardedWorld::kill_cluster`].
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
struct FleetState {
    door: FrontDoor,
    ops: Vec<PendingFleetOp>,
    /// Clusters killed so far — their summaries stay drained (a barrier
    /// refresh would otherwise resurrect them from their idle pools).
    dead: Vec<bool>,
    /// Evacuees the fleet could not re-place yet, FIFO; each carries its
    /// attempt count and jittered-backoff wake-up.
    retry: Vec<PendingEvacuee>,
    /// Backoff ladder between re-placement attempts.
    heal: HealPolicy,
    /// Typed terminal outcomes of abandoned evacuees, in give-up order.
    give_ups: Vec<(StreamId, EvacGiveUp)>,
    /// Open/closed outage spans per evacuated incarnation, by packed id.
    trackers: BTreeMap<StreamId, AvailabilityTracker>,
    /// Fleet-level recovery breakdowns (detection = barrier lag,
    /// rescheduling = barriers spent waiting for capacity).
    recorder: RecoveryRecorder,
    /// Evacuee → re-admitted incarnation, packed ids.
    lineage: Vec<(StreamId, StreamId)>,
    report: FleetReport,
}

/// A control message riding the lossy network: submitted at `at`, it
/// attempts delivery to shard `dest`, retransmitting on loss until the
/// policy's attempt budget runs out.
#[derive(Debug, Clone)]
struct PendingNetCommand {
    /// Submission order — the draw key and the deterministic tie-breaker.
    seq: u64,
    dest: u32,
    /// Wire attempts already made.
    attempts: u32,
    /// Instant of the next attempt.
    next_attempt: SimTime,
    cmd: WorldCommand,
}

/// The network plane of a sharded replay: the message-level [`Transport`]
/// plus the queueing and detector state the barrier loop drives serially —
/// pending control retransmissions, per-link heartbeat bookkeeping, and
/// the bounded-staleness view the front door places against.
#[derive(Debug)]
struct NetPlane {
    transport: Transport,
    detection: DetectionModel,
    staleness_bound: SimDuration,
    /// Control messages awaiting delivery or give-up.
    pending: Vec<PendingNetCommand>,
    /// Detector and refresh state of each cluster's uplink.
    leases: Vec<LinkLease>,
    report: NetReport,
}

/// One uplink's state at the fleet-level lease detector and summary
/// refresh channel.
#[derive(Debug, Clone, Copy)]
struct LinkLease {
    /// Last heartbeat instant heard from the cluster.
    last_heard: SimTime,
    /// Index of the cluster's next heartbeat tick.
    hb_next: u64,
    suspicion: Suspicion,
    /// Last barrier whose summary refresh got through.
    last_refresh: SimTime,
    /// Drained for exceeding the staleness bound.
    stale: bool,
}

impl LinkLease {
    const NEW: Self = Self {
        last_heard: SimTime::ZERO,
        hb_next: 1,
        suspicion: Suspicion::None,
        last_refresh: SimTime::ZERO,
        stale: false,
    };
}

/// Whether a cluster's lease has expired at the fleet-level detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Suspicion {
    None,
    /// A true positive: the cluster really died.
    Dead,
    /// A gray failure: the cluster was alive, only its link was down.
    /// Reconciles when heartbeats resume.
    Gray {
        since: SimTime,
        /// Live streams on the cluster when the suspicion opened.
        affected: u64,
    },
}

/// Domain separator of summary-refresh telemetry keys (frame exports key
/// by send instant and stream id; refreshes by barrier alone).
const REFRESH_KEY_SALT: u64 = 0x5245_4652_4553_4800;

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
    /// Commands not yet released to their owning shard.
    mailbox: Vec<PendingCommand>,
    next_seq: u64,
    exports_routed: u64,
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
            exports_routed: 0,
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
            ops: Vec::new(),
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

    /// Cross-shard frame exports delivered so far.
    #[must_use]
    pub fn exports_routed(&self) -> u64 {
        self.exports_routed
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
            at >= self.now,
            "cannot schedule a command at {at} behind the barrier {now}",
            now = self.now
        );
        assert!(
            shard_index(shard) < self.shards.len(),
            "shard {shard} out of range"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.mailbox.push(PendingCommand {
            at,
            seq,
            shard,
            cmd,
        });
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
        assert!(
            at >= self.now,
            "cannot admit at {at} behind the barrier {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let fleet = self
            .fleet
            .as_mut()
            .expect("admit_global needs with_front_door");
        assert!(
            home_region < fleet.door.topology().regions(),
            "home region {home_region} out of range"
        );
        fleet.ops.push(PendingFleetOp {
            at,
            seq,
            op: FleetOp::Admit {
                home_region,
                spec: Box::new(spec),
            },
        });
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
            at >= self.now,
            "cannot kill at {at} behind the barrier {now}",
            now = self.now
        );
        assert!(
            (cluster.index()) < self.shards.len(),
            "cluster {id} out of range",
            id = cluster.0
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let fleet = self
            .fleet
            .as_mut()
            .expect("kill_cluster needs with_front_door");
        fleet.ops.push(PendingFleetOp {
            at,
            seq,
            op: FleetOp::Kill(cluster),
        });
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
        // Release order within a barrier is (time, submission seq) across
        // BOTH queues: direct per-shard commands and fleet ops interleave
        // in one global submission order.
        self.mailbox.sort_by_key(|p| (p.at, p.seq));
        let mailbox = std::mem::take(&mut self.mailbox);
        let mut fleet = self.fleet.take();
        let mut net = self.net.take();
        if let Some(f) = fleet.as_mut() {
            f.ops.sort_by_key(|p| (p.at, p.seq));
        }
        let mut released = 0;
        let mut fleet_released = 0;
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
            loop {
                let next_direct = mailbox
                    .get(released)
                    .filter(|p| p.at <= barrier)
                    .map(|p| (p.at, p.seq));
                let next_fleet = fleet
                    .as_ref()
                    .and_then(|f| f.ops.get(fleet_released))
                    .filter(|p| p.at <= barrier)
                    .map(|p| (p.at, p.seq));
                let take_direct = match (next_direct, next_fleet) {
                    (None, None) => break,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (Some(d), Some(f)) => d < f,
                };
                if take_direct {
                    let p = &mailbox[released];
                    released += 1;
                    match net.as_mut() {
                        Some(n) => n.submit_control(p.at, p.seq, p.shard, p.cmd.clone()),
                        None => {
                            self.shards[shard_index(p.shard)].schedule_command(p.at, p.cmd.clone())
                        }
                    }
                } else {
                    let f = fleet.as_mut().expect("fleet op implies fleet state");
                    let p = f.ops[fleet_released].clone();
                    fleet_released += 1;
                    release_fleet_op(f, &mut self.shards, net.as_deref_mut(), &p);
                }
            }
            // 1b. Pump the control channel: wire attempts due this epoch
            //     deliver into their shard (possibly delayed past the
            //     barrier), retransmit with capped backoff, or give up.
            if let Some(n) = net.as_mut() {
                n.pump_control(barrier, &mut self.shards);
            }
            // 2. Run every shard to the barrier in parallel, then align its
            //    clock, tick its defragmenter and drain its outbox — all
            //    shard-local, so workers only decide scheduling, not
            //    behaviour. With every local event ≤ barrier drained and
            //    the clock aligned, the shard is quiescent: the safe instant
            //    for the defragmenter to repack live placements (guard
            //    events it schedules land strictly after the barrier).
            let (shards, outboxes): (Vec<World>, Vec<Vec<FrameExport>>) =
                par::par_map_with_workers(
                    std::mem::take(&mut self.shards),
                    workers,
                    move |_, mut shard| {
                        shard.run_until(barrier);
                        shard.advance_to(barrier);
                        shard.defrag_epoch();
                        let outbox = shard.take_outbox();
                        (shard, outbox)
                    },
                )
                .into_iter()
                .unzip();
            self.shards = shards;
            // 3. Barrier exchange, serial: messages in a canonical (time,
            //    source shard, stream) order. `par_map` returns results in
            //    shard order and the sort is stable.
            let mut msgs: Vec<(u32, FrameExport)> = Vec::new();
            for (i, outbox) in outboxes.into_iter().enumerate() {
                let src = u32::try_from(i).expect("shard count fits u32");
                msgs.extend(outbox.into_iter().map(|e| (src, e)));
            }
            msgs.sort_by_key(|(src, e)| (e.at, *src, e.stream));
            let k = u32::try_from(self.shards.len()).expect("shard count fits u32");
            for (src, e) in msgs {
                // Ring routing: each shard announces completions to its
                // successor (the aggregation peer). Exports complete inside
                // the epoch but their record instant can overhang the
                // barrier (client post-processing); deliver at that instant,
                // never before the barrier the receiver sits at. Under the
                // network plane the export rides the source's uplink:
                // best-effort — a drop is counted, never retransmitted — and
                // a degraded link's extra delay pushes delivery to a later
                // instant (released at a later barrier, still in the
                // canonical order this serial loop imposes).
                let dest = (src + 1) % k;
                let delivery = match net.as_mut() {
                    Some(n) => {
                        let key = e.at.as_nanos().wrapping_add(splitmix64(e.stream.0));
                        n.transport
                            .send_telemetry(src, key)
                            .map(|t| (e.at + t.extra).max(barrier))
                    }
                    None => Some(e.at.max(barrier)),
                };
                if let Some(at) = delivery {
                    self.shards[shard_index(dest)].schedule_ingest(at, e.latency);
                    self.exports_routed += 1;
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
            let ops_done = fleet.as_ref().is_none_or(|f| {
                // Evacuees that found no home retry at later barriers, but
                // only capacity released by *running* events can unblock
                // them — with every queue empty they can never place.
                fleet_released >= f.ops.len()
            });
            let net_idle = net.as_ref().is_none_or(|n| n.pending.is_empty());
            if released >= mailbox.len()
                && ops_done
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

impl NetPlane {
    /// Admits a released control command to its destination's uplink, or
    /// sheds it when the link's in-flight window is full (the typed error
    /// is counted; the command simply never reaches the shard).
    fn submit_control(&mut self, at: SimTime, seq: u64, dest: u32, cmd: WorldCommand) {
        if self.transport.submit_control(dest).is_ok() {
            self.pending.push(PendingNetCommand {
                seq,
                dest,
                attempts: 0,
                next_attempt: at,
                cmd,
            });
        }
    }

    /// Resolves every wire attempt due by `barrier`, in deterministic
    /// `(next_attempt, seq)` order: a surviving attempt delivers the
    /// command into its shard (at the attempt instant plus the link's
    /// extra delay — possibly past the barrier, firing next epoch); a lost
    /// attempt backs off and retries, until the budget forces the typed
    /// give-up.
    fn pump_control(&mut self, barrier: SimTime, shards: &mut [World]) {
        if self.pending.is_empty() {
            return;
        }
        self.pending.sort_by_key(|p| (p.next_attempt, p.seq));
        let policy = self.transport.policy();
        let mut still = Vec::new();
        for mut p in std::mem::take(&mut self.pending) {
            let mut resolved = false;
            while p.next_attempt <= barrier {
                p.attempts += 1;
                match self.transport.control_attempt(p.dest, p.seq, p.attempts) {
                    Some(t) => {
                        self.transport.control_delivered(p.dest, t.reordered);
                        shards[shard_index(p.dest)]
                            .schedule_command(p.next_attempt + t.extra, p.cmd.clone());
                        resolved = true;
                        break;
                    }
                    None if p.attempts >= policy.max_attempts => {
                        let _typed = self.transport.control_gave_up(p.dest, p.attempts);
                        resolved = true;
                        break;
                    }
                    None => {
                        p.next_attempt += policy.backoff(p.attempts);
                    }
                }
            }
            if !resolved {
                still.push(p);
            }
        }
        self.pending = still;
    }

    /// Emits every heartbeat tick due by `barrier` (dead clusters stay
    /// silent), then updates the lease detector: a cluster silent past the
    /// lease becomes suspect — a *gray* suspicion if the cluster is in
    /// fact alive, draining its summary so placements avoid it and opening
    /// a suspicion span on its streams; heard-again gray suspects
    /// reconcile, closing the span.
    fn heartbeats(
        &mut self,
        barrier: SimTime,
        shards: &[World],
        mut fleet: Option<&mut FleetState>,
    ) {
        let hb = self.detection.heartbeat;
        if hb.is_zero() {
            return;
        }
        let links = shards
            .iter()
            .zip(&mut self.leases)
            .zip(&mut self.report.suspicion_ns);
        for (link, ((shard, lease), suspicion_ns)) in links.enumerate() {
            let l = u32::try_from(link).expect("shard count fits u32");
            let dead = fleet.as_ref().is_some_and(|f| f.dead[link]);
            loop {
                let tick_idx = lease.hb_next;
                let tick = SimTime::from_nanos(hb.as_nanos().saturating_mul(tick_idx));
                if tick > barrier {
                    break;
                }
                lease.hb_next += 1;
                if dead {
                    continue;
                }
                if self.transport.send_heartbeat(l, tick_idx) {
                    lease.last_heard = tick;
                }
            }
            let lapsed = barrier.saturating_since(lease.last_heard) > self.detection.lease;
            match lease.suspicion {
                Suspicion::None if lapsed => {
                    self.report.detection.detections += 1;
                    if dead {
                        // Its outage accounting already rides the
                        // evacuation trackers.
                        lease.suspicion = Suspicion::Dead;
                    } else {
                        self.report.detection.false_positives += 1;
                        let streams =
                            u64::try_from(shard.active_streams()).expect("stream count fits u64");
                        lease.suspicion = Suspicion::Gray {
                            since: barrier,
                            affected: streams,
                        };
                        self.report.detection.suspected_streams += streams;
                        if let Some(f) = fleet.as_mut() {
                            f.door.drain(ClusterId(l));
                        }
                    }
                }
                Suspicion::Gray { since, affected } if !dead && !lapsed => {
                    lease.suspicion = Suspicion::None;
                    self.report.detection.reconciliations += 1;
                    self.report.detection.reconciled_streams += affected;
                    *suspicion_ns += barrier.saturating_since(since).as_nanos();
                    // The summary itself is restored by the next delivered
                    // refresh (`exchange_fleet`), which can run this barrier.
                }
                _ => {}
            }
        }
    }

    /// Closes still-open gray suspicion spans and freezes the ledgers.
    fn finish(mut self: Box<Self>, end: SimTime) -> NetReport {
        for (lease, suspicion_ns) in self.leases.iter().zip(&mut self.report.suspicion_ns) {
            if let Suspicion::Gray { since, .. } = lease.suspicion {
                *suspicion_ns += end.saturating_since(since).as_nanos();
            }
        }
        self.report.stats = *self.transport.stats();
        self.report
    }
}

/// Resolves one fleet op at its release instant (serial, in the global
/// `(at, seq)` order — deterministic at any worker count).
fn release_fleet_op(
    f: &mut FleetState,
    shards: &mut [World],
    net: Option<&mut NetPlane>,
    p: &PendingFleetOp,
) {
    match &p.op {
        FleetOp::Admit { home_region, spec } => {
            // Shard 0 hosts the profiling service: every cluster shares
            // the model catalog, so any shard's estimate is the fleet's.
            let demand = match shards[0].estimate_demand(spec) {
                Ok(d) => d,
                Err(_) => {
                    f.report.admit_rejected += 1;
                    return;
                }
            };
            match f.door.admit(*home_region, demand) {
                Some(placement) => {
                    // The deploy command rides the destination's uplink:
                    // under the network plane it can be delayed, shed at a
                    // saturated window, or given up after the retransmit
                    // budget — the placement debit stands either way (a
                    // capacity leak the next summary refresh corrects).
                    let dest = placement.cluster.0;
                    let cmd = WorldCommand::Admit(spec.clone());
                    match net {
                        Some(n) => n.submit_control(p.at, p.seq, dest, cmd),
                        None => shards[shard_index(dest)].schedule_command(p.at, cmd),
                    }
                }
                None => f.report.admit_rejected += 1,
            }
        }
        FleetOp::Kill(cluster) => {
            // A cluster death is not a message — nothing rides the network.
            let slot = &mut f.dead[cluster.index()];
            if !*slot {
                *slot = true;
                f.door.drain(*cluster);
                shards[cluster.index()].schedule_command(p.at, WorldCommand::Evacuate);
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
fn exchange_fleet(
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
fn finish_fleet(f: FleetState, results: &mut RunResults, end: SimTime) -> FleetReport {
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

#[cfg(test)]
mod tests {
    use microedge_cluster::topology::ClusterBuilder;

    use super::*;
    use crate::net::{DegradedLink, LinkSchedule, LinkState};

    /// Replays `sw` on the worker count the environment asks for.
    fn run(sw: ShardedWorld, deadline: SimTime) -> (RunResults, FleetReport, NetReport) {
        let workers = par::worker_count(sw.shards.len());
        sw.run_net_with_workers(deadline, workers)
    }

    fn cluster(trpis: u32) -> Cluster {
        ClusterBuilder::new().trpis(trpis).vrpis(4).build()
    }

    fn spec(name: &str, frames: u64) -> StreamSpec {
        StreamSpec::builder(name, "ssd-mobilenet-v2")
            .frame_limit(frames)
            .build()
    }

    #[test]
    fn shards_run_independently_and_merge() {
        let mut sw = ShardedWorld::new((0..3).map(|_| cluster(1)), Features::all());
        for shard in 0..3 {
            sw.admit_stream(shard, spec(&format!("cam-{shard}"), 45))
                .unwrap();
        }
        let results = run(sw, SimTime::from_secs(30)).0;
        assert_eq!(results.reports().len(), 3);
        assert!(results.all_met_fps());
        // Ids are remapped per shard.
        for shard in 0..3u32 {
            let id = StreamId(0).with_shard(shard);
            assert_eq!(results.report(id).unwrap().completed(), 45);
        }
        assert_eq!(results.used_tpus(), 3);
    }

    #[test]
    fn exports_ring_route_to_the_next_shard() {
        let mut sw = ShardedWorld::new((0..2).map(|_| cluster(1)), Features::all());
        sw.admit_stream(
            0,
            StreamSpec::builder("exporter", "ssd-mobilenet-v2")
                .frame_limit(30)
                .export_completions(true)
                .build(),
        )
        .unwrap();
        sw.admit_stream(1, spec("quiet", 30)).unwrap();
        let exported = {
            let results = run(sw, SimTime::from_secs(10)).0;
            results.remote_ingest().count()
        };
        // Every completion of the export-flagged stream (and only those)
        // crossed the barrier into shard 1's ingest sketch.
        assert_eq!(exported, 30);
    }

    #[test]
    fn commands_fire_at_their_instant_in_submission_order() {
        let mut sw = ShardedWorld::new(vec![cluster(1)], Features::all());
        let cam = sw.admit_stream(0, spec("cam", 1_000)).unwrap();
        // Removing twice at the same instant: the first wins, the second
        // fails and is counted.
        let at = SimTime::from_secs(2);
        sw.schedule_command(at, 0, WorldCommand::Remove(cam.local));
        sw.schedule_command(at, 0, WorldCommand::Remove(cam.local));
        let results = run(sw, SimTime::from_secs(60)).0;
        assert_eq!(results.commands_failed(), 1);
        // ~2 s at 15 FPS: far fewer than 1 000 frames completed.
        let completed = results.report(cam.packed()).unwrap().completed();
        assert!((25..40).contains(&completed), "completed {completed}");
    }

    #[test]
    fn mid_run_admission_rides_the_mailbox() {
        let mut sw = ShardedWorld::new(vec![cluster(1)], Features::all());
        sw.schedule_command(
            SimTime::from_secs(1),
            0,
            WorldCommand::Admit(Box::new(spec("late", 15))),
        );
        let results = run(sw, SimTime::from_secs(30)).0;
        assert_eq!(results.commands_failed(), 0);
        assert_eq!(results.reports().len(), 1);
        assert_eq!(results.reports()[0].completed(), 15);
    }

    #[test]
    fn single_shard_matches_plain_world() {
        // The differential oracle in miniature: a 1-shard sharded world is
        // byte-identical to the plain World it wraps.
        let build = || {
            let mut w = World::new(cluster(2), Features::all());
            for i in 0..4 {
                w.admit_stream(spec(&format!("cam-{i}"), 60)).unwrap();
            }
            w
        };
        let deadline = SimTime::from_secs(30);
        let mut sw = ShardedWorld::new(vec![cluster(2)], Features::all());
        for i in 0..4 {
            sw.admit_stream(0, spec(&format!("cam-{i}"), 60)).unwrap();
        }
        let sharded = run(sw, deadline).0;
        let mut plain = build();
        plain.run_until(deadline);
        let oracle = plain.finish(sharded.end());
        assert_eq!(format!("{oracle:?}"), format!("{sharded:?}"));
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let build = || {
            let mut sw = ShardedWorld::new((0..4).map(|_| cluster(1)), Features::all());
            for shard in 0..4 {
                sw.admit_stream(
                    shard,
                    StreamSpec::builder(&format!("cam-{shard}"), "ssd-mobilenet-v2")
                        .frame_limit(40)
                        .export_completions(shard.is_multiple_of(2))
                        .build(),
                )
                .unwrap();
            }
            sw
        };
        let deadline = SimTime::from_secs(20);
        let serial = format!("{:?}", build().run_net_with_workers(deadline, 1).0);
        for workers in [2, 8] {
            let parallel = format!("{:?}", build().run_net_with_workers(deadline, workers).0);
            assert_eq!(serial, parallel, "diverged at {workers} workers");
        }
    }

    #[test]
    #[should_panic(expected = "behind the barrier")]
    fn commands_cannot_be_scheduled_in_the_past() {
        let mut sw = ShardedWorld::new(vec![cluster(1)], Features::all());
        sw.now = SimTime::from_secs(5);
        sw.schedule_command(SimTime::from_secs(1), 0, WorldCommand::Remove(StreamId(0)));
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn packed_ids_reject_overflowing_shard_indexes() {
        // Satellite guard: the shard field is 24 bits wide.
        let _ = StreamId(0).with_shard(1 << 24);
    }

    // ───────────────────────── fleet tier ─────────────────────────

    #[test]
    fn front_door_places_home_first_then_spills() {
        // 4 one-TPU clusters in 2 regions; each cluster hosts two
        // 0.35-unit streams. Five admissions homed in region 0 fill its
        // two clusters (4 homes) and spill the fifth into region 1.
        let mut sw =
            ShardedWorld::new((0..4).map(|_| cluster(1)), Features::all()).with_front_door(2, 1);
        for i in 0..5 {
            sw.admit_global(SimTime::ZERO, 0, spec(&format!("cam-{i}"), 30));
        }
        let (results, report, _) = run(sw, SimTime::from_secs(30));
        assert_eq!(results.reports().len(), 5);
        assert!(results.all_met_fps());
        assert_eq!(report.placement.admitted, 5);
        assert_eq!(report.placement.home, 4);
        assert_eq!(report.placement.spills, 1);
        assert_eq!(report.placement.fallbacks, 0);
        assert_eq!(report.admit_rejected, 0);
        // The spilled stream landed in region 1 (clusters 2..4).
        let spilled: usize = (2..4)
            .map(|shard| {
                (0..2)
                    .filter(|i| results.report(StreamId(*i).with_shard(shard)).is_some())
                    .count()
            })
            .sum();
        assert_eq!(spilled, 1);
    }

    #[test]
    fn front_door_rejects_when_the_fleet_is_full() {
        let mut sw = ShardedWorld::new(vec![cluster(1)], Features::all()).with_front_door(1, 0);
        for i in 0..3 {
            sw.admit_global(SimTime::ZERO, 0, spec(&format!("cam-{i}"), 15));
        }
        // An unknown model is rejected at demand estimation.
        sw.admit_global(
            SimTime::ZERO,
            0,
            StreamSpec::builder("mystery", "not-a-model")
                .frame_limit(15)
                .build(),
        );
        let (results, report, _) = run(sw, SimTime::from_secs(30));
        assert_eq!(results.reports().len(), 2);
        assert_eq!(report.placement.admitted, 2);
        assert_eq!(report.placement.rejections, 1);
        assert_eq!(report.admit_rejected, 2);
    }

    #[test]
    fn front_door_sees_load_admitted_before_arming() {
        let mut sw = ShardedWorld::new((0..2).map(|_| cluster(1)), Features::all());
        sw.admit_stream(0, spec("pre-0", 30)).unwrap();
        sw.admit_stream(0, spec("pre-1", 30)).unwrap();
        let mut sw = sw.with_front_door(1, 0);
        sw.admit_global(SimTime::ZERO, 0, spec("late", 30));
        let (results, report, _) = run(sw, SimTime::from_secs(30));
        // Cluster 0 was already full at arming time, so the global
        // admission lands on cluster 1 — without waiting for a barrier
        // refresh.
        assert_eq!(report.placement.home, 1);
        assert!(results.report(StreamId(0).with_shard(1)).is_some());
    }

    #[test]
    fn killed_cluster_evacuates_and_readmits_on_a_survivor() {
        let mut sw =
            ShardedWorld::new((0..2).map(|_| cluster(1)), Features::all()).with_front_door(1, 0);
        sw.admit_global(SimTime::ZERO, 0, spec("cam", 1_000));
        let fault_at = SimTime::from_millis(2_200);
        sw.kill_cluster(fault_at, ClusterId(0));
        let deadline = SimTime::from_secs(10);
        let (results, report, _) = sw.run_net_with_workers(deadline, 1);
        assert_eq!(report.clusters_killed, 1);
        assert_eq!(report.evacuated, 1);
        assert_eq!(report.readmitted, 1);
        assert_eq!(report.unplaced, 0);
        // Lineage: the origin incarnation on shard 0 was superseded by a
        // fresh stream on shard 1.
        let origin = StreamId(0).with_shard(0);
        let successor = StreamId(0).with_shard(1);
        assert_eq!(results.successor(origin), Some(successor));
        // Both incarnations made progress.
        assert!(results.report(origin).unwrap().completed() > 0);
        assert!(results.report(successor).unwrap().completed() > 0);
        // Downtime spans fault (2.2 s) to the re-admitting barrier
        // (2.5 s): 300 ms, one restart, not lost.
        let avail = &results.availabilities()[&origin];
        assert_eq!(avail.downtime, SimDuration::from_millis(300));
        assert_eq!(avail.restarts, 1);
        assert!(!avail.lost);
        assert_eq!(avail.outages, 1);
        // The fleet recovery breakdown: detection 300 ms (barrier lag),
        // zero rescheduling (placed at the detecting barrier).
        assert_eq!(results.recovery().count(), 1);
    }

    #[test]
    fn evacuees_with_nowhere_to_go_are_lost() {
        let mut sw =
            ShardedWorld::new((0..2).map(|_| cluster(1)), Features::all()).with_front_door(1, 0);
        sw.admit_global(SimTime::ZERO, 0, spec("doomed", 1_000));
        let fault_at = SimTime::from_millis(2_200);
        sw.kill_cluster(fault_at, ClusterId(0));
        sw.kill_cluster(fault_at, ClusterId(1));
        let (results, report, _) = sw.run_net_with_workers(SimTime::from_secs(10), 1);
        assert_eq!(report.clusters_killed, 2);
        assert_eq!(report.evacuated, 1);
        assert_eq!(report.readmitted, 0);
        assert_eq!(report.unplaced, 1);
        let avail = &results.availabilities()[&StreamId(0).with_shard(0)];
        assert!(avail.lost);
        assert!(avail.downtime > SimDuration::ZERO);
    }

    #[test]
    fn killing_a_dead_cluster_is_a_no_op() {
        let mut sw =
            ShardedWorld::new((0..2).map(|_| cluster(1)), Features::all()).with_front_door(1, 0);
        sw.admit_global(SimTime::ZERO, 0, spec("cam", 60));
        sw.kill_cluster(SimTime::from_secs(1), ClusterId(0));
        sw.kill_cluster(SimTime::from_secs(2), ClusterId(0));
        let (_, report, _) = run(sw, SimTime::from_secs(30));
        assert_eq!(report.clusters_killed, 1);
        assert_eq!(report.evacuated, 1);
    }

    #[test]
    fn fleet_runs_are_worker_invariant() {
        let build = || {
            let mut sw = ShardedWorld::new((0..4).map(|_| cluster(1)), Features::all())
                .with_front_door(2, 1);
            for i in 0..6 {
                sw.admit_global(
                    SimTime::from_millis(200 * i),
                    u32::try_from(i % 2).expect("region fits"),
                    StreamSpec::builder(&format!("cam-{i}"), "ssd-mobilenet-v2")
                        .frame_limit(80)
                        .export_completions(i.is_multiple_of(2))
                        .build(),
                );
            }
            sw.kill_cluster(SimTime::from_millis(3_300), ClusterId(0));
            sw
        };
        let deadline = SimTime::from_secs(20);
        let serial = {
            let (results, report, _) = build().run_net_with_workers(deadline, 1);
            format!("{results:?}|{report:?}")
        };
        for workers in [2, 8] {
            let (results, report, _) = build().run_net_with_workers(deadline, workers);
            let parallel = format!("{results:?}|{report:?}");
            assert_eq!(serial, parallel, "diverged at {workers} workers");
        }
    }

    #[test]
    fn healthy_network_matches_the_no_net_run() {
        // Tier 0 of the net plane is the differential oracle: all-healthy
        // links must reproduce the pre-net run byte for byte.
        let build = |net: bool| {
            let mut sw = ShardedWorld::new((0..2).map(|_| cluster(1)), Features::all())
                .with_front_door(1, 0);
            if net {
                sw = sw.with_network(NetConfig::new(LinkSchedule::scripted(Vec::new())));
            }
            for i in 0..2u32 {
                sw.admit_stream(
                    i,
                    StreamSpec::builder(&format!("cam-{i}"), "ssd-mobilenet-v2")
                        .frame_limit(60)
                        .export_completions(true)
                        .build(),
                )
                .unwrap();
            }
            sw.admit_global(SimTime::from_secs(1), 0, spec("late", 30));
            sw
        };
        let deadline = SimTime::from_secs(20);
        let (plain_r, plain_f, plain_n) = build(false).run_net_with_workers(deadline, 1);
        let (net_r, net_f, net_n) = build(true).run_net_with_workers(deadline, 1);
        assert_eq!(
            format!("{plain_r:?}|{plain_f:?}"),
            format!("{net_r:?}|{net_f:?}")
        );
        assert_eq!(plain_n, NetReport::default());
        // The armed plane carried real traffic — losslessly.
        assert!(net_n.stats.control.sent >= 1);
        assert_eq!(net_n.stats.control.delivered, net_n.stats.control.sent);
        assert!(net_n.stats.telemetry.sent > 0);
        assert_eq!(net_n.stats.telemetry.dropped, 0);
        assert!(net_n.stats.heartbeat.sent > 0);
        assert_eq!(net_n.stats.conservation_violations(), 0);
        assert_eq!(net_n.detection.detections, 0);
    }

    #[test]
    fn partitioned_uplink_drops_exports_and_suspects_the_cluster() {
        let schedule = LinkSchedule::scripted(vec![(SimTime::ZERO, 0, LinkState::Partitioned)]);
        let mut sw = ShardedWorld::new((0..2).map(|_| cluster(1)), Features::all())
            .with_network(NetConfig::new(schedule));
        sw.admit_stream(
            0,
            StreamSpec::builder("cam", "ssd-mobilenet-v2")
                .frame_limit(1_000)
                .export_completions(true)
                .build(),
        )
        .unwrap();
        let (_, _, net) = sw.run_net_with_workers(SimTime::from_secs(20), 1);
        // Best effort: every export was attempted, none arrived, all were
        // counted — and never retransmitted.
        assert!(net.stats.telemetry.sent > 0);
        assert_eq!(net.stats.telemetry.delivered, 0);
        assert_eq!(net.stats.telemetry.dropped, net.stats.telemetry.sent);
        assert_eq!(net.stats.telemetry.retransmits, 0);
        assert_eq!(net.stats.conservation_violations(), 0);
        // The silent uplink starved the lease detector into suspecting a
        // perfectly alive cluster.
        assert!(net.detection.false_positives >= 1);
        assert!(net.suspicion_ns[0] > 0);
    }

    #[test]
    fn control_retransmits_across_a_flap_and_delivers() {
        let schedule = LinkSchedule::scripted(vec![
            (SimTime::ZERO, 0, LinkState::Partitioned),
            (SimTime::from_millis(2_500), 0, LinkState::Healthy),
        ]);
        let mut sw = ShardedWorld::new(vec![cluster(1)], Features::all())
            .with_network(NetConfig::new(schedule));
        sw.schedule_command(
            SimTime::from_secs(1),
            0,
            WorldCommand::Admit(Box::new(spec("late", 15))),
        );
        let (results, _, net) = sw.run_net_with_workers(SimTime::from_secs(30), 1);
        assert_eq!(net.stats.control.sent, 1);
        assert_eq!(net.stats.control.delivered, 1);
        assert!(net.stats.control.retransmits >= 1);
        assert_eq!(net.stats.control.gave_up, 0);
        assert_eq!(net.stats.conservation_violations(), 0);
        // The admission arrived late but intact.
        assert_eq!(results.reports().len(), 1);
        assert_eq!(results.reports()[0].completed(), 15);
    }

    #[test]
    fn control_gives_up_under_a_permanent_partition() {
        let schedule = LinkSchedule::scripted(vec![(SimTime::ZERO, 0, LinkState::Partitioned)]);
        let mut sw = ShardedWorld::new(vec![cluster(1)], Features::all())
            .with_network(NetConfig::new(schedule));
        sw.schedule_command(
            SimTime::from_secs(1),
            0,
            WorldCommand::Admit(Box::new(spec("doomed", 15))),
        );
        let (results, _, net) = sw.run_net_with_workers(SimTime::from_secs(60), 1);
        assert_eq!(net.stats.control.sent, 1);
        assert_eq!(net.stats.control.delivered, 0);
        assert_eq!(net.stats.control.gave_up, 1);
        // Exactly-once-or-typed-give-up, never silent loss.
        assert_eq!(net.stats.conservation_violations(), 0);
        assert!(results.reports().is_empty());
    }

    #[test]
    fn gray_failure_suspects_then_reconciles() {
        // The cluster never dies — only its uplink does. The detector
        // false-positives, the door drains the cluster, and the resumed
        // heartbeats reconcile every affected stream.
        let schedule = LinkSchedule::scripted(vec![
            (SimTime::from_secs(2), 0, LinkState::Partitioned),
            (SimTime::from_secs(8), 0, LinkState::Healthy),
        ]);
        let mut sw = ShardedWorld::new((0..2).map(|_| cluster(1)), Features::all())
            .with_front_door(1, 0)
            .with_network(NetConfig::new(schedule));
        sw.admit_stream(0, spec("cam", 10_000)).unwrap();
        let (results, report, net) = sw.run_net_with_workers(SimTime::from_secs(20), 1);
        assert!(net.detection.detections >= 1);
        assert!(net.detection.false_positives >= 1);
        assert!(net.detection.reconciliations >= 1);
        assert_eq!(
            net.detection.reconciled_streams,
            net.detection.suspected_streams
        );
        assert!(net.suspicion_ns[0] > 0);
        assert_eq!(net.suspicion_ns[1], 0);
        // Gray: nothing was actually evacuated or lost; the stream kept
        // completing frames throughout the suspicion.
        assert_eq!(report.evacuated, 0);
        let origin = StreamId(0).with_shard(0);
        assert!(results.report(origin).unwrap().completed() > 0);
    }

    #[test]
    fn stale_summaries_drain_and_restore() {
        // A lease too long to suspect, a partition long enough to trip the
        // staleness bound: the door drains the unheard-from cluster, then
        // restores it on the first delivered refresh.
        let schedule = LinkSchedule::scripted(vec![
            (SimTime::from_secs(2), 0, LinkState::Partitioned),
            (SimTime::from_secs(10), 0, LinkState::Healthy),
        ]);
        let mut cfg = NetConfig::new(schedule);
        cfg.detection = DetectionModel {
            heartbeat: SimDuration::from_secs(1),
            lease: SimDuration::from_secs(30),
        };
        let mut sw = ShardedWorld::new((0..2).map(|_| cluster(1)), Features::all())
            .with_front_door(1, 0)
            .with_network(cfg);
        sw.admit_stream(0, spec("cam", 10_000)).unwrap();
        let (_, _, net) = sw.run_net_with_workers(SimTime::from_secs(20), 1);
        assert_eq!(net.detection.detections, 0);
        assert!(net.stale_drains >= 1);
        assert!(net.stale_restores >= 1);
    }

    #[test]
    fn evacuees_exhaust_their_retry_budget_and_give_up() {
        let mut sw =
            ShardedWorld::new((0..2).map(|_| cluster(1)), Features::all()).with_front_door(1, 0);
        // Fill the survivor so the evacuee never fits, with long-lived
        // streams so barriers keep coming and the retry ladder plays out.
        for i in 0..2u32 {
            sw.admit_stream(1, spec(&format!("busy-{i}"), 10_000))
                .unwrap();
        }
        sw.admit_stream(0, spec("victim", 10_000)).unwrap();
        sw.kill_cluster(SimTime::from_millis(2_200), ClusterId(0));
        let (results, report, _) = sw.run_net_with_workers(SimTime::from_secs(60), 1);
        assert_eq!(report.evacuated, 1);
        assert_eq!(report.readmitted, 0);
        assert_eq!(report.gave_up, 1);
        assert_eq!(report.unplaced, 1);
        let avail = &results.availabilities()[&StreamId(0).with_shard(0)];
        assert!(avail.lost);
    }

    #[test]
    fn net_runs_are_worker_invariant() {
        let build = || {
            let schedule = LinkSchedule::scripted(vec![
                (
                    SimTime::from_millis(1_500),
                    0,
                    LinkState::Degraded(DegradedLink::lossy(100_000)),
                ),
                (SimTime::from_secs(6), 0, LinkState::Healthy),
                (SimTime::from_millis(2_500), 2, LinkState::Partitioned),
                (SimTime::from_secs(9), 2, LinkState::Healthy),
            ]);
            let mut sw = ShardedWorld::new((0..4).map(|_| cluster(1)), Features::all())
                .with_front_door(2, 1)
                .with_network(NetConfig::new(schedule));
            for i in 0..6u64 {
                sw.admit_global(
                    SimTime::from_millis(200 * i),
                    u32::try_from(i % 2).expect("region fits"),
                    StreamSpec::builder(&format!("cam-{i}"), "ssd-mobilenet-v2")
                        .frame_limit(80)
                        .export_completions(i.is_multiple_of(2))
                        .build(),
                );
            }
            sw.kill_cluster(SimTime::from_millis(3_300), ClusterId(0));
            sw
        };
        let deadline = SimTime::from_secs(20);
        let serial = {
            let (r, f, n) = build().run_net_with_workers(deadline, 1);
            format!("{r:?}|{f:?}|{n:?}")
        };
        for workers in [2, 8] {
            let (r, f, n) = build().run_net_with_workers(deadline, workers);
            let parallel = format!("{r:?}|{f:?}|{n:?}");
            assert_eq!(serial, parallel, "diverged at {workers} workers");
        }
    }
}
