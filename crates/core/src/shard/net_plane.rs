//! The network plane of a sharded replay: the lossy [`Transport`] that
//! cross-shard traffic rides, the control channel's retransmissions, the
//! heartbeat lease detector with its gray-failure suspicions, and the
//! per-epoch draw of each shard's export fates.

use microedge_metrics::net::ChannelStats;
use microedge_sim::rng::splitmix64;
use microedge_sim::time::{SimDuration, SimTime};

use super::fleet_duties::FleetState;
use super::shard_index;
use crate::faults::DetectionModel;
use crate::fleet::ClusterId;
use crate::net::{count_telemetry, NetReport, Transport};
use crate::runtime::{FrameExport, World, WorldCommand};

/// A control message riding the lossy network: submitted at `at`, it
/// attempts delivery to shard `dest`, retransmitting on loss until the
/// policy's attempt budget runs out.
#[derive(Debug, Clone)]
pub(super) struct PendingNetCommand {
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
pub(super) struct NetPlane {
    pub(super) transport: Transport,
    pub(super) detection: DetectionModel,
    pub(super) staleness_bound: SimDuration,
    /// Control messages awaiting delivery or give-up.
    pub(super) pending: Vec<PendingNetCommand>,
    /// Detector and refresh state of each cluster's uplink.
    pub(super) leases: Vec<LinkLease>,
    pub(super) report: NetReport,
}

/// One uplink's state at the fleet-level lease detector and summary
/// refresh channel.
#[derive(Debug, Clone, Copy)]
pub(super) struct LinkLease {
    /// Last heartbeat instant heard from the cluster.
    last_heard: SimTime,
    /// Index of the cluster's next heartbeat tick.
    hb_next: u64,
    pub(super) suspicion: Suspicion,
    /// Last barrier whose summary refresh got through.
    pub(super) last_refresh: SimTime,
    /// Drained for exceeding the staleness bound.
    pub(super) stale: bool,
}

impl LinkLease {
    pub(super) const NEW: Self = Self {
        last_heard: SimTime::ZERO,
        hb_next: 1,
        suspicion: Suspicion::None,
        last_refresh: SimTime::ZERO,
        stale: false,
    };
}

/// Whether a cluster's lease has expired at the fleet-level detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Suspicion {
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
pub(super) const REFRESH_KEY_SALT: u64 = 0x5245_4652_4553_4800;

/// One source shard's exports of an epoch, fates drawn: what the serial
/// hand-off schedules into the destination, and the telemetry it counts.
#[derive(Debug)]
pub(super) struct RoutedExports {
    /// `(delivery instant, announced latency)` of each surviving export,
    /// in the source's canonical `(completion, stream)` order.
    pub(super) deliveries: Vec<(SimTime, SimDuration)>,
    /// Sent, delivered, dropped and reordered counts (all zero without a
    /// network plane).
    pub(super) ledger: ChannelStats,
}

/// The per-source half of the export exchange, run on the source shard's
/// worker. Sorts the outbox by `(completion, stream)` (stable), then draws
/// each export's fate on the source's uplink `link`. An export completes
/// inside the epoch, but its record instant can overhang the barrier
/// (client post-processing); it is delivered at that instant, never before
/// the barrier the receiver sits at. Under the network plane it is best
/// effort: a drop is counted, never retransmitted, and a degraded link's
/// extra delay pushes delivery to a later instant (released at a later
/// barrier). Each draw is a pure function of `(completion, stream)` and
/// the link state frozen at the epoch start, so no shared state is
/// touched.
pub(super) fn route_exports(
    mut outbox: Vec<FrameExport>,
    link: u32,
    barrier: SimTime,
    transport: Option<&Transport>,
) -> RoutedExports {
    outbox.sort_by_key(|e| (e.at, e.stream));
    let mut ledger = ChannelStats::default();
    let deliveries = outbox
        .iter()
        .filter_map(|e| {
            let extra = match transport {
                Some(t) => {
                    let key = e.at.as_nanos().wrapping_add(splitmix64(e.stream.0));
                    count_telemetry(&mut ledger, t.telemetry_fate(link, key))?.extra
                }
                None => SimDuration::ZERO,
            };
            Some(((e.at + extra).max(barrier), e.latency))
        })
        .collect();
    RoutedExports { deliveries, ledger }
}

impl NetPlane {
    /// Admits a released control command to its destination's uplink, or
    /// sheds it when the link's in-flight window is full (the typed error
    /// is counted; the command simply never reaches the shard).
    pub(super) fn submit_control(&mut self, at: SimTime, seq: u64, dest: u32, cmd: WorldCommand) {
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
    pub(super) fn pump_control(&mut self, barrier: SimTime, shards: &mut [World]) {
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
    pub(super) fn heartbeats(
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
    pub(super) fn finish(mut self: Box<Self>, end: SimTime) -> NetReport {
        for (lease, suspicion_ns) in self.leases.iter().zip(&mut self.report.suspicion_ns) {
            if let Suspicion::Gray { since, .. } = lease.suspicion {
                *suspicion_ns += end.saturating_since(since).as_nanos();
            }
        }
        self.report.stats = *self.transport.stats();
        self.report
    }
}
