//! Deterministic lossy-network transport for cross-boundary messages.
//!
//! The PR 3 fault engine models links as binary — up, or silently dropping
//! everything until a lease expires. Real edge uplinks mostly *degrade*:
//! they lose a fraction of packets, add latency and jitter, reorder, and
//! flap. This module gives every cross-shard message in a
//! [`crate::shard::ShardedWorld`] a link to ride, with three pieces:
//!
//! 1. **Per-link state machines** — [`LinkState`]: healthy, degraded
//!    (loss rate, added latency, jitter, reorder), or partitioned —
//!    driven by a time-ordered [`LinkSchedule`] that is either scripted or
//!    generated by the same seeded renewal process as
//!    [`crate::faults::FaultSchedule`].
//! 2. **Stateless seeded draws** — every per-message decision (loss,
//!    jitter, reorder) hashes the message's stable identity through
//!    [`microedge_sim::rng::splitmix64`]: `draw(seed, link, class, key,
//!    attempt)`. No ambient RNG, no generator state to order between
//!    threads — and because a draw is compared against the loss rate as
//!    `draw % 1e6 < loss_ppm`, a higher loss tier drops a strict superset
//!    of a lower tier's messages (the monotonicity the loss-tier benchmark
//!    relies on).
//! 3. **Three QoS classes** ([`QosClass`]) with distinct delivery
//!    contracts, accounted in [`microedge_metrics::net::NetStats`]:
//!    - **Control** (admit/remove/fleet ops): acked; lost attempts
//!      retransmit with capped deterministic backoff under a bounded
//!      per-link in-flight budget; exhausting the budget surfaces a typed
//!      [`NetError`].
//!    - **Heartbeat**: unacked; losses starve the lease detector, so a
//!      flapping link produces realistic *false-positive* detections
//!      (gray failures) rather than only clean deaths.
//!    - **Telemetry** (frame exports, summary refreshes): best-effort;
//!      drops are counted, never retransmitted.
//!
//! Every ledger obeys `delivered + dropped + gave_up == sent`
//! ([`microedge_metrics::net::ChannelStats::conserved`]); the conservation
//! proptests hold the transport to it under arbitrary schedules.
//!
//! # Examples
//!
//! ```
//! use microedge_core::net::{DegradedLink, LinkSchedule, LinkState, RetransmitPolicy, Transport};
//! use microedge_sim::time::{SimDuration, SimTime};
//!
//! // One link, degraded to 50% loss from t = 1 s.
//! let schedule = LinkSchedule::scripted(vec![(
//!     SimTime::from_secs(1),
//!     0,
//!     LinkState::Degraded(DegradedLink {
//!         loss_ppm: 500_000,
//!         latency: SimDuration::from_millis(20),
//!         jitter: SimDuration::from_millis(10),
//!         reorder_ppm: 0,
//!     }),
//! )]);
//! let mut net = Transport::new(1, schedule, 42, RetransmitPolicy::default());
//! assert!(net.send_telemetry(0, 7).is_some(), "healthy link delivers");
//! net.advance_to(SimTime::from_secs(2));
//! let delivered = (0..1000).filter(|k| net.send_telemetry(0, *k).is_some()).count();
//! assert!((400..600).contains(&delivered), "~half survive 50% loss");
//! assert!(net.stats().telemetry.conserved());
//! ```

use microedge_sim::rng::{splitmix64, DetRng};
use microedge_sim::time::{SimDuration, SimTime};

use crate::faults::{ClassRates, DetectionModel};
use microedge_metrics::net::{ChannelStats, DetectionStats, NetStats};

/// Parameters of a degraded (but not partitioned) link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradedLink {
    /// Per-message loss probability in parts per million (0..=1 000 000).
    pub loss_ppm: u32,
    /// Fixed latency added to every surviving message.
    pub latency: SimDuration,
    /// Uniform extra delay in `[0, jitter]`, drawn per message.
    pub jitter: SimDuration,
    /// Probability (ppm) a surviving message is held back one extra
    /// `latency + jitter` quantum — overtaken by its successors.
    pub reorder_ppm: u32,
}

impl DegradedLink {
    /// A lossy-LAN template: `loss_ppm` loss, 20 ms added latency, 10 ms
    /// jitter, 5% reorder. The loss-tier benchmark varies only the loss
    /// rate so its tiers stay draw-coupled.
    #[must_use]
    pub fn lossy(loss_ppm: u32) -> Self {
        DegradedLink {
            loss_ppm,
            latency: SimDuration::from_millis(20),
            jitter: SimDuration::from_millis(10),
            reorder_ppm: 50_000,
        }
    }
}

/// One link's condition at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkState {
    /// Lossless, instant delivery (the pre-PR-8 behaviour).
    #[default]
    Healthy,
    /// Delivering, but lossy/slow/jittery.
    Degraded(DegradedLink),
    /// Nothing gets through.
    Partitioned,
}

/// A scheduled link-state transition: `(at, link, new state)`.
pub type LinkEvent = (SimTime, u32, LinkState);

/// Salts separating the per-link RNG streams inside a generation seed
/// (mirroring the `SALT_*` scheme of [`crate::faults::FaultSchedule`]).
const SALT_UPLINK: u64 = 0x7570_6c6b; // "uplk"

/// A time-ordered trace of link-state transitions for a fleet's uplinks.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinkSchedule {
    events: Vec<LinkEvent>,
}

/// The seeded renewal model [`LinkSchedule::generate`] draws from: how
/// often a link leaves the healthy state, for how long, and what an
/// outage looks like when it is not a full partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkChaosModel {
    /// Mean healthy dwell (`mtbf`) and outage dwell (`mttr`).
    pub rates: ClassRates,
    /// Probability an outage is a full partition; otherwise the link
    /// degrades to `degraded`.
    pub partition_weight: f64,
    /// Parameters of a degraded outage.
    pub degraded: DegradedLink,
}

impl LinkSchedule {
    /// Wraps a scripted trace, sorting it by `(time, link)` (stable:
    /// simultaneous same-link events keep their scripted order).
    #[must_use]
    pub fn scripted(mut events: Vec<LinkEvent>) -> Self {
        events.sort_by_key(|(at, link, _)| (*at, *link));
        LinkSchedule { events }
    }

    /// Generates a schedule for `links` uplinks up to `horizon` with the
    /// same per-component [`DetRng`] fork discipline as
    /// [`crate::faults::FaultSchedule::generate`]: each link's renewal
    /// process is salted by its index, so resizing the fleet never
    /// perturbs another link's draws.
    #[must_use]
    pub fn generate(model: &LinkChaosModel, links: u32, horizon: SimTime, seed: u64) -> Self {
        let mut root = DetRng::seed_from(seed);
        let mut events = Vec::new();
        for link in 0..links {
            let mut rng = root.fork(SALT_UPLINK.wrapping_add(u64::from(link) << 8));
            let mut at = SimTime::ZERO;
            loop {
                let up = rng.exponential_duration(model.rates.mtbf);
                let Some(fail_at) = at.checked_add(up) else {
                    break;
                };
                if fail_at > horizon {
                    break;
                }
                let state = if rng.chance(model.partition_weight) {
                    LinkState::Partitioned
                } else {
                    LinkState::Degraded(model.degraded)
                };
                events.push((fail_at, link, state));
                let down = rng.exponential_duration(model.rates.mttr);
                let Some(heal_at) = fail_at.checked_add(down) else {
                    break;
                };
                if heal_at > horizon {
                    break;
                }
                events.push((heal_at, link, LinkState::Healthy));
                at = heal_at;
            }
        }
        events.sort_by_key(|(at, link, _)| (*at, *link));
        LinkSchedule { events }
    }

    /// A deterministic square wave: every link partitions for `down`,
    /// heals for `up`, repeating until `until`; link `i`'s first partition
    /// starts at `first + i × stagger` so the whole fleet never flaps in
    /// lock-step.
    #[must_use]
    pub fn flapping(
        links: u32,
        first: SimTime,
        down: SimDuration,
        up: SimDuration,
        stagger: SimDuration,
        until: SimTime,
    ) -> Self {
        let mut events = Vec::new();
        for link in 0..links {
            let mut at =
                first + SimDuration::from_nanos(stagger.as_nanos().saturating_mul(u64::from(link)));
            while at < until {
                events.push((at, link, LinkState::Partitioned));
                let Some(heal_at) = at.checked_add(down) else {
                    break;
                };
                if heal_at >= until {
                    break;
                }
                events.push((heal_at, link, LinkState::Healthy));
                let Some(next) = heal_at.checked_add(up) else {
                    break;
                };
                at = next;
            }
            // Whatever the phase, the run ends with every link healed.
            events.push((until, link, LinkState::Healthy));
        }
        events.sort_by_key(|(at, link, _)| (*at, *link));
        LinkSchedule { events }
    }

    /// The transitions, time-ordered.
    #[must_use]
    pub fn events(&self) -> &[LinkEvent] {
        &self.events
    }

    /// `true` when no transition is scheduled (all links stay healthy).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Retransmission contract of the control class: capped deterministic
/// backoff between attempts, a total-attempt budget, and a per-link bound
/// on concurrently in-flight control messages (beyond it, new submissions
/// are shed immediately — admission load-shedding under saturation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitPolicy {
    /// Delay before the first retransmission.
    pub backoff_base: SimDuration,
    /// Upper bound on the retransmission delay.
    pub backoff_cap: SimDuration,
    /// Total wire attempts per message (first send included) before the
    /// typed give-up.
    pub max_attempts: u32,
    /// Maximum control messages in flight per link; submissions beyond it
    /// are shed.
    pub inflight_budget: u32,
}

impl RetransmitPolicy {
    /// Delay after the `attempt`-th failed attempt (1-based):
    /// `base × 2^(attempt−1)`, capped. Deliberately jitter-free — unlike
    /// [`crate::faults::HealPolicy::backoff`] this paces one message's
    /// ladder, not a herd of independent retriers.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(32);
        let nanos = self
            .backoff_base
            .as_nanos()
            .saturating_mul(1u64 << u64::from(shift));
        SimDuration::from_nanos(nanos).min(self.backoff_cap)
    }
}

impl Default for RetransmitPolicy {
    fn default() -> Self {
        RetransmitPolicy {
            backoff_base: SimDuration::from_millis(200),
            backoff_cap: SimDuration::from_secs(2),
            max_attempts: 8,
            inflight_budget: 32,
        }
    }
}

/// QoS classes — also the domain separators of the per-message draws, so
/// a heartbeat and a frame export with the same key never share a fate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosClass {
    /// Acked, retransmitted, budgeted.
    Control,
    /// Unacked liveness beacons.
    Heartbeat,
    /// Best-effort exports/refreshes.
    Telemetry,
}

impl QosClass {
    fn domain(self) -> u64 {
        match self {
            QosClass::Control => 0x6374_726c,   // "ctrl"
            QosClass::Heartbeat => 0x6862_6561, // "hbea"
            QosClass::Telemetry => 0x7465_6c65, // "tele"
        }
    }
}

/// Typed terminal failures of the control class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The retransmit budget ran out without an acknowledged delivery.
    GaveUp {
        /// The link the message was riding.
        link: u32,
        /// Wire attempts made.
        attempts: u32,
    },
    /// The link's in-flight budget was exhausted at submission; the
    /// message was shed without a single wire attempt.
    Shed {
        /// The saturated link.
        link: u32,
        /// Messages in flight at submission time.
        inflight: u32,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::GaveUp { link, attempts } => {
                write!(f, "gave up on link {link} after {attempts} attempts")
            }
            NetError::Shed { link, inflight } => {
                write!(f, "shed on link {link} ({inflight} in flight)")
            }
        }
    }
}

/// Domain separators for the secondary draws derived from a message draw.
const SALT_JITTER: u64 = 0x6a69_7474; // "jitt"
const SALT_REORDER: u64 = 0x726f_7264; // "rord"

/// The primary per-message draw: a pure function of the message's stable
/// identity, so replays never depend on call order or thread interleaving.
/// Compared against a loss rate as `draw % 1e6 < loss_ppm`, the same draw
/// under a higher rate drops a superset of messages — loss tiers nest.
#[must_use]
pub fn message_draw(seed: u64, link: u32, class: QosClass, key: u64, attempt: u32) -> u64 {
    let mut h = splitmix64(seed ^ class.domain());
    h = splitmix64(h ^ (u64::from(link)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    h = splitmix64(h ^ key);
    splitmix64(h ^ u64::from(attempt))
}

/// `true` when `draw` falls inside the `loss_ppm` loss window.
#[must_use]
pub fn draw_drops(draw: u64, loss_ppm: u32) -> bool {
    draw % 1_000_000 < u64::from(loss_ppm)
}

/// Counts one best-effort message's fate in `ledger` (sent, then
/// delivered and maybe reordered, or dropped) and passes it through.
pub fn count_telemetry(ledger: &mut ChannelStats, fate: Option<Transit>) -> Option<Transit> {
    ledger.sent += 1;
    match fate {
        Some(t) => {
            ledger.delivered += 1;
            ledger.reordered += u64::from(t.reordered);
        }
        None => ledger.dropped += 1,
    }
    fate
}

/// One link's lane: current state plus its slice of the schedule.
#[derive(Debug, Clone)]
struct LinkLane {
    state: LinkState,
    /// This link's transitions, time-ordered; `cursor` marks the next
    /// unapplied one. Per-link cursors keep state queries independent of
    /// the order links are processed in at a barrier.
    events: Vec<(SimTime, LinkState)>,
    cursor: usize,
}

/// The message-level transport: link lanes, seeded draws, per-class
/// ledgers. Policy only — queueing (which message retries when) stays with
/// the caller, which is what keeps this piece independently testable.
#[derive(Debug, Clone)]
pub struct Transport {
    seed: u64,
    lanes: Vec<LinkLane>,
    policy: RetransmitPolicy,
    stats: NetStats,
    /// In-flight control messages per link (the shedding budget).
    inflight: Vec<u32>,
}

/// Outcome of one surviving wire transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transit {
    /// Extra delay on top of the send instant.
    pub extra: SimDuration,
    /// `true` when a reorder draw deferred this message behind later ones.
    pub reordered: bool,
}

/// The dense lane-table slot for a `u32` link id.
fn lane_index(link: u32) -> usize {
    usize::try_from(link).expect("u32 link id fits usize")
}

impl Transport {
    /// Builds a transport over `links` uplinks, all initially healthy.
    #[must_use]
    pub fn new(links: usize, schedule: LinkSchedule, seed: u64, policy: RetransmitPolicy) -> Self {
        let mut lanes = vec![
            LinkLane {
                state: LinkState::Healthy,
                events: Vec::new(),
                cursor: 0,
            };
            links
        ];
        for (at, link, state) in schedule.events {
            if let Some(lane) = lanes.get_mut(lane_index(link)) {
                lane.events.push((at, state));
            }
        }
        Transport {
            seed,
            lanes,
            policy,
            stats: NetStats::default(),
            inflight: vec![0; links],
        }
    }

    /// Applies every scheduled transition at or before `now`. Link state
    /// is quantized to the caller's barrier cadence: all of an epoch's
    /// draws see the state at the epoch's start.
    pub fn advance_to(&mut self, now: SimTime) {
        for lane in &mut self.lanes {
            while let Some((at, state)) = lane.events.get(lane.cursor) {
                if *at > now {
                    break;
                }
                lane.state = *state;
                lane.cursor += 1;
            }
        }
    }

    /// Current state of `link`.
    #[must_use]
    pub fn state(&self, link: u32) -> LinkState {
        self.lanes[lane_index(link)].state
    }

    /// The retransmission contract.
    #[must_use]
    pub fn policy(&self) -> RetransmitPolicy {
        self.policy
    }

    /// The per-class ledgers.
    #[must_use]
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// How one wire transmission fares under the link's current state.
    fn transit(&self, link: u32, class: QosClass, key: u64, attempt: u32) -> Option<Transit> {
        match self.state(link) {
            LinkState::Healthy => Some(Transit {
                extra: SimDuration::ZERO,
                reordered: false,
            }),
            LinkState::Partitioned => None,
            LinkState::Degraded(d) => {
                let draw = message_draw(self.seed, link, class, key, attempt);
                if draw_drops(draw, d.loss_ppm) {
                    return None;
                }
                let jitter_ns = if d.jitter.is_zero() {
                    0
                } else {
                    splitmix64(draw ^ SALT_JITTER) % (d.jitter.as_nanos() + 1)
                };
                let mut extra = d.latency + SimDuration::from_nanos(jitter_ns);
                let reordered = draw_drops(splitmix64(draw ^ SALT_REORDER), d.reorder_ppm);
                if reordered {
                    // Held back a full latency+jitter quantum: everything
                    // sent healthy-adjacent overtakes it.
                    extra = extra + d.latency + d.jitter;
                }
                Some(Transit { extra, reordered })
            }
        }
    }

    /// Sends one best-effort telemetry message (frame export, summary
    /// refresh). `None` means dropped — counted, never retransmitted.
    pub fn send_telemetry(&mut self, link: u32, key: u64) -> Option<Transit> {
        let fate = self.telemetry_fate(link, key);
        count_telemetry(&mut self.stats.telemetry, fate)
    }

    /// The fate [`Transport::send_telemetry`] would draw, without counting
    /// it: a pure function of `key` and the link's state. Callers that draw
    /// off the transport's thread count each fate with [`count_telemetry`]
    /// and fold the ledger in with [`Transport::merge_telemetry`].
    #[must_use]
    pub fn telemetry_fate(&self, link: u32, key: u64) -> Option<Transit> {
        self.transit(link, QosClass::Telemetry, key, 1)
    }

    /// Folds a ledger of fates drawn with [`Transport::telemetry_fate`]
    /// into the telemetry class.
    pub fn merge_telemetry(&mut self, ledger: &ChannelStats) {
        self.stats.telemetry.merge(ledger);
    }

    /// Sends one unacked heartbeat; `true` when it reaches the detector.
    pub fn send_heartbeat(&mut self, link: u32, key: u64) -> bool {
        self.stats.heartbeat.sent += 1;
        match self.transit(link, QosClass::Heartbeat, key, 1) {
            Some(_) => {
                self.stats.heartbeat.delivered += 1;
                true
            }
            None => {
                self.stats.heartbeat.dropped += 1;
                false
            }
        }
    }

    /// Admits one control message to `link`'s in-flight window.
    ///
    /// # Errors
    ///
    /// [`NetError::Shed`] when the window is full; the message counts as
    /// sent and given up (the conservation law still balances), never
    /// transmitted.
    pub fn submit_control(&mut self, link: u32) -> Result<(), NetError> {
        self.stats.control.sent += 1;
        let inflight = self.inflight[lane_index(link)];
        if inflight >= self.policy.inflight_budget {
            self.stats.control.gave_up += 1;
            self.stats.control.shed += 1;
            return Err(NetError::Shed { link, inflight });
        }
        self.inflight[lane_index(link)] += 1;
        Ok(())
    }

    /// One wire attempt (1-based) of a submitted control message. `None`
    /// means lost; attempts beyond the first count as retransmissions.
    pub fn control_attempt(&mut self, link: u32, key: u64, attempt: u32) -> Option<Transit> {
        if attempt > 1 {
            self.stats.control.retransmits += 1;
        }
        self.transit(link, QosClass::Control, key, attempt)
    }

    /// Acknowledges a delivered control message, releasing its in-flight
    /// slot.
    pub fn control_delivered(&mut self, link: u32, reordered: bool) {
        self.stats.control.delivered += 1;
        if reordered {
            self.stats.control.reordered += 1;
        }
        self.release_slot(link);
    }

    /// Abandons a control message whose attempt budget ran out, releasing
    /// its slot and returning the typed give-up.
    pub fn control_gave_up(&mut self, link: u32, attempts: u32) -> NetError {
        self.stats.control.gave_up += 1;
        self.release_slot(link);
        NetError::GaveUp { link, attempts }
    }

    fn release_slot(&mut self, link: u32) {
        let slot = &mut self.inflight[lane_index(link)];
        debug_assert!(*slot > 0, "control ack without a submission");
        *slot = slot.saturating_sub(1);
    }
}

/// Configuration of the network plane a sharded replay rides.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Seed of every per-message draw.
    pub seed: u64,
    /// The link-state trace.
    pub schedule: LinkSchedule,
    /// Control-class retransmission contract.
    pub retransmit: RetransmitPolicy,
    /// Heartbeat cadence / lease of the fleet-level detector the
    /// heartbeat class feeds.
    pub detection: DetectionModel,
    /// Summaries older than this mark their cluster unplaceable until a
    /// refresh gets through (bounded staleness).
    pub staleness_bound: SimDuration,
}

impl NetConfig {
    /// A config with the given schedule and the shipped defaults: seed
    /// `0x4E4554` ("NET"), default retransmit policy, k3s detection, 5 s
    /// staleness bound.
    #[must_use]
    pub fn new(schedule: LinkSchedule) -> Self {
        NetConfig {
            seed: 0x004E_4554,
            schedule,
            retransmit: RetransmitPolicy::default(),
            detection: DetectionModel::k3s_default(),
            staleness_bound: SimDuration::from_secs(5),
        }
    }

    /// Overrides the draw seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Deterministic network-tier outcome of one sharded run: the per-class
/// ledgers, what lossy heartbeats did to the detector, per-link suspicion
/// downtime, and the bounded-staleness reconciliation counters. Fully
/// determined by the workload, so it participates in byte-compared
/// artifacts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetReport {
    /// Per-class message ledgers.
    pub stats: NetStats,
    /// Detector outcomes under heartbeat loss.
    pub detection: DetectionStats,
    /// Cumulative time each link's cluster spent under suspicion, ns.
    pub suspicion_ns: Vec<u64>,
    /// Summaries drained because they exceeded the staleness bound.
    pub stale_drains: u64,
    /// Stale summaries restored by a delivered refresh.
    pub stale_restores: u64,
}

impl NetReport {
    /// Fleet availability over `window` as seen through the detector:
    /// `1 − mean per-link suspicion fraction`. 1.0 for an idle detector.
    #[must_use]
    pub fn availability(&self, window: SimDuration) -> f64 {
        if self.suspicion_ns.is_empty() || window.is_zero() {
            return 1.0;
        }
        let total: u64 = self.suspicion_ns.iter().sum();
        let span = window
            .as_nanos()
            .saturating_mul(self.suspicion_ns.len() as u64);
        1.0 - (total as f64 / span as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn degraded(loss_ppm: u32) -> LinkState {
        LinkState::Degraded(DegradedLink::lossy(loss_ppm))
    }

    #[test]
    fn scripted_schedules_sort_by_time_then_link() {
        let s = LinkSchedule::scripted(vec![
            (SimTime::from_secs(2), 1, LinkState::Partitioned),
            (SimTime::from_secs(1), 3, LinkState::Healthy),
            (SimTime::from_secs(2), 0, degraded(1000)),
        ]);
        let order: Vec<(u64, u32)> = s
            .events()
            .iter()
            .map(|(at, l, _)| (at.as_nanos(), *l))
            .collect();
        assert_eq!(
            order,
            vec![(1_000_000_000, 3), (2_000_000_000, 0), (2_000_000_000, 1)]
        );
    }

    #[test]
    fn generated_schedules_are_reproducible_and_alternate() {
        let model = LinkChaosModel {
            rates: ClassRates::new(SimDuration::from_secs(20), SimDuration::from_secs(5)),
            partition_weight: 0.5,
            degraded: DegradedLink::lossy(100_000),
        };
        let horizon = SimTime::from_secs(600);
        let a = LinkSchedule::generate(&model, 4, horizon, 7);
        let b = LinkSchedule::generate(&model, 4, horizon, 7);
        assert_eq!(a, b, "same seed, same trace");
        assert!(!a.is_empty());
        let c = LinkSchedule::generate(&model, 4, horizon, 8);
        assert_ne!(a, c, "different seed, different trace");
        // Per-link, outages and heals alternate and both kinds occur.
        for link in 0..4u32 {
            let lane: Vec<LinkState> = a
                .events()
                .iter()
                .filter(|(_, l, _)| *l == link)
                .map(|(_, _, s)| *s)
                .collect();
            for pair in lane.chunks(2) {
                assert_ne!(pair[0], LinkState::Healthy, "outage first");
                if pair.len() == 2 {
                    assert_eq!(pair[1], LinkState::Healthy, "heal second");
                }
            }
        }
        // Growing the fleet leaves existing links' traces untouched.
        let wider = LinkSchedule::generate(&model, 8, horizon, 7);
        for link in 0..4u32 {
            let narrow: Vec<&LinkEvent> =
                a.events().iter().filter(|(_, l, _)| *l == link).collect();
            let wide: Vec<&LinkEvent> = wider
                .events()
                .iter()
                .filter(|(_, l, _)| *l == link)
                .collect();
            assert_eq!(narrow, wide, "link {link} perturbed by fleet resize");
        }
    }

    #[test]
    fn flapping_schedules_end_healed() {
        let s = LinkSchedule::flapping(
            2,
            SimTime::from_secs(10),
            SimDuration::from_secs(6),
            SimDuration::from_secs(6),
            SimDuration::from_millis(1500),
            SimTime::from_secs(40),
        );
        for link in 0..2u32 {
            let lane: Vec<&LinkEvent> = s.events().iter().filter(|(_, l, _)| *l == link).collect();
            let (last_at, _, last_state) = lane.last().expect("lane has events");
            assert_eq!(*last_state, LinkState::Healthy);
            assert_eq!(*last_at, SimTime::from_secs(40));
            assert!(lane.iter().any(|(_, _, s)| *s == LinkState::Partitioned));
        }
        // Stagger: link 1 flaps 1.5 s behind link 0.
        let first_down = |link: u32| {
            s.events()
                .iter()
                .find(|(_, l, st)| *l == link && *st == LinkState::Partitioned)
                .map(|(at, _, _)| *at)
                .expect("a partition")
        };
        assert_eq!(
            first_down(1).saturating_since(first_down(0)),
            SimDuration::from_millis(1500)
        );
    }

    #[test]
    fn higher_loss_drops_a_superset() {
        // The tier-nesting property the benchmark's monotonicity rests on.
        for key in 0..2000u64 {
            let draw = message_draw(42, 3, QosClass::Telemetry, key, 1);
            for (lo, hi) in [(1_000, 10_000), (10_000, 100_000), (100_000, 500_000)] {
                if draw_drops(draw, lo) {
                    assert!(
                        draw_drops(draw, hi),
                        "key {key}: dropped at {lo} but not {hi}"
                    );
                }
            }
        }
    }

    #[test]
    fn draws_are_domain_separated() {
        let a = message_draw(1, 0, QosClass::Control, 9, 1);
        assert_ne!(a, message_draw(1, 0, QosClass::Heartbeat, 9, 1));
        assert_ne!(a, message_draw(1, 1, QosClass::Control, 9, 1));
        assert_ne!(a, message_draw(1, 0, QosClass::Control, 9, 2));
        assert_ne!(a, message_draw(2, 0, QosClass::Control, 9, 1));
        assert_eq!(a, message_draw(1, 0, QosClass::Control, 9, 1));
    }

    #[test]
    fn retransmit_backoff_doubles_and_caps() {
        let p = RetransmitPolicy::default();
        assert_eq!(p.backoff(1), SimDuration::from_millis(200));
        assert_eq!(p.backoff(2), SimDuration::from_millis(400));
        assert_eq!(p.backoff(4), SimDuration::from_millis(1600));
        assert_eq!(p.backoff(5), SimDuration::from_secs(2), "capped");
        assert_eq!(p.backoff(64), SimDuration::from_secs(2), "shift guarded");
    }

    #[test]
    fn partition_blocks_everything_and_heal_restores() {
        let schedule = LinkSchedule::scripted(vec![
            (SimTime::from_secs(1), 0, LinkState::Partitioned),
            (SimTime::from_secs(2), 0, LinkState::Healthy),
        ]);
        let mut net = Transport::new(1, schedule, 1, RetransmitPolicy::default());
        assert!(net.send_heartbeat(0, 0));
        net.advance_to(SimTime::from_secs(1));
        assert!(!net.send_heartbeat(0, 1));
        assert!(net.send_telemetry(0, 1).is_none());
        assert!(net.control_attempt(0, 1, 1).is_none());
        net.advance_to(SimTime::from_secs(2));
        assert!(net.send_heartbeat(0, 2));
        assert_eq!(net.stats().heartbeat.sent, 3);
        assert_eq!(net.stats().heartbeat.delivered, 2);
        assert_eq!(net.stats().heartbeat.dropped, 1);
        assert!(net.stats().heartbeat.conserved());
        assert!(net.stats().telemetry.conserved());
    }

    #[test]
    fn degraded_links_add_bounded_latency() {
        let d = DegradedLink {
            loss_ppm: 0,
            latency: SimDuration::from_millis(20),
            jitter: SimDuration::from_millis(10),
            reorder_ppm: 0,
        };
        let schedule = LinkSchedule::scripted(vec![(SimTime::ZERO, 0, LinkState::Degraded(d))]);
        let mut net = Transport::new(1, schedule, 3, RetransmitPolicy::default());
        net.advance_to(SimTime::ZERO);
        let mut distinct = std::collections::BTreeSet::new();
        for key in 0..200u64 {
            let t = net.send_telemetry(0, key).expect("lossless");
            assert!(t.extra >= SimDuration::from_millis(20));
            assert!(t.extra <= SimDuration::from_millis(30));
            assert!(!t.reordered);
            distinct.insert(t.extra.as_nanos());
        }
        assert!(distinct.len() > 100, "jitter actually varies");
    }

    #[test]
    fn reorder_draws_defer_and_are_counted() {
        let d = DegradedLink {
            loss_ppm: 0,
            latency: SimDuration::from_millis(20),
            jitter: SimDuration::ZERO,
            reorder_ppm: 1_000_000,
        };
        let schedule = LinkSchedule::scripted(vec![(SimTime::ZERO, 0, LinkState::Degraded(d))]);
        let mut net = Transport::new(1, schedule, 3, RetransmitPolicy::default());
        net.advance_to(SimTime::ZERO);
        let t = net.send_telemetry(0, 0).expect("lossless");
        assert!(t.reordered);
        assert_eq!(t.extra, SimDuration::from_millis(40), "double quantum");
        assert_eq!(net.stats().telemetry.reordered, 1);
    }

    #[test]
    fn control_ledger_balances_through_shed_give_up_and_ack() {
        let policy = RetransmitPolicy {
            inflight_budget: 1,
            max_attempts: 3,
            ..RetransmitPolicy::default()
        };
        let schedule = LinkSchedule::scripted(vec![(SimTime::ZERO, 0, LinkState::Partitioned)]);
        let mut net = Transport::new(1, schedule, 9, policy);
        net.advance_to(SimTime::ZERO);
        assert!(net.submit_control(0).is_ok());
        // Window full: the second submission sheds with a typed error.
        let err = net.submit_control(0).expect_err("budget of 1");
        assert_eq!(
            err,
            NetError::Shed {
                link: 0,
                inflight: 1
            }
        );
        assert_eq!(format!("{err}"), "shed on link 0 (1 in flight)");
        // All attempts lost under partition; the give-up frees the slot.
        for attempt in 1..=3 {
            assert!(net.control_attempt(0, 0, attempt).is_none());
        }
        let gave = net.control_gave_up(0, 3);
        assert_eq!(
            gave,
            NetError::GaveUp {
                link: 0,
                attempts: 3
            }
        );
        assert!(net.submit_control(0).is_ok(), "slot released");
        net.control_delivered(0, false); // pretend the link healed
        let c = net.stats().control;
        assert_eq!(c.sent, 3);
        assert_eq!(c.delivered, 1);
        assert_eq!(c.gave_up, 2);
        assert_eq!(c.shed, 1);
        assert_eq!(c.retransmits, 2);
        assert!(c.conserved());
    }

    #[test]
    fn net_report_availability_from_suspicion() {
        let report = NetReport {
            suspicion_ns: vec![0, 500_000_000, 500_000_000, 0],
            ..NetReport::default()
        };
        let a = report.availability(SimDuration::from_secs(1));
        assert!((a - 0.75).abs() < 1e-12);
        assert_eq!(
            NetReport::default().availability(SimDuration::from_secs(1)),
            1.0
        );
    }
}
