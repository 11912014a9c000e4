//! Deterministic fault injection: component-class MTBF/MTTR models,
//! scripted traces, the heartbeat/lease failure detector, and the
//! self-healing / degradation policies.
//!
//! A [`FaultSchedule`] is a time-ordered list of fault and repair events for
//! concrete components (TPUs, nodes, network links). It is either scripted
//! ([`FaultSchedule::scripted`]) or generated from a per-class stochastic
//! model ([`FaultSchedule::generate`]): each component instance alternates
//! exponentially distributed up-times (mean MTBF) and down-times (mean
//! MTTR), drawn from a [`DetRng`] forked per component — the same seed
//! always yields the same schedule, independent of worker count or host.
//!
//! The schedule is *injected* into a
//! [`World`](crate::runtime::World::inject_faults) where the events flow
//! through the simulation's own event queue. How the control plane reacts
//! is governed by a [`ChaosConfig`]:
//!
//! - [`DetectionModel`] — failures are silent until the component's node
//!   lease expires (K3s heartbeats), so a dead TPU keeps receiving (and
//!   dropping) traffic for up to `lease` seconds;
//! - [`HealPolicy`] — displaced streams are re-admitted automatically with
//!   capped exponential backoff; unplaceable streams park in a
//!   pending-restart queue that drains on repair or capacity release;
//! - [`DegradePolicy`] — when survivors cannot fit everyone at full rate,
//!   frame rates drop in power-of-two fairness tiers across tenants
//!   instead of dropping streams outright, and restore on repair.
//!
//! # Examples
//!
//! ```
//! use microedge_cluster::topology::ClusterBuilder;
//! use microedge_core::faults::{ClassRates, FaultModel, FaultSchedule};
//! use microedge_sim::time::{SimDuration, SimTime};
//!
//! let cluster = ClusterBuilder::new().trpis(2).vrpis(4).build();
//! let model = FaultModel {
//!     tpu: Some(ClassRates {
//!         mtbf: SimDuration::from_secs(120),
//!         mttr: SimDuration::from_secs(30),
//!     }),
//!     ..FaultModel::default()
//! };
//! let a = FaultSchedule::generate(&model, &cluster, SimTime::from_secs(600), 7);
//! let b = FaultSchedule::generate(&model, &cluster, SimTime::from_secs(600), 7);
//! assert_eq!(a.events(), b.events());
//! ```

use microedge_cluster::node::NodeId;
use microedge_cluster::topology::Cluster;
use microedge_sim::rng::{splitmix64, DetRng};
use microedge_sim::time::{SimDuration, SimTime};
use microedge_tpu::device::TpuId;

/// One component-level fault or repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A TPU stops executing; queued and in-flight requests are dropped.
    TpuFail(TpuId),
    /// A failed TPU returns to service.
    TpuRepair(TpuId),
    /// A node crashes hard: its pods die and its TPU (if any) goes silent.
    NodeFail(NodeId),
    /// A failed node reboots.
    NodeRepair(NodeId),
    /// A node's uplink partitions: traffic is dropped but local state
    /// survives. Indistinguishable from a node crash to the detector; a
    /// blip shorter than the lease heals without control-plane involvement.
    LinkFail(NodeId),
    /// The partitioned link heals.
    LinkRepair(NodeId),
}

/// A [`FaultKind`] at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault or repair takes effect.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// Mean time between failures / to repair for one component class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassRates {
    /// Mean up-time between consecutive failures (exponential).
    pub mtbf: SimDuration,
    /// Mean down-time until repair (exponential).
    pub mttr: SimDuration,
}

impl ClassRates {
    /// Creates rates from mean up- and down-times.
    ///
    /// # Panics
    ///
    /// Panics if either duration is zero.
    #[must_use]
    pub fn new(mtbf: SimDuration, mttr: SimDuration) -> Self {
        assert!(!mtbf.is_zero(), "MTBF must be non-zero");
        assert!(!mttr.is_zero(), "MTTR must be non-zero");
        ClassRates { mtbf, mttr }
    }
}

/// Per-component-class failure rates; `None` disables a class entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultModel {
    /// TPU device failures (USB brown-outs, accelerator hangs).
    pub tpu: Option<ClassRates>,
    /// Whole-node crashes (power loss, kernel panic). Applies to every
    /// node, tRPi and vRPi alike.
    pub node: Option<ClassRates>,
    /// Per-node uplink partitions. Typically much shorter MTTR than node
    /// crashes — short blips exercise the lease filter.
    pub link: Option<ClassRates>,
}

/// Salts separating the per-class RNG streams inside a generation seed.
const SALT_TPU: u64 = 0x7470_7500; // "tpu"
const SALT_NODE: u64 = 0x6e6f_6465; // "node"
const SALT_LINK: u64 = 0x6c69_6e6b; // "link"

/// A time-ordered fault/repair trace for concrete components.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Wraps a scripted trace, sorting it by time (stable: simultaneous
    /// events keep their scripted order).
    #[must_use]
    pub fn scripted(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultSchedule { events }
    }

    /// Generates a schedule for every component of `cluster` enabled in
    /// `model`, up to `horizon`. Each component instance gets its own
    /// [`DetRng`] fork (salted by class and index), so adding a class or
    /// resizing the cluster never perturbs another component's draws, and
    /// the same `(model, cluster, horizon, seed)` always reproduces the
    /// same trace.
    #[must_use]
    pub fn generate(model: &FaultModel, cluster: &Cluster, horizon: SimTime, seed: u64) -> Self {
        let mut root = DetRng::seed_from(seed);
        let mut events = Vec::new();
        if let Some(rates) = model.tpu {
            for i in 0..cluster.tpu_count() {
                let rng =
                    root.fork(SALT_TPU.wrapping_add(u64::try_from(i).expect("tpu index fits u64")));
                Self::component_trace(rng, rates, horizon, &mut events, |up| {
                    let tpu = TpuId::from_index(i);
                    if up {
                        FaultKind::TpuRepair(tpu)
                    } else {
                        FaultKind::TpuFail(tpu)
                    }
                });
            }
        }
        if let Some(rates) = model.node {
            for node in cluster.nodes() {
                let id = node.id();
                let rng = root.fork(SALT_NODE.wrapping_add(u64::from(id.0) << 8));
                Self::component_trace(rng, rates, horizon, &mut events, |up| {
                    if up {
                        FaultKind::NodeRepair(id)
                    } else {
                        FaultKind::NodeFail(id)
                    }
                });
            }
        }
        if let Some(rates) = model.link {
            for node in cluster.nodes() {
                let id = node.id();
                let rng = root.fork(SALT_LINK.wrapping_add(u64::from(id.0) << 8));
                Self::component_trace(rng, rates, horizon, &mut events, |up| {
                    if up {
                        FaultKind::LinkRepair(id)
                    } else {
                        FaultKind::LinkFail(id)
                    }
                });
            }
        }
        // Stable: simultaneous events keep class-then-index order.
        events.sort_by_key(|e| e.at);
        FaultSchedule { events }
    }

    /// One component's alternating up/down renewal process.
    fn component_trace(
        mut rng: DetRng,
        rates: ClassRates,
        horizon: SimTime,
        events: &mut Vec<FaultEvent>,
        kind: impl Fn(bool) -> FaultKind,
    ) {
        let mut at = SimTime::ZERO;
        loop {
            let up = rng.exponential_duration(rates.mtbf);
            let Some(fail_at) = at.checked_add(up) else {
                return;
            };
            if fail_at > horizon {
                return;
            }
            events.push(FaultEvent {
                at: fail_at,
                kind: kind(false),
            });
            let down = rng.exponential_duration(rates.mttr);
            let Some(repair_at) = fail_at.checked_add(down) else {
                return;
            };
            if repair_at > horizon {
                // The component stays down past the end of the run.
                return;
            }
            events.push(FaultEvent {
                at: repair_at,
                kind: kind(true),
            });
            at = repair_at;
        }
    }

    /// The events, time-ordered.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the schedule is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The heartbeat/node-lease failure detector (K3s semantics).
///
/// Components renew their lease on a fixed heartbeat. A fault occurring at
/// `t` is only *detected* once the lease granted at the last heartbeat
/// before `t` expires — until then the failed component keeps silently
/// dropping traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectionModel {
    /// Heartbeat / lease-renewal interval.
    pub heartbeat: SimDuration,
    /// Lease duration granted at each renewal.
    pub lease: SimDuration,
}

impl DetectionModel {
    /// K3s defaults at edge scale: 1 s heartbeats, 4 s leases.
    #[must_use]
    pub fn k3s_default() -> Self {
        DetectionModel {
            heartbeat: SimDuration::from_secs(1),
            lease: SimDuration::from_secs(4),
        }
    }

    /// When a fault occurring at `fault` is detected: the lease granted at
    /// the last heartbeat at or before `fault` runs out.
    #[must_use]
    pub fn detect_at(&self, fault: SimTime) -> SimTime {
        if self.heartbeat.is_zero() {
            // Degenerate configuration: an omniscient detector.
            return fault;
        }
        let hb = self.heartbeat.as_nanos();
        let last_renewal = SimTime::from_nanos(fault.as_nanos() / hb * hb);
        (last_renewal + self.lease).max(fault)
    }
}

impl Default for DetectionModel {
    fn default() -> Self {
        DetectionModel::k3s_default()
    }
}

/// Self-healing reconciliation: displaced streams are re-admitted
/// automatically, retrying with capped exponential backoff while parked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealPolicy {
    /// First retry delay after a failed re-admission attempt.
    pub backoff_base: SimDuration,
    /// Upper bound on the retry delay.
    pub backoff_cap: SimDuration,
}

/// Domain separator for the backoff jitter hash (distinct from every
/// other splitmix keying in the workspace).
const BACKOFF_JITTER_SALT: u64 = 0x4841_4C46_5F4A_4954;

impl HealPolicy {
    /// Retry delay after `attempt` consecutive failures (1-based):
    /// `base × 2^(attempt−1)`, capped, then spread within ±25% by a seeded
    /// hash of `salt` (the retrying stream's id). Without the spread every
    /// stream displaced by a mass failure computes the identical delay and
    /// retries in lock-step — a thundering herd at each backoff step. The
    /// jitter is a pure function of `(policy, attempt, salt)`, so replays
    /// stay byte-identical across runs and worker counts.
    #[must_use]
    pub fn backoff(&self, attempt: u32, salt: u64) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(32);
        let nominal = self
            .backoff_base
            .as_nanos()
            .saturating_mul(1u64 << u64::from(shift))
            .min(self.backoff_cap.as_nanos());
        let span = nominal / 4;
        if span == 0 {
            return SimDuration::from_nanos(nominal);
        }
        let h = splitmix64(
            salt.wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ BACKOFF_JITTER_SALT,
        );
        let offset = h % (2 * span + 1);
        SimDuration::from_nanos(nominal - span + offset)
    }
}

impl Default for HealPolicy {
    fn default() -> Self {
        HealPolicy {
            backoff_base: SimDuration::from_secs(1),
            backoff_cap: SimDuration::from_secs(32),
        }
    }
}

/// Graceful degradation: rather than dropping tenants when survivors cannot
/// fit everyone at full rate, frame rates are lowered in power-of-two
/// fairness tiers (1/2, 1/4, … of the declared FPS) — each tier divides a
/// stream's frame rate and TPU-unit demand by its denominator — and
/// restored when capacity returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Deepest tier: the largest frame-rate denominator (a power of two).
    pub max_denominator: u32,
}

impl DegradePolicy {
    /// The tier denominators, shallowest first: `1, 2, 4, …`.
    pub fn tiers(&self) -> impl Iterator<Item = u32> {
        let max = self.max_denominator.max(1);
        (0..=max.ilog2()).map(|p| 1u32 << p)
    }
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy { max_denominator: 4 }
    }
}

/// Everything governing the world's reaction to injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// The failure detector.
    pub detection: DetectionModel,
    /// Self-healing reconciliation; `None` = displaced streams are lost
    /// (the no-heal baseline).
    pub heal: Option<HealPolicy>,
    /// Graceful degradation; `None` = streams run at full rate or not at
    /// all. Ignored unless healing is enabled.
    pub degrade: Option<DegradePolicy>,
    /// Control-plane RPC cost charged per rescheduling step (candidate
    /// fetch, binding, LBS push), entering the recovery-latency breakdown.
    pub resched_rpc: SimDuration,
}

impl ChaosConfig {
    /// The no-heal baseline: failures are detected but displaced streams
    /// are dropped outright.
    #[must_use]
    pub fn no_heal() -> Self {
        ChaosConfig {
            heal: None,
            degrade: None,
            ..ChaosConfig::default()
        }
    }

    /// Healing without degradation: displaced streams are re-admitted at
    /// full rate or parked.
    #[must_use]
    pub fn heal_only() -> Self {
        ChaosConfig {
            degrade: None,
            ..ChaosConfig::default()
        }
    }

    /// Healing plus tiered frame-rate degradation (the default).
    #[must_use]
    pub fn heal_degrade() -> Self {
        ChaosConfig::default()
    }
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            detection: DetectionModel::k3s_default(),
            heal: Some(HealPolicy::default()),
            degrade: Some(DegradePolicy::default()),
            resched_rpc: SimDuration::from_millis(50),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microedge_cluster::topology::ClusterBuilder;

    fn secs(v: u64) -> SimDuration {
        SimDuration::from_secs(v)
    }

    #[test]
    fn generation_is_deterministic() {
        let cluster = ClusterBuilder::new().trpis(3).vrpis(5).build();
        let model = FaultModel {
            tpu: Some(ClassRates::new(secs(100), secs(20))),
            node: Some(ClassRates::new(secs(500), secs(60))),
            link: Some(ClassRates::new(secs(200), secs(5))),
        };
        let a = FaultSchedule::generate(&model, &cluster, SimTime::from_secs(3600), 42);
        let b = FaultSchedule::generate(&model, &cluster, SimTime::from_secs(3600), 42);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = FaultSchedule::generate(&model, &cluster, SimTime::from_secs(3600), 43);
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn generated_events_are_ordered_and_alternate() {
        let cluster = ClusterBuilder::new().trpis(1).vrpis(1).build();
        let model = FaultModel {
            tpu: Some(ClassRates::new(secs(50), secs(10))),
            ..FaultModel::default()
        };
        let s = FaultSchedule::generate(&model, &cluster, SimTime::from_secs(2000), 1);
        let events = s.events();
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
        // Single component: strict fail/repair alternation.
        for (i, e) in events.iter().enumerate() {
            let repair = matches!(e.kind, FaultKind::TpuRepair(_));
            assert_eq!(repair, i % 2 == 1, "event {i}: {e:?}");
        }
    }

    #[test]
    fn disabled_classes_generate_nothing() {
        let cluster = ClusterBuilder::new().trpis(2).vrpis(2).build();
        let s = FaultSchedule::generate(
            &FaultModel::default(),
            &cluster,
            SimTime::from_secs(10_000),
            9,
        );
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn scripted_traces_are_sorted_stably() {
        let t = SimTime::from_secs(5);
        let s = FaultSchedule::scripted(vec![
            FaultEvent {
                at: SimTime::from_secs(9),
                kind: FaultKind::TpuRepair(TpuId(0)),
            },
            FaultEvent {
                at: t,
                kind: FaultKind::TpuFail(TpuId(0)),
            },
            FaultEvent {
                at: t,
                kind: FaultKind::LinkFail(NodeId(1)),
            },
        ]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.events()[0].kind, FaultKind::TpuFail(TpuId(0)));
        assert_eq!(s.events()[1].kind, FaultKind::LinkFail(NodeId(1)));
    }

    #[test]
    fn detection_waits_for_the_lease() {
        let d = DetectionModel {
            heartbeat: SimDuration::from_secs(1),
            lease: SimDuration::from_secs(4),
        };
        // Fault at 10.3 s: last renewal 10.0 s, lease out at 14.0 s.
        let fault = SimTime::from_millis(10_300);
        assert_eq!(d.detect_at(fault), SimTime::from_secs(14));
        // Fault exactly on a heartbeat still waits a full lease.
        assert_eq!(d.detect_at(SimTime::from_secs(10)), SimTime::from_secs(14));
        // Degenerate zero-heartbeat model is omniscient.
        let omniscient = DetectionModel {
            heartbeat: SimDuration::ZERO,
            lease: SimDuration::ZERO,
        };
        assert_eq!(omniscient.detect_at(fault), fault);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let h = HealPolicy {
            backoff_base: secs(1),
            backoff_cap: secs(8),
        };
        // Nominal schedule 1/2/4/8/8… s, spread ±25% per stream. The jitter
        // bands of consecutive attempts never overlap (1.25·2^k < 0.75·2^(k+1)),
        // so doubling survives the spread.
        for salt in [0u64, 1, 7, 1 << 40, 0xDEAD_BEEF] {
            let mut prev = 0u64;
            for (attempt, nominal_s) in [(1u32, 1u64), (2, 2), (3, 4), (4, 8)] {
                let d = h.backoff(attempt, salt).as_nanos();
                let nominal = nominal_s * 1_000_000_000;
                let span = nominal / 4;
                assert!(
                    (nominal - span..=nominal + span).contains(&d),
                    "attempt {attempt} salt {salt}: {d} outside ±25% of {nominal}"
                );
                assert!(d > prev, "attempt {attempt} salt {salt} did not grow");
                prev = d;
            }
            // Deep attempts jitter around the cap (never above 1.25×);
            // attempt 64 exercises the shift-overflow guard.
            for attempt in [10u32, 64] {
                let d = h.backoff(attempt, salt).as_nanos();
                let cap = 8 * 1_000_000_000;
                assert!(
                    (cap - cap / 4..=cap + cap / 4).contains(&d),
                    "attempt {attempt} salt {salt}: {d} outside the cap band"
                );
            }
        }
        // Pure function of (attempt, salt): byte-identical across calls…
        assert_eq!(h.backoff(3, 42), h.backoff(3, 42));
        // …while distinct streams actually spread out.
        let spread: std::collections::BTreeSet<u64> =
            (0..16).map(|s| h.backoff(1, s).as_nanos()).collect();
        assert!(spread.len() > 8, "jitter did not spread: {spread:?}");
        // A zero-base policy has no span to spread over.
        let flat = HealPolicy {
            backoff_base: SimDuration::ZERO,
            backoff_cap: secs(8),
        };
        assert_eq!(flat.backoff(5, 7), SimDuration::ZERO);
    }

    #[test]
    fn degrade_tiers_are_powers_of_two() {
        let d = DegradePolicy { max_denominator: 4 };
        assert_eq!(d.tiers().collect::<Vec<_>>(), vec![1, 2, 4]);
        let flat = DegradePolicy { max_denominator: 1 };
        assert_eq!(flat.tiers().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn chaos_config_presets() {
        assert!(ChaosConfig::no_heal().heal.is_none());
        assert!(ChaosConfig::heal_only().heal.is_some());
        assert!(ChaosConfig::heal_only().degrade.is_none());
        assert!(ChaosConfig::heal_degrade().degrade.is_some());
    }
}
