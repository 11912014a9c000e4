//! Chaos mode: injected component faults and repairs, the lease-based
//! detector, parking displaced streams, the swap-in guard, the
//! reconciliation controller that re-admits them with backoff, and
//! graceful degradation in fairness tiers.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use microedge_cluster::node::NodeId;
use microedge_metrics::recovery::{AvailabilityTracker, RecoveryBreakdown, RecoveryRecorder};
use microedge_orch::pod::PodId;
use microedge_sim::time::{SimDuration, SimTime};
use microedge_tpu::device::TpuId;
use microedge_tpu::spec::TpuSpec;

use super::{Ev, Lifecycle, StreamId, StreamSpec, Swap, World};
use crate::faults::{ChaosConfig, FaultKind, FaultSchedule};
use crate::scheduler::{Deployment, StageGrant};

/// Per-component fault bookkeeping (one per TPU, one per node — link
/// partitions share the node slot since the detector cannot tell them
/// apart).
#[derive(Debug, Default, Clone, Copy)]
struct CompFault {
    down_since: Option<SimTime>,
    /// Bumped on every new fault; `Detect` events from earlier downtimes
    /// carry stale epochs and are dropped.
    epoch: u32,
    detected: bool,
}

impl CompFault {
    /// The component fails at `now`: returns the new fault's epoch, or
    /// `None` when it is already down.
    fn fail(&mut self, now: SimTime) -> Option<u32> {
        if self.down_since.is_some() {
            return None;
        }
        self.down_since = Some(now);
        self.epoch = self.epoch.wrapping_add(1);
        self.detected = false;
        Some(self.epoch)
    }

    /// The component is repaired: returns whether the control plane had
    /// detected the fault, or `None` when it was not down.
    fn repair(&mut self) -> Option<bool> {
        self.down_since.take()?;
        Some(std::mem::take(&mut self.detected))
    }

    /// The lease of fault `epoch` expires: returns when the component went
    /// down, or `None` when that fault was repaired, superseded or already
    /// detected.
    fn detect(&mut self, epoch: u32) -> Option<SimTime> {
        let down_since = self.down_since?;
        if self.epoch != epoch || self.detected {
            return None;
        }
        self.detected = true;
        Some(down_since)
    }
}

/// One displaced stream waiting for re-admission.
#[derive(Debug, Clone, Copy)]
pub(super) struct ParkedStream {
    pub(super) stream: StreamId,
    /// Consecutive failed re-admission attempts (drives backoff).
    attempts: u32,
    next_try: SimTime,
    fault_at: SimTime,
    detected_at: SimTime,
}

/// Why a stream awaits a swap-in, with what the swap-in's completion needs.
#[derive(Debug, Clone, Copy)]
pub(super) enum SwapCause {
    /// Parameters stream onto a placement the control plane recovered. Its
    /// completion resumes the stream and records `breakdown`; `restarted`
    /// marks a re-admission, which counts as a restart of the lineage.
    Recovery {
        breakdown: RecoveryBreakdown,
        restarted: bool,
    },
    /// A defrag migration's priced cost. The stream keeps serving through
    /// the move, so the completion only lifts the guard.
    Migration,
}

/// All chaos-mode state; boxed behind an `Option` so non-chaos worlds pay
/// nothing.
#[derive(Debug)]
pub(super) struct ChaosState {
    config: ChaosConfig,
    tpus: Vec<CompFault>,
    nodes: Vec<CompFault>,
    pub(super) parked: Vec<ParkedStream>,
    pub(super) recorder: RecoveryRecorder,
    /// Availability per lineage root.
    pub(super) trackers: BTreeMap<StreamId, AvailabilityTracker>,
    /// Sequence number of the latest swap-in (see `Swap`).
    swap_seq: u32,
    /// Earliest pending `Reconcile` event, to avoid flooding the queue.
    reconcile_at: Option<SimTime>,
}

impl ChaosState {
    /// The fault slot of `kind`'s component: its TPU's, or its node's for
    /// node and link faults.
    fn slot(&mut self, kind: FaultKind) -> Option<&mut CompFault> {
        match kind {
            FaultKind::TpuFail(tpu) | FaultKind::TpuRepair(tpu) => self.tpus.get_mut(tpu.index()),
            FaultKind::NodeFail(node)
            | FaultKind::NodeRepair(node)
            | FaultKind::LinkFail(node)
            | FaultKind::LinkRepair(node) => self.nodes.get_mut(node.index()),
        }
    }

    /// The availability tracker of the lineage rooted at `root`.
    pub(super) fn tracker(&mut self, root: StreamId) -> &mut AvailabilityTracker {
        self.trackers.entry(root).or_default()
    }
}

impl World {
    /// Arms chaos mode: injected faults (see [`World::inject_faults`]) flow
    /// through the lease-based failure detector, the reconciliation
    /// controller heals displaced streams per `config.heal`, and frame
    /// rates degrade in fairness tiers per `config.degrade`. Idempotent in
    /// effect — calling again replaces the configuration and resets fault
    /// bookkeeping.
    pub fn enable_chaos(&mut self, config: ChaosConfig) {
        let node_slots = self
            .orch
            .cluster()
            .nodes()
            .iter()
            .map(|n| n.id().index() + 1)
            .max()
            .unwrap_or(0);
        self.chaos = Some(Box::new(ChaosState {
            config,
            tpus: vec![CompFault::default(); self.services.len()],
            nodes: vec![CompFault::default(); node_slots],
            parked: Vec::new(),
            recorder: RecoveryRecorder::new(),
            trackers: BTreeMap::new(),
            swap_seq: 0,
            reconcile_at: None,
        }));
    }

    /// Schedules every event of a fault trace into the simulation. Events
    /// earlier than the current time are skipped. Arms chaos mode with the
    /// default [`ChaosConfig`] if it is not already enabled.
    pub fn inject_faults(&mut self, schedule: &FaultSchedule) {
        if self.chaos.is_none() {
            self.enable_chaos(ChaosConfig::default());
        }
        let now = self.queue.now();
        for ev in schedule.events() {
            if ev.at < now {
                continue;
            }
            self.queue.schedule_at(ev.at, Ev::Fault(ev.kind));
        }
    }

    /// Live streams that currently route through `tpu` (control-plane
    /// view).
    fn streams_using_tpu(&self, tpu: TpuId) -> Vec<StreamId> {
        self.streams_where(|s| {
            s.lifecycle.is_live()
                && self
                    .sched
                    .assignment(s.pod)
                    .is_some_and(|allocs| allocs.iter().any(|a| a.tpu() == tpu))
        })
    }

    /// Marks a live stream interrupted (its frames now drop at the client)
    /// and opens the lineage's outage interval.
    fn interrupt_stream(&mut self, now: SimTime, id: StreamId) {
        let Some(stream) = self.stream(id) else {
            return;
        };
        let Lifecycle::Serving { den, swap } = stream.lifecycle else {
            return;
        };
        let root = stream.root;
        self.transition(id, Lifecycle::Interrupted { den, swap });
        if let Some(chaos) = self.chaos.as_mut() {
            chaos.tracker(root).outage_begins(now);
        }
    }

    /// Returns interrupted streams whose placement is healthy again to
    /// serving. A stream awaiting a recovery swap-in waits for it; a
    /// migration guard stays on the stream.
    fn resync_interrupted(&mut self, now: SimTime) {
        let healthy = self.streams_where(|s| {
            matches!(s.lifecycle, Lifecycle::Interrupted { swap, .. }
                if !swap.is_some_and(Swap::is_recovery))
                && self.placement_healthy(s.pod)
        });
        for id in healthy {
            self.resume(now, id);
        }
    }

    /// Returns a stream whose placement serves again to serving at its
    /// rate, closing its lineage's outage (and opening a degrade span below
    /// full rate).
    fn resume(&mut self, now: SimTime, id: StreamId) {
        let Some(s) = self.stream(id) else {
            return;
        };
        let (Lifecycle::Interrupted { den, swap } | Lifecycle::Parked { den, swap }) = s.lifecycle
        else {
            return;
        };
        let root = s.root;
        self.transition(id, Lifecycle::Serving { den, swap });
        if let Some(chaos) = self.chaos.as_mut() {
            let tracker = chaos.tracker(root);
            tracker.outage_ends(now);
            if den > 1 {
                tracker.degrade_begins(now);
            }
        }
    }

    /// Whether every component a pod depends on (host node, every allocated
    /// TPU) is currently serving.
    fn placement_healthy(&self, pod: PodId) -> bool {
        let Some(node) = self.orch.node_of(pod) else {
            return false;
        };
        if self.down(FaultKind::NodeFail(node)) {
            return false;
        }
        let Some(allocs) = self.sched.assignment(pod) else {
            return false;
        };
        allocs.iter().all(|a| {
            self.services
                .get(a.tpu().index())
                .is_some_and(|svc| svc.alive)
        })
    }

    pub(super) fn on_fault(&mut self, now: SimTime, kind: FaultKind) {
        match kind {
            FaultKind::TpuFail(tpu) => self.on_tpu_fault(now, tpu),
            FaultKind::TpuRepair(tpu) => self.on_tpu_repair(now, tpu),
            FaultKind::NodeFail(node) | FaultKind::LinkFail(node) => {
                self.on_node_fault(now, kind, node);
            }
            FaultKind::NodeRepair(node) | FaultKind::LinkRepair(node) => {
                self.on_node_repair(now, kind, node);
            }
        }
    }

    /// Marks `kind`'s component down at `now` and schedules the `Detect` at
    /// its lease's expiry. Returns `false`, changing nothing, without chaos
    /// mode or when the component is already down.
    fn mark_down(&mut self, now: SimTime, kind: FaultKind) -> bool {
        let Some(chaos) = self.chaos.as_mut() else {
            return false;
        };
        let Some(epoch) = chaos.slot(kind).and_then(|slot| slot.fail(now)) else {
            return false;
        };
        let detect_at = chaos.config.detection.detect_at(now);
        self.queue
            .schedule_at(detect_at, Ev::Detect { kind, epoch });
        true
    }

    /// Marks `kind`'s component up: returns whether the control plane had
    /// detected its fault, or `None` without chaos mode or when it was not
    /// down.
    fn mark_up(&mut self, kind: FaultKind) -> Option<bool> {
        self.chaos.as_mut()?.slot(kind)?.repair()
    }

    /// Serves from a repaired TPU again, first returning it to the pool
    /// when the control plane had replanned around it.
    fn revive_tpu(&mut self, tpu: TpuId, detected: bool) {
        if detected {
            self.sched.restore_tpu(tpu);
            self.sync_device(tpu);
        }
        if let Some(svc) = self.services.get_mut(tpu.index()) {
            svc.alive = true;
        }
    }

    fn on_tpu_fault(&mut self, now: SimTime, tpu: TpuId) {
        if !self.mark_down(now, FaultKind::TpuFail(tpu)) {
            return;
        }
        // Data plane only: the service silently drops traffic until the
        // lease expires.
        self.kill_tpu_data_plane(now, tpu);
        for id in self.streams_using_tpu(tpu) {
            self.interrupt_stream(now, id);
        }
    }

    fn on_tpu_repair(&mut self, now: SimTime, tpu: TpuId) {
        let Some(detected) = self.mark_up(FaultKind::TpuRepair(tpu)) else {
            return;
        };
        // If the hosting node is itself down the repaired TPU stays
        // unreachable; the node's repair will bring it back.
        let host_down = self
            .tpu_host(tpu)
            .is_some_and(|node| self.down(FaultKind::NodeFail(node)));
        if host_down {
            return;
        }
        // An undetected blip left all placements intact; a detected fault
        // was replanned around, so the TPU also returns to the pool.
        self.revive_tpu(tpu, detected);
        self.resync_interrupted(now);
        self.nudge_reconciler(now);
    }

    fn on_node_fault(&mut self, now: SimTime, kind: FaultKind, node: NodeId) {
        if !self.mark_down(now, kind) {
            return;
        }
        let mut victims: Vec<StreamId> = Vec::new();
        if let Some(tpu) = self.tpu_on_node(node) {
            self.kill_tpu_data_plane(now, tpu);
            victims.extend(self.streams_using_tpu(tpu));
        }
        // Streams whose application container lives on the dead /
        // partitioned node stop making progress too.
        victims.extend(
            self.streams_where(|s| s.lifecycle.is_live() && self.orch.node_of(s.pod) == Some(node)),
        );
        victims.sort_unstable();
        victims.dedup();
        for id in victims {
            self.interrupt_stream(now, id);
        }
    }

    fn on_node_repair(&mut self, now: SimTime, kind: FaultKind, node: NodeId) {
        let Some(detected) = self.mark_up(kind) else {
            return;
        };
        if detected {
            self.orch.restore_node(node);
        }
        if let Some(tpu) = self.tpu_on_node(node) {
            if !self.down(FaultKind::TpuFail(tpu)) {
                self.revive_tpu(tpu, detected);
            }
        }
        self.resync_interrupted(now);
        self.nudge_reconciler(now);
    }

    pub(super) fn on_detect(&mut self, now: SimTime, kind: FaultKind, epoch: u32) {
        let Some(chaos) = self.chaos.as_mut() else {
            return;
        };
        let heal = chaos.config.heal.is_some();
        let Some(fault_at) = chaos.slot(kind).and_then(|slot| slot.detect(epoch)) else {
            return;
        };
        match kind {
            FaultKind::TpuFail(tpu) => self.detect_tpu_failure(now, tpu, heal, fault_at),
            FaultKind::NodeFail(node) | FaultKind::LinkFail(node) => {
                self.detect_node_failure(now, node, heal, fault_at);
            }
            // Repairs never schedule `Detect`.
            _ => {}
        }
    }

    /// The control plane reacts to a detected TPU failure: under healing
    /// every affected pod is replanned onto survivors (or parked for the
    /// reconciler); without healing displaced pods are dropped outright —
    /// the no-heal baseline.
    fn detect_tpu_failure(&mut self, now: SimTime, tpu: TpuId, heal: bool, fault_at: SimTime) {
        if heal {
            let outcome = self.sched.handle_tpu_failure(tpu);
            for rec in &outcome.recovered {
                let Some(sid) = self.stream_of_pod(rec.pod) else {
                    continue;
                };
                self.apply_plans(sid, &rec.plans);
                let stages = rec.plans.len();
                self.schedule_swap_in(sid, fault_at, now, rec.swap_bytes, stages, false);
            }
            for pod in outcome.lost {
                let _ = self.orch.delete_pod(pod);
                if let Some(sid) = self.stream_of_pod(pod) {
                    self.park_stream(now, sid, fault_at, now);
                }
            }
            self.nudge_reconciler(now);
        } else {
            for pod in self.sched.fail_tpu_releasing(tpu) {
                let _ = self.orch.delete_pod(pod);
                if let Some(sid) = self.stream_of_pod(pod) {
                    self.transition(sid, Lifecycle::Lost);
                }
            }
        }
    }

    /// The control plane reacts to a detected node/link failure: the
    /// orchestrator evicts hosted pods (K3s marks the node NotReady after
    /// the lease), their units are reclaimed, and the node's TPU — if any —
    /// goes through the TPU failure path.
    fn detect_node_failure(&mut self, now: SimTime, node: NodeId, heal: bool, fault_at: SimTime) {
        let displaced = self.orch.fail_node(node);
        self.sched.reclaim_terminated(&self.orch);
        // Parked streams whose replacement pod was still swapping in when
        // the node died count as displaced too — they must re-enter the
        // pending-restart queue.
        let hosted: Vec<StreamId> = displaced
            .iter()
            .filter_map(|&p| self.stream_of_pod(p))
            .filter(|&sid| {
                self.stream(sid)
                    .is_some_and(|s| s.lifecycle.is_live_or_parked())
            })
            .collect();
        for sid in hosted {
            self.park_stream(now, sid, fault_at, now);
        }
        if let Some(tpu) = self.tpu_on_node(node) {
            self.detect_tpu_failure(now, tpu, heal, fault_at);
        }
        self.nudge_reconciler(now);
    }

    /// Queues a displaced stream for re-admission by the reconciler (or
    /// marks it lost when healing is off).
    fn park_stream(
        &mut self,
        now: SimTime,
        sid: StreamId,
        fault_at: SimTime,
        detected_at: SimTime,
    ) {
        let Some(chaos) = self.chaos.as_mut().filter(|c| c.config.heal.is_some()) else {
            self.transition(sid, Lifecycle::Lost);
            return;
        };
        if !chaos.parked.iter().any(|p| p.stream == sid) {
            chaos.parked.push(ParkedStream {
                stream: sid,
                attempts: 0,
                next_try: now,
                fault_at,
                detected_at,
            });
        }
        // Parking supersedes any in-flight swap: its placement is gone.
        let den = self.stream(sid).map_or(1, |s| s.lifecycle.den());
        self.transition(sid, Lifecycle::Parked { den, swap: None });
    }

    /// Schedules the swap-in completion for a freshly replanned placement
    /// and stamps the stream as waiting on it. Runs at the instant the
    /// replanning happened, so "now" is the queue's current time.
    fn schedule_swap_in(
        &mut self,
        sid: StreamId,
        fault_at: SimTime,
        detected_at: SimTime,
        swap_bytes: u64,
        stages: usize,
        restarted: bool,
    ) {
        let now = self.queue.now();
        let Some(chaos) = self.chaos.as_ref() else {
            return;
        };
        let rpc =
            chaos.config.resched_rpc * (1 + u64::try_from(stages).expect("stage count fits u64"));
        let swap = TpuSpec::coral_usb().swap_time(swap_bytes);
        let breakdown = RecoveryBreakdown::new(
            detected_at.saturating_since(fault_at),
            now.saturating_since(detected_at) + rpc,
            swap,
        );
        let cause = SwapCause::Recovery {
            breakdown,
            restarted,
        };
        self.guard_swap(sid, rpc + swap, cause);
    }

    /// Makes `sid` await a new swap-in for `cause` and schedules its
    /// `SwapIn` after `delay`; the stream's older `SwapIn`, if any, is then
    /// ignored. While the swap is awaited, rescale, upgrade and defrag keep
    /// their hands off the stream. A no-op without chaos mode, where no
    /// such path can race a swap.
    pub(super) fn guard_swap(&mut self, sid: StreamId, delay: SimDuration, cause: SwapCause) {
        let Some(chaos) = self.chaos.as_mut() else {
            return;
        };
        chaos.swap_seq = chaos.swap_seq.wrapping_add(1);
        let swap = Swap::new(chaos.swap_seq, &cause);
        if let Some(s) = self.stream(sid) {
            self.transition(sid, s.lifecycle.with_swap(Some(swap)));
        }
        self.queue
            .schedule_after(delay, Ev::SwapIn(sid, swap, cause));
    }

    /// A swap-in completes. Only a recovery's resumes the stream and
    /// records its breakdown; a migration's only lifts the guard.
    pub(super) fn on_swap_in(&mut self, now: SimTime, sid: StreamId, swap: Swap, cause: SwapCause) {
        let Some(s) = self.stream(sid) else {
            return;
        };
        if s.lifecycle.swap() != Some(swap) {
            // Superseded by a later swap, or the stream left its placement
            // (parked, crashed, removed or restarted by hand) meanwhile.
            return;
        }
        let (lifecycle, root, pod) = (s.lifecycle, s.root, s.pod);
        self.transition(sid, lifecycle.with_swap(None));
        let SwapCause::Recovery {
            breakdown,
            restarted,
        } = cause
        else {
            return;
        };
        // A serving stream has nothing to resume. A replacement placement
        // that failed before the swap-in finished stays down: the new
        // fault's detection will replan it.
        if matches!(lifecycle, Lifecycle::Serving { .. }) || !self.placement_healthy(pod) {
            return;
        }
        self.resume(now, sid);
        if let Some(chaos) = self.chaos.as_mut() {
            if restarted {
                chaos.tracker(root).count_restart();
            }
            chaos.recorder.record(&breakdown);
        }
        if let Some(s) = self.streams.get_mut(sid.index()) {
            if !s.emission_alive {
                s.emission_alive = true;
                self.queue.schedule_after(SimDuration::ZERO, Ev::Frame(sid));
            }
        }
    }

    /// Ensures a `Reconcile` event fires at `now` if the controller has
    /// work: parked streams to re-admit, or degraded streams that might
    /// upgrade now that capacity was released.
    pub(super) fn nudge_reconciler(&mut self, now: SimTime) {
        let Some(chaos) = self.chaos.as_ref() else {
            return;
        };
        if chaos.config.heal.is_none() {
            return;
        }
        let wanted = !chaos.parked.is_empty()
            || self
                .streams
                .iter()
                .any(|s| matches!(s.lifecycle, Lifecycle::Serving { den, .. } if den > 1));
        if wanted {
            self.schedule_reconcile(now);
        }
    }

    /// Schedules a `Reconcile` event at `at` unless an earlier one is
    /// already pending.
    fn schedule_reconcile(&mut self, at: SimTime) {
        let Some(chaos) = self.chaos.as_mut() else {
            return;
        };
        if chaos.reconcile_at.is_none_or(|t| at < t) {
            chaos.reconcile_at = Some(at);
            self.queue.schedule_at(at, Ev::Reconcile);
        }
    }

    pub(super) fn on_reconcile(&mut self, now: SimTime) {
        let (due, heal): (Vec<ParkedStream>, _) = {
            let Some(chaos) = self.chaos.as_mut() else {
                return;
            };
            chaos.reconcile_at = None;
            let Some(heal) = chaos.config.heal else {
                return;
            };
            let due = chaos.parked.iter().copied();
            (due.filter(|p| p.next_try <= now).collect(), heal)
        };
        for entry in due {
            let readmitted = self.try_readmit(now, entry);
            let Some(chaos) = self.chaos.as_mut() else {
                return;
            };
            if readmitted {
                chaos.parked.retain(|p| p.stream != entry.stream);
            } else if let Some(p) = chaos.parked.iter_mut().find(|p| p.stream == entry.stream) {
                p.attempts += 1;
                p.next_try = now + heal.backoff(p.attempts, p.stream.0);
            }
        }
        // Only once nothing is waiting does the controller hand capacity
        // back to degraded tenants.
        match self
            .chaos
            .as_ref()
            .and_then(|c| c.parked.iter().map(|p| p.next_try).min())
        {
            Some(next) => self.schedule_reconcile(next.max(now)),
            None => self.upgrade_degraded(now),
        }
    }

    /// One re-admission attempt for a parked stream: try each degradation
    /// tier from full rate down, then try making room by degrading active
    /// tenants, and finally give up (the caller applies backoff). Returns
    /// `true` when the entry should leave the queue.
    fn try_readmit(&mut self, now: SimTime, entry: ParkedStream) -> bool {
        let sid = entry.stream;
        let spec = match self.stream(sid) {
            Some(s) if matches!(s.lifecycle, Lifecycle::Parked { .. }) => s.spec.clone(),
            // Removed / restarted / otherwise gone: drop the entry.
            _ => return true,
        };
        let tiers: Vec<u32> = match self.chaos.as_ref().and_then(|c| c.config.degrade.as_ref()) {
            Some(d) => d.tiers().collect(),
            None => vec![1],
        };
        for &den in &tiers {
            if self.try_readmit_at(sid, &entry, &spec, den) {
                return true;
            }
        }
        let max_den = tiers.last().copied().unwrap_or(1);
        if max_den > 1 {
            while self.shrink_one_stream(now, max_den) {
                if self.try_readmit_at(sid, &entry, &spec, max_den) {
                    return true;
                }
            }
        }
        false
    }

    /// One deployment attempt at a specific degradation tier.
    fn try_readmit_at(
        &mut self,
        sid: StreamId,
        entry: &ParkedStream,
        spec: &StreamSpec,
        den: u32,
    ) -> bool {
        let Ok((pod_spec, requests, _)) = self.build_pod_spec(spec) else {
            return false;
        };
        match self
            .sched
            .deploy_requests(&mut self.orch, pod_spec, &requests, den)
        {
            Ok(deployment) => {
                self.wire_readmitted(sid, entry, den, &deployment);
                true
            }
            Err(_) => false,
        }
    }

    /// Points an existing (parked) stream runtime at its replacement
    /// deployment and schedules the swap-in that will bring it back live.
    fn wire_readmitted(
        &mut self,
        sid: StreamId,
        entry: &ParkedStream,
        den: u32,
        deployment: &Deployment,
    ) {
        let pod = deployment.pod();
        let mut per_tpu: BTreeMap<TpuId, u64> = BTreeMap::new();
        for grant in deployment.stages() {
            let bytes = self.sched.catalog().expect(grant.model()).param_bytes();
            for &tpu in grant.newly_loaded() {
                *per_tpu.entry(tpu).or_insert(0) += bytes;
            }
        }
        let swap_bytes = per_tpu.values().copied().max().unwrap_or(0);
        let stages = deployment.stages().len();
        if let Some(s) = self.stream_mut(sid) {
            s.pod = pod;
            for (stage, grant) in s.stages.iter_mut().zip(deployment.stages()) {
                stage.lbs = grant.lbs();
            }
        }
        self.transition(sid, Lifecycle::Parked { den, swap: None });
        self.map_pod(pod, sid);
        self.sync_allocations(deployment.stages().iter().flat_map(StageGrant::allocations));
        self.schedule_swap_in(
            sid,
            entry.fault_at,
            entry.detected_at,
            swap_bytes,
            stages,
            true,
        );
    }

    /// Degrades the least-degraded serving stream by one tier to free
    /// capacity. Returns `false` when no stream can be shrunk further.
    fn shrink_one_stream(&mut self, now: SimTime, max_den: u32) -> bool {
        let candidate = self
            .streams
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((s.lifecycle.unguarded_den()?, i)))
            .filter(|&(den, _)| den < max_den)
            .min();
        candidate.is_some_and(|(den, i)| self.rescale(now, StreamId::from_index(i), den * 2))
    }

    /// Promotes degraded streams back toward full rate, deepest tier
    /// first, for as long as capacity allows.
    fn upgrade_degraded(&mut self, now: SimTime) {
        loop {
            let candidate = self
                .streams
                .iter()
                .enumerate()
                .filter_map(|(i, s)| Some((s.lifecycle.unguarded_den()?, Reverse(i))))
                .filter(|&(den, _)| den > 1)
                .max();
            let Some((den, Reverse(i))) = candidate else {
                return;
            };
            if !self.rescale(now, StreamId::from_index(i), den / 2) {
                return;
            }
        }
    }

    /// Replans a serving stream no swap-in guards at denominator `new_den`
    /// and records the change, keeping the degrade-interval bookkeeping
    /// consistent. Returns `false`, changing nothing, when the pool cannot
    /// fit it.
    fn rescale(&mut self, now: SimTime, sid: StreamId, new_den: u32) -> bool {
        let Some(s) = self.stream(sid) else {
            return false;
        };
        let (pod, root, old_den) = (s.pod, s.root, s.lifecycle.den());
        let Ok(plans) = self.sched.rescale(pod, new_den) else {
            return false;
        };
        self.apply_plans(sid, &plans);
        self.transition(
            sid,
            Lifecycle::Serving {
                den: new_den,
                swap: None,
            },
        );
        if let Some(chaos) = self.chaos.as_mut() {
            let tracker = chaos.tracker(root);
            if old_den == 1 && new_den > 1 {
                tracker.degrade_begins(now);
            } else if old_den > 1 && new_den == 1 {
                tracker.degrade_ends(now);
            }
        }
        true
    }

    /// The node hosting `tpu`.
    fn tpu_host(&self, tpu: TpuId) -> Option<NodeId> {
        self.sched
            .pool()
            .accounts()
            .iter()
            .find(|a| a.id() == tpu)
            .map(|a| a.node())
    }

    /// Whether chaos bookkeeping currently marks `kind`'s component (its
    /// TPU, or its node for node and link faults) as down.
    fn down(&self, kind: FaultKind) -> bool {
        let Some(chaos) = self.chaos.as_ref() else {
            return false;
        };
        let slot = match kind {
            FaultKind::TpuFail(tpu) | FaultKind::TpuRepair(tpu) => chaos.tpus.get(tpu.index()),
            FaultKind::NodeFail(node)
            | FaultKind::NodeRepair(node)
            | FaultKind::LinkFail(node)
            | FaultKind::LinkRepair(node) => chaos.nodes.get(node.index()),
        };
        slot.is_some_and(|slot| slot.down_since.is_some())
    }
}
