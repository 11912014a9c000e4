//! The control plane (paper §4) as the world drives it: admission,
//! removal and crash, reclamation, the omniscient `fail_tpu`/`fail_node`
//! paths, drain, restart and evacuation, the defragmenter's epoch hook,
//! scheduled commands, and the demand estimate the fleet front door
//! places by.

use std::collections::BTreeSet;
use std::sync::Arc;

use microedge_cluster::node::NodeId;
use microedge_metrics::defrag::DefragStats;
use microedge_metrics::throughput::ThroughputAudit;
use microedge_models::profile::{ModelId, ModelProfile};
use microedge_orch::pod::{PodId, PodSpec, ResourceRequest};
use microedge_sim::inline::Inline;
use microedge_sim::rng::DetRng;
use microedge_sim::stats::OnlineStats;
use microedge_sim::time::{SimDuration, SimTime};
use microedge_tpu::device::TpuId;

use super::{
    stream_of_pod, Ev, EvacuatedStream, FrameFilter, Lifecycle, StageRuntime, StreamId,
    StreamRuntime, StreamSpec, SwapCause, World, WorldCommand,
};
use crate::defrag::{self, DefragConfig};
use crate::lbs::LbService;
use crate::scheduler::{DeployError, StageGrant, StagePlacement, TpuRequest};

/// A stream's pod spec and typed per-stage TPU requests, with each stage's
/// interned model profile (see `World::build_pod_spec`).
type PodRequest = (PodSpec, Inline<TpuRequest>, Inline<Arc<ModelProfile>>);

/// Background-defragmenter state, boxed behind an `Option` so worlds that
/// never enable it pay nothing.
#[derive(Debug)]
pub(super) struct DefragRuntime {
    config: DefragConfig,
    pub(super) stats: DefragStats,
    /// Epoch barriers seen since enablement; a planning cycle runs every
    /// `config.interval_epochs` of them.
    epochs: u64,
}

impl World {
    /// Admits a camera stream: TPU admission (all pipeline stages), pod
    /// creation, LBS seeding, and scheduling of its first frame at the
    /// current time plus the stream's start offset.
    ///
    /// # Errors
    ///
    /// See [`DeployError`]; on error nothing is changed.
    pub fn admit_stream(&mut self, spec: StreamSpec) -> Result<StreamId, DeployError> {
        self.admit_with_root(spec, None)
    }

    /// Returns the interned id and shared profile for `model`, cloning out
    /// of the catalog only on first use — every stream running the same
    /// model holds the catalog's id and the same profile `Arc`.
    fn intern_profile(
        &mut self,
        model: &ModelId,
    ) -> Result<(ModelId, Arc<ModelProfile>), DeployError> {
        if let Some((id, profile)) = self.profiles.get_key_value(model) {
            return Ok((id.clone(), Arc::clone(profile)));
        }
        let profile = self
            .sched
            .catalog()
            .get(model)
            .ok_or_else(|| DeployError::UnknownModel(model.clone()))?
            .clone();
        let id = profile.id().clone();
        let profile = Arc::new(profile);
        self.profiles.insert(id.clone(), Arc::clone(&profile));
        Ok((id, profile))
    }

    /// Builds the K3s pod spec for a stream and its typed per-stage TPU
    /// requests (profiled units unless the spec sets them), along with the
    /// per-stage model profiles. The pod spec carries no extensions: the
    /// requests go to the scheduler as they are.
    pub(super) fn build_pod_spec(&mut self, spec: &StreamSpec) -> Result<PodRequest, DeployError> {
        let mut requests = Inline::default();
        let mut profiles = Inline::default();
        for stage in &spec.stages {
            let (model, profile) = self.intern_profile(&stage.model)?;
            let units = stage
                .units
                .unwrap_or_else(|| self.dp.profiled_units(&profile, spec.fps));
            requests.push(TpuRequest::new(model, units));
            profiles.push(profile);
        }
        let pod_spec = PodSpec::builder(Arc::clone(&spec.name), Arc::clone(&self.image))
            .resources(ResourceRequest::camera_default())
            .build();
        Ok((pod_spec, requests, profiles))
    }

    fn admit_with_root(
        &mut self,
        mut spec: StreamSpec,
        root: Option<StreamId>,
    ) -> Result<StreamId, DeployError> {
        let (pod_spec, requests, profiles) = self.build_pod_spec(&spec)?;
        let deployment = self
            .sched
            .deploy_requests(&mut self.orch, pod_spec, &requests, 1)?;
        // The stored spec shares the interned ids; its own copies free.
        for (stage, request) in spec.stages.iter_mut().zip(&requests) {
            stage.model = request.model().clone();
        }
        let stages: Inline<StageRuntime> = deployment
            .stages()
            .iter()
            .zip(profiles.iter())
            .map(|(grant, profile)| StageRuntime {
                transfer: self.net.transfer_time(profile.input_bytes()),
                profile: Arc::clone(profile),
                lbs: grant.lbs(),
            })
            .collect();
        self.sync_allocations(deployment.stages().iter().flat_map(StageGrant::allocations));
        let id = StreamId(self.next_stream);
        debug_assert_eq!(id.index(), self.streams.len(), "slab ids are dense");
        self.next_stream += 1;
        let now = self.queue.now();
        let start_offset = spec.start_offset;
        // The spec moves into the runtime whole — no per-admission deep
        // clone of its name and stage list.
        let runtime = StreamRuntime {
            pod: deployment.pod(),
            stages,
            audit: ThroughputAudit::new(spec.fps),
            latency: OnlineStats::new(),
            interval: SimDuration::from_secs_f64(1.0 / spec.fps),
            frames_left: spec.frame_limit.unwrap_or(u64::MAX),
            filter: spec.frame_filter.as_deref().map(|&(pass_rate, seed)| {
                Box::new(FrameFilter {
                    pass_rate,
                    rng: DetRng::seed_from(seed),
                })
            }),
            preprocess: self.dp.preprocess_for(spec.source),
            spec,
            root: root.unwrap_or(id),
            lifecycle: Lifecycle::Serving { den: 1, swap: None },
            emission_alive: true,
        };
        self.map_pod(deployment.pod(), id);
        self.streams.push(runtime);
        self.active_count += 1;
        self.served.add(now, 1.0);
        self.queue.schedule_after(start_offset, Ev::Frame(id));
        if let Some(chaos) = self.chaos.as_mut() {
            let tracker = chaos.tracker(root.unwrap_or(id));
            if root.is_some() {
                // A restarted incarnation: the lineage's outage ends here.
                tracker.outage_ends(now);
                tracker.count_restart();
            }
        }
        Ok(id)
    }

    /// Removes a stream: the pod is deleted and its TPU units return to the
    /// pool. In-flight frames drain normally.
    ///
    /// # Errors
    ///
    /// Propagates orchestrator errors for unknown pods.
    pub fn remove_stream(&mut self, id: StreamId) -> Result<(), DeployError> {
        let stream = self.stream(id).ok_or(DeployError::UnknownStream(id.0))?;
        if !stream.lifecycle.is_live_or_parked() {
            return Err(DeployError::InvalidStreamState(id.0, "not running"));
        }
        let (pod, root) = (stream.pod, stream.root);
        let now = self.queue.now();
        let was_parked = matches!(stream.lifecycle, Lifecycle::Parked { .. });
        self.transition(id, Lifecycle::Removed);
        if was_parked {
            // The pod is already gone; just drop the pending-restart entry.
            if let Some(chaos) = self.chaos.as_mut() {
                chaos.parked.retain(|p| p.stream != id);
                chaos.tracker(root).outage_ends(now);
            }
            return Ok(());
        }
        self.sched.teardown(&mut self.orch, pod)?;
        // Capacity came back: give the reconciler a chance to drain parked
        // streams immediately.
        self.nudge_reconciler(now);
        Ok(())
    }

    /// Simulates the stream's pod crashing *without* notifying the
    /// extended scheduler: the orchestrator marks the pod terminated and
    /// frames stop, but the pod's TPU units remain held until the
    /// reclamation component notices (paper §3.1 step ⑤ — exercised via
    /// [`World::poll_reclamation`]).
    ///
    /// # Errors
    ///
    /// Propagates orchestrator errors for unknown/terminated pods.
    pub fn crash_stream(&mut self, id: StreamId) -> Result<(), DeployError> {
        let stream = self.stream(id).ok_or(DeployError::UnknownStream(id.0))?;
        if !stream.lifecycle.is_live() {
            return Err(DeployError::InvalidStreamState(id.0, "not running"));
        }
        let (pod, root) = (stream.pod, stream.root);
        let now = self.queue.now();
        self.transition(id, Lifecycle::Lost);
        self.orch.delete_pod(pod)?;
        if let Some(chaos) = self.chaos.as_mut() {
            chaos.tracker(root).outage_begins(now);
        }
        Ok(())
    }

    /// One poll of the reclamation component: returns the TPU units of
    /// every terminated pod that still holds an assignment, and reports the
    /// pods reclaimed.
    pub fn poll_reclamation(&mut self) -> Vec<PodId> {
        self.sched.reclaim_terminated(&self.orch)
    }

    /// Applies new per-stage placements to a stream's load balancers and
    /// reloads the affected devices.
    pub(super) fn apply_plans(&mut self, stream_id: StreamId, plans: &[StagePlacement]) {
        self.reseed_lbs(stream_id, plans);
        self.sync_allocations(plans.iter().flat_map(StagePlacement::allocations));
    }

    /// Re-seeds a stream's per-stage load balancers from new placements.
    fn reseed_lbs(&mut self, stream_id: StreamId, plans: &[StagePlacement]) {
        if let Some(stream) = self.stream_mut(stream_id) {
            for (stage, plan) in stream.stages.iter_mut().zip(plans) {
                stage.lbs = LbService::from_allocations(plan.allocations());
            }
        }
    }

    /// Arms the background defragmenter. From then on every
    /// [`World::defrag_epoch`] tick counts toward `config.interval_epochs`
    /// and armed ticks run one budgeted repacking cycle. Sharded runs call
    /// the tick at every epoch barrier; plain worlds may call it by hand
    /// between [`World::run_until`] slices.
    pub fn enable_defrag(&mut self, config: DefragConfig) {
        self.defrag = Some(Box::new(DefragRuntime {
            config,
            stats: DefragStats::default(),
            epochs: 0,
        }));
    }

    /// One defragmenter tick. A no-op unless [`World::enable_defrag`] was
    /// called and this tick completes an `interval_epochs` period; an armed
    /// tick plans donor evictions against the live pool and executes the
    /// ones whose recovered contiguous capacity justifies their modeled
    /// disruption (see [`crate::defrag`]).
    ///
    /// Pods of streams that await a swap-in or are not serving are frozen —
    /// the same swap guard the failure-recovery path uses — so a migration
    /// never races a recovery. Each migrated stream's load-balancer weights
    /// are re-seeded immediately (the move is planned at a quiescent epoch
    /// barrier, so no in-flight frame observes the old placement), every
    /// donor and receiver device cache is re-synced once, and in chaos mode
    /// the stream awaits a migration swap-in for the move's modeled cost so
    /// rescale/upgrade paths keep their hands off until the migration
    /// settles. That guard survives an interruption, and its completion
    /// neither resumes the stream nor records a recovery.
    pub fn defrag_epoch(&mut self) {
        let Some(runtime) = self.defrag.as_mut() else {
            return;
        };
        runtime.epochs += 1;
        if runtime.epochs % u64::from(runtime.config.interval_epochs.max(1)) != 0 {
            return;
        }
        let config = runtime.config;
        let (streams, pods_to_streams) = (&self.streams, &self.pods_to_streams);
        let frozen = |pod| {
            stream_of_pod(streams, pods_to_streams, pod)
                .is_some_and(|(_, s)| s.lifecycle.unguarded_den().is_none())
        };
        let mut stats = DefragStats::default();
        let moves = defrag::run_cycle(&mut self.sched, frozen, &config, &mut stats);
        // `run_cycle` has already applied every move to the scheduler and a
        // device reload overwrites its resident plan, so each touched TPU is
        // synced once, after the loop, against its final residency.
        let mut touched = BTreeSet::new();
        for mv in &moves {
            touched.insert(mv.plan.donor);
            for pod_move in &mv.plan.moves {
                let Some(sid) = self.stream_of_pod(pod_move.pod) else {
                    continue;
                };
                self.reseed_lbs(sid, &pod_move.plans);
                for stage in &pod_move.plans {
                    touched.extend(stage.allocations().iter().map(|alloc| alloc.tpu()));
                }
                // The stream keeps serving; the guard only keeps rescale
                // and recovery paths off it for the move's priced cost.
                if mv.cost > SimDuration::ZERO {
                    self.guard_swap(sid, mv.cost, SwapCause::Migration);
                }
            }
        }
        for tpu in touched {
            self.sync_device(tpu);
        }
        if let Some(runtime) = self.defrag.as_mut() {
            runtime.stats.merge(&stats);
        }
    }

    /// Fails a TPU mid-run: queued and executing frames on it are dropped,
    /// and affected pods are re-admitted on surviving TPUs where possible
    /// (the paper's failure-recovery extension). Streams whose pods cannot
    /// be re-placed are deactivated.
    ///
    /// Idempotent and non-panicking: an unknown or already-failed TPU
    /// displaces nothing and returns an empty list, matching the
    /// orchestrator's `fail_node` semantics. This is the omniscient,
    /// instantaneous path; under chaos mode injected faults go through the
    /// lease-based detector instead.
    ///
    /// Returns the streams that lost TPU service.
    pub fn fail_tpu(&mut self, tpu: TpuId) -> Vec<StreamId> {
        let Some(svc) = self.services.get(tpu.index()) else {
            return Vec::new();
        };
        if !svc.alive {
            return Vec::new();
        }
        let now = self.queue.now();
        self.kill_tpu_data_plane(now, tpu);
        let outcome = self.sched.handle_tpu_failure(tpu);
        for recovered in &outcome.recovered {
            if let Some(stream_id) = self.stream_of_pod(recovered.pod) {
                self.apply_plans(stream_id, &recovered.plans);
            }
        }
        let mut lost_streams = Vec::new();
        for pod in outcome.lost {
            let Some(stream_id) = self.stream_of_pod(pod) else {
                continue;
            };
            self.transition(stream_id, Lifecycle::Lost);
            lost_streams.push(stream_id);
        }
        lost_streams
    }

    /// Fails an entire node (tRPi or vRPi): the orchestrator terminates
    /// every pod hosted on it, the node stops accepting pods, and — if a
    /// TPU hangs off the node — that TPU fails too, with displaced streams
    /// re-admitted on survivors where possible. Streams whose *application
    /// container* lived on the dead node are deactivated outright (their
    /// pod is gone) and their TPU units reclaimed.
    ///
    /// Returns the streams that stopped as a result. Non-panicking: an
    /// unknown node displaces nothing.
    pub fn fail_node(&mut self, node: NodeId) -> Vec<StreamId> {
        if self.orch.cluster().node(node).is_none() {
            return Vec::new();
        }
        // The node's TPU (if any) dies with it.
        let mut stopped = self
            .tpu_on_node(node)
            .map(|tpu| self.fail_tpu(tpu))
            .unwrap_or_default();
        // Pods hosted on the node terminate; their streams stop emitting.
        let displaced = self.orch.fail_node(node);
        for pod in displaced {
            if let Some(stream_id) = self.stream_of_pod(pod) {
                if self.transition(stream_id, Lifecycle::Lost) {
                    stopped.push(stream_id);
                }
            }
        }
        // The reclamation component returns the dead pods' TPU units.
        self.sched.reclaim_terminated(&self.orch);
        stopped.sort_unstable();
        stopped.dedup();
        stopped
    }

    /// The TPU attached to `node`, if any.
    pub(super) fn tpu_on_node(&self, node: NodeId) -> Option<TpuId> {
        self.sched
            .pool()
            .accounts()
            .iter()
            .find(|a| a.node() == node)
            .map(|a| a.id())
    }

    /// Drains a TPU for maintenance: its load live-migrates to the rest of
    /// the fleet (new frames route elsewhere; frames already queued on it
    /// finish normally — zero frames are dropped). Returns the migrated
    /// streams.
    ///
    /// # Errors
    ///
    /// [`DeployError::InsufficientTpu`] when the remaining fleet cannot
    /// absorb the load; nothing changes in that case.
    pub fn drain_tpu(&mut self, tpu: TpuId) -> Result<Vec<StreamId>, DeployError> {
        let migrated = self.sched.drain_tpu(tpu)?;
        let mut streams = Vec::with_capacity(migrated.len());
        for (pod, plans) in &migrated {
            let Some(stream_id) = self.stream_of_pod(*pod) else {
                continue;
            };
            self.apply_plans(stream_id, plans);
            streams.push(stream_id);
        }
        Ok(streams)
    }

    /// Attempts to restart a stream that lost service (pod crash, node or
    /// TPU failure): a fresh admission of the original spec under a new
    /// stream id — the controller loop a production deployment would run
    /// on `PodTerminated` events. Frames resume at the current time.
    ///
    /// The new stream inherits the old stream's lineage root, so
    /// availability and chain-latency metrics aggregate across restarts
    /// instead of treating the revived stream as an unrelated one; the old
    /// id is marked
    /// [`StreamPhase::Superseded`](super::StreamPhase::Superseded) and
    /// linked to its successor (see
    /// [`RunResults::successor`](super::RunResults::successor)).
    ///
    /// # Errors
    ///
    /// [`DeployError::UnknownStream`] for ids never issued,
    /// [`DeployError::InvalidStreamState`] when the stream is still active
    /// or already superseded, and admission errors when the spec no longer
    /// fits the surviving capacity.
    pub fn restart_stream(&mut self, id: StreamId) -> Result<StreamId, DeployError> {
        let stream = self.stream(id).ok_or(DeployError::UnknownStream(id.0))?;
        if stream.lifecycle.is_live() {
            return Err(DeployError::InvalidStreamState(id.0, "still active"));
        }
        if stream.lifecycle == Lifecycle::Superseded {
            return Err(DeployError::InvalidStreamState(id.0, "already superseded"));
        }
        let root = stream.root;
        let mut spec = stream.spec.clone();
        spec.start_offset = SimDuration::ZERO;
        let was_parked = matches!(stream.lifecycle, Lifecycle::Parked { .. });
        let new_id = self.admit_with_root(spec, Some(root))?;
        if was_parked {
            if let Some(chaos) = self.chaos.as_mut() {
                chaos.parked.retain(|p| p.stream != id);
            }
        }
        self.transition(id, Lifecycle::Superseded);
        self.lineage.insert(id, new_id);
        Ok(new_id)
    }

    /// Schedules a control-plane command to fire at `at` — the delivery
    /// half of the cross-shard command mailbox, also usable directly to
    /// script mid-run admissions/removals/faults.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_command(&mut self, at: SimTime, cmd: WorldCommand) {
        self.queue.schedule_at(at, Ev::Command(cmd));
    }

    /// Drains the whole-cluster-failure outbox: every stream displaced by
    /// [`WorldCommand::Evacuate`] since the previous call, in stream-id
    /// order. The fleet front door re-places these on surviving clusters.
    pub fn take_evacuations(&mut self) -> Vec<EvacuatedStream> {
        std::mem::take(&mut self.evacuations)
    }

    /// Removes every live or parked stream, capturing each as an
    /// [`EvacuatedStream`] — the whole-cluster-failure path. Fired by
    /// [`WorldCommand::Evacuate`]; streams are visited in id order, so the
    /// evacuation list is deterministic.
    pub fn evacuate_all(&mut self, now: SimTime) {
        for id in self.streams_where(|s| s.lifecycle.is_live_or_parked()) {
            let Some(spec) = self.stream(id).map(|s| s.spec.clone()) else {
                continue;
            };
            if self.remove_stream(id).is_ok() {
                self.evacuations.push(EvacuatedStream {
                    stream: id,
                    fault_at: now,
                    spec,
                });
            }
        }
    }

    /// Estimates a spec's TPU demand the way admission will charge it —
    /// explicit per-stage units where given, otherwise the profiling
    /// service's duty-cycle derivation — for the fleet front door's
    /// placement decision. This world acts as the profiling service; no
    /// state is touched.
    ///
    /// # Errors
    ///
    /// [`DeployError::UnknownModel`] if a stage's model is not in the
    /// catalog (the admission it predicts would fail the same way).
    pub fn estimate_demand(
        &self,
        spec: &StreamSpec,
    ) -> Result<crate::fleet::StreamDemand, DeployError> {
        let mut stages = Vec::with_capacity(spec.stages.len());
        for stage in &spec.stages {
            let units = match stage.units {
                Some(units) => units,
                None => {
                    let profile = self
                        .sched
                        .catalog()
                        .get(&stage.model)
                        .ok_or_else(|| DeployError::UnknownModel(stage.model.clone()))?;
                    self.dp.profiled_units(profile, spec.fps)
                }
            };
            stages.push(units);
        }
        Ok(crate::fleet::StreamDemand::from_stages(stages))
    }

    /// Applies a scheduled control-plane command. Failures (admission
    /// rejected, unknown stream) are counted, not propagated: by the time a
    /// command fires, its originator is long gone.
    pub(super) fn on_command(&mut self, now: SimTime, cmd: WorldCommand) {
        let outcome = match cmd {
            WorldCommand::Admit(spec) => self.admit_stream(*spec).map(|_| ()),
            WorldCommand::Remove(id) => self.remove_stream(id),
            WorldCommand::Fault(kind) => {
                self.on_fault(now, kind);
                Ok(())
            }
            WorldCommand::Evacuate => {
                self.evacuate_all(now);
                Ok(())
            }
        };
        if outcome.is_err() {
            self.commands_failed += 1;
        }
    }
}
