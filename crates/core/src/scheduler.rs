//! The extended scheduler (paper §3.1, §4) and the reclamation component.
//!
//! The deployment workflow mirrors the paper's control-plane steps:
//!
//! 1. the client submits a pod spec (Yaml) carrying the two MicroEdge
//!    knobs — `Model` and `TPU Units`;
//! 2. K3s (the [`Orchestrator`]) handles CPU/memory and produces candidate
//!    nodes; the extended scheduler allocates TPU resources via the
//!    admission policy (Algorithm 1);
//! 3. on success the pod is bound and the models are loaded (co-compiled)
//!    on the chosen TPUs;
//! 4. the pod's LBS is seeded with the partitioning weights;
//! 5. the reclamation component later returns the TPU units when the pod
//!    terminates, dropping model references for lazy eviction.
//!
//! Admission is a **one-time action**: the data plane never consults the
//! control plane again for the lifetime of the pod.
//!
//! ## Multi-model pipelines
//!
//! The paper's §8 lists "data plane optimization for pipelines that involve
//! multiple models" as future work; this implementation supports it
//! natively. A pod may request a *vector* of `(model, units)` stages by
//! comma-separating both extension fields:
//!
//! ```yaml
//! extensions:
//!   microedge.io/model: "ssd-mobilenet-v2,mobilenet-v1"
//!   microedge.io/tpu-units: "0.35,0.215"
//! ```
//!
//! Each stage is admitted under Algorithm 1 in order (with rollback if a
//! later stage cannot be placed) and receives its own load-balancer
//! weights.

use std::collections::BTreeMap;
use std::fmt;

use microedge_cluster::topology::Cluster;
use microedge_models::catalog::Catalog;
use microedge_models::profile::ModelId;
use microedge_orch::lifecycle::{OrchError, Orchestrator};
use microedge_orch::pod::{PodId, PodPhase, PodSpec, EXT_MODEL, EXT_TPU_UNITS};
use microedge_tpu::device::TpuId;
use microedge_tpu::spec::TpuSpec;

use crate::admission::{AdmissionPolicy, BestFit, FirstFit, PlanBuffer};
use crate::config::{DataPlaneConfig, Features};
use crate::lbs::LbService;
use crate::pool::{Allocation, TpuPool};
use crate::units::TpuUnits;

/// One stage of a pod's TPU request, parsed from the spec's extension
/// fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TpuRequest {
    model: ModelId,
    units: TpuUnits,
}

impl TpuRequest {
    /// Creates a request directly.
    #[must_use]
    pub fn new(model: ModelId, units: TpuUnits) -> Self {
        TpuRequest { model, units }
    }

    /// The requested model.
    #[must_use]
    pub fn model(&self) -> &ModelId {
        &self.model
    }

    /// The requested fractional TPU amount.
    #[must_use]
    pub fn units(&self) -> TpuUnits {
        self.units
    }

    /// Extracts the TPU request stages from a pod spec's extensions.
    /// Returns `Ok(empty)` for pods with no TPU needs. Both fields accept
    /// comma-separated lists of equal length (multi-model pipelines).
    ///
    /// # Errors
    ///
    /// [`DeployError::MalformedRequest`] when only one of the two knobs is
    /// present, the list lengths differ, or a units value does not parse.
    pub fn from_spec(spec: &PodSpec) -> Result<Vec<TpuRequest>, DeployError> {
        match (spec.extension(EXT_MODEL), spec.extension(EXT_TPU_UNITS)) {
            (None, None) => Ok(Vec::new()),
            (Some(models), Some(raw_units)) => {
                let model_list: Vec<&str> = models.split(',').map(str::trim).collect();
                let unit_list: Vec<&str> = raw_units.split(',').map(str::trim).collect();
                if model_list.len() != unit_list.len() {
                    return Err(DeployError::MalformedRequest(format!(
                        "{} models but {} units values",
                        model_list.len(),
                        unit_list.len()
                    )));
                }
                model_list
                    .iter()
                    .zip(&unit_list)
                    .map(|(model, raw)| {
                        if model.is_empty() {
                            return Err(DeployError::MalformedRequest(
                                "empty model name in list".to_owned(),
                            ));
                        }
                        let parsed: f64 = raw.parse().map_err(|_| {
                            DeployError::MalformedRequest(format!(
                                "tpu-units `{raw}` is not a number"
                            ))
                        })?;
                        if !parsed.is_finite() || parsed <= 0.0 {
                            return Err(DeployError::MalformedRequest(format!(
                                "tpu-units must be positive, got {raw}"
                            )));
                        }
                        Ok(TpuRequest::new(
                            ModelId::new(model),
                            TpuUnits::from_f64(parsed),
                        ))
                    })
                    .collect()
            }
            (Some(_), None) => Err(DeployError::MalformedRequest(
                "model specified without tpu-units".to_owned(),
            )),
            (None, Some(_)) => Err(DeployError::MalformedRequest(
                "tpu-units specified without model".to_owned(),
            )),
        }
    }
}

/// Why a deployment failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// K3s-level failure (CPU/memory, selectors, anti-affinity, naming).
    Orch(OrchError),
    /// Admission control could not satisfy the TPU request — the pod
    /// creation request is rejected (paper §4.2).
    InsufficientTpu,
    /// The requested model is not in the catalog.
    UnknownModel(ModelId),
    /// The extension fields were inconsistent.
    MalformedRequest(String),
    /// The referenced stream does not exist (or was already removed).
    UnknownStream(u64),
    /// The referenced stream exists but is not in a state that permits the
    /// operation (e.g. restarting a stream that is still active).
    InvalidStreamState(u64, &'static str),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Orch(e) => write!(f, "orchestrator: {e}"),
            DeployError::InsufficientTpu => f.write_str("insufficient TPU resources"),
            DeployError::UnknownModel(m) => write!(f, "unknown model {m}"),
            DeployError::MalformedRequest(msg) => write!(f, "malformed request: {msg}"),
            DeployError::UnknownStream(id) => write!(f, "unknown stream {id}"),
            DeployError::InvalidStreamState(id, state) => {
                write!(f, "stream {id} is {state}")
            }
        }
    }
}

impl std::error::Error for DeployError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeployError::Orch(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<OrchError> for DeployError {
    fn from(e: OrchError) -> Self {
        DeployError::Orch(e)
    }
}

/// One pipeline stage's placement: the model and its TPU allocations.
pub type StagePlacement = (ModelId, Vec<Allocation>);

/// The TPU resources granted to one pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageGrant {
    model: ModelId,
    allocations: Vec<Allocation>,
    newly_loaded: Vec<TpuId>,
}

impl StageGrant {
    /// The stage's model.
    #[must_use]
    pub fn model(&self) -> &ModelId {
        &self.model
    }

    /// The stage's TPU allocations.
    #[must_use]
    pub fn allocations(&self) -> &[Allocation] {
        &self.allocations
    }

    /// TPUs on which the model was newly loaded (co-compilations).
    #[must_use]
    pub fn newly_loaded(&self) -> &[TpuId] {
        &self.newly_loaded
    }

    /// The LBS configuration for this stage.
    ///
    /// # Panics
    ///
    /// Panics if the stage has no allocations (cannot happen for grants
    /// produced by the scheduler).
    #[must_use]
    pub fn lbs(&self) -> LbService {
        LbService::from_allocations(&self.allocations)
    }
}

/// The result of a successful deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deployment {
    pod: PodId,
    stages: Vec<StageGrant>,
    control_rpcs: u32,
}

impl Deployment {
    /// The created pod.
    #[must_use]
    pub fn pod(&self) -> PodId {
        self.pod
    }

    /// Grants per pipeline stage, in request order (empty for TPU-less
    /// pods; exactly one for ordinary single-model pods).
    #[must_use]
    pub fn stages(&self) -> &[StageGrant] {
        &self.stages
    }

    /// The first stage's allocations — the whole allocation set for
    /// single-model pods (empty for TPU-less pods).
    #[must_use]
    pub fn allocations(&self) -> &[Allocation] {
        self.stages.first().map_or(&[], |s| s.allocations())
    }

    /// All TPUs on which any stage's model was newly loaded.
    #[must_use]
    pub fn newly_loaded(&self) -> Vec<TpuId> {
        let mut all: Vec<TpuId> = self
            .stages
            .iter()
            .flat_map(|s| s.newly_loaded().iter().copied())
            .collect();
        all.sort();
        all.dedup();
        all
    }

    /// `true` when any co-compilation was triggered.
    #[must_use]
    pub fn cocompiled(&self) -> bool {
        self.stages.iter().any(|s| !s.newly_loaded().is_empty())
    }

    /// Extra control-plane RPCs performed over the native launch path
    /// (model `Load` calls plus the LBS configuration push) — the source of
    /// the Fig. 7a overhead.
    #[must_use]
    pub fn control_rpcs(&self) -> u32 {
        self.control_rpcs
    }

    /// The LBS configuration for the first stage.
    ///
    /// # Panics
    ///
    /// Panics if the deployment has no TPU allocations.
    #[must_use]
    pub fn lbs(&self) -> LbService {
        self.stages
            .first()
            .expect("deployment has at least one stage")
            .lbs()
    }
}

#[derive(Debug, Clone)]
struct PodAssignment {
    entries: Vec<StagePlacement>,
    /// Full-rate per-stage demand, before any degradation scaling.
    full: Vec<(ModelId, TpuUnits)>,
    /// Current degradation denominator (1 = full rate).
    den: u32,
}

impl PodAssignment {
    /// Requests reproducing the pod's demand at denominator `den`.
    fn requests_at(&self, den: u32) -> Vec<TpuRequest> {
        self.full
            .iter()
            .map(|(model, units)| TpuRequest::new(model.clone(), scale_units(*units, den)))
            .collect()
    }
}

/// Divides a stage demand by a degradation denominator, keeping at least
/// one micro-unit so a degraded stage never becomes free.
fn scale_units(units: TpuUnits, den: u32) -> TpuUnits {
    if den <= 1 {
        units
    } else {
        TpuUnits::from_micro((units.as_micro() / u64::from(den)).max(1))
    }
}

/// MicroEdge's extension of the K3s control plane.
pub struct ExtendedScheduler {
    pool: TpuPool,
    catalog: Catalog,
    features: Features,
    dp: DataPlaneConfig,
    policy: Box<dyn AdmissionPolicy>,
    assignments: BTreeMap<PodId, PodAssignment>,
    /// Reused across every admission decision (zero-alloc planning).
    plan_buffer: PlanBuffer,
}

impl fmt::Debug for ExtendedScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExtendedScheduler")
            .field("pool", &self.pool)
            .field("features", &self.features)
            .field("policy", &self.policy.name())
            .field("assignments", &self.assignments.len())
            .finish()
    }
}

impl ExtendedScheduler {
    /// Creates a scheduler over the TPUs of `cluster` with an explicit
    /// admission policy.
    #[must_use]
    pub fn with_policy(
        cluster: &Cluster,
        catalog: Catalog,
        features: Features,
        policy: Box<dyn AdmissionPolicy>,
    ) -> Self {
        ExtendedScheduler {
            pool: TpuPool::from_cluster(cluster, TpuSpec::coral_usb()),
            catalog,
            features,
            dp: DataPlaneConfig::calibrated(),
            policy,
            assignments: BTreeMap::new(),
            plan_buffer: PlanBuffer::new(),
        }
    }

    /// Creates the shipped configuration: First-Fit admission.
    #[must_use]
    pub fn new(cluster: &Cluster, catalog: Catalog, features: Features) -> Self {
        Self::with_policy(cluster, catalog, features, Box::new(FirstFit::new()))
    }

    /// The scheduler-side TPU fleet state.
    #[must_use]
    pub fn pool(&self) -> &TpuPool {
        &self.pool
    }

    /// The model catalog the scheduler resolves requests against.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The enabled control-plane features.
    #[must_use]
    pub fn features(&self) -> Features {
        self.features
    }

    /// The data-plane calibration used for profiling helpers.
    #[must_use]
    pub fn data_plane(&self) -> DataPlaneConfig {
        self.dp
    }

    /// Plans every stage against a scratch copy of the pool, committing
    /// stage-by-stage so later stages see earlier grants. Returns the
    /// per-stage plans without touching real state.
    ///
    /// Single-stage requests — every plain camera pod — plan directly
    /// against the live pool: planning never mutates it, so no scratch is
    /// needed, and cloning a multi-thousand-TPU pool per admission is what
    /// dominated large fleet sweeps.
    fn plan_stages(&mut self, requests: &[TpuRequest]) -> Result<Vec<StagePlacement>, DeployError> {
        if let [request] = requests {
            let profile = self
                .catalog
                .get(request.model())
                .ok_or_else(|| DeployError::UnknownModel(request.model().clone()))?;
            if !self.policy.plan_into(
                &self.pool,
                profile,
                request.units(),
                self.features,
                &mut self.plan_buffer,
            ) {
                return Err(DeployError::InsufficientTpu);
            }
            return Ok(vec![(
                request.model().clone(),
                self.plan_buffer.allocations().to_vec(),
            )]);
        }
        let mut scratch = self.pool.clone();
        let mut plans = Vec::with_capacity(requests.len());
        for request in requests {
            let profile = self
                .catalog
                .get(request.model())
                .ok_or_else(|| DeployError::UnknownModel(request.model().clone()))?
                .clone();
            if !self.policy.plan_into(
                &scratch,
                &profile,
                request.units(),
                self.features,
                &mut self.plan_buffer,
            ) {
                return Err(DeployError::InsufficientTpu);
            }
            let allocations = self.plan_buffer.allocations().to_vec();
            scratch.commit(&profile, &allocations);
            plans.push((request.model().clone(), allocations));
        }
        Ok(plans)
    }

    /// Deploys an application pod: TPU admission first (all stages, with
    /// rollback), then the K3s bind.
    ///
    /// # Errors
    ///
    /// See [`DeployError`]; on any error no state is changed (the pod is
    /// not created and no TPU units are reserved).
    pub fn deploy(
        &mut self,
        orch: &mut Orchestrator,
        spec: PodSpec,
    ) -> Result<Deployment, DeployError> {
        self.deploy_scaled(orch, spec, 1)
    }

    /// Deploys like [`ExtendedScheduler::deploy`], but admits every stage at
    /// `1/den` of its declared TPU demand — the graceful-degradation entry
    /// point. The full-rate demand is remembered so the pod can later be
    /// [rescaled](ExtendedScheduler::rescale) back up (or further down).
    ///
    /// # Errors
    ///
    /// See [`DeployError`]; on any error no state is changed.
    pub fn deploy_scaled(
        &mut self,
        orch: &mut Orchestrator,
        spec: PodSpec,
        den: u32,
    ) -> Result<Deployment, DeployError> {
        let full_requests = TpuRequest::from_spec(&spec)?;
        if full_requests.is_empty() {
            // No TPU needs — the native K3s path.
            let pod = orch.create_pod(spec)?;
            return Ok(Deployment {
                pod,
                stages: Vec::new(),
                control_rpcs: 0,
            });
        }
        let full: Vec<(ModelId, TpuUnits)> = full_requests
            .iter()
            .map(|r| (r.model().clone(), r.units()))
            .collect();
        let requests: Vec<TpuRequest> = full_requests
            .iter()
            .map(|r| TpuRequest::new(r.model().clone(), scale_units(r.units(), den)))
            .collect();
        let plans = self.plan_stages(&requests)?;

        // Bind through K3s before committing TPU state, so an orchestration
        // failure leaves the pool untouched.
        let pod = orch.create_pod(spec)?;
        let mut stages = Vec::with_capacity(plans.len());
        let mut load_rpcs = 0;
        for (model, allocations) in &plans {
            let profile = self.catalog.expect(model).clone();
            let newly_loaded = self.pool.commit(&profile, allocations);
            load_rpcs += u32::try_from(newly_loaded.len()).expect("loaded-model count fits u32");
            stages.push(StageGrant {
                model: model.clone(),
                allocations: allocations.clone(),
                newly_loaded,
            });
        }
        self.assignments.insert(
            pod,
            PodAssignment {
                entries: plans,
                full,
                den,
            },
        );
        Ok(Deployment {
            pod,
            stages,
            // One Load RPC per newly loaded model instance, plus one LBS
            // configuration push for the pod.
            control_rpcs: load_rpcs + 1,
        })
    }

    /// Deletes a pod and immediately returns its TPU units.
    ///
    /// # Errors
    ///
    /// Propagates orchestrator errors (e.g. unknown pod).
    pub fn teardown(&mut self, orch: &mut Orchestrator, pod: PodId) -> Result<(), DeployError> {
        orch.delete_pod(pod)?;
        self.release_assignment(pod);
        Ok(())
    }

    /// The reclamation component (paper §3.1 step ⑤): polls pod status and
    /// returns the TPU units of every terminated pod that still holds an
    /// assignment. Returns the pods reclaimed.
    pub fn reclaim_terminated(&mut self, orch: &Orchestrator) -> Vec<PodId> {
        let dead: Vec<PodId> = self
            .assignments
            .keys()
            .filter(|&&pod| orch.phase(pod) == Some(PodPhase::Terminated))
            .copied()
            .collect();
        for &pod in &dead {
            self.release_assignment(pod);
        }
        dead
    }

    /// The models that should be resident on `tpu`, in co-compilation
    /// priority order — what the data plane loads into the device.
    #[must_use]
    pub fn resident_models(&self, tpu: TpuId) -> Vec<ModelId> {
        self.pool.account(tpu).live_models()
    }

    /// Allocations currently held by `pod` across all stages (flattened),
    /// if any.
    #[must_use]
    pub fn assignment(&self, pod: PodId) -> Option<Vec<Allocation>> {
        self.assignments.get(&pod).map(|a| {
            a.entries
                .iter()
                .flat_map(|(_, allocs)| allocs.iter().copied())
                .collect()
        })
    }

    /// Per-stage assignment of `pod`, if any.
    #[must_use]
    pub fn stage_assignment(&self, pod: PodId) -> Option<&[StagePlacement]> {
        self.assignments.get(&pod).map(|a| a.entries.as_slice())
    }

    /// Fails a TPU and re-admits every pod that was using it, in pod order.
    /// Pods whose demand no longer fits anywhere are returned in the `lost`
    /// list and keep running **without** TPU service (their streams must be
    /// torn down by the caller).
    ///
    /// This implements the "support for failure recovery" extension the
    /// paper lists as future work (§8).
    ///
    /// A pod that already terminated but has not yet been reclaimed (the
    /// reclamation component is a poller) is re-placed like any other —
    /// mirroring the real system, where the scheduler cannot distinguish a
    /// dead pod from a live one until the next poll; the next
    /// [`ExtendedScheduler::reclaim_terminated`] frees it.
    pub fn handle_tpu_failure(&mut self, tpu: TpuId) -> FailureRecovery {
        self.pool.fail(tpu);
        let affected = self.pods_using(tpu);
        let mut recovered = Vec::new();
        let mut lost = Vec::new();
        for pod in affected {
            let assignment = self
                .assignments
                .remove(&pod)
                .expect("affected pod has an assignment");
            for (model, allocs) in &assignment.entries {
                self.pool.release(model, allocs);
            }
            let requests = assignment.requests_at(assignment.den);
            match self.plan_stages(&requests) {
                Ok(plans) => {
                    // Model loads on distinct TPUs proceed in parallel; the
                    // swap-in latency is bounded by the busiest device.
                    let mut per_tpu: BTreeMap<TpuId, u64> = BTreeMap::new();
                    for (model, allocs) in &plans {
                        let profile = self.catalog.expect(model).clone();
                        for loaded in self.pool.commit(&profile, allocs) {
                            *per_tpu.entry(loaded).or_insert(0) += profile.param_bytes();
                        }
                    }
                    let swap_bytes = per_tpu.values().copied().max().unwrap_or(0);
                    self.assignments.insert(
                        pod,
                        PodAssignment {
                            entries: plans.clone(),
                            full: assignment.full,
                            den: assignment.den,
                        },
                    );
                    recovered.push(RecoveredPod {
                        pod,
                        plans,
                        swap_bytes,
                    });
                }
                Err(_) => lost.push(pod),
            }
        }
        FailureRecovery { recovered, lost }
    }

    /// Fails a TPU *without* attempting recovery — the no-heal baseline.
    /// Every pod that held an allocation on the TPU has its entire
    /// assignment released and is returned (in pod order) for the caller to
    /// tear down.
    pub fn fail_tpu_releasing(&mut self, tpu: TpuId) -> Vec<PodId> {
        self.pool.fail(tpu);
        let affected = self.pods_using(tpu);
        for &pod in &affected {
            self.release_assignment(pod);
        }
        affected
    }

    /// Returns a previously failed TPU to service (idempotent).
    pub fn restore_tpu(&mut self, tpu: TpuId) {
        self.pool.restore(tpu);
    }

    /// Re-admits `pod` at `1/new_den` of its full-rate demand: the current
    /// allocations are released, every stage is re-planned at the new
    /// scale, and the plans are committed. Returns the new per-stage
    /// placements.
    ///
    /// # Errors
    ///
    /// [`DeployError::Orch`] with [`OrchError::UnknownPod`] when the pod
    /// holds no assignment; [`DeployError::InsufficientTpu`] when the new
    /// scale does not fit — in that case the original assignment is
    /// restored untouched.
    pub fn rescale(
        &mut self,
        pod: PodId,
        new_den: u32,
    ) -> Result<Vec<StagePlacement>, DeployError> {
        let assignment = self
            .assignments
            .remove(&pod)
            .ok_or(DeployError::Orch(OrchError::UnknownPod(pod)))?;
        for (model, allocs) in &assignment.entries {
            self.pool.release(model, allocs);
        }
        let requests = assignment.requests_at(new_den);
        match self.plan_stages(&requests) {
            Ok(plans) => {
                for (model, allocs) in &plans {
                    let profile = self.catalog.expect(model).clone();
                    self.pool.commit(&profile, allocs);
                }
                self.assignments.insert(
                    pod,
                    PodAssignment {
                        entries: plans.clone(),
                        full: assignment.full,
                        den: new_den,
                    },
                );
                Ok(plans)
            }
            Err(e) => {
                // Roll back: recommit the original allocations.
                for (model, allocs) in &assignment.entries {
                    let profile = self.catalog.expect(model).clone();
                    self.pool.commit(&profile, allocs);
                }
                self.assignments.insert(pod, assignment);
                Err(e)
            }
        }
    }

    /// Drains a TPU for maintenance: it stops accepting new allocations and
    /// every pod currently using it is **live-migrated** — re-planned on
    /// the remaining fleet and committed — without ever terminating a pod.
    /// Returns the migrated pods with their new per-stage placements.
    ///
    /// # Errors
    ///
    /// [`DeployError::InsufficientTpu`] when some pod cannot be re-placed;
    /// in that case *nothing* changes: already-migrated pods are rolled
    /// back and the TPU is returned to service.
    pub fn drain_tpu(
        &mut self,
        tpu: TpuId,
    ) -> Result<Vec<(PodId, Vec<StagePlacement>)>, DeployError> {
        self.pool.fail(tpu);
        let affected = self.pods_using(tpu);
        let mut migrated: Vec<(PodId, PodAssignment, Vec<StagePlacement>)> = Vec::new();
        for pod in affected {
            let original = self
                .assignments
                .remove(&pod)
                .expect("affected pod has an assignment");
            for (model, allocs) in &original.entries {
                self.pool.release(model, allocs);
            }
            let requests = original.requests_at(original.den);
            match self.plan_stages(&requests) {
                Ok(plans) => {
                    for (model, allocs) in &plans {
                        let profile = self.catalog.expect(model).clone();
                        self.pool.commit(&profile, allocs);
                    }
                    self.assignments.insert(
                        pod,
                        PodAssignment {
                            entries: plans.clone(),
                            full: original.full.clone(),
                            den: original.den,
                        },
                    );
                    migrated.push((pod, original, plans));
                }
                Err(_) => {
                    // Abort: undo this pod and every earlier migration.
                    for (model, allocs) in &original.entries {
                        let profile = self.catalog.expect(model).clone();
                        self.pool.commit(&profile, allocs);
                    }
                    self.assignments.insert(pod, original);
                    for (mig_pod, old_assignment, new_entries) in migrated.drain(..).rev() {
                        for (model, allocs) in &new_entries {
                            self.pool.release(model, allocs);
                        }
                        for (model, allocs) in &old_assignment.entries {
                            let profile = self.catalog.expect(model).clone();
                            self.pool.commit(&profile, allocs);
                        }
                        self.assignments.insert(mig_pod, old_assignment);
                    }
                    self.pool.restore(tpu);
                    return Err(DeployError::InsufficientTpu);
                }
            }
        }
        Ok(migrated
            .into_iter()
            .map(|(pod, _, plans)| (pod, plans))
            .collect())
    }

    fn release_assignment(&mut self, pod: PodId) {
        if let Some(assignment) = self.assignments.remove(&pod) {
            for (model, allocs) in &assignment.entries {
                self.pool.release(model, allocs);
            }
        }
    }

    /// Pods holding at least one allocation on `tpu`, in pod-id order.
    #[must_use]
    pub fn pods_using(&self, tpu: TpuId) -> Vec<PodId> {
        self.assignments
            .iter()
            .filter(|(_, a)| {
                a.entries
                    .iter()
                    .any(|(_, allocs)| allocs.iter().any(|al| al.tpu() == tpu))
            })
            .map(|(&pod, _)| pod)
            .collect()
    }

    /// Plans the complete eviction of `tpu` for the online defragmenter —
    /// **without touching any state**. Every pod with an allocation on the
    /// donor is re-planned on a scratch copy of the pool in pod-id order,
    /// with the donor marked unavailable so nothing lands back on it, using
    /// **Best-Fit** receivers off the capacity index (donors shed into the
    /// tightest holes, which is what compacts the pool) regardless of the
    /// scheduler's admission policy.
    ///
    /// The returned [`EvictPlan`] carries everything the defragmenter's
    /// cost model needs: per-pod new placements and swap bytes, per-receiver
    /// newly-loaded bytes, and each receiver's post-move resident model set
    /// (for the co-compile transition cost). Execute it with
    /// [`ExtendedScheduler::apply_evict`] *before any other pool mutation*,
    /// or drop it — planning is free.
    ///
    /// # Errors
    ///
    /// [`DeployError::InsufficientTpu`] when some pod on the donor cannot be
    /// re-placed on the rest of the fleet; [`DeployError::UnknownModel`] if
    /// an assignment references a model missing from the catalog.
    pub fn plan_evict(&self, tpu: TpuId) -> Result<EvictPlan, DeployError> {
        let recovered_micro = self.pool.account(tpu).load().as_micro();
        let mut scratch = self.pool.clone();
        scratch.fail(tpu);
        let mut policy = BestFit::new();
        let mut buffer = PlanBuffer::new();
        let mut moves = Vec::new();
        let mut newly_loaded: BTreeMap<TpuId, u64> = BTreeMap::new();
        for pod in self.pods_using(tpu) {
            let assignment = &self.assignments[&pod];
            for (model, allocs) in &assignment.entries {
                scratch.release(model, allocs);
            }
            let requests = assignment.requests_at(assignment.den);
            let mut plans = Vec::with_capacity(requests.len());
            let mut per_tpu: BTreeMap<TpuId, u64> = BTreeMap::new();
            for request in &requests {
                let profile = self
                    .catalog
                    .get(request.model())
                    .ok_or_else(|| DeployError::UnknownModel(request.model().clone()))?
                    .clone();
                if !policy.plan_into(
                    &scratch,
                    &profile,
                    request.units(),
                    self.features,
                    &mut buffer,
                ) {
                    return Err(DeployError::InsufficientTpu);
                }
                let allocations = buffer.allocations().to_vec();
                for loaded in scratch.commit(&profile, &allocations) {
                    *per_tpu.entry(loaded).or_insert(0) += profile.param_bytes();
                    *newly_loaded.entry(loaded).or_insert(0) += profile.param_bytes();
                }
                plans.push((request.model().clone(), allocations));
            }
            // Loads on distinct TPUs proceed in parallel; this pod's swap-in
            // window is bounded by its busiest destination (the same
            // convention as `handle_tpu_failure`).
            let swap_bytes = per_tpu.values().copied().max().unwrap_or(0);
            moves.push(PodMove {
                pod,
                plans,
                swap_bytes,
            });
        }
        let residents_after = newly_loaded
            .keys()
            .map(|&receiver| (receiver, scratch.account(receiver).live_models()))
            .collect();
        Ok(EvictPlan {
            donor: tpu,
            recovered_micro,
            moves,
            newly_loaded,
            residents_after,
        })
    }

    /// Executes an [`EvictPlan`]: every planned pod releases its old
    /// allocations and commits the new ones, atomically from the pool's
    /// point of view (the plan was validated against this exact pool
    /// state). The donor is never failed — it simply ends the call empty,
    /// one whole contiguous slot returned to the capacity index.
    ///
    /// # Panics
    ///
    /// Panics if the pool changed since [`ExtendedScheduler::plan_evict`]
    /// produced the plan (a planned allocation no longer fits), or if a
    /// planned pod no longer holds an assignment.
    pub fn apply_evict(&mut self, plan: &EvictPlan) {
        for mv in &plan.moves {
            let old = self
                .assignments
                .remove(&mv.pod)
                .expect("evicted pod holds an assignment");
            for (model, allocs) in &old.entries {
                self.pool.release(model, allocs);
            }
            for (model, allocs) in &mv.plans {
                let profile = self.catalog.expect(model).clone();
                self.pool.commit(&profile, allocs);
            }
            self.assignments.insert(
                mv.pod,
                PodAssignment {
                    entries: mv.plans.clone(),
                    full: old.full,
                    den: old.den,
                },
            );
        }
        debug_assert!(
            self.pool.account(plan.donor).load().is_zero(),
            "donor still carries load after eviction"
        );
    }
}

/// One pod's move inside an [`EvictPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PodMove {
    /// The migrating pod.
    pub pod: PodId,
    /// Its new per-stage allocations (none on the donor).
    pub plans: Vec<StagePlacement>,
    /// Model bytes that must be (re)loaded on this pod's busiest
    /// destination TPU — the swap-in component of its migration window.
    /// Zero when every destination already had the models resident.
    pub swap_bytes: u64,
}

/// A validated, not-yet-executed eviction of one donor TPU, produced by
/// [`ExtendedScheduler::plan_evict`] and executed by
/// [`ExtendedScheduler::apply_evict`]. Everything the defragmenter's
/// swap-cost model consumes is precomputed here, so the accept/reject
/// decision never touches live state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictPlan {
    /// The TPU being emptied.
    pub donor: TpuId,
    /// The donor's load at planning time — the contiguous micro-units the
    /// move recovers (the donor ends as one whole free slot).
    pub recovered_micro: u64,
    /// Per-pod moves, in pod-id order.
    pub moves: Vec<PodMove>,
    /// Parameter bytes newly loaded per receiver TPU, summed across moves —
    /// the `TpuSpec::swap_time` input of the cost model.
    pub newly_loaded: BTreeMap<TpuId, u64>,
    /// Each byte-receiving TPU's live model set *after* the eviction, in
    /// co-compilation priority order — the `tpu::cocompile` input of the
    /// transition cost.
    pub residents_after: BTreeMap<TpuId, Vec<ModelId>>,
}

/// One pod re-placed by [`ExtendedScheduler::handle_tpu_failure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredPod {
    /// The surviving pod.
    pub pod: PodId,
    /// Its new per-stage allocations.
    pub plans: Vec<StagePlacement>,
    /// Model bytes that must be (re)loaded on the busiest destination TPU
    /// before the pod serves again — the swap-in component of recovery
    /// latency. Zero when every destination already had the models
    /// resident.
    pub swap_bytes: u64,
}

/// The outcome of [`ExtendedScheduler::handle_tpu_failure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureRecovery {
    /// Pods re-placed on surviving TPUs, with their new per-stage
    /// allocations.
    pub recovered: Vec<RecoveredPod>,
    /// Pods whose demand no longer fits anywhere.
    pub lost: Vec<PodId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use microedge_cluster::topology::ClusterBuilder;
    use microedge_orch::pod::ResourceRequest;

    fn setup(trpis: u32, vrpis: u32, features: Features) -> (Orchestrator, ExtendedScheduler) {
        let cluster = ClusterBuilder::new().trpis(trpis).vrpis(vrpis).build();
        let sched = ExtendedScheduler::new(&cluster, Catalog::builtin(), features);
        (Orchestrator::new(cluster), sched)
    }

    /// Units `pod` holds across all its allocations; a pod admitted at
    /// `1/den` of its demand holds `1/den` of the full-rate units.
    fn assigned_units(sched: &ExtendedScheduler, pod: PodId) -> TpuUnits {
        sched
            .assignment(pod)
            .expect("pod holds an assignment")
            .iter()
            .map(Allocation::units)
            .sum()
    }

    fn coral_pie_spec(name: &str) -> PodSpec {
        PodSpec::builder(name, "coral-pie:latest")
            .resources(ResourceRequest::camera_default())
            .extension(EXT_MODEL, "ssd-mobilenet-v2")
            .extension(EXT_TPU_UNITS, "0.35")
            .build()
    }

    #[test]
    fn deploy_allocates_units_and_loads_model() {
        let (mut orch, mut sched) = setup(2, 4, Features::all());
        let d = sched.deploy(&mut orch, coral_pie_spec("cam-0")).unwrap();
        assert_eq!(d.stages().len(), 1);
        assert_eq!(d.allocations().len(), 1);
        assert!(d.cocompiled(), "first deployment loads the model");
        assert_eq!(d.control_rpcs(), 2, "one Load + one LBS push");
        assert_eq!(
            sched.pool().account(d.allocations()[0].tpu()).load(),
            TpuUnits::from_f64(0.35)
        );

        let d2 = sched.deploy(&mut orch, coral_pie_spec("cam-1")).unwrap();
        assert!(!d2.cocompiled(), "model already resident");
        assert_eq!(d2.control_rpcs(), 1, "LBS push only");
    }

    #[test]
    fn deploy_without_tpu_extensions_uses_native_path() {
        let (mut orch, mut sched) = setup(1, 2, Features::all());
        let plain = PodSpec::builder("web", "nginx").build();
        let d = sched.deploy(&mut orch, plain).unwrap();
        assert!(d.stages().is_empty());
        assert!(d.allocations().is_empty());
        assert_eq!(d.control_rpcs(), 0);
        assert!(sched.assignment(d.pod()).is_none());
    }

    #[test]
    fn rejection_leaves_no_state_behind() {
        let (mut orch, mut sched) = setup(1, 2, Features::all());
        // Fill the single TPU.
        sched.deploy(&mut orch, coral_pie_spec("a")).unwrap();
        sched.deploy(&mut orch, coral_pie_spec("b")).unwrap();
        let before_pods = orch.running_pods().len();
        let before_load = sched.pool().account(TpuId(0)).load();
        // 0.35 more does not fit 0.70 + partitioning has nowhere to go.
        let err = sched.deploy(&mut orch, coral_pie_spec("c")).unwrap_err();
        assert_eq!(err, DeployError::InsufficientTpu);
        assert_eq!(orch.running_pods().len(), before_pods, "no pod created");
        assert_eq!(sched.pool().account(TpuId(0)).load(), before_load);
    }

    #[test]
    fn teardown_returns_units() {
        let (mut orch, mut sched) = setup(1, 2, Features::all());
        let d = sched.deploy(&mut orch, coral_pie_spec("a")).unwrap();
        sched.teardown(&mut orch, d.pod()).unwrap();
        assert_eq!(sched.pool().account(TpuId(0)).load(), TpuUnits::ZERO);
        assert!(sched.assignment(d.pod()).is_none());
    }

    #[test]
    fn reclamation_polls_terminated_pods() {
        let (mut orch, mut sched) = setup(1, 2, Features::all());
        let d = sched.deploy(&mut orch, coral_pie_spec("a")).unwrap();
        // The pod dies without going through the scheduler (crash).
        orch.delete_pod(d.pod()).unwrap();
        assert_eq!(
            sched.pool().account(TpuId(0)).load(),
            TpuUnits::from_f64(0.35),
            "units still held before reclamation runs"
        );
        let reclaimed = sched.reclaim_terminated(&orch);
        assert_eq!(reclaimed, vec![d.pod()]);
        assert_eq!(sched.pool().account(TpuId(0)).load(), TpuUnits::ZERO);
        // Idempotent.
        assert!(sched.reclaim_terminated(&orch).is_empty());
    }

    #[test]
    fn unknown_model_is_rejected() {
        let (mut orch, mut sched) = setup(1, 2, Features::all());
        let spec = PodSpec::builder("x", "i")
            .extension(EXT_MODEL, "no-such-model")
            .extension(EXT_TPU_UNITS, "0.1")
            .build();
        let err = sched.deploy(&mut orch, spec).unwrap_err();
        assert_eq!(
            err,
            DeployError::UnknownModel(ModelId::new("no-such-model"))
        );
    }

    #[test]
    fn malformed_requests_are_rejected() {
        let (mut orch, mut sched) = setup(1, 2, Features::all());
        for (model, units, needle) in [
            (Some("unet-v2"), None, "without tpu-units"),
            (None, Some("0.5"), "without model"),
            (Some("unet-v2"), Some("abc"), "not a number"),
            (Some("unet-v2"), Some("-1"), "positive"),
            (Some("unet-v2,mobilenet-v1"), Some("0.5"), "units values"),
            (Some("unet-v2,"), Some("0.5,0.2"), "empty model"),
        ] {
            let mut b = PodSpec::builder("x", "i");
            if let Some(m) = model {
                b = b.extension(EXT_MODEL, m);
            }
            if let Some(u) = units {
                b = b.extension(EXT_TPU_UNITS, u);
            }
            let err = sched.deploy(&mut orch, b.build()).unwrap_err();
            match err {
                DeployError::MalformedRequest(msg) => {
                    assert!(msg.contains(needle), "{msg} !~ {needle}")
                }
                other => panic!("expected malformed request, got {other}"),
            }
        }
    }

    #[test]
    fn bodypix_partitions_across_two_tpus() {
        let (mut orch, mut sched) = setup(2, 2, Features::all());
        let spec = PodSpec::builder("seg", "bodypix")
            .extension(EXT_MODEL, "bodypix-mobilenet-v1")
            .extension(EXT_TPU_UNITS, "1.2")
            .build();
        let d = sched.deploy(&mut orch, spec).unwrap();
        assert_eq!(d.allocations().len(), 2);
        let total: TpuUnits = d.allocations().iter().map(Allocation::units).sum();
        assert_eq!(total, TpuUnits::from_f64(1.2));
        let lbs = d.lbs();
        assert_eq!(lbs.target_count(), 2);
    }

    #[test]
    fn pipeline_deploys_every_stage() {
        let (mut orch, mut sched) = setup(1, 2, Features::all());
        let spec = PodSpec::builder("pipe", "i")
            .extension(EXT_MODEL, "mobilenet-v1, unet-v2")
            .extension(EXT_TPU_UNITS, "0.215, 0.675")
            .build();
        let d = sched.deploy(&mut orch, spec).unwrap();
        assert_eq!(d.stages().len(), 2);
        assert_eq!(d.stages()[0].model().as_str(), "mobilenet-v1");
        assert_eq!(d.stages()[1].model().as_str(), "unet-v2");
        assert!(d.cocompiled());
        // Both stages landed on the single TPU: load = 0.89.
        assert_eq!(
            sched.pool().account(TpuId(0)).load(),
            TpuUnits::from_f64(0.89)
        );
        // Two Load RPCs + one LBS push.
        assert_eq!(d.control_rpcs(), 3);
        assert_eq!(d.newly_loaded(), vec![TpuId(0)]);
    }

    #[test]
    fn pipeline_rolls_back_when_a_later_stage_fails() {
        let (mut orch, mut sched) = setup(1, 2, Features::all());
        // Stage 1 fits; stage 2 (0.9 units after 0.215) does not.
        let spec = PodSpec::builder("pipe", "i")
            .extension(EXT_MODEL, "mobilenet-v1,unet-v2")
            .extension(EXT_TPU_UNITS, "0.215,0.9")
            .build();
        let err = sched.deploy(&mut orch, spec).unwrap_err();
        assert_eq!(err, DeployError::InsufficientTpu);
        assert_eq!(sched.pool().account(TpuId(0)).load(), TpuUnits::ZERO);
        assert!(sched.pool().account(TpuId(0)).live_models().is_empty());
        assert!(orch.running_pods().is_empty());
    }

    #[test]
    fn pipeline_teardown_releases_every_stage() {
        let (mut orch, mut sched) = setup(2, 2, Features::all());
        let spec = PodSpec::builder("pipe", "i")
            .extension(EXT_MODEL, "ssd-mobilenet-v2,mobilenet-v1")
            .extension(EXT_TPU_UNITS, "0.35,0.215")
            .build();
        let d = sched.deploy(&mut orch, spec).unwrap();
        assert_eq!(d.stages().len(), 2);
        assert_eq!(sched.stage_assignment(d.pod()).unwrap().len(), 2);
        sched.teardown(&mut orch, d.pod()).unwrap();
        assert_eq!(sched.pool().total_free_units(), TpuUnits::from_f64(2.0));
    }

    #[test]
    fn failure_recovery_moves_pods() {
        let (mut orch, mut sched) = setup(2, 2, Features::all());
        let d = sched.deploy(&mut orch, coral_pie_spec("a")).unwrap();
        let original_tpu = d.allocations()[0].tpu();
        let outcome = sched.handle_tpu_failure(original_tpu);
        assert_eq!(outcome.recovered.len(), 1);
        assert!(outcome.lost.is_empty());
        let recovered = &outcome.recovered[0];
        assert_eq!(recovered.pod, d.pod());
        assert!(
            recovered.swap_bytes > 0,
            "the model must be loaded on the fresh TPU"
        );
        let new_allocs = &recovered.plans[0].1;
        assert_ne!(new_allocs[0].tpu(), original_tpu);
        assert_eq!(
            sched.pool().account(new_allocs[0].tpu()).load(),
            TpuUnits::from_f64(0.35)
        );
    }

    #[test]
    fn failure_recovery_reports_lost_pods() {
        let (mut orch, mut sched) = setup(1, 2, Features::all());
        let d = sched.deploy(&mut orch, coral_pie_spec("a")).unwrap();
        let outcome = sched.handle_tpu_failure(TpuId(0));
        assert!(outcome.recovered.is_empty());
        assert_eq!(outcome.lost, vec![d.pod()]);
        assert_eq!(sched.pool().account(TpuId(0)).load(), TpuUnits::ZERO);
    }

    #[test]
    fn deploy_scaled_halves_demand_and_rescale_restores_it() {
        let (mut orch, mut sched) = setup(1, 2, Features::all());
        let d = sched
            .deploy_scaled(&mut orch, coral_pie_spec("a"), 2)
            .unwrap();
        assert_eq!(
            assigned_units(&sched, d.pod()),
            TpuUnits::from_micro(175_000)
        );
        assert_eq!(
            sched.pool().account(TpuId(0)).load(),
            TpuUnits::from_micro(175_000),
            "admitted at half of 0.35 units"
        );
        let plans = sched.rescale(d.pod(), 1).unwrap();
        assert_eq!(assigned_units(&sched, d.pod()), TpuUnits::from_f64(0.35));
        let total: TpuUnits = plans[0].1.iter().map(Allocation::units).sum();
        assert_eq!(total, TpuUnits::from_f64(0.35));
    }

    #[test]
    fn rescale_rolls_back_when_the_new_scale_does_not_fit() {
        let (mut orch, mut sched) = setup(1, 2, Features::all());
        let a = sched
            .deploy_scaled(&mut orch, coral_pie_spec("a"), 2)
            .unwrap();
        // Fill the remainder so upscaling `a` cannot fit.
        sched.deploy(&mut orch, coral_pie_spec("b")).unwrap();
        sched.deploy(&mut orch, coral_pie_spec("c")).unwrap();
        let load_before = sched.pool().account(TpuId(0)).load();
        let err = sched.rescale(a.pod(), 1).unwrap_err();
        assert_eq!(err, DeployError::InsufficientTpu);
        assert_eq!(sched.pool().account(TpuId(0)).load(), load_before);
        assert_eq!(
            assigned_units(&sched, a.pod()),
            TpuUnits::from_micro(175_000)
        );
    }

    #[test]
    fn rescale_unknown_pod_is_a_typed_error() {
        let (_, mut sched) = setup(1, 2, Features::all());
        let err = sched.rescale(PodId(999), 1).unwrap_err();
        assert!(matches!(err, DeployError::Orch(OrchError::UnknownPod(_))));
    }

    #[test]
    fn fail_tpu_releasing_frees_units_without_replanning() {
        let (mut orch, mut sched) = setup(2, 2, Features::all());
        let a = sched.deploy(&mut orch, coral_pie_spec("a")).unwrap();
        let tpu = a.allocations()[0].tpu();
        let displaced = sched.fail_tpu_releasing(tpu);
        assert_eq!(displaced, vec![a.pod()]);
        assert!(sched.assignment(a.pod()).is_none(), "not re-placed");
        assert_eq!(sched.pool().account(tpu).load(), TpuUnits::ZERO);
        // Restore is idempotent and returns the TPU to service.
        sched.restore_tpu(tpu);
        sched.restore_tpu(tpu);
        assert!(sched.pool().account(tpu).is_available());
    }

    #[test]
    fn recovery_preserves_degradation_denominator() {
        let (mut orch, mut sched) = setup(2, 2, Features::all());
        let d = sched
            .deploy_scaled(&mut orch, coral_pie_spec("a"), 2)
            .unwrap();
        let tpu = d.allocations()[0].tpu();
        let outcome = sched.handle_tpu_failure(tpu);
        assert_eq!(outcome.recovered.len(), 1);
        assert_eq!(
            assigned_units(&sched, d.pod()),
            TpuUnits::from_micro(175_000)
        );
        let total: TpuUnits = outcome.recovered[0].plans[0]
            .1
            .iter()
            .map(Allocation::units)
            .sum();
        assert_eq!(total, TpuUnits::from_micro(175_000));
    }

    #[test]
    fn resident_models_in_priority_order() {
        let (mut orch, mut sched) = setup(1, 2, Features::all());
        // MobileNet V1 (3.5 MiB) and UNet V2 (2.3 MiB) co-fit the 6.9 MiB
        // parameter budget.
        let pod = |name: &str, model: &str, units: &str| {
            PodSpec::builder(name, "i")
                .extension(EXT_MODEL, model)
                .extension(EXT_TPU_UNITS, units)
                .build()
        };
        sched
            .deploy(&mut orch, pod("a", "mobilenet-v1", "0.215"))
            .unwrap();
        sched
            .deploy(&mut orch, pod("b", "unet-v2", "0.675"))
            .unwrap();
        assert_eq!(
            sched.resident_models(TpuId(0)),
            vec![ModelId::new("mobilenet-v1"), ModelId::new("unet-v2")]
        );
    }

    #[test]
    fn tpu_request_accessors_and_parsing() {
        let r = TpuRequest::new(ModelId::new("m"), TpuUnits::from_f64(0.5));
        assert_eq!(r.model().as_str(), "m");
        assert_eq!(r.units(), TpuUnits::from_f64(0.5));

        let spec = PodSpec::builder("x", "i")
            .extension(EXT_MODEL, "a,b")
            .extension(EXT_TPU_UNITS, "0.1,0.2")
            .build();
        let parsed = TpuRequest::from_spec(&spec).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].model().as_str(), "b");
        assert_eq!(parsed[1].units(), TpuUnits::from_f64(0.2));
    }

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = DeployError::Orch(OrchError::NoFeasibleNode);
        assert!(e.to_string().contains("orchestrator"));
        assert!(e.source().is_some());
        assert!(DeployError::InsufficientTpu.source().is_none());
    }

    #[test]
    fn debug_impl_mentions_policy() {
        let (_, sched) = setup(1, 1, Features::all());
        let dbg = format!("{sched:?}");
        assert!(dbg.contains("first-fit"));
    }

    #[test]
    fn drain_migrates_pods_without_terminating_them() {
        let (mut orch, mut sched) = setup(2, 4, Features::all());
        let a = sched.deploy(&mut orch, coral_pie_spec("a")).unwrap();
        let b = sched.deploy(&mut orch, coral_pie_spec("b")).unwrap();
        let source = a.allocations()[0].tpu();
        assert_eq!(b.allocations()[0].tpu(), source, "both share the first TPU");

        let migrated = sched.drain_tpu(source).unwrap();
        assert_eq!(migrated.len(), 2);
        // Pods still running, all load on the other TPU.
        assert_eq!(orch.running_pods().len(), 2);
        assert_eq!(sched.pool().account(source).load(), TpuUnits::ZERO);
        let other = migrated[0].1[0].1[0].tpu();
        assert_ne!(other, source);
        assert_eq!(sched.pool().account(other).load(), TpuUnits::from_f64(0.7));
    }

    #[test]
    fn drain_aborts_atomically_when_capacity_is_insufficient() {
        let (mut orch, mut sched) = setup(2, 4, Features::all());
        // Fill both TPUs so nothing can move.
        for i in 0..5 {
            sched
                .deploy(&mut orch, coral_pie_spec(&format!("cam-{i}")))
                .unwrap();
        }
        let loads_before: Vec<TpuUnits> =
            sched.pool().accounts().iter().map(|a| a.load()).collect();
        let err = sched.drain_tpu(TpuId(0)).unwrap_err();
        assert_eq!(err, DeployError::InsufficientTpu);
        // Nothing changed, and the TPU is back in service.
        let loads_after: Vec<TpuUnits> = sched.pool().accounts().iter().map(|a| a.load()).collect();
        assert_eq!(loads_before, loads_after);
        assert!(sched.pool().account(TpuId(0)).is_available());
    }
}
