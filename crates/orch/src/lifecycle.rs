//! Pod lifecycle management: creation, binding, deletion.
//!
//! [`Orchestrator`] plays the role of the K3s control plane at the fidelity
//! MicroEdge consumes: it validates pod creation requests, asks the default
//! scheduler for candidate nodes, binds pods, and reclaims CPU and memory on
//! deletion. MicroEdge's extended scheduler sits *on top* of this: it
//! receives the candidate list, makes the TPU placement decision, and then
//! binds through [`Orchestrator::create_pod_on`].

use std::collections::BTreeSet;
use std::fmt;

use microedge_cluster::node::NodeId;
use microedge_cluster::topology::Cluster;

use crate::pod::{PodId, PodPhase, PodSpec};
use crate::scheduler::DefaultScheduler;
use crate::state::ClusterState;

/// Errors surfaced by pod lifecycle operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrchError {
    /// No node passed filtering — insufficient CPU/memory, no label match,
    /// or anti-affinity exclusion.
    NoFeasibleNode,
    /// The requested node is not a valid candidate for this spec.
    NodeNotFeasible(NodeId),
    /// The pod id is unknown or already terminated.
    UnknownPod(PodId),
    /// A live pod already uses this name.
    NameInUse(String),
}

impl fmt::Display for OrchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrchError::NoFeasibleNode => f.write_str("no feasible node for pod"),
            OrchError::NodeNotFeasible(n) => write!(f, "node {n} is not feasible for pod"),
            OrchError::UnknownPod(p) => write!(f, "unknown pod {p}"),
            OrchError::NameInUse(n) => write!(f, "pod name `{n}` is already in use"),
        }
    }
}

impl std::error::Error for OrchError {}

/// The slot of `pod` in [`Orchestrator`]'s record slab; an id beyond the
/// address space maps to a slot no slab reaches.
fn slot(pod: PodId) -> usize {
    usize::try_from(pod.0).unwrap_or(usize::MAX)
}

#[derive(Debug, Clone)]
struct PodRecord {
    spec: PodSpec,
    phase: PodPhase,
    node: NodeId,
}

/// The K3s-like control plane for one cluster.
///
/// # Examples
///
/// ```
/// use microedge_cluster::topology::ClusterBuilder;
/// use microedge_orch::lifecycle::Orchestrator;
/// use microedge_orch::pod::{PodPhase, PodSpec};
///
/// let mut orch = Orchestrator::new(ClusterBuilder::new().vrpis(2).build());
/// let pod = orch.create_pod(PodSpec::builder("cam", "img").build())?;
/// assert_eq!(orch.phase(pod), Some(PodPhase::Running));
/// orch.delete_pod(pod)?;
/// assert_eq!(orch.phase(pod), Some(PodPhase::Terminated));
/// # Ok::<(), microedge_orch::lifecycle::OrchError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Orchestrator {
    cluster: Cluster,
    state: ClusterState,
    scheduler: DefaultScheduler,
    /// Every pod ever created, indexed by `PodId`: ids are issued densely
    /// from 0 and never reused, so the id is the slot.
    pods: Vec<PodRecord>,
    /// Names of running pods, kept in lockstep with `pods` so the
    /// uniqueness check on creation is an index probe instead of a scan of
    /// every record ever created — the scan was quadratic over a
    /// 100k-stream admission sweep.
    live_names: BTreeSet<String>,
}

impl Orchestrator {
    /// Creates a control plane over `cluster` with no pods.
    #[must_use]
    pub fn new(cluster: Cluster) -> Self {
        let state = ClusterState::new(&cluster);
        Orchestrator {
            cluster,
            state,
            scheduler: DefaultScheduler::new(),
            pods: Vec::new(),
            live_names: BTreeSet::new(),
        }
    }

    /// The managed cluster.
    #[must_use]
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The current allocation state.
    #[must_use]
    pub fn state(&self) -> &ClusterState {
        &self.state
    }

    /// The ranked candidate nodes for `spec` — what K3s hands to the
    /// extended scheduler in paper §3.1 step ①.
    #[must_use]
    pub fn candidate_nodes(&self, spec: &PodSpec) -> Vec<NodeId> {
        self.scheduler
            .candidate_nodes(&self.cluster, &self.state, spec)
    }

    /// Creates a pod on the best-ranked candidate node (via the
    /// [`DefaultScheduler::best_node`] fast path — the full candidate list
    /// is never materialised for constraint-free specs).
    ///
    /// # Errors
    ///
    /// [`OrchError::NameInUse`] when a live pod has the same name;
    /// [`OrchError::NoFeasibleNode`] when no node passes filtering.
    pub fn create_pod(&mut self, spec: PodSpec) -> Result<PodId, OrchError> {
        self.check_name(&spec)?;
        let Some(node) = self.scheduler.best_node(&self.cluster, &self.state, &spec) else {
            return Err(OrchError::NoFeasibleNode);
        };
        Ok(self.bind(spec, node))
    }

    /// Whether `node` would appear in [`Self::candidate_nodes`] for `spec` —
    /// the same filters, checked against one node without ranking the fleet.
    fn node_feasible(&self, spec: &PodSpec, node: NodeId) -> bool {
        self.state.is_schedulable(node)
            && self
                .cluster
                .node(node)
                .is_some_and(|n| n.matches_selector(spec.node_selector()))
            && self.state.availability(node).is_some_and(|a| a.fits(spec))
            && spec
                .anti_affinity_group()
                .is_none_or(|g| !self.state.group_present_on(node, g))
    }

    /// Creates a pod on a specific node chosen by an external (extended)
    /// scheduler.
    ///
    /// # Errors
    ///
    /// [`OrchError::NameInUse`] when a live pod has the same name;
    /// [`OrchError::NodeNotFeasible`] when the node does not pass filtering
    /// for this spec.
    pub fn create_pod_on(&mut self, spec: PodSpec, node: NodeId) -> Result<PodId, OrchError> {
        self.check_name(&spec)?;
        if !self.node_feasible(&spec, node) {
            return Err(OrchError::NodeNotFeasible(node));
        }
        Ok(self.bind(spec, node))
    }

    /// Deletes a running pod, reclaiming its CPU and memory. Returns the
    /// node it ran on.
    ///
    /// # Errors
    ///
    /// [`OrchError::UnknownPod`] when the pod does not exist or has already
    /// terminated.
    pub fn delete_pod(&mut self, pod: PodId) -> Result<NodeId, OrchError> {
        let record = self
            .pods
            .get_mut(slot(pod))
            .filter(|r| r.phase == PodPhase::Running)
            .ok_or(OrchError::UnknownPod(pod))?;
        record.phase = PodPhase::Terminated;
        let node = record.node;
        self.live_names.remove(record.spec.name());
        self.state.unbind(pod).expect("running pod must be bound");
        Ok(node)
    }

    /// Fails a node: it stops accepting pods and every pod running on it
    /// terminates. Returns the displaced pods. Idempotent for already-failed nodes.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of the cluster.
    pub fn fail_node(&mut self, node: NodeId) -> Vec<PodId> {
        assert!(
            self.cluster.node(node).is_some(),
            "cannot fail unknown {node}"
        );
        self.state.set_schedulable(node, false);
        let displaced = self.state.pods_on(node);
        for &pod in &displaced {
            let record = self
                .pods
                .get_mut(slot(pod))
                .expect("bound pod has a record");
            record.phase = PodPhase::Terminated;
            self.live_names.remove(record.spec.name());
            self.state.unbind(pod).expect("displaced pod was bound");
        }
        displaced
    }

    /// Returns a previously failed node to service: it accepts pods again.
    /// Terminated pods stay terminated (Kubernetes semantics — recovery
    /// means *new* pods, not resurrection).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of the cluster.
    pub fn restore_node(&mut self, node: NodeId) {
        assert!(
            self.cluster.node(node).is_some(),
            "cannot restore unknown {node}"
        );
        self.state.set_schedulable(node, true);
    }

    /// Lifecycle phase of `pod`, or `None` if the id was never issued.
    #[must_use]
    pub fn phase(&self, pod: PodId) -> Option<PodPhase> {
        self.pods.get(slot(pod)).map(|r| r.phase)
    }

    /// Spec of `pod`, or `None` if the id was never issued.
    #[must_use]
    pub fn spec(&self, pod: PodId) -> Option<&PodSpec> {
        self.pods.get(slot(pod)).map(|r| &r.spec)
    }

    /// Node `pod` runs (or ran) on.
    #[must_use]
    pub fn node_of(&self, pod: PodId) -> Option<NodeId> {
        self.pods.get(slot(pod)).map(|r| r.node)
    }

    /// Ids of all running pods, ascending.
    #[must_use]
    pub fn running_pods(&self) -> Vec<PodId> {
        (0u64..)
            .zip(&self.pods)
            .filter(|(_, r)| r.phase == PodPhase::Running)
            .map(|(id, _)| PodId(id))
            .collect()
    }

    fn check_name(&self, spec: &PodSpec) -> Result<(), OrchError> {
        if self.live_names.contains(spec.name()) {
            Err(OrchError::NameInUse(spec.name().to_owned()))
        } else {
            Ok(())
        }
    }

    fn bind(&mut self, spec: PodSpec, node: NodeId) -> PodId {
        let id = PodId(u64::try_from(self.pods.len()).expect("pod count fits u64"));
        self.live_names.insert(spec.name().to_owned());
        self.state.bind(id, &spec, node);
        self.pods.push(PodRecord {
            spec,
            phase: PodPhase::Running,
            node,
        });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pod::ResourceRequest;
    use microedge_cluster::topology::ClusterBuilder;

    fn orch(vrpis: u32) -> Orchestrator {
        Orchestrator::new(ClusterBuilder::new().vrpis(vrpis).build())
    }

    fn spec(name: &str) -> PodSpec {
        PodSpec::builder(name, "i")
            .resources(ResourceRequest::new(1000, 1024))
            .build()
    }

    #[test]
    fn create_and_delete_roundtrip() {
        let mut o = orch(1);
        let pod = o.create_pod(spec("a")).unwrap();
        assert_eq!(o.phase(pod), Some(PodPhase::Running));
        assert_eq!(o.running_pods(), vec![pod]);
        let node = o.delete_pod(pod).unwrap();
        assert_eq!(o.phase(pod), Some(PodPhase::Terminated));
        assert!(o.running_pods().is_empty());
        // Resources returned.
        assert_eq!(o.state().availability(node).unwrap().cpu_millis(), 4000);
    }

    #[test]
    fn rejects_when_cluster_full() {
        let mut o = orch(1);
        for i in 0..4 {
            o.create_pod(spec(&format!("p{i}"))).unwrap();
        }
        assert_eq!(o.create_pod(spec("p4")), Err(OrchError::NoFeasibleNode));
    }

    #[test]
    fn deleting_frees_capacity_for_new_pods() {
        let mut o = orch(1);
        let pods: Vec<PodId> = (0..4)
            .map(|i| o.create_pod(spec(&format!("p{i}"))).unwrap())
            .collect();
        o.delete_pod(pods[0]).unwrap();
        assert!(o.create_pod(spec("fresh")).is_ok());
    }

    #[test]
    fn duplicate_live_name_rejected_but_reusable_after_delete() {
        let mut o = orch(2);
        let pod = o.create_pod(spec("cam")).unwrap();
        assert_eq!(
            o.create_pod(spec("cam")),
            Err(OrchError::NameInUse("cam".into()))
        );
        o.delete_pod(pod).unwrap();
        assert!(o.create_pod(spec("cam")).is_ok());
    }

    #[test]
    fn double_delete_is_unknown_pod() {
        let mut o = orch(1);
        let pod = o.create_pod(spec("a")).unwrap();
        o.delete_pod(pod).unwrap();
        assert_eq!(o.delete_pod(pod), Err(OrchError::UnknownPod(pod)));
    }

    #[test]
    fn create_pod_on_respects_feasibility() {
        let mut o = orch(2);
        let target = o.cluster().nodes()[1].id();
        let pod = o.create_pod_on(spec("a"), target).unwrap();
        assert_eq!(o.node_of(pod), Some(target));

        let bogus = NodeId(99);
        assert_eq!(
            o.create_pod_on(spec("b"), bogus),
            Err(OrchError::NodeNotFeasible(bogus))
        );
    }

    #[test]
    fn pod_ids_are_never_reused() {
        let mut o = orch(1);
        let a = o.create_pod(spec("a")).unwrap();
        o.delete_pod(a).unwrap();
        let b = o.create_pod(spec("b")).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn error_display() {
        assert!(OrchError::NoFeasibleNode
            .to_string()
            .contains("no feasible"));
        assert!(OrchError::UnknownPod(PodId(3))
            .to_string()
            .contains("pod-3"));
    }

    #[test]
    fn node_failure_displaces_pods_and_blocks_scheduling() {
        let mut o = orch(1);
        let a = o.create_pod(spec("a")).unwrap();
        let b = o.create_pod(spec("b")).unwrap();
        let node = o.node_of(a).unwrap();

        let displaced = o.fail_node(node);
        assert_eq!(displaced.len(), 2);
        assert!(displaced.contains(&a) && displaced.contains(&b));
        assert_eq!(o.phase(a), Some(PodPhase::Terminated));
        assert_eq!(o.phase(b), Some(PodPhase::Terminated));
        // The single node is gone: nothing schedules.
        assert_eq!(o.create_pod(spec("c")), Err(OrchError::NoFeasibleNode));
        assert!(o.running_pods().is_empty());
        // Idempotent.
        assert!(o.fail_node(node).is_empty());
    }

    #[test]
    fn other_nodes_keep_working_after_a_node_failure() {
        let mut o = orch(2);
        let a = o.create_pod(spec("a")).unwrap();
        let dead = o.node_of(a).unwrap();
        o.fail_node(dead);
        let c = o.create_pod(spec("c")).unwrap();
        assert_ne!(o.node_of(c), Some(dead));
    }

    #[test]
    fn restored_node_accepts_pods_again() {
        let mut o = orch(1);
        let node = o.cluster().nodes()[0].id();
        o.fail_node(node);
        assert_eq!(o.create_pod(spec("x")), Err(OrchError::NoFeasibleNode));
        o.restore_node(node);
        assert!(o.create_pod(spec("x")).is_ok());
    }
}
