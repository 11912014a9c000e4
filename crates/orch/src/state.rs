//! Cluster allocation state: what CPU and memory remain on each node, and
//! which anti-affinity groups each node already hosts.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

use microedge_cluster::node::NodeId;
use microedge_cluster::topology::Cluster;

use crate::pod::PodSpec;

/// Entry of the ranked availability index: `(remaining CPU, remaining
/// memory, Reverse(node id))`, so that *descending* set order is exactly
/// the default scheduler's least-allocated ranking (most CPU first, then
/// most memory, then lowest node id).
type RankedEntry = (u32, u64, Reverse<NodeId>);

/// Remaining allocatable resources on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeAvailability {
    cpu_millis: u32,
    mem_bytes: u64,
}

impl NodeAvailability {
    /// Remaining CPU in millicores.
    #[must_use]
    pub fn cpu_millis(&self) -> u32 {
        self.cpu_millis
    }

    /// Remaining memory in bytes.
    #[must_use]
    pub fn mem_bytes(&self) -> u64 {
        self.mem_bytes
    }

    /// `true` when `spec`'s requests fit.
    #[must_use]
    pub fn fits(&self, spec: &PodSpec) -> bool {
        self.cpu_millis >= spec.resources().cpu_millis()
            && self.mem_bytes >= spec.resources().mem_bytes()
    }
}

/// Tracks per-node allocations for one cluster. The orchestrator's pod
/// records say which pod is bound where; this state keeps only what the
/// schedulers read per node.
///
/// # Examples
///
/// ```
/// use microedge_cluster::topology::ClusterBuilder;
/// use microedge_orch::pod::PodSpec;
/// use microedge_orch::state::ClusterState;
///
/// let cluster = ClusterBuilder::new().vrpis(1).build();
/// let mut state = ClusterState::new(&cluster);
/// let spec = PodSpec::builder("p", "i").build();
/// let node = cluster.nodes()[0].id();
/// state.bind(&spec, node);
/// assert_eq!(state.pod_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterState {
    /// Remaining resources by [`NodeId::index`]; `None` for an id the
    /// cluster does not have.
    availability: Vec<Option<NodeAvailability>>,
    /// Every known node keyed by remaining resources (see [`RankedEntry`]),
    /// kept in lockstep with `availability` by `bind`/`unbind` so the
    /// common selector-free placement is an index lookup instead of a full
    /// filter-and-sort over the fleet.
    ranked: BTreeSet<RankedEntry>,
    unschedulable: BTreeSet<NodeId>,
    /// Bound pods, for [`ClusterState::pod_count`].
    bound: usize,
    /// Bound pods per anti-affinity group and node; an entry leaves when
    /// its count reaches zero, so presence is the anti-affinity check.
    groups: BTreeMap<String, BTreeMap<NodeId, usize>>,
}

impl ClusterState {
    /// Creates a state with every node fully available.
    #[must_use]
    pub fn new(cluster: &Cluster) -> Self {
        let slots = cluster.nodes().iter().map(|n| n.id().index() + 1).max();
        let mut availability = vec![None; slots.unwrap_or(0)];
        for node in cluster.nodes() {
            if let Some(slot) = availability.get_mut(node.id().index()) {
                *slot = Some(NodeAvailability {
                    cpu_millis: node.cpu_millis(),
                    mem_bytes: node.mem_bytes(),
                });
            }
        }
        let ranked = (0..)
            .zip(&availability)
            .filter_map(|(i, a)| a.map(|a| (a.cpu_millis, a.mem_bytes, Reverse(NodeId(i)))))
            .collect();
        ClusterState {
            availability,
            ranked,
            unschedulable: BTreeSet::new(),
            bound: 0,
            groups: BTreeMap::new(),
        }
    }

    /// `true` when `node` accepts new pods (default) — failed nodes are
    /// marked unschedulable and filtered out by the default scheduler.
    #[must_use]
    pub fn is_schedulable(&self, node: NodeId) -> bool {
        !self.unschedulable.contains(&node)
    }

    /// Marks a node (un)schedulable.
    pub fn set_schedulable(&mut self, node: NodeId, schedulable: bool) {
        if schedulable {
            self.unschedulable.remove(&node);
        } else {
            self.unschedulable.insert(node);
        }
    }

    /// Remaining resources on `node`, or `None` for an unknown node.
    #[must_use]
    pub fn availability(&self, node: NodeId) -> Option<NodeAvailability> {
        self.availability.get(node.index()).copied().flatten()
    }

    /// Binds a pod with `spec` to `node`, decrementing the node's
    /// availability.
    ///
    /// # Panics
    ///
    /// Panics if the node is unknown or the requests do not fit — callers
    /// must check with [`NodeAvailability::fits`] first (the scheduler
    /// does).
    pub fn bind(&mut self, spec: &PodSpec, node: NodeId) {
        let resources = spec.resources();
        let avail = self.node_mut(node);
        assert!(
            avail.cpu_millis >= resources.cpu_millis() && avail.mem_bytes >= resources.mem_bytes(),
            "binding {} to {node} would oversubscribe the node",
            spec.name()
        );
        let before = *avail;
        avail.cpu_millis -= resources.cpu_millis();
        avail.mem_bytes -= resources.mem_bytes();
        let after = *avail;
        self.rerank(node, before, after);
        self.bound += 1;
        if let Some(group) = spec.anti_affinity_group() {
            let nodes = self.groups.entry(group.to_owned()).or_default();
            *nodes.entry(node).or_insert(0) += 1;
        }
    }

    /// Unbinds a pod with `spec` from `node`, returning its resources to
    /// the node. The caller must have bound exactly this spec there.
    ///
    /// # Panics
    ///
    /// Panics if the node is unknown.
    pub fn unbind(&mut self, spec: &PodSpec, node: NodeId) {
        let resources = spec.resources();
        let avail = self.node_mut(node);
        let before = *avail;
        avail.cpu_millis += resources.cpu_millis();
        avail.mem_bytes += resources.mem_bytes();
        let after = *avail;
        self.rerank(node, before, after);
        self.bound -= 1;
        let group = spec.anti_affinity_group();
        if let Some(nodes) = group.and_then(|g| self.groups.get_mut(g)) {
            if let Some(count) = nodes.get_mut(&node) {
                *count -= 1;
                if *count == 0 {
                    nodes.remove(&node);
                }
            }
        }
    }

    fn node_mut(&mut self, node: NodeId) -> &mut NodeAvailability {
        self.availability
            .get_mut(node.index())
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("unknown node {node}"))
    }

    /// Moves `node` in the ranked index from its `before` to its `after`
    /// availability.
    fn rerank(&mut self, node: NodeId, before: NodeAvailability, after: NodeAvailability) {
        self.ranked
            .remove(&(before.cpu_millis, before.mem_bytes, Reverse(node)));
        self.ranked
            .insert((after.cpu_millis, after.mem_bytes, Reverse(node)));
    }

    /// The best node for a **selector-free, anti-affinity-free** spec: the
    /// schedulable node the pod fits with the most remaining CPU (then
    /// memory, then lowest node id) — exactly the head of
    /// [`crate::scheduler::DefaultScheduler::candidate_nodes`]'s ranking,
    /// found by walking the ranked index instead of sorting the fleet.
    ///
    /// Callers must ensure the spec has no node selector and no
    /// anti-affinity group; those constraints are not consulted here.
    #[must_use]
    pub fn best_fit(&self, spec: &PodSpec) -> Option<NodeId> {
        let cpu = spec.resources().cpu_millis();
        let mem = spec.resources().mem_bytes();
        self.ranked
            .iter()
            .rev()
            .filter(|&&(c, m, Reverse(id))| c >= cpu && m >= mem && self.is_schedulable(id))
            .map(|&(_, _, Reverse(id))| id)
            .next()
    }

    /// `true` when some pod of `group` is already bound to `node`
    /// (anti-affinity check).
    #[must_use]
    pub fn group_present_on(&self, node: NodeId, group: &str) -> bool {
        self.groups
            .get(group)
            .is_some_and(|nodes| nodes.contains_key(&node))
    }

    /// Number of bound pods.
    #[must_use]
    pub fn pod_count(&self) -> usize {
        self.bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pod::ResourceRequest;
    use microedge_cluster::topology::ClusterBuilder;

    fn one_node() -> (Cluster, NodeId) {
        let c = ClusterBuilder::new().vrpis(1).build();
        let id = c.nodes()[0].id();
        (c, id)
    }

    fn spec(cpu: u32, mem: u64) -> PodSpec {
        PodSpec::builder("p", "i")
            .resources(ResourceRequest::new(cpu, mem))
            .build()
    }

    #[test]
    fn bind_decrements_and_unbind_restores() {
        let (c, node) = one_node();
        let mut st = ClusterState::new(&c);
        let before = st.availability(node).unwrap();
        st.bind(&spec(1000, 1024), node);
        let during = st.availability(node).unwrap();
        assert_eq!(during.cpu_millis(), before.cpu_millis() - 1000);
        assert_eq!(during.mem_bytes(), before.mem_bytes() - 1024);
        assert_eq!(st.pod_count(), 1);
        st.unbind(&spec(1000, 1024), node);
        assert_eq!(st.availability(node).unwrap(), before);
        assert_eq!(st.pod_count(), 0);
    }

    #[test]
    #[should_panic(expected = "oversubscribe")]
    fn binding_beyond_capacity_panics() {
        let (c, node) = one_node();
        let mut st = ClusterState::new(&c);
        st.bind(&spec(4000, 1024), node);
        st.bind(&spec(1, 1024), node);
    }

    #[test]
    fn anti_affinity_group_is_counted_per_node() {
        let (c, node) = one_node();
        let mut st = ClusterState::new(&c);
        let grouped = PodSpec::builder("a", "i")
            .resources(ResourceRequest::new(1, 1))
            .anti_affinity_group("g")
            .build();
        st.bind(&grouped, node);
        st.bind(&grouped, node);
        assert!(st.group_present_on(node, "g"));
        assert!(!st.group_present_on(node, "other"));
        st.unbind(&grouped, node);
        assert!(st.group_present_on(node, "g"), "one pod of g is left");
        st.unbind(&grouped, node);
        assert!(!st.group_present_on(node, "g"));
    }

    #[test]
    fn fits_checks_both_dimensions() {
        let (c, node) = one_node();
        let st = ClusterState::new(&c);
        let avail = st.availability(node).unwrap();
        assert!(avail.fits(&spec(4000, 1024)));
        assert!(!avail.fits(&spec(4001, 1024)));
        assert!(!avail.fits(&spec(1, u64::MAX)));
    }
}
