//! The default (K3s-native) scheduler: CPU/memory filtering and
//! least-allocated scoring.
//!
//! This is the part of pod placement the paper leaves to K3s (paper §4:
//! "we leave the scheduling of CPU and memory to the default capabilities
//! already present in K3s"). Given a pod spec it produces the ranked list of
//! candidate nodes that K3s hands to MicroEdge's extended scheduler
//! (paper §3.1 step ①).

use microedge_cluster::node::NodeId;
use microedge_cluster::topology::Cluster;

use crate::pod::PodSpec;
use crate::state::ClusterState;

/// The K3s default scheduling policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefaultScheduler;

impl DefaultScheduler {
    /// Creates the scheduler.
    #[must_use]
    pub fn new() -> Self {
        DefaultScheduler
    }

    /// Filters and ranks nodes for `spec`.
    ///
    /// A node is a candidate when:
    /// - it is schedulable (has not failed),
    /// - the pod's CPU and memory requests fit its remaining allocatable
    ///   resources,
    /// - its labels satisfy the pod's node selector, and
    /// - no pod of the same anti-affinity group is already bound to it.
    ///
    /// Candidates are ranked **least-allocated first** (most remaining CPU,
    /// then most remaining memory, then node id for determinism).
    #[must_use]
    pub fn candidate_nodes(
        &self,
        cluster: &Cluster,
        state: &ClusterState,
        spec: &PodSpec,
    ) -> Vec<NodeId> {
        let mut candidates: Vec<(NodeId, u32, u64)> = cluster
            .nodes()
            .iter()
            .filter(|node| state.is_schedulable(node.id()))
            .filter(|node| node.matches_selector(spec.node_selector()))
            .filter_map(|node| {
                let avail = state.availability(node.id())?;
                avail.fits(spec).then(|| {
                    (
                        node.id(),
                        avail.cpu_millis() - spec.resources().cpu_millis(),
                        avail.mem_bytes() - spec.resources().mem_bytes(),
                    )
                })
            })
            .filter(|(id, _, _)| match spec.anti_affinity_group() {
                Some(group) => !state.group_present_on(*id, group),
                None => true,
            })
            .collect();
        candidates.sort_by(|a, b| (b.1, b.2, a.0).cmp(&(a.1, a.2, b.0)));
        candidates.into_iter().map(|(id, _, _)| id).collect()
    }

    /// The node [`Self::candidate_nodes`] would rank first, without
    /// materialising or sorting the candidate list.
    ///
    /// For the common case — no node selector, no anti-affinity group (every
    /// camera pod) — this is a walk of the cluster state's ranked
    /// availability index: O(log n) to find the top entry instead of the
    /// O(n log n) filter-and-sort, which dominates admission cost at
    /// 100k-stream scale. Specs with placement constraints fall back to the
    /// full ranking. Always exactly equal to
    /// `candidate_nodes(..).first().copied()`.
    #[must_use]
    pub fn best_node(
        &self,
        cluster: &Cluster,
        state: &ClusterState,
        spec: &PodSpec,
    ) -> Option<NodeId> {
        if spec.node_selector().is_empty() && spec.anti_affinity_group().is_none() {
            state.best_fit(spec)
        } else {
            self.candidate_nodes(cluster, state, spec).first().copied()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pod::ResourceRequest;
    use microedge_cluster::node::TPU_LABEL;
    use microedge_cluster::topology::ClusterBuilder;

    fn spec(cpu: u32) -> PodSpec {
        PodSpec::builder("p", "i")
            .resources(ResourceRequest::new(cpu, 1024))
            .build()
    }

    #[test]
    fn least_allocated_node_ranks_first() {
        let cluster = ClusterBuilder::new().vrpis(3).build();
        let mut state = ClusterState::new(&cluster);
        let nodes: Vec<NodeId> = cluster.nodes().iter().map(|n| n.id()).collect();
        // Load node 0 heavily and node 1 lightly.
        state.bind(&spec(3000), nodes[0]);
        state.bind(&spec(1000), nodes[1]);

        let ranked = DefaultScheduler::new().candidate_nodes(&cluster, &state, &spec(100));
        assert_eq!(ranked[0], nodes[2], "untouched node first");
        assert_eq!(ranked[1], nodes[1]);
        assert_eq!(ranked[2], nodes[0]);
    }

    #[test]
    fn full_nodes_are_filtered_out() {
        let cluster = ClusterBuilder::new().vrpis(1).build();
        let mut state = ClusterState::new(&cluster);
        let node = cluster.nodes()[0].id();
        state.bind(&spec(4000), node);
        let ranked = DefaultScheduler::new().candidate_nodes(&cluster, &state, &spec(1));
        assert!(ranked.is_empty());
    }

    #[test]
    fn node_selector_restricts_to_trpis() {
        let cluster = ClusterBuilder::new().vrpis(3).trpis(2).build();
        let state = ClusterState::new(&cluster);
        let tpu_spec = PodSpec::builder("p", "i")
            .resources(ResourceRequest::new(100, 1024))
            .node_selector(TPU_LABEL, "true")
            .build();
        let ranked = DefaultScheduler::new().candidate_nodes(&cluster, &state, &tpu_spec);
        assert_eq!(ranked.len(), 2);
        for id in ranked {
            assert!(cluster.node(id).unwrap().has_tpu());
        }
    }

    #[test]
    fn anti_affinity_spreads_pods() {
        let cluster = ClusterBuilder::new().vrpis(2).build();
        let mut state = ClusterState::new(&cluster);
        let grouped = |name: &str| {
            PodSpec::builder(name, "i")
                .resources(ResourceRequest::new(100, 1024))
                .anti_affinity_group("coral-pie")
                .build()
        };
        let sched = DefaultScheduler::new();
        let first = sched.candidate_nodes(&cluster, &state, &grouped("a"))[0];
        state.bind(&grouped("a"), first);
        let remaining = sched.candidate_nodes(&cluster, &state, &grouped("b"));
        assert_eq!(remaining.len(), 1);
        assert_ne!(remaining[0], first);
        state.bind(&grouped("b"), remaining[0]);
        assert!(sched
            .candidate_nodes(&cluster, &state, &grouped("c"))
            .is_empty());
    }

    #[test]
    fn ties_break_by_node_id() {
        let cluster = ClusterBuilder::new().vrpis(4).build();
        let state = ClusterState::new(&cluster);
        let ranked = DefaultScheduler::new().candidate_nodes(&cluster, &state, &spec(1));
        let ids: Vec<u32> = ranked.iter().map(|n| n.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    /// The indexed fast path must agree with the sorted candidate list on
    /// every step of an arbitrary bind/unbind/cordon history.
    #[test]
    fn best_node_matches_ranked_head_throughout_churn() {
        let cluster = ClusterBuilder::new().vrpis(6).trpis(2).build();
        let mut state = ClusterState::new(&cluster);
        let sched = DefaultScheduler::new();
        let nodes: Vec<NodeId> = cluster.nodes().iter().map(|n| n.id()).collect();
        let probes = [spec(1), spec(500), spec(2500), spec(4000), spec(4001)];
        let check = |state: &ClusterState, step: &str| {
            for (i, probe) in probes.iter().enumerate() {
                assert_eq!(
                    sched.best_node(&cluster, state, probe),
                    sched
                        .candidate_nodes(&cluster, state, probe)
                        .first()
                        .copied(),
                    "fast path diverged after {step} for probe {i}"
                );
            }
        };
        check(&state, "init");
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut bound: Vec<(u32, NodeId)> = Vec::new();
        for step in 0..200 {
            match next() % 4 {
                0 | 1 => {
                    let cpu = 100 + (next() % 900) as u32;
                    if let Some(node) = sched.best_node(&cluster, &state, &spec(cpu)) {
                        state.bind(&spec(cpu), node);
                        bound.push((cpu, node));
                    }
                }
                2 => {
                    if !bound.is_empty() {
                        let (cpu, node) = bound.swap_remove(next() as usize % bound.len());
                        state.unbind(&spec(cpu), node);
                    }
                }
                _ => {
                    let node = nodes[next() as usize % nodes.len()];
                    state.set_schedulable(node, next() % 2 == 0);
                }
            }
            check(&state, &format!("step {step}"));
        }
    }

    /// Constrained specs (selector or anti-affinity) take the fallback and
    /// still agree with the ranked head.
    #[test]
    fn best_node_falls_back_for_constrained_specs() {
        let cluster = ClusterBuilder::new().vrpis(2).trpis(2).build();
        let mut state = ClusterState::new(&cluster);
        let sched = DefaultScheduler::new();
        let selected = PodSpec::builder("t", "i")
            .resources(ResourceRequest::new(100, 1024))
            .node_selector(TPU_LABEL, "true")
            .build();
        let grouped = PodSpec::builder("g", "i")
            .resources(ResourceRequest::new(100, 1024))
            .anti_affinity_group("spread")
            .build();
        for probe in [&selected, &grouped] {
            assert_eq!(
                sched.best_node(&cluster, &state, probe),
                sched
                    .candidate_nodes(&cluster, &state, probe)
                    .first()
                    .copied(),
            );
        }
        let first = sched.best_node(&cluster, &state, &selected).unwrap();
        assert!(cluster.node(first).unwrap().has_tpu());
        state.bind(&grouped, first);
        let next_spread = PodSpec::builder("g2", "i")
            .resources(ResourceRequest::new(100, 1024))
            .anti_affinity_group("spread")
            .build();
        let placed = sched.best_node(&cluster, &state, &next_spread).unwrap();
        assert_ne!(placed, first, "anti-affinity must still spread");
    }
}
