//! Orchestrator bookkeeping under churn: random sequences of pod creation
//! (scheduled or pinned, with and without anti-affinity groups and node
//! selectors), deletion, node failure and node repair, checked after every
//! step against a plain reference model.
//!
//! The orchestrator keeps a pod's spec and node in one record slab indexed
//! by pod id, while its allocation state keeps no per-pod state at all:
//! each node's available resources, its anti-affinity group counts, and a
//! total of bound pods. These tests pin that the two stores never drift
//! apart: node capacity is conserved, every lookup agrees with the model,
//! and the anti-affinity index matches a recomputation from the running
//! pods' specs.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use proptest::prelude::*;

use microedge::cluster::node::{NodeId, TPU_LABEL};
use microedge::cluster::topology::{Cluster, ClusterBuilder};
use microedge::orch::lifecycle::{OrchError, Orchestrator};
use microedge::orch::pod::{PodId, PodPhase, PodSpec, ResourceRequest};

const NAMES: usize = 6;
const GROUPS: [&str; 2] = ["g0", "g1"];
const MIB: u64 = 1024 * 1024;

#[derive(Debug, Clone)]
struct SpecInput {
    name: usize,
    cpu_millis: u32,
    mem_mib: u64,
    group: Option<usize>,
    tpu_selector: bool,
}

impl SpecInput {
    fn build(&self) -> PodSpec {
        let mut builder = PodSpec::builder(format!("p{}", self.name), "img")
            .resources(ResourceRequest::new(self.cpu_millis, self.mem_mib * MIB));
        if let Some(g) = self.group {
            builder = builder.anti_affinity_group(GROUPS[g]);
        }
        if self.tpu_selector {
            builder = builder.node_selector(TPU_LABEL, "true");
        }
        builder.build()
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// `create_pod` through the default scheduler.
    Create(SpecInput),
    /// `create_pod_on` the n-th node; one past the last is an unknown node.
    CreateOn(SpecInput, usize),
    /// `delete_pod` of the n-th id ever issued; ids past the last are
    /// never-issued ids.
    Delete(usize),
    /// `fail_node` of the n-th node.
    Fail(usize),
    /// `restore_node` of the n-th node.
    Restore(usize),
}

fn spec_input() -> impl Strategy<Value = SpecInput> {
    (
        0..NAMES,
        prop_oneof![Just(500u32), Just(1_000u32), Just(2_000u32)],
        1u64..1_024,
        prop::option::of(0..GROUPS.len()),
        prop::bool::ANY,
    )
        .prop_map(
            |(name, cpu_millis, mem_mib, group, tpu_selector)| SpecInput {
                name,
                cpu_millis,
                mem_mib,
                group,
                tpu_selector,
            },
        )
}

fn op_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            4 => spec_input().prop_map(Op::Create),
            2 => (spec_input(), 0..5usize).prop_map(|(s, n)| Op::CreateOn(s, n)),
            3 => (0..24usize).prop_map(Op::Delete),
            1 => (0..4usize).prop_map(Op::Fail),
            1 => (0..4usize).prop_map(Op::Restore),
        ],
        1..60,
    )
}

/// What the orchestrator should know about one issued pod id.
struct ModelPod {
    spec: PodSpec,
    node: NodeId,
    running: bool,
}

/// The reference model: every pod ever created, in id order, plus the set
/// of failed nodes.
struct Model {
    cluster: Cluster,
    pods: Vec<ModelPod>,
    failed: BTreeSet<NodeId>,
}

impl Model {
    fn running_on(&self, node: NodeId) -> impl Iterator<Item = &ModelPod> {
        self.pods
            .iter()
            .filter(move |p| p.running && p.node == node)
    }

    /// Remaining `(cpu, mem)` on `node`: capacity minus running requests.
    fn remaining(&self, node: NodeId) -> (u32, u64) {
        let n = self.cluster.node(node).expect("known node");
        self.running_on(node)
            .fold((n.cpu_millis(), n.mem_bytes()), |(c, m), p| {
                (
                    c - p.spec.resources().cpu_millis(),
                    m - p.spec.resources().mem_bytes(),
                )
            })
    }

    fn name_in_use(&self, spec: &PodSpec) -> bool {
        self.pods
            .iter()
            .any(|p| p.running && p.spec.name() == spec.name())
    }

    fn feasible(&self, spec: &PodSpec, node: NodeId) -> bool {
        let Some(n) = self.cluster.node(node) else {
            return false;
        };
        let (cpu, mem) = self.remaining(node);
        !self.failed.contains(&node)
            && n.matches_selector(spec.node_selector())
            && cpu >= spec.resources().cpu_millis()
            && mem >= spec.resources().mem_bytes()
            && spec.anti_affinity_group().is_none_or(|g| {
                self.running_on(node)
                    .all(|p| p.spec.anti_affinity_group() != Some(g))
            })
    }

    /// The default scheduler's pick: the feasible node with the most
    /// remaining CPU, then memory, then the lowest id.
    fn best_node(&self, spec: &PodSpec) -> Option<NodeId> {
        self.cluster
            .nodes()
            .iter()
            .map(|n| n.id())
            .filter(|&id| self.feasible(spec, id))
            .max_by_key(|&id| {
                let (cpu, mem) = self.remaining(id);
                (cpu, mem, Reverse(id))
            })
    }

    fn push(&mut self, spec: PodSpec, node: NodeId) -> PodId {
        let id = PodId(u64::try_from(self.pods.len()).expect("small model"));
        self.pods.push(ModelPod {
            spec,
            node,
            running: true,
        });
        id
    }
}

fn check(orch: &Orchestrator, model: &Model) -> Result<(), String> {
    for node in model.cluster.nodes() {
        let avail = orch
            .state()
            .availability(node.id())
            .ok_or_else(|| format!("{} has no availability", node.id()))?;
        let (cpu, mem) = orch
            .running_pods()
            .into_iter()
            .filter(|&p| orch.node_of(p) == Some(node.id()))
            .map(|p| orch.spec(p).expect("running pod has a spec").resources())
            .fold((avail.cpu_millis(), avail.mem_bytes()), |(c, m), r| {
                (c + r.cpu_millis(), m + r.mem_bytes())
            });
        prop_assert_eq!(cpu, node.cpu_millis(), "CPU conserved on {}", node.id());
        prop_assert_eq!(mem, node.mem_bytes(), "memory conserved on {}", node.id());
        prop_assert_eq!(
            (avail.cpu_millis(), avail.mem_bytes()),
            model.remaining(node.id()),
            "availability of {}",
            node.id()
        );

        for group in GROUPS {
            let recomputed = orch.running_pods().into_iter().any(|p| {
                orch.node_of(p) == Some(node.id())
                    && orch.spec(p).and_then(PodSpec::anti_affinity_group) == Some(group)
            });
            prop_assert_eq!(
                orch.state().group_present_on(node.id(), group),
                recomputed,
                "group {} on {}",
                group,
                node.id()
            );
        }
    }

    let expected_running: Vec<PodId> = (0u64..)
        .zip(&model.pods)
        .filter(|(_, p)| p.running)
        .map(|(id, _)| PodId(id))
        .collect();
    prop_assert_eq!(orch.running_pods(), expected_running);
    prop_assert_eq!(orch.state().pod_count(), orch.running_pods().len());

    for (id, pod) in (0u64..).zip(&model.pods) {
        let id = PodId(id);
        let phase = if pod.running {
            PodPhase::Running
        } else {
            PodPhase::Terminated
        };
        prop_assert_eq!(orch.phase(id), Some(phase), "phase of {}", id);
        prop_assert_eq!(orch.node_of(id), Some(pod.node), "node of {}", id);
        prop_assert_eq!(orch.spec(id), Some(&pod.spec), "spec of {}", id);
    }
    let unissued = PodId(u64::try_from(model.pods.len()).expect("small model"));
    prop_assert_eq!(orch.phase(unissued), None);
    prop_assert_eq!(orch.node_of(unissued), None);
    prop_assert!(orch.spec(unissued).is_none());
    prop_assert!(orch.spec(PodId(u64::MAX)).is_none());
    Ok(())
}

fn apply(orch: &mut Orchestrator, model: &mut Model, op: &Op) -> Result<(), String> {
    let nodes: Vec<NodeId> = model.cluster.nodes().iter().map(|n| n.id()).collect();
    match op {
        Op::Create(input) => {
            let spec = input.build();
            let expected = if model.name_in_use(&spec) {
                Err(OrchError::NameInUse(spec.name().to_owned()))
            } else {
                model.best_node(&spec).ok_or(OrchError::NoFeasibleNode)
            };
            let got = orch.create_pod(spec.clone());
            match expected {
                Ok(node) => {
                    let id = model.push(spec, node);
                    prop_assert_eq!(got, Ok(id));
                }
                Err(e) => prop_assert_eq!(got, Err(e)),
            }
        }
        Op::CreateOn(input, n) => {
            let spec = input.build();
            let node = nodes.get(*n).copied().unwrap_or(NodeId(99));
            let got = orch.create_pod_on(spec.clone(), node);
            if model.name_in_use(&spec) {
                prop_assert_eq!(got, Err(OrchError::NameInUse(spec.name().to_owned())));
            } else if model.feasible(&spec, node) {
                let id = model.push(spec, node);
                prop_assert_eq!(got, Ok(id));
            } else {
                prop_assert_eq!(got, Err(OrchError::NodeNotFeasible(node)));
            }
        }
        Op::Delete(k) => {
            let id = PodId(u64::try_from(*k).expect("small index"));
            let got = orch.delete_pod(id);
            match model.pods.get_mut(*k).filter(|p| p.running) {
                Some(pod) => {
                    pod.running = false;
                    prop_assert_eq!(got, Ok(pod.node));
                }
                None => prop_assert_eq!(got, Err(OrchError::UnknownPod(id))),
            }
        }
        Op::Fail(n) => {
            let node = nodes[*n % nodes.len()];
            let mut expected = Vec::new();
            for (id, pod) in (0u64..).zip(model.pods.iter_mut()) {
                if pod.running && pod.node == node {
                    pod.running = false;
                    expected.push(PodId(id));
                }
            }
            model.failed.insert(node);
            let mut displaced = orch.fail_node(node);
            displaced.sort();
            prop_assert_eq!(displaced, expected);
        }
        Op::Restore(n) => {
            let node = nodes[*n % nodes.len()];
            model.failed.remove(&node);
            orch.restore_node(node);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bookkeeping_matches_the_model_under_churn(ops in op_strategy()) {
        let cluster = ClusterBuilder::new().trpis(2).vrpis(2).build();
        let mut orch = Orchestrator::new(cluster.clone());
        let mut model = Model {
            cluster,
            pods: Vec::new(),
            failed: BTreeSet::new(),
        };
        check(&orch, &model)?;
        for op in &ops {
            apply(&mut orch, &mut model, op)?;
            check(&orch, &model)?;
        }
    }
}
