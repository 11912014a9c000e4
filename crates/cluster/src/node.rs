//! Cluster nodes: vanilla Raspberry Pis (`vRPi`) and TPU-endowed ones
//! (`tRPi`).
//!
//! A node description is pure hardware inventory — CPU capacity, memory, and
//! whether a Coral TPU is attached — plus free-form labels that the
//! orchestrator's node selectors match against (paper §2: "K3s supports
//! labeling that allows application pods to request nodes with specific
//! features, e.g. a node that has a TPU attached").

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifies a node within one cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// This id as its dense slab index (nodes are indexed contiguously).
    #[must_use]
    pub fn index(self) -> usize {
        usize::try_from(self.0).expect("u32 node id fits usize")
    }

    /// The id of the node at dense slab index `i`.
    #[must_use]
    pub fn from_index(i: usize) -> NodeId {
        NodeId(u32::try_from(i).expect("per-cluster node count fits u32"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// Hardware flavour of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// A Raspberry Pi 4 with no accelerator.
    VRpi,
    /// A Raspberry Pi 4 with a USB Coral TPU attached.
    TRpi,
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeKind::VRpi => f.write_str("vRPi"),
            NodeKind::TRpi => f.write_str("tRPi"),
        }
    }
}

/// The label key MicroEdge uses to mark TPU-endowed nodes.
pub const TPU_LABEL: &str = "microedge.io/tpu";

/// One physical node in the cluster.
///
/// # Examples
///
/// ```
/// use microedge_cluster::node::{Node, NodeId, NodeKind};
///
/// let node = Node::rpi4(NodeId(0), NodeKind::TRpi);
/// assert!(node.has_tpu());
/// assert_eq!(node.cpu_millis(), 4000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    id: NodeId,
    kind: NodeKind,
    cpu_millis: u32,
    mem_bytes: u64,
    labels: BTreeMap<String, String>,
}

impl Node {
    /// Creates a node with explicit resources.
    ///
    /// # Panics
    ///
    /// Panics if CPU or memory capacity is zero.
    #[must_use]
    pub fn new(id: NodeId, kind: NodeKind, cpu_millis: u32, mem_bytes: u64) -> Self {
        assert!(cpu_millis > 0, "node must have CPU capacity");
        assert!(mem_bytes > 0, "node must have memory capacity");
        let mut labels = BTreeMap::new();
        if kind == NodeKind::TRpi {
            labels.insert(TPU_LABEL.to_owned(), "true".to_owned());
        }
        Node {
            id,
            kind,
            cpu_millis,
            mem_bytes,
            labels,
        }
    }

    /// A Raspberry Pi 4 Model B as used by the paper: quad-core Cortex-A72 at
    /// 1.5 GHz (4000 millicores) with 8 GB of RAM.
    #[must_use]
    pub fn rpi4(id: NodeId, kind: NodeKind) -> Self {
        Node::new(id, kind, 4_000, 8 * 1024 * 1024 * 1024)
    }

    /// Node identifier.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Hardware flavour.
    #[must_use]
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// `true` when a TPU is attached.
    #[must_use]
    pub fn has_tpu(&self) -> bool {
        self.kind == NodeKind::TRpi
    }

    /// CPU capacity in millicores.
    #[must_use]
    pub fn cpu_millis(&self) -> u32 {
        self.cpu_millis
    }

    /// Memory capacity in bytes.
    #[must_use]
    pub fn mem_bytes(&self) -> u64 {
        self.mem_bytes
    }

    /// Node labels (selector targets).
    #[must_use]
    pub fn labels(&self) -> &BTreeMap<String, String> {
        &self.labels
    }

    /// `true` when every `(key, value)` in `selector` matches this node's
    /// labels.
    #[must_use]
    pub fn matches_selector(&self, selector: &BTreeMap<String, String>) -> bool {
        selector.iter().all(|(k, v)| self.labels.get(k) == Some(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpi4_matches_paper_hardware() {
        let n = Node::rpi4(NodeId(3), NodeKind::VRpi);
        assert_eq!(n.cpu_millis(), 4000);
        assert_eq!(n.mem_bytes(), 8 * 1024 * 1024 * 1024);
        assert!(!n.has_tpu());
        assert_eq!(n.id(), NodeId(3));
    }

    #[test]
    fn trpi_gets_tpu_label_automatically() {
        let n = Node::rpi4(NodeId(0), NodeKind::TRpi);
        assert_eq!(n.labels().get(TPU_LABEL).map(String::as_str), Some("true"));
        assert!(n.has_tpu());
    }

    #[test]
    fn selector_matching() {
        let n = Node::rpi4(NodeId(0), NodeKind::TRpi);

        let mut sel = BTreeMap::new();
        assert!(
            n.matches_selector(&sel),
            "empty selector matches everything"
        );

        sel.insert(TPU_LABEL.to_owned(), "true".to_owned());
        assert!(n.matches_selector(&sel));
        assert!(!Node::rpi4(NodeId(1), NodeKind::VRpi).matches_selector(&sel));

        sel.insert("zone".to_owned(), "campus-west".to_owned());
        assert!(!n.matches_selector(&sel), "a label the node lacks");
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(7).to_string(), "node-7");
        assert_eq!(NodeKind::TRpi.to_string(), "tRPi");
        assert_eq!(NodeKind::VRpi.to_string(), "vRPi");
    }

    #[test]
    #[should_panic(expected = "CPU capacity")]
    fn zero_cpu_rejected() {
        let _ = Node::new(NodeId(0), NodeKind::VRpi, 0, 1);
    }
}
