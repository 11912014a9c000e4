#![warn(missing_docs)]

//! # microedge-cluster — edge cluster hardware substrate
//!
//! Models the physical base of the paper's MicroEdge installation: Raspberry
//! Pi 4 nodes (with or without a Coral TPU), a calibrated interconnect, and
//! the cost-of-ownership model behind Table 1.
//!
//! - [`node`] — node inventory, kinds, labels, and selector matching;
//! - [`topology`] — clusters and the [`topology::ClusterBuilder`];
//! - [`network`] — per-message transfer-latency model;
//! - [`cost`] — hardware pricing (Table 1).
//!
//! # Examples
//!
//! ```
//! use microedge_cluster::topology::Cluster;
//!
//! let cluster = Cluster::microedge_default();
//! let frame = 300 * 300 * 3;
//! let hop = cluster.network().transfer_time(frame);
//! assert!(hop.as_millis_f64() < 10.0);
//! ```

pub mod cost;
pub mod network;
pub mod node;
pub mod topology;

pub use cost::CostModel;
pub use network::NetworkModel;
pub use node::{Node, NodeId, NodeKind};
pub use topology::{Cluster, ClusterBuilder};
