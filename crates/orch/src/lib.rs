#![warn(missing_docs)]

//! # microedge-orch — K3s-like orchestrator substrate
//!
//! The container-orchestration layer MicroEdge extends (paper §2): pod
//! specs with labels, anti-affinity and free-form extensions; a YAML-subset
//! request parser; the default CPU/memory scheduler that produces the
//! candidate-node list; pod lifecycle with resource accounting; and the
//! control-plane latency model behind Fig. 7a.
//!
//! - [`pod`] — [`pod::PodSpec`], requests, phases, extension keys;
//! - [`spec`] — [`spec::parse_pod_spec`] for client Yaml files;
//! - [`scheduler`] — [`scheduler::DefaultScheduler`] (filter + score);
//! - [`state`] — per-node allocation bookkeeping;
//! - [`lifecycle`] — [`lifecycle::Orchestrator`], create/delete/reclaim;
//! - [`control_latency`] — pod-launch latency distribution.
//!
//! # Examples
//!
//! ```
//! use microedge_cluster::topology::Cluster;
//! use microedge_orch::lifecycle::Orchestrator;
//! use microedge_orch::spec::parse_pod_spec;
//!
//! let mut orch = Orchestrator::new(Cluster::microedge_default());
//! let spec = parse_pod_spec("name: cam\nimage: app:v1\n")?;
//! let pod = orch.create_pod(spec)?;
//! orch.delete_pod(pod)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod control_latency;
pub mod lifecycle;
pub mod pod;
pub mod scheduler;
pub mod spec;
pub mod state;

pub use control_latency::ControlPlaneModel;
pub use lifecycle::{OrchError, Orchestrator};
pub use pod::{PodId, PodPhase, PodSpec, ResourceRequest, EXT_MODEL, EXT_TPU_UNITS};
pub use scheduler::DefaultScheduler;
pub use spec::{parse_pod_spec, parse_pod_specs, ParseSpecError};
pub use state::ClusterState;
