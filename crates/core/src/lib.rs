#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]

//! # microedge-core — the MicroEdge system
//!
//! The paper's primary contribution: multi-tenant fractional sharing of
//! Coral TPUs in a K3s-orchestrated edge cluster.
//!
//! **Control plane** (paper §4):
//! - [`units`] — the *TPU units* resource metric, in exact fixed point;
//! - [`pool`] — scheduler-side TPU fleet state with per-model reference
//!   counts and lazy reclamation;
//! - [`admission`] — Algorithm 1: First-Fit admission control with and
//!   without fine-grained workload partitioning (plus Best/Worst/Next-Fit
//!   for the packing ablation);
//! - [`scheduler`] — the extended scheduler: deploy, teardown, reclamation
//!   polling, and TPU failure recovery;
//! - [`config`] — feature flags (workload partitioning, co-compiling) and
//!   the calibrated data-plane cost model;
//! - [`defrag`] — the online defragmenter: swap-cost-budgeted live
//!   repacking of fragmented TPU pools at epoch barriers, pricing each
//!   move with the real parameter-swap and co-compile transition costs;
//! - [`faults`] — deterministic fault injection (MTBF/MTTR schedules,
//!   scripted traces), the heartbeat/lease failure detector, and the
//!   self-healing / graceful-degradation policies.
//!
//! **Data plane** (paper §5):
//! - [`lbs`] — the per-pod load-balancing service (smooth weighted round
//!   robin with WFQ spread);
//! - [`runtime`] — the discrete-event world: TPU Services (FIFO,
//!   run-to-completion), TPU Clients (pre-process → transmit → invoke →
//!   post-process), live stream admission/removal, and metric collection;
//! - [`shard`] — sharded single-replay parallelism: per-cluster `World`
//!   shards advanced in deterministic epochs with barrier-exchanged
//!   cross-shard traffic, bit-identical at any worker count;
//! - [`net`] — the deterministic lossy-transport layer cross-shard
//!   traffic rides: per-link healthy/degraded/partitioned state machines,
//!   seeded per-message loss/jitter/reorder draws, and three QoS classes
//!   (acked control with retransmit budgets, unacked heartbeats feeding
//!   the lease detector, best-effort telemetry).
//!
//! **Fleet tier**:
//! - [`fleet`] — the federated front door: per-cluster capacity summaries
//!   fed from each shard's indexed pool, re-indexed by a fleet-level
//!   segment tree for O(log C) locality-aware stream→cluster placement,
//!   with the linear fleet scan preserved as a differential oracle.
//!
//! # Examples
//!
//! Deploy three Coral-Pie cameras that share one TPU (each needs 0.35 TPU
//! units, so two fit whole and the admission of a third is refused without
//! a second TPU):
//!
//! ```
//! use microedge_cluster::topology::ClusterBuilder;
//! use microedge_core::config::Features;
//! use microedge_core::runtime::{StreamSpec, World};
//!
//! let cluster = ClusterBuilder::new().trpis(1).vrpis(2).build();
//! let mut world = World::new(cluster, Features::all());
//! assert!(world.admit_stream(StreamSpec::builder("cam-0", "ssd-mobilenet-v2").build()).is_ok());
//! assert!(world.admit_stream(StreamSpec::builder("cam-1", "ssd-mobilenet-v2").build()).is_ok());
//! assert!(world.admit_stream(StreamSpec::builder("cam-2", "ssd-mobilenet-v2").build()).is_err());
//! ```

pub mod admission;
pub mod client;
pub mod config;
pub mod defrag;
pub mod faults;
pub mod fleet;
pub mod lbs;
pub mod net;
pub mod pool;
pub mod runtime;
pub mod scheduler;
pub mod shard;
pub mod units;

pub use admission::{AdmissionPolicy, BestFit, FirstFit, NextFit, NextKFit, WorstFit};
pub use client::{SourceResolution, TpuClientModel};
pub use config::{DataPlaneConfig, Features};
pub use defrag::{DefragConfig, ExecutedMove};
pub use faults::{
    ChaosConfig, ClassRates, DegradePolicy, DetectionModel, FaultEvent, FaultKind, FaultModel,
    FaultSchedule, HealPolicy,
};
pub use fleet::{
    ClusterId, ClusterSummary, FleetTopology, FrontDoor, HealthTier, Placement, PlacementStats,
    ProbeKind, StreamDemand,
};
pub use lbs::LbService;
pub use net::{
    DegradedLink, LinkChaosModel, LinkSchedule, LinkState, NetConfig, NetError, NetReport,
    QosClass, RetransmitPolicy, Transport,
};
pub use pool::{render_pool, Allocation, PoolCapacity, TpuAccount, TpuPool};
pub use runtime::{
    FrameExport, RunResults, StreamId, StreamSpec, World, WorldCommand, METRIC_WINDOW,
};
pub use scheduler::{
    DeployError, Deployment, EvictPlan, ExtendedScheduler, FailureRecovery, PodMove, RecoveredPod,
    StageGrant, StagePlacement, TpuRequest,
};
pub use shard::{FleetReport, GlobalStreamId, ShardedWorld};
pub use units::TpuUnits;
