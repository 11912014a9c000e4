#![warn(missing_docs)]

//! # MicroEdge — a multi-tenant edge cluster for scalable camera processing
//!
//! A complete Rust reproduction of *MicroEdge: A Multi-Tenant Edge Cluster
//! System Architecture for Scalable Camera Processing* (Middleware '22):
//! fractional sharing of Coral Edge TPUs across camera-processing pods in a
//! K3s-like orchestrated cluster, via deployment-time admission control
//! over a new resource metric — **TPU units** — plus fine-grained workload
//! partitioning and model co-compilation.
//!
//! This facade crate re-exports the workspace:
//!
//! - [`core`](mod@core) — the MicroEdge system itself (extended scheduler,
//!   admission control, LBS, TPU Service/Client data plane, simulation
//!   world);
//! - [`sim`] — the deterministic discrete-event kernel;
//! - [`models`] — ML model profiles and the built-in catalog;
//! - [`cluster`] — nodes, network, and cost models;
//! - [`tpu`] — the Coral TPU device model (memory, co-compiler, executor);
//! - [`orch`] — the K3s-like orchestrator substrate;
//! - [`metrics`] — utilization, latency, throughput collection;
//! - [`workloads`] — applications, camera fleets, datasets, traces;
//! - [`baselines`] — the dedicated bare-metal and serverless comparators;
//! - [`bench`](mod@bench) — experiment runners regenerating every paper
//!   artifact.
//!
//! # Quickstart
//!
//! ```
//! use microedge::cluster::topology::ClusterBuilder;
//! use microedge::core::config::Features;
//! use microedge::core::runtime::{StreamSpec, World};
//! use microedge::sim::time::SimTime;
//!
//! // A small cluster: two TPU-endowed RPis, four vanilla RPis.
//! let cluster = ClusterBuilder::new().trpis(2).vrpis(4).build();
//! let mut world = World::new(cluster, Features::all());
//!
//! // Five 0.35-unit cameras fit on two TPUs only with fractional sharing.
//! for i in 0..5 {
//!     let spec = StreamSpec::builder(&format!("cam-{i}"), "ssd-mobilenet-v2")
//!         .frame_limit(100)
//!         .build();
//!     world.admit_stream(spec)?;
//! }
//! let results = world.run_to_completion(SimTime::from_secs(60));
//! assert!(results.all_met_fps());
//! # Ok::<(), microedge::core::scheduler::DeployError>(())
//! ```

pub use microedge_baselines as baselines;
pub use microedge_bench as bench;
pub use microedge_cluster as cluster;
pub use microedge_core as core;
pub use microedge_metrics as metrics;
pub use microedge_models as models;
pub use microedge_orch as orch;
pub use microedge_sim as sim;
pub use microedge_tpu as tpu;
pub use microedge_workloads as workloads;
