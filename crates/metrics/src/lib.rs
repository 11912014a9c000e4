#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap
    )
)]

//! # microedge-metrics — evaluation metrics
//!
//! The quantities the paper's evaluation reports, collected live from the
//! simulation:
//!
//! - [`utilization`] — TPU busy-time accounting, overall and per window
//!   (Fig. 5b/5d, Fig. 6a);
//! - [`latency`] — four-phase per-request breakdowns (Fig. 7b);
//! - [`throughput`] — frame accounting and FPS SLO audits (§6.2);
//! - [`recovery`] — failure-recovery latency breakdowns and per-stream
//!   availability under the chaos subsystem;
//! - [`defrag`] — online-defragmentation counters (moves, recovered
//!   contiguous capacity, modeled migration disruption, per-reason skip
//!   counts) and the packing-efficiency / fragmentation gauges;
//! - [`net`] — per-QoS-class message-delivery ledgers (conservation law
//!   `delivered + dropped + gave_up == sent`) and heartbeat
//!   false-positive counters for the lossy-transport layer;
//! - [`report`] — aligned text tables for the benchmark harness.
//!
//! # Examples
//!
//! ```
//! use microedge_metrics::utilization::BusyTracker;
//! use microedge_sim::time::{SimDuration, SimTime};
//!
//! let mut tpu = BusyTracker::new(SimDuration::from_secs(60));
//! tpu.begin_busy(SimTime::ZERO);
//! tpu.end_busy(SimTime::from_millis(233));
//! // One 23.3 ms invoke per 66.7 ms frame — 0.35 TPU units.
//! let u = tpu.utilization(SimTime::from_millis(667));
//! assert!((u - 0.35).abs() < 0.01);
//! ```

pub mod defrag;
pub mod latency;
pub mod net;
pub mod recovery;
pub mod report;
pub mod throughput;
pub mod utilization;

pub use defrag::{fragmentation_ratio, packing_efficiency, DefragStats};
pub use latency::{BreakdownRecorder, LatencyBreakdown, Phase};
pub use net::{ChannelStats, DetectionStats, NetStats};
pub use recovery::{
    availability_nines, AvailabilityTracker, RecoveryBreakdown, RecoveryPhase, RecoveryRecorder,
    StreamAvailability,
};
pub use report::Table;
pub use throughput::{SloReport, ThroughputAudit};
pub use utilization::{BusyTracker, FleetUtilization};
