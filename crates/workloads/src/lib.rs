#![warn(missing_docs)]

//! # microedge-workloads — camera workloads for the evaluation
//!
//! Everything the paper's experiments feed into the cluster:
//!
//! - [`apps`] — the evaluation applications (Coral-Pie, BodyPix, the three
//!   trace-study apps) and the NoScope-style difference detector;
//! - [`camera`] — fleet builders turning an app template into staggered
//!   stream specs;
//! - [`dataset`] — synthetic stand-ins for the campus security video and
//!   3DPeople images, including a seeded vehicle-visit generator;
//! - [`trace`] — the Azure-Functions-style trace synthesiser (steady /
//!   sparse / bursty invocation classes, optional diurnal cycle);
//! - [`coralpie`] — the Coral-Pie application layer: camera graphs,
//!   upstream-notification re-identification, and space-time tracks.
//!
//! # Examples
//!
//! ```
//! use microedge_workloads::apps::CameraApp;
//! use microedge_workloads::camera::camera_fleet;
//!
//! let fleet = camera_fleet(&CameraApp::coral_pie(), 17, 1000, false);
//! assert_eq!(fleet.len(), 17);
//! ```

pub mod apps;
pub mod camera;
pub mod coralpie;
pub mod dataset;
pub mod trace;

pub use apps::{CameraApp, DiffDetector, STANDARD_FPS};
pub use camera::{camera_fleet, camera_instance, filtered_instance, open_stream};
pub use coralpie::{CameraGraph, CameraId, Observation, SpaceTimeTrack, TrackBuilder};
pub use dataset::{campus_vehicle_visits, time_shifted, VehicleVisit, VideoSegment};
pub use trace::{synthesize, TraceClass, TraceConfig, TraceEvent};
