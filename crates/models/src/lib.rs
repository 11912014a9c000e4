#![warn(missing_docs)]

//! # microedge-models — ML model profiles for the MicroEdge reproduction
//!
//! MicroEdge treats a model as a `(inference time, parameter size, input
//! resolution)` triple obtained by offline profiling (paper §4.1). This crate
//! defines the [`profile::ModelProfile`] type and a built-in
//! [`catalog::Catalog`] reproducing the paper's Fig. 1 models and the
//! application models used in the evaluation (Coral-Pie's SSD MobileNet V2,
//! BodyPix MobileNet V1, MobileNet V1, UNet V2).
//!
//! # Examples
//!
//! ```
//! use microedge_models::catalog::Catalog;
//!
//! let catalog = Catalog::builtin();
//! // The paper's Fig. 1 headline: most models need an impractical frame
//! // rate to saturate a dedicated TPU.
//! let cheap = catalog
//!     .iter()
//!     .filter(|m| m.fps_for_full_utilization() > 50.0)
//!     .count();
//! assert!(cheap >= 5);
//! ```

pub mod catalog;
pub mod profile;

pub use catalog::Catalog;
pub use profile::{ModelId, ModelKind, ModelProfile};
