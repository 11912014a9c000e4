#![warn(missing_docs)]

//! # microedge-baselines — the comparators from the paper's evaluation
//!
//! - [`dedicated`] — the bare-metal baseline: every camera gets ⌈units⌉
//!   exclusive TPUs, expressed as an admission policy so it drives the same
//!   data plane as MicroEdge (paper §6.2);
//! - [`serverless`] — the per-model shared-queue design the paper argues
//!   against, as an analytic per-invoke path model (paper §2, §6.4.2).
//!
//! # Examples
//!
//! ```
//! use microedge_baselines::dedicated::DedicatedBaseline;
//! use microedge_core::admission::AdmissionPolicy;
//!
//! let mut policy = DedicatedBaseline::new();
//! assert_eq!(policy.name(), "dedicated-baseline");
//! ```

pub mod dedicated;
pub mod serverless;

pub use dedicated::DedicatedBaseline;
pub use serverless::{baremetal_invoke_breakdown, microedge_invoke_breakdown, ServerlessPath};
