#![warn(missing_docs)]

//! # microedge-tpu — Coral Edge TPU device model
//!
//! Reproduces the hardware properties the MicroEdge design is built around:
//!
//! - [`spec`] — on-chip parameter budget (≈ 6.9 MiB) and host-transfer
//!   bandwidth;
//! - [`cocompile`] — the co-compiler: priority-ordered packing of several
//!   models into one TPU's parameter memory, with partial caching when the
//!   budget overflows;
//! - [`device`] — the sequential run-to-completion execution engine with
//!   swap and parameter-streaming penalties.
//!
//! # Examples
//!
//! ```
//! use microedge_models::catalog::{mobilenet_v1, unet_v2};
//! use microedge_tpu::{CoCompiler, TpuDevice, TpuSpec};
//!
//! let spec = TpuSpec::coral_usb();
//! let plan = CoCompiler::new(spec).plan(&[mobilenet_v1(), unet_v2()])?;
//! let mut tpu = TpuDevice::new(spec);
//! tpu.load_plan(plan);
//! // Both models are resident: alternating between them never swaps.
//! assert!(!tpu.invoke(&mobilenet_v1()).swapped());
//! assert!(!tpu.invoke(&unet_v2()).swapped());
//! # Ok::<(), microedge_tpu::CoCompileError>(())
//! ```

pub mod cocompile;
pub mod device;
pub mod spec;

pub use cocompile::{CacheAllocation, CachePlan, CoCompileError, CoCompiler};
pub use device::{DeviceStats, InvokeOutcome, TpuDevice, TpuId};
pub use spec::TpuSpec;
