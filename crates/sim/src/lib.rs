#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # microedge-sim — deterministic discrete-event simulation kernel
//!
//! The foundation every other crate in the MicroEdge reproduction builds on:
//!
//! - [`time`] — integer-nanosecond virtual time ([`SimTime`], [`SimDuration`]);
//! - [`event`] — a deterministic future-event list ([`EventQueue`]): a
//!   monotone radix heap with stable `(time, insertion)` ordering;
//! - [`rng`] — seeded random generation with the distribution samplers the
//!   workload models need ([`DetRng`]);
//! - [`stats`] — online moments, exact-percentile histograms (the
//!   differential oracle), and the constant-memory mergeable
//!   [`stats::LogLinearSketch`] production telemetry runs on;
//! - [`series`] — windowed aggregation, including exact time-weighted
//!   averages of piecewise-constant signals (per-minute utilization);
//! - [`inline`] — a list that stores its one-element case in place
//!   ([`inline::Inline`]), for the data plane's usually-singleton lists;
//! - [`par`] — a deterministic input-order-preserving parallel map used by
//!   the bench sweeps and the sharded replay's epoch stepping.
//!
//! Every simulation is fully reproducible: a given seed always produces the
//! same replay, bit for bit, at any worker count.
//!
//! # Examples
//!
//! A tiny M/D/1-style simulation — periodic arrivals into a server with a
//! fixed service time:
//!
//! ```
//! use microedge_sim::event::EventQueue;
//! use microedge_sim::time::{SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Arrival(u32), Departure(u32) }
//!
//! let service = SimDuration::from_millis(30);
//! let period = SimDuration::from_millis(50);
//! let mut q = EventQueue::new();
//! for i in 0..3 {
//!     q.schedule_at(SimTime::ZERO + period * u64::from(i), Ev::Arrival(i));
//! }
//! let mut busy_until = SimTime::ZERO;
//! let mut completed = 0;
//! while let Some((now, ev)) = q.pop() {
//!     match ev {
//!         Ev::Arrival(i) => {
//!             let start = busy_until.max(now);
//!             busy_until = start + service;
//!             q.schedule_at(busy_until, Ev::Departure(i));
//!         }
//!         Ev::Departure(_) => completed += 1,
//!     }
//! }
//! assert_eq!(completed, 3);
//! ```

pub mod event;
pub mod inline;
pub mod par;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use rng::DetRng;
pub use series::{StepSeries, TimeSeries};
pub use stats::{Histogram, OnlineStats};
pub use time::{SimDuration, SimTime};
