//! Windowed time series for per-interval aggregates.
//!
//! The trace study (paper Fig. 6) reports per-minute averages of quantities
//! that evolve continuously (TPU utilization, cameras served).
//! [`StepSeries`] integrates a piecewise-constant signal exactly, which is
//! what "average utilization per minute" requires.
//!
//! # Examples
//!
//! ```
//! use microedge_sim::series::StepSeries;
//! use microedge_sim::time::{SimDuration, SimTime};
//!
//! let mut s = StepSeries::new(SimDuration::from_secs(60));
//! s.set(SimTime::ZERO, 0.5);
//! s.set(SimTime::from_secs(30), 1.0);
//! let buckets = s.finish(SimTime::from_secs(60));
//! assert_eq!(buckets.len(), 1);
//! assert!((buckets[0] - 0.75).abs() < 1e-9);
//! ```

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// Exact time-weighted averages of a piecewise-constant signal, per window.
///
/// Call [`StepSeries::set`] whenever the signal changes level; call
/// [`StepSeries::finish`] once at the end to flush and obtain the per-window
/// averages.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StepSeries {
    window: SimDuration,
    /// Integral of the signal (value × nanoseconds) per window.
    integrals: Vec<f64>,
    last_time: SimTime,
    last_value: f64,
    /// Index of the window containing `last_time`.
    ///
    /// Cached together with `window_end` so the hot path — many updates
    /// inside one window — runs without any division; divisions only
    /// happen implicitly via the +1 advance on a window crossing.
    window_idx: usize,
    /// Exclusive end (nanoseconds) of the window at `window_idx`.
    window_end: u64,
}

impl StepSeries {
    /// Creates a series with the given window; the signal starts at 0.0 at
    /// time zero.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "bucket window must be non-zero");
        StepSeries {
            window_end: window.as_nanos(),
            window,
            integrals: Vec::new(),
            last_time: SimTime::ZERO,
            last_value: 0.0,
            window_idx: 0,
        }
    }

    /// Current signal level.
    #[must_use]
    pub fn current(&self) -> f64 {
        self.last_value
    }

    /// Sets the signal to `value` from `time` onwards.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the previous change (the signal is a
    /// function of time).
    pub fn set(&mut self, time: SimTime, value: f64) {
        assert!(
            time >= self.last_time,
            "signal updates must be time-ordered: {time} < {last}",
            last = self.last_time
        );
        self.integrate_to(time);
        self.last_time = time;
        self.last_value = value;
    }

    /// Adds `delta` to the signal from `time` onwards.
    pub fn add(&mut self, time: SimTime, delta: f64) {
        let next = self.last_value + delta;
        self.set(time, next);
    }

    /// Flushes the signal up to `end` and returns per-window time-weighted
    /// averages. Windows are complete `[k·w, (k+1)·w)` intervals; a trailing
    /// partial window is averaged over the elapsed portion only.
    ///
    /// # Panics
    ///
    /// Panics if `end` precedes the last update.
    #[must_use]
    pub fn finish(mut self, end: SimTime) -> Vec<f64> {
        assert!(
            end >= self.last_time,
            "end {end} precedes last update {last}",
            last = self.last_time
        );
        self.integrate_to(end);
        let w = self.window.as_nanos() as f64;
        let full = usize::try_from(end.as_nanos() / self.window.as_nanos())
            .expect("window index fits usize");
        let rem = end.as_nanos() % self.window.as_nanos();
        self.integrals
            .iter()
            .enumerate()
            .map(|(i, &integral)| {
                let width = if i < full { w } else { rem as f64 };
                if width == 0.0 {
                    0.0
                } else {
                    integral / width
                }
            })
            .collect()
    }

    fn integrate_to(&mut self, time: SimTime) {
        let mut cursor = self.last_time.as_nanos();
        let end = time.as_nanos();
        if end <= cursor {
            // Nothing elapsed; the previous call already materialised every
            // window up to `end`.
            return;
        }
        let w = self.window.as_nanos();
        loop {
            let upto = self.window_end.min(end);
            if self.window_idx >= self.integrals.len() {
                self.integrals.resize(self.window_idx + 1, 0.0);
            }
            self.integrals[self.window_idx] += self.last_value * (upto - cursor) as f64;
            cursor = upto;
            if cursor == self.window_end {
                self.window_idx += 1;
                self.window_end += w;
            }
            if cursor == end {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn step_series_constant_signal() {
        let mut s = StepSeries::new(SimDuration::from_secs(60));
        s.set(SimTime::ZERO, 0.4);
        let buckets = s.finish(secs(180));
        assert_eq!(buckets.len(), 3);
        for b in buckets {
            assert!((b - 0.4).abs() < 1e-12);
        }
    }

    #[test]
    fn step_series_mid_window_change() {
        let mut s = StepSeries::new(SimDuration::from_secs(60));
        s.set(SimTime::ZERO, 0.0);
        s.set(secs(30), 1.0);
        let buckets = s.finish(secs(60));
        assert_eq!(buckets.len(), 1);
        assert!((buckets[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn step_series_spanning_windows() {
        let mut s = StepSeries::new(SimDuration::from_secs(10));
        s.set(SimTime::ZERO, 2.0);
        s.set(secs(25), 0.0);
        let buckets = s.finish(secs(40));
        assert_eq!(buckets.len(), 4);
        assert!((buckets[0] - 2.0).abs() < 1e-12);
        assert!((buckets[1] - 2.0).abs() < 1e-12);
        assert!((buckets[2] - 1.0).abs() < 1e-12);
        assert!((buckets[3] - 0.0).abs() < 1e-12);
    }

    #[test]
    fn step_series_add_is_relative() {
        let mut s = StepSeries::new(SimDuration::from_secs(10));
        s.add(SimTime::ZERO, 1.0);
        s.add(secs(5), 1.0);
        assert_eq!(s.current(), 2.0);
        let buckets = s.finish(secs(10));
        assert!((buckets[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn step_series_partial_trailing_window() {
        let mut s = StepSeries::new(SimDuration::from_secs(10));
        s.set(SimTime::ZERO, 1.0);
        let buckets = s.finish(secs(15));
        assert_eq!(buckets.len(), 2);
        assert!((buckets[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn step_series_rejects_backwards_updates() {
        let mut s = StepSeries::new(SimDuration::from_secs(10));
        s.set(secs(5), 1.0);
        s.set(secs(1), 2.0);
    }
}
