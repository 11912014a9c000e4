//! Throughput accounting and SLO audits.
//!
//! "Meeting the processing throughput requirement in FPS is an important
//! SLO" (paper §2): if completions lag arrivals, queued frames eventually
//! blow the per-frame latency bound. A [`ThroughputAudit`] counts emitted
//! and completed frames for one camera stream and judges whether the stream
//! held its target frame rate.
//!
//! # Examples
//!
//! ```
//! use microedge_metrics::throughput::ThroughputAudit;
//! use microedge_sim::time::SimTime;
//!
//! let mut audit = ThroughputAudit::new(15.0);
//! for k in 0..30u64 {
//!     let t = SimTime::from_millis(k * 67);
//!     audit.frame_emitted(t);
//!     audit.frame_completed(t);
//! }
//! let report = audit.report("camera-0", SimTime::from_secs(2));
//! assert!(report.met_fps());
//! ```

use serde::{Deserialize, Serialize};

use microedge_sim::time::SimTime;

/// Fractional shortfall tolerated before an SLO is declared violated.
///
/// Completions trail arrivals by the in-flight frame, so even a perfectly
/// keeping-up stream measures marginally below its nominal rate over a
/// finite window; 2 % absorbs that edge effect without masking real
/// backlog growth.
pub const FPS_TOLERANCE: f64 = 0.02;

/// Counts frames for one camera stream.
///
/// The audit is nameless — the owning runtime already stores the stream's
/// name, and duplicating it here would cost one heap `String` per stream
/// at 100k-stream scale. The name is supplied at [`ThroughputAudit::report`]
/// time instead.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputAudit {
    target_fps: f64,
    emitted: u64,
    completed: u64,
    /// Meaningful once `emitted > 0`, and `last_complete` once
    /// `completed > 0`: the counts stand in for an `Option` tag, which
    /// would double each field (one audit per stream at 100k streams).
    first_emit: SimTime,
    last_complete: SimTime,
}

impl ThroughputAudit {
    /// Creates an audit with the given target frame rate.
    ///
    /// # Panics
    ///
    /// Panics if `target_fps` is not strictly positive.
    #[must_use]
    pub fn new(target_fps: f64) -> Self {
        assert!(
            target_fps.is_finite() && target_fps > 0.0,
            "target FPS must be positive, got {target_fps}"
        );
        ThroughputAudit {
            target_fps,
            emitted: 0,
            completed: 0,
            first_emit: SimTime::ZERO,
            last_complete: SimTime::ZERO,
        }
    }

    /// Target frame rate.
    #[must_use]
    pub fn target_fps(&self) -> f64 {
        self.target_fps
    }

    /// Records a frame entering the pipeline at `now`.
    pub fn frame_emitted(&mut self, now: SimTime) {
        if self.emitted == 0 {
            self.first_emit = now;
        }
        self.emitted += 1;
    }

    /// Records a frame finishing the pipeline at `now`.
    ///
    /// Completions may be reported out of time order (the simulator records
    /// a completion the moment its timing is decided); the audit keeps the
    /// latest completion instant regardless of reporting order.
    ///
    /// # Panics
    ///
    /// Panics if more frames complete than were emitted.
    pub fn frame_completed(&mut self, now: SimTime) {
        assert!(self.completed < self.emitted, "completion without emission");
        self.last_complete = if self.completed == 0 {
            now
        } else {
            self.last_complete.max(now)
        };
        self.completed += 1;
    }

    /// Frames emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Frames completed so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Frames still in flight.
    #[must_use]
    pub fn backlog(&self) -> u64 {
        self.emitted - self.completed
    }

    /// Produces the final report for `stream`, for a run ending at `end`.
    ///
    /// For a fully drained stream (every emitted frame completed) the
    /// observation window closes at the last completion rather than at
    /// `end`, so a frame-limited stream that finished early is judged over
    /// its active period only. A stream with backlog is always judged over
    /// the full window — falling behind must not flatter the rate.
    #[must_use]
    pub fn report(&self, stream: &str, end: SimTime) -> SloReport {
        let effective_end = if self.completed > 0 && self.completed == self.emitted {
            self.last_complete.min(end)
        } else {
            end
        };
        let window = if self.emitted > 0 {
            effective_end
                .saturating_since(self.first_emit)
                .as_secs_f64()
        } else {
            0.0
        };
        let achieved = if window > 0.0 {
            self.completed as f64 / window
        } else {
            0.0
        };
        SloReport {
            stream: stream.to_owned(),
            target_fps: self.target_fps,
            achieved_fps: achieved,
            emitted: self.emitted,
            completed: self.completed,
        }
    }
}

/// The outcome of one stream's throughput audit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    stream: String,
    target_fps: f64,
    achieved_fps: f64,
    emitted: u64,
    completed: u64,
}

impl SloReport {
    /// Stream name.
    #[must_use]
    pub fn stream(&self) -> &str {
        &self.stream
    }

    /// Target frame rate.
    #[must_use]
    pub fn target_fps(&self) -> f64 {
        self.target_fps
    }

    /// Measured completion rate over the observation window.
    #[must_use]
    pub fn achieved_fps(&self) -> f64 {
        self.achieved_fps
    }

    /// Frames emitted during the run.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Frames completed during the run.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// `true` when the achieved rate is within [`FPS_TOLERANCE`] of target.
    #[must_use]
    pub fn met_fps(&self) -> bool {
        self.achieved_fps >= self.target_fps * (1.0 - FPS_TOLERANCE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeping_up_meets_slo() {
        let mut a = ThroughputAudit::new(10.0);
        for k in 0..100u64 {
            let t = SimTime::from_millis(k * 100);
            a.frame_emitted(t);
            a.frame_completed(t + microedge_sim::time::SimDuration::from_millis(30));
        }
        let r = a.report("s", SimTime::from_secs(10));
        assert!(r.met_fps(), "achieved {}", r.achieved_fps());
        assert_eq!(r.emitted(), 100);
        assert_eq!(r.completed(), 100);
    }

    #[test]
    fn falling_behind_violates_slo() {
        let mut a = ThroughputAudit::new(10.0);
        for k in 0..100u64 {
            a.frame_emitted(SimTime::from_millis(k * 100));
        }
        // Only half the frames ever complete.
        for k in 0..50u64 {
            a.frame_completed(SimTime::from_millis(k * 200));
        }
        let r = a.report("s", SimTime::from_secs(10));
        assert!(!r.met_fps());
        assert_eq!(a.backlog(), 50);
    }

    #[test]
    fn empty_stream_reports_zero() {
        let a = ThroughputAudit::new(15.0);
        let r = a.report("s", SimTime::from_secs(1));
        assert_eq!(r.achieved_fps(), 0.0);
        assert!(!r.met_fps());
    }

    #[test]
    fn window_starts_at_first_emission() {
        let mut a = ThroughputAudit::new(10.0);
        // Stream starts 5 s into the run; rate must be judged from there.
        for k in 0..50u64 {
            let t = SimTime::from_millis(5000 + k * 100);
            a.frame_emitted(t);
            a.frame_completed(t);
        }
        let r = a.report("s", SimTime::from_secs(10));
        assert!(r.met_fps(), "achieved {}", r.achieved_fps());
    }

    #[test]
    #[should_panic(expected = "completion without emission")]
    fn overcompletion_panics() {
        let mut a = ThroughputAudit::new(1.0);
        a.frame_completed(SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_target_rejected() {
        let _ = ThroughputAudit::new(0.0);
    }

    #[test]
    fn accessors() {
        let a = ThroughputAudit::new(15.0);
        assert_eq!(a.target_fps(), 15.0);
        assert_eq!(a.emitted(), 0);
        assert_eq!(a.completed(), 0);
    }
}
