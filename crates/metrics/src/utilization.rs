//! TPU busy-time accounting.
//!
//! Utilization is the paper's headline metric: the fraction of wall-clock
//! time a TPU spends executing inference requests. A [`BusyTracker`] records
//! busy intervals as they happen and can answer both "total utilization over
//! the run" (Fig. 5b/5d) and "average utilization per minute" (Fig. 6a).
//!
//! # Examples
//!
//! ```
//! use microedge_metrics::utilization::BusyTracker;
//! use microedge_sim::time::{SimDuration, SimTime};
//!
//! let mut t = BusyTracker::new(SimDuration::from_secs(60));
//! t.begin_busy(SimTime::from_millis(0));
//! t.end_busy(SimTime::from_millis(350));
//! let u = t.utilization(SimTime::from_millis(1000));
//! assert!((u - 0.35).abs() < 1e-9);
//! ```

use microedge_sim::series::StepSeries;
use microedge_sim::time::{SimDuration, SimTime};

/// Tracks the busy/idle state of one device over simulated time.
#[derive(Debug, Clone)]
pub struct BusyTracker {
    series: StepSeries,
    busy_since: Option<SimTime>,
    total_busy: SimDuration,
}

impl BusyTracker {
    /// Creates an idle tracker whose windowed view uses `window`-wide
    /// buckets.
    #[must_use]
    pub fn new(window: SimDuration) -> Self {
        BusyTracker {
            series: StepSeries::new(window),
            busy_since: None,
            total_busy: SimDuration::ZERO,
        }
    }

    /// Marks the device busy from `now`.
    ///
    /// # Panics
    ///
    /// Panics if the device is already busy — TPUs execute run-to-completion,
    /// so overlapping busy intervals indicate a scheduling bug.
    pub fn begin_busy(&mut self, now: SimTime) {
        assert!(
            self.busy_since.is_none(),
            "device marked busy while already busy at {now}"
        );
        self.busy_since = Some(now);
        self.series.set(now, 1.0);
    }

    /// Marks the device idle from `now`.
    ///
    /// # Panics
    ///
    /// Panics if the device was not busy, or if `now` precedes the busy
    /// start.
    pub fn end_busy(&mut self, now: SimTime) {
        let since = self
            .busy_since
            .take()
            .expect("device marked idle while not busy");
        self.total_busy += now.saturating_since(since);
        self.series.set(now, 0.0);
    }

    /// Cumulative busy time of *completed* intervals.
    #[must_use]
    pub fn total_busy(&self) -> SimDuration {
        self.total_busy
    }

    /// Overall utilization in `[0, 1]` over `[0, end]`, including any busy
    /// interval still open at `end`.
    #[must_use]
    pub fn utilization(&self, end: SimTime) -> f64 {
        let open = self
            .busy_since
            .map_or(SimDuration::ZERO, |s| end.saturating_since(s));
        (self.total_busy + open).ratio(end.saturating_since(SimTime::ZERO))
    }

    /// Per-window time-weighted utilization up to `end` (consumes the
    /// tracker). Each element is in `[0, 1]`.
    #[must_use]
    pub fn into_windows(mut self, end: SimTime) -> Vec<f64> {
        if self.busy_since.is_some() {
            self.end_busy(end);
        }
        self.series.finish(end)
    }
}

/// Utilization across a fleet of devices.
///
/// # Examples
///
/// ```
/// use microedge_metrics::utilization::FleetUtilization;
/// use microedge_sim::time::{SimDuration, SimTime};
///
/// let mut fleet = FleetUtilization::new(2, SimDuration::from_secs(60));
/// fleet.tracker_mut(0).begin_busy(SimTime::ZERO);
/// fleet.tracker_mut(0).end_busy(SimTime::from_secs(30));
/// // One device half busy, one idle: average 25 %.
/// let avg = fleet.average_utilization(SimTime::from_secs(60));
/// assert!((avg - 0.25).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct FleetUtilization {
    trackers: Vec<BusyTracker>,
}

impl FleetUtilization {
    /// Creates trackers for `devices` devices.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero.
    #[must_use]
    pub fn new(devices: usize, window: SimDuration) -> Self {
        assert!(devices > 0, "fleet must contain at least one device");
        FleetUtilization {
            trackers: (0..devices).map(|_| BusyTracker::new(window)).collect(),
        }
    }

    /// Number of devices tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.trackers.len()
    }

    /// `false` — a fleet always has at least one device; provided for
    /// API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trackers.is_empty()
    }

    /// Mutable access to one device's tracker.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn tracker_mut(&mut self, device: usize) -> &mut BusyTracker {
        &mut self.trackers[device]
    }

    /// Shared access to one device's tracker.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    #[must_use]
    pub fn tracker(&self, device: usize) -> &BusyTracker {
        &self.trackers[device]
    }

    /// Mean utilization across all devices over `[0, end]` — the quantity
    /// plotted in the paper's Fig. 5b/5d.
    #[must_use]
    pub fn average_utilization(&self, end: SimTime) -> f64 {
        let sum: f64 = self.trackers.iter().map(|t| t.utilization(end)).sum();
        sum / self.trackers.len() as f64
    }

    /// Per-device utilization over `[0, end]`.
    #[must_use]
    pub fn per_device_utilization(&self, end: SimTime) -> Vec<f64> {
        self.trackers.iter().map(|t| t.utilization(end)).collect()
    }

    /// Per-window fleet-average utilization up to `end` (consumes the
    /// fleet) — the series plotted in the paper's Fig. 6a.
    #[must_use]
    pub fn into_windowed_average(self, end: SimTime) -> Vec<f64> {
        let n = self.trackers.len() as f64;
        let per_device: Vec<Vec<f64>> = self
            .trackers
            .into_iter()
            .map(|t| t.into_windows(end))
            .collect();
        let buckets = per_device.iter().map(Vec::len).max().unwrap_or(0);
        (0..buckets)
            .map(|i| {
                per_device
                    .iter()
                    .map(|d| d.get(i).copied().unwrap_or(0.0))
                    .sum::<f64>()
                    / n
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minute() -> SimDuration {
        SimDuration::from_secs(60)
    }

    #[test]
    fn utilization_counts_open_interval() {
        let mut t = BusyTracker::new(minute());
        t.begin_busy(SimTime::from_secs(0));
        // Still busy at the end of the run.
        assert!((t.utilization(SimTime::from_secs(10)) - 1.0).abs() < 1e-12);
        assert_eq!(t.total_busy(), SimDuration::ZERO);
    }

    #[test]
    fn interleaved_busy_idle() {
        let mut t = BusyTracker::new(minute());
        for k in 0..10u64 {
            t.begin_busy(SimTime::from_millis(k * 100));
            t.end_busy(SimTime::from_millis(k * 100 + 35));
        }
        let u = t.utilization(SimTime::from_millis(1000));
        assert!((u - 0.35).abs() < 1e-9, "got {u}");
        assert_eq!(t.total_busy(), SimDuration::from_millis(350));
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn double_begin_panics() {
        let mut t = BusyTracker::new(minute());
        t.begin_busy(SimTime::ZERO);
        t.begin_busy(SimTime::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "not busy")]
    fn end_without_begin_panics() {
        let mut t = BusyTracker::new(minute());
        t.end_busy(SimTime::from_millis(1));
    }

    #[test]
    fn windowed_view_integrates_correctly() {
        let mut t = BusyTracker::new(SimDuration::from_secs(10));
        // Busy for the entire first window, half the second.
        t.begin_busy(SimTime::ZERO);
        t.end_busy(SimTime::from_secs(15));
        let windows = t.into_windows(SimTime::from_secs(20));
        assert_eq!(windows.len(), 2);
        assert!((windows[0] - 1.0).abs() < 1e-12);
        assert!((windows[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn windowed_view_closes_open_interval() {
        let mut t = BusyTracker::new(SimDuration::from_secs(10));
        t.begin_busy(SimTime::from_secs(5));
        let windows = t.into_windows(SimTime::from_secs(10));
        assert!((windows[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fleet_average_and_per_device() {
        let mut f = FleetUtilization::new(4, minute());
        f.tracker_mut(0).begin_busy(SimTime::ZERO);
        f.tracker_mut(0).end_busy(SimTime::from_secs(60));
        f.tracker_mut(1).begin_busy(SimTime::ZERO);
        f.tracker_mut(1).end_busy(SimTime::from_secs(30));
        let end = SimTime::from_secs(60);
        let per = f.per_device_utilization(end);
        assert_eq!(per.len(), 4);
        assert!((per[0] - 1.0).abs() < 1e-12);
        assert!((per[1] - 0.5).abs() < 1e-12);
        assert!((f.average_utilization(end) - 0.375).abs() < 1e-12);
        assert_eq!(f.len(), 4);
        assert!(!f.is_empty());
    }

    #[test]
    fn fleet_windowed_average() {
        let mut f = FleetUtilization::new(2, SimDuration::from_secs(10));
        f.tracker_mut(0).begin_busy(SimTime::ZERO);
        f.tracker_mut(0).end_busy(SimTime::from_secs(20));
        let series = f.into_windowed_average(SimTime::from_secs(20));
        assert_eq!(series.len(), 2);
        assert!((series[0] - 0.5).abs() < 1e-12);
        assert!((series[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_fleet_rejected() {
        let _ = FleetUtilization::new(0, minute());
    }
}
