//! Online statistics, histograms, and constant-memory quantile sketches.
//!
//! [`OnlineStats`] accumulates count/mean/variance/min/max in O(1) memory
//! (Welford's algorithm). [`Histogram`] keeps every sample and answers
//! exact percentile queries — at production stream counts its O(frames)
//! memory makes it unusable on hot paths, so it survives as the
//! *differential oracle* the sketch is tested against. [`LogLinearSketch`]
//! is the production aggregate: a deterministic, fixed-memory, mergeable
//! log-linear histogram (HDR-style) over integer nanoseconds whose
//! quantiles carry a documented relative-error bound
//! ([`SKETCH_RELATIVE_ERROR`], ≤ 0.79 %).
//!
//! # Examples
//!
//! ```
//! use microedge_sim::stats::OnlineStats;
//!
//! let mut s = OnlineStats::new();
//! for x in [1.0, 2.0, 3.0] {
//!     s.record(x);
//! }
//! assert_eq!(s.mean(), 2.0);
//! assert_eq!(s.count(), 3);
//! ```

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// Streaming count / mean / variance / min / max accumulator.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN; a NaN observation would silently poison
    /// every derived statistic.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "cannot record NaN");
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds a duration observation, in milliseconds.
    pub fn record_duration(&mut self, value: SimDuration) {
        self.record(value.as_millis_f64());
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0.0 with fewer than two observations.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// An exact-percentile histogram that retains all samples.
///
/// # Examples
///
/// ```
/// use microedge_sim::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for x in 1..=100 {
///     h.record(x as f64);
/// }
/// assert_eq!(h.percentile(50.0), Some(50.0));
/// assert_eq!(h.percentile(99.0), Some(99.0));
/// ```
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "cannot record NaN");
        self.sorted = false;
        self.samples.push(value);
    }

    /// Adds a duration observation, in milliseconds.
    pub fn record_duration(&mut self, value: SimDuration) {
        self.record(value.as_millis_f64());
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no observations have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Exact percentile (nearest-rank), or `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            // `total_cmp` instead of `partial_cmp(..).expect(..)`: `record`
            // rejects NaN, but a sample smuggled in through deserialization
            // or a future code path must degrade to a deterministic order,
            // not a panic halfway through an experiment.
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let n = self.samples.len();
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "p is asserted in [0, 100], so the rank lies in [1, n]"
        )]
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        Some(self.samples[rank.min(n) - 1])
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Immutable view of the recorded samples, in insertion order only if no
    /// percentile has been queried yet.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Linear sub-buckets per power-of-two range, as a bit shift. 2⁷ = 128
/// sub-buckets bound the quantile relative error at 2⁻⁷.
const SKETCH_PRECISION_BITS: u32 = 7;

/// Sub-bucket count per octave.
const SKETCH_SUB: u64 = 1 << SKETCH_PRECISION_BITS;

/// Total bucket slots needed to cover the full `u64` nanosecond range:
/// the highest mappable index plus one (see `sketch_bucket` for
/// `u64::MAX`). A [`LogLinearSketch`] never grows beyond this — ≈ 58 KiB
/// of `u64` counts — whatever it records.
#[expect(
    clippy::cast_possible_truncation,
    reason = "const context, where `TryFrom` is not callable; both operands are small constants that fit any usize"
)]
pub const SKETCH_MAX_BUCKETS: usize =
    ((64 - SKETCH_PRECISION_BITS as usize) << SKETCH_PRECISION_BITS) + SKETCH_SUB as usize;

/// The advertised quantile relative-error bound of [`LogLinearSketch`]:
/// any reported percentile `q̂` satisfies `|q̂ - q| ≤ q ·
/// SKETCH_RELATIVE_ERROR` against the exact nearest-rank quantile `q` of
/// the recorded nanosecond values (2⁻⁷ = 0.78125 %).
pub const SKETCH_RELATIVE_ERROR: f64 = 1.0 / SKETCH_SUB as f64;

/// Bucket index of a nanosecond value: values below 2⁷ map exactly, one
/// bucket per nanosecond; above, each power-of-two range splits into 2⁷
/// linear sub-buckets, so bucket width / bucket floor ≤ 2⁻⁷.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "const fn, where `TryFrom` is not callable; v < 2^7 in the first branch and the \
              bucket index is bounded by SKETCH_MAX_BUCKETS in the second, so both fit any usize"
)]
const fn sketch_bucket(v: u64) -> usize {
    if v < SKETCH_SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as u64;
        let offset = msb - SKETCH_PRECISION_BITS as u64;
        (((offset + 1) << SKETCH_PRECISION_BITS) + ((v >> offset) - SKETCH_SUB)) as usize
    }
}

/// Inclusive upper bound of bucket `i` — the value a quantile landing in
/// the bucket reports (clamped to the exact max), mirroring HdrHistogram's
/// "highest equivalent value" convention.
#[inline]
const fn sketch_bucket_high(i: usize) -> u64 {
    let i = i as u64;
    if i < SKETCH_SUB {
        i
    } else {
        let offset = i / SKETCH_SUB - 1;
        let m = i % SKETCH_SUB;
        ((SKETCH_SUB + m) << offset) + ((1 << offset) - 1)
    }
}

/// A deterministic, fixed-memory, mergeable log-linear histogram sketch
/// over integer-nanosecond durations (HDR-style).
///
/// The per-record cost is one bucket increment with zero allocation once
/// the bucket array has grown to the workload's dynamic range — and the
/// array is capped at [`SKETCH_MAX_BUCKETS`] slots (≈ 58 KiB) however many
/// samples are recorded, so telemetry memory is independent of frame
/// count. Exact count, sum, min, and max are retained alongside the
/// buckets; quantiles carry the [`SKETCH_RELATIVE_ERROR`] bound.
///
/// [`LogLinearSketch::merge`] adds another sketch bucket-by-bucket and is
/// exactly equivalent to having recorded the concatenated sample streams,
/// in any merge order — the property that lets sharded workers aggregate
/// without byte-order sensitivity.
///
/// Values are recorded as [`SimDuration`]s (exact) or as `f64`
/// milliseconds (quantized to the nearest nanosecond), and reported in
/// milliseconds, mirroring [`Histogram`]'s reporting units.
///
/// # Examples
///
/// ```
/// use microedge_sim::stats::LogLinearSketch;
/// use microedge_sim::time::SimDuration;
///
/// let mut s = LogLinearSketch::new();
/// for ms in 1..=100u64 {
///     s.record_duration(SimDuration::from_millis(ms));
/// }
/// let p50 = s.percentile(50.0).unwrap();
/// assert!((p50 - 50.0).abs() <= 50.0 * microedge_sim::stats::SKETCH_RELATIVE_ERROR);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogLinearSketch {
    /// Bucket counts, grown lazily to the highest touched bucket.
    counts: Vec<u64>,
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LogLinearSketch {
    /// Same as [`LogLinearSketch::new`] — a derived default would zero
    /// `min_ns` instead of seeding it with `u64::MAX`.
    fn default() -> Self {
        LogLinearSketch::new()
    }
}

impl LogLinearSketch {
    /// Creates an empty sketch.
    #[must_use]
    pub fn new() -> Self {
        LogLinearSketch {
            counts: Vec::new(),
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one duration in integer nanoseconds — the hot-path entry:
    /// a bucket increment plus four scalar updates, no allocation once
    /// the bucket array covers the value's range.
    pub fn record_ns(&mut self, ns: u64) {
        let bucket = sketch_bucket(ns);
        if bucket >= self.counts.len() {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Records a duration observation.
    pub fn record_duration(&mut self, value: SimDuration) {
        self.record_ns(value.as_nanos());
    }

    /// Records a millisecond observation, quantized to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or negative — durations only.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the value is asserted non-negative first; `as` saturates at u64::MAX"
    )]
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "cannot record NaN");
        assert!(value >= 0.0, "cannot record a negative duration: {value}");
        self.record_ns((value * 1e6).round() as u64);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when no observations have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all recorded durations, in nanoseconds (saturating).
    #[must_use]
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Exact arithmetic mean in milliseconds, or 0.0 when empty — computed
    /// from the retained exact sum, not from bucket midpoints.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum_ns as f64 / self.count as f64) / 1e6
        }
    }

    /// Exact smallest observation in milliseconds, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then(|| self.min_ns as f64 / 1e6)
    }

    /// Exact largest observation in milliseconds, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then(|| self.max_ns as f64 / 1e6)
    }

    /// Nearest-rank percentile in milliseconds, or `None` when empty.
    ///
    /// The result is within [`SKETCH_RELATIVE_ERROR`] of the exact
    /// nearest-rank quantile of the recorded nanosecond values, and within
    /// the exact `[min, max]`. Needs only `&self` — nothing to sort.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.count == 0 {
            return None;
        }
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "p is asserted in [0, 100], so the rank lies in [1, count]"
        )]
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        if rank == 1 {
            // The rank-1 order statistic is the minimum, which is retained
            // exactly — mirrors the max clamp making p100 exact below.
            return Some(self.min_ns as f64 / 1e6);
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let ns = sketch_bucket_high(i).clamp(self.min_ns, self.max_ns);
                return Some(ns as f64 / 1e6);
            }
        }
        // Unreachable when the invariants hold (counts sum to count), but
        // degrade to the exact max rather than panicking.
        Some(self.max_ns as f64 / 1e6)
    }

    /// Median (50th percentile).
    #[must_use]
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Merges another sketch into this one. Exactly equivalent to having
    /// recorded `other`'s samples into `self`, in any order.
    pub fn merge(&mut self, other: &LogLinearSketch) {
        if other.count == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (slot, &c) in self.counts.iter_mut().zip(&other.counts) {
            *slot += c;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Heap footprint of the bucket array in bytes — the sketch's whole
    /// variable memory, bounded by [`SKETCH_MAX_BUCKETS`] × 8 regardless
    /// of how many samples were recorded.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.counts.capacity() * core::mem::size_of::<u64>()
    }
}

impl Extend<f64> for LogLinearSketch {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<f64> for LogLinearSketch {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = LogLinearSketch::new();
        s.extend(iter);
        s
    }
}

impl Extend<f64> for Histogram {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<f64> for Histogram {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut h = Histogram::new();
        h.extend(iter);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic_moments() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &data {
            all.record(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &data[..37] {
            left.record(x);
        }
        for &x in &data[37..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(left.min(), all.min());
        assert_eq!(left.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.record(3.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        OnlineStats::new().record(f64::NAN);
    }

    #[test]
    fn histogram_percentiles_nearest_rank() {
        let mut h: Histogram = (1..=10).map(|x| x as f64).collect();
        assert_eq!(h.percentile(0.0), Some(1.0));
        assert_eq!(h.percentile(10.0), Some(1.0));
        assert_eq!(h.percentile(50.0), Some(5.0));
        assert_eq!(h.percentile(90.0), Some(9.0));
        assert_eq!(h.percentile(100.0), Some(10.0));
    }

    #[test]
    fn histogram_empty() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_interleaved_record_and_query() {
        let mut h = Histogram::new();
        h.record(5.0);
        assert_eq!(h.median(), Some(5.0));
        h.record(1.0);
        h.record(9.0);
        assert_eq!(h.median(), Some(5.0));
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn histogram_percentile_survives_adversarial_floats() {
        // Regression: the sort must be a total order. `record` rejects NaN,
        // but infinities, signed zeros, and subnormals are representable —
        // `partial_cmp(..).expect(..)` was one deserialized NaN away from a
        // mid-experiment panic, `total_cmp` never panics.
        let mut h = Histogram::new();
        for v in [
            f64::INFINITY,
            -0.0,
            f64::MIN_POSITIVE,
            0.0,
            f64::NEG_INFINITY,
            1.0,
            f64::MIN_POSITIVE / 2.0,
        ] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), Some(f64::NEG_INFINITY));
        assert_eq!(h.percentile(100.0), Some(f64::INFINITY));
        assert_eq!(h.median(), Some(f64::MIN_POSITIVE / 2.0));
    }

    #[test]
    fn histogram_percentile_total_order_with_nan_sample() {
        // A NaN cannot enter through `record`, but a serialized histogram
        // is user data: simulate the deserialization path by injecting the
        // raw sample. With `total_cmp` the query stays deterministic and,
        // crucially, does not panic.
        let mut h = Histogram {
            samples: vec![3.0, f64::NAN, 1.0, 2.0],
            sorted: false,
        };
        assert_eq!(h.percentile(25.0), Some(1.0));
        assert_eq!(h.median(), Some(2.0));
        // total_cmp orders positive NaN after +inf: it lands at p100.
        assert!(h.percentile(100.0).unwrap().is_nan());
    }

    #[test]
    fn sketch_bucket_mapping_is_monotone_and_bounded() {
        // Probe every power-of-two boundary ± 1 in increasing order.
        let mut probes: Vec<u64> = vec![0, 1];
        for exp in 1..64u32 {
            let v = 1u64 << exp;
            probes.extend([v - 1, v, v.saturating_add(1)]);
        }
        probes.push(u64::MAX);
        probes.sort_unstable();
        let mut prev_bucket = 0usize;
        for v in probes {
            let b = sketch_bucket(v);
            assert!(b >= prev_bucket, "bucket index not monotone at {v}");
            assert!(b < SKETCH_MAX_BUCKETS, "bucket {b} for {v}");
            assert!(sketch_bucket_high(b) >= v, "upper bound covers {v}");
            prev_bucket = b;
        }
        assert_eq!(sketch_bucket(u64::MAX), SKETCH_MAX_BUCKETS - 1);
    }

    #[test]
    fn sketch_small_values_are_exact() {
        let mut s = LogLinearSketch::new();
        for ns in 0..SKETCH_SUB * 2 {
            s.record_ns(ns);
        }
        for p in [0.0, 10.0, 50.0, 90.0, 100.0] {
            let rank = ((p / 100.0) * s.count() as f64).ceil().max(1.0) as u64;
            let exact_ns = rank - 1; // samples are 0..256, one each
            let got = s.percentile(p).unwrap();
            assert!(
                (got - exact_ns as f64 / 1e6).abs() < 1e-12,
                "p{p}: {got} vs {exact_ns} ns"
            );
        }
    }

    #[test]
    fn sketch_percentiles_within_advertised_bound() {
        let mut s = LogLinearSketch::new();
        let mut exact = Histogram::new();
        // A wide dynamic range: ~0.1 ms to ~13 s, geometric-ish spacing.
        let mut v = 100_000u64;
        for i in 0..4_000u64 {
            let ns = v + (i * i) % 977;
            s.record_ns(ns);
            exact.record(ns as f64 / 1e6);
            v += v / 337 + 1;
        }
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let want = exact.percentile(p).unwrap();
            let got = s.percentile(p).unwrap();
            assert!(
                (got - want).abs() <= want * SKETCH_RELATIVE_ERROR + 1e-6,
                "p{p}: sketch {got} vs exact {want}"
            );
        }
        assert_eq!(s.min(), exact.samples().iter().copied().reduce(f64::min));
        assert!((s.mean() - exact.mean()).abs() <= exact.mean() * 1e-9 + 1e-9);
    }

    #[test]
    fn sketch_merge_equals_concatenated_recording() {
        let data: Vec<u64> = (0..500u64).map(|i| (i * 48_271 + 7) % 40_000_000).collect();
        let mut whole = LogLinearSketch::new();
        let mut left = LogLinearSketch::new();
        let mut right = LogLinearSketch::new();
        for (i, &ns) in data.iter().enumerate() {
            whole.record_ns(ns);
            if i % 3 == 0 {
                left.record_ns(ns);
            } else {
                right.record_ns(ns);
            }
        }
        let mut merged = left.clone();
        merged.merge(&right);
        assert_eq!(merged, whole, "merge must equal the concatenated stream");
        // And the other shard order produces the identical sketch.
        let mut reversed = right;
        reversed.merge(&left);
        assert_eq!(reversed, whole);
    }

    #[test]
    fn sketch_empty_and_edge_cases() {
        let s = LogLinearSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.percentile(50.0), None);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);

        let mut one = LogLinearSketch::new();
        one.record_duration(SimDuration::from_millis(5));
        assert_eq!(one.percentile(0.0), Some(5.0));
        assert_eq!(one.percentile(100.0), Some(5.0));
        assert_eq!(one.median(), Some(5.0));

        let mut e = LogLinearSketch::new();
        e.merge(&one);
        assert_eq!(e, one, "merge into empty is identity");
    }

    #[test]
    fn sketch_memory_is_independent_of_sample_count() {
        let mut s = LogLinearSketch::new();
        for i in 0..10_000u64 {
            s.record_ns(i * 1_000_003 % 66_700_000);
        }
        let footprint = s.memory_bytes();
        for i in 0..100_000u64 {
            s.record_ns(i * 999_983 % 66_700_000);
        }
        assert_eq!(s.memory_bytes(), footprint, "fixed once the range is set");
        assert!(footprint <= SKETCH_MAX_BUCKETS * 8 * 2, "capacity bounded");
        assert_eq!(s.count(), 110_000);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn sketch_rejects_negative() {
        LogLinearSketch::new().record(-1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn sketch_rejects_nan() {
        LogLinearSketch::new().record(f64::NAN);
    }

    #[test]
    fn duration_recording_uses_millis() {
        let mut s = OnlineStats::new();
        s.record_duration(SimDuration::from_millis(30));
        assert_eq!(s.mean(), 30.0);
        let mut h = Histogram::new();
        h.record_duration(SimDuration::from_micros(1500));
        assert_eq!(h.samples(), &[1.5]);
    }
}
