//! Virtual time for the discrete-event simulation.
//!
//! All simulated time is kept in integer **nanoseconds** so that event
//! ordering is exact and platform independent. Two newtypes are provided:
//!
//! - [`SimTime`] — an absolute instant on the simulation clock, and
//! - [`SimDuration`] — a span between two instants.
//!
//! Both are `Copy`, totally ordered, and support the arithmetic you would
//! expect (`SimTime + SimDuration`, `SimTime - SimTime`, scaling, etc.).
//!
//! # Examples
//!
//! ```
//! use microedge_sim::time::{SimDuration, SimTime};
//!
//! let start = SimTime::ZERO;
//! let frame_interval = SimDuration::from_millis_f64(1000.0 / 15.0);
//! let t1 = start + frame_interval;
//! assert!(t1 > start);
//! assert_eq!((t1 - start), frame_interval);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

const NANOS_PER_MICRO: u64 = 1_000;
const NANOS_PER_MILLI: u64 = 1_000_000;
const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the simulation.
///
/// # Examples
///
/// ```
/// use microedge_sim::time::{SimDuration, SimTime};
///
/// let t = SimTime::from_secs(2) + SimDuration::from_millis(500);
/// assert_eq!(t.as_millis_f64(), 2500.0);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use microedge_sim::time::SimDuration;
///
/// let d = SimDuration::from_millis(66) + SimDuration::from_micros(667);
/// assert!(d > SimDuration::from_millis(66));
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant from microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * NANOS_PER_MICRO)
    }

    /// Creates an instant from milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * NANOS_PER_MILLI)
    }

    /// Creates an instant from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Raw nanoseconds since simulation start.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time since start as fractional milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Time since start as fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    #[must_use]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * NANOS_PER_MICRO)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * NANOS_PER_MILLI)
    }

    /// Creates a duration from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Creates a duration from fractional milliseconds, rounding to the
    /// nearest nanosecond and saturating at the representable range.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is negative or not finite.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the argument is asserted finite and non-negative first; `as` saturates at u64::MAX"
    )]
    pub fn from_millis_f64(millis: f64) -> Self {
        assert!(
            millis.is_finite() && millis >= 0.0,
            "duration must be finite and non-negative, got {millis}"
        );
        SimDuration((millis * NANOS_PER_MILLI as f64).round() as u64)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the argument is asserted finite and non-negative first; `as` saturates at u64::MAX"
    )]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative, got {secs}"
        );
        SimDuration((secs * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// `true` when the duration is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub fn checked_add(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(other.0).map(SimDuration)
    }

    /// Multiplies by a non-negative float, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the argument is asserted finite and non-negative first; `as` saturates at u64::MAX"
    )]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// The ratio `self / other` as a float.
    ///
    /// Returns 0.0 when `other` is zero (an empty observation window has no
    /// meaningful ratio).
    #[must_use]
    pub fn ratio(self, other: SimDuration) -> f64 {
        if other.0 == 0 {
            0.0
        } else {
            self.0 as f64 / other.0 as f64
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= NANOS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= NANOS_PER_MILLI {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_millis(100);
        let d = SimDuration::from_millis(50);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn conversions_are_consistent() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
        assert_eq!(SimDuration::from_millis(15).as_millis_f64(), 15.0);
    }

    #[test]
    fn fractional_constructors_round_to_nearest() {
        let d = SimDuration::from_millis_f64(66.666_667);
        assert_eq!(d.as_nanos(), 66_666_667);
        let s = SimDuration::from_secs_f64(0.5);
        assert_eq!(s, SimDuration::from_millis(500));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_millis_f64(-1.0);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime::from_millis(10);
        let late = SimTime::from_millis(30);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(20));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn ratio_of_durations() {
        let busy = SimDuration::from_millis(35);
        let window = SimDuration::from_millis(100);
        assert!((busy.ratio(window) - 0.35).abs() < 1e-12);
        assert_eq!(busy.ratio(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn mul_and_div_scale() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        assert_eq!(d.mul_f64(1.5), SimDuration::from_millis(15));
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_millis(8).to_string(), "8.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimTime::from_millis(1500).to_string(), "t=1.500s");
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_nanos(1))
            .is_none());
        assert!(SimTime::ZERO
            .checked_add(SimDuration::from_secs(1))
            .is_some());
        assert!(SimDuration::MAX
            .checked_add(SimDuration::from_nanos(1))
            .is_none());
    }
}
