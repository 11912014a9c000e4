//! TPU units — MicroEdge's fractional resource metric (paper §4.1).
//!
//! > "TPU unit is the *duty cycle* of inference requests that an application
//! > pod is expected to generate. If an application requires an inference
//! > service that takes *t* time units to complete (including model switching
//! > time), and the inter-arrival period for successive requests is *T*, then
//! > the TPU Unit needed is t ÷ T."
//!
//! Units are stored as integer **micro-units** (1 unit = 1 000 000), so the
//! admission-control arithmetic is exact: `0.35 + 0.35 + 0.30 == 1.0` holds
//! bit-for-bit, and the TPU Units Rule (cumulative load per TPU ≤ 1) can
//! never be violated by floating-point drift.
//!
//! # Examples
//!
//! ```
//! use microedge_core::units::TpuUnits;
//! use microedge_sim::time::SimDuration;
//!
//! // 10 FPS camera, 30 ms service time → 0.3 TPU units (the paper's example).
//! let units = TpuUnits::from_duty_cycle(
//!     SimDuration::from_millis(30),
//!     SimDuration::from_millis(100),
//! );
//! assert_eq!(units, TpuUnits::from_f64(0.3));
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use microedge_sim::time::SimDuration;

/// Micro-units per whole TPU unit.
const SCALE: u64 = 1_000_000;

/// A fractional amount of TPU time, in exact micro-units.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct TpuUnits(u64);

impl TpuUnits {
    /// Zero TPU units.
    pub const ZERO: TpuUnits = TpuUnits(0);
    /// One whole TPU.
    pub const ONE: TpuUnits = TpuUnits(SCALE);

    /// Creates units from raw micro-units (1 000 000 = one TPU).
    #[must_use]
    pub const fn from_micro(micro: u64) -> Self {
        TpuUnits(micro)
    }

    /// Creates units from a float, rounding to the nearest micro-unit.
    ///
    /// # Panics
    ///
    /// Panics if `units` is negative or not finite.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the argument is asserted finite and non-negative first; `as` saturates at u64::MAX"
    )]
    pub fn from_f64(units: f64) -> Self {
        assert!(
            units.is_finite() && units >= 0.0,
            "TPU units must be finite and non-negative, got {units}"
        );
        TpuUnits((units * SCALE as f64).round() as u64)
    }

    /// The paper's defining formula: service time ÷ inter-arrival period,
    /// rounded *up* to the next micro-unit so a declared demand never
    /// understates the true duty cycle.
    ///
    /// # Panics
    ///
    /// Panics if `interarrival` is zero.
    #[must_use]
    pub fn from_duty_cycle(service: SimDuration, interarrival: SimDuration) -> Self {
        assert!(
            !interarrival.is_zero(),
            "inter-arrival period must be non-zero"
        );
        let num = service.as_nanos() as u128 * SCALE as u128;
        let den = interarrival.as_nanos() as u128;
        let units: u64 = num
            .div_ceil(den)
            .try_into()
            .expect("duty-cycle unit demand fits u64");
        TpuUnits(units)
    }

    /// Raw micro-units.
    #[must_use]
    pub const fn as_micro(self) -> u64 {
        self.0
    }

    /// Units as a float.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / SCALE as f64
    }

    /// `true` when zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, other: TpuUnits) -> TpuUnits {
        TpuUnits(self.0.saturating_sub(other.0))
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub fn checked_add(self, other: TpuUnits) -> Option<TpuUnits> {
        self.0.checked_add(other.0).map(TpuUnits)
    }

    /// The smaller of two values.
    #[must_use]
    pub fn min(self, other: TpuUnits) -> TpuUnits {
        TpuUnits(self.0.min(other.0))
    }

    /// How many whole TPUs a demand of this size needs under *integral*
    /// (baseline, non-fractional) allocation: `ceil(units)`.
    #[must_use]
    pub fn whole_tpus_needed(self) -> u32 {
        u32::try_from(self.0.div_ceil(SCALE)).expect("unit counts fit in u32")
    }
}

impl Add for TpuUnits {
    type Output = TpuUnits;
    fn add(self, rhs: TpuUnits) -> TpuUnits {
        TpuUnits(self.0 + rhs.0)
    }
}

impl AddAssign for TpuUnits {
    fn add_assign(&mut self, rhs: TpuUnits) {
        self.0 += rhs.0;
    }
}

impl Sub for TpuUnits {
    type Output = TpuUnits;
    fn sub(self, rhs: TpuUnits) -> TpuUnits {
        TpuUnits(self.0 - rhs.0)
    }
}

impl SubAssign for TpuUnits {
    fn sub_assign(&mut self, rhs: TpuUnits) {
        self.0 -= rhs.0;
    }
}

impl Sum for TpuUnits {
    fn sum<I: Iterator<Item = TpuUnits>>(iter: I) -> TpuUnits {
        iter.fold(TpuUnits::ZERO, Add::add)
    }
}

impl fmt::Display for TpuUnits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}u", self.as_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_arithmetic() {
        let a = TpuUnits::from_f64(0.35);
        let b = TpuUnits::from_f64(0.35);
        let c = TpuUnits::from_f64(0.30);
        assert_eq!(a + b + c, TpuUnits::ONE);
        assert_eq!(TpuUnits::ONE - a - b, c);
    }

    #[test]
    fn duty_cycle_paper_example() {
        // 30 ms service at 10 FPS → 0.3 units.
        let u =
            TpuUnits::from_duty_cycle(SimDuration::from_millis(30), SimDuration::from_millis(100));
        assert_eq!(u, TpuUnits::from_f64(0.3));
    }

    #[test]
    fn duty_cycle_rounds_up() {
        // 1 ns over a 3 ns period = 0.333… → must round up, never down.
        let u = TpuUnits::from_duty_cycle(SimDuration::from_nanos(1), SimDuration::from_nanos(3));
        assert!(u.as_f64() >= 1.0 / 3.0);
    }

    #[test]
    fn coral_pie_and_bodypix_units() {
        let interval = SimDuration::from_millis_f64(1000.0 / 15.0);
        let coral_pie = TpuUnits::from_duty_cycle(SimDuration::from_nanos(23_333_333), interval);
        assert_eq!(coral_pie, TpuUnits::from_f64(0.35));
        let bodypix = TpuUnits::from_duty_cycle(SimDuration::from_millis(80), interval);
        assert_eq!(bodypix, TpuUnits::from_f64(1.2));
    }

    #[test]
    fn whole_tpus_needed_ceils() {
        assert_eq!(TpuUnits::from_f64(0.35).whole_tpus_needed(), 1);
        assert_eq!(TpuUnits::from_f64(1.0).whole_tpus_needed(), 1);
        assert_eq!(TpuUnits::from_f64(1.2).whole_tpus_needed(), 2);
        assert_eq!(TpuUnits::ZERO.whole_tpus_needed(), 0);
    }

    #[test]
    fn saturating_and_checked_ops() {
        let small = TpuUnits::from_f64(0.1);
        let big = TpuUnits::from_f64(0.9);
        assert_eq!(small.saturating_sub(big), TpuUnits::ZERO);
        assert!(small.checked_add(big).is_some());
        assert!(TpuUnits::from_micro(u64::MAX)
            .checked_add(TpuUnits::from_micro(1))
            .is_none());
    }

    #[test]
    fn ordering_and_min() {
        assert!(TpuUnits::from_f64(0.2) < TpuUnits::from_f64(0.3));
        assert_eq!(
            TpuUnits::from_f64(0.2).min(TpuUnits::from_f64(0.3)),
            TpuUnits::from_f64(0.2)
        );
    }

    #[test]
    fn display() {
        assert_eq!(TpuUnits::from_f64(0.35).to_string(), "0.350u");
        assert_eq!(TpuUnits::ONE.to_string(), "1.000u");
    }

    #[test]
    fn sum_of_units() {
        let total: TpuUnits = [0.1, 0.2, 0.3].iter().map(|&f| TpuUnits::from_f64(f)).sum();
        assert_eq!(total, TpuUnits::from_f64(0.6));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_units_rejected() {
        let _ = TpuUnits::from_f64(-0.1);
    }
}
