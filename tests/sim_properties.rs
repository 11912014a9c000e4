//! Property-based tests for the simulation kernel and the TPU-units
//! arithmetic the whole system rests on.

use std::collections::BTreeMap;

use proptest::prelude::*;

use microedge::core::units::TpuUnits;
use microedge::sim::event::EventQueue;
use microedge::sim::series::StepSeries;
use microedge::sim::stats::{Histogram, OnlineStats};
use microedge::sim::time::{SimDuration, SimTime};

/// One step of the event-queue differential test. Offsets are
/// nanoseconds from the queue's current time, saturating at `u64::MAX`.
#[derive(Debug, Clone)]
enum QueueOp {
    /// Schedules one event `offset` after now.
    Schedule(u64),
    /// Schedules `count` events at one instant `offset` after now, so ties
    /// straddle the refills that later pops make.
    Burst(usize, u64),
    /// Schedules one event this many nanoseconds before `u64::MAX` (or now,
    /// if that is later).
    NearMax(u64),
    /// `pop_due` with a deadline this many nanoseconds after now (before
    /// now, if negative).
    PopDue(i64),
    /// Drains to a barrier `offset` after now, then `advance_to`s it.
    Advance(u64),
}

const MS: u64 = 1_000_000;
const HOUR: u64 = 3_600 * 1_000 * MS;

/// Offsets of whole milliseconds, of a few nanoseconds (ties and next
/// neighbours), or of hours.
fn offset() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => (0u64..40).prop_map(|ms| ms * MS),
        2 => 0u64..4,
        1 => (1u64..48).prop_map(|h| h * HOUR),
    ]
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        3 => offset().prop_map(QueueOp::Schedule),
        1 => (1usize..8, 0u64..4).prop_map(|(count, ns)| QueueOp::Burst(count, ns)),
        1 => (0u64..1 << 32).prop_map(QueueOp::NearMax),
        2 => offset().prop_map(|ns| QueueOp::PopDue(ns as i64)),
        1 => (1i64..1_000).prop_map(|ns| QueueOp::PopDue(-ns)),
        1 => offset().prop_map(QueueOp::Advance),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The event queue is a total order: deliveries follow `(time,
    /// insertion)` exactly, checked against a sorted-map reference while
    /// `schedule_at`, `pop_due` and `advance_to` interleave, so freed slots
    /// are reused by later events. Times range from nanosecond ties through
    /// hour-long jumps to the last 2^32 ns before `u64::MAX`.
    #[test]
    fn event_queue_total_order(
        times in prop::collection::vec(0u64..1_000, 1..200),
        ops in prop::collection::vec(queue_op(), 0..300),
    ) {
        let mut q = EventQueue::new();
        let mut reference: BTreeMap<(SimTime, u64), usize> = BTreeMap::new();
        let mut next = 0usize;
        let mut schedule = |q: &mut EventQueue<usize>, reference: &mut BTreeMap<_, _>, t| {
            q.schedule_at(t, next);
            reference.insert((t, next as u64), next);
            next += 1;
        };
        let after = |q: &EventQueue<usize>, ns: u64| {
            SimTime::from_nanos(q.now().as_nanos().saturating_add(ns))
        };
        for &t in &times {
            schedule(&mut q, &mut reference, SimTime::from_millis(t));
        }
        for op in ops {
            match op {
                QueueOp::Schedule(ns) => {
                    let t = after(&q, ns);
                    schedule(&mut q, &mut reference, t);
                }
                QueueOp::Burst(count, ns) => {
                    let t = after(&q, ns);
                    for _ in 0..count {
                        schedule(&mut q, &mut reference, t);
                    }
                }
                QueueOp::NearMax(ns) => {
                    let t = SimTime::from_nanos(u64::MAX - ns).max(q.now());
                    schedule(&mut q, &mut reference, t);
                }
                QueueOp::PopDue(ns) => {
                    let deadline = match u64::try_from(ns) {
                        Ok(ns) => after(&q, ns),
                        Err(_) => SimTime::from_nanos(
                            q.now().as_nanos().saturating_sub(ns.unsigned_abs()),
                        ),
                    };
                    let expected = match reference.first_key_value() {
                        Some((&(t, _), _)) if t <= deadline => reference.pop_first(),
                        _ => None,
                    };
                    prop_assert_eq!(q.pop_due(deadline), expected.map(|((t, _), id)| (t, id)));
                }
                QueueOp::Advance(ns) => {
                    // Drain what is due first, as an epoch barrier does.
                    let barrier = after(&q, ns);
                    while let Some((t, id)) = q.pop_due(barrier) {
                        prop_assert_eq!(reference.pop_first(), Some(((t, id as u64), id)));
                    }
                    q.advance_to(barrier);
                    prop_assert_eq!(q.now(), barrier);
                }
            }
            prop_assert_eq!(q.len(), reference.len());
            prop_assert_eq!(q.peek_time(), reference.keys().next().map(|&(t, _)| t));
        }
        while let Some((t, id)) = q.pop() {
            prop_assert_eq!(reference.pop_first(), Some(((t, id as u64), id)));
        }
        prop_assert!(reference.is_empty());
        prop_assert_eq!(q.events_processed(), next as u64);
    }

    /// StepSeries conserves mass: the weighted sum of window averages
    /// equals the exact integral of the step function.
    #[test]
    fn step_series_conserves_integral(
        steps in prop::collection::vec((1u64..5_000, 0u32..20), 1..50),
        window_ms in 100u64..5_000,
    ) {
        let mut series = StepSeries::new(SimDuration::from_millis(window_ms));
        let mut t = 0u64;
        let mut exact = 0.0f64;
        let mut level = 0.0f64;
        let mut last = 0u64;
        for (gap, value) in steps {
            t += gap;
            exact += level * (t - last) as f64;
            series.set(SimTime::from_millis(t), f64::from(value));
            level = f64::from(value);
            last = t;
        }
        let end = t + 1;
        exact += level * (end - last) as f64;
        let buckets = series.finish(SimTime::from_millis(end));
        let mut reconstructed = 0.0;
        for (i, avg) in buckets.iter().enumerate() {
            let start = i as u64 * window_ms;
            let width = window_ms.min(end - start);
            reconstructed += avg * width as f64;
        }
        prop_assert!(
            (reconstructed - exact).abs() < 1e-6 * exact.max(1.0),
            "integral {exact} vs reconstructed {reconstructed}"
        );
    }

    /// Welford merge is equivalent to sequential accumulation.
    #[test]
    fn stats_merge_equals_sequential(
        xs in prop::collection::vec(-1_000.0f64..1_000.0, 1..100),
        split in 0usize..100,
    ) {
        let split = split.min(xs.len());
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..split] {
            left.record(x);
        }
        for &x in &xs[split..] {
            right.record(x);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-9);
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-6);
    }

    /// Histogram percentiles are monotone and bounded by min/max.
    #[test]
    fn percentiles_monotone(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut h: Histogram = xs.iter().copied().collect();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p).unwrap();
            prop_assert!(v >= prev);
            prop_assert!((lo..=hi).contains(&v));
            prev = v;
        }
    }

    /// TPU-units duty cycles never understate demand, and float round-trips
    /// are exact at micro-unit precision.
    #[test]
    fn units_roundtrip_and_duty_cycle(micro in 0u64..10_000_000, service_ns in 1u64..10u64.pow(9), period_ns in 1u64..10u64.pow(9)) {
        let u = TpuUnits::from_micro(micro);
        prop_assert_eq!(TpuUnits::from_f64(u.as_f64()), u, "float round-trip");

        let duty = TpuUnits::from_duty_cycle(
            SimDuration::from_nanos(service_ns),
            SimDuration::from_nanos(period_ns),
        );
        let exact = service_ns as f64 / period_ns as f64;
        prop_assert!(duty.as_f64() >= exact - 1e-12, "never understates");
        prop_assert!(duty.as_f64() <= exact + 1e-6, "rounds up by < 1 micro-unit");
    }

    /// Units addition is associative and ordered (the exactness the
    /// admission proofs rely on).
    #[test]
    fn units_arithmetic_exact(a in 0u64..2_000_000, b in 0u64..2_000_000, c in 0u64..2_000_000) {
        let (ua, ub, uc) = (TpuUnits::from_micro(a), TpuUnits::from_micro(b), TpuUnits::from_micro(c));
        prop_assert_eq!((ua + ub) + uc, ua + (ub + uc));
        prop_assert_eq!((ua + ub).saturating_sub(ub), ua);
        prop_assert_eq!(ua.checked_add(ub), Some(ua + ub));
    }
}
