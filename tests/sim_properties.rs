//! Property-based tests for the simulation kernel and the TPU-units
//! arithmetic the whole system rests on.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

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

/// `ns` nanoseconds after `now`, saturating at `u64::MAX`.
fn after(now: SimTime, ns: u64) -> SimTime {
    SimTime::from_nanos(now.as_nanos().saturating_add(ns))
}

/// A [`QueueOp::PopDue`] deadline: `ns` nanoseconds after `now`, or before
/// it if negative.
fn deadline(now: SimTime, ns: i64) -> SimTime {
    match u64::try_from(ns) {
        Ok(ns) => after(now, ns),
        Err(_) => SimTime::from_nanos(now.as_nanos().saturating_sub(ns.unsigned_abs())),
    }
}

/// An event payload that counts its drops in a table shared by the test.
#[derive(Debug)]
struct Counted {
    id: usize,
    drops: Rc<RefCell<Vec<u32>>>,
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.drops.borrow_mut()[self.id] += 1;
    }
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

/// A probe deadline's offset from now, as [`deadline`] reads it.
fn probe() -> impl Strategy<Value = i64> {
    prop_oneof![
        4 => offset().prop_map(|ns| ns as i64),
        1 => (1i64..1_000).prop_map(|ns| -ns),
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
        for &t in &times {
            schedule(&mut q, &mut reference, SimTime::from_millis(t));
        }
        for op in ops {
            match op {
                QueueOp::Schedule(ns) => {
                    let t = after(q.now(), ns);
                    schedule(&mut q, &mut reference, t);
                }
                QueueOp::Burst(count, ns) => {
                    let t = after(q.now(), ns);
                    for _ in 0..count {
                        schedule(&mut q, &mut reference, t);
                    }
                }
                QueueOp::NearMax(ns) => {
                    let t = SimTime::from_nanos(u64::MAX - ns).max(q.now());
                    schedule(&mut q, &mut reference, t);
                }
                QueueOp::PopDue(ns) => {
                    let deadline = deadline(q.now(), ns);
                    let expected = match reference.first_key_value() {
                        Some((&(t, _), _)) if t <= deadline => reference.pop_first(),
                        _ => None,
                    };
                    prop_assert_eq!(q.pop_due(deadline), expected.map(|((t, _), id)| (t, id)));
                }
                QueueOp::Advance(ns) => {
                    // Drain what is due first, as an epoch barrier does.
                    let barrier = after(q.now(), ns);
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

    /// Every payload is delivered exactly once and never dropped while it
    /// is pending, and `len()` is scheduled minus delivered after every
    /// step. After each step, `now` more events are scheduled at the
    /// current time: when the last pop left part of a tied batch due, they
    /// must pop after that batch. Dropping the queue drops what is still
    /// pending, once each.
    #[test]
    fn event_queue_delivers_each_payload_once(
        times in prop::collection::vec(0u64..1_000, 1..100),
        steps in prop::collection::vec((queue_op(), 0usize..3), 0..200),
    ) {
        let drops = Rc::new(RefCell::new(Vec::new()));
        let mut q = EventQueue::new();
        let mut reference = BTreeSet::new();
        let schedule = |q: &mut EventQueue<Counted>, reference: &mut BTreeSet<_>, t| {
            let id = drops.borrow().len();
            drops.borrow_mut().push(0);
            q.schedule_at(t, Counted { id, drops: Rc::clone(&drops) });
            reference.insert((t, id));
        };
        // Pops one event if the reference has one due by `deadline`, and
        // checks it is the reference's first and is dropped once, by us.
        let deliver = |q: &mut EventQueue<Counted>,
                       reference: &mut BTreeSet<(SimTime, usize)>,
                       deadline: SimTime|
         -> Result<bool, String> {
            let expected = reference.first().filter(|&&(t, _)| t <= deadline).copied();
            let got = q.pop_due(deadline).map(|(t, ev)| (t, ev.id));
            prop_assert_eq!(got, expected);
            if let Some((_, id)) = got {
                reference.pop_first();
                prop_assert_eq!(drops.borrow()[id], 1, "payload {} dropped once", id);
            }
            Ok(got.is_some())
        };
        for &t in &times {
            schedule(&mut q, &mut reference, SimTime::from_millis(t));
        }
        for (op, now) in steps {
            match op {
                QueueOp::Schedule(ns) => {
                    let t = after(q.now(), ns);
                    schedule(&mut q, &mut reference, t);
                }
                QueueOp::Burst(count, ns) => {
                    let t = after(q.now(), ns);
                    for _ in 0..count {
                        schedule(&mut q, &mut reference, t);
                    }
                }
                QueueOp::NearMax(ns) => {
                    let t = SimTime::from_nanos(u64::MAX - ns).max(q.now());
                    schedule(&mut q, &mut reference, t);
                }
                QueueOp::PopDue(ns) => {
                    let until = deadline(q.now(), ns);
                    deliver(&mut q, &mut reference, until)?;
                }
                QueueOp::Advance(ns) => {
                    let barrier = after(q.now(), ns);
                    while deliver(&mut q, &mut reference, barrier)? {}
                    q.advance_to(barrier);
                    prop_assert_eq!(q.now(), barrier);
                }
            }
            for _ in 0..now {
                let t = q.now();
                schedule(&mut q, &mut reference, t);
            }
            prop_assert_eq!(q.len(), reference.len());
            let drops = drops.borrow();
            for &(_, id) in &reference {
                prop_assert_eq!(drops[id], 0, "pending payload {} was dropped", id);
            }
        }
        let delivered = q.events_processed();
        prop_assert_eq!(delivered as usize + q.len(), drops.borrow().len());
        drop(q);
        let drops = drops.borrow();
        let wrong = drops.iter().position(|&n| n != 1);
        prop_assert_eq!(wrong, None, "dropped {:?} times", wrong.map(|id| drops[id]));
    }

    /// `due()` promises what the next pops deliver at the current instant.
    /// After every pop it must yield, in order, exactly the payloads that
    /// the following pops deliver at that same instant, counting the
    /// events scheduled at `now` in between; it must be empty when the next
    /// pop's time is later.
    #[test]
    fn event_queue_due_lists_the_rest_of_the_instant(
        times in prop::collection::vec(0u64..1_000, 1..100),
        steps in prop::collection::vec((queue_op(), 0usize..3), 0..200),
    ) {
        let mut q = EventQueue::new();
        let mut next = 0usize;
        // What the last pop promised: the payloads still due at its
        // instant. `None` until a pop, and again after the clock is moved
        // without one (an event scheduled then waits in a bucket).
        let mut promised: Option<(SimTime, VecDeque<usize>)> = None;
        let mut schedule = |q: &mut EventQueue<usize>,
                            promised: &mut Option<(SimTime, VecDeque<usize>)>,
                            t: SimTime| {
            q.schedule_at(t, next);
            if let Some((at, ids)) = promised {
                if *at == t {
                    ids.push_back(next);
                }
            }
            next += 1;
        };
        let deliver = |q: &mut EventQueue<usize>,
                       promised: &mut Option<(SimTime, VecDeque<usize>)>,
                       until: SimTime|
         -> Result<bool, String> {
            let Some((t, id)) = q.pop_due(until) else {
                return Ok(false);
            };
            if let Some((at, ids)) = promised {
                if *at == t {
                    prop_assert_eq!(ids.pop_front(), Some(id), "due() listed this pop");
                } else {
                    prop_assert!(ids.is_empty(), "due() listed {:?} at {}, next pop is at {}", ids, at, t);
                }
            }
            *promised = Some((t, q.due().copied().collect()));
            Ok(true)
        };
        for &t in &times {
            schedule(&mut q, &mut promised, SimTime::from_millis(t));
        }
        for (op, now) in steps {
            match op {
                QueueOp::Schedule(ns) => {
                    let t = after(q.now(), ns);
                    schedule(&mut q, &mut promised, t);
                }
                QueueOp::Burst(count, ns) => {
                    let t = after(q.now(), ns);
                    for _ in 0..count {
                        schedule(&mut q, &mut promised, t);
                    }
                }
                QueueOp::NearMax(ns) => {
                    let t = SimTime::from_nanos(u64::MAX - ns).max(q.now());
                    schedule(&mut q, &mut promised, t);
                }
                QueueOp::PopDue(ns) => {
                    let until = deadline(q.now(), ns);
                    deliver(&mut q, &mut promised, until)?;
                }
                QueueOp::Advance(ns) => {
                    let barrier = after(q.now(), ns);
                    while deliver(&mut q, &mut promised, barrier)? {}
                    if let Some((_, ids)) = &promised {
                        prop_assert!(ids.is_empty(), "due() listed {:?} past a drain", ids);
                    }
                    if barrier > q.now() {
                        promised = None;
                    }
                    q.advance_to(barrier);
                }
            }
            for _ in 0..now {
                let t = q.now();
                schedule(&mut q, &mut promised, t);
            }
            if let Some((_, ids)) = &promised {
                prop_assert!(q.due().eq(ids.iter()), "due() {:?} != {:?}", q.due().collect::<Vec<_>>(), ids);
            }
        }
        while deliver(&mut q, &mut promised, SimTime::from_nanos(u64::MAX))? {}
        prop_assert_eq!(q.due().count(), 0);
    }

    /// `pending_until(t)` lists, as a multiset, exactly the payloads that
    /// the `pop_due(t)` calls that follow deliver, and none later than `t`.
    /// Steps interleave schedules, single pops (so a tied batch can be
    /// left part-popped in `due`) and barrier drains; a probe after a
    /// step lists and then drains to its deadline, which may be before
    /// now, at now, or past the barrier that `advance_to` just set.
    #[test]
    fn pending_until_is_what_pop_due_delivers(
        times in prop::collection::vec(0u64..1_000, 1..100),
        steps in prop::collection::vec((queue_op(), prop::option::of(probe())), 0..200),
    ) {
        let mut q = EventQueue::new();
        let mut at = Vec::new();
        let schedule = |q: &mut EventQueue<usize>, at: &mut Vec<SimTime>, t| {
            q.schedule_at(t, at.len());
            at.push(t);
        };
        for &t in &times {
            schedule(&mut q, &mut at, SimTime::from_millis(t));
        }
        for (op, probe) in steps {
            match op {
                QueueOp::Schedule(ns) => {
                    let t = after(q.now(), ns);
                    schedule(&mut q, &mut at, t);
                }
                QueueOp::Burst(count, ns) => {
                    let t = after(q.now(), ns);
                    for _ in 0..count {
                        schedule(&mut q, &mut at, t);
                    }
                }
                QueueOp::NearMax(ns) => {
                    let t = SimTime::from_nanos(u64::MAX - ns).max(q.now());
                    schedule(&mut q, &mut at, t);
                }
                QueueOp::PopDue(ns) => {
                    q.pop_due(deadline(q.now(), ns));
                }
                QueueOp::Advance(ns) => {
                    let barrier = after(q.now(), ns);
                    while q.pop_due(barrier).is_some() {}
                    q.advance_to(barrier);
                }
            }
            let Some(ns) = probe else { continue };
            let until = deadline(q.now(), ns);
            let mut listed: Vec<usize> = q.pending_until(until).copied().collect();
            for &id in &listed {
                prop_assert!(at[id] <= until, "listed {} at {} past {}", id, at[id], until);
            }
            let mut popped: Vec<usize> =
                std::iter::from_fn(|| q.pop_due(until).map(|(_, id)| id)).collect();
            listed.sort_unstable();
            popped.sort_unstable();
            prop_assert_eq!(listed, popped, "pending until {}", until);
        }
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
