//! Deterministic event queue.
//!
//! The queue orders events by `(time, sequence)`, where the sequence number
//! is assigned at insertion. Two events scheduled for the same instant are
//! therefore delivered in insertion order, which keeps simulations
//! reproducible bit-for-bit.
//!
//! # Implementation
//!
//! One std [`BinaryHeap`] holds only `(time, seq, slot)` keys; each event's
//! payload sits in slot `slot` of a slab that reuses freed slots through a
//! free list, so the heap sifts 24-byte keys however large the events
//! are. `seq` is unique, so tuple order is exactly `(time, seq)` and the
//! slot never decides an order; `sim_properties::event_queue_total_order`
//! checks delivery against a sorted-map reference.
//!
//! # Examples
//!
//! ```
//! use microedge_sim::event::EventQueue;
//! use microedge_sim::time::{SimDuration, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule_at(SimTime::from_millis(10), "b");
//! q.schedule_at(SimTime::from_millis(5), "a");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (SimTime::from_millis(5), "a"));
//! assert_eq!(q.now(), SimTime::from_millis(5));
//! q.schedule_after(SimDuration::from_millis(66), "c");
//! assert_eq!(q.pop().map(|(t, _)| t), Some(SimTime::from_millis(10)));
//! assert_eq!(q.pop(), Some((SimTime::from_millis(71), "c")));
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// A deterministic future-event list for discrete-event simulation.
///
/// The queue carries the simulation clock: popping an event advances
/// [`EventQueue::now`] to that event's timestamp. Time never moves backwards
/// and events may never be scheduled in the past.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Min-heap of `(time, seq, slot)` keys, one per pending event.
    keys: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    /// Event payloads by slot; `None` marks a free slot.
    slots: Vec<Option<E>>,
    /// Free slots, reused before `slots` grows.
    free: Vec<usize>,
    now: SimTime,
    next_seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            keys: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
        }
    }

    /// The current simulation time (the timestamp of the most recently
    /// popped event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Total number of events delivered so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedules `event` at the absolute instant `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current simulation time —
    /// scheduling into the past is always a logic error.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule event at {time} before current time {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(event);
                slot
            }
            None => {
                self.slots.push(Some(event));
                self.slots.len() - 1
            }
        };
        self.keys.push(Reverse((time, seq, slot)));
    }

    /// Schedules `event` at `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        let time = self
            .now
            .checked_add(delay)
            .expect("simulation clock overflow");
        self.schedule_at(time, event);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_due(SimTime::from_nanos(u64::MAX))
    }

    /// [`EventQueue::pop`], but only when the earliest event is at or before
    /// `until`; otherwise the queue is left untouched and `None` is
    /// returned. Event-loop drivers call this instead of a peek/pop pair.
    pub fn pop_due(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? > until {
            return None;
        }
        let Reverse((time, _, slot)) = self.keys.pop()?;
        let event = self.slots[slot]
            .take()
            .expect("a pending key owns its slot");
        self.free.push(slot);
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.popped += 1;
        Some((time, event))
    }

    /// Advances the clock to `time` without delivering anything — the epoch
    /// barrier primitive. A sharded replay drains each shard with
    /// [`EventQueue::pop_due`]`(barrier)` and then aligns every shard's
    /// clock to the barrier so cross-shard messages can be scheduled "now"
    /// on any shard regardless of when its own last event fired.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past, or if an event at or before `time`
    /// is still pending (the caller must drain due events first; skipping
    /// one would silently reorder the replay).
    pub fn advance_to(&mut self, time: SimTime) {
        assert!(
            time >= self.now,
            "cannot advance clock to {time} before current time {now}",
            now = self.now
        );
        if let Some(next) = self.peek_time() {
            assert!(
                next > time,
                "cannot advance clock past a pending event at {next}"
            );
        }
        self.now = time;
    }

    /// The timestamp of the earliest pending event, if any, without popping.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.keys.peek().map(|Reverse((time, _, _))| *time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(30), 3);
        q.schedule_at(SimTime::from_millis(10), 1);
        q.schedule_at(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_after(SimDuration::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), ());
        q.pop();
        q.schedule_at(SimTime::from_millis(5), ());
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), 1);
        q.pop();
        q.schedule_after(SimDuration::from_millis(5), 2);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(15));
    }

    #[test]
    fn peek_does_not_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(4), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(4)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn far_future_events_cross_the_overflow_tier() {
        // An hour out: the clock jumps straight to it once "near" is gone.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3600), "far");
        q.schedule_at(SimTime::from_millis(1), "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3600)));
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(3600), "far"));
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_tiers_keep_global_order() {
        // Mix near, mid and far events and check against a straight sort of
        // the (time, insertion) pairs.
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        let offsets_ms = [0, 1, 70, 200, 3, 500, 65, 2, 1000, 130, 4, 260];
        for (i, ms) in offsets_ms.into_iter().enumerate() {
            q.schedule_at(SimTime::from_millis(ms), i);
            expected.push((SimTime::from_millis(ms), i));
        }
        expected.sort_by_key(|&(t, i)| (t, i));
        let popped: Vec<(SimTime, usize)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped, expected);
        assert_eq!(q.events_processed(), offsets_ms.len() as u64);
    }

    #[test]
    fn insert_into_live_bucket_preserves_order() {
        // Pop one event, then schedule more within the same 100 µs:
        // delivery order must still follow (time, seq).
        let mut q = EventQueue::new();
        let base = SimTime::from_millis(1);
        q.schedule_at(base, 0);
        q.schedule_at(base + SimDuration::from_micros(100), 2);
        assert_eq!(q.pop().unwrap().1, 0);
        q.schedule_at(base + SimDuration::from_micros(50), 1);
        q.schedule_at(base + SimDuration::from_micros(100), 3); // tie with 2
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn pop_due_respects_the_deadline() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), "near");
        q.schedule_at(SimTime::from_secs(900), "far");
        assert_eq!(q.pop_due(SimTime::from_millis(5)), None);
        assert_eq!(
            q.pop_due(SimTime::from_millis(10)),
            Some((SimTime::from_millis(10), "near"))
        );
        // The far event sits beyond the deadline.
        assert_eq!(q.pop_due(SimTime::from_secs(899)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pop_due(SimTime::from_secs(900)),
            Some((SimTime::from_secs(900), "far"))
        );
        assert!(q.is_empty());
    }

    #[test]
    fn pop_due_drains_epoch_boundary_ties_in_stable_id_order() {
        // Events landing exactly on an epoch barrier are due in that epoch
        // (`pop_due` is inclusive) and ties on the boundary instant must
        // drain in stable insertion-id order — the sharded replay depends on
        // both to keep epoch partitioning worker-count-invariant.
        let mut q = EventQueue::new();
        let barrier = SimTime::from_millis(500);
        q.schedule_at(barrier + SimDuration::from_nanos(1), 100);
        for i in 0..5 {
            q.schedule_at(barrier, i);
        }
        q.schedule_at(SimTime::from_millis(499), -1);
        assert_eq!(q.pop_due(barrier), Some((SimTime::from_millis(499), -1)));
        for i in 0..5 {
            let (t, ev) = q.pop_due(barrier).expect("boundary event is due");
            assert_eq!((t, ev), (barrier, i));
        }
        // One nanosecond past the barrier belongs to the next epoch.
        assert_eq!(q.pop_due(barrier), None);
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pop_due(barrier + SimDuration::from_nanos(1)),
            Some((barrier + SimDuration::from_nanos(1), 100))
        );
    }

    #[test]
    fn advance_to_aligns_the_clock_between_epochs() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(3), "a");
        // Past the barrier: stays pending across the clock alignment.
        q.schedule_at(SimTime::from_millis(600), "b");
        let barrier = SimTime::from_millis(500);
        assert_eq!(q.pop_due(barrier).unwrap().1, "a");
        assert_eq!(q.pop_due(barrier), None);
        q.advance_to(barrier);
        assert_eq!(q.now(), barrier);
        // Advancing is idempotent at the same instant and scheduling "now"
        // on the aligned clock works even though no event fired at 500 ms.
        q.advance_to(barrier);
        q.schedule_at(barrier, "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["c", "b"]);
    }

    #[test]
    #[should_panic(expected = "pending event")]
    fn advance_to_refuses_to_skip_pending_events() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), ());
        q.advance_to(SimTime::from_millis(10));
    }
}
