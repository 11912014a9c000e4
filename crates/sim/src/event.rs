//! Deterministic event queue.
//!
//! The queue delivers events in `(time, insertion)` order: two events
//! scheduled for the same instant are delivered in insertion order, which
//! keeps simulations reproducible bit-for-bit.
//!
//! # Implementation
//!
//! A monotone radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, 1990).
//! Simulated time never moves backwards, so no pending event is earlier
//! than `last`, the time of the most recent refill. An event at `last`
//! waits in the `due` FIFO; any other event waits in bucket `i`, where bit
//! `i` is the highest bit in which its time differs from `last`. Scheduling
//! appends to one list. When `due` runs dry, the lowest non-empty bucket
//! holds the minimum: `last` moves to it and that bucket's entries are
//! re-placed, in list order, into `due` and strictly lower buckets. An
//! event moves at most 64 times over its life, each move a sequential
//! append, where a binary heap sifts through `log2(len)` random levels on
//! every pop.
//!
//! Ties need no sequence number. A push appends the newest event, and a
//! refill moves one list, in order, into lists that are all empty at that
//! moment; so every list stays in insertion order and equal times pop
//! FIFO.
//!
//! A bucketed event's payload sits in a slab slot that is reused through a
//! free list, so the buckets move 16-byte `(time, slot)` entries however
//! large the events are. `due` holds payloads, not slots: the refill that
//! makes an entry due takes its payload out of the slab, frees the slot
//! and appends the payload to `due`, and a push at `last` appends straight
//! to `due` without a slot. At a deep queue the slab is far larger than
//! the cache, so each take is a miss. In the refill loop those loads do
//! not depend on one another and the CPU overlaps their misses, where a
//! take at each pop would wait for its own miss between handlers that
//! miss on their own records. At a shallow queue nothing misses, and the
//! extra move through `due` costs a few percent (EXPERIMENTS.md, "Gathered
//! due payloads"). `sim_properties::event_queue_total_order` and
//! `sim_properties::event_queue_delivers_each_payload_once` check
//! delivery against a sorted reference.
//!
//! [`EventQueue::due`] lends out the payloads in `due` without popping
//! them. One refill makes a whole instant's batch due at once (at 100k
//! cameras on a millisecond grid, ~100 frames), so a consumer learns every
//! record the batch's handlers will read before the first of them runs.
//! Reading those records in one short loop overlaps their misses the way
//! the refill overlaps the slab's, where each handler would otherwise wait
//! for its own (`World::run_until` in `microedge-core` does this;
//! EXPERIMENTS.md, "Warmed due records").
//!
//! [`EventQueue::pending_until`] lends out every pending payload at or
//! before a deadline, in no set order: the `due` FIFO when `last` is not
//! past the deadline, then each bucketed entry that is not past it,
//! through its slab slot. The buckets' time ranges ascend with their
//! index, so the walk stops at the first bucket that starts past the
//! deadline. When batches are small, `due` has too little in it to
//! overlap. A sharded replay then reads the records of a whole epoch's
//! events in one pass before the shard runs the epoch, and so takes those
//! misses together (`World::warm_until`; EXPERIMENTS.md, "Warm shard
//! epochs"). `sim_properties::pending_until_is_what_pop_due_delivers`
//! checks the set against the pops that follow.
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

use std::collections::VecDeque;

use crate::time::{SimDuration, SimTime};

/// One bucket per bit of a [`SimTime`].
const BUCKETS: usize = 64;

/// A refill keeps the emptied bucket's buffer for its next fill only up to
/// this capacity (or a quarter of the pending count, if larger). Dropping
/// larger buffers keeps retained capacity near the pending count; kept,
/// they climb to several times it.
const KEPT_CAPACITY: usize = 64;

/// A deterministic future-event list for discrete-event simulation.
///
/// The queue carries the simulation clock: popping an event advances
/// [`EventQueue::now`] to that event's timestamp. Time never moves backwards
/// and events may never be scheduled in the past.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `buckets[i]`: `(time, slot)` of the pending events whose time first
    /// differs from `last` at bit `i`, in insertion order.
    buckets: [Vec<(SimTime, usize)>; BUCKETS],
    /// Bit `i` is set when `buckets[i]` is non-empty.
    occupied: u64,
    /// Payloads of the pending events at `last`, in insertion order.
    due: VecDeque<E>,
    /// Time of the most recent refill; never later than `now`.
    last: SimTime,
    /// Payloads of the bucketed events by slot; `None` marks a free slot.
    slots: Vec<Option<E>>,
    /// Free slots, reused before `slots` grows.
    free: Vec<usize>,
    now: SimTime,
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
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            due: VecDeque::new(),
            last: SimTime::ZERO,
            slots: Vec::new(),
            free: Vec::new(),
            now: SimTime::ZERO,
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
        self.slots.len() - self.free.len() + self.due.len()
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        if time == self.last {
            self.due.push_back(event);
            return;
        }
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
        self.file(time, slot);
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
        if self.due.is_empty() {
            let (bucket, min) = self.lowest_bucket()?;
            if min > until {
                return None;
            }
            self.refill(bucket, min);
        } else if self.last > until {
            return None;
        }
        let event = self.due.pop_front()?;
        debug_assert!(self.last >= self.now, "event queue went backwards");
        self.now = self.last;
        self.popped += 1;
        Some((self.now, event))
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

    /// The payloads of the events already due at [`EventQueue::now`], in
    /// the order the next pops deliver them; the queue does not change.
    ///
    /// After any pop this is every event still pending at `now`, including
    /// those scheduled at `now` since, and it is empty once the next pending
    /// event is later. Right after [`EventQueue::advance_to`] moves the
    /// clock it may be empty while events at `now` wait in a bucket; the
    /// next pop moves them here. An event loop reads it to warm the
    /// records its handlers are about to touch (see the module docs).
    ///
    /// # Examples
    ///
    /// ```
    /// use microedge_sim::event::EventQueue;
    /// use microedge_sim::time::SimTime;
    ///
    /// let mut q = EventQueue::new();
    /// let t = SimTime::from_millis(5);
    /// q.schedule_at(t, "a");
    /// q.schedule_at(t, "b");
    /// q.schedule_at(SimTime::from_millis(9), "c");
    /// assert_eq!(q.pop(), Some((t, "a")));
    /// q.schedule_at(t, "d");
    /// assert!(q.due().eq(&["b", "d"]));
    /// q.pop();
    /// q.pop();
    /// assert_eq!(q.due().count(), 0);
    /// ```
    pub fn due(&self) -> impl Iterator<Item = &E> + '_ {
        self.due.iter()
    }

    /// The payloads of every pending event at or before `until`, in no
    /// particular order; the queue does not change. These are exactly the
    /// events that [`EventQueue::pop_due`]`(until)` calls would deliver if
    /// nothing were scheduled in between (see the module docs).
    ///
    /// # Examples
    ///
    /// ```
    /// use microedge_sim::event::EventQueue;
    /// use microedge_sim::time::SimTime;
    ///
    /// let mut q = EventQueue::new();
    /// q.schedule_at(SimTime::from_millis(9), "c");
    /// q.schedule_at(SimTime::from_millis(5), "a");
    /// q.schedule_at(SimTime::from_millis(5), "b");
    /// let mut due: Vec<_> = q.pending_until(SimTime::from_millis(5)).collect();
    /// due.sort();
    /// assert_eq!(due, [&"a", &"b"]);
    /// assert_eq!(q.len(), 3);
    /// ```
    pub fn pending_until(&self, until: SimTime) -> impl Iterator<Item = &E> + '_ {
        let due = if self.last <= until {
            self.due.len()
        } else {
            0
        };
        // Bucket `i` holds times that share the bits above `i` with `last`
        // and have bit `i` set, so the buckets' ranges ascend with `i`: the
        // first bucket that starts past `until` ends the walk.
        let last = self.last.as_nanos();
        let buckets = (0u32..).zip(&self.buckets).take_while(move |&(i, _)| {
            let above = u64::MAX.checked_shl(i + 1).unwrap_or(0);
            last & above | 1 << i <= until.as_nanos()
        });
        self.due.iter().take(due).chain(
            buckets
                .flat_map(|(_, bucket)| bucket)
                .filter(move |&&(t, _)| t <= until)
                .filter_map(|&(_, slot)| self.slots.get(slot)?.as_ref()),
        )
    }

    /// The timestamp of the earliest pending event, if any, without popping.
    /// Scans the lowest bucket but never refills, so `last` stays at or
    /// before `now` and a later `schedule_at(now)` cannot land below it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.due.is_empty() {
            self.lowest_bucket().map(|(_, min)| min)
        } else {
            Some(self.last)
        }
    }

    /// Files a pending entry later than `last` at the end of the bucket of
    /// the highest bit in which its time differs from `last`.
    fn file(&mut self, time: SimTime, slot: usize) {
        let diff = time.as_nanos() ^ self.last.as_nanos();
        debug_assert_ne!(diff, 0, "an entry at `last` belongs in `due`");
        let bucket = BUCKETS - 1 - diff.leading_zeros() as usize;
        self.buckets[bucket].push((time, slot));
        self.occupied |= 1 << bucket;
    }

    /// The lowest non-empty bucket and its earliest time.
    fn lowest_bucket(&self) -> Option<(usize, SimTime)> {
        let bucket = self.occupied.trailing_zeros() as usize;
        let min = self.buckets.get(bucket)?.iter().map(|&(t, _)| t).min()?;
        Some((bucket, min))
    }

    /// Moves `last` up to `min`, the earliest time in `bucket`, and
    /// re-places that bucket's entries in list order. They all share the
    /// bits above `bucket` with the new `last`, so each lands in `due` or a
    /// lower bucket, every one of them empty until now. An entry at `min`
    /// leaves its slot here: its payload moves into `due`.
    fn refill(&mut self, bucket: usize, min: SimTime) {
        self.last = min;
        self.occupied &= !(1 << bucket);
        let mut entries = std::mem::take(&mut self.buckets[bucket]);
        for &(time, slot) in &entries {
            if time == min {
                let event = self.slots[slot]
                    .take()
                    .expect("a pending entry owns its slot");
                self.free.push(slot);
                self.due.push_back(event);
            } else {
                self.file(time, slot);
            }
        }
        if entries.capacity() <= KEPT_CAPACITY.max(self.len() / 4) {
            entries.clear();
            self.buckets[bucket] = entries;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

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
    fn far_future_event_pops_after_near_ones() {
        // An hour out lands in a high bucket; once "near" is gone the clock
        // jumps straight to it.
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
    fn scattered_times_pop_in_global_order() {
        // Times spread over many buckets, with repeats, checked against a
        // straight sort of the (time, insertion) pairs.
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        let offsets_ms = [0, 1, 70, 200, 3, 500, 65, 2, 1000, 130, 4, 260, 70, 0];
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
    fn schedule_between_pops_preserves_order() {
        // After the first pop refills, new events land below and on a
        // pending time already filed in a bucket: delivery order must
        // still follow (time, insertion).
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
    fn retained_bucket_capacity_stays_bounded() {
        // The perfbench hold model: pop the earliest event and reschedule
        // it within a 1 s horizon, cycling through 4096 uniform draws, for
        // 100 simulated seconds. Buffers a refill empties must not pile up
        // capacity far beyond the pending count.
        let horizon = SimDuration::from_secs(1).as_nanos();
        for depth in [2_000, 100_000] {
            let mut rng = DetRng::seed_from(depth as u64);
            let mut q = EventQueue::new();
            for e in 0..depth {
                q.schedule_at(SimTime::from_nanos(rng.uniform_range(0, horizon)), e);
            }
            let jitter: Vec<SimDuration> = (0..4096)
                .map(|_| SimDuration::from_nanos(rng.uniform_range(1, horizon)))
                .collect();
            let bound = 4 * depth + BUCKETS * KEPT_CAPACITY;
            for delay in jitter.iter().cycle() {
                let (at, e) = q.pop().expect("the hold keeps the queue full");
                if at > SimTime::from_secs(100) {
                    break;
                }
                q.schedule_at(at + *delay, e);
                // A grown buffer lives until its bucket's next refill, so
                // sampling every 64 holds sees it (and keeps debug runs
                // short).
                if q.events_processed() % 64 != 0 {
                    continue;
                }
                let capacity: usize = q.buckets.iter().map(Vec::capacity).sum();
                assert!(
                    capacity <= bound,
                    "{capacity} entries of bucket capacity at depth {depth}, at {at}"
                );
            }
        }
    }

    #[test]
    fn hold_keeps_the_slab_within_the_largest_pending_count() {
        // A steady hold over whole milliseconds within one frame interval,
        // so every refill makes a batch due and some reschedules land at
        // `now`: slots freed at refill are reused, and the slab never
        // outgrows the most events pending at once.
        let mut rng = DetRng::seed_from(7);
        let mut q = EventQueue::new();
        for e in 0..2_000 {
            q.schedule_at(SimTime::from_millis(rng.uniform_range(0, 67)), e);
        }
        let mut most_pending = q.len();
        for _ in 0..50_000 {
            let (at, e) = q.pop().expect("the hold keeps the queue full");
            q.schedule_at(at + SimDuration::from_millis(rng.uniform_range(0, 67)), e);
            most_pending = most_pending.max(q.len());
            assert!(q.slots.len() <= most_pending, "{} slots", q.slots.len());
        }
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
