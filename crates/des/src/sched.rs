//! The future-event list.

use std::collections::BinaryHeap;

use crate::event::{Entry, EventId};
use crate::time::SimTime;

/// A deterministic future-event list.
///
/// Events are delivered in non-decreasing time order; events scheduled for
/// the same instant are delivered in the order they were scheduled (stable
/// FIFO). Every scheduled event is delivered: a timer that should no
/// longer act carries a generation counter, and its handler ignores it
/// when it arrives stale.
///
/// The scheduler is the single source of "now" for a simulation: [`next`]
/// advances the clock to the popped event's timestamp.
///
/// # Example
///
/// ```
/// use bgpsim_des::{Scheduler, SimTime};
///
/// let mut sched: Scheduler<u32> = Scheduler::new();
/// sched.schedule(SimTime::from_secs(2), 2);
/// sched.schedule(SimTime::from_secs(1), 1);
/// assert_eq!(sched.next(), Some((SimTime::from_secs(1), 1)));
/// assert_eq!(sched.next(), Some((SimTime::from_secs(2), 2)));
/// assert_eq!(sched.next(), None);
/// ```
///
/// [`next`]: Scheduler::next
pub struct Scheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    next_id: u64,
    scheduled: u64,
    delivered: u64,
}

impl<E> std::fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("scheduled", &self.scheduled)
            .field("delivered", &self.delivered)
            .finish()
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler::new()
    }
}

/// Cloning a scheduler captures its complete state — pending events, the
/// clock, the id counter, and the lifetime counters — so a simulation can
/// be forked at a quiescent point: the clone delivers exactly the events
/// (and event ids) the original would, byte for byte. The parallel
/// experiment runner in `bgpsim` forks converged networks this way.
impl<E: Clone> Clone for Scheduler<E> {
    fn clone(&self) -> Self {
        Scheduler {
            heap: self.heap.clone(),
            now: self.now,
            next_id: self.next_id,
            scheduled: self.scheduled,
            delivered: self.delivered,
        }
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Scheduler<E> {
        Scheduler {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_id: 0,
            scheduled: 0,
            delivered: 0,
        }
    }

    /// Current simulation time: the timestamp of the most recently delivered
    /// event (or [`SimTime::ZERO`] before the first delivery).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire at absolute time `at`, returning the
    /// event's id (ids break ties between same-instant events).
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`now`] — the simulation cannot
    /// schedule into its own past.
    ///
    /// [`now`]: Scheduler::now
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule event at {at} before current time {}",
            self.now
        );
        let id = self.alloc_ids(1);
        self.heap.push(Entry { at, id, payload });
        id
    }

    /// Allocates `n` consecutive ids without enqueueing anything, all
    /// counted as scheduled, and returns the first (the next id,
    /// unconsumed, when `n == 0`).
    ///
    /// This is the id-assignment half of [`schedule`], split out for the
    /// sharded event loop: the shards have already run an epoch's events,
    /// but the events they scheduled must still consume ids in serial
    /// order so that every later id — and therefore every same-instant
    /// tie-break — is byte-identical to a serial run.
    ///
    /// [`schedule`]: Scheduler::schedule
    pub fn alloc_ids(&mut self, n: u64) -> EventId {
        let first = EventId(self.next_id);
        self.next_id += n;
        self.scheduled += n;
        first
    }

    /// Advances the clock to `at` and counts `n` deliveries at once,
    /// without popping.
    ///
    /// The delivery-accounting half of [`next`]: the sharded loop delivers
    /// an epoch's events from the shards' own lists, then settles the
    /// central scheduler's accounting in one step, with `at` the timestamp
    /// of the epoch's last event, so `now`/`delivered` end exactly as a
    /// serial run's would. A no-op when `n == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 0` and `at` is earlier than [`now`](Scheduler::now).
    ///
    /// [`next`]: Scheduler::next
    pub fn mark_delivered_many(&mut self, at: SimTime, n: u64) {
        if n == 0 {
            return;
        }
        assert!(at >= self.now, "delivery clock cannot go backwards");
        self.now = at;
        self.delivered += n;
    }

    /// Enqueues `payload` at `at` under an id already handed out by
    /// [`alloc_ids`](Scheduler::alloc_ids), without counting it as
    /// scheduled again.
    ///
    /// The enqueue half of [`schedule`](Scheduler::schedule), for the
    /// sharded engine: the shards build the payloads during an epoch, the
    /// walk allocates their ids in serial order, and each destination
    /// shard's FEL receives them here. Delivery order is
    /// unaffected by insertion order — entries are totally ordered by
    /// `(time, id)` — and the id may come from a *different* scheduler's
    /// counter (the shard-owned FELs never allocate ids themselves; the
    /// central walk does). This scheduler's own counter is bumped past
    /// `id` so a later local allocation can never collide with it.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`now`](Scheduler::now).
    pub fn insert_allocated(&mut self, at: SimTime, id: EventId, payload: E) {
        assert!(
            at >= self.now,
            "cannot schedule event at {at} before current time {}",
            self.now
        );
        self.next_id = self.next_id.max(id.0 + 1);
        self.heap.push(Entry { at, id, payload });
    }

    /// Removes every event strictly before `bound` and appends it to `out`
    /// in delivery order, without advancing the clock or the delivered
    /// count.
    ///
    /// An event scheduled exactly at `bound` stays queued — the epoch
    /// window is half-open, matching the serial engine's delivery order
    /// for events that land precisely on an epoch boundary.
    pub fn drain_until_into(&mut self, bound: SimTime, out: &mut Vec<(SimTime, EventId, E)>) {
        while self.heap.peek().is_some_and(|head| head.at < bound) {
            let entry = self.heap.pop().expect("peeked entry exists");
            out.push((entry.at, entry.id, entry.payload));
        }
    }

    /// Removes and returns every pending event in **arbitrary order**,
    /// without advancing the clock or the delivered count.
    ///
    /// The partition step of the sharded engine: at pump start the central
    /// FEL is emptied wholesale and every event is re-inserted into its
    /// owning shard's FEL (via [`insert_allocated`]), so inserts and drains
    /// become shard-local for the rest of the pump. Callers must not rely
    /// on the ordering — re-insertion re-establishes the `(time, id)` total
    /// order wherever the events land.
    ///
    /// [`insert_allocated`]: Scheduler::insert_allocated
    pub fn drain_all(&mut self) -> Vec<(SimTime, EventId, E)> {
        std::mem::take(&mut self.heap)
            .into_iter()
            .map(|entry| (entry.at, entry.id, entry.payload))
            .collect()
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when no events remain (the simulation has quiesced).
    // Not an `Iterator`: popping mutates the clock and needs `&mut self`
    // with a lifetime-free item; the inherent name matches DES convention.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "event queue went backwards");
        self.now = entry.at;
        self.delivered += 1;
        Some((entry.at, entry.payload))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|entry| entry.at)
    }

    /// Number of pending (not yet fired) events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events scheduled over the scheduler's lifetime.
    pub fn scheduled_count(&self) -> u64 {
        self.scheduled
    }

    /// Total events delivered (popped) over the scheduler's lifetime.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule(SimTime::from_secs(3), 3);
        s.schedule(SimTime::from_secs(1), 1);
        s.schedule(SimTime::from_secs(2), 2);
        let order: Vec<u32> = std::iter::from_fn(|| s.next().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(s.now(), SimTime::from_secs(3));
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 0..100 {
            s.schedule(SimTime::from_secs(5), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| s.next().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn counters_track_lifecycle() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule(SimTime::from_secs(1), 0);
        s.schedule(SimTime::from_secs(2), 1);
        assert_eq!(s.len(), 2);
        s.next();
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        while s.next().is_some() {}
        assert!(s.is_empty());
        assert_eq!(s.scheduled_count(), 2);
        assert_eq!(s.delivered_count(), 2);
    }

    #[test]
    fn clone_captures_full_state_and_forks_identically() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 0..50u64 {
            s.schedule(SimTime::from_secs(i + 1), i as u32);
        }
        for _ in 0..10 {
            s.next();
        }
        let mut fork = s.clone();
        assert_eq!(fork.now(), s.now());
        assert_eq!(fork.len(), s.len());
        assert_eq!(fork.scheduled_count(), s.scheduled_count());
        assert_eq!(fork.delivered_count(), s.delivered_count());
        // Ids continue from the same counter in both, so later schedules
        // interleave identically with pending events.
        let a = s.schedule(SimTime::from_secs(30), 7777);
        let b = fork.schedule(SimTime::from_secs(30), 7777);
        assert_eq!(a, b, "forked schedulers hand out the same event ids");
        let rest: Vec<(SimTime, u32)> = std::iter::from_fn(|| s.next()).collect();
        let fork_rest: Vec<(SimTime, u32)> = std::iter::from_fn(|| fork.next()).collect();
        assert_eq!(rest, fork_rest, "fork must deliver the identical tail");
        assert_eq!(s.delivered_count(), fork.delivered_count());
    }

    #[test]
    fn drain_until_is_strict_and_preserves_clock() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule(SimTime::from_millis(10), 0);
        s.schedule(SimTime::from_millis(20), 1);
        s.schedule(SimTime::from_millis(25), 2);
        s.schedule(SimTime::from_millis(30), 3);
        let mut drained = Vec::new();
        s.drain_until_into(SimTime::from_millis(25), &mut drained);
        assert_eq!(
            drained
                .iter()
                .map(|&(at, id, p)| (at, id.as_u64(), p))
                .collect::<Vec<_>>(),
            vec![
                (SimTime::from_millis(10), 0, 0),
                (SimTime::from_millis(20), 1, 1),
            ],
            "an event exactly on the bound stays queued"
        );
        assert_eq!(s.now(), SimTime::ZERO, "drain does not advance the clock");
        assert_eq!(s.delivered_count(), 0, "drained events are not delivered");
        assert_eq!(s.len(), 2);
        assert_eq!(s.peek_time(), Some(SimTime::from_millis(25)));
    }

    #[test]
    fn alloc_id_and_mark_delivered_match_serial_accounting() {
        // Replaying `schedule` + `next` through the split APIs must leave
        // identical observable state.
        let mut serial: Scheduler<u32> = Scheduler::new();
        serial.schedule(SimTime::from_millis(5), 10);
        serial.schedule(SimTime::from_millis(7), 11);
        serial.next();
        serial.next();
        let after = serial.schedule(SimTime::from_millis(9), 12);

        let mut split: Scheduler<u32> = Scheduler::new();
        split.schedule(SimTime::from_millis(5), 10);
        split.schedule(SimTime::from_millis(7), 11);
        let mut drained = Vec::new();
        split.drain_until_into(SimTime::from_millis(8), &mut drained);
        let (last, _, _) = *drained.last().expect("two events drained");
        split.mark_delivered_many(last, drained.len() as u64);
        let alloc = split.alloc_ids(1);
        assert_eq!(alloc, after, "alloc_ids tracks the serial id counter");
        assert_eq!(split.now(), serial.now());
        assert_eq!(split.delivered_count(), serial.delivered_count());
        assert_eq!(split.scheduled_count(), serial.scheduled_count());
    }

    #[test]
    fn alloc_ids_is_a_block_of_alloc_id_calls() {
        let mut one: Scheduler<u32> = Scheduler::new();
        let mut block: Scheduler<u32> = Scheduler::new();
        let ids: Vec<EventId> = (0..3).map(|_| one.alloc_ids(1)).collect();
        assert_eq!(
            block.alloc_ids(0),
            EventId(0),
            "an empty block consumes nothing"
        );
        assert_eq!(block.alloc_ids(3), ids[0]);
        assert_eq!(block.scheduled_count(), one.scheduled_count());
        assert_eq!(block.alloc_ids(1), one.alloc_ids(1));
    }

    #[test]
    fn drain_until_into_appends_in_delivery_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule(SimTime::from_millis(2), 1);
        s.schedule(SimTime::from_millis(1), 0);
        s.schedule(SimTime::from_millis(3), 2);
        let mut out = vec![(SimTime::ZERO, EventId(99), 9)];
        s.drain_until_into(SimTime::from_millis(3), &mut out);
        let payloads: Vec<u32> = out.iter().map(|&(_, _, p)| p).collect();
        assert_eq!(payloads, vec![9, 0, 1], "appends after existing entries");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn insert_allocated_matches_schedule_order_and_counts() {
        // alloc first, insert later, in arbitrary insertion order — the
        // delivery order and lifetime counters must match a plain
        // `schedule` sequence with the same (time, id) pairs.
        let mut serial: Scheduler<u32> = Scheduler::new();
        serial.schedule(SimTime::from_millis(5), 0);
        serial.schedule(SimTime::from_millis(5), 1);
        serial.schedule(SimTime::from_millis(3), 2);

        let mut split: Scheduler<u32> = Scheduler::new();
        let a = split.alloc_ids(1);
        let b = split.alloc_ids(1);
        let c = split.alloc_ids(1);
        // Insert out of id order: total (time, id) order still governs.
        split.insert_allocated(SimTime::from_millis(3), c, 2);
        split.insert_allocated(SimTime::from_millis(5), b, 1);
        split.insert_allocated(SimTime::from_millis(5), a, 0);
        assert_eq!(split.scheduled_count(), serial.scheduled_count());
        assert_eq!(split.len(), serial.len());
        let x: Vec<_> = std::iter::from_fn(|| split.next()).collect();
        let y: Vec<_> = std::iter::from_fn(|| serial.next()).collect();
        assert_eq!(x, y, "insert_allocated must not perturb delivery order");
    }

    #[test]
    fn drain_all_then_insert_allocated_keeps_delivery_order() {
        // Partition round-trip: drain one list wholesale, re-insert into a
        // fresh list, and the delivery order must be the original
        // (time, id) order — drain_all's arbitrary ordering must not be
        // observable.
        let mut src: Scheduler<u32> = Scheduler::new();
        for i in 0..25u64 {
            src.schedule(SimTime::from_millis(i * 17 % 60), i as u32);
        }
        let mut reference = src.clone();
        let mut dst: Scheduler<u32> = Scheduler::new();
        for (at, id, p) in src.drain_all() {
            dst.insert_allocated(at, id, p);
        }
        assert!(src.is_empty());
        assert_eq!(dst.len(), 25);
        let got: Vec<_> = std::iter::from_fn(|| dst.next()).collect();
        let want: Vec<_> = std::iter::from_fn(|| reference.next()).collect();
        assert_eq!(got, want, "partition round-trip reordered deliveries");
    }

    #[test]
    fn mark_delivered_many_batches_accounting() {
        let mut one: Scheduler<u8> = Scheduler::new();
        for i in 1..=5u64 {
            one.schedule(SimTime::from_millis(i), 0);
        }
        while one.next().is_some() {}
        let mut many: Scheduler<u8> = Scheduler::new();
        many.mark_delivered_many(SimTime::from_millis(5), 5);
        assert_eq!(many.now(), one.now());
        assert_eq!(many.delivered_count(), one.delivered_count());
        many.mark_delivered_many(SimTime::from_millis(4), 0); // no-op, no panic
        assert_eq!(many.now(), SimTime::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_past_panics() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule(SimTime::from_secs(5), 0);
        s.next();
        s.schedule(SimTime::from_secs(1), 1);
    }
}
