//! The future-event list.

use std::collections::BinaryHeap;

use crate::event::{Entry, EventId};
use crate::time::{SimDuration, SimTime};

/// A deterministic future-event list.
///
/// Events are delivered in non-decreasing time order; events scheduled for
/// the same instant are delivered in the order they were scheduled (stable
/// FIFO). Cancellation is lazy: cancelled events stay in the heap but are
/// skipped when popped.
///
/// The scheduler is the single source of "now" for a simulation: [`next`]
/// advances the clock to the popped event's timestamp.
///
/// # Example
///
/// ```
/// use bgpsim_des::{Scheduler, SimDuration, SimTime};
///
/// let mut sched: Scheduler<u32> = Scheduler::new();
/// sched.schedule(SimTime::from_secs(2), 2);
/// let id = sched.schedule(SimTime::from_secs(1), 1);
/// sched.cancel(id);
/// assert_eq!(sched.next(), Some((SimTime::from_secs(2), 2)));
/// assert_eq!(sched.next(), None);
/// ```
///
/// [`next`]: Scheduler::next
pub struct Scheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Cancel tombstones as a bitset windowed at `tomb_base`: bit
    /// `id - tomb_base` is set iff `id` is cancelled. Event ids are a dense
    /// monotone counter, so a windowed bitset gives O(1) set/test/clear
    /// with no hashing — the pop hot path pays only a `tomb_live == 0`
    /// branch when nothing is cancelled (the common case).
    tomb_bits: Vec<u64>,
    /// Ids below this are settled: delivered or retired by a purge.
    /// `cancel` on them returns `false` without touching the bitset.
    tomb_base: u64,
    /// Number of set bits in `tomb_bits`.
    tomb_live: usize,
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
/// clock, cancel tombstones, the id counter, and the lifetime counters —
/// so a simulation can be snapshotted at a quiescent point and forked:
/// the clone delivers exactly the events (and event ids) the original
/// would, byte for byte. This is the capture/restore primitive behind the
/// warm-start sweep engine in `bgpsim::warm`.
impl<E: Clone> Clone for Scheduler<E> {
    fn clone(&self) -> Self {
        Scheduler {
            heap: self.heap.clone(),
            tomb_bits: self.tomb_bits.clone(),
            tomb_base: self.tomb_base,
            tomb_live: self.tomb_live,
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
            tomb_bits: Vec::new(),
            tomb_base: 0,
            tomb_live: 0,
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

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// Returns an [`EventId`] that can be passed to [`cancel`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`now`] — the simulation cannot
    /// schedule into its own past.
    ///
    /// [`cancel`]: Scheduler::cancel
    /// [`now`]: Scheduler::now
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule event at {at} before current time {}",
            self.now
        );
        let id = self.alloc_id();
        self.heap.push(Entry { at, id, payload });
        id
    }

    /// Schedules `payload` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) -> EventId {
        self.schedule(self.now + delay, payload)
    }

    /// Schedules `payload` to fire at the current instant, after all events
    /// already queued for this instant.
    pub fn schedule_now(&mut self, payload: E) -> EventId {
        self.schedule(self.now, payload)
    }

    /// Allocates the next [`EventId`] without enqueueing anything, counting
    /// it as scheduled.
    ///
    /// This is the id-assignment half of [`schedule`], split out for the
    /// sharded event loop: the shards have already run an epoch's events,
    /// but the events they scheduled must still consume ids in serial
    /// order so that every later id — and therefore every same-instant
    /// tie-break — is byte-identical to a serial run.
    ///
    /// [`schedule`]: Scheduler::schedule
    pub fn alloc_id(&mut self) -> EventId {
        self.alloc_ids(1)
    }

    /// Allocates `n` consecutive ids at once, all counted as scheduled,
    /// and returns the first (the next id, unconsumed, when `n == 0`).
    pub fn alloc_ids(&mut self, n: u64) -> EventId {
        let first = EventId(self.next_id);
        self.next_id += n;
        self.scheduled += n;
        first
    }

    /// Advances the clock to `at` and counts one delivery, without popping.
    ///
    /// The delivery-accounting half of [`next`], split out for the sharded
    /// event loop: the shards deliver an epoch's events from their own
    /// lists, and the central scheduler must still end with
    /// `now`/`delivered` exactly as a serial run would.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`now`].
    ///
    /// [`next`]: Scheduler::next
    pub fn mark_delivered(&mut self, at: SimTime) {
        assert!(at >= self.now, "delivery clock cannot go backwards");
        self.now = at;
        self.delivered += 1;
    }

    /// Advances the clock to `at` and counts `n` deliveries at once.
    ///
    /// Equivalent to `n` [`mark_delivered`](Scheduler::mark_delivered)
    /// calls ending at `at`: the sharded loop settles a whole epoch's
    /// delivery accounting in one step, with `at` the timestamp of the
    /// epoch's last event. A no-op when `n == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 0` and `at` is earlier than [`now`](Scheduler::now).
    pub fn mark_delivered_many(&mut self, at: SimTime, n: u64) {
        if n == 0 {
            return;
        }
        assert!(at >= self.now, "delivery clock cannot go backwards");
        self.now = at;
        self.delivered += n;
    }

    /// Enqueues `payload` at `at` under an id already handed out by
    /// [`alloc_id`](Scheduler::alloc_id), without counting it as scheduled
    /// again.
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

    /// Removes and returns every live event strictly before `bound`, in
    /// delivery order, without advancing the clock or the delivered count.
    ///
    /// Cancelled entries encountered on the way are retired. An event
    /// scheduled exactly at `bound` stays queued — the epoch window is
    /// half-open, matching the serial engine's delivery order for events
    /// that land precisely on an epoch boundary.
    pub fn drain_until(&mut self, bound: SimTime) -> Vec<(SimTime, EventId, E)> {
        let mut out = Vec::new();
        self.drain_until_into(bound, &mut out);
        out
    }

    /// [`drain_until`](Scheduler::drain_until), appending to a reused
    /// buffer.
    pub fn drain_until_into(&mut self, bound: SimTime, out: &mut Vec<(SimTime, EventId, E)>) {
        while let Some(head) = self.heap.peek() {
            if head.at >= bound {
                break;
            }
            let entry = self.heap.pop().expect("peeked entry exists");
            if self.tomb_live > 0 && self.take_tombstone(entry.id) {
                continue;
            }
            out.push((entry.at, entry.id, entry.payload));
        }
    }

    /// Removes and returns every live event in **arbitrary order**, without
    /// advancing the clock or the delivered count.
    ///
    /// The partition step of the sharded engine: at pump start the central
    /// FEL is emptied wholesale and every event is re-inserted into its
    /// owning shard's FEL (via [`insert_allocated`]), so inserts and drains
    /// become shard-local for the rest of the pump. Cancelled entries are
    /// retired on the way out, never returned. Callers must not rely on
    /// the ordering — re-insertion re-establishes the `(time, id)` total
    /// order wherever the events land.
    ///
    /// [`insert_allocated`]: Scheduler::insert_allocated
    pub fn drain_all(&mut self) -> Vec<(SimTime, EventId, E)> {
        let entries = std::mem::take(&mut self.heap);
        let mut out = Vec::with_capacity(entries.len());
        for entry in entries {
            if self.tomb_live > 0 && self.take_tombstone(entry.id) {
                continue;
            }
            out.push((entry.at, entry.id, entry.payload));
        }
        out
    }

    /// Cancels a pending event. Returns `true` if the event had not yet
    /// fired (or been cancelled).
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_id || id.0 < self.tomb_base {
            // Never handed out, or already settled (delivered / retired by
            // a purge — every live heap entry has id >= tomb_base).
            return false;
        }
        let idx = (id.0 - self.tomb_base) as usize;
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        if word >= self.tomb_bits.len() {
            self.tomb_bits.resize(word + 1, 0);
        }
        if self.tomb_bits[word] & bit != 0 {
            return false;
        }
        self.tomb_bits[word] |= bit;
        self.tomb_live += 1;
        self.maybe_purge();
        true
    }

    /// Whether `id` carries a live tombstone.
    fn is_tombstoned(&self, id: EventId) -> bool {
        if id.0 < self.tomb_base {
            return false;
        }
        let idx = (id.0 - self.tomb_base) as usize;
        self.tomb_bits
            .get(idx / 64)
            .is_some_and(|w| w & (1 << (idx % 64)) != 0)
    }

    /// Clears `id`'s tombstone if set; returns whether it was set.
    fn take_tombstone(&mut self, id: EventId) -> bool {
        if id.0 < self.tomb_base {
            return false;
        }
        let idx = (id.0 - self.tomb_base) as usize;
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        match self.tomb_bits.get_mut(word) {
            Some(w) if *w & bit != 0 => {
                *w &= !bit;
                self.tomb_live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Number of live tombstones (cancelled ids not yet retired).
    pub fn tombstone_count(&self) -> usize {
        self.tomb_live
    }

    /// Rebuilds the heap without tombstoned entries once the cancelled set
    /// outgrows the live events.
    ///
    /// Cancellation is lazy, and a cancelled id whose entry was already
    /// popped (or one that is never popped because the simulation drains
    /// first) would otherwise pin its tombstone forever. Rebuilding is
    /// `O(heap)`, amortized against having let at least as many
    /// cancellations accumulate; delivery order is unaffected because
    /// entries are totally ordered by `(time, id)`. The tombstone window
    /// rebases to the smallest surviving id, so the bitset stays small.
    fn maybe_purge(&mut self) {
        const MIN_TOMBSTONES: usize = 64;
        if self.tomb_live < MIN_TOMBSTONES || self.tomb_live * 2 <= self.heap.len() {
            return;
        }
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.retain(|e| !self.is_tombstoned(e.id));
        // Every tombstone either matched an entry just dropped or was
        // already stale (its event popped before the cancel); either way
        // it is spent now. Ids below the smallest survivor are settled.
        self.tomb_base = entries.iter().map(|e| e.id.0).min().unwrap_or(self.next_id);
        self.tomb_bits.clear();
        self.tomb_live = 0;
        self.heap = BinaryHeap::from(entries);
    }

    /// Pops the next live event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when no live events remain (the simulation has
    /// quiesced).
    // Not an `Iterator`: popping mutates the clock and needs `&mut self`
    // with a lifetime-free item; the inherent name matches DES convention.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.tomb_live > 0 && self.take_tombstone(entry.id) {
                continue;
            }
            debug_assert!(entry.at >= self.now, "event queue went backwards");
            self.now = entry.at;
            self.delivered += 1;
            return Some((entry.at, entry.payload));
        }
        None
    }

    /// Timestamp of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(entry) = self.heap.peek() {
            if self.tomb_live > 0 && self.is_tombstoned(entry.id) {
                let entry = self.heap.pop().expect("peeked entry exists");
                self.take_tombstone(entry.id);
                continue;
            }
            return Some(entry.at);
        }
        None
    }

    /// Number of live (not yet fired, not cancelled) events.
    ///
    /// Saturating: a cancellation that raced an already-delivered event
    /// leaves a tombstone with no matching heap entry until the next
    /// purge, and must not make the count wrap.
    pub fn len(&self) -> usize {
        self.heap.len().saturating_sub(self.tomb_live)
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events scheduled over the scheduler's lifetime.
    pub fn scheduled_count(&self) -> u64 {
        self.scheduled
    }

    /// Total events delivered (popped live) over the scheduler's lifetime.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Advances the clock to `t` without delivering anything.
    ///
    /// Useful to stamp a known epoch (e.g. a failure-injection instant) when
    /// the queue is momentarily empty.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past or earlier than a pending event.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "cannot advance clock backwards");
        if let Some(head) = self.peek_time() {
            assert!(
                t <= head,
                "cannot advance clock past the next pending event at {head}"
            );
        }
        self.now = t;
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
    fn cancel_skips_event() {
        let mut s: Scheduler<&str> = Scheduler::new();
        let a = s.schedule(SimTime::from_secs(1), "a");
        s.schedule(SimTime::from_secs(2), "b");
        assert!(s.cancel(a));
        assert!(!s.cancel(a), "double-cancel reports false");
        assert_eq!(s.next().map(|(_, e)| e), Some("b"));
        assert!(s.next().is_none());
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut s: Scheduler<()> = Scheduler::new();
        assert!(!s.cancel(EventId(42)));
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut s: Scheduler<u8> = Scheduler::new();
        let a = s.schedule(SimTime::from_secs(1), 0);
        s.schedule(SimTime::from_secs(2), 1);
        assert_eq!(s.len(), 2);
        s.cancel(a);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        s.next();
        assert!(s.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut s: Scheduler<u8> = Scheduler::new();
        let a = s.schedule(SimTime::from_secs(1), 0);
        s.schedule(SimTime::from_secs(2), 1);
        s.cancel(a);
        assert_eq!(s.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(s.tombstone_count(), 0, "peek retired the tombstone");
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule(SimTime::from_secs(10), 0);
        s.next();
        s.schedule_after(SimDuration::from_secs(5), 1);
        assert_eq!(s.next(), Some((SimTime::from_secs(15), 1)));
    }

    #[test]
    fn schedule_now_runs_after_pending_same_instant() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule(SimTime::ZERO, 0);
        s.schedule_now(1);
        assert_eq!(s.next().unwrap().1, 0);
        assert_eq!(s.next().unwrap().1, 1);
    }

    #[test]
    fn counters_track_lifecycle() {
        let mut s: Scheduler<u8> = Scheduler::new();
        let a = s.schedule(SimTime::from_secs(1), 0);
        s.schedule(SimTime::from_secs(2), 1);
        s.cancel(a);
        while s.next().is_some() {}
        assert_eq!(s.scheduled_count(), 2);
        assert_eq!(s.delivered_count(), 1);
    }

    #[test]
    fn advance_to_moves_idle_clock() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.advance_to(SimTime::from_secs(7));
        assert_eq!(s.now(), SimTime::from_secs(7));
        s.schedule_after(SimDuration::from_secs(1), 9);
        assert_eq!(s.next(), Some((SimTime::from_secs(8), 9)));
    }

    #[test]
    fn purge_drops_tombstones_when_they_outgrow_live_events() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let ids: Vec<EventId> = (0..200u64)
            .map(|i| s.schedule(SimTime::from_secs(i + 1), i as u32))
            .collect();
        for id in &ids[..150] {
            assert!(s.cancel(*id));
        }
        assert!(
            s.tombstone_count() < 150,
            "purge ran and retired tombstones (left: {})",
            s.tombstone_count()
        );
        assert!(s.heap.len() < 200, "purge dropped cancelled heap entries");
        assert_eq!(s.len(), 50);
        let order: Vec<u32> = std::iter::from_fn(|| s.next().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            (150..200).collect::<Vec<_>>(),
            "delivery order survives purges"
        );
    }

    #[test]
    fn purge_retires_stale_tombstones() {
        // Cancelling ids that already fired leaves tombstones with no
        // matching heap entry; the purge must still retire them.
        let mut s: Scheduler<u32> = Scheduler::new();
        let ids: Vec<EventId> = (0..100u64)
            .map(|i| s.schedule(SimTime::from_secs(i + 1), i as u32))
            .collect();
        while s.next().is_some() {}
        for id in &ids {
            s.cancel(*id);
        }
        assert!(
            s.tombstone_count() < ids.len(),
            "stale tombstones were purged"
        );
        assert_eq!(s.len(), 0, "no live events, however many tombstones linger");
        assert!(s.is_empty());
    }

    #[test]
    fn cancel_below_purge_window_reports_dead() {
        // After a purge rebases the tombstone window, ids below the base
        // are settled: cancelling them is a no-op, while still-live events
        // above the base stay cancellable.
        let mut s: Scheduler<u32> = Scheduler::new();
        let ids: Vec<EventId> = (0..200u64)
            .map(|i| s.schedule(SimTime::from_secs(i + 1), i as u32))
            .collect();
        for id in &ids[..150] {
            assert!(s.cancel(*id));
        }
        assert!(s.tombstone_count() < 150, "a purge fired and rebased");
        assert!(!s.cancel(ids[0]), "retired id is settled");
        assert!(s.cancel(ids[170]), "live id above the window base");
        let order: Vec<u32> = std::iter::from_fn(|| s.next().map(|(_, e)| e)).collect();
        let expected: Vec<u32> = (150..200).filter(|&i| i != 170).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn clone_captures_full_state_and_forks_identically() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 0..50u64 {
            s.schedule(SimTime::from_secs(i + 1), i as u32);
        }
        let cancel_me = s.schedule(SimTime::from_secs(100), 999);
        s.cancel(cancel_me);
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
    fn purge_mid_run_preserves_order_under_cancellation_heavy_load() {
        // Regression for the cancel-tombstone purge: heavy cancellation of
        // far-future events while the simulation is already draining, so a
        // purge fires mid-run (not just up front). Delivery order of the
        // survivors and the live-event count must be unaffected, and the
        // purge must physically shrink the heap.
        let mut s: Scheduler<u32> = Scheduler::new();
        let ids: Vec<EventId> = (0..600u64)
            .map(|i| s.schedule(SimTime::from_secs(i + 1), i as u32))
            .collect();
        let mut gone = std::collections::HashSet::new();
        let mut delivered = Vec::new();

        // Drain the first 50, then cancel most of the far future (285
        // events): enough tombstones to outgrow the live heap and trip the
        // purge mid-wave.
        for _ in 0..50 {
            delivered.push(s.next().expect("events pending").1);
        }
        for (i, &id) in ids.iter().enumerate().take(600).skip(300) {
            if i % 20 != 0 {
                assert!(s.cancel(id), "event {i} is pending");
                gone.insert(i as u32);
            }
        }
        assert!(
            s.heap.len() < 600 - delivered.len(),
            "purge never fired: heap still holds {} entries",
            s.heap.len()
        );
        assert_eq!(s.len(), 600 - delivered.len() - gone.len());

        // Keep draining and cancel a second wave in the middle range.
        for _ in 0..50 {
            delivered.push(s.next().expect("events pending").1);
        }
        for i in (100..300).step_by(2) {
            assert!(s.cancel(ids[i]), "event {i} is pending");
            gone.insert(i as u32);
        }

        delivered.extend(std::iter::from_fn(|| s.next().map(|(_, p)| p)));
        let expected: Vec<u32> = (0..600u32).filter(|p| !gone.contains(p)).collect();
        assert_eq!(delivered, expected, "purges must not perturb delivery");
        assert_eq!(s.len(), 0);
        assert_eq!(
            s.tombstone_count(),
            0,
            "all tombstones were spent (left: {})",
            s.tombstone_count()
        );
    }

    #[test]
    fn drain_until_is_strict_and_preserves_clock() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule(SimTime::from_millis(10), 0);
        s.schedule(SimTime::from_millis(20), 1);
        let boundary = s.schedule(SimTime::from_millis(25), 2);
        s.schedule(SimTime::from_millis(30), 3);
        let drained = s.drain_until(SimTime::from_millis(25));
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
        let _ = boundary;
    }

    #[test]
    fn drain_until_retires_tombstones() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let a = s.schedule(SimTime::from_millis(1), 0);
        s.schedule(SimTime::from_millis(2), 1);
        s.cancel(a);
        let drained = s.drain_until(SimTime::from_millis(10));
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].2, 1);
        assert_eq!(s.tombstone_count(), 0);
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
        for (at, _id, _p) in split.drain_until(SimTime::from_millis(8)) {
            split.mark_delivered(at);
        }
        let alloc = split.alloc_id();
        assert_eq!(alloc, after, "alloc_id tracks the serial id counter");
        assert_eq!(split.now(), serial.now());
        assert_eq!(split.delivered_count(), serial.delivered_count());
        assert_eq!(split.scheduled_count(), serial.scheduled_count());
    }

    #[test]
    fn alloc_ids_is_a_block_of_alloc_id_calls() {
        let mut one: Scheduler<u32> = Scheduler::new();
        let mut block: Scheduler<u32> = Scheduler::new();
        let ids: Vec<EventId> = (0..3).map(|_| one.alloc_id()).collect();
        assert_eq!(
            block.alloc_ids(0),
            EventId(0),
            "an empty block consumes nothing"
        );
        assert_eq!(block.alloc_ids(3), ids[0]);
        assert_eq!(block.scheduled_count(), one.scheduled_count());
        assert_eq!(block.alloc_id(), one.alloc_id());
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
        let a = split.alloc_id();
        let b = split.alloc_id();
        let c = split.alloc_id();
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
        let dead = src.schedule(SimTime::from_millis(5), 999);
        assert!(src.cancel(dead));
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
            one.mark_delivered(SimTime::from_millis(i));
        }
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

    #[test]
    #[should_panic(expected = "past the next pending event")]
    fn advance_past_pending_event_panics() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule(SimTime::from_secs(1), 0);
        s.advance_to(SimTime::from_secs(2));
    }
}
