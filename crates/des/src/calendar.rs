//! A calendar-queue future-event list.
//!
//! The classic discrete-event alternative to a binary heap (Brown 1988):
//! events hash into fixed-width time buckets ("days"); the dequeue scans
//! the current day and wraps around the "year". For workloads whose events
//! cluster within a known horizon — like BGP's MRAI/processing timers,
//! which live within a few seconds of *now* — enqueue and dequeue are O(1)
//! amortized instead of the heap's O(log n).
//!
//! [`CalendarQueue`] is API-compatible with [`Scheduler`](crate::Scheduler)
//! (schedule / cancel / next / peek) and delivers events in exactly the
//! same order: non-decreasing time, FIFO within a timestamp. A property
//! test in the workspace drives both with identical inputs and asserts
//! equal outputs; the Criterion benches compare their throughput.

use std::collections::VecDeque;

use crate::event::EventId;
use crate::time::{SimDuration, SimTime};

/// One stored event.
#[derive(Clone)]
struct Entry<E> {
    at: SimTime,
    id: EventId,
    payload: Option<E>, // None = cancelled (lazy deletion)
}

/// A calendar-queue scheduler, API-compatible with
/// [`Scheduler`](crate::Scheduler).
///
/// ```
/// use bgpsim_des::{CalendarQueue, SimDuration, SimTime};
///
/// let mut q: CalendarQueue<&'static str> = CalendarQueue::new();
/// q.schedule(SimTime::from_secs(2), "late");
/// let id = q.schedule(SimTime::from_secs(1), "cancelled");
/// q.cancel(id);
/// assert_eq!(q.next(), Some((SimTime::from_secs(2), "late")));
/// assert_eq!(q.next(), None);
/// ```
pub struct CalendarQueue<E> {
    /// Buckets, each FIFO-ordered by insertion (we insert in arrival order
    /// and scan in timestamp order).
    buckets: Vec<VecDeque<Entry<E>>>,
    /// Width of one bucket in nanoseconds.
    bucket_width: u64,
    /// Index of the bucket the clock currently points into.
    cursor: usize,
    /// Start time of the cursor bucket.
    cursor_start: u64,
    now: SimTime,
    next_id: u64,
    live: usize,
    delivered: u64,
    scheduled: u64,
}

impl<E> std::fmt::Debug for CalendarQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("now", &self.now)
            .field("pending", &self.live)
            .field("buckets", &self.buckets.len())
            .field("bucket_width_ns", &self.bucket_width)
            .finish()
    }
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

/// Cloning captures complete state (pending events, clock, counters), so a
/// calendar-backed simulation snapshots and forks exactly like a heap-backed
/// one — the warm-start engine requires this from any future-event list.
impl<E: Clone> Clone for CalendarQueue<E> {
    fn clone(&self) -> Self {
        CalendarQueue {
            buckets: self.buckets.clone(),
            bucket_width: self.bucket_width,
            cursor: self.cursor,
            cursor_start: self.cursor_start,
            now: self.now,
            next_id: self.next_id,
            live: self.live,
            delivered: self.delivered,
            scheduled: self.scheduled,
        }
    }
}

impl<E> CalendarQueue<E> {
    /// Creates a queue tuned for BGP-timer workloads: 1024 buckets of
    /// 16 ms (a ~16 s year — beyond one year ahead, events land in their
    /// target bucket modulo the year and are filtered by timestamp).
    pub fn new() -> CalendarQueue<E> {
        CalendarQueue::with_shape(1024, SimDuration::from_millis(16))
    }

    /// Creates a queue with an explicit bucket count and width.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero or `width` is zero.
    pub fn with_shape(buckets: usize, width: SimDuration) -> CalendarQueue<E> {
        assert!(buckets > 0, "calendar needs at least one bucket");
        assert!(!width.is_zero(), "bucket width must be positive");
        CalendarQueue {
            buckets: (0..buckets).map(|_| VecDeque::new()).collect(),
            bucket_width: width.as_nanos(),
            cursor: 0,
            cursor_start: 0,
            now: SimTime::ZERO,
            next_id: 0,
            live: 0,
            delivered: 0,
            scheduled: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total events delivered.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Total events scheduled.
    pub fn scheduled_count(&self) -> u64 {
        self.scheduled
    }

    fn bucket_of(&self, at: SimTime) -> usize {
        ((at.as_nanos() / self.bucket_width) % self.buckets.len() as u64) as usize
    }

    /// Schedules `payload` at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before [`now`](CalendarQueue::now).
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule event at {at} before current time {}",
            self.now
        );
        let id = self.alloc_id();
        self.insert_sorted(at, id, payload);
        id
    }

    /// Places an entry into its bucket, keeping the bucket sorted by
    /// `(time, id)`: the insertion point is found from the back (most
    /// events arrive in near-FIFO order).
    fn insert_sorted(&mut self, at: SimTime, id: EventId, payload: E) {
        self.live += 1;
        let bucket = self.bucket_of(at);
        let deque = &mut self.buckets[bucket];
        let mut idx = deque.len();
        while idx > 0 {
            let prev = &deque[idx - 1];
            if (prev.at, prev.id) <= (at, id) {
                break;
            }
            idx -= 1;
        }
        deque.insert(
            idx,
            Entry {
                at,
                id,
                payload: Some(payload),
            },
        );
    }

    /// Enqueues `payload` at `at` under an id already handed out by
    /// [`alloc_id`](CalendarQueue::alloc_id), without counting it as
    /// scheduled again — see
    /// [`Scheduler::insert_allocated`](crate::Scheduler::insert_allocated).
    ///
    /// As on the heap scheduler, `id` may come from a different queue's
    /// counter (shard-owned FELs receive ids allocated by the central
    /// walk); the local counter is bumped past it so a later local
    /// allocation can never collide.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`now`](CalendarQueue::now).
    pub fn insert_allocated(&mut self, at: SimTime, id: EventId, payload: E) {
        assert!(
            at >= self.now,
            "cannot schedule event at {at} before current time {}",
            self.now
        );
        self.next_id = self.next_id.max(id.as_u64() + 1);
        self.insert_sorted(at, id, payload);
    }

    /// Schedules `payload` after `delay`.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) -> EventId {
        self.schedule(self.now + delay, payload)
    }

    /// Allocates the next [`EventId`] without enqueueing anything, counting
    /// it as scheduled — see [`Scheduler::alloc_id`](crate::Scheduler::alloc_id).
    pub fn alloc_id(&mut self) -> EventId {
        self.alloc_ids(1)
    }

    /// Allocates `n` consecutive ids at once — see
    /// [`Scheduler::alloc_ids`](crate::Scheduler::alloc_ids).
    pub fn alloc_ids(&mut self, n: u64) -> EventId {
        let first = EventId(self.next_id);
        self.next_id += n;
        self.scheduled += n;
        first
    }

    /// Advances the clock to `at` and counts one delivery, without popping —
    /// see [`Scheduler::mark_delivered`](crate::Scheduler::mark_delivered).
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`now`](CalendarQueue::now).
    pub fn mark_delivered(&mut self, at: SimTime) {
        assert!(at >= self.now, "delivery clock cannot go backwards");
        self.now = at;
        self.delivered += 1;
    }

    /// Advances the clock to `at` and counts `n` deliveries at once — see
    /// [`Scheduler::mark_delivered_many`](crate::Scheduler::mark_delivered_many).
    ///
    /// # Panics
    ///
    /// Panics if `n > 0` and `at` is earlier than
    /// [`now`](CalendarQueue::now).
    pub fn mark_delivered_many(&mut self, at: SimTime, n: u64) {
        if n == 0 {
            return;
        }
        assert!(at >= self.now, "delivery clock cannot go backwards");
        self.now = at;
        self.delivered += n;
    }

    /// Removes and returns every live event strictly before `bound`, in
    /// delivery order, without advancing the clock or the delivered count —
    /// see [`Scheduler::drain_until`](crate::Scheduler::drain_until).
    pub fn drain_until(&mut self, bound: SimTime) -> Vec<(SimTime, EventId, E)> {
        let mut out = Vec::new();
        self.drain_until_into(bound, &mut out);
        out
    }

    /// [`drain_until`](CalendarQueue::drain_until), appending to a reused
    /// buffer.
    pub fn drain_until_into(&mut self, bound: SimTime, out: &mut Vec<(SimTime, EventId, E)>) {
        while let Some((at, b, i)) = self.min_entry() {
            if at >= bound {
                break;
            }
            let entry = self.buckets[b].remove(i).expect("entry exists");
            self.live -= 1;
            while matches!(self.buckets[b].front(), Some(e) if e.payload.is_none()) {
                self.buckets[b].pop_front();
            }
            self.cursor = self.bucket_of(at);
            self.cursor_start = (at.as_nanos() / self.bucket_width) * self.bucket_width;
            out.push((at, entry.id, entry.payload.expect("min entry is live")));
        }
    }

    /// Removes and returns every live event in **arbitrary order**, without
    /// advancing the clock or the delivered count — see
    /// [`Scheduler::drain_all`](crate::Scheduler::drain_all).
    pub fn drain_all(&mut self) -> Vec<(SimTime, EventId, E)> {
        let mut out = Vec::with_capacity(self.live);
        for deque in &mut self.buckets {
            for entry in deque.drain(..) {
                if let Some(payload) = entry.payload {
                    out.push((entry.at, entry.id, payload));
                }
            }
        }
        self.live = 0;
        out
    }

    /// Cancels a pending event; returns whether it was live.
    ///
    /// Unlike the heap scheduler this is O(bucket size): the entry is
    /// located and tombstoned in place.
    pub fn cancel(&mut self, id: EventId) -> bool {
        for deque in &mut self.buckets {
            for entry in deque.iter_mut() {
                if entry.id == id {
                    if entry.payload.is_some() {
                        entry.payload = None;
                        self.live -= 1;
                        return true;
                    }
                    return false;
                }
            }
        }
        false
    }

    /// Pops the next live event, advancing the clock.
    // Not an `Iterator`: popping mutates the clock and needs `&mut self`
    // with a lifetime-free item; the inherent name matches DES convention.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        let (at, payload) = self.pop_min()?;
        self.now = at;
        self.delivered += 1;
        Some((at, payload))
    }

    /// Timestamp of the next live event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.min_entry().map(|(at, _, _)| at)
    }

    /// Finds the (time, bucket, index) of the earliest live entry by a
    /// year-bounded scan from the cursor, falling back to a full scan when
    /// the earliest event is beyond one year ahead.
    fn min_entry(&self) -> Option<(SimTime, usize, usize)> {
        if self.live == 0 {
            return None;
        }
        let nb = self.buckets.len();
        let year = self.bucket_width * nb as u64;
        // Pass 1: within one year of the cursor, the first live entry whose
        // timestamp falls inside its bucket's current-lap window wins.
        for step in 0..nb {
            let b = (self.cursor + step) % nb;
            let lap_start = self.cursor_start + step as u64 * self.bucket_width;
            let lap_end = lap_start + self.bucket_width;
            if let Some((i, entry)) = self.buckets[b]
                .iter()
                .enumerate()
                .find(|(_, e)| e.payload.is_some())
            {
                let t = entry.at.as_nanos();
                if t < lap_end && t >= lap_start.saturating_sub(0) {
                    return Some((entry.at, b, i));
                }
            }
            let _ = year;
        }
        // Pass 2: everything is far away; take the global minimum.
        let mut best: Option<(SimTime, usize, usize)> = None;
        for (b, deque) in self.buckets.iter().enumerate() {
            if let Some((i, entry)) = deque.iter().enumerate().find(|(_, e)| e.payload.is_some()) {
                if best.map(|(t, _, _)| entry.at < t).unwrap_or(true) {
                    best = Some((entry.at, b, i));
                }
            }
        }
        best
    }

    fn pop_min(&mut self) -> Option<(SimTime, E)> {
        let (at, b, i) = self.min_entry()?;
        let entry = self.buckets[b].remove(i).expect("entry exists");
        self.live -= 1;
        // Drop any tombstones now exposed at the bucket head.
        while matches!(self.buckets[b].front(), Some(e) if e.payload.is_none()) {
            self.buckets[b].pop_front();
        }
        self.cursor = self.bucket_of(at);
        self.cursor_start = (at.as_nanos() / self.bucket_width) * self.bucket_width;
        Some((at, entry.payload.expect("min entry is live")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order_fifo_within_timestamp() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.schedule(SimTime::from_secs(3), 3);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(1), 2);
        q.schedule(SimTime::from_secs(2), 9);
        let order: Vec<u32> = std::iter::from_fn(|| q.next().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 9, 3]);
    }

    #[test]
    fn far_future_events_beyond_one_year() {
        // 4 buckets × 1 ms = 4 ms year; schedule 10 s out.
        let mut q: CalendarQueue<u32> = CalendarQueue::with_shape(4, SimDuration::from_millis(1));
        q.schedule(SimTime::from_secs(10), 1);
        q.schedule(SimTime::from_millis(1), 0);
        assert_eq!(q.next().unwrap().1, 0);
        assert_eq!(q.next(), Some((SimTime::from_secs(10), 1)));
    }

    #[test]
    fn cancel_tombstones() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        let a = q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.next().unwrap().1, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn counters_track() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        let a = q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        q.cancel(a);
        while q.next().is_some() {}
        assert_eq!(q.scheduled_count(), 2);
        assert_eq!(q.delivered_count(), 1);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn rejects_past_events() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.schedule(SimTime::from_secs(5), 1);
        q.next();
        q.schedule(SimTime::from_secs(1), 2);
    }

    #[test]
    fn drain_until_matches_heap_semantics() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.schedule(SimTime::from_millis(10), 0);
        q.schedule(SimTime::from_millis(20), 1);
        q.schedule(SimTime::from_millis(25), 2);
        let cancelled = q.schedule(SimTime::from_millis(15), 9);
        q.cancel(cancelled);
        let drained = q.drain_until(SimTime::from_millis(25));
        assert_eq!(
            drained.iter().map(|&(_, _, p)| p).collect::<Vec<_>>(),
            vec![0, 1],
            "strict bound, cancelled entries skipped"
        );
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.delivered_count(), 0);
        assert_eq!(q.len(), 1);
        q.mark_delivered(SimTime::from_millis(20));
        assert_eq!(q.now(), SimTime::from_millis(20));
        assert_eq!(q.delivered_count(), 1);
    }

    #[test]
    fn insert_allocated_and_mark_delivered_many_match_heap() {
        // Drive both backends through the split alloc/insert APIs with the
        // same inputs; delivery order and counters must agree.
        use crate::sched::Scheduler;
        let mut heap: Scheduler<u32> = Scheduler::new();
        let mut cal: CalendarQueue<u32> = CalendarQueue::new();
        let ha: Vec<EventId> = (0..3).map(|_| heap.alloc_id()).collect();
        let ca: Vec<EventId> = (0..3).map(|_| cal.alloc_id()).collect();
        assert_eq!(ha, ca, "id counters agree");
        // Insert out of id order: same-instant ids 0 and 1 last.
        for (at, i, p) in [
            (SimTime::from_millis(9), 2, 22u32),
            (SimTime::from_millis(4), 0, 20),
            (SimTime::from_millis(4), 1, 21),
        ] {
            heap.insert_allocated(at, ha[i], p);
            cal.insert_allocated(at, ca[i], p);
        }
        heap.mark_delivered_many(SimTime::from_millis(2), 3);
        cal.mark_delivered_many(SimTime::from_millis(2), 3);
        let h: Vec<_> = std::iter::from_fn(|| heap.next()).collect();
        let c: Vec<_> = std::iter::from_fn(|| cal.next()).collect();
        assert_eq!(h, c, "backends disagree after insert_allocated");
        assert_eq!(
            h.iter().map(|&(_, p)| p).collect::<Vec<_>>(),
            vec![20, 21, 22],
            "(time, id) order governs, not insertion order"
        );
        assert_eq!(heap.delivered_count(), cal.delivered_count());
        assert_eq!(heap.scheduled_count(), cal.scheduled_count());
    }

    #[test]
    fn insert_allocated_out_of_id_order_across_buckets_matches_heap() {
        // The shard-owned FELs feed `insert_allocated` ids minted by the
        // central walk, arriving in per-source-shard chunks that are id-
        // ascending but interleave arbitrarily across chunks — and the
        // timestamps straddle bucket boundaries (and the year wrap). The
        // bucket-local back-scan must still produce exactly the heap's
        // global (time, id) delivery order.
        use crate::sched::Scheduler;
        let mut heap: Scheduler<u32> = Scheduler::new();
        // 4 buckets × 1 ms: events 1 ms apart land in adjacent buckets,
        // events 4 ms apart collide in the same bucket across year laps.
        let mut cal: CalendarQueue<u32> = CalendarQueue::with_shape(4, SimDuration::from_millis(1));
        let entries = [
            // (time ms, id, payload) — ids deliberately not in time order,
            // and no id was allocated by either queue's own counter.
            (9u64, 4u64, 104u32), // bucket 1, second lap
            (1, 7, 107),          // bucket 1, first lap — same bucket, earlier time, later id
            (5, 2, 102),          // bucket 1, second lap wrap, earlier than 9 ms
            (0, 9, 109),          // bucket 0
            (1, 3, 103),          // bucket 1, same instant as id 7 — id breaks the tie
            (3, 0, 100),          // bucket 3
            (2, 6, 106),          // bucket 2
        ];
        for &(ms, id, p) in &entries {
            heap.insert_allocated(SimTime::from_millis(ms), EventId::from_u64(id), p);
            cal.insert_allocated(SimTime::from_millis(ms), EventId::from_u64(id), p);
        }
        let bound = SimTime::from_millis(100);
        let h = heap.drain_until(bound);
        let c = cal.drain_until(bound);
        assert_eq!(h, c, "calendar drain order diverges from the heap");
        assert_eq!(
            h.iter().map(|&(_, _, p)| p).collect::<Vec<_>>(),
            vec![109, 103, 107, 106, 100, 102, 104],
            "global (time, id) order, independent of insertion order"
        );
        // Both counters were bumped past the foreign ids: fresh local
        // allocations cannot collide with what was inserted.
        assert_eq!(heap.alloc_id(), EventId::from_u64(10));
        assert_eq!(cal.alloc_id(), EventId::from_u64(10));
    }

    #[test]
    fn drain_all_empties_and_skips_cancelled() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.schedule(SimTime::from_millis(30), 0);
        let dead = q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        q.cancel(dead);
        let mut all = q.drain_all();
        all.sort_by_key(|&(at, id, _)| (at, id));
        assert_eq!(
            all.iter().map(|&(_, _, p)| p).collect::<Vec<_>>(),
            vec![2, 0],
            "cancelled entries are retired, live ones all come out"
        );
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.delivered_count(), 0);
    }

    #[test]
    fn clone_forks_identically() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        for i in 0..40u64 {
            q.schedule(SimTime::from_millis(i * 7 % 90), i as u32);
        }
        q.next();
        let mut fork = q.clone();
        let a = q.schedule(SimTime::from_millis(50), 777);
        let b = fork.schedule(SimTime::from_millis(50), 777);
        assert_eq!(a, b, "forked queues hand out the same event ids");
        let rest: Vec<(SimTime, u32)> = std::iter::from_fn(|| q.next()).collect();
        let fork_rest: Vec<(SimTime, u32)> = std::iter::from_fn(|| fork.next()).collect();
        assert_eq!(rest, fork_rest);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        let mut expected = Vec::new();
        for i in 0..50u64 {
            q.schedule(SimTime::from_nanos(i * 7_000_003 % 100_000_000), i);
        }
        while let Some((t, e)) = q.next() {
            expected.push((t, e));
            if expected.len() == 25 {
                // Schedule more mid-drain, after `now`.
                for j in 100..110u64 {
                    q.schedule_after(SimDuration::from_millis(j), j);
                }
            }
        }
        assert_eq!(expected.len(), 60);
        assert!(
            expected.windows(2).all(|w| w[0].0 <= w[1].0),
            "order violated"
        );
    }
}
