//! A common interface over the future-event-list backends.
//!
//! The workspace has two API-compatible FELs — the binary-heap
//! [`Scheduler`] and the [`CalendarQueue`] (Brown 1988) — that deliver
//! identical `(time, id)` orders. [`FutureEventList`] captures the shared
//! contract, and [`Fel`] is a closed enum over the two so a simulation can
//! pick its backend at construction time (e.g. from the `BGPSIM_FEL`
//! environment variable) without paying dynamic dispatch on the pop path.

use crate::calendar::CalendarQueue;
use crate::event::EventId;
use crate::sched::Scheduler;
use crate::time::{SimDuration, SimTime};

/// The contract every future-event list in this crate satisfies.
///
/// Delivery order is total and deterministic: non-decreasing time, FIFO
/// (id order) within a timestamp. The split-phase methods
/// ([`drain_until`](FutureEventList::drain_until),
/// [`alloc_id`](FutureEventList::alloc_id),
/// [`mark_delivered`](FutureEventList::mark_delivered)) decompose
/// `next()` into its queue and accounting halves for the sharded event
/// loop's epochs.
pub trait FutureEventList<E> {
    /// Schedules `payload` at absolute time `at`.
    fn schedule(&mut self, at: SimTime, payload: E) -> EventId;
    /// Schedules `payload` to fire `delay` after the current time.
    fn schedule_after(&mut self, delay: SimDuration, payload: E) -> EventId {
        let at = self.now() + delay;
        self.schedule(at, payload)
    }
    /// Cancels a pending event; returns whether it was live.
    fn cancel(&mut self, id: EventId) -> bool;
    /// Pops the next live event, advancing the clock.
    fn next(&mut self) -> Option<(SimTime, E)>;
    /// Timestamp of the next live event.
    fn peek_time(&mut self) -> Option<SimTime>;
    /// Current simulation time.
    fn now(&self) -> SimTime;
    /// Number of live events.
    fn len(&self) -> usize;
    /// Whether no live events remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Total events scheduled over the list's lifetime.
    fn scheduled_count(&self) -> u64;
    /// Total events delivered over the list's lifetime.
    fn delivered_count(&self) -> u64;
    /// Removes every live event strictly before `bound`, in delivery
    /// order, without advancing the clock or the delivered count.
    fn drain_until(&mut self, bound: SimTime) -> Vec<(SimTime, EventId, E)>;
    /// Allocates the next [`EventId`] without enqueueing, counted as
    /// scheduled.
    fn alloc_id(&mut self) -> EventId;
    /// Advances the clock to `at` and counts one delivery, without popping.
    fn mark_delivered(&mut self, at: SimTime);
    /// Advances the clock to `at` and counts `n` deliveries at once.
    fn mark_delivered_many(&mut self, at: SimTime, n: u64);
    /// Enqueues `payload` at `at` under an id previously handed out by
    /// [`alloc_id`](FutureEventList::alloc_id) — possibly another list's;
    /// the local counter is bumped past it — without counting it as
    /// scheduled again.
    fn insert_allocated(&mut self, at: SimTime, id: EventId, payload: E);
    /// Removes every live event in arbitrary order, without advancing the
    /// clock or the delivered count. The sharded engine's partition step.
    fn drain_all(&mut self) -> Vec<(SimTime, EventId, E)>;
}

impl<E> FutureEventList<E> for Scheduler<E> {
    fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        Scheduler::schedule(self, at, payload)
    }
    fn cancel(&mut self, id: EventId) -> bool {
        Scheduler::cancel(self, id)
    }
    fn next(&mut self) -> Option<(SimTime, E)> {
        Scheduler::next(self)
    }
    fn peek_time(&mut self) -> Option<SimTime> {
        Scheduler::peek_time(self)
    }
    fn now(&self) -> SimTime {
        Scheduler::now(self)
    }
    fn len(&self) -> usize {
        Scheduler::len(self)
    }
    fn scheduled_count(&self) -> u64 {
        Scheduler::scheduled_count(self)
    }
    fn delivered_count(&self) -> u64 {
        Scheduler::delivered_count(self)
    }
    fn drain_until(&mut self, bound: SimTime) -> Vec<(SimTime, EventId, E)> {
        Scheduler::drain_until(self, bound)
    }
    fn alloc_id(&mut self) -> EventId {
        Scheduler::alloc_id(self)
    }
    fn mark_delivered(&mut self, at: SimTime) {
        Scheduler::mark_delivered(self, at)
    }
    fn mark_delivered_many(&mut self, at: SimTime, n: u64) {
        Scheduler::mark_delivered_many(self, at, n)
    }
    fn insert_allocated(&mut self, at: SimTime, id: EventId, payload: E) {
        Scheduler::insert_allocated(self, at, id, payload)
    }
    fn drain_all(&mut self) -> Vec<(SimTime, EventId, E)> {
        Scheduler::drain_all(self)
    }
}

impl<E> FutureEventList<E> for CalendarQueue<E> {
    fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        CalendarQueue::schedule(self, at, payload)
    }
    fn cancel(&mut self, id: EventId) -> bool {
        CalendarQueue::cancel(self, id)
    }
    fn next(&mut self) -> Option<(SimTime, E)> {
        CalendarQueue::next(self)
    }
    fn peek_time(&mut self) -> Option<SimTime> {
        CalendarQueue::peek_time(self)
    }
    fn now(&self) -> SimTime {
        CalendarQueue::now(self)
    }
    fn len(&self) -> usize {
        CalendarQueue::len(self)
    }
    fn scheduled_count(&self) -> u64 {
        CalendarQueue::scheduled_count(self)
    }
    fn delivered_count(&self) -> u64 {
        CalendarQueue::delivered_count(self)
    }
    fn drain_until(&mut self, bound: SimTime) -> Vec<(SimTime, EventId, E)> {
        CalendarQueue::drain_until(self, bound)
    }
    fn alloc_id(&mut self) -> EventId {
        CalendarQueue::alloc_id(self)
    }
    fn mark_delivered(&mut self, at: SimTime) {
        CalendarQueue::mark_delivered(self, at)
    }
    fn mark_delivered_many(&mut self, at: SimTime, n: u64) {
        CalendarQueue::mark_delivered_many(self, at, n)
    }
    fn insert_allocated(&mut self, at: SimTime, id: EventId, payload: E) {
        CalendarQueue::insert_allocated(self, at, id, payload)
    }
    fn drain_all(&mut self) -> Vec<(SimTime, EventId, E)> {
        CalendarQueue::drain_all(self)
    }
}

/// Which future-event-list backend to use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FelKind {
    /// Binary-heap [`Scheduler`] (the default).
    #[default]
    Heap,
    /// [`CalendarQueue`] (Brown 1988).
    Calendar,
}

impl FelKind {
    /// Parses a backend name (`heap` or `calendar`, case-insensitive,
    /// surrounding whitespace ignored). Returns `None` when unrecognized.
    pub fn parse(raw: &str) -> Option<FelKind> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "heap" => Some(FelKind::Heap),
            "calendar" => Some(FelKind::Calendar),
            _ => None,
        }
    }

    /// Reads the backend choice from the `BGPSIM_FEL` environment variable.
    /// Returns `None` when unset; an unrecognized value warns on stderr
    /// (naming the offending value) and also returns `None`, so the caller
    /// falls back to its default rather than silently misconfiguring.
    pub fn from_env() -> Option<FelKind> {
        let raw = std::env::var("BGPSIM_FEL").ok()?;
        let kind = FelKind::parse(&raw);
        if kind.is_none() {
            eprintln!(
                "warning: ignoring invalid BGPSIM_FEL={raw:?} \
                 (expected \"heap\" or \"calendar\"); using the default backend"
            );
        }
        kind
    }

    /// Stable lowercase name (`heap` / `calendar`).
    pub fn name(self) -> &'static str {
        match self {
            FelKind::Heap => "heap",
            FelKind::Calendar => "calendar",
        }
    }
}

/// A future-event list with a runtime-selected backend.
///
/// A closed enum rather than a trait object: the pop path stays a direct
/// (branch-predicted) match, and the whole list remains `Clone`-able for
/// warm-start snapshots.
pub enum Fel<E> {
    /// Binary-heap backend.
    Heap(Scheduler<E>),
    /// Calendar-queue backend.
    Calendar(CalendarQueue<E>),
}

impl<E: Clone> Clone for Fel<E> {
    fn clone(&self) -> Self {
        match self {
            Fel::Heap(s) => Fel::Heap(s.clone()),
            Fel::Calendar(q) => Fel::Calendar(q.clone()),
        }
    }
}

impl<E> std::fmt::Debug for Fel<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fel::Heap(s) => f.debug_tuple("Fel::Heap").field(s).finish(),
            Fel::Calendar(q) => f.debug_tuple("Fel::Calendar").field(q).finish(),
        }
    }
}

impl<E> Default for Fel<E> {
    fn default() -> Self {
        Fel::new(FelKind::Heap)
    }
}

macro_rules! delegate {
    ($self:ident, $inner:ident => $body:expr) => {
        match $self {
            Fel::Heap($inner) => $body,
            Fel::Calendar($inner) => $body,
        }
    };
}

impl<E> Fel<E> {
    /// Creates an empty list with the given backend.
    pub fn new(kind: FelKind) -> Fel<E> {
        match kind {
            FelKind::Heap => Fel::Heap(Scheduler::new()),
            FelKind::Calendar => Fel::Calendar(CalendarQueue::new()),
        }
    }

    /// Which backend this list uses.
    pub fn kind(&self) -> FelKind {
        match self {
            Fel::Heap(_) => FelKind::Heap,
            Fel::Calendar(_) => FelKind::Calendar,
        }
    }

    /// Schedules `payload` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        delegate!(self, inner => inner.schedule(at, payload))
    }

    /// Schedules `payload` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) -> EventId {
        delegate!(self, inner => inner.schedule_after(delay, payload))
    }

    /// Cancels a pending event; returns whether it was live.
    pub fn cancel(&mut self, id: EventId) -> bool {
        delegate!(self, inner => inner.cancel(id))
    }

    /// Pops the next live event, advancing the clock.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        delegate!(self, inner => inner.next())
    }

    /// Timestamp of the next live event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match self {
            Fel::Heap(s) => s.peek_time(),
            Fel::Calendar(q) => q.peek_time(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        delegate!(self, inner => inner.now())
    }

    /// Number of live events.
    pub fn len(&self) -> usize {
        delegate!(self, inner => inner.len())
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        delegate!(self, inner => inner.is_empty())
    }

    /// Total events scheduled over the list's lifetime.
    pub fn scheduled_count(&self) -> u64 {
        delegate!(self, inner => inner.scheduled_count())
    }

    /// Total events delivered over the list's lifetime.
    pub fn delivered_count(&self) -> u64 {
        delegate!(self, inner => inner.delivered_count())
    }

    /// Removes every live event strictly before `bound`, in delivery
    /// order, without advancing the clock or the delivered count.
    pub fn drain_until(&mut self, bound: SimTime) -> Vec<(SimTime, EventId, E)> {
        delegate!(self, inner => inner.drain_until(bound))
    }

    /// [`drain_until`](Fel::drain_until), appending to a reused buffer.
    pub fn drain_until_into(&mut self, bound: SimTime, out: &mut Vec<(SimTime, EventId, E)>) {
        delegate!(self, inner => inner.drain_until_into(bound, out))
    }

    /// Allocates the next [`EventId`] without enqueueing, counted as
    /// scheduled.
    pub fn alloc_id(&mut self) -> EventId {
        delegate!(self, inner => inner.alloc_id())
    }

    /// Allocates `n` consecutive ids, all counted as scheduled, and
    /// returns the first.
    pub fn alloc_ids(&mut self, n: u64) -> EventId {
        delegate!(self, inner => inner.alloc_ids(n))
    }

    /// Advances the clock to `at` and counts one delivery, without popping.
    pub fn mark_delivered(&mut self, at: SimTime) {
        delegate!(self, inner => inner.mark_delivered(at))
    }

    /// Advances the clock to `at` and counts `n` deliveries at once.
    pub fn mark_delivered_many(&mut self, at: SimTime, n: u64) {
        delegate!(self, inner => inner.mark_delivered_many(at, n))
    }

    /// Enqueues `payload` at `at` under an id previously handed out by
    /// [`alloc_id`](Fel::alloc_id) — possibly another list's; the local
    /// counter is bumped past it — without counting it as scheduled again.
    pub fn insert_allocated(&mut self, at: SimTime, id: EventId, payload: E) {
        delegate!(self, inner => inner.insert_allocated(at, id, payload))
    }

    /// Removes every live event in arbitrary order, without advancing the
    /// clock or the delivered count. The sharded engine's partition step:
    /// the central FEL is emptied wholesale at pump start and each event
    /// re-inserted into its owning shard's FEL.
    pub fn drain_all(&mut self) -> Vec<(SimTime, EventId, E)> {
        match self {
            Fel::Heap(s) => s.drain_all(),
            Fel::Calendar(q) => q.drain_all(),
        }
    }
}

impl<E> FutureEventList<E> for Fel<E> {
    fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        Fel::schedule(self, at, payload)
    }
    fn cancel(&mut self, id: EventId) -> bool {
        Fel::cancel(self, id)
    }
    fn next(&mut self) -> Option<(SimTime, E)> {
        Fel::next(self)
    }
    fn peek_time(&mut self) -> Option<SimTime> {
        Fel::peek_time(self)
    }
    fn now(&self) -> SimTime {
        Fel::now(self)
    }
    fn len(&self) -> usize {
        Fel::len(self)
    }
    fn scheduled_count(&self) -> u64 {
        Fel::scheduled_count(self)
    }
    fn delivered_count(&self) -> u64 {
        Fel::delivered_count(self)
    }
    fn drain_until(&mut self, bound: SimTime) -> Vec<(SimTime, EventId, E)> {
        Fel::drain_until(self, bound)
    }
    fn alloc_id(&mut self) -> EventId {
        Fel::alloc_id(self)
    }
    fn mark_delivered(&mut self, at: SimTime) {
        Fel::mark_delivered(self, at)
    }
    fn mark_delivered_many(&mut self, at: SimTime, n: u64) {
        Fel::mark_delivered_many(self, at, n)
    }
    fn insert_allocated(&mut self, at: SimTime, id: EventId, payload: E) {
        Fel::insert_allocated(self, at, id, payload)
    }
    fn drain_all(&mut self) -> Vec<(SimTime, EventId, E)> {
        Fel::drain_all(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives both backends through the trait with the same inputs and
    /// asserts identical observable behavior.
    fn exercise(fel: &mut dyn FutureEventList<u32>) -> Vec<(SimTime, u32)> {
        for i in 0..30u64 {
            fel.schedule(SimTime::from_millis(i * 13 % 70), i as u32);
        }
        let dead = fel.schedule(SimTime::from_millis(40), 999);
        assert!(fel.cancel(dead));
        let mut out = Vec::new();
        let drained = fel.drain_until(SimTime::from_millis(30));
        for (at, _id, p) in drained {
            fel.mark_delivered(at);
            out.push((at, p));
        }
        while let Some(x) = fel.next() {
            out.push(x);
        }
        out
    }

    #[test]
    fn backends_agree_through_the_trait() {
        let mut heap: Scheduler<u32> = Scheduler::new();
        let mut cal: CalendarQueue<u32> = CalendarQueue::new();
        let a = exercise(&mut heap);
        let b = exercise(&mut cal);
        assert_eq!(a, b, "heap and calendar disagree");
        assert_eq!(heap.delivered_count(), cal.delivered_count());
        assert_eq!(heap.scheduled_count(), cal.scheduled_count());
    }

    #[test]
    fn fel_enum_delegates_and_reports_kind() {
        let mut heap: Fel<u32> = Fel::new(FelKind::Heap);
        let mut cal: Fel<u32> = Fel::new(FelKind::Calendar);
        assert_eq!(heap.kind(), FelKind::Heap);
        assert_eq!(cal.kind(), FelKind::Calendar);
        let a = exercise(&mut heap);
        let b = exercise(&mut cal);
        assert_eq!(a, b);
        let fork = heap.clone();
        assert_eq!(fork.kind(), FelKind::Heap);
        assert_eq!(fork.delivered_count(), heap.delivered_count());
    }

    #[test]
    fn drain_all_agrees_across_backends_after_reinsertion() {
        // Partition round-trip: drain one list wholesale, re-insert into a
        // fresh list of the other backend, and the delivery order must be
        // the original (time, id) order — drain_all's arbitrary ordering
        // must not be observable.
        let mut src: Fel<u32> = Fel::new(FelKind::Heap);
        for i in 0..25u64 {
            src.schedule(SimTime::from_millis(i * 17 % 60), i as u32);
        }
        let dead = src.schedule(SimTime::from_millis(5), 999);
        assert!(src.cancel(dead));
        let mut reference = src.clone();
        let mut dst: Fel<u32> = Fel::new(FelKind::Calendar);
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
    fn fel_kind_names_are_stable() {
        assert_eq!(FelKind::Heap.name(), "heap");
        assert_eq!(FelKind::Calendar.name(), "calendar");
        assert_eq!(FelKind::default(), FelKind::Heap);
    }

    #[test]
    fn fel_kind_parse_accepts_known_names_and_rejects_garbage() {
        assert_eq!(FelKind::parse("heap"), Some(FelKind::Heap));
        assert_eq!(FelKind::parse("calendar"), Some(FelKind::Calendar));
        assert_eq!(FelKind::parse("HEAP"), Some(FelKind::Heap));
        assert_eq!(FelKind::parse(" Calendar \n"), Some(FelKind::Calendar));
        assert_eq!(FelKind::parse(""), None);
        assert_eq!(FelKind::parse("splay"), None);
        assert_eq!(FelKind::parse("heap,calendar"), None);
    }
}
