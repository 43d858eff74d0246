//! Internal event-queue entries and event identifiers.

use std::cmp::Ordering;

use crate::time::SimTime;

/// Identifier of a scheduled event: its sequence number, which orders
/// events scheduled for the same instant.
///
/// Returned by [`Scheduler::schedule`](crate::Scheduler::schedule). Ids are
/// unique for the lifetime of a scheduler and are never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub(crate) u64);

impl EventId {
    /// The raw sequence number backing this id (monotone in schedule order).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its raw sequence number.
    ///
    /// The inverse of [`as_u64`](EventId::as_u64), for callers that ship id
    /// numbers across threads (the sharded loop's mail, filed under
    /// `id_base + offset`) and hand them back via
    /// [`insert_allocated`](crate::Scheduler::insert_allocated). The number
    /// must come from a previous [`alloc_ids`](crate::Scheduler::alloc_ids)
    /// / `schedule` on the same list; fabricated ids break the determinism
    /// contract.
    pub fn from_u64(raw: u64) -> EventId {
        EventId(raw)
    }
}

/// A heap entry: ordered by time, then by insertion sequence so that events
/// scheduled for the same instant fire in FIFO order.
#[derive(Clone)]
pub(crate) struct Entry<E> {
    pub(crate) at: SimTime,
    pub(crate) id: EventId,
    pub(crate) payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.id == other.id
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap but we want the earliest event
        // (smallest time, then smallest sequence number) on top.
        other.at.cmp(&self.at).then_with(|| other.id.cmp(&self.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn heap_pops_earliest_then_fifo() {
        let mut heap = BinaryHeap::new();
        heap.push(Entry {
            at: SimTime::from_secs(2),
            id: EventId(0),
            payload: "late",
        });
        heap.push(Entry {
            at: SimTime::from_secs(1),
            id: EventId(1),
            payload: "first",
        });
        heap.push(Entry {
            at: SimTime::from_secs(1),
            id: EventId(2),
            payload: "second",
        });
        assert_eq!(heap.pop().unwrap().payload, "first");
        assert_eq!(heap.pop().unwrap().payload, "second");
        assert_eq!(heap.pop().unwrap().payload, "late");
    }
}
