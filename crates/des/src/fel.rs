//! The future-event-list names kept from the pluggable-backend API.
//!
//! The engine has one future-event list, the binary-heap [`Scheduler`].
//! [`Fel`] and [`FelKind`] remain so code written against the earlier
//! API still builds: `Fel::new(FelKind::default())` is a [`Scheduler`]
//! reached through `Deref`, and [`FelKind::name`] reports `"heap"`.

use std::ops::{Deref, DerefMut};

use crate::sched::Scheduler;

/// The future-event-list backend. The binary heap is the only one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FelKind {
    /// Binary-heap [`Scheduler`].
    #[default]
    Heap,
}

impl FelKind {
    /// Stable lowercase name (`heap`).
    pub fn name(self) -> &'static str {
        match self {
            FelKind::Heap => "heap",
        }
    }
}

/// A [`Scheduler`] built through the [`FelKind`]-taking constructor.
#[derive(Clone, Debug)]
pub struct Fel<E>(Scheduler<E>);

impl<E> Fel<E> {
    /// Creates an empty list.
    pub fn new(kind: FelKind) -> Fel<E> {
        match kind {
            FelKind::Heap => Fel(Scheduler::new()),
        }
    }
}

impl<E> Deref for Fel<E> {
    type Target = Scheduler<E>;

    fn deref(&self) -> &Scheduler<E> {
        &self.0
    }
}

impl<E> DerefMut for Fel<E> {
    fn deref_mut(&mut self) -> &mut Scheduler<E> {
        &mut self.0
    }
}
