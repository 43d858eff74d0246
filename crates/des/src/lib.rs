//! # bgpsim-des — deterministic discrete-event simulation engine
//!
//! This crate is the simulation substrate for the `bgpsim` workspace, a
//! reproduction of *"Improving BGP Convergence Delay for Large-Scale
//! Failures"* (Sahoo, Kant, Mohapatra — DSN 2006). The paper used the Java
//! SSFNet simulator; this crate provides the equivalent core facilities in
//! Rust:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulation time, so
//!   event ordering is exact and runs are bit-for-bit reproducible.
//! * [`Scheduler`] — a stable future-event list: events scheduled for the
//!   same instant are delivered in insertion order, ranked by their
//!   [`EventId`]. Every scheduled event is delivered; a timer that should
//!   no longer act is recognised as stale by its handler.
//! * [`Fel`] / [`FelKind`] — the names of the earlier pluggable-backend
//!   API; a `Fel` is a [`Scheduler`].
//! * [`rng`] — deterministic per-component random-number streams derived
//!   from a single root seed, plus the RFC 1771 timer-jitter helper.
//!
//! # Example
//!
//! ```
//! use bgpsim_des::{Scheduler, SimDuration, SimTime};
//!
//! let mut sched: Scheduler<&'static str> = Scheduler::new();
//! sched.schedule(SimTime::ZERO + SimDuration::from_millis(25), "arrive");
//! sched.schedule(SimTime::ZERO + SimDuration::from_millis(10), "depart");
//! let (t, ev) = sched.next().expect("two events are pending");
//! assert_eq!(ev, "depart");
//! assert_eq!(t, SimTime::ZERO + SimDuration::from_millis(10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod fel;
pub mod rng;
mod sched;
mod time;

pub use event::EventId;
pub use fel::{Fel, FelKind};
pub use rng::RngStreams;
pub use sched::Scheduler;
pub use time::{SimDuration, SimTime};
