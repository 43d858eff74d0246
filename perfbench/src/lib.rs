//! The bgpsim benchmark: fixed workloads run through the simulator's
//! public API, timed end to end and broken down layer by layer.
//!
//! * [`workload`] — the three workloads and one trial of each.
//! * [`run`] — one run: reference, measured trials, traced trial.
//! * [`check`] — Loc-RIB digests and the output check against a reference.
//! * [`spans`] — in-memory spans recorded around each public call.
//! * [`micro`] — bench-side single-layer probes (one `BgpNode`, one `Fel`).
//! * [`report`] — metric names and units, medians, derived ratios.
//!
//! `README.md` beside this crate explains why each workload was chosen
//! and which end-to-end metric each layer metric should move.

pub mod check;
pub mod micro;
pub mod report;
pub mod run;
pub mod spans;
pub mod workload;
