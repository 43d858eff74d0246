//! # bgpsim — reproducing *"Improving BGP Convergence Delay for
//! Large-Scale Failures"* (Sahoo, Kant, Mohapatra — DSN 2006)
//!
//! This crate assembles the workspace's substrates — the deterministic
//! discrete-event engine ([`bgpsim_des`]), the BRITE-like topology
//! generators ([`bgpsim_topology`]) and the BGP-4 protocol model
//! ([`bgpsim_bgp`]) — into the paper's experiments:
//!
//! * [`network`] — builds a simulated BGP network from a topology, runs it
//!   to initial convergence, injects a large-scale (contiguous-region)
//!   failure and measures the re-convergence.
//! * [`scheme`] — the paper's MRAI/processing schemes as ready-made
//!   configurations: constant MRAI, degree-dependent MRAI (§4.2), dynamic
//!   MRAI (§4.3), batched update processing (§4.4) and their combination.
//! * [`metrics`] — per-run statistics (convergence delay, message counts,
//!   queue peaks) and cross-trial aggregation.
//! * [`experiment`] — seeded multi-trial experiment runner with a parallel
//!   batch runner that converges each shared pre-failure network once.
//! * [`figures`] — one function per figure of the paper, returning exactly
//!   the series the figure plots.
//! * [`analysis`] — the related-work convergence-delay models (Labovitz,
//!   Pei) the paper contrasts against, plus an overload-factor diagnostic.
//! * [`extensions`] — the paper's future-work items and model ablations:
//!   the failure-size oracle, alternative overload detectors, expedited
//!   improvements, batching variants, network-size sensitivity.
//! * [`scenario`] — scripted failure/recovery sequences (flapping regions,
//!   fail-and-repair cycles) with one measurement per transition.
//! * [`trace`] — zero-overhead-when-off structured tracing: a deterministic
//!   event stream (updates, decisions, MRAI transitions, queue depths) and
//!   the [`trace::Timeline`] analysis pass over it.
//! * [`report`] — plain-text tables for benches and EXPERIMENTS.md.
//!
//! # Quickstart
//!
//! Measure the convergence delay of a 10% central failure in the paper's
//! default "70-30" network with MRAI = 0.5 s:
//!
//! ```
//! use bgpsim::experiment::{Experiment, TopologySpec};
//! use bgpsim::scheme::Scheme;
//! use bgpsim_topology::region::FailureSpec;
//!
//! let exp = Experiment {
//!     topology: TopologySpec::seventy_thirty(30), // 30 nodes to keep the doctest fast
//!     scheme: Scheme::constant_mrai(0.5),
//!     failure: FailureSpec::CenterFraction(0.10),
//!     trials: 1,
//!     base_seed: 42,
//! };
//! let agg = exp.run();
//! assert!(agg.mean_delay_secs() > 0.0);
//! assert!(agg.mean_messages() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod experiment;
pub mod extensions;
pub mod figures;
pub mod metrics;
pub mod network;
pub mod report;
pub mod scenario;
pub mod scheme;
mod shard;
pub mod trace;

pub use experiment::{Aggregate, Experiment, TopologySpec, WarmStats};
pub use metrics::RunStats;
pub use network::{FullTableSpec, MemoryFootprint, Network, SimConfig};
pub use scheme::Scheme;
pub use shard::{ShardLoad, ShardPhaseTimings};
pub use trace::{Timeline, TraceEvent, TraceSink};
