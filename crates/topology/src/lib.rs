//! # bgpsim-topology — BRITE-like AS/router topology generation
//!
//! This crate reproduces the topology workload of *"Improving BGP
//! Convergence Delay for Large-Scale Failures"* (Sahoo, Kant, Mohapatra —
//! DSN 2006). The paper generated topologies with a modified version of
//! BRITE; this crate provides:
//!
//! * [`graph`] — router-level topology type with AS membership, Euclidean
//!   coordinates on the paper's 1000×1000 grid, and connectivity utilities.
//! * [`degree`] — the paper's *skewed* degree distributions (70-30, 50-50,
//!   85-15, and the dense 50-50 with average degree 7.6), plus an
//!   Internet-derived power-law distribution truncated at degree 40.
//! * [`generators`] — a degree-sequence (configuration-model) generator with
//!   simple-graph and connectivity repair (the paper's modified BRITE), plus
//!   an engineered tiered hierarchy for the routing-policy extension.
//! * [`placement`] — uniform random placement on the grid.
//! * [`multias`] — multi-router-per-AS expansion: heavy-tailed AS sizes
//!   (1–100 routers), AS geographic extent proportional to size, and the
//!   highest inter-AS degrees assigned to the largest ASes (paper §3.1).
//! * [`region`] — contiguous-failure-region selection (centred area covering
//!   a target fraction of routers), plus corner/random variants.
//!
//! # Example
//!
//! ```
//! use bgpsim_topology::degree::SkewedSpec;
//! use bgpsim_topology::generators::skewed_topology;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let topo = skewed_topology(120, &SkewedSpec::seventy_thirty(), &mut rng)?;
//! assert_eq!(topo.num_routers(), 120);
//! assert!(topo.is_connected());
//! assert!((topo.avg_degree() - 3.8).abs() < 0.4);
//! # Ok::<(), bgpsim_topology::TopologyError>(())
//! ```

#![warn(missing_docs)]

pub mod degree;
pub mod generators;
pub mod graph;
pub mod metrics;
pub mod multias;
pub mod placement;
pub mod prefixes;
pub mod region;

pub use graph::{AsId, Point, Router, RouterId, Topology, TopologyError};

/// Side length of the placement grid used throughout the paper (§3.1).
pub const GRID_SIDE: f64 = 1000.0;
