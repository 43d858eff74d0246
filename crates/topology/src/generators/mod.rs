//! Topology generators.
//!
//! * [`from_degree_sequence`] — configuration model with simple-graph and
//!   connectivity repair; the workhorse behind the paper's skewed-degree
//!   topologies (BRITE was modified by the authors to allow "more flexible
//!   degree distributions", §3.1 — this is our equivalent).
//! * [`skewed_topology`] / [`topology_from_spec`] — sample a degree
//!   sequence, place routers uniformly on the grid, build the graph, one AS
//!   per router.
//! * [`hierarchical`] — an engineered Internet-like hierarchy (Tier-1
//!   clique + transit tiers) used by the routing-policy extension.
//!
//! The multi-router "realistic" topologies are built by
//! [`generate_multi_as`](crate::multias::generate_multi_as).

mod config_model;
mod hierarchical;

pub use config_model::from_degree_sequence;
pub use hierarchical::{hierarchical, HierarchicalParams};

use rand::Rng;

use crate::degree::{DegreeSpec, SkewedSpec};
use crate::graph::{AsId, Point, Router, Topology, TopologyError};
use crate::placement::place;

/// Generates a single-router-per-AS topology with the given skewed degree
/// distribution, routers placed uniformly on the 1000×1000 grid.
///
/// This is the paper's default workload: e.g. 120 nodes with the 70-30
/// distribution (70% degree 1–3, 30% degree 8, average 3.8).
///
/// # Errors
///
/// Returns [`TopologyError::GenerationFailed`] if no simple connected graph
/// realizing the sampled degree sequence could be built (retry with another
/// seed; in practice this is vanishingly rare for the paper's parameters).
///
/// # Example
///
/// ```
/// use bgpsim_topology::degree::SkewedSpec;
/// use bgpsim_topology::generators::skewed_topology;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(7);
/// let topo = skewed_topology(60, &SkewedSpec::fifty_fifty(), &mut rng)?;
/// assert!(topo.is_connected());
/// # Ok::<(), bgpsim_topology::TopologyError>(())
/// ```
pub fn skewed_topology<R: Rng + ?Sized>(
    n: usize,
    spec: &SkewedSpec,
    rng: &mut R,
) -> Result<Topology, TopologyError> {
    topology_from_spec(n, &DegreeSpec::Skewed(spec.clone()), rng)
}

/// Generates a single-router-per-AS topology from any [`DegreeSpec`].
///
/// # Errors
///
/// See [`skewed_topology`].
pub fn topology_from_spec<R: Rng + ?Sized>(
    n: usize,
    spec: &DegreeSpec,
    rng: &mut R,
) -> Result<Topology, TopologyError> {
    let positions = place(n, rng);
    // Degree sequences whose repair fails are resampled a few times.
    let mut last_err = TopologyError::GenerationFailed("no attempts made".into());
    for _ in 0..100 {
        let degrees = spec.sample(n, rng);
        if !crate::degree::is_graphical(&degrees) {
            last_err = TopologyError::GenerationFailed("sampled sequence not graphical".into());
            continue;
        }
        match from_degree_sequence(&degrees, &positions, rng) {
            Ok(t) => return Ok(t),
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

/// Builds the `Topology` wrapper for generators that produce an edge list
/// over `n` single-router ASes.
pub(crate) fn single_as_topology(
    positions: &[Point],
    edges: Vec<(u32, u32)>,
) -> Result<Topology, TopologyError> {
    let routers: Vec<Router> = positions
        .iter()
        .enumerate()
        .map(|(i, &pos)| Router {
            as_id: AsId::new(i as u32),
            pos,
        })
        .collect();
    Topology::new(
        routers,
        edges.into_iter().map(|(a, b)| {
            (
                crate::graph::RouterId::new(a),
                crate::graph::RouterId::new(b),
            )
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn skewed_topology_matches_spec() {
        let mut rng = SmallRng::seed_from_u64(42);
        let topo = skewed_topology(120, &SkewedSpec::seventy_thirty(), &mut rng).unwrap();
        assert_eq!(topo.num_routers(), 120);
        assert_eq!(topo.num_ases(), 120);
        assert!(topo.is_connected());
        assert!(
            (topo.avg_degree() - 3.8).abs() < 0.3,
            "avg {}",
            topo.avg_degree()
        );
        // High-degree class survives construction.
        let high = topo.router_ids().filter(|&r| topo.degree(r) >= 8).count();
        assert!((30..=42).contains(&high), "high-degree count {high}");
    }

    #[test]
    fn all_presets_generate_connected_graphs() {
        for (i, spec) in [
            SkewedSpec::seventy_thirty(),
            SkewedSpec::fifty_fifty(),
            SkewedSpec::eighty_five_fifteen(),
            SkewedSpec::fifty_fifty_dense(),
        ]
        .iter()
        .enumerate()
        {
            let mut rng = SmallRng::seed_from_u64(100 + i as u64);
            let topo = skewed_topology(120, spec, &mut rng).unwrap();
            assert!(topo.is_connected(), "preset {i} disconnected");
            assert!((topo.avg_degree() - spec.mean()).abs() < 0.5);
        }
    }

    #[test]
    fn caida_like_spec_generates_at_scale() {
        // Small enough to stay fast, big enough that the transit tier's
        // power-law tail (hub cap ≈ 4·√n ≈ 98) is actually exercised by
        // the configuration-model construction.
        let mut rng = SmallRng::seed_from_u64(21);
        let spec = crate::degree::caida_like(600);
        let topo = skewed_topology(600, &spec, &mut rng).unwrap();
        assert!(topo.is_connected());
        let stubs = topo.router_ids().filter(|&r| topo.degree(r) <= 3).count();
        assert!(
            (0.70..=0.88).contains(&(stubs as f64 / 600.0)),
            "stub share {} after construction repair",
            stubs as f64 / 600.0
        );
        let max_deg = topo.router_ids().map(|r| topo.degree(r)).max().unwrap();
        assert!(max_deg > 20, "transit tail collapsed: max degree {max_deg}");
    }

    #[test]
    fn power_law_spec_generates() {
        let mut rng = SmallRng::seed_from_u64(3);
        let spec = crate::degree::internet_like(40, 3.4);
        let topo = topology_from_spec(120, &spec, &mut rng).unwrap();
        assert!(topo.is_connected());
        let max_deg = topo.router_ids().map(|r| topo.degree(r)).max().unwrap();
        assert!(max_deg <= 41, "max degree {max_deg} exceeds truncation");
    }
}
