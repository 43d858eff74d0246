//! Hierarchical (Internet-like) topology generator.
//!
//! Random degree-sequence graphs have no engineered hierarchy: under
//! valley-free routing policies, large parts of such graphs cannot reach
//! each other (no up–peer–down path exists), which makes policy-vs-no-policy
//! convergence comparisons apples-to-oranges. The real Internet is built
//! the other way around: a small clique of transit-free "Tier-1" providers,
//! and every other AS buying transit from someone closer to the core.
//!
//! This generator reproduces that shape: tier 0 is a full clique; each node
//! of tier *i* buys transit from `providers` random nodes of tier *i − 1*;
//! optional settlement-free peer links connect nodes within a tier. Every
//! node has an all-the-way-up provider chain, so **valley-free reachability
//! is total** — the property the policy experiments rely on.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::graph::{Point, Topology, TopologyError};
use crate::placement::place;

/// Parameters of the hierarchical generator.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HierarchicalParams {
    /// Nodes per tier, top (the clique) first. All sizes must be ≥ 1.
    pub tier_sizes: Vec<usize>,
    /// Transit providers each non-top node buys from (clamped to the size
    /// of the tier above).
    pub providers: usize,
    /// Probability that a node links to a random same-tier peer.
    pub peer_prob: f64,
}

impl HierarchicalParams {
    /// A 120-node three-tier Internet analogue: a 6-node core clique, 30
    /// regional providers, 84 edge ASes, dual-homed, light peering.
    pub fn three_tier_120() -> HierarchicalParams {
        HierarchicalParams {
            tier_sizes: vec![6, 30, 84],
            providers: 2,
            peer_prob: 0.15,
        }
    }

    /// Scales [`three_tier_120`](Self::three_tier_120) proportionally to
    /// `n` total nodes (n ≥ 10).
    pub fn three_tier(n: usize) -> HierarchicalParams {
        let top = (n / 20).max(3);
        let mid = (n / 4).max(top + 1);
        let edge = n.saturating_sub(top + mid).max(1);
        HierarchicalParams {
            tier_sizes: vec![top, mid, edge],
            providers: 2,
            peer_prob: 0.15,
        }
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.tier_sizes.iter().sum()
    }

    /// The per-node tier vector (node ids are assigned tier by tier, top
    /// first) — ground truth for relationship inference.
    pub fn tier_vector(&self) -> Vec<usize> {
        let mut tiers = Vec::with_capacity(self.num_nodes());
        for (t, &size) in self.tier_sizes.iter().enumerate() {
            tiers.extend(std::iter::repeat_n(t, size));
        }
        tiers
    }
}

/// Generates a hierarchical topology (one AS per router).
///
/// Node ids are assigned tier by tier (top first), so
/// [`HierarchicalParams::tier_vector`] gives ground-truth tiers for
/// relationship assignment — pass it to the simulation rather than relying
/// on graph-based inference (small cliques are not reliably recoverable
/// from degree or core structure).
///
/// # Errors
///
/// Returns [`TopologyError::GenerationFailed`] for malformed parameters
/// (empty tiers, zero providers, out-of-range peer probability).
///
/// # Example
///
/// ```
/// use bgpsim_topology::generators::{hierarchical, HierarchicalParams};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(1);
/// let topo = hierarchical(&HierarchicalParams::three_tier_120(), &mut rng)?;
/// assert_eq!(topo.num_routers(), 120);
/// assert!(topo.is_connected());
/// # Ok::<(), bgpsim_topology::TopologyError>(())
/// ```
pub fn hierarchical<R: Rng + ?Sized>(
    params: &HierarchicalParams,
    rng: &mut R,
) -> Result<Topology, TopologyError> {
    if params.tier_sizes.is_empty() || params.tier_sizes.contains(&0) {
        return Err(TopologyError::GenerationFailed(
            "hierarchical tiers must be non-empty".into(),
        ));
    }
    if params.providers == 0 {
        return Err(TopologyError::GenerationFailed(
            "hierarchical nodes need at least one provider".into(),
        ));
    }
    if !(0.0..=1.0).contains(&params.peer_prob) {
        return Err(TopologyError::GenerationFailed(format!(
            "peer_prob {} outside [0, 1]",
            params.peer_prob
        )));
    }

    let n = params.num_nodes();
    let positions: Vec<Point> = place(n, rng);

    // Node ids: tier 0 first, then tier 1, etc.
    let mut tier_start = Vec::with_capacity(params.tier_sizes.len());
    let mut acc = 0usize;
    for &size in &params.tier_sizes {
        tier_start.push(acc);
        acc += size;
    }

    let mut edges: std::collections::BTreeSet<(u32, u32)> = std::collections::BTreeSet::new();
    let add = |a: usize, b: usize, edges: &mut std::collections::BTreeSet<(u32, u32)>| {
        if a != b {
            let (x, y) = if a < b {
                (a as u32, b as u32)
            } else {
                (b as u32, a as u32)
            };
            edges.insert((x, y));
        }
    };

    // Tier 0: full clique.
    let top = params.tier_sizes[0];
    for a in 0..top {
        for b in (a + 1)..top {
            add(a, b, &mut edges);
        }
    }

    // Lower tiers: transit links up, optional peer links sideways.
    for (t, &size) in params.tier_sizes.iter().enumerate().skip(1) {
        let above_start = tier_start[t - 1];
        let above_size = params.tier_sizes[t - 1];
        let start = tier_start[t];
        for i in 0..size {
            let node = start + i;
            let want = params.providers.min(above_size);
            let mut chosen: Vec<usize> = Vec::with_capacity(want);
            let mut guard = 50 * want + 10;
            while chosen.len() < want && guard > 0 {
                guard -= 1;
                let p = above_start + rng.gen_range(0..above_size);
                if !chosen.contains(&p) {
                    chosen.push(p);
                }
            }
            for p in chosen {
                add(node, p, &mut edges);
            }
            if size > 1 && rng.gen::<f64>() < params.peer_prob {
                let peer = start + rng.gen_range(0..size);
                add(node, peer, &mut edges);
            }
        }
    }

    let topo = crate::generators::single_as_topology(&positions, edges.into_iter().collect())?;
    debug_assert!(topo.is_connected());
    Ok(topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn three_tier_shape() {
        let mut rng = SmallRng::seed_from_u64(3);
        let params = HierarchicalParams::three_tier_120();
        let topo = hierarchical(&params, &mut rng).unwrap();
        assert_eq!(topo.num_routers(), 120);
        assert!(topo.is_connected());
        // The clique is there: the first 6 nodes are pairwise adjacent.
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                assert!(
                    topo.neighbors(crate::graph::RouterId::new(a))
                        .contains(&crate::graph::RouterId::new(b)),
                    "clique edge {a}-{b} missing"
                );
            }
        }
        // Edge nodes have at least their provider links.
        for i in 36..120u32 {
            assert!(topo.degree(crate::graph::RouterId::new(i)) >= 2);
        }
    }

    #[test]
    fn scaled_params_cover_n() {
        for n in [20, 60, 120, 240] {
            let p = HierarchicalParams::three_tier(n);
            assert!(p.num_nodes() >= n - 2 && p.num_nodes() <= n + 2, "n={n}");
            let mut rng = SmallRng::seed_from_u64(n as u64);
            let topo = hierarchical(&p, &mut rng).unwrap();
            assert!(topo.is_connected());
        }
    }

    #[test]
    fn rejects_bad_params() {
        let mut rng = SmallRng::seed_from_u64(0);
        let bad = HierarchicalParams {
            tier_sizes: vec![],
            providers: 2,
            peer_prob: 0.1,
        };
        assert!(hierarchical(&bad, &mut rng).is_err());
        let bad = HierarchicalParams {
            tier_sizes: vec![3, 0],
            providers: 2,
            peer_prob: 0.1,
        };
        assert!(hierarchical(&bad, &mut rng).is_err());
        let bad = HierarchicalParams {
            tier_sizes: vec![3, 5],
            providers: 0,
            peer_prob: 0.1,
        };
        assert!(hierarchical(&bad, &mut rng).is_err());
        let bad = HierarchicalParams {
            tier_sizes: vec![3, 5],
            providers: 2,
            peer_prob: 1.5,
        };
        assert!(hierarchical(&bad, &mut rng).is_err());
    }

    #[test]
    fn tier_vector_matches_layout() {
        let p = HierarchicalParams {
            tier_sizes: vec![2, 3],
            providers: 1,
            peer_prob: 0.0,
        };
        assert_eq!(p.tier_vector(), vec![0, 0, 1, 1, 1]);
    }

    #[test]
    fn generation_is_deterministic() {
        let p = HierarchicalParams::three_tier_120();
        let a = hierarchical(&p, &mut SmallRng::seed_from_u64(9)).unwrap();
        let b = hierarchical(&p, &mut SmallRng::seed_from_u64(9)).unwrap();
        assert_eq!(a.edges(), b.edges());
    }
}
