//! Multi-router-per-AS topologies (paper §3.1, last paragraph; used by the
//! "realistic" experiments of §4.1/§4.4 and Fig 13).
//!
//! The paper's recipe:
//!
//! * the number of routers per AS (1–100) follows a heavy-tailed
//!   distribution;
//! * the geographic extent of an AS is proportional to its size (perfect
//!   correlation assumed, per Lakhina et al. \[19\]);
//! * the highest inter-AS degrees are assigned to the largest ASes
//!   (Tangmunarunkit et al. \[20\]);
//! * inter-AS degrees come from an Internet-derived distribution truncated
//!   at degree 40 (average ≈ 3.4).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::degree::DegreeSpec;
use crate::graph::{AsId, Point, Router, RouterId, Topology, TopologyError};
use crate::placement::place;
use crate::GRID_SIDE;

/// Configuration for multi-router-per-AS generation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MultiAsConfig {
    /// Number of ASes.
    pub num_ases: usize,
    /// Largest allowed AS size (paper: 100 routers).
    pub max_as_size: u32,
    /// Pareto shape for AS sizes; smaller ⇒ heavier tail. The paper only
    /// says "heavy tailed"; 1.2 gives a realistic mix of stubs and giants.
    pub size_alpha: f64,
    /// Inter-AS degree distribution (paper: Internet-derived, ≤ 40).
    pub inter_as_degrees: DegreeSpec,
    /// Extra intra-AS links per router beyond the spanning tree, as a
    /// fraction of the AS size (0.5 ⇒ size/2 extra links).
    pub intra_extra_frac: f64,
}

impl MultiAsConfig {
    /// The paper's realistic-topology configuration: 120 ASes, sizes 1–100,
    /// Internet-like inter-AS degrees truncated at 40 with mean ≈ 3.4.
    pub fn realistic(num_ases: usize) -> MultiAsConfig {
        MultiAsConfig {
            num_ases,
            max_as_size: 100,
            size_alpha: 1.2,
            inter_as_degrees: crate::degree::internet_like(40, 3.4),
            intra_extra_frac: 0.5,
        }
    }
}

/// Generates a multi-router-per-AS topology.
///
/// # Errors
///
/// Returns [`TopologyError::GenerationFailed`] if the AS-level graph could
/// not be realized (see [`crate::generators::from_degree_sequence`]).
///
/// # Example
///
/// ```
/// use bgpsim_topology::multias::{generate_multi_as, MultiAsConfig};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(3);
/// let topo = generate_multi_as(&MultiAsConfig::realistic(40), &mut rng)?;
/// assert_eq!(topo.num_ases(), 40);
/// assert!(topo.is_connected());
/// # Ok::<(), bgpsim_topology::TopologyError>(())
/// ```
pub fn generate_multi_as<R: Rng + ?Sized>(
    cfg: &MultiAsConfig,
    rng: &mut R,
) -> Result<Topology, TopologyError> {
    if cfg.num_ases == 0 {
        return Err(TopologyError::Empty);
    }
    let num_ases = cfg.num_ases;

    // 1. AS sizes: bounded Pareto on [1, max_as_size].
    let sizes: Vec<u32> = (0..num_ases)
        .map(|_| bounded_pareto(1.0, f64::from(cfg.max_as_size), cfg.size_alpha, rng))
        .collect();

    // 2–3. Inter-AS degree sequence (largest degree → largest AS) and the
    //    AS-level graph. Power-law samples over few ASes are often
    //    non-graphical (resample on the Erdős–Gallai check), and graphical-
    //    but-extreme sequences can still defeat the constructive repair —
    //    resample those too.
    let centers = place(num_ases, rng);
    let mut by_size: Vec<usize> = (0..num_ases).collect();
    by_size.sort_by_key(|&i| std::cmp::Reverse(sizes[i]));
    let mut as_graph = None;
    for _ in 0..50 {
        let mut degrees = Vec::new();
        let mut found = false;
        for _ in 0..200 {
            degrees = cfg.inter_as_degrees.sample(num_ases, rng);
            // Cap AS-level degree at num_ases - 1 (simple graph) and floor
            // at 1 (every AS must be reachable).
            for d in &mut degrees {
                *d = (*d).min(num_ases as u32 - 1).max(1);
            }
            if degrees.iter().map(|&d| u64::from(d)).sum::<u64>() % 2 == 1 {
                // Restore even sum after capping.
                let i = (0..degrees.len())
                    .min_by_key(|&i| degrees[i])
                    .expect("non-empty");
                degrees[i] += 1;
            }
            if crate::degree::is_graphical(&degrees) {
                found = true;
                break;
            }
        }
        if !found {
            continue;
        }
        let mut sorted_degrees = degrees.clone();
        sorted_degrees.sort_unstable_by_key(|&d| std::cmp::Reverse(d));
        let mut as_degree = vec![0u32; num_ases];
        for (rank, &as_idx) in by_size.iter().enumerate() {
            as_degree[as_idx] = sorted_degrees[rank];
        }
        if let Ok(g) = crate::generators::from_degree_sequence(&as_degree, &centers, rng) {
            as_graph = Some(g);
            break;
        }
    }
    let Some(as_graph) = as_graph else {
        return Err(TopologyError::GenerationFailed(
            "no realizable inter-AS degree sequence found".into(),
        ));
    };

    // 4. Routers: per-AS region with side proportional to sqrt(size) so
    //    *area* scales with size; routers uniform inside, clamped to grid.
    let mut routers: Vec<Router> = Vec::new();
    let mut as_router_ids: Vec<Vec<RouterId>> = vec![Vec::new(); num_ases];
    let side_per_router = GRID_SIDE / 10.0; // extent scale: 100 routers ⇒ full grid
    for (as_idx, (&size, center)) in sizes.iter().zip(&centers).enumerate() {
        let side = side_per_router * f64::from(size).sqrt();
        for _ in 0..size {
            let x = (center.x + rng.gen_range(-side / 2.0..=side / 2.0)).clamp(0.0, GRID_SIDE);
            let y = (center.y + rng.gen_range(-side / 2.0..=side / 2.0)).clamp(0.0, GRID_SIDE);
            let id = RouterId::new(routers.len() as u32);
            routers.push(Router {
                as_id: AsId::new(as_idx as u32),
                pos: Point::new(x, y),
            });
            as_router_ids[as_idx].push(id);
        }
    }

    // 5. Intra-AS links: random spanning tree + extra random links.
    let mut edges: Vec<(RouterId, RouterId)> = Vec::new();
    let mut edge_set: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    let norm = |a: RouterId, b: RouterId| {
        let (x, y) = (a.index() as u32, b.index() as u32);
        if x < y {
            (x, y)
        } else {
            (y, x)
        }
    };
    for members in &as_router_ids {
        // Random-permutation tree: attach each node to a random earlier one.
        for (i, &m) in members.iter().enumerate().skip(1) {
            let parent = members[rng.gen_range(0..i)];
            if edge_set.insert(norm(parent, m)) {
                edges.push((parent, m));
            }
        }
        let extra = (members.len() as f64 * cfg.intra_extra_frac).floor() as usize;
        for _ in 0..extra {
            if members.len() < 3 {
                break;
            }
            let a = members[rng.gen_range(0..members.len())];
            let b = members[rng.gen_range(0..members.len())];
            if a != b && edge_set.insert(norm(a, b)) {
                edges.push((a, b));
            }
        }
    }

    // 6. Inter-AS links: each AS-level edge becomes a link between random
    //    border routers of the two ASes.
    for e in as_graph.edges() {
        let (a_as, b_as) = (e.a().index(), e.b().index());
        let mut placed = false;
        for _ in 0..40 {
            let ra = as_router_ids[a_as][rng.gen_range(0..as_router_ids[a_as].len())];
            let rb = as_router_ids[b_as][rng.gen_range(0..as_router_ids[b_as].len())];
            if edge_set.insert(norm(ra, rb)) {
                edges.push((ra, rb));
                placed = true;
                break;
            }
        }
        if !placed {
            return Err(TopologyError::GenerationFailed(
                "could not place inter-AS link without duplication".into(),
            ));
        }
    }

    let topo = Topology::new(routers, edges)?;
    debug_assert!(topo.is_connected());
    Ok(topo)
}

/// Bounded Pareto sample on `[lo, hi]`, rounded to u32.
fn bounded_pareto<R: Rng + ?Sized>(lo: f64, hi: f64, alpha: f64, rng: &mut R) -> u32 {
    let u: f64 = rng.gen_range(0.0..1.0);
    let la = lo.powf(alpha);
    let ha = hi.powf(alpha);
    let x = (-(u * (1.0 - la / ha) - 1.0) / la).powf(-1.0 / alpha);
    x.round().clamp(lo, hi) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn realistic_topology_shape() {
        let mut rng = SmallRng::seed_from_u64(9);
        let topo = generate_multi_as(&MultiAsConfig::realistic(60), &mut rng).unwrap();
        assert_eq!(topo.num_ases(), 60);
        assert!(topo.num_routers() >= 60);
        assert!(topo.is_connected());
    }

    #[test]
    fn as_sizes_heavy_tailed() {
        let mut rng = SmallRng::seed_from_u64(4);
        let sizes: Vec<u32> = (0..2000)
            .map(|_| bounded_pareto(1.0, 100.0, 1.2, &mut rng))
            .collect();
        assert!(sizes.iter().all(|&s| (1..=100).contains(&s)));
        let ones = sizes.iter().filter(|&&s| s <= 2).count();
        let big = sizes.iter().filter(|&&s| s >= 50).count();
        assert!(ones > 1000, "tail not heavy at the bottom: {ones}");
        assert!(big > 5, "no large ASes: {big}");
    }

    #[test]
    fn largest_as_gets_largest_inter_as_degree() {
        let mut rng = SmallRng::seed_from_u64(11);
        let topo = generate_multi_as(&MultiAsConfig::realistic(50), &mut rng).unwrap();
        let mut sizes: Vec<(AsId, usize, usize)> = topo
            .as_ids()
            .map(|a| (a, topo.as_members(a).len(), topo.inter_as_degree(a)))
            .collect();
        sizes.sort_by_key(|&(_, size, _)| std::cmp::Reverse(size));
        let largest_deg = sizes[0].2;
        let smallest_deg = sizes.last().unwrap().2;
        assert!(
            largest_deg >= smallest_deg,
            "largest AS degree {largest_deg} < smallest AS degree {smallest_deg}"
        );
    }

    #[test]
    fn intra_as_connected() {
        let mut rng = SmallRng::seed_from_u64(2);
        let topo = generate_multi_as(&MultiAsConfig::realistic(30), &mut rng).unwrap();
        // Whole graph connected implies each AS can reach out, but also
        // check ASes are internally connected through intra-AS links only.
        for as_id in topo.as_ids() {
            let members: std::collections::HashSet<_> =
                topo.as_members(as_id).iter().copied().collect();
            if members.len() <= 1 {
                continue;
            }
            let start = *topo.as_members(as_id).first().unwrap();
            let mut seen = std::collections::HashSet::from([start]);
            let mut stack = vec![start];
            while let Some(u) = stack.pop() {
                for &v in topo.neighbors(u) {
                    if members.contains(&v) && seen.insert(v) {
                        stack.push(v);
                    }
                }
            }
            assert_eq!(
                seen.len(),
                members.len(),
                "{as_id} not internally connected"
            );
        }
    }

    #[test]
    fn multi_as_is_deterministic_per_seed() {
        let cfg = MultiAsConfig::realistic(25);
        let a = generate_multi_as(&cfg, &mut SmallRng::seed_from_u64(8)).unwrap();
        let b = generate_multi_as(&cfg, &mut SmallRng::seed_from_u64(8)).unwrap();
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn empty_config_rejected() {
        let mut rng = SmallRng::seed_from_u64(2);
        let cfg = MultiAsConfig {
            num_ases: 0,
            ..MultiAsConfig::realistic(1)
        };
        assert!(matches!(
            generate_multi_as(&cfg, &mut rng),
            Err(TopologyError::Empty)
        ));
    }
}
