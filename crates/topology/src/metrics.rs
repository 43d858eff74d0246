//! Graph metrics for characterizing generated topologies.
//!
//! BRITE ships an analysis companion that reports degree statistics, path
//! lengths and clustering for generated graphs; the paper leans on those
//! properties when arguing about degree distributions (§3.1, §4.1). This
//! module provides the same measurements so experiments can report *what*
//! they ran on, and tests can pin generator behaviour.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::graph::{RouterId, Topology};

/// Summary statistics of a topology.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TopologyMetrics {
    /// Number of routers.
    pub routers: usize,
    /// Number of ASes.
    pub ases: usize,
    /// Number of links.
    pub edges: usize,
    /// Mean degree.
    pub avg_degree: f64,
    /// Smallest degree.
    pub min_degree: usize,
    /// Largest degree.
    pub max_degree: usize,
    /// Mean shortest-path length in hops (over connected pairs).
    pub avg_path_length: f64,
    /// Largest shortest-path length (diameter of the largest component).
    pub diameter: usize,
    /// Mean local clustering coefficient.
    pub clustering: f64,
}

/// Computes [`TopologyMetrics`] (BFS from every node — fine for the
/// paper-scale graphs this workspace uses).
///
/// ```
/// use bgpsim_topology::degree::SkewedSpec;
/// use bgpsim_topology::generators::skewed_topology;
/// use bgpsim_topology::metrics::measure;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(1);
/// let topo = skewed_topology(60, &SkewedSpec::seventy_thirty(), &mut rng)?;
/// let m = measure(&topo);
/// assert!(m.avg_path_length > 1.0);
/// assert!(m.diameter >= 2);
/// # Ok::<(), bgpsim_topology::TopologyError>(())
/// ```
pub fn measure(topo: &Topology) -> TopologyMetrics {
    let n = topo.num_routers();
    let degrees: Vec<usize> = topo.router_ids().map(|r| topo.degree(r)).collect();

    // All-pairs shortest paths by repeated BFS.
    let (mut path_sum, mut pairs, mut diameter) = (0u64, 0u64, 0usize);
    for src in topo.router_ids() {
        let mut dist = vec![usize::MAX; n];
        dist[src.index()] = 0;
        let mut q = VecDeque::from([src]);
        while let Some(u) = q.pop_front() {
            for &v in topo.neighbors(u) {
                if dist[v.index()] == usize::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    q.push_back(v);
                }
            }
        }
        for (i, &d) in dist.iter().enumerate() {
            if d != usize::MAX && i != src.index() {
                path_sum += d as u64;
                pairs += 1;
                diameter = diameter.max(d);
            }
        }
    }

    // Mean local clustering coefficient.
    let mut clustering_sum = 0.0;
    let mut clustered_nodes = 0usize;
    for r in topo.router_ids() {
        let nbrs = topo.neighbors(r);
        if nbrs.len() < 2 {
            continue;
        }
        let mut closed = 0usize;
        for (i, &a) in nbrs.iter().enumerate() {
            for &b in &nbrs[i + 1..] {
                if topo.neighbors(a).binary_search(&b).is_ok() {
                    closed += 1;
                }
            }
        }
        let possible = nbrs.len() * (nbrs.len() - 1) / 2;
        clustering_sum += closed as f64 / possible as f64;
        clustered_nodes += 1;
    }

    TopologyMetrics {
        routers: n,
        ases: topo.num_ases(),
        edges: topo.num_edges(),
        avg_degree: topo.avg_degree(),
        min_degree: degrees.iter().copied().min().unwrap_or(0),
        max_degree: degrees.iter().copied().max().unwrap_or(0),
        avg_path_length: if pairs == 0 {
            0.0
        } else {
            path_sum as f64 / pairs as f64
        },
        diameter,
        clustering: if clustered_nodes == 0 {
            0.0
        } else {
            clustering_sum / clustered_nodes as f64
        },
    }
}

/// K-core numbers of a graph given as adjacency lists (`adj[u]` lists
/// `u`'s neighbours, each edge once per direction): the largest `k` such
/// that node `u` belongs to a subgraph where every member has at least `k`
/// neighbours inside it. The maximum core of an engineered hierarchy is
/// its top clique, which is how relationship inference finds the "Tier-1"
/// set without a side channel.
pub fn core_numbers(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();
    let mut removed = vec![false; n];
    let mut core = vec![0usize; n];
    // Peel the minimum-remaining-degree node; its core number is the
    // running maximum of peel degrees (standard degeneracy ordering).
    let mut max_peel = 0usize;
    while let Some(u) = (0..n).filter(|&i| !removed[i]).min_by_key(|&i| degree[i]) {
        max_peel = max_peel.max(degree[u]);
        core[u] = max_peel;
        removed[u] = true;
        for &v in &adj[u] {
            if !removed[v] {
                degree[v] = degree[v].saturating_sub(1);
            }
        }
    }
    core
}

/// Hop distances from `src` to every router (`None` = unreachable).
pub fn distances_from(topo: &Topology, src: RouterId) -> Vec<Option<usize>> {
    let n = topo.num_routers();
    let mut dist = vec![None; n];
    dist[src.index()] = Some(0);
    let mut q = VecDeque::from([src]);
    while let Some(u) = q.pop_front() {
        let du = dist[u.index()].expect("queued nodes have distances");
        for &v in topo.neighbors(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                q.push_back(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{AsId, Point, Router};

    fn line(n: u32) -> Topology {
        let routers = (0..n)
            .map(|i| Router {
                as_id: AsId::new(i),
                pos: Point::new(f64::from(i), 0.0),
            })
            .collect();
        let edges = (1..n).map(|i| (RouterId::new(i - 1), RouterId::new(i)));
        Topology::new(routers, edges).unwrap()
    }

    /// Router-level adjacency lists, the input [`core_numbers`] peels.
    fn adjacency(topo: &Topology) -> Vec<Vec<usize>> {
        topo.router_ids()
            .map(|r| topo.neighbors(r).iter().map(|v| v.index()).collect())
            .collect()
    }

    fn triangle() -> Topology {
        let routers = (0..3)
            .map(|i| Router {
                as_id: AsId::new(i),
                pos: Point::new(f64::from(i), 0.0),
            })
            .collect();
        Topology::new(
            routers,
            vec![
                (RouterId::new(0), RouterId::new(1)),
                (RouterId::new(1), RouterId::new(2)),
                (RouterId::new(0), RouterId::new(2)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn line_metrics() {
        let m = measure(&line(4));
        assert_eq!(m.diameter, 3);
        // Pairs at distances 1,1,1,2,2,3 (each direction): mean = 10/6.
        assert!((m.avg_path_length - 10.0 / 6.0).abs() < 1e-9);
        assert_eq!(m.clustering, 0.0);
        assert_eq!(m.min_degree, 1);
        assert_eq!(m.max_degree, 2);
    }

    #[test]
    fn triangle_is_fully_clustered() {
        let m = measure(&triangle());
        assert_eq!(m.clustering, 1.0);
        assert_eq!(m.diameter, 1);
        assert_eq!(m.avg_path_length, 1.0);
    }

    #[test]
    fn distances_from_source() {
        let topo = line(5);
        let d = distances_from(&topo, RouterId::new(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn distances_mark_unreachable() {
        let routers = (0..3)
            .map(|i| Router {
                as_id: AsId::new(i),
                pos: Point::new(f64::from(i), 0.0),
            })
            .collect();
        let topo = Topology::new(routers, vec![(RouterId::new(0), RouterId::new(1))]).unwrap();
        let d = distances_from(&topo, RouterId::new(0));
        assert_eq!(d[2], None);
    }

    #[test]
    fn core_numbers_on_known_graphs() {
        // A line is 1-degenerate everywhere.
        assert_eq!(core_numbers(&adjacency(&line(5))), vec![1; 5]);
        // A triangle is a 2-core.
        assert_eq!(core_numbers(&adjacency(&triangle())), vec![2; 3]);
        // Triangle + pendant: pendant is core 1, triangle core 2.
        let routers = (0..4)
            .map(|i| Router {
                as_id: AsId::new(i),
                pos: Point::new(f64::from(i), 0.0),
            })
            .collect();
        let topo = Topology::new(
            routers,
            vec![
                (RouterId::new(0), RouterId::new(1)),
                (RouterId::new(1), RouterId::new(2)),
                (RouterId::new(0), RouterId::new(2)),
                (RouterId::new(2), RouterId::new(3)),
            ],
        )
        .unwrap();
        assert_eq!(core_numbers(&adjacency(&topo)), vec![2, 2, 2, 1]);
    }

    #[test]
    fn hierarchical_max_core_is_the_top_clique() {
        use crate::generators::{hierarchical, HierarchicalParams};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(6);
        let params = HierarchicalParams::three_tier_120();
        let topo = hierarchical(&params, &mut rng).unwrap();
        let core = core_numbers(&adjacency(&topo));
        let max = *core.iter().max().unwrap();
        let top: Vec<usize> = (0..core.len()).filter(|&i| core[i] == max).collect();
        // The 6-node clique is (part of) the maximum core; every clique
        // member must be in it.
        for i in 0..6 {
            assert!(top.contains(&i), "clique node {i} not in the max core");
        }
    }

    #[test]
    fn skewed_graphs_cluster_more_than_lines() {
        use crate::degree::SkewedSpec;
        use crate::generators::skewed_topology;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(2);
        let topo = skewed_topology(80, &SkewedSpec::seventy_thirty(), &mut rng).unwrap();
        let m = measure(&topo);
        assert!(m.clustering > 0.0);
        assert!(m.avg_path_length < 6.0, "skewed graphs are small worlds");
    }
}
