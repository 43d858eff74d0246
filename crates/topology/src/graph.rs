//! Router-level topology graph.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a router (dense, 0-based).
///
/// In single-router-per-AS topologies (the paper's default, §3.1) a router
/// is an AS; in multi-router topologies several routers share an [`AsId`].
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct RouterId(u32);

impl RouterId {
    /// Creates a router id from a dense index.
    pub const fn new(index: u32) -> RouterId {
        RouterId(index)
    }

    /// The dense index backing this id.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifier of an Autonomous System (dense, 0-based).
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct AsId(u32);

impl AsId {
    /// Creates an AS id from a dense index.
    pub const fn new(index: u32) -> AsId {
        AsId(index)
    }

    /// The dense index backing this id.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// A point on the placement grid.
#[derive(Clone, Copy, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Point {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance(self, other: Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// A router: position plus AS membership.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Router {
    /// The AS this router belongs to.
    pub as_id: AsId,
    /// Where the router sits on the grid (drives failure-region membership).
    pub pos: Point,
}

/// An undirected link between two routers, stored with `a < b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Edge {
    a: RouterId,
    b: RouterId,
}

impl Edge {
    /// Creates a normalized (smaller id first) edge.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self-loops are not valid links).
    pub fn new(a: RouterId, b: RouterId) -> Edge {
        assert!(a != b, "self-loop edge at {a}");
        if a < b {
            Edge { a, b }
        } else {
            Edge { a: b, b: a }
        }
    }

    /// The endpoint with the smaller id.
    pub fn a(self) -> RouterId {
        self.a
    }

    /// The endpoint with the larger id.
    pub fn b(self) -> RouterId {
        self.b
    }

    /// Both endpoints as a tuple `(smaller, larger)`.
    pub fn endpoints(self) -> (RouterId, RouterId) {
        (self.a, self.b)
    }
}

/// Errors from topology construction or validation.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyError {
    /// An edge references a router index outside the router list.
    EdgeOutOfRange {
        /// The offending router id.
        router: RouterId,
        /// Number of routers in the topology.
        num_routers: usize,
    },
    /// The same undirected edge appears twice.
    DuplicateEdge(Edge),
    /// The topology has no routers.
    Empty,
    /// A generator could not satisfy its constraints (degrees, connectivity).
    GenerationFailed(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::EdgeOutOfRange {
                router,
                num_routers,
            } => {
                write!(
                    f,
                    "edge endpoint {router} out of range for {num_routers} routers"
                )
            }
            TopologyError::DuplicateEdge(e) => {
                write!(f, "duplicate edge between {} and {}", e.a, e.b)
            }
            TopologyError::Empty => write!(f, "topology has no routers"),
            TopologyError::GenerationFailed(msg) => write!(f, "generation failed: {msg}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Serialized form of a [`Topology`]: the validated raw data.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct TopologyData {
    routers: Vec<Router>,
    edges: Vec<Edge>,
}

/// A router-level network topology.
///
/// Immutable once built; adjacency lists and per-AS membership are
/// precomputed. Construct with [`Topology::new`] or one of the generators in
/// [`crate::generators`] / [`crate::multias`].
///
/// # Example
///
/// ```
/// use bgpsim_topology::{Point, Router, RouterId, AsId, Topology};
///
/// let routers = vec![
///     Router { as_id: AsId::new(0), pos: Point::new(0.0, 0.0) },
///     Router { as_id: AsId::new(1), pos: Point::new(3.0, 4.0) },
/// ];
/// let topo = Topology::new(routers, vec![(RouterId::new(0), RouterId::new(1))])?;
/// assert_eq!(topo.degree(RouterId::new(0)), 1);
/// assert!(topo.is_connected());
/// # Ok::<(), bgpsim_topology::TopologyError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Topology {
    routers: Vec<Router>,
    edges: Vec<Edge>,
    adj: Vec<Vec<RouterId>>,
    as_members: BTreeMap<AsId, Vec<RouterId>>,
}

// Serialization round-trips through `TopologyData` (routers + edges only)
// and revalidates on the way in, so a hand-edited JSON topology can never
// produce an inconsistent adjacency structure. Hand-written impls because
// the vendored serde derive does not support `#[serde(try_from, into)]`.
impl Serialize for Topology {
    fn to_value(&self) -> serde::Value {
        TopologyData {
            routers: self.routers.clone(),
            edges: self.edges.clone(),
        }
        .to_value()
    }
}

impl Deserialize for Topology {
    fn from_value(v: &serde::Value) -> Result<Topology, serde::Error> {
        let data = TopologyData::from_value(v)?;
        Topology::try_from(data).map_err(serde::Error::custom)
    }
}

impl TryFrom<TopologyData> for Topology {
    type Error = TopologyError;
    fn try_from(data: TopologyData) -> Result<Topology, TopologyError> {
        Topology::new(data.routers, data.edges.into_iter().map(Edge::endpoints))
    }
}

impl From<Topology> for TopologyData {
    fn from(t: Topology) -> TopologyData {
        TopologyData {
            routers: t.routers,
            edges: t.edges,
        }
    }
}

impl Topology {
    /// Builds and validates a topology from routers and undirected edges.
    ///
    /// Edges may be given in any orientation; they are normalized.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Empty`] for an empty router list,
    /// [`TopologyError::EdgeOutOfRange`] for a dangling edge endpoint, and
    /// [`TopologyError::DuplicateEdge`] if the same link appears twice.
    ///
    /// # Panics
    ///
    /// Panics if an edge is a self-loop (see [`Edge::new`]).
    pub fn new<I>(routers: Vec<Router>, edges: I) -> Result<Topology, TopologyError>
    where
        I: IntoIterator<Item = (RouterId, RouterId)>,
    {
        if routers.is_empty() {
            return Err(TopologyError::Empty);
        }
        let n = routers.len();
        let mut normalized: Vec<Edge> = Vec::new();
        for (a, b) in edges {
            for r in [a, b] {
                if r.index() >= n {
                    return Err(TopologyError::EdgeOutOfRange {
                        router: r,
                        num_routers: n,
                    });
                }
            }
            normalized.push(Edge::new(a, b));
        }
        normalized.sort();
        for pair in normalized.windows(2) {
            if pair[0] == pair[1] {
                return Err(TopologyError::DuplicateEdge(pair[0]));
            }
        }
        let mut adj: Vec<Vec<RouterId>> = vec![Vec::new(); n];
        for e in &normalized {
            adj[e.a.index()].push(e.b);
            adj[e.b.index()].push(e.a);
        }
        for list in &mut adj {
            list.sort();
        }
        let mut as_members: BTreeMap<AsId, Vec<RouterId>> = BTreeMap::new();
        for (i, r) in routers.iter().enumerate() {
            as_members
                .entry(r.as_id)
                .or_default()
                .push(RouterId::new(i as u32));
        }
        Ok(Topology {
            routers,
            edges: normalized,
            adj,
            as_members,
        })
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.routers.len()
    }

    /// Number of distinct ASes.
    pub fn num_ases(&self) -> usize {
        self.as_members.len()
    }

    /// Number of undirected links.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The router record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.index()]
    }

    /// Iterator over all router ids in increasing order.
    pub fn router_ids(&self) -> impl Iterator<Item = RouterId> + '_ {
        (0..self.routers.len() as u32).map(RouterId::new)
    }

    /// Iterator over all AS ids in increasing order.
    pub fn as_ids(&self) -> impl Iterator<Item = AsId> + '_ {
        self.as_members.keys().copied()
    }

    /// All undirected links.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Neighbors of `id`, sorted by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn neighbors(&self, id: RouterId) -> &[RouterId] {
        &self.adj[id.index()]
    }

    /// Degree (number of incident links) of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn degree(&self, id: RouterId) -> usize {
        self.adj[id.index()].len()
    }

    /// Mean router degree, `2·|E| / |V|`.
    pub fn avg_degree(&self) -> f64 {
        2.0 * self.edges.len() as f64 / self.routers.len() as f64
    }

    /// Routers belonging to `as_id` (empty slice if the AS does not exist).
    pub fn as_members(&self, as_id: AsId) -> &[RouterId] {
        self.as_members
            .get(&as_id)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of *inter-AS* links incident to `as_id` (the AS-level degree
    /// used when the paper speaks of node degree in multi-router networks).
    pub fn inter_as_degree(&self, as_id: AsId) -> usize {
        self.edges
            .iter()
            .filter(|e| {
                let (a, b) = (
                    self.routers[e.a.index()].as_id,
                    self.routers[e.b.index()].as_id,
                );
                a != b && (a == as_id || b == as_id)
            })
            .count()
    }

    /// Whether the link between `a` and `b` crosses an AS boundary.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn is_inter_as(&self, a: RouterId, b: RouterId) -> bool {
        self.routers[a.index()].as_id != self.routers[b.index()].as_id
    }

    /// Whether every router can reach every other router.
    pub fn is_connected(&self) -> bool {
        self.components().len() == 1
    }

    /// Connected components, each a sorted list of router ids; components
    /// are ordered by their smallest member.
    pub fn components(&self) -> Vec<Vec<RouterId>> {
        let n = self.routers.len();
        let mut seen = vec![false; n];
        let mut comps = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut comp = Vec::new();
            let mut queue = VecDeque::from([RouterId::new(start as u32)]);
            seen[start] = true;
            while let Some(r) = queue.pop_front() {
                comp.push(r);
                for &nb in self.neighbors(r) {
                    if !seen[nb.index()] {
                        seen[nb.index()] = true;
                        queue.push_back(nb);
                    }
                }
            }
            comp.sort();
            comps.push(comp);
        }
        comps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(as_id: u32, x: f64, y: f64) -> Router {
        Router {
            as_id: AsId::new(as_id),
            pos: Point::new(x, y),
        }
    }

    fn id(i: u32) -> RouterId {
        RouterId::new(i)
    }

    fn line4() -> Topology {
        Topology::new(
            vec![
                r(0, 0.0, 0.0),
                r(1, 1.0, 0.0),
                r(2, 2.0, 0.0),
                r(3, 3.0, 0.0),
            ],
            vec![(id(0), id(1)), (id(1), id(2)), (id(2), id(3))],
        )
        .unwrap()
    }

    #[test]
    fn builds_and_exposes_basic_shape() {
        let t = line4();
        assert_eq!(t.num_routers(), 4);
        assert_eq!(t.num_ases(), 4);
        assert_eq!(t.num_edges(), 3);
        assert_eq!(t.degree(id(1)), 2);
        assert_eq!(t.neighbors(id(1)), &[id(0), id(2)]);
        assert_eq!(t.avg_degree(), 1.5);
        assert!(t.is_connected());
    }

    #[test]
    fn edges_are_normalized_and_deduped() {
        let t = Topology::new(vec![r(0, 0.0, 0.0), r(1, 0.0, 0.0)], vec![(id(1), id(0))]).unwrap();
        assert_eq!(t.edges()[0].endpoints(), (id(0), id(1)));
        let dup = Topology::new(
            vec![r(0, 0.0, 0.0), r(1, 0.0, 0.0)],
            vec![(id(0), id(1)), (id(1), id(0))],
        );
        assert!(matches!(dup, Err(TopologyError::DuplicateEdge(_))));
    }

    #[test]
    fn rejects_out_of_range_and_empty() {
        let err = Topology::new(vec![r(0, 0.0, 0.0)], vec![(id(0), id(5))]);
        assert!(matches!(err, Err(TopologyError::EdgeOutOfRange { .. })));
        assert!(matches!(
            Topology::new(vec![], vec![]),
            Err(TopologyError::Empty)
        ));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        let _ = Topology::new(vec![r(0, 0.0, 0.0)], vec![(id(0), id(0))]);
    }

    #[test]
    fn components_found() {
        let t = Topology::new(
            vec![
                r(0, 0.0, 0.0),
                r(1, 0.0, 0.0),
                r(2, 0.0, 0.0),
                r(3, 0.0, 0.0),
            ],
            vec![(id(0), id(1)), (id(2), id(3))],
        )
        .unwrap();
        assert!(!t.is_connected());
        let comps = t.components();
        assert_eq!(comps, vec![vec![id(0), id(1)], vec![id(2), id(3)]]);
    }

    #[test]
    fn as_membership_and_inter_as() {
        let t = Topology::new(
            vec![r(0, 0.0, 0.0), r(0, 1.0, 0.0), r(1, 2.0, 0.0)],
            vec![(id(0), id(1)), (id(1), id(2))],
        )
        .unwrap();
        assert_eq!(t.num_ases(), 2);
        assert_eq!(t.as_members(AsId::new(0)), &[id(0), id(1)]);
        assert!(!t.is_inter_as(id(0), id(1)));
        assert!(t.is_inter_as(id(1), id(2)));
        assert_eq!(t.inter_as_degree(AsId::new(0)), 1);
        assert_eq!(t.inter_as_degree(AsId::new(1)), 1);
        assert!(t.as_members(AsId::new(9)).is_empty());
    }

    #[test]
    fn point_distance() {
        assert_eq!(Point::new(0.0, 0.0).distance(Point::new(3.0, 4.0)), 5.0);
    }

    #[test]
    fn serde_round_trip() {
        let t = line4();
        let json = serde_json::to_string(&t).unwrap();
        let back: Topology = serde_json::from_str(&json).unwrap();
        assert_eq!(back.num_routers(), 4);
        assert_eq!(back.edges(), t.edges());
        assert_eq!(back.neighbors(id(1)), t.neighbors(id(1)));
    }

    #[test]
    fn serde_rejects_invalid() {
        let json = r#"{"routers":[{"as_id":0,"pos":{"x":0.0,"y":0.0}}],
                       "edges":[{"a":0,"b":9}]}"#;
        assert!(serde_json::from_str::<Topology>(json).is_err());
    }
}
