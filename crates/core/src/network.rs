//! The simulated BGP network: topology + routers + event loop.
//!
//! Reproduces the paper's SSFNet setup (§3.2):
//!
//! * every link has a 25 ms one-way delay (transmission + propagation +
//!   reception);
//! * eBGP sessions run over the topology's inter-AS links; routers inside
//!   an AS form a full iBGP mesh (sessions are TCP overlays, so the mesh
//!   exists regardless of the intra-AS link layout);
//! * each AS originates one prefix (from its lowest-id router);
//! * failures take down **all routers and links** in the failed region
//!   simultaneously; surviving session peers detect the loss after a
//!   configurable delay (zero by default — the paper never invokes hold
//!   timers and its delays start near seconds, implying link-layer
//!   notification);
//! * the convergence delay of a failure is the time from injection to the
//!   last routing-relevant event (message sent/delivered or processing
//!   completed) once the event queue quiesces.

use bgpsim_bgp::config::MraiPolicy;
use bgpsim_bgp::mrai::MraiScope;
use bgpsim_bgp::node::Action;
use bgpsim_bgp::policy::{relationship_by_tier, PolicyMode, Relationship};
use bgpsim_bgp::queue::QueueDiscipline;
use bgpsim_bgp::{BgpNode, NodeConfig, Prefix, UpdateMsg};
use bgpsim_des::{FelKind, RngStreams, Scheduler, SimDuration, SimTime};
use bgpsim_topology::region::FailureSpec;
use bgpsim_topology::{AsId, RouterId, Topology};
use rand::Rng;
use std::sync::Arc;

use crate::metrics::RunStats;
use crate::scheme::{MraiAssignment, Scheme};

/// How routers inside an AS exchange routes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize, Default)]
pub enum IbgpMode {
    /// Full iBGP mesh (classic BGP; the default — what SSFNet models).
    #[default]
    FullMesh,
    /// A single route reflector per AS (RFC 4456): the lowest-id router
    /// peers with every other member, which peer only with it. Scales the
    /// session count from O(n²) to O(n) per AS at the cost of one extra
    /// intra-AS hop — and of the reflector as a single point of failure.
    RouteReflector,
}

/// How surviving routers learn that a session peer died.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum DetectionMode {
    /// Link-layer notification after a fixed delay (the paper's implicit
    /// model; zero delay by default).
    LinkLayer(SimDuration),
    /// BGP hold-timer expiry: with keepalives every `hold/3`, a peer death
    /// is noticed `hold − U(0, hold/3)` after the failure (RFC 1771
    /// defaults: hold 90 s). Makes detection, not re-convergence, the
    /// dominant term — the ablation for the paper's instant-detection
    /// assumption.
    HoldTimer {
        /// The negotiated hold time.
        hold: SimDuration,
    },
}

/// Full-table workload: instead of the flat `prefixes_per_as` allocation
/// (every AS originates exactly `k` prefixes), the table is a power-law-
/// skewed per-AS block plan
/// ([`PrefixPlan`](bgpsim_topology::prefixes::PrefixPlan)): a few ASes
/// originate thousands of prefixes, the long tail one or two, totalling
/// `total_prefixes` network-wide — the §5 "200,000 destinations"
/// observation made a real workload.
///
/// The plan is a pure function of `(as_count, total_prefixes, skew)` — no
/// RNG stream is touched — so full-table runs stay bit-reproducible and
/// byte-identical between the serial and sharded engines.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FullTableSpec {
    /// Total prefixes across the network (every AS originates at least
    /// one, so the realized table is `max(total_prefixes, as_count)`).
    pub total_prefixes: u32,
    /// Zipf exponent over the AS rank: `0.0` = uniform split, `1.0` =
    /// Internet-like concentration.
    pub skew: f64,
}

impl FullTableSpec {
    /// An Internet-like table: `total` prefixes, Zipf exponent 1.0.
    pub fn internet_like(total: u32) -> FullTableSpec {
        FullTableSpec {
            total_prefixes: total,
            skew: 1.0,
        }
    }
}

/// One-way delay of every link (paper: 25 ms). It is also the sharded
/// loop's lookahead: a message sent at `t` arrives at `t + LINK_DELAY`.
pub(crate) const LINK_DELAY: SimDuration = SimDuration::from_millis(25);

/// Simulation-wide configuration. Every link delays by 25 ms, and routers
/// process each update in U(1, 30) ms, the [`NodeConfig`] default.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// How session peers detect a failure, and after what delay.
    pub detection: DetectionMode,
    /// Prefixes originated per AS (paper: 1; the Internet holds thousands
    /// per AS — raising this scales the update load per failed AS, the
    /// §5 "200,000 destinations" observation).
    pub prefixes_per_as: usize,
    /// Full-table workload plan. When set it supersedes `prefixes_per_as`:
    /// prefix blocks are sized per AS by the power-law plan (see
    /// [`FullTableSpec`]).
    pub full_table: Option<FullTableSpec>,
    /// Prefix originations are spread uniformly over this window at t = 0.
    pub origination_window: SimDuration,
    /// How nodes get their MRAI.
    pub mrai: MraiAssignment,
    /// Input-queue discipline at every node.
    pub queue: QueueDiscipline,
    /// MRAI scope.
    pub mrai_scope: MraiScope,
    /// RFC 1771 timer jitter.
    pub jitter: bool,
    /// Withdrawal rate limiting (WRATE).
    pub wrate: bool,
    /// Deshpande & Sikdar timer cancelling at every node.
    pub expedite_improvements: bool,
    /// Gao–Rexford policies with relationships from the AS hierarchy tiers.
    pub policy: bool,
    /// RFC 2439 route-flap damping on eBGP sessions.
    pub damping: Option<bgpsim_bgp::damping::DampingConfig>,
    /// Intra-AS session layout.
    pub ibgp_mode: IbgpMode,
    /// Explicit per-AS hierarchy tiers for policy relationships (indexed by
    /// AS index; lower = closer to the core). When `None`, tiers are
    /// inferred from the graph (BFS depth from the maximum k-core).
    /// Hierarchical topologies pass their ground-truth tiers here.
    pub policy_tiers: Option<Vec<usize>>,
    /// Shard count for the sharded event loop (conservative PDES with
    /// link-delay lookahead — see the `shard` module). `None` falls back
    /// to the `BGPSIM_SHARDS` environment variable, absent → 1 (serial).
    /// Any value yields bit-identical results; >1 buys wall-clock from
    /// cores inside a single trial.
    pub shards: Option<usize>,
    /// Inert: the sharded loop's single-pass epoch (see the `shard`
    /// module) has no commit stage to spread over streams, so the value
    /// is ignored and [`Network::commit_stream_count`] reports the shard
    /// count. Kept so existing configurations still build.
    pub commit_streams: Option<usize>,
    /// Inert: the binary-heap [`Scheduler`] is the only future-event
    /// list, so the value is ignored and [`Network::fel_kind`] reports
    /// [`FelKind::Heap`]. Kept so existing configurations still build.
    pub fel: Option<FelKind>,
    /// Root seed for all randomness in this run.
    pub seed: u64,
}

impl SimConfig {
    /// The paper's defaults with MRAI 30 s everywhere.
    pub fn new(seed: u64) -> SimConfig {
        SimConfig {
            detection: DetectionMode::LinkLayer(SimDuration::ZERO),
            prefixes_per_as: 1,
            full_table: None,
            origination_window: SimDuration::from_secs(1),
            mrai: MraiAssignment::Uniform(MraiPolicy::Constant(SimDuration::from_secs(30))),
            queue: QueueDiscipline::Fifo,
            mrai_scope: MraiScope::PerPeer,
            jitter: true,
            wrate: false,
            expedite_improvements: false,
            policy: false,
            damping: None,
            ibgp_mode: IbgpMode::FullMesh,
            policy_tiers: None,
            shards: None,
            commit_streams: None,
            fel: None,
            seed,
        }
    }

    /// The paper's defaults with the given scheme's MRAI assignment, queue
    /// discipline and ablation overrides applied.
    pub fn from_scheme(scheme: &Scheme, seed: u64) -> SimConfig {
        let mut cfg = SimConfig {
            mrai: scheme.mrai.clone(),
            queue: scheme.queue,
            ..SimConfig::new(seed)
        };
        let o = &scheme.overrides;
        if let Some(v) = o.jitter {
            cfg.jitter = v;
        }
        if let Some(v) = o.wrate {
            cfg.wrate = v;
        }
        if let Some(v) = o.detection_delay {
            cfg.detection = DetectionMode::LinkLayer(v);
        }
        if let Some(v) = o.hold_timer {
            cfg.detection = DetectionMode::HoldTimer { hold: v };
        }
        if let Some(v) = o.prefixes_per_as {
            cfg.prefixes_per_as = v;
        }
        if let Some(v) = o.full_table {
            cfg.full_table = Some(v);
        }
        if let Some(v) = o.mrai_scope {
            cfg.mrai_scope = v;
        }
        if let Some(v) = o.expedite_improvements {
            cfg.expedite_improvements = v;
        }
        if let Some(v) = o.policy {
            cfg.policy = v;
        }
        if let Some(v) = o.damping {
            cfg.damping = Some(v);
        }
        if let Some(v) = o.ibgp_mode {
            cfg.ibgp_mode = v;
        }
        cfg
    }
}

/// Events exchanged through the scheduler.
#[derive(Clone, Debug)]
pub(crate) enum Ev {
    /// `node` originates one of its AS's prefixes.
    Originate { node: RouterId, prefix: Prefix },
    /// `node` stops originating `prefix` (burst-withdrawal injection):
    /// the inverse of `Originate` — the local route leaves the Loc-RIB
    /// and peers hear a withdrawal (or the best learned replacement).
    WithdrawOrigin { node: RouterId, prefix: Prefix },
    /// `msg` from `from` arrives at `to` after the link delay.
    Deliver {
        to: RouterId,
        from: RouterId,
        msg: UpdateMsg,
    },
    /// `node`'s in-service batch completes.
    ProcDone { node: RouterId },
    /// An MRAI timer of `node` towards `peer` expires.
    MraiExpiry {
        node: RouterId,
        peer: RouterId,
        prefix: Option<Prefix>,
        gen: u64,
    },
    /// `node` detects the loss of its session with `peer`.
    PeerDown { node: RouterId, peer: RouterId },
    /// `node` (re-)establishes its session with `peer`.
    PeerUp { node: RouterId, peer: RouterId },
    /// A flap-damping reuse timer of `node` for `peer`'s route expires.
    ReuseExpiry {
        node: RouterId,
        peer: RouterId,
        prefix: Prefix,
        gen: u64,
    },
}

/// The world state event handling reads besides the router itself —
/// frozen for the duration of a pump, which is what lets the sharded loop
/// share it read-only across workers.
#[derive(Clone, Copy)]
pub(crate) struct World<'a> {
    pub(crate) topo: &'a Topology,
    /// Per-AS hierarchy tiers (empty unless policies are on).
    pub(crate) tiers: &'a [usize],
    pub(crate) alive: &'a [bool],
    pub(crate) dead_links: &'a std::collections::HashSet<(u32, u32)>,
}

impl World<'_> {
    fn session_alive(&self, a: RouterId, b: RouterId) -> bool {
        self.alive[a.index()] && self.alive[b.index()] && !self.dead_links.contains(&link_key(a, b))
    }
}

/// Runs the handler `ev` invokes, appending its actions to `out` (cleared
/// first). `nodes` holds the routers from index `base` on — the whole
/// network for the serial loop, one shard's block for the sharded one.
/// Returns the handling router and whether the event marks activity, or
/// `None` when the event is dropped: a dead router, or a `PeerUp` on a
/// dead session. The one place that defines each event's semantics:
///
/// - MRAI and reuse expiries mark activity only when they emit actions;
/// - a `PeerDown` marks it only through a send;
/// - every other handled event marks it.
pub(crate) fn dispatch(
    world: &World<'_>,
    nodes: &mut [Option<BgpNode>],
    base: usize,
    t: SimTime,
    ev: Ev,
    out: &mut Vec<Action>,
) -> Option<(RouterId, bool)> {
    out.clear();
    fn router(nodes: &mut [Option<BgpNode>], base: usize, r: RouterId) -> Option<&mut BgpNode> {
        nodes[r.index() - base].as_mut()
    }
    let (node, active) = match ev {
        Ev::Originate { node, prefix } => {
            router(nodes, base, node)?.originate_into(t, prefix, out);
            (node, true)
        }
        Ev::WithdrawOrigin { node, prefix } => {
            router(nodes, base, node)?.withdraw_origin_into(t, prefix, out);
            (node, true)
        }
        Ev::Deliver { to, from, msg } => {
            router(nodes, base, to)?.on_update_into(t, from, msg, out);
            (to, true)
        }
        Ev::ProcDone { node } => {
            router(nodes, base, node)?.on_proc_done_into(t, out);
            (node, true)
        }
        Ev::MraiExpiry {
            node,
            peer,
            prefix,
            gen,
        } => {
            router(nodes, base, node)?.on_mrai_expiry_into(t, peer, prefix, gen, out);
            (node, !out.is_empty())
        }
        Ev::ReuseExpiry {
            node,
            peer,
            prefix,
            gen,
        } => {
            router(nodes, base, node)?.on_reuse_expiry_into(t, peer, prefix, gen, out);
            (node, !out.is_empty())
        }
        Ev::PeerDown { node, peer } => {
            router(nodes, base, node)?.on_peer_down_into(t, peer, out);
            let sent = out.iter().any(|a| matches!(a, Action::Send { .. }));
            (node, sent)
        }
        Ev::PeerUp { node, peer } => {
            if !world.session_alive(node, peer) {
                return None;
            }
            let ibgp = !world.topo.is_inter_as(node, peer);
            let rel = (!world.tiers.is_empty() && !ibgp).then(|| {
                relationship_by_tier(
                    world.tiers[world.topo.router(node).as_id.index()],
                    world.tiers[world.topo.router(peer).as_id.index()],
                )
            });
            router(nodes, base, node)?.on_peer_up_into(t, peer, ibgp, rel, out);
            (node, true)
        }
    };
    Some((node, active))
}

/// The same-router event a non-send action schedules, and when it fires.
pub(crate) fn follow_up(node: RouterId, t: SimTime, action: &Action) -> (SimTime, Ev) {
    match *action {
        Action::StartProcessing { duration } => (t + duration, Ev::ProcDone { node }),
        Action::StartMrai {
            peer,
            prefix,
            delay,
            gen,
        } => (
            t + delay,
            Ev::MraiExpiry {
                node,
                peer,
                prefix,
                gen,
            },
        ),
        Action::StartReuse {
            peer,
            prefix,
            delay,
            gen,
        } => (
            t + delay,
            Ev::ReuseExpiry {
                node,
                peer,
                prefix,
                gen,
            },
        ),
        Action::Send { .. } => unreachable!("sends cross a link; they have no follow-up"),
    }
}

/// Wall-clock gap between initial convergence and failure injection.
const FAILURE_GAP: SimDuration = SimDuration::from_secs(1);

/// Parses a count-valued configuration string (`BGPSIM_SHARDS`). `None`
/// on anything that is not a non-negative integer; `name` only labels the
/// warning the env wrapper prints. Split from the env read so the parsing
/// is unit-testable without racing other tests on process-global
/// environment state.
pub(crate) fn parse_count(name: &str, raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!(
                "warning: ignoring invalid {name}={raw:?} \
                 (expected a non-negative integer); running with the default"
            );
            None
        }
    }
}

/// Reads a count-valued environment variable, warning on stderr (with the
/// offending value) instead of silently falling back when it is invalid.
fn env_count(name: &str) -> Option<usize> {
    let raw = std::env::var(name).ok()?;
    parse_count(name, &raw)
}

/// Interns a node configuration in the network-level config arena: every
/// node built from identical settings shares one allocation, and network
/// clones keep sharing it. A network has one to three distinct configs in
/// practice (the MRAI assignment is the only per-node part), so a linear
/// equality scan beats any hashing.
fn intern_node_config(arena: &mut Vec<Arc<NodeConfig>>, node_cfg: NodeConfig) -> Arc<NodeConfig> {
    if let Some(hit) = arena.iter().find(|c| ***c == node_cfg) {
        return Arc::clone(hit);
    }
    let shared = Arc::new(node_cfg);
    arena.push(Arc::clone(&shared));
    shared
}

/// Normalized router-id pair keying [`Network::dead_links`].
pub(crate) fn link_key(a: RouterId, b: RouterId) -> (u32, u32) {
    if a < b {
        (a.index() as u32, b.index() as u32)
    } else {
        (b.index() as u32, a.index() as u32)
    }
}

/// Hierarchy tiers for relationship inference, indexed by AS index: BFS
/// depth over the AS-level graph starting from the maximum-degree ASes
/// (tier 0, the "Tier-1" analogue). Every non-top AS has a neighbor one
/// tier up — a provider — so no customer cone is stranded behind a local
/// degree peak, mirroring how real AS hierarchies hang off the core.
fn as_tiers(topo: &Topology) -> Vec<usize> {
    let num_ases = topo.num_ases();
    // AS-level adjacency from inter-AS links.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); num_ases];
    for e in topo.edges() {
        let (a, b) = (
            topo.router(e.a()).as_id.index(),
            topo.router(e.b()).as_id.index(),
        );
        if a != b {
            adj[a].push(b);
            adj[b].push(a);
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    let degrees: Vec<usize> = adj.iter().map(Vec::len).collect();

    // The "Tier-1" set: the maximum k-core of the AS graph — the engineered
    // clique in hierarchical topologies, the densest hub cluster elsewhere.
    // When the whole graph is one core (no density differentiation, e.g. a
    // path), fall back to the maximum-degree set.
    let core = bgpsim_topology::metrics::core_numbers(&adj);
    let max_core = core.iter().copied().max().unwrap_or(0);
    let mut tier0: Vec<usize> = (0..num_ases).filter(|&a| core[a] == max_core).collect();
    if tier0.len() == num_ases {
        let top = degrees.iter().copied().max().unwrap_or(0);
        tier0 = (0..num_ases).filter(|&a| degrees[a] == top).collect();
    }

    let mut tier = vec![usize::MAX; num_ases];
    let mut queue = std::collections::VecDeque::new();
    for a in tier0 {
        tier[a] = 0;
        queue.push_back(a);
    }
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if tier[v] == usize::MAX {
                tier[v] = tier[u] + 1;
                queue.push_back(v);
            }
        }
    }
    // Isolated ASes (no inter-AS links) sit at the bottom.
    for t in &mut tier {
        if *t == usize::MAX {
            *t = num_ases;
        }
    }
    tier
}

/// Builds the per-node BGP configuration for `r` under `cfg` — the MRAI
/// assignment is the only per-node part (degree-dependent and dynamic-at-
/// hubs schemes read the router's degree).
fn build_node_config(cfg: &SimConfig, topo: &Topology, r: RouterId) -> NodeConfig {
    // In route-reflector mode the lowest-id member of each AS reflects.
    let route_reflector = cfg.ibgp_mode == IbgpMode::RouteReflector
        && topo.as_members(topo.router(r).as_id).first() == Some(&r);
    let mrai = match &cfg.mrai {
        MraiAssignment::Uniform(p) => p.clone(),
        MraiAssignment::DegreeDependent {
            high_degree_min,
            low,
            high,
        } => {
            if topo.degree(r) >= *high_degree_min {
                MraiPolicy::Constant(*high)
            } else {
                MraiPolicy::Constant(*low)
            }
        }
        MraiAssignment::OracleFailureSize { table } => {
            // Before the failure, nodes run the smallest MRAI (the common
            // small-failure case); the oracle retunes them at injection.
            MraiPolicy::Constant(table.first().expect("oracle table must not be empty").1)
        }
    };
    NodeConfig {
        mrai,
        mrai_scope: cfg.mrai_scope,
        jitter: cfg.jitter,
        withdrawal_rate_limiting: cfg.wrate,
        queue: cfg.queue,
        expedite_improvements: cfg.expedite_improvements,
        policy: if cfg.policy {
            PolicyMode::GaoRexford
        } else {
            PolicyMode::None
        },
        damping: cfg.damping,
        route_reflector,
        ..NodeConfig::default()
    }
}

/// Routing-state memory accounting for a whole network, as reported by
/// [`Network::memory_footprint`]. All byte counts are *heap held by the
/// routing state* (Adj-RIBs-In, Loc-RIBs, delta Adj-RIBs-Out, per-peer
/// queues and in-service batches), not process RSS — pair with a
/// `VmHWM` read for the latter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Route entries currently held across all live routers
    /// (Adj-RIB-In entries plus Loc-RIB selections).
    pub routes: usize,
    /// Total routing-state heap bytes across all live routers.
    pub rib_heap_bytes: usize,
    /// Largest single router's routing-state heap — the per-node
    /// high-water mark (hubs dominate on skewed topologies).
    pub max_node_rib_heap_bytes: usize,
    /// Distinct `NodeConfig` allocations in the interned config arena.
    pub config_arena_entries: usize,
}

impl MemoryFootprint {
    /// Average routing-state heap bytes per held route (0 when empty).
    pub fn bytes_per_route(&self) -> f64 {
        if self.routes == 0 {
            0.0
        } else {
            self.rib_heap_bytes as f64 / self.routes as f64
        }
    }
}

/// A fully wired simulated network.
///
/// Typical lifecycle: [`new`](Network::new) →
/// [`run_initial_convergence`](Network::run_initial_convergence) →
/// [`inject_failure`](Network::inject_failure) →
/// [`run_to_quiescence`](Network::run_to_quiescence); or just
/// [`run_failure_experiment`](Network::run_failure_experiment) for the
/// whole pipeline.
///
/// # Example
///
/// ```
/// use bgpsim::network::{Network, SimConfig};
/// use bgpsim::Scheme;
/// use bgpsim_topology::degree::SkewedSpec;
/// use bgpsim_topology::generators::skewed_topology;
/// use bgpsim_topology::region::FailureSpec;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(7);
/// let topo = skewed_topology(25, &SkewedSpec::seventy_thirty(), &mut rng)?;
/// let mut net = Network::new(topo, SimConfig::from_scheme(&Scheme::batching(0.5), 7));
/// let stats = net.run_failure_experiment(&FailureSpec::CenterFraction(0.1));
/// assert!(stats.messages > 0);
/// net.assert_routing_consistent(); // panics if any route disagrees with
///                                  // ground-truth reachability
/// # Ok::<(), bgpsim_topology::TopologyError>(())
/// ```
///
/// `Network` is `Clone`: a clone captures the complete simulation state —
/// every router's RIBs, timers, queue, RNG position and stats, plus the
/// scheduler's pending events, clock and counters — and continues
/// bit-identically to the original. The interned `Arc<[AsId]>` AS paths
/// make this cheap (refcount bumps instead of deep path copies); the
/// parallel batch runner
/// ([`run_all_parallel`](crate::experiment::run_all_parallel)) forks each
/// sweep's converged network this way.
#[derive(Clone)]
pub struct Network {
    pub(crate) topo: Topology,
    pub(crate) cfg: SimConfig,
    pub(crate) sched: Scheduler<Ev>,
    pub(crate) nodes: Vec<Option<BgpNode>>,
    /// Deduplicated node configurations (see [`intern_node_config`]):
    /// every node — including revived ones — holds an `Arc` into this
    /// arena instead of its own copy.
    cfg_arena: Vec<Arc<NodeConfig>>,
    /// Session peers per router (eBGP link neighbors + iBGP full mesh).
    pub(crate) sessions: Vec<Vec<RouterId>>,
    /// Router that originates each prefix, indexed by the prefix's dense
    /// slot (slots are handed out in AS order; for the default flat
    /// workload slot == `as_index · k + j`).
    origin_of_prefix: Vec<RouterId>,
    /// First prefix slot of each AS (`len == num_ases + 1`): AS `a`
    /// originates the contiguous slot range `first_slot_of_as[a] ..
    /// first_slot_of_as[a + 1]`.
    first_slot_of_as: Vec<u32>,
    /// Prefixes withdrawn by burst injection and not re-originated since.
    /// Maintained at injection/revival time only (never from the event
    /// loop), so serial and sharded runs see identical bookkeeping; the
    /// ground-truth validators treat these as expected-unreachable.
    withdrawn: std::collections::BTreeSet<Prefix>,
    pub(crate) last_activity: SimTime,
    failure_time: Option<SimTime>,
    failed_count: usize,
    initial_convergence: SimDuration,
    events_at_failure: u64,
    /// Failed links (normalized router-id pairs); their sessions are dead
    /// but the endpoint routers live on.
    pub(crate) dead_links: std::collections::HashSet<(u32, u32)>,
    /// Per-AS hierarchy tiers policy relationships derive from (explicit
    /// `SimConfig::policy_tiers`, or inferred once by [`as_tiers`]);
    /// empty when policies are off.
    pub(crate) tiers: Vec<usize>,
    /// Resolved shard count for the event loop (1 = serial).
    pub(crate) shards: usize,
    /// Accumulated per-phase wall-clock spent in the sharded event loop
    /// (empty for serial runs). Instrumentation only — never part of
    /// `RunStats`, so bit-identity comparisons are unaffected.
    pub(crate) shard_timings: crate::shard::ShardPhaseTimings,
    /// Accumulated per-shard work of the sharded event loop (see
    /// [`Network::shard_load`]); instrumentation only, like
    /// `shard_timings`.
    pub(crate) shard_load: Vec<crate::shard::ShardLoad>,
    /// Structured trace sink ([`TraceSink::Off`] by default — one branch
    /// per handler). Events are recorded in global delivery order, so the
    /// stream is identical under any shard count.
    pub(crate) trace: crate::trace::TraceSink,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("routers", &self.topo.num_routers())
            .field("ases", &self.topo.num_ases())
            .field("now", &self.sched.now())
            .field("failed", &self.failed_count)
            .finish()
    }
}

impl Network {
    /// Wires a network: one BGP router per topology router, eBGP sessions
    /// on inter-AS links, a full iBGP mesh inside each AS.
    pub fn new(topo: Topology, cfg: SimConfig) -> Network {
        let streams = RngStreams::new(cfg.seed);
        let n = topo.num_routers();

        // Session graph.
        let mut sessions: Vec<Vec<RouterId>> = vec![Vec::new(); n];
        for e in topo.edges() {
            if topo.is_inter_as(e.a(), e.b()) {
                sessions[e.a().index()].push(e.b());
                sessions[e.b().index()].push(e.a());
            }
        }
        for as_id in topo.as_ids() {
            let members = topo.as_members(as_id);
            match cfg.ibgp_mode {
                IbgpMode::FullMesh => {
                    for (i, &a) in members.iter().enumerate() {
                        for &b in &members[i + 1..] {
                            sessions[a.index()].push(b);
                            sessions[b.index()].push(a);
                        }
                    }
                }
                IbgpMode::RouteReflector => {
                    if let Some((&reflector, clients)) = members.split_first() {
                        for &c in clients {
                            sessions[reflector.index()].push(c);
                            sessions[c.index()].push(reflector);
                        }
                    }
                }
            }
        }
        for list in &mut sessions {
            list.sort();
            list.dedup();
        }

        // Per-node configs.
        let tiers = if cfg.policy {
            match &cfg.policy_tiers {
                Some(t) => {
                    assert_eq!(
                        t.len(),
                        topo.num_ases(),
                        "policy_tiers must have one entry per AS"
                    );
                    t.clone()
                }
                None => as_tiers(&topo),
            }
        } else {
            Vec::new()
        };
        let mut nodes: Vec<Option<BgpNode>> = Vec::with_capacity(n);
        let mut cfg_arena: Vec<Arc<NodeConfig>> = Vec::new();
        for r in topo.router_ids() {
            let node_cfg = intern_node_config(&mut cfg_arena, build_node_config(&cfg, &topo, r));
            let as_id = topo.router(r).as_id;
            let mut node = BgpNode::with_shared_config(
                r,
                as_id,
                node_cfg,
                streams.stream("node", r.index() as u64),
            );
            for &peer in &sessions[r.index()] {
                let ibgp = !topo.is_inter_as(r, peer);
                if cfg.policy && !ibgp {
                    // Relationships are an AS-level property, inferred from
                    // hierarchy tiers (BFS depth from the top-degree ASes):
                    // the AS closer to the core provides; equal tiers peer.
                    let rel = relationship_by_tier(
                        tiers[topo.router(r).as_id.index()],
                        tiers[topo.router(peer).as_id.index()],
                    );
                    node.add_peer_with_relationship(peer, ibgp, rel);
                } else {
                    node.add_peer(peer, ibgp);
                }
            }
            nodes.push(Some(node));
        }

        // Prefix allocation follows the per-AS block plan in every mode:
        // each AS gets the next contiguous run of dense slots, in AS order
        // (slot `s` is named by `ip_of_prefix`). The default (no
        // `full_table`) plan is the uniform split — exactly
        // `prefixes_per_as` prefixes per AS, so slot == as_index · k + j,
        // byte-identical to the historical flat allocator. Every prefix is
        // originated by its AS's lowest-id member.
        let k = cfg.prefixes_per_as.max(1);
        let plan = match cfg.full_table {
            Some(spec) => bgpsim_topology::prefixes::PrefixPlan {
                total: spec.total_prefixes,
                skew: spec.skew,
            },
            None => bgpsim_topology::prefixes::PrefixPlan::uniform((topo.num_ases() * k) as u32),
        };
        let sizes = plan.block_sizes(topo.num_ases());
        let mut origin_of_prefix: Vec<RouterId> =
            Vec::with_capacity(sizes.iter().map(|&n| n as usize).sum());
        let mut first_slot_of_as: Vec<u32> = Vec::with_capacity(topo.num_ases() + 1);
        for (a, &count) in topo.as_ids().zip(&sizes) {
            let origin = *topo.as_members(a).first().expect("AS has members");
            first_slot_of_as.push(origin_of_prefix.len() as u32);
            origin_of_prefix.extend(std::iter::repeat_n(origin, count as usize));
        }
        first_slot_of_as.push(origin_of_prefix.len() as u32);
        debug_assert!(
            cfg.full_table.is_some() || origin_of_prefix.len() == topo.num_ases() * k,
            "the uniform plan must reproduce the flat allocator"
        );

        let shards = cfg
            .shards
            .or_else(|| env_count("BGPSIM_SHARDS"))
            .unwrap_or(1)
            .max(1);

        Network {
            topo,
            cfg,
            sched: Scheduler::new(),
            nodes,
            cfg_arena,
            sessions,
            origin_of_prefix,
            first_slot_of_as,
            withdrawn: std::collections::BTreeSet::new(),
            last_activity: SimTime::ZERO,
            failure_time: None,
            failed_count: 0,
            initial_convergence: SimDuration::ZERO,
            events_at_failure: 0,
            dead_links: std::collections::HashSet::new(),
            tiers,
            shards,
            shard_timings: crate::shard::ShardPhaseTimings::default(),
            shard_load: Vec::new(),
            trace: crate::trace::TraceSink::Off,
        }
    }

    /// Attaches a structured trace sink (see the [`trace`](crate::trace)
    /// module) and turns node-level event recording on or off to match.
    /// Call at any point — typically right after
    /// [`inject_failure`](Network::inject_failure) to trace only the
    /// re-convergence. Replacing an active sink discards the old one.
    pub fn set_trace_sink(&mut self, sink: crate::trace::TraceSink) {
        let on = !sink.is_off();
        self.trace = sink;
        for node in self.nodes.iter_mut().flatten() {
            node.set_tracing(on);
        }
    }

    /// The attached trace sink.
    pub fn trace_sink(&self) -> &crate::trace::TraceSink {
        &self.trace
    }

    /// Drains a [`TraceSink::Memory`](crate::trace::TraceSink::Memory)
    /// buffer (empty when tracing is off).
    pub fn take_trace_events(&mut self) -> Vec<crate::trace::TraceEvent> {
        self.trace.take_events()
    }

    /// Stamps and records the events `node` buffered while its handler
    /// ran at `t`. Serial-loop counterpart of the Phase B walk's emission
    /// in the `shard` module; both record in global delivery order.
    #[inline]
    fn drain_node_trace(&mut self, node: RouterId, t: SimTime) {
        if self.trace.is_off() {
            return;
        }
        if let Some(n) = self.nodes[node.index()].as_mut() {
            for ev in n.drain_trace() {
                self.trace.record(t, node, ev);
            }
        }
    }

    /// The resolved shard count the event loop runs with (1 = serial).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The shard count again: each shard's Phase A now emits its own
    /// finished mail, so the epoch has one output stream per shard and no
    /// separate commit stage (`SimConfig::commit_streams` is inert).
    pub fn commit_stream_count(&self) -> usize {
        self.shards
    }

    /// Accumulated per-phase wall-clock of the sharded event loop across
    /// every pump this network has run (all-zero for serial runs).
    pub fn shard_phase_timings(&self) -> crate::shard::ShardPhaseTimings {
        self.shard_timings
    }

    /// Per-shard work of the sharded event loop, summed over every pump
    /// this network has run: events drained from each shard's FEL, events
    /// its routers handled, and its Phase A busy seconds. Empty for serial
    /// runs. Instrumentation only, like
    /// [`shard_phase_timings`](Network::shard_phase_timings).
    pub fn shard_load(&self) -> &[crate::shard::ShardLoad] {
        &self.shard_load
    }

    /// The future-event-list backend: always the binary heap.
    pub fn fel_kind(&self) -> FelKind {
        FelKind::Heap
    }

    /// Measures the routing-state heap of every live router plus the
    /// config arena — the numbers behind the benchmark's `rib.*` metrics
    /// and the `largescale` smoke bin (DESIGN.md §12).
    pub fn memory_footprint(&self) -> MemoryFootprint {
        let mut f = MemoryFootprint {
            config_arena_entries: self.cfg_arena.len(),
            ..MemoryFootprint::default()
        };
        for node in self.nodes.iter().flatten() {
            let bytes = node.rib_heap_bytes();
            f.routes += node.route_count();
            f.rib_heap_bytes += bytes;
            f.max_node_rib_heap_bytes = f.max_node_rib_heap_bytes.max(bytes);
        }
        f
    }

    /// Whether the session between `a` and `b` is up (both routers alive
    /// and, for link-borne eBGP sessions, the link not failed). iBGP
    /// sessions are TCP overlays and only die with their routers.
    fn session_alive(&self, a: RouterId, b: RouterId) -> bool {
        if !self.is_alive(a) || !self.is_alive(b) {
            return false;
        }
        !self.dead_links.contains(&link_key(a, b))
    }

    /// Fails a set of *links* at one second past the current time: the
    /// eBGP sessions riding them go down (both ends get peer-down events)
    /// but the routers survive — the scenario the paper sets aside as
    /// unlikely for large-scale failures (§3.2), provided here to quantify
    /// the difference. Links inside an AS carry no session in this model
    /// (iBGP is a TCP overlay) and are ignored. Both ends detect the loss
    /// after the [`DetectionMode::LinkLayer`] delay, and at once under
    /// [`DetectionMode::HoldTimer`].
    ///
    /// Post-failure counters are reset, as in
    /// [`inject_failure`](Network::inject_failure).
    pub fn inject_link_failure(&mut self, links: &[bgpsim_topology::graph::Edge]) {
        let t_f = self.sched.now() + FAILURE_GAP;
        let lag = match self.cfg.detection {
            DetectionMode::LinkLayer(delay) => delay,
            DetectionMode::HoldTimer { .. } => SimDuration::ZERO,
        };
        let mut killed = 0usize;
        for e in links {
            let (a, b) = (e.a(), e.b());
            if !self.topo.is_inter_as(a, b) {
                continue;
            }
            let inserted = self.dead_links.insert((a.index() as u32, b.index() as u32));
            if !inserted {
                continue;
            }
            killed += 1;
            for (node, peer) in [(a, b), (b, a)] {
                if self.is_alive(node) {
                    self.sched.schedule(t_f + lag, Ev::PeerDown { node, peer });
                }
            }
        }
        self.failed_count = killed;
        self.start_measurement(t_f);
    }

    /// Opens a new measurement window at `t`: node stats (message counts
    /// among them) and the activity clock restart there, so
    /// [`run_to_quiescence`](Network::run_to_quiescence) reports only the
    /// activity that follows the injection at `t`.
    fn start_measurement(&mut self, t: SimTime) {
        for node in self.nodes.iter_mut().flatten() {
            node.reset_stats();
        }
        self.failure_time = Some(t);
        self.last_activity = t;
        self.events_at_failure = self.sched.delivered_count();
    }

    /// The topology this network runs on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Whether `r` is still alive (not failed).
    pub fn is_alive(&self, r: RouterId) -> bool {
        self.nodes
            .get(r.index())
            .map(Option::is_some)
            .unwrap_or(false)
    }

    /// Read access to a live router.
    pub fn node(&self, r: RouterId) -> Option<&BgpNode> {
        self.nodes.get(r.index())?.as_ref()
    }

    /// The first prefix originated by `as_id` (ASes originate a contiguous
    /// slot block starting here — `prefixes_per_as` slots in the default
    /// workload, the power-law block in full-table mode).
    pub fn prefix_of_as(&self, as_id: AsId) -> Prefix {
        Prefix::new(self.first_slot_of_as[as_id.index()])
    }

    /// How many prefixes `as_id` originates.
    pub fn prefix_count_of_as(&self, as_id: AsId) -> usize {
        let a = as_id.index();
        (self.first_slot_of_as[a + 1] - self.first_slot_of_as[a]) as usize
    }

    /// Total prefixes in the routing table (== the dense slot count).
    pub fn table_size(&self) -> usize {
        self.origin_of_prefix.len()
    }

    /// The CIDR name of a dense slot: slot `s` is the /32 at address
    /// `10.0.0.0 + s`, so each AS's contiguous slot block is a contiguous
    /// address block. `None` past the end of the table.
    pub fn ip_of_prefix(&self, prefix: Prefix) -> Option<bgpsim_bgp::IpPrefix> {
        const TABLE_BASE: u32 = 0x0A00_0000; // 10.0.0.0
        (prefix.index() < self.table_size())
            .then(|| bgpsim_bgp::IpPrefix::new(TABLE_BASE.wrapping_add(prefix.index() as u32), 32))
    }

    /// Prefixes withdrawn by burst injection and not re-originated since.
    pub fn withdrawn_prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.withdrawn.iter().copied()
    }

    /// Validates an externally supplied prefix against the configured
    /// table. Every scenario/injection entry point that accepts prefixes
    /// calls this once at the boundary — the RIB hot paths index dense
    /// rows by slot and must never see an out-of-range `Prefix` (it would
    /// silently grow every row table it touches).
    pub fn check_prefix(&self, prefix: Prefix) -> Result<(), String> {
        let n = self.origin_of_prefix.len();
        if prefix.index() < n {
            Ok(())
        } else {
            Err(format!(
                "prefix index {} out of range: this network's table has {n} prefixes \
                 (the allocation is fixed at Network::new from SimConfig::prefixes_per_as \
                 or SimConfig::full_table)",
                prefix.index()
            ))
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// When the last injected failure (or revival) takes effect — the `t0`
    /// settle times and trace timelines are measured from. `None` before
    /// any injection.
    pub fn failure_time(&self) -> Option<SimTime> {
        self.failure_time
    }

    /// Originates every AS's prefix (uniformly spread over the origination
    /// window) and runs the network until it quiesces. Returns how long the
    /// initial convergence took.
    pub fn run_initial_convergence(&mut self) -> SimDuration {
        let streams = RngStreams::new(self.cfg.seed);
        let mut rng = streams.stream("originate", 0);
        // Index loop: scheduling needs `&mut self.sched`, so iterating a
        // borrowed `&self.origin_of_prefix` would force cloning the whole
        // Vec; indexing re-borrows per iteration instead.
        for idx in 0..self.origin_of_prefix.len() {
            let origin = self.origin_of_prefix[idx];
            let at = SimTime::from_nanos(rng.gen_range(0..=self.cfg.origination_window.as_nanos()));
            let prefix = Prefix::new(idx as u32);
            self.sched.schedule(
                at,
                Ev::Originate {
                    node: origin,
                    prefix,
                },
            );
        }
        self.pump();
        self.initial_convergence = self.last_activity.saturating_since(SimTime::ZERO);
        self.initial_convergence
    }

    /// Fails `region` at one second past the current time: the selected
    /// routers (and all their links/sessions) go down simultaneously, and
    /// every surviving session peer gets a peer-down detection event.
    ///
    /// Post-failure counters (messages, queue peaks, node stats) are reset
    /// so [`run_to_quiescence`](Network::run_to_quiescence) measures only
    /// re-convergence activity.
    ///
    /// Returns the failed routers.
    pub fn inject_failure(&mut self, region: &FailureSpec) -> Vec<RouterId> {
        let streams = RngStreams::new(self.cfg.seed);
        let mut rng = streams.stream("failure", 0);
        let failed = region.resolve(&self.topo, &mut rng);
        let t_f = self.sched.now() + FAILURE_GAP;

        for &f in &failed {
            self.nodes[f.index()] = None;
        }
        self.failed_count = failed.len();

        // Surviving session peers detect the loss.
        let mut detect_rng = streams.stream("detection", 1);
        for &f in &failed {
            for &peer in &self.sessions[f.index()] {
                if self.is_alive(peer) {
                    let lag = match self.cfg.detection {
                        DetectionMode::LinkLayer(delay) => delay,
                        DetectionMode::HoldTimer { hold } => {
                            // Keepalives every hold/3: the timer has between
                            // 2·hold/3 and hold left when the peer dies.
                            let slack = detect_rng.gen_range(0..=hold.as_nanos() / 3);
                            hold.saturating_sub(SimDuration::from_nanos(slack))
                        }
                    };
                    self.sched.schedule(
                        t_f + lag,
                        Ev::PeerDown {
                            node: peer,
                            peer: f,
                        },
                    );
                }
            }
        }

        // The oracle scheme retunes every surviving node to the table row
        // covering the actual failure size (paper §5 future work: "set the
        // MRAI consistent with the extent of failure").
        if let MraiAssignment::OracleFailureSize { table } = &self.cfg.mrai {
            let fraction = failed.len() as f64 / self.topo.num_routers() as f64;
            let chosen = table
                .iter()
                .find(|&&(max_f, _)| fraction <= max_f)
                .or_else(|| table.last())
                .expect("oracle table must not be empty")
                .1;
            for node in self.nodes.iter_mut().flatten() {
                node.set_constant_mrai(chosen);
            }
        }

        // Measure only post-failure activity.
        self.start_measurement(t_f);
        failed
    }

    /// Burst-withdrawal failure: every prefix originated inside `region`
    /// is withdrawn by its origin in one event storm at one second past
    /// the current time. The origins themselves stay up — this models a
    /// regional service teardown (depeering, prefix-block outage) rather
    /// than router death, so the storm is pure withdrawal traffic: the
    /// dimension that stresses per-destination batching queues and the
    /// unfinished-work detector at full-table scale.
    ///
    /// Counters are reset like [`inject_failure`](Network::inject_failure)
    /// so [`run_to_quiescence`](Network::run_to_quiescence) measures only
    /// the storm's re-convergence. Returns the withdrawn prefixes.
    pub fn inject_burst_withdrawal(&mut self, region: &FailureSpec) -> Vec<Prefix> {
        let streams = RngStreams::new(self.cfg.seed);
        let mut rng = streams.stream("failure", 0);
        let routers = region.resolve(&self.topo, &mut rng);
        let mut in_region = vec![false; self.topo.num_routers()];
        for &r in &routers {
            in_region[r.index()] = true;
        }
        let prefixes: Vec<Prefix> = self
            .origin_of_prefix
            .iter()
            .enumerate()
            .filter(|&(p_idx, &origin)| {
                in_region[origin.index()]
                    && self.is_alive(origin)
                    && !self.withdrawn.contains(&Prefix::new(p_idx as u32))
            })
            .map(|(p_idx, _)| Prefix::new(p_idx as u32))
            .collect();
        self.schedule_withdrawal_storm(&prefixes);
        prefixes
    }

    /// Withdraws an explicit prefix set in one event storm (the scripted
    /// counterpart of [`inject_burst_withdrawal`](Network::inject_burst_withdrawal)).
    ///
    /// This is the network/scenario boundary for externally supplied
    /// prefixes: each one is bounds-checked against the configured table
    /// *before* anything is scheduled, and an out-of-range prefix returns
    /// a descriptive error with the network untouched — it must never
    /// reach the dense RIB rows, which index by slot unchecked on their
    /// hot paths. Returns how many withdrawals were scheduled (already
    /// withdrawn or dead-origin prefixes are skipped).
    pub fn inject_prefix_withdrawals(&mut self, prefixes: &[Prefix]) -> Result<usize, String> {
        for &p in prefixes {
            self.check_prefix(p)?;
        }
        let live: Vec<Prefix> = prefixes
            .iter()
            .copied()
            .filter(|&p| {
                self.is_alive(self.origin_of_prefix[p.index()]) && !self.withdrawn.contains(&p)
            })
            .collect();
        self.schedule_withdrawal_storm(&live);
        Ok(live.len())
    }

    /// Schedules one `WithdrawOrigin` per prefix at `now + FAILURE_GAP`
    /// and resets the measurement counters to the storm.
    fn schedule_withdrawal_storm(&mut self, prefixes: &[Prefix]) {
        let t_f = self.sched.now() + FAILURE_GAP;
        for &p in prefixes {
            self.withdrawn.insert(p);
            self.sched.schedule(
                t_f,
                Ev::WithdrawOrigin {
                    node: self.origin_of_prefix[p.index()],
                    prefix: p,
                },
            );
        }
        self.start_measurement(t_f);
    }

    /// Runs until the event queue drains and reports the re-convergence.
    ///
    /// # Panics
    ///
    /// Panics if called before [`inject_failure`](Network::inject_failure).
    pub fn run_to_quiescence(&mut self) -> RunStats {
        let failure_time = self
            .failure_time
            .expect("inject_failure must be called before run_to_quiescence");
        self.pump();
        let mut stats = RunStats {
            convergence_delay: self.last_activity.saturating_since(failure_time),
            failed_routers: self.failed_count,
            events: self.sched.delivered_count() - self.events_at_failure,
            initial_convergence: self.initial_convergence,
            ..RunStats::default()
        };
        for node in self.nodes.iter().flatten() {
            let s = node.stats();
            stats.announcements += s.announcements_sent;
            stats.withdrawals += s.withdrawals_sent;
            stats.updates_processed += s.updates_processed;
            stats.decision_runs += s.decision_runs;
            stats.full_rescans += s.full_rescans;
            stats.fast_decisions += s.fast_decisions;
            stats.stale_deleted += node.stale_deleted();
            stats.peak_queue = stats.peak_queue.max(node.queue_peak());
        }
        stats.messages = stats.announcements + stats.withdrawals;
        stats
    }

    /// The whole pipeline: initial convergence, failure, re-convergence.
    pub fn run_failure_experiment(&mut self, region: &FailureSpec) -> RunStats {
        self.run_initial_convergence();
        self.inject_failure(region);
        self.run_to_quiescence()
    }

    /// Brings previously failed routers back: each revived router starts
    /// with empty tables, re-originates its prefixes, and re-establishes
    /// every session whose other end is alive (both ends perform the
    /// initial full table exchange, RFC 1771 §3). The activity clock and
    /// counters are reset so [`run_to_quiescence`](Network::run_to_quiescence)
    /// measures the *recovery* convergence ("Tup" in Labovitz et al. \[5\],
    /// the complement of the failure events the paper studies).
    pub fn revive_routers(&mut self, routers: &[RouterId]) {
        let streams = RngStreams::new(self.cfg.seed);
        let t_up = self.sched.now() + FAILURE_GAP;
        for &r in routers {
            assert!(
                self.nodes[r.index()].is_none(),
                "revive_routers: router {r} is already alive"
            );
            let built = self.node_config_for(r);
            let node_cfg = intern_node_config(&mut self.cfg_arena, built);
            let as_id = self.topo.router(r).as_id;
            let mut node = BgpNode::with_shared_config(
                r,
                as_id,
                node_cfg,
                streams.stream("node-revived", r.index() as u64),
            );
            node.set_tracing(!self.trace.is_off());
            self.nodes[r.index()] = Some(node);
        }
        // Sessions and originations come up at t_up.
        for &r in routers {
            for (p_idx, &origin) in self.origin_of_prefix.iter().enumerate() {
                if origin == r {
                    let prefix = Prefix::new(p_idx as u32);
                    // A revived origin re-announces everything it owns,
                    // including prefixes a burst had withdrawn.
                    self.withdrawn.remove(&prefix);
                    self.sched.schedule(t_up, Ev::Originate { node: r, prefix });
                }
            }
            for &peer in &self.sessions[r.index()] {
                // A session only comes back if its peer is alive AND the
                // link carrying it (for eBGP sessions) has not itself been
                // failed via `inject_link_failure`.
                if self.session_alive(r, peer) {
                    self.sched.schedule(t_up, Ev::PeerUp { node: r, peer });
                    // The reverse direction: co-revived peers schedule their
                    // own half in their loop iteration.
                    if !routers.contains(&peer) {
                        self.sched.schedule(
                            t_up,
                            Ev::PeerUp {
                                node: peer,
                                peer: r,
                            },
                        );
                    }
                }
            }
        }
        self.failed_count = 0;
        self.start_measurement(t_up);
    }

    /// The per-node configuration (used at construction and revival).
    fn node_config_for(&self, r: RouterId) -> NodeConfig {
        build_node_config(&self.cfg, &self.topo, r)
    }

    /// Drains the event queue.
    fn pump(&mut self) {
        // The sharded loop: conservative PDES with link-delay lookahead,
        // bit-identical to serial (see the `shard` module). While
        // sharded, `self.sched` is empty — pending events live in the
        // shard-owned FELs — but its id allocation and delivery
        // accounting still advance in serial order, so at quiescence the
        // scheduler's counters (and any clone taken of them) are
        // identical to a serial run's.
        if self.shards > 1 {
            crate::shard::pump_sharded(self);
            return;
        }
        // Liveness is frozen for the whole pump: routers only fail or
        // revive between pumps.
        let alive: Vec<bool> = self.nodes.iter().map(Option::is_some).collect();
        let mut actions: Vec<Action> = Vec::new();
        while let Some((t, ev)) = self.sched.next() {
            let world = World {
                topo: &self.topo,
                tiers: &self.tiers,
                alive: &alive,
                dead_links: &self.dead_links,
            };
            let Some((node, active)) = dispatch(&world, &mut self.nodes, 0, t, ev, &mut actions)
            else {
                continue;
            };
            if active {
                self.last_activity = t;
            }
            self.drain_node_trace(node, t);
            for action in actions.drain(..) {
                if let Action::Send { to, msg } = action {
                    // Messages towards failed routers are lost with the link
                    // (the sender still counts them as sent).
                    if alive[to.index()] {
                        let ev = Ev::Deliver {
                            to,
                            from: node,
                            msg,
                        };
                        self.sched.schedule(t + LINK_DELAY, ev);
                    }
                } else {
                    let (at, ev) = follow_up(node, t, &action);
                    self.sched.schedule(at, ev);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Validation helpers (used by tests and examples)
    // ------------------------------------------------------------------

    /// Ground truth under Gao–Rexford policies: a route must exist exactly
    /// when a valley-free path to an alive origin exists over alive nodes.
    /// Exact for single-router-per-AS topologies; for multi-router
    /// topologies only the no-stale-routes direction is checked (the
    /// valley-free closure is an AS-level property that partial AS failures
    /// blur).
    fn assert_policy_routing_consistent(&self) {
        let single = self.topo.num_routers() == self.topo.num_ases();
        let reach = self.valley_free_reachability();
        for r in self.topo.router_ids() {
            let Some(node) = self.node(r) else { continue };
            for (p_idx, &expected) in reach[r.index()].iter().enumerate() {
                let prefix = Prefix::new(p_idx as u32);
                let own = self.origin_of_prefix[p_idx] == r;
                match (expected, node.loc_rib().get(prefix).is_some()) {
                    (true, false) if single => {
                        panic!("router {r}: no route to valley-free-reachable {prefix}")
                    }
                    (false, true) if !own => {
                        panic!("router {r}: route to {prefix} violates valley-free export")
                    }
                    _ => {}
                }
            }
        }
    }

    /// For each origin prefix, the set of alive routers with a valley-free
    /// path to it (Gao–Rexford propagation closure):
    ///
    /// 1. *free* routers hear the route from a customer chain below them
    ///    (BFS from the origin towards providers);
    /// 2. peers of free routers hear it once (one peer edge);
    /// 3. everything below any route holder hears it (providers always
    ///    export to customers).
    fn valley_free_reachability(&self) -> Vec<Vec<bool>> {
        let n = self.topo.num_routers();
        let num_prefixes = self.origin_of_prefix.len();
        let mut result = vec![vec![false; num_prefixes]; n];
        // u's relationship towards v (what u *is* to v) — the tiers the
        // construction-time inference used.
        let rel_to = |v: RouterId, u: RouterId| {
            relationship_by_tier(
                self.tiers[self.topo.router(v).as_id.index()],
                self.tiers[self.topo.router(u).as_id.index()],
            )
        };
        // The closure depends only on the origin, so compute it once per
        // unique alive origin (full tables originate many prefixes per
        // router) and copy the column; withdrawn prefixes are
        // expected-unreachable and stay all-false.
        let mut reach_of_origin: std::collections::BTreeMap<RouterId, Vec<bool>> =
            std::collections::BTreeMap::new();
        for (p_idx, &origin) in self.origin_of_prefix.iter().enumerate() {
            if !self.is_alive(origin) || self.withdrawn.contains(&Prefix::new(p_idx as u32)) {
                continue;
            }
            let reach = reach_of_origin.entry(origin).or_insert_with(|| {
                // Step 1: free = customer-chain reachability (walk up to
                // providers from the origin).
                let mut free = vec![false; n];
                free[origin.index()] = true;
                let mut stack = vec![origin];
                while let Some(u) = stack.pop() {
                    for &v in &self.sessions[u.index()] {
                        if !self.session_alive(u, v) || free[v.index()] {
                            continue;
                        }
                        // v hears from its customer u.
                        if rel_to(v, u) == Relationship::Customer {
                            free[v.index()] = true;
                            stack.push(v);
                        }
                    }
                }
                // Step 2: peers of free routers.
                let mut reach = free.clone();
                for u in self.topo.router_ids() {
                    if !free[u.index()] || !self.is_alive(u) {
                        continue;
                    }
                    for &v in &self.sessions[u.index()] {
                        if self.session_alive(u, v) && rel_to(v, u) == Relationship::Peer {
                            reach[v.index()] = true;
                        }
                    }
                }
                // Step 3: downward closure (everyone exports to customers).
                let mut stack: Vec<RouterId> = self
                    .topo
                    .router_ids()
                    .filter(|r| reach[r.index()])
                    .collect();
                while let Some(u) = stack.pop() {
                    for &v in &self.sessions[u.index()] {
                        if !self.session_alive(u, v) || reach[v.index()] {
                            continue;
                        }
                        // v hears from its provider u.
                        if rel_to(v, u) == Relationship::Provider {
                            reach[v.index()] = true;
                            stack.push(v);
                        }
                    }
                }
                reach
            });
            for r in 0..n {
                result[r][p_idx] = reach[r] && self.is_alive(RouterId::new(r as u32));
            }
        }
        result
    }

    /// AS-level hop distances from every *alive* router to every alive
    /// origin, through alive routers only. `None` means unreachable.
    /// Prefixes withdrawn by burst injection are expected-unreachable and
    /// keep `None` everywhere.
    fn alive_distances(&self) -> Vec<Vec<Option<usize>>> {
        // One search per *unique* alive origin (full-table workloads
        // originate thousands of prefixes per router — recomputing the
        // search per prefix would make validation O(table · graph)), the
        // distance column then copied to every prefix the origin owns.
        let n = self.topo.num_routers();
        let mut result = vec![vec![None; self.origin_of_prefix.len()]; n];
        let mut dist_of_origin: std::collections::BTreeMap<RouterId, Vec<Option<usize>>> =
            std::collections::BTreeMap::new();
        for (p_idx, &origin) in self.origin_of_prefix.iter().enumerate() {
            if !self.is_alive(origin) || self.withdrawn.contains(&Prefix::new(p_idx as u32)) {
                continue;
            }
            let dist = dist_of_origin.entry(origin).or_insert_with(|| {
                // Dijkstra with 0/1 weights (0 inside an AS, 1 across).
                let mut dist: Vec<Option<usize>> = vec![None; n];
                let mut deque = std::collections::VecDeque::new();
                dist[origin.index()] = Some(0);
                deque.push_back(origin);
                while let Some(u) = deque.pop_front() {
                    let du = dist[u.index()].expect("queued nodes have distances");
                    for &v in &self.sessions[u.index()] {
                        if !self.session_alive(u, v) {
                            continue;
                        }
                        let w = usize::from(self.topo.is_inter_as(u, v));
                        let nd = du + w;
                        if dist[v.index()].map(|d| nd < d).unwrap_or(true) {
                            dist[v.index()] = Some(nd);
                            if w == 0 {
                                deque.push_front(v);
                            } else {
                                deque.push_back(v);
                            }
                        }
                    }
                }
                dist
            });
            for r in 0..n {
                result[r][p_idx] = dist[r];
            }
        }
        result
    }

    /// Checks that every alive router's Loc-RIB matches ground truth:
    /// a route exists exactly for reachable alive origins, and its AS-path
    /// length equals the shortest alive AS-hop distance.
    ///
    /// # Panics
    ///
    /// Panics (with a diagnostic) on any mismatch — call after the network
    /// has quiesced.
    pub fn assert_routing_consistent(&self) {
        if self.cfg.policy {
            self.assert_policy_routing_consistent();
            return;
        }
        let dists = self.alive_distances();
        for r in self.topo.router_ids() {
            let Some(node) = self.node(r) else { continue };
            for (p_idx, expected) in dists[r.index()].iter().enumerate() {
                let prefix = Prefix::new(p_idx as u32);
                let own = self.origin_of_prefix[p_idx] == r;
                let best = node.loc_rib().get(prefix);
                match (expected, best) {
                    (Some(d), Some(sel)) => {
                        assert_eq!(
                            sel.path.len(),
                            *d,
                            "router {r}: route to {prefix} has length {} but \
                             shortest alive distance is {d}",
                            sel.path.len()
                        );
                    }
                    (Some(d), None) => {
                        panic!("router {r}: no route to reachable {prefix} (distance {d})");
                    }
                    (None, Some(_)) if !own => {
                        panic!("router {r}: stale route to unreachable {prefix}");
                    }
                    _ => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim_topology::degree::SkewedSpec;
    use bgpsim_topology::generators::skewed_topology;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_topo(seed: u64, n: usize) -> Topology {
        let mut rng = SmallRng::seed_from_u64(seed);
        skewed_topology(n, &SkewedSpec::seventy_thirty(), &mut rng).unwrap()
    }

    #[test]
    fn parse_count_accepts_integers_and_rejects_garbage() {
        // Valid values, including surrounding whitespace.
        assert_eq!(parse_count("BGPSIM_SHARDS", "4"), Some(4));
        assert_eq!(parse_count("BGPSIM_SHARDS", " 16 "), Some(16));
        assert_eq!(parse_count("BGPSIM_SHARDS", "0"), Some(0));
        // Invalid values warn (to stderr) and fall back to the default.
        assert_eq!(parse_count("BGPSIM_SHARDS", ""), None);
        assert_eq!(parse_count("BGPSIM_SHARDS", "four"), None);
        assert_eq!(parse_count("BGPSIM_SHARDS", "-2"), None);
        assert_eq!(parse_count("BGPSIM_SHARDS", "2.5"), None);
        assert_eq!(parse_count("BGPSIM_SHARDS", "2,4"), None);
    }

    #[test]
    fn commit_stream_resolution_clamps_to_shards() {
        // The stream count is inert: whatever is requested, the network
        // reports one output stream per shard.
        for requested in [None, Some(0), Some(1), Some(64)] {
            let mut cfg = SimConfig::new(1);
            cfg.shards = Some(4);
            cfg.commit_streams = requested;
            let net = Network::new(small_topo(3, 10), cfg);
            assert_eq!(net.commit_stream_count(), 4, "{requested:?} streams");
            assert_eq!(
                net.shard_phase_timings().epochs,
                0,
                "no pump has run yet, timings start empty"
            );
        }
    }

    #[test]
    fn node_configs_are_interned_in_one_arena() {
        // Uniform MRAI assignment ⇒ every router is built from the same
        // settings ⇒ one shared allocation for the whole network.
        let topo = small_topo(5, 20);
        let net = Network::new(topo, SimConfig::new(9));
        assert_eq!(net.cfg_arena.len(), 1);
        let ids: Vec<RouterId> = net.topology().router_ids().collect();
        let reference = net.node(ids[0]).unwrap();
        for &r in &ids[1..] {
            assert!(
                net.node(r).unwrap().shares_config_allocation(reference),
                "router {r} carries a private config copy"
            );
        }
    }

    #[test]
    fn memory_footprint_accounts_converged_state() {
        let topo = small_topo(8, 30);
        let mut net = Network::new(topo, SimConfig::new(5));
        let before = net.memory_footprint();
        assert_eq!(before.config_arena_entries, 1);
        net.run_initial_convergence();
        let after = net.memory_footprint();
        // Full reachability: every router selects a route per prefix, and
        // Adj-RIBs-In hold at least that much again.
        assert!(after.routes >= 8 * 8, "routes {}", after.routes);
        assert!(after.rib_heap_bytes > before.rib_heap_bytes);
        assert!(after.max_node_rib_heap_bytes <= after.rib_heap_bytes);
        assert!(after.bytes_per_route() > 0.0);
    }

    #[test]
    fn revived_routers_reuse_the_interned_config() {
        let topo = small_topo(6, 20);
        let mut net = Network::new(
            topo,
            SimConfig::from_scheme(&crate::Scheme::constant_mrai(0.5), 11),
        );
        net.run_initial_convergence();
        let failed = net.inject_failure(&FailureSpec::CenterFraction(0.1));
        assert!(!failed.is_empty());
        net.run_to_quiescence();
        net.revive_routers(&failed);
        assert_eq!(
            net.cfg_arena.len(),
            1,
            "revival must intern into the existing arena, not grow it"
        );
        let alive: Vec<RouterId> = net
            .topology()
            .router_ids()
            .filter(|r| !failed.contains(r))
            .collect();
        let reference = net.node(alive[0]).unwrap();
        for &r in &failed {
            assert!(
                net.node(r).unwrap().shares_config_allocation(reference),
                "revived router {r} carries a private config copy"
            );
        }
    }

    #[test]
    fn initial_convergence_installs_all_routes() {
        let topo = small_topo(1, 30);
        let mut net = Network::new(topo, SimConfig::new(7));
        let dur = net.run_initial_convergence();
        assert!(dur > SimDuration::ZERO);
        net.assert_routing_consistent();
        // Every router has a route to all 30 prefixes.
        for r in net.topology().router_ids() {
            assert_eq!(net.node(r).unwrap().loc_rib().len(), 30);
        }
    }

    #[test]
    fn failure_reconverges_consistently() {
        let topo = small_topo(2, 30);
        let mut net = Network::new(topo, SimConfig::new(8));
        let stats = net.run_failure_experiment(&FailureSpec::CenterFraction(0.10));
        assert_eq!(stats.failed_routers, 3);
        assert!(stats.convergence_delay > SimDuration::ZERO);
        assert!(stats.messages > 0);
        net.assert_routing_consistent();
    }

    #[test]
    fn zero_failure_costs_nothing() {
        let topo = small_topo(3, 20);
        let mut net = Network::new(topo, SimConfig::new(9));
        let stats = net.run_failure_experiment(&FailureSpec::CenterFraction(0.0));
        assert_eq!(stats.failed_routers, 0);
        assert_eq!(stats.convergence_delay, SimDuration::ZERO);
        assert_eq!(stats.messages, 0);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let run = |seed| {
            let topo = small_topo(4, 25);
            let mut net = Network::new(topo, SimConfig::new(seed));
            net.run_failure_experiment(&FailureSpec::CenterFraction(0.1))
        };
        let a = run(11);
        let b = run(11);
        let c = run(12);
        assert_eq!(a, b, "same seed must reproduce exactly");
        assert_ne!(a, c, "different seed should differ");
    }

    #[test]
    fn messages_lost_towards_failed_routers() {
        // A tiny line a–b–c: fail c explicitly; a and b reconverge.
        use bgpsim_topology::{Point, Router};
        let routers = vec![
            Router {
                as_id: AsId::new(0),
                pos: Point::new(0.0, 0.0),
            },
            Router {
                as_id: AsId::new(1),
                pos: Point::new(1.0, 0.0),
            },
            Router {
                as_id: AsId::new(2),
                pos: Point::new(2.0, 0.0),
            },
        ];
        let topo = Topology::new(
            routers,
            vec![
                (RouterId::new(0), RouterId::new(1)),
                (RouterId::new(1), RouterId::new(2)),
            ],
        )
        .unwrap();
        let mut net = Network::new(topo, SimConfig::new(5));
        net.run_initial_convergence();
        net.assert_routing_consistent();
        let failed = net.inject_failure(&FailureSpec::Explicit(vec![RouterId::new(2)]));
        assert_eq!(failed, vec![RouterId::new(2)]);
        let stats = net.run_to_quiescence();
        net.assert_routing_consistent();
        assert!(!net.is_alive(RouterId::new(2)));
        // b withdraws prefix 2 from a.
        assert!(stats.withdrawals >= 1);
        let a = net.node(RouterId::new(0)).unwrap();
        assert!(a.loc_rib().get(Prefix::new(2)).is_none());
        assert!(a.loc_rib().get(Prefix::new(1)).is_some());
    }

    #[test]
    fn multi_as_network_converges() {
        use bgpsim_topology::multias::{generate_multi_as, MultiAsConfig};
        let mut rng = SmallRng::seed_from_u64(3);
        let topo = generate_multi_as(&MultiAsConfig::realistic(20), &mut rng).unwrap();
        let mut net = Network::new(topo, SimConfig::new(13));
        net.run_initial_convergence();
        net.assert_routing_consistent();
        for r in net.topology().router_ids() {
            let node = net.node(r).unwrap();
            assert_eq!(
                node.loc_rib().len(),
                net.topology().num_ases(),
                "router {r} missing routes"
            );
        }
    }

    #[test]
    fn oracle_switches_nodes_at_injection() {
        let topo = small_topo(13, 30);
        let scheme = crate::Scheme::oracle(&[(0.025, 0.5), (1.0, 2.25)]);
        let mut net = Network::new(topo, SimConfig::from_scheme(&scheme, 41));
        net.run_initial_convergence();
        net.inject_failure(&FailureSpec::CenterFraction(0.2));
        let stats = net.run_to_quiescence();
        assert!(stats.messages > 0);
        net.assert_routing_consistent();
    }

    #[test]
    fn policy_network_converges_to_valley_free_state() {
        let topo = small_topo(20, 40);
        let scheme = crate::Scheme::constant_mrai(0.5).with_policy();
        let mut net = Network::new(topo, SimConfig::from_scheme(&scheme, 50));
        net.run_initial_convergence();
        net.assert_routing_consistent();
        // Policies prune paths: some node pairs may be unreachable even in
        // a connected graph, but every node keeps its own prefix.
        for r in net.topology().router_ids() {
            let node = net.node(r).unwrap();
            let own = Prefix::new(node.as_id().index() as u32);
            assert!(node.loc_rib().get(own).is_some());
        }
        // And recovery from failure stays valley-free consistent.
        net.inject_failure(&FailureSpec::CenterFraction(0.1));
        net.run_to_quiescence();
        net.assert_routing_consistent();
    }

    #[test]
    fn policy_reduces_messages_during_failures() {
        let run = |policy: bool| {
            let topo = small_topo(21, 50);
            let scheme = if policy {
                crate::Scheme::constant_mrai(0.5).with_policy()
            } else {
                crate::Scheme::constant_mrai(0.5)
            };
            let mut net = Network::new(topo, SimConfig::from_scheme(&scheme, 51));
            net.run_failure_experiment(&FailureSpec::CenterFraction(0.15))
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with.messages < without.messages,
            "valley-free export must prune path hunting              (without {} vs with {})",
            without.messages,
            with.messages
        );
    }

    #[test]
    fn hierarchical_topology_has_full_policy_reachability() {
        use bgpsim_topology::generators::{hierarchical, HierarchicalParams};
        let mut rng = SmallRng::seed_from_u64(80);
        let params = HierarchicalParams::three_tier(60);
        let topo = hierarchical(&params, &mut rng).unwrap();
        let n = topo.num_routers();
        let scheme = crate::Scheme::constant_mrai(0.5).with_policy();
        let mut cfg = SimConfig::from_scheme(&scheme, 80);
        cfg.policy_tiers = Some(params.tier_vector());
        let mut net = Network::new(topo, cfg);
        net.run_initial_convergence();
        net.assert_routing_consistent();
        // Every node reaches every prefix: the Tier-1 clique guarantees an
        // up-peer-down path for all pairs.
        for r in net.topology().router_ids() {
            assert_eq!(
                net.node(r).unwrap().loc_rib().len(),
                n,
                "router {r} misses prefixes despite the engineered hierarchy"
            );
        }
        // And failures recover consistently under policies.
        net.inject_failure(&FailureSpec::CenterFraction(0.1));
        net.run_to_quiescence();
        net.assert_routing_consistent();
    }

    #[test]
    fn revived_routers_rejoin_consistently() {
        let topo = small_topo(40, 30);
        let mut net = Network::new(
            topo,
            SimConfig::from_scheme(&crate::Scheme::constant_mrai(0.5), 90),
        );
        net.run_initial_convergence();
        let failed = net.inject_failure(&FailureSpec::CenterFraction(0.1));
        net.run_to_quiescence();
        net.assert_routing_consistent();
        // Bring everyone back: full reachability must be restored.
        net.revive_routers(&failed);
        let stats = net.run_to_quiescence();
        net.assert_routing_consistent();
        assert!(stats.messages > 0, "recovery must generate announcements");
        for r in net.topology().router_ids() {
            assert!(net.is_alive(r));
            assert_eq!(
                net.node(r).unwrap().loc_rib().len(),
                30,
                "router {r} missing routes after recovery"
            );
        }
    }

    #[test]
    fn recovery_is_faster_than_failure_tup_tdown() {
        // Labovitz et al. [5]: announcing a route (Tup) converges much
        // faster than withdrawing one (Tdown) because no path hunting is
        // needed — new information replaces old monotonically.
        let topo = small_topo(41, 40);
        let mut net = Network::new(
            topo,
            SimConfig::from_scheme(&crate::Scheme::constant_mrai(2.25), 91),
        );
        net.run_initial_convergence();
        let failed = net.inject_failure(&FailureSpec::CenterFraction(0.1));
        let down = net.run_to_quiescence();
        net.revive_routers(&failed);
        let up = net.run_to_quiescence();
        net.assert_routing_consistent();
        assert!(
            up.convergence_delay < down.convergence_delay,
            "recovery ({}) should beat failure ({})",
            up.convergence_delay,
            down.convergence_delay
        );
    }

    #[test]
    #[should_panic(expected = "already alive")]
    fn reviving_alive_router_panics() {
        let topo = small_topo(42, 20);
        let mut net = Network::new(
            topo,
            SimConfig::from_scheme(&crate::Scheme::constant_mrai(0.5), 92),
        );
        net.run_initial_convergence();
        net.inject_failure(&FailureSpec::CenterFraction(0.0));
        net.revive_routers(&[RouterId::new(0)]);
    }

    #[test]
    fn link_failures_reconverge_without_killing_routers() {
        let topo = small_topo(50, 40);
        let mut net = Network::new(
            topo,
            SimConfig::from_scheme(&crate::Scheme::constant_mrai(0.5), 95),
        );
        net.run_initial_convergence();
        let links = bgpsim_topology::region::central_link_fraction(net.topology(), 0.15);
        assert!(!links.is_empty());
        net.inject_link_failure(&links);
        let stats = net.run_to_quiescence();
        net.assert_routing_consistent();
        // All routers survive; only sessions died.
        for r in net.topology().router_ids() {
            assert!(net.is_alive(r));
            // Every router still reaches its own prefix at least.
            let own = Prefix::new(net.topology().router(r).as_id.index() as u32);
            assert!(net.node(r).unwrap().loc_rib().get(own).is_some());
        }
        assert!(stats.messages > 0);
    }

    #[test]
    fn link_failures_cost_less_than_router_failures() {
        // Failing a region's links leaves its routers (and their prefixes)
        // reachable via surviving paths; failing the routers withdraws
        // their prefixes everywhere. Messages should reflect that.
        let run_links = || {
            let topo = small_topo(51, 40);
            let mut net = Network::new(
                topo,
                SimConfig::from_scheme(&crate::Scheme::constant_mrai(1.25), 96),
            );
            net.run_initial_convergence();
            let links = bgpsim_topology::region::central_link_fraction(net.topology(), 0.10);
            net.inject_link_failure(&links);
            let stats = net.run_to_quiescence();
            net.assert_routing_consistent();
            stats
        };
        let run_routers = || {
            let topo = small_topo(51, 40);
            let mut net = Network::new(
                topo,
                SimConfig::from_scheme(&crate::Scheme::constant_mrai(1.25), 96),
            );
            net.run_failure_experiment(&FailureSpec::CenterFraction(0.10))
        };
        let links = run_links();
        let routers = run_routers();
        // Both converge; the router variant at least withdraws prefixes.
        assert!(routers.withdrawals > 0);
        assert!(links.messages > 0);
    }

    #[test]
    fn route_reflection_converges_like_full_mesh() {
        use bgpsim_topology::multias::{generate_multi_as, MultiAsConfig};
        let mut rng = SmallRng::seed_from_u64(100);
        let topo = generate_multi_as(&MultiAsConfig::realistic(20), &mut rng).unwrap();
        let scheme = crate::Scheme::constant_mrai(0.5)
            .with_route_reflection()
            .named("RR");
        let mut net = Network::new(topo, SimConfig::from_scheme(&scheme, 101));
        net.run_initial_convergence();
        net.assert_routing_consistent();
        for r in net.topology().router_ids() {
            assert_eq!(
                net.node(r).unwrap().loc_rib().len(),
                net.topology().num_ases(),
                "router {r} missing routes under route reflection"
            );
        }
        // Failures still recover consistently.
        net.inject_failure(&FailureSpec::CenterFraction(0.05));
        net.run_to_quiescence();
        net.assert_routing_consistent();
    }

    #[test]
    fn route_reflection_uses_far_fewer_ibgp_sessions() {
        use bgpsim_topology::multias::{generate_multi_as, MultiAsConfig};
        let mut rng = SmallRng::seed_from_u64(102);
        let topo = generate_multi_as(&MultiAsConfig::realistic(20), &mut rng).unwrap();
        let count_sessions = |net: &Network| -> usize {
            net.topology()
                .router_ids()
                .filter_map(|r| net.node(r))
                .map(|n| n.peer_ids().len())
                .sum()
        };
        let mesh = Network::new(
            topo.clone(),
            SimConfig::from_scheme(&crate::Scheme::constant_mrai(0.5), 103),
        );
        let rr_scheme = crate::Scheme::constant_mrai(0.5).with_route_reflection();
        let rr = Network::new(topo, SimConfig::from_scheme(&rr_scheme, 103));
        assert!(
            count_sessions(&rr) < count_sessions(&mesh),
            "route reflection must shrink the session count \
             (mesh {}, rr {})",
            count_sessions(&mesh),
            count_sessions(&rr)
        );
    }

    #[test]
    fn hold_timer_detection_dominates_small_failures() {
        let run = |scheme: crate::Scheme, seed| {
            let topo = small_topo(30, 30);
            let mut net = Network::new(topo, SimConfig::from_scheme(&scheme, seed));
            net.run_failure_experiment(&FailureSpec::CenterFraction(0.05))
        };
        let instant = run(crate::Scheme::constant_mrai(2.25), 70);
        let held = run(
            crate::Scheme::constant_mrai(2.25).with_hold_timer(SimDuration::from_secs(90)),
            70,
        );
        // With a 90 s hold timer, detection alone is 60-90 s.
        assert!(
            held.convergence_delay >= instant.convergence_delay + SimDuration::from_secs(50),
            "hold-timer detection must dominate (instant {}, held {})",
            instant.convergence_delay,
            held.convergence_delay
        );
    }

    #[test]
    fn multiple_prefixes_per_as_scale_the_load() {
        let run = |k: usize| {
            let topo = small_topo(31, 25);
            let scheme = crate::Scheme::constant_mrai(1.25).with_prefixes_per_as(k);
            let mut net = Network::new(topo, SimConfig::from_scheme(&scheme, 71));
            net.run_initial_convergence();
            net.assert_routing_consistent();
            // Every router holds routes to k prefixes per AS.
            for r in net.topology().router_ids() {
                assert_eq!(net.node(r).unwrap().loc_rib().len(), 25 * k);
            }
            net.inject_failure(&FailureSpec::CenterFraction(0.1));
            let stats = net.run_to_quiescence();
            net.assert_routing_consistent();
            stats
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four.messages > 2 * one.messages,
            "more destinations per AS must generate more updates \
             (k=1: {}, k=4: {})",
            one.messages,
            four.messages
        );
    }

    #[test]
    fn prefix_of_as_respects_multiplicity() {
        let topo = small_topo(32, 10);
        let scheme = crate::Scheme::constant_mrai(0.5).with_prefixes_per_as(3);
        let net = Network::new(topo, SimConfig::from_scheme(&scheme, 72));
        assert_eq!(net.prefix_of_as(AsId::new(0)), Prefix::new(0));
        assert_eq!(net.prefix_of_as(AsId::new(2)), Prefix::new(6));
    }

    #[test]
    fn full_table_allocation_is_contiguous_and_skewed() {
        let topo = small_topo(33, 12);
        let scheme =
            crate::Scheme::constant_mrai(0.5).with_full_table(FullTableSpec::internet_like(200));
        let net = Network::new(topo, SimConfig::from_scheme(&scheme, 73));
        assert_eq!(net.table_size(), 200);
        // Zipf split: rank 0 gets the largest block, every AS at least one.
        let counts: Vec<usize> = (0..12)
            .map(|a| net.prefix_count_of_as(AsId::new(a)))
            .collect();
        assert_eq!(counts.iter().sum::<usize>(), 200);
        assert!(counts[0] > counts[11], "skew must concentrate: {counts:?}");
        assert!(counts.iter().all(|&c| c >= 1));
        // Each AS's block starts where the previous one ends.
        let mut next = 0;
        for (a, &count) in counts.iter().enumerate() {
            assert_eq!(net.prefix_of_as(AsId::new(a as u32)).index(), next);
            next += count;
        }
        // Slot `s` is named 10.0.0.0 + s, a /32.
        for p_idx in 0..200u32 {
            let ip = net
                .ip_of_prefix(Prefix::new(p_idx))
                .expect("allocated slot");
            assert_eq!((ip.bits(), ip.len()), (0x0A00_0000 + p_idx, 32));
        }
        assert_eq!(net.ip_of_prefix(Prefix::new(200)), None);
        assert!(net.check_prefix(Prefix::new(199)).is_ok());
        assert!(net.check_prefix(Prefix::new(200)).is_err());
    }

    #[test]
    fn burst_withdrawal_reconverges_consistently() {
        let topo = small_topo(34, 20);
        let scheme =
            crate::Scheme::constant_mrai(0.5).with_full_table(FullTableSpec::internet_like(60));
        let mut net = Network::new(topo, SimConfig::from_scheme(&scheme, 74));
        net.run_initial_convergence();
        net.assert_routing_consistent();
        let withdrawn = net.inject_burst_withdrawal(&FailureSpec::CenterFraction(0.2));
        assert!(
            !withdrawn.is_empty(),
            "central region must originate something"
        );
        let stats = net.run_to_quiescence();
        assert!(stats.messages > 0, "a withdrawal storm generates updates");
        net.assert_routing_consistent();
        // The withdrawn prefixes are gone from every router's table; the
        // rest of the table is untouched (origins stayed alive).
        for r in net.topology().router_ids() {
            let node = net.node(r).expect("no router failed");
            for &p in &withdrawn {
                assert!(
                    node.loc_rib().get(p).is_none(),
                    "router {r} kept a route to withdrawn {p:?}"
                );
            }
        }
        assert_eq!(net.withdrawn_prefixes().count(), withdrawn.len());
    }

    #[test]
    fn out_of_range_prefix_withdrawal_is_rejected_without_side_effects() {
        // Regression (flat-index sweep): the dense RIB rows index by slot
        // unchecked on their hot paths — `resize_with` would silently grow
        // the tables for a rogue prefix instead of panicking. The
        // network/scenario boundary must reject it before anything runs.
        let topo = small_topo(35, 10);
        let mut net = Network::new(
            topo,
            SimConfig::from_scheme(&crate::Scheme::constant_mrai(0.5), 75),
        );
        net.run_initial_convergence();
        let rogue = Prefix::new(net.table_size() as u32 + 5);
        let err = net
            .inject_prefix_withdrawals(&[Prefix::new(0), rogue])
            .unwrap_err();
        assert!(err.contains("out of range"), "got: {err}");
        // Nothing was scheduled — not even for the valid prefix — and the
        // routing state is untouched.
        assert_eq!(net.withdrawn_prefixes().count(), 0);
        assert_eq!(net.table_size(), 10);
        net.assert_routing_consistent();

        // The same set without the rogue prefix goes through.
        let n = net.inject_prefix_withdrawals(&[Prefix::new(0)]).unwrap();
        assert_eq!(n, 1);
        let stats = net.run_to_quiescence();
        assert!(stats.messages > 0);
        net.assert_routing_consistent();
    }

    #[test]
    fn degree_dependent_assignment_applies() {
        let topo = small_topo(6, 30);
        let mut cfg = SimConfig::new(10);
        cfg.mrai = MraiAssignment::DegreeDependent {
            high_degree_min: 8,
            low: SimDuration::from_millis(500),
            high: SimDuration::from_millis(2250),
        };
        let mut net = Network::new(topo, cfg);
        let stats = net.run_failure_experiment(&FailureSpec::CenterFraction(0.1));
        assert!(stats.messages > 0);
        net.assert_routing_consistent();
    }

    fn converged(seed: u64) -> Network {
        let cfg = SimConfig::from_scheme(&Scheme::constant_mrai(0.5), seed);
        let mut net = Network::new(small_topo(seed, 20), cfg);
        net.run_initial_convergence();
        net
    }

    #[test]
    fn clone_shares_allocations_with_the_original() {
        // The arena claim of DESIGN.md §12: cloning a converged network is
        // a refcount transaction, not a deep copy. Every clone shares the
        // interned node-config allocations and the `Arc<[AsId]>` path
        // storage with the original — witnessed by pointer equality, not
        // just value equality.
        let net = converged(21);
        let fork = net.clone();
        let mut routes = 0usize;
        for r in net.topology().router_ids() {
            let (a, b) = (net.node(r).unwrap(), fork.node(r).unwrap());
            assert!(
                a.shares_config_allocation(b),
                "clone deep-copied the config of {r}"
            );
            for (prefix, sel) in a.loc_rib().iter() {
                let other = b.loc_rib().get(prefix).expect("clone lost a route");
                assert!(
                    sel.path.ptr_eq(&other.path),
                    "clone deep-copied the path for {prefix} at {r}"
                );
                routes += 1;
            }
        }
        assert!(routes > 0, "converged network must hold routes");
    }

    #[test]
    fn clone_continues_bit_identically_to_original() {
        let mut original = converged(11);
        let mut fork = original.clone();
        let failure = FailureSpec::CenterFraction(0.1);
        original.inject_failure(&failure);
        fork.inject_failure(&failure);
        assert_eq!(original.run_to_quiescence(), fork.run_to_quiescence());
    }

    #[test]
    fn clone_copies_memory_traces() {
        use crate::trace::{to_jsonl, TraceSink};
        let failure = FailureSpec::CenterFraction(0.1);

        // Each clone owns the buffered prefix, and two clones of one
        // traced network record identical continuations.
        let mut traced = converged(16);
        traced.set_trace_sink(TraceSink::memory(1 << 20));
        let run = || {
            let mut n = traced.clone();
            n.inject_failure(&failure);
            n.run_to_quiescence();
            to_jsonl(&n.take_trace_events())
        };
        let (a, b) = (run(), run());
        assert!(!a.is_empty());
        assert_eq!(a, b, "memory-traced clones must trace identically");
    }

    #[test]
    fn link_layer_detection_delay_shifts_reconvergence() {
        // The delay lives in `DetectionMode::LinkLayer` alone: setting the
        // mode must be enough to hold back every peer-down event.
        let run = |delay: SimDuration| {
            let mut cfg = SimConfig::from_scheme(&Scheme::constant_mrai(0.5), 12);
            cfg.detection = DetectionMode::LinkLayer(delay);
            let mut net = Network::new(small_topo(12, 30), cfg);
            net.run_failure_experiment(&FailureSpec::CenterFraction(0.1))
        };
        let instant = run(SimDuration::ZERO);
        let delayed = run(SimDuration::from_secs(2));
        assert!(
            delayed.convergence_delay >= instant.convergence_delay + SimDuration::from_secs(2),
            "a 2 s link-layer delay must push re-convergence out by 2 s \
             (instant {}, delayed {})",
            instant.convergence_delay,
            delayed.convergence_delay
        );
    }
}
