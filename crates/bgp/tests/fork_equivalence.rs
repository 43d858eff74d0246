//! Property test: a cloned `BgpNode` is indistinguishable from the
//! original.
//!
//! The parallel experiment runner forks a converged network by cloning
//! every node — RIBs, MRAI timers, processing queue,
//! per-node RNG, and the memoized prepend cache (whose keys are the shared
//! `Arc<[AsId]>` path allocations, and therefore stay valid across the
//! clone). This test drives a node through a randomized update stream,
//! clones it mid-flight with timers pending and the processor busy, then
//! feeds original and clone the identical remaining stream and asserts
//! they emit byte-identical actions (including RNG-jittered MRAI delays
//! and randomized processing times) and end in identical state.

use bgpsim_bgp::rib::Selected;
use bgpsim_bgp::{Action, AsPath, BgpNode, NodeConfig, Prefix, UpdateMsg};
use bgpsim_des::{SimDuration, SimTime};
use bgpsim_topology::{AsId, RouterId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const NODE: u32 = 0;
const PEERS: u32 = 4;

fn build_node(seed: u64) -> BgpNode {
    let cfg = NodeConfig::builder()
        .mrai_constant(SimDuration::from_millis(500))
        .build();
    let mut node = BgpNode::new(
        RouterId::new(NODE),
        AsId::new(NODE),
        cfg,
        SmallRng::seed_from_u64(seed),
    );
    for peer in 1..=PEERS {
        node.add_peer(RouterId::new(peer), false);
    }
    node
}

/// One scripted stimulus: an update arrival or a pending-timer expiry.
#[derive(Clone, Debug)]
enum Op {
    /// Announce (path drawn from `seed`) or withdraw (`withdraw` set)
    /// `prefix` from `peer`.
    Update {
        peer: u32,
        prefix: u32,
        withdraw: bool,
        seed: u32,
    },
    /// Fire the oldest captured `StartMrai` action, if any.
    FireMrai,
    /// Complete the processor's busy period, if one is running.
    ProcDone,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1..=PEERS, 0u32..3, any::<bool>(), 0u32..16).prop_map(
            |(peer, prefix, withdraw, seed)| Op::Update { peer, prefix, withdraw, seed }
        ),
        1 => Just(Op::FireMrai),
        2 => Just(Op::ProcDone),
    ]
}

/// The driver's view of one node: the node plus its captured timers and
/// busy state, advanced in lock step on both sides of the fork.
struct Driver {
    node: BgpNode,
    pending_mrai: Vec<Action>,
    busy: bool,
}

impl Driver {
    fn new(node: BgpNode) -> Driver {
        Driver {
            node,
            pending_mrai: Vec::new(),
            busy: false,
        }
    }

    fn absorb(&mut self, actions: &[Action]) {
        for a in actions {
            match a {
                Action::StartMrai { .. } => self.pending_mrai.push(a.clone()),
                Action::StartProcessing { .. } => self.busy = true,
                _ => {}
            }
        }
    }

    fn step(&mut self, now: SimTime, op: &Op) -> Vec<Action> {
        let actions = match op {
            Op::Update {
                peer,
                prefix,
                withdraw,
                seed,
            } => {
                let prefix = Prefix::new(*prefix);
                let msg = if *withdraw {
                    UpdateMsg::withdraw(prefix)
                } else {
                    UpdateMsg::advertise(
                        prefix,
                        AsPath::from_hops((0..1 + seed % 4).map(|i| AsId::new(100 + seed + i))),
                    )
                };
                self.node.on_update(now, RouterId::new(*peer), msg)
            }
            Op::FireMrai => {
                if self.pending_mrai.is_empty() {
                    return Vec::new();
                }
                let Action::StartMrai {
                    peer, prefix, gen, ..
                } = self.pending_mrai.remove(0)
                else {
                    unreachable!("pending_mrai holds StartMrai actions only");
                };
                self.node.on_mrai_expiry(now, peer, prefix, gen)
            }
            Op::ProcDone => {
                if !self.busy {
                    return Vec::new();
                }
                self.busy = false;
                self.node.on_proc_done(now)
            }
        };
        self.absorb(&actions);
        actions
    }

    fn loc_rib_entries(&self) -> Vec<(Prefix, Selected)> {
        self.node
            .loc_rib()
            .iter()
            .map(|(p, s)| (p, s.clone()))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn cloned_node_replays_identically(
        prelude in prop::collection::vec(op_strategy(), 1..40),
        tail in prop::collection::vec(op_strategy(), 1..40),
        seed in 0u64..1000,
    ) {
        let mut original = Driver::new(build_node(seed));

        // Warm the node up: populate RIBs, leave timers pending and the
        // processor mid-batch, and exercise the prepend cache.
        let mut now = SimTime::ZERO;
        for op in &prelude {
            now += SimDuration::from_millis(7);
            original.step(now, op);
        }

        // Fork mid-flight.
        let mut fork = Driver {
            node: original.node.clone(),
            pending_mrai: original.pending_mrai.clone(),
            busy: original.busy,
        };

        // Identical stimulus ⇒ byte-identical actions, step by step: the
        // clone must have captured RIBs, timer generations, queue contents
        // *and* the RNG position (jittered MRAI delays and randomized
        // processing durations diverge otherwise).
        for op in &tail {
            now += SimDuration::from_millis(7);
            let a = original.step(now, op);
            let b = fork.step(now, op);
            prop_assert_eq!(a, b, "diverged on {:?}", op);
        }

        prop_assert_eq!(original.node.rib_in(), fork.node.rib_in());
        prop_assert_eq!(original.loc_rib_entries(), fork.loc_rib_entries());
        prop_assert_eq!(original.node.stats(), fork.node.stats());
        prop_assert_eq!(original.node.queue_len(), fork.node.queue_len());
    }
}
