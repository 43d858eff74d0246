//! Bench-side probes of single layers: one `BgpNode` fed a scripted
//! update stream (the shape of the `fork_equivalence` test's stimulus loop), and
//! a hold loop on the future-event list.

use std::hint::black_box;
use std::time::Instant;

use bgpsim_bgp::queue::QueueDiscipline;
use bgpsim_bgp::{Action, AsPath, BgpNode, NodeConfig, Prefix, UpdateMsg};
use bgpsim_des::{Fel, FelKind, SimDuration, SimTime};
use bgpsim_topology::{AsId, RouterId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Per-handler cost of one node at one table size.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeCost {
    /// Calls of `on_update`.
    pub update_calls: u64,
    /// Nanoseconds spent in `on_update`.
    pub update_ns: u64,
    /// Calls of `on_proc_done`.
    pub proc_calls: u64,
    /// Nanoseconds spent in `on_proc_done`.
    pub proc_ns: u64,
    /// Calls of `on_mrai_expiry`.
    pub mrai_calls: u64,
    /// Nanoseconds spent in `on_mrai_expiry`.
    pub mrai_ns: u64,
    /// Actions returned by all timed calls.
    pub actions: u64,
}

/// Drives one node with the batching discipline and MRAI 0.5 s: every
/// peer first announces the whole table (untimed), then `ops` random
/// stimuli are timed — announcements and withdrawals from random peers,
/// processing completions and MRAI expiries, in the 4 : 2 : 1 mix of the
/// `fork_equivalence` test.
pub fn node_cost(table: u32, peers: u32, ops: usize, seed: u64) -> NodeCost {
    let cfg = NodeConfig::builder()
        .mrai_constant(SimDuration::from_millis(500))
        .queue(QueueDiscipline::Batched)
        .build();
    let mut node = BgpNode::new(
        RouterId::new(0),
        AsId::new(0),
        cfg,
        SmallRng::seed_from_u64(seed),
    );
    for p in 1..=peers {
        node.add_peer(RouterId::new(p), false);
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    let mut pending_mrai: Vec<Action> = Vec::new();
    let mut busy = false;
    let mut now = SimTime::ZERO;
    let absorb = |actions: &[Action], pending: &mut Vec<Action>, busy: &mut bool| {
        for a in actions {
            match a {
                Action::StartMrai { .. } => pending.push(a.clone()),
                Action::StartProcessing { .. } => *busy = true,
                _ => {}
            }
        }
    };
    let path =
        |peer: u32, len: u32| AsPath::from_hops((0..len).map(|i| AsId::new(1000 * peer + 10 + i)));

    // Untimed warm-up: the whole table from every peer, processed.
    for p in 1..=peers {
        for prefix in 0..table {
            now += SimDuration::from_micros(1);
            let msg = UpdateMsg::advertise(Prefix::new(prefix), path(p, 1 + (prefix + p) % 4));
            let a = node.on_update(now, RouterId::new(p), msg);
            absorb(&a, &mut pending_mrai, &mut busy);
        }
    }
    while busy {
        busy = false;
        now += SimDuration::from_millis(1);
        let a = node.on_proc_done(now);
        absorb(&a, &mut pending_mrai, &mut busy);
    }

    let mut cost = NodeCost::default();
    for _ in 0..ops {
        now += SimDuration::from_millis(1);
        let roll = rng.gen_range(0..7u32);
        let (actions, ns, calls) = if roll < 4 {
            let peer = rng.gen_range(1..=peers);
            let prefix = Prefix::new(rng.gen_range(0..table));
            let msg = if rng.gen_range(0..5u32) == 0 {
                UpdateMsg::withdraw(prefix)
            } else {
                UpdateMsg::advertise(prefix, path(peer, rng.gen_range(1..6)))
            };
            let t = Instant::now();
            let a = node.on_update(now, RouterId::new(peer), black_box(msg));
            (a, t.elapsed().as_nanos(), &mut cost.update_calls)
        } else if roll < 6 {
            if !busy {
                continue;
            }
            busy = false;
            let t = Instant::now();
            let a = node.on_proc_done(now);
            (a, t.elapsed().as_nanos(), &mut cost.proc_calls)
        } else {
            if pending_mrai.is_empty() {
                continue;
            }
            let Action::StartMrai {
                peer, prefix, gen, ..
            } = pending_mrai.remove(0)
            else {
                unreachable!("pending_mrai holds StartMrai actions only");
            };
            let t = Instant::now();
            let a = node.on_mrai_expiry(now, peer, prefix, gen);
            (a, t.elapsed().as_nanos(), &mut cost.mrai_calls)
        };
        *calls += 1;
        let ns = u64::try_from(ns).unwrap_or(u64::MAX);
        match roll {
            0..=3 => cost.update_ns += ns,
            4 | 5 => cost.proc_ns += ns,
            _ => cost.mrai_ns += ns,
        }
        cost.actions += actions.len() as u64;
        absorb(&actions, &mut pending_mrai, &mut busy);
    }
    cost
}

/// Mean nanoseconds of one `next` + `schedule` pair on the default FEL
/// backend held at `depth` pending events.
pub fn fel_hold_ns(depth: usize, ops: usize, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut fel: Fel<u64> = Fel::new(FelKind::default());
    let horizon = SimDuration::from_secs(1).as_nanos();
    for i in 0..depth as u64 {
        fel.schedule(SimTime::from_nanos(rng.gen_range(0..horizon)), i);
    }
    let delays: Vec<u64> = (0..ops).map(|_| rng.gen_range(1..horizon)).collect();
    let started = Instant::now();
    for d in delays {
        let (t, payload) = fel.next().expect("the hold loop keeps the list at depth");
        fel.schedule(t + SimDuration::from_nanos(d), black_box(payload));
    }
    let ns = started.elapsed().as_nanos() as f64 / ops as f64;
    assert_eq!(fel.len(), depth);
    ns
}
