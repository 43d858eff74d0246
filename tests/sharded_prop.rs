//! Property test: the sharded event loop is bit-identical to serial.
//!
//! The sharded engine (`BGPSIM_SHARDS` / `SimConfig::shards`) partitions
//! routers — and, since the shard-owned-FEL refactor (DESIGN.md §13),
//! their pending events — across shards and runs them in synchronous
//! epochs of width `link_delay` (the conservative-PDES lookahead). Its
//! contract is exact determinism: for any topology, seed, failure
//! fraction, shard count and scheme family, the run must be
//! indistinguishable from the serial engine — identical `RunStats` field
//! for field, identical final Loc-RIBs on every surviving router, AND a
//! byte-identical trace JSONL stream. Equality of the Loc-RIBs (not just
//! the aggregate counters) is what rules out compensating errors such as
//! two routers swapping best paths; equality of the trace bytes pins the
//! interior event order, not just the final state.
//!
//! A deterministic regression case pins the epoch-boundary edge:
//! with a zero origination window every message lands exactly on an
//! epoch boundary (`t0 + link_delay == epoch_end`), which the half-open
//! epoch window must defer to the next epoch in serial order.

use bgpsim::metrics::RunStats;
use bgpsim::network::{Network, SimConfig};
use bgpsim::scheme::Scheme;
use bgpsim_des::SimDuration;
use bgpsim_topology::degree::SkewedSpec;
use bgpsim_topology::generators::skewed_topology;
use bgpsim_topology::region::FailureSpec;
use bgpsim_topology::Topology;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn schemes() -> [Scheme; 3] {
    [
        Scheme::constant_mrai(0.5),
        Scheme::batching(0.5),
        Scheme::dynamic_default(),
    ]
}

fn topo(seed: u64, nodes: usize) -> Topology {
    let mut rng = SmallRng::seed_from_u64(seed);
    skewed_topology(nodes, &SkewedSpec::seventy_thirty(), &mut rng).unwrap()
}

/// Runs the full failure experiment under `shards` with a memory trace
/// sink attached, and returns the stats, the final network for state
/// comparison, and the trace serialized to JSONL. The walk emits trace
/// events in serial order, so the JSONL must match serial byte for byte.
fn run(
    scheme: &Scheme,
    seed: u64,
    nodes: usize,
    fraction: f64,
    shards: usize,
) -> (RunStats, Network, String) {
    let mut cfg = SimConfig::from_scheme(scheme, seed);
    cfg.shards = Some(shards);
    let mut net = Network::new(topo(seed, nodes), cfg);
    net.set_trace_sink(bgpsim::TraceSink::memory(1 << 20));
    let stats = net.run_failure_experiment(&FailureSpec::CenterFraction(fraction));
    let mem = net
        .trace_sink()
        .memory_events()
        .expect("memory sink attached");
    assert_eq!(mem.dropped(), 0, "trace capacity exceeded");
    let jsonl = bgpsim::trace::to_jsonl(mem.events());
    (stats, net, jsonl)
}

/// Asserts the externally observable final state of two runs is identical:
/// clock, per-router aliveness, Loc-RIB contents and per-node counters.
fn assert_state_identical(a: &Network, b: &Network, what: &str) {
    assert_eq!(a.now(), b.now(), "{what}: clock diverged");
    for r in a.topology().router_ids() {
        match (a.node(r), b.node(r)) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.loc_rib(), y.loc_rib(), "{what}: Loc-RIB of {r} diverged");
                assert_eq!(x.stats(), y.stats(), "{what}: node stats of {r} diverged");
            }
            _ => panic!("{what}: aliveness of {r} diverged"),
        }
    }
}

proptest! {
    // Each case runs 3 schemes × (1 serial + 3 sharded) full simulations;
    // keep the count low and the networks small.
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn sharded_runs_are_bit_identical_across_schemes(
        nodes in 15usize..30,
        seed in 0u64..10_000,
        fraction_idx in 0usize..3,
    ) {
        let fraction = [0.05, 0.10, 0.20][fraction_idx];
        for scheme in schemes() {
            // shards=0 clamps to 1, i.e. the plain serial engine.
            let (serial_stats, serial_net, serial_jsonl) =
                run(&scheme, seed, nodes, fraction, 0);
            // 1 exercises the shards-set-but-serial fallback; 37 exceeds
            // every generated node count, so the engine must clamp to one
            // router per shard and stay identical.
            for shards in [1usize, 2, 3, 37] {
                let (stats, net, jsonl) = run(&scheme, seed, nodes, fraction, shards);
                prop_assert_eq!(
                    stats,
                    serial_stats,
                    "RunStats diverged: scheme={} shards={}",
                    scheme.name,
                    shards
                );
                assert_state_identical(
                    &net,
                    &serial_net,
                    &format!("scheme={} shards={}", scheme.name, shards),
                );
                prop_assert!(
                    jsonl == serial_jsonl,
                    "trace JSONL diverged from serial: scheme={} shards={}",
                    scheme.name,
                    shards
                );
            }
        }
    }
}

#[test]
fn shard_count_exceeding_node_count_matches_serial() {
    // Degenerate partition: far more shards than routers. The engine
    // clamps to one router per shard; most shards idle every epoch, but
    // every observable must still match serial exactly.
    let scheme = Scheme::batching(0.5);
    let (serial_stats, serial_net, serial_jsonl) = run(&scheme, 2024, 18, 0.10, 1);
    let (stats, net, jsonl) = run(&scheme, 2024, 18, 0.10, 64);
    assert_eq!(stats, serial_stats, "RunStats diverged at 64 shards");
    assert_state_identical(&net, &serial_net, "64 shards on 18 routers");
    assert_eq!(jsonl, serial_jsonl, "trace JSONL diverged at 64 shards");
}

#[test]
fn single_destination_full_mesh_matches_serial() {
    // Degenerate workload: every router sits in one AS, so the whole run
    // concerns a single prefix over a full iBGP mesh — every router mails
    // every shard in every busy epoch. Identity must hold, and the epochs
    // are busy enough that Phase A actually fans out to the worker pool.
    use bgpsim_topology::{AsId, Point, Router, RouterId};
    let n = 24usize;
    let build = |shards: usize| {
        let routers = (0..n)
            .map(|i| Router {
                as_id: AsId::new(0),
                pos: Point::new(i as f64, (i % 5) as f64),
            })
            .collect();
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((RouterId::new(a as u32), RouterId::new(b as u32)));
            }
        }
        let mut cfg = SimConfig::new(1234);
        cfg.shards = Some(shards);
        Network::new(Topology::new(routers, edges).unwrap(), cfg)
    };
    let mut serial = build(1);
    let serial_delay = serial.run_initial_convergence();
    for shards in [2usize, 4] {
        let mut net = build(shards);
        let delay = net.run_initial_convergence();
        assert_eq!(
            delay, serial_delay,
            "{shards} shards: convergence delay diverged"
        );
        assert_state_identical(&net, &serial, &format!("{shards} shards"));
        let t = net.shard_phase_timings();
        assert!(
            t.inline_phase_a_epochs < t.epochs,
            "{shards} shards: single-destination run never fanned Phase A out"
        );
    }
}

#[test]
fn epoch_boundary_messages_keep_serial_order() {
    // Zero origination window: every router originates at t=0, so every
    // Deliver lands exactly at k × link_delay — always on an epoch
    // boundary. The sharded engine must queue those into the following
    // epoch and deliver them in serial (time, event-id) order.
    let build = |shards: usize| {
        let mut cfg = SimConfig::new(4242);
        cfg.origination_window = SimDuration::ZERO;
        cfg.shards = Some(shards);
        Network::new(topo(4242, 20), cfg)
    };
    let mut serial = build(1);
    let serial_delay = serial.run_initial_convergence();
    for shards in [2usize, 5] {
        let mut net = build(shards);
        let delay = net.run_initial_convergence();
        assert_eq!(
            delay, serial_delay,
            "{shards} shards: convergence delay diverged"
        );
        assert_state_identical(&net, &serial, &format!("{shards} shards"));
    }
}
