//! Byte-identity of the sharded engine on full-table burst workloads.
//!
//! The full-table workload stresses the sharded engine in two ways: the
//! prefix space is orders of magnitude larger than the router space (one
//! handled event can mail thousands of updates), and a burst withdrawal
//! floods thousands of
//! `WithdrawOrigin` events into one instant — the event-storm shape the
//! paper studies. The contract is unchanged: for any shard count the run
//! must match serial field-for-field in `RunStats`, state-for-state in
//! the final Loc-RIBs, and byte-for-byte in the trace JSONL.

use bgpsim::metrics::RunStats;
use bgpsim::network::{FullTableSpec, Network, SimConfig};
use bgpsim::scheme::Scheme;
use bgpsim_topology::degree::SkewedSpec;
use bgpsim_topology::generators::skewed_topology;
use bgpsim_topology::region::FailureSpec;
use bgpsim_topology::Topology;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn topo(seed: u64, nodes: usize) -> Topology {
    let mut rng = SmallRng::seed_from_u64(seed);
    skewed_topology(nodes, &SkewedSpec::seventy_thirty(), &mut rng).unwrap()
}

/// Initial convergence on a power-law full table, then a central-region
/// burst withdrawal to quiescence, traced. Returns the post-burst stats,
/// the final network and the trace bytes.
fn run_burst(
    scheme: &Scheme,
    seed: u64,
    nodes: usize,
    table: u32,
    shards: usize,
) -> (RunStats, Network, String) {
    let scheme = scheme
        .clone()
        .with_full_table(FullTableSpec::internet_like(table));
    let mut cfg = SimConfig::from_scheme(&scheme, seed);
    cfg.shards = Some(shards);
    let mut net = Network::new(topo(seed, nodes), cfg);
    net.set_trace_sink(bgpsim::TraceSink::memory(1 << 22));
    net.run_initial_convergence();
    let withdrawn = net.inject_burst_withdrawal(&FailureSpec::CenterFraction(0.2));
    assert!(!withdrawn.is_empty(), "burst must withdraw something");
    let stats = net.run_to_quiescence();
    let mem = net
        .trace_sink()
        .memory_events()
        .expect("memory sink attached");
    assert_eq!(mem.dropped(), 0, "trace capacity exceeded");
    let jsonl = bgpsim::trace::to_jsonl(mem.events());
    (stats, net, jsonl)
}

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

#[test]
fn burst_withdrawal_on_full_table_is_bit_identical_across_shards() {
    for (seed, nodes, table) in [(7u64, 20usize, 250u32), (11, 24, 400)] {
        for scheme in [Scheme::constant_mrai(0.5), Scheme::batching(0.5)] {
            let (serial_stats, serial_net, serial_jsonl) =
                run_burst(&scheme, seed, nodes, table, 1);
            // 37 exceeds the node count: the engine clamps to one router
            // per shard and must stay identical.
            for shards in [2usize, 37] {
                let (stats, net, jsonl) = run_burst(&scheme, seed, nodes, table, shards);
                assert_eq!(
                    stats, serial_stats,
                    "RunStats diverged: scheme={} shards={shards} table={table}",
                    scheme.name
                );
                assert_state_identical(
                    &net,
                    &serial_net,
                    &format!("scheme={} shards={shards} table={table}", scheme.name),
                );
                assert!(
                    jsonl == serial_jsonl,
                    "trace JSONL diverged from serial: scheme={} shards={shards} table={table}",
                    scheme.name
                );
            }
        }
    }
}

#[test]
fn withdrawn_prefixes_stay_withdrawn_in_every_engine() {
    // The burst bookkeeping (`Network::withdrawn_prefixes`) lives outside
    // the event loop; both engines must agree on it and on the resulting
    // absence of routes.
    let scheme = Scheme::constant_mrai(0.5);
    let (_, serial, _) = run_burst(&scheme, 3, 18, 120, 1);
    let (_, sharded, _) = run_burst(&scheme, 3, 18, 120, 2);
    let a: Vec<_> = serial.withdrawn_prefixes().collect();
    let b: Vec<_> = sharded.withdrawn_prefixes().collect();
    assert_eq!(a, b, "withdrawn sets diverged");
    assert!(!a.is_empty());
    for r in serial.topology().router_ids() {
        for &p in &a {
            assert!(
                serial.node(r).unwrap().loc_rib().get(p).is_none(),
                "router {r} kept withdrawn {p:?}"
            );
        }
    }
}
