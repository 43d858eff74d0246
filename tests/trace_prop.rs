//! Property tests for the tracing layer (`bgpsim::trace`).
//!
//! Three contracts, checked together over random topologies, seeds,
//! failure fractions and schemes:
//!
//! 1. **Tracing is invisible.** Attaching a `TraceSink::Memory` must not
//!    perturb the simulation: `RunStats` is field-identical to the same
//!    run with `TraceSink::Off`. The sink only observes; it never feeds
//!    back into event timing or ordering.
//! 2. **Traces are deterministic across shard counts.** The JSONL
//!    serialization of the event stream from a sharded run
//!    (`SimConfig::shards`) is byte-identical to the serial run's. This
//!    is stronger than equal `RunStats`: every event, every field, every
//!    sequence number must match, which pins the Phase B walk order in
//!    `shard.rs` that trace emission follows.
//! 3. **The trace and the stats agree on messages.** The stream's
//!    `Sent { advertise: true }` and `Sent { advertise: false }` counts
//!    equal `RunStats::{announcements, withdrawals}`, serially and
//!    sharded. A send towards a failed router is lost with the link, but
//!    its sender still sent it: it counts on both sides.

use bgpsim::metrics::RunStats;
use bgpsim::network::{Network, SimConfig};
use bgpsim::scheme::Scheme;
use bgpsim::trace::{to_jsonl, TraceEvent, TraceSink};
use bgpsim_bgp::trace::NodeEvent;
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

/// Converges, injects the failure, then runs the traced re-convergence
/// phase under `shards` workers. `traced == false` leaves the sink Off.
fn run(
    scheme: &Scheme,
    seed: u64,
    nodes: usize,
    fraction: f64,
    shards: usize,
    traced: bool,
) -> (RunStats, Vec<TraceEvent>) {
    let mut cfg = SimConfig::from_scheme(scheme, seed);
    cfg.shards = Some(shards);
    let mut net = Network::new(topo(seed, nodes), cfg);
    net.run_initial_convergence();
    net.inject_failure(&FailureSpec::CenterFraction(fraction));
    if traced {
        net.set_trace_sink(TraceSink::memory(usize::MAX));
    }
    let stats = net.run_to_quiescence();
    (stats, net.take_trace_events())
}

/// The stream's `(announcements, withdrawals)`: its `Sent` events split
/// by `advertise`.
fn sent_counts(events: &[TraceEvent]) -> (u64, u64) {
    let mut counts = (0, 0);
    for ev in events {
        match ev.event {
            NodeEvent::Sent {
                advertise: true, ..
            } => counts.0 += 1,
            NodeEvent::Sent {
                advertise: false, ..
            } => counts.1 += 1,
            _ => {}
        }
    }
    counts
}

proptest! {
    // Each case runs 4 full simulations (serial off/on + 2 sharded);
    // keep the count low and the networks small.
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn tracing_is_invisible_and_shard_deterministic(
        nodes in 15usize..30,
        seed in 0u64..10_000,
        fraction_idx in 0usize..3,
        scheme_idx in 0usize..3,
    ) {
        let fraction = [0.05, 0.10, 0.20][fraction_idx];
        let scheme = &schemes()[scheme_idx];

        // Contract 1: Off vs Memory — field-identical RunStats.
        let (stats_off, no_events) = run(scheme, seed, nodes, fraction, 1, false);
        let (stats_mem, events) = run(scheme, seed, nodes, fraction, 1, true);
        prop_assert_eq!(no_events.len(), 0, "Off sink must record nothing");
        prop_assert_eq!(
            stats_mem,
            stats_off,
            "memory tracing perturbed the run: scheme={}",
            scheme.name
        );
        prop_assert!(
            !events.is_empty(),
            "a traced re-convergence must record events"
        );
        // Contract 3, serially.
        prop_assert_eq!(
            sent_counts(&events),
            (stats_off.announcements, stats_off.withdrawals),
            "trace Sent events vs RunStats: scheme={}",
            scheme.name
        );
        let serial_jsonl = to_jsonl(&events);

        // Contract 2: serial vs sharded — byte-identical JSONL streams,
        // with the parallel destination-partitioned commit engaged.
        for shards in [2usize, 4] {
            let (stats, events) = run(scheme, seed, nodes, fraction, shards, true);
            prop_assert_eq!(
                stats,
                stats_off,
                "RunStats diverged: scheme={} shards={}",
                scheme.name,
                shards
            );
            // Contract 3, sharded.
            prop_assert_eq!(
                sent_counts(&events),
                (stats.announcements, stats.withdrawals),
                "trace Sent events vs RunStats: scheme={} shards={}",
                scheme.name,
                shards
            );
            let jsonl = to_jsonl(&events);
            prop_assert!(
                jsonl == serial_jsonl,
                "trace streams diverged: scheme={} shards={} ({} vs {} bytes)",
                scheme.name,
                shards,
                jsonl.len(),
                serial_jsonl.len()
            );
        }
    }
}
