//! Cross-crate integration tests: topology generation → network wiring →
//! BGP convergence → failure → re-convergence, verified against
//! ground-truth reachability.

use bgpsim::network::{DetectionMode, Network, SimConfig};
use bgpsim::scheme::Scheme;
use bgpsim_bgp::mrai::MraiScope;
use bgpsim_bgp::Prefix;
use bgpsim_des::{RngStreams, SimDuration};
use bgpsim_topology::degree::SkewedSpec;
use bgpsim_topology::generators::skewed_topology;
use bgpsim_topology::multias::{generate_multi_as, MultiAsConfig};
use bgpsim_topology::region::FailureSpec;
use bgpsim_topology::{RouterId, Topology};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn topo(seed: u64, n: usize) -> Topology {
    let mut rng = SmallRng::seed_from_u64(seed);
    skewed_topology(n, &SkewedSpec::seventy_thirty(), &mut rng).unwrap()
}

#[test]
fn paper_default_network_converges_and_recovers() {
    let mut net = Network::new(topo(1, 60), SimConfig::new(10));
    let initial = net.run_initial_convergence();
    assert!(initial > SimDuration::ZERO);
    net.assert_routing_consistent();

    let failed = net.inject_failure(&FailureSpec::CenterFraction(0.10));
    assert_eq!(failed.len(), 6);
    let stats = net.run_to_quiescence();
    net.assert_routing_consistent();
    assert!(stats.convergence_delay > SimDuration::ZERO);
    assert!(stats.withdrawals > 0, "dead prefixes must be withdrawn");
    // Six ASes died with their prefixes; survivors must drop those routes.
    for r in net.topology().router_ids().filter(|&r| net.is_alive(r)) {
        let node = net.node(r).unwrap();
        for &f in &failed {
            let dead_prefix = Prefix::new(net.topology().router(f).as_id.index() as u32);
            assert!(
                node.loc_rib().get(dead_prefix).is_none(),
                "router {r} kept a route to dead prefix {dead_prefix}"
            );
        }
    }
}

#[test]
fn every_scheme_reaches_a_consistent_state() {
    for (i, scheme) in [
        Scheme::constant_mrai(0.5),
        Scheme::constant_mrai(2.25),
        Scheme::degree_dependent(0.5, 2.25, 8),
        Scheme::dynamic_default(),
        Scheme::batching(0.5),
        Scheme::batching_plus_dynamic(),
        Scheme::tcp_batch(0.5, 16),
    ]
    .into_iter()
    .enumerate()
    {
        let cfg = SimConfig::from_scheme(&scheme, 100 + i as u64);
        let mut net = Network::new(topo(2, 50), cfg);
        net.run_failure_experiment(&FailureSpec::CenterFraction(0.15));
        net.assert_routing_consistent();
    }
}

#[test]
fn per_destination_mrai_converges_consistently() {
    let mut cfg = SimConfig::from_scheme(&Scheme::constant_mrai(0.5), 11);
    cfg.mrai_scope = MraiScope::PerDestination;
    let mut net = Network::new(topo(3, 40), cfg);
    let stats = net.run_failure_experiment(&FailureSpec::CenterFraction(0.10));
    assert!(stats.messages > 0);
    net.assert_routing_consistent();
}

#[test]
fn wrate_still_converges() {
    let mut cfg = SimConfig::from_scheme(&Scheme::constant_mrai(0.5), 12);
    cfg.wrate = true;
    let mut net = Network::new(topo(4, 40), cfg);
    net.run_failure_experiment(&FailureSpec::CenterFraction(0.10));
    net.assert_routing_consistent();
}

#[test]
fn jitter_off_still_converges() {
    let mut cfg = SimConfig::from_scheme(&Scheme::constant_mrai(1.25), 13);
    cfg.jitter = false;
    let mut net = Network::new(topo(5, 40), cfg);
    net.run_failure_experiment(&FailureSpec::CenterFraction(0.10));
    net.assert_routing_consistent();
}

#[test]
fn detection_delay_shifts_convergence() {
    let run = |detection_ms: u64| {
        let mut cfg = SimConfig::from_scheme(&Scheme::constant_mrai(2.25), 14);
        cfg.detection = DetectionMode::LinkLayer(SimDuration::from_millis(detection_ms));
        let mut net = Network::new(topo(6, 40), cfg);
        net.run_failure_experiment(&FailureSpec::CenterFraction(0.10))
    };
    let fast = run(0);
    let slow = run(5_000);
    assert!(
        slow.convergence_delay >= fast.convergence_delay + SimDuration::from_secs(4),
        "a 5 s detection delay must push convergence out by about that much \
         (fast {}, slow {})",
        fast.convergence_delay,
        slow.convergence_delay
    );
}

#[test]
fn scattered_failures_also_recover() {
    let mut net = Network::new(
        topo(7, 50),
        SimConfig::from_scheme(&Scheme::constant_mrai(0.5), 15),
    );
    net.run_initial_convergence();
    net.inject_failure(&FailureSpec::RandomFraction(0.10));
    net.run_to_quiescence();
    net.assert_routing_consistent();
}

#[test]
fn corner_failures_also_recover() {
    let mut net = Network::new(
        topo(8, 50),
        SimConfig::from_scheme(&Scheme::constant_mrai(0.5), 16),
    );
    net.run_initial_convergence();
    net.inject_failure(&FailureSpec::CornerFraction(0.10));
    net.run_to_quiescence();
    net.assert_routing_consistent();
}

#[test]
fn multi_as_failure_recovers_consistently() {
    let mut rng = SmallRng::seed_from_u64(20);
    let topo = generate_multi_as(&MultiAsConfig::realistic(25), &mut rng).unwrap();
    let mut net = Network::new(
        topo,
        SimConfig::from_scheme(&Scheme::constant_mrai(0.5), 21),
    );
    let stats = net.run_failure_experiment(&FailureSpec::CenterFraction(0.05));
    assert!(stats.failed_routers > 0);
    net.assert_routing_consistent();
}

#[test]
fn network_partition_is_handled() {
    // A barbell: two triangles joined by one bridge node. Failing the
    // bridge partitions the network; both halves must still converge,
    // each losing the other half's prefixes.
    use bgpsim_topology::{AsId, Point, Router};
    let mk = |i: u32, x: f64| Router {
        as_id: AsId::new(i),
        pos: Point::new(x, 500.0),
    };
    let routers = vec![
        mk(0, 0.0),
        mk(1, 10.0),
        mk(2, 20.0),
        mk(3, 500.0), // bridge at grid centre
        mk(4, 980.0),
        mk(5, 990.0),
        mk(6, 1000.0),
    ];
    let rid = RouterId::new;
    let edges = vec![
        (rid(0), rid(1)),
        (rid(1), rid(2)),
        (rid(0), rid(2)),
        (rid(2), rid(3)),
        (rid(3), rid(4)),
        (rid(4), rid(5)),
        (rid(5), rid(6)),
        (rid(4), rid(6)),
    ];
    let topo = Topology::new(routers, edges).unwrap();
    let mut net = Network::new(
        topo,
        SimConfig::from_scheme(&Scheme::constant_mrai(0.5), 30),
    );
    net.run_initial_convergence();
    net.inject_failure(&FailureSpec::Explicit(vec![rid(3)]));
    net.run_to_quiescence();
    net.assert_routing_consistent();
    // Left half keeps its own prefixes, loses the right half's.
    let left = net.node(rid(0)).unwrap();
    assert!(left.loc_rib().get(Prefix::new(1)).is_some());
    assert!(left.loc_rib().get(Prefix::new(5)).is_none());
    let right = net.node(rid(6)).unwrap();
    assert!(right.loc_rib().get(Prefix::new(4)).is_some());
    assert!(right.loc_rib().get(Prefix::new(0)).is_none());
}

#[test]
fn repeated_failures_in_sequence() {
    // Fail twice: the network must re-converge consistently both times.
    let mut net = Network::new(
        topo(9, 40),
        SimConfig::from_scheme(&Scheme::constant_mrai(0.5), 31),
    );
    net.run_initial_convergence();
    net.inject_failure(&FailureSpec::CenterFraction(0.05));
    net.run_to_quiescence();
    net.assert_routing_consistent();
    net.inject_failure(&FailureSpec::CornerFraction(0.05));
    net.run_to_quiescence();
    net.assert_routing_consistent();
}

#[test]
fn valley_free_semantics_on_hand_built_topology() {
    // A(1) — P1(2) — P2(2) — P3(2) — B(1): equal-degree P's are peers,
    // A and B are customers of their P. A's prefix crosses ONE peer edge
    // (P1→P2) but must not transit the second (P2→P3): a peer-learned
    // route is not exported to another peer.
    use bgpsim_topology::{AsId, Point, Router};
    let mk = |i: u32, x: f64| Router {
        as_id: AsId::new(i),
        pos: Point::new(x, 100.0),
    };
    let routers = vec![
        mk(0, 0.0),
        mk(1, 10.0),
        mk(2, 20.0),
        mk(3, 30.0),
        mk(4, 40.0),
    ];
    let rid = RouterId::new;
    let topo = Topology::new(
        routers,
        vec![
            (rid(0), rid(1)), // A — P1
            (rid(1), rid(2)), // P1 — P2
            (rid(2), rid(3)), // P2 — P3
            (rid(3), rid(4)), // P3 — B
        ],
    )
    .unwrap();
    // Degrees: A 1, P1 2, P2 2, P3 2, B 1.
    let scheme = Scheme::constant_mrai(0.5).with_policy();
    let mut net = Network::new(topo, SimConfig::from_scheme(&scheme, 60));
    net.run_initial_convergence();
    net.assert_routing_consistent();

    let prefix_a = Prefix::new(0);
    // P1 (A's provider) has the customer route and exports it to peer P2.
    assert!(net.node(rid(1)).unwrap().loc_rib().get(prefix_a).is_some());
    assert!(net.node(rid(2)).unwrap().loc_rib().get(prefix_a).is_some());
    // P2's route is peer-learned: it must NOT reach peer P3 (a valley).
    assert!(
        net.node(rid(3)).unwrap().loc_rib().get(prefix_a).is_none(),
        "peer-learned route leaked to another peer"
    );
    assert!(net.node(rid(4)).unwrap().loc_rib().get(prefix_a).is_none());
    // But B's prefix reaches P3 and P2 (one peer hop from P3)...
    let prefix_b = Prefix::new(4);
    assert!(net.node(rid(2)).unwrap().loc_rib().get(prefix_b).is_some());
    // ...and not P1 (second peer hop).
    assert!(net.node(rid(1)).unwrap().loc_rib().get(prefix_b).is_none());
    // Everyone still reaches the directly adjacent prefixes.
    assert!(net
        .node(rid(0))
        .unwrap()
        .loc_rib()
        .get(Prefix::new(1))
        .is_some());
}

#[test]
fn policy_network_recovers_from_failure() {
    let scheme = Scheme::batching(0.5).with_policy();
    let mut net = Network::new(topo(22, 50), SimConfig::from_scheme(&scheme, 61));
    net.run_failure_experiment(&FailureSpec::CenterFraction(0.15));
    net.assert_routing_consistent();
}

#[test]
fn damping_converges_to_consistent_state() {
    use bgpsim_bgp::damping::DampingConfig;
    let scheme = Scheme::constant_mrai(1.25).with_damping(DampingConfig::paper_scale());
    let mut net = Network::new(topo(23, 40), SimConfig::from_scheme(&scheme, 62));
    let stats = net.run_failure_experiment(&FailureSpec::CenterFraction(0.15));
    // By quiescence every reuse timer has fired, so no route is still
    // suppressed and the ground truth must hold exactly.
    net.assert_routing_consistent();
    assert!(stats.messages > 0);
    for r in net.topology().router_ids().filter(|&r| net.is_alive(r)) {
        assert_eq!(net.node(r).unwrap().suppressed_count(), 0);
    }
}

#[test]
fn damping_slows_large_failure_convergence() {
    use bgpsim_bgp::damping::DampingConfig;
    let run = |damped: bool| {
        let scheme = if damped {
            Scheme::constant_mrai(2.25).with_damping(DampingConfig::paper_scale())
        } else {
            Scheme::constant_mrai(2.25)
        };
        let mut net = Network::new(topo(24, 50), SimConfig::from_scheme(&scheme, 63));
        net.run_failure_experiment(&FailureSpec::CenterFraction(0.15))
    };
    let plain = run(false);
    let damped = run(true);
    // Mao et al.: suppressing path-hunting alternates delays convergence.
    assert!(
        damped.convergence_delay > plain.convergence_delay,
        "damping should exacerbate convergence (plain {}, damped {})",
        plain.convergence_delay,
        damped.convergence_delay
    );
}

#[test]
fn seeded_runs_reproduce_exactly_across_networks() {
    let run = || {
        let mut net = Network::new(
            topo(10, 45),
            SimConfig::from_scheme(&Scheme::dynamic_default(), 77),
        );
        net.run_failure_experiment(&FailureSpec::CenterFraction(0.1))
    };
    assert_eq!(run(), run());
}

#[test]
fn rng_streams_do_not_collide_across_components() {
    // Spot check that node RNG streams differ (the simulation depends on
    // per-node independence for the jitter to desynchronize timers).
    use rand::Rng;
    let streams = RngStreams::new(5);
    let a: u64 = streams.stream("node", 0).gen();
    let b: u64 = streams.stream("node", 1).gen();
    let c: u64 = streams.stream("originate", 0).gen();
    assert_ne!(a, b);
    assert_ne!(a, c);
}
