//! Property-based tests (proptest) over the core data structures and the
//! end-to-end simulation invariants.

use bgpsim::network::{Network, SimConfig};
use bgpsim::scheme::Scheme;
use bgpsim_bgp::decision::select_best;
use bgpsim_bgp::queue::{InputQueue, QueueDiscipline, WorkItem};
use bgpsim_bgp::rib::{EngineRibIn, NextHop, RouteEntry};
use bgpsim_bgp::{AsPath, Prefix, UpdateMsg};
use bgpsim_des::{Scheduler, SimTime};
use bgpsim_topology::degree::{is_graphical, DegreeSpec, SkewedSpec};
use bgpsim_topology::generators::from_degree_sequence;
use bgpsim_topology::placement::{place, DensityModel};
use bgpsim_topology::region::FailureSpec;
use bgpsim_topology::{AsId, RouterId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

proptest! {
    /// Events always come out in time order, FIFO within a timestamp.
    #[test]
    fn scheduler_orders_any_schedule(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut s: Scheduler<usize> = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((t, idx)) = s.next() {
            let t = t.as_nanos();
            prop_assert_eq!(t, times[idx], "event delivered at its scheduled time");
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt, "time order violated");
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO within a timestamp violated");
                }
            }
            last = Some((t, idx));
        }
    }

    /// Cancelled events never fire; everything else does, exactly once.
    #[test]
    fn scheduler_cancellation(
        times in prop::collection::vec(0u64..100, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut s: Scheduler<usize> = Scheduler::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| s.schedule(SimTime::from_nanos(t), i))
            .collect();
        let mut cancelled = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                s.cancel(*id);
                cancelled.push(i);
            }
        }
        let mut fired = Vec::new();
        while let Some((_, idx)) = s.next() {
            fired.push(idx);
        }
        for idx in &cancelled {
            prop_assert!(!fired.contains(idx), "cancelled event {idx} fired");
        }
        prop_assert_eq!(fired.len() + cancelled.len(), times.len());
    }
}

// ---------------------------------------------------------------------
// AS paths and the decision process
// ---------------------------------------------------------------------

proptest! {
    /// Prepending grows the path by one and puts the AS in front.
    #[test]
    fn as_path_prepend_laws(hops in prop::collection::vec(0u32..500, 0..12), head in 0u32..500) {
        let path = AsPath::from_hops(hops.iter().map(|&h| AsId::new(h)));
        let grown = path.prepend(AsId::new(head));
        prop_assert_eq!(grown.len(), path.len() + 1);
        prop_assert_eq!(grown.hops()[0], AsId::new(head));
        prop_assert!(grown.contains(AsId::new(head)));
        prop_assert_eq!(&grown.hops()[1..], path.hops());
    }

    /// The selected route has the minimum path length among candidates,
    /// and ties break towards the smallest peer id.
    #[test]
    fn decision_picks_minimum(candidates in prop::collection::vec((0u32..64, 1usize..6), 1..10)) {
        let mut rib = EngineRibIn::new();
        let p = Prefix::new(0);
        let mut seen: Vec<(u32, usize)> = Vec::new();
        for &(peer, len) in &candidates {
            if seen.iter().any(|&(q, _)| q == peer) {
                continue; // one route per peer
            }
            seen.push((peer, len));
            let hops: Vec<AsId> = (0..len as u32).map(|h| AsId::new(1000 + h)).collect();
            rib.insert(p, RouterId::new(peer), RouteEntry { path: AsPath::from_hops(hops), ibgp: false, rank: 0 });
        }
        let best = select_best(p, &rib).expect("candidates exist");
        let min_len = seen.iter().map(|&(_, l)| l).min().unwrap();
        prop_assert_eq!(best.path.len(), min_len);
        let min_peer = seen.iter().filter(|&&(_, l)| l == min_len).map(|&(q, _)| q).min().unwrap();
        prop_assert_eq!(best.next_hop, NextHop::Peer(RouterId::new(min_peer)));
    }
}

// ---------------------------------------------------------------------
// Input-queue disciplines
// ---------------------------------------------------------------------

fn arb_item(peer: u32, prefix: u32, tag: u32) -> WorkItem {
    WorkItem::Update {
        from: RouterId::new(peer),
        msg: UpdateMsg::advertise(Prefix::new(prefix), AsPath::from_hops([AsId::new(tag)])),
    }
}

proptest! {
    /// Conservation: every pushed item is either returned in a batch or
    /// counted as deleted stale — for every discipline.
    #[test]
    fn queue_conserves_items(
        items in prop::collection::vec((0u32..6, 0u32..8, 0u32..100), 0..200),
        which in 0usize..3,
    ) {
        let discipline = match which {
            0 => QueueDiscipline::Fifo,
            1 => QueueDiscipline::Batched,
            _ => QueueDiscipline::TcpBatch { buffer: 7 },
        };
        let mut q = InputQueue::new(discipline);
        for &(peer, prefix, tag) in &items {
            q.push(arb_item(peer, prefix, tag));
        }
        let mut processed = 0usize;
        loop {
            let batch = q.pop_batch();
            if batch.is_empty() {
                break;
            }
            processed += batch.len();
        }
        prop_assert_eq!(processed as u64 + q.deleted_stale(), items.len() as u64);
        prop_assert!(q.is_empty());
    }

    /// Batched batches are single-destination and keep at most one item
    /// per source peer (the newest).
    #[test]
    fn batched_batches_are_per_destination_and_deduped(
        items in prop::collection::vec((0u32..6, 0u32..8, 0u32..100), 1..200),
    ) {
        let mut q = InputQueue::new(QueueDiscipline::Batched);
        for &(peer, prefix, tag) in &items {
            q.push(arb_item(peer, prefix, tag));
        }
        loop {
            let batch = q.pop_batch();
            if batch.is_empty() {
                break;
            }
            let prefix = batch[0].prefix();
            prop_assert!(batch.iter().all(|i| i.prefix() == prefix));
            let mut peers: Vec<RouterId> = batch.iter().map(WorkItem::peer).collect();
            peers.sort();
            let before = peers.len();
            peers.dedup();
            prop_assert_eq!(before, peers.len(), "duplicate peer within a batch");
        }
    }
}

// ---------------------------------------------------------------------
// Topology generation
// ---------------------------------------------------------------------

proptest! {
    /// Erdős–Gallai agrees with an attempted construction: if the check
    /// passes, the configuration-model generator realizes the sequence
    /// exactly, simply and connectedly (possibly after internal retries).
    #[test]
    fn graphical_sequences_are_realized(
        degrees in prop::collection::vec(1u32..6, 4..40),
        seed in 0u64..1000,
    ) {
        let mut degrees = degrees;
        if degrees.iter().map(|&d| u64::from(d)).sum::<u64>() % 2 == 1 {
            degrees[0] += 1;
        }
        prop_assume!(is_graphical(&degrees));
        let positions = place(degrees.len(), DensityModel::Uniform,
                              &mut SmallRng::seed_from_u64(seed));
        let mut rng = SmallRng::seed_from_u64(seed);
        match from_degree_sequence(&degrees, &positions, &mut rng) {
            Ok(topo) => {
                prop_assert!(topo.is_connected());
                for (i, &d) in degrees.iter().enumerate() {
                    prop_assert_eq!(topo.degree(RouterId::new(i as u32)), d as usize);
                }
            }
            Err(e) => {
                // Low-degree sequences can be graphical but not
                // *connectably* graphical (e.g. all degree 1 forces a
                // perfect matching). Only accept failure in that regime.
                let sum: u64 = degrees.iter().map(|&d| u64::from(d)).sum();
                prop_assert!(
                    sum / 2 < degrees.len() as u64,
                    "generator failed a sequence with enough edges for a \
                     connected graph: {e}"
                );
            }
        }
    }

    /// Degree sampling respects class structure for any skewed preset.
    #[test]
    fn skewed_sampling_respects_classes(n in 10usize..200, seed in 0u64..1000, which in 0usize..4) {
        let spec = match which {
            0 => SkewedSpec::seventy_thirty(),
            1 => SkewedSpec::fifty_fifty(),
            2 => SkewedSpec::eighty_five_fifteen(),
            _ => SkewedSpec::fifty_fifty_dense(),
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let degrees = DegreeSpec::Skewed(spec.clone()).sample(n, &mut rng);
        prop_assert_eq!(degrees.len(), n);
        let sum: u64 = degrees.iter().map(|&d| u64::from(d)).sum();
        prop_assert_eq!(sum % 2, 0);
        let high_min = spec.min_high_degree();
        let high = degrees.iter().filter(|&&d| d >= high_min).count();
        let expected = (spec.high_fraction * n as f64).round() as usize;
        // The even-sum fix can promote at most one low node past the bound
        // only if low_max + 1 >= high_min; with these presets it cannot.
        prop_assert_eq!(high, expected);
    }

    /// Centre failures select exactly round(f·n) routers, deterministically.
    #[test]
    fn center_failures_are_exact_and_deterministic(
        // n ≥ 20: below that, two+ degree-8 hubs are rarely realizable
        // alongside a 70% degree-1..3 class (Erdős–Gallai fails).
        n in 20usize..80,
        frac in 0.0f64..0.5,
        seed in 0u64..500,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let topo = bgpsim_topology::generators::skewed_topology(
            n, &SkewedSpec::seventy_thirty(), &mut rng).unwrap();
        let a = FailureSpec::CenterFraction(frac)
            .resolve(&topo, &mut SmallRng::seed_from_u64(1));
        let b = FailureSpec::CenterFraction(frac)
            .resolve(&topo, &mut SmallRng::seed_from_u64(2));
        prop_assert_eq!(&a, &b, "centre selection must ignore the RNG");
        prop_assert_eq!(a.len(), (frac * n as f64).round() as usize);
    }
}

// ---------------------------------------------------------------------
// Serialization round trips
// ---------------------------------------------------------------------

proptest! {
    /// Every scheme constructor serializes and deserializes losslessly
    /// (experiment definitions are persisted as JSON by the CLI).
    #[test]
    fn schemes_round_trip_through_json(which in 0usize..8, mrai in 0.1f64..5.0) {
        let scheme = match which {
            0 => Scheme::constant_mrai(mrai),
            1 => Scheme::degree_dependent(mrai, mrai * 2.0, 8),
            2 => Scheme::dynamic_default(),
            3 => Scheme::batching(mrai),
            4 => Scheme::batching_plus_dynamic(),
            5 => Scheme::tcp_batch(mrai, 16),
            6 => Scheme::oracle(&[(0.05, mrai), (1.0, mrai * 2.0)]),
            _ => Scheme::constant_mrai(mrai).with_policy().with_expedited_improvements(),
        };
        let json = serde_json::to_string(&scheme).expect("serializes");
        let back: Scheme = serde_json::from_str(&json).expect("deserializes");
        prop_assert_eq!(scheme, back);
    }

    /// Experiments round trip too, including topology and failure specs.
    #[test]
    fn experiments_round_trip_through_json(n in 10usize..200, frac in 0.0f64..0.5) {
        let exp = bgpsim::Experiment {
            topology: bgpsim::TopologySpec::hierarchical(n),
            scheme: Scheme::batching(0.5),
            failure: FailureSpec::CenterFraction(frac),
            trials: 3,
            base_seed: 99,
        };
        let json = serde_json::to_string(&exp).expect("serializes");
        let back: bgpsim::Experiment = serde_json::from_str(&json).expect("deserializes");
        prop_assert_eq!(exp, back);
    }
}

// ---------------------------------------------------------------------
// Hierarchical topologies and policies
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// On any engineered hierarchy with ground-truth tiers, valley-free
    /// reachability is total: after convergence under Gao-Rexford policies
    /// every router holds a route to every prefix.
    #[test]
    fn hierarchies_have_total_valley_free_reachability(
        n in 20usize..60,
        seed in 0u64..1000,
    ) {
        use bgpsim_topology::generators::{hierarchical, HierarchicalParams};
        let params = HierarchicalParams::three_tier(n);
        let mut rng = SmallRng::seed_from_u64(seed);
        let topo = hierarchical(&params, &mut rng).expect("generates");
        let total = topo.num_routers();
        let scheme = Scheme::constant_mrai(0.5).with_policy();
        let mut cfg = SimConfig::from_scheme(&scheme, seed);
        cfg.policy_tiers = Some(params.tier_vector());
        let mut net = Network::new(topo, cfg);
        net.run_initial_convergence();
        net.assert_routing_consistent();
        for r in net.topology().router_ids() {
            prop_assert_eq!(net.node(r).unwrap().loc_rib().len(), total);
        }
    }
}

// ---------------------------------------------------------------------
// Route-flap damping state machine
// ---------------------------------------------------------------------

proptest! {
    /// The damping penalty only ever decays between flaps, suppression
    /// implies the penalty exceeded the threshold at flap time, and a
    /// non-capped release implies the penalty is at or below reuse.
    #[test]
    fn damping_state_machine_invariants(
        gaps in prop::collection::vec(1u64..120, 1..30),
    ) {
        use bgpsim_bgp::damping::{DampingConfig, DampingState};
        use bgpsim_des::{SimDuration, SimTime};
        let cfg = DampingConfig::paper_scale();
        let mut state = DampingState::new();
        let mut t = SimTime::ZERO;
        for &gap in &gaps {
            let before = state.penalty_at(t, &cfg);
            t += SimDuration::from_secs(gap);
            let decayed = state.penalty_at(t, &cfg);
            prop_assert!(
                decayed <= before + 1e-9,
                "penalty grew without a flap: {before} -> {decayed}"
            );
            let newly = state.record_flap(t, &cfg);
            let after = state.penalty_at(t, &cfg);
            prop_assert!((after - (decayed + cfg.penalty_per_flap)).abs() < 1e-6);
            if newly {
                prop_assert!(after > cfg.suppress_threshold);
                prop_assert!(state.is_suppressed());
            }
        }
        if state.is_suppressed() {
            // Wait out the reuse delay: release must succeed.
            let delay = state.reuse_delay(t, &cfg);
            let at = t + delay + SimDuration::from_millis(1);
            let capped = delay >= cfg.max_suppress;
            let released = state.try_release(at, state.gen(), &cfg, capped);
            prop_assert_eq!(released, Some(true), "release failed after its delay");
            prop_assert!(!state.is_suppressed());
        }
    }
}

// ---------------------------------------------------------------------
// Scenario scripting
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Any random fail/revive/link-fail script leaves the network in a
    /// state exactly consistent with surviving reachability.
    #[test]
    fn random_scenarios_stay_consistent(
        steps in prop::collection::vec(0usize..3, 1..6),
        seed in 0u64..1000,
        frac in 0.02f64..0.2,
    ) {
        use bgpsim::scenario::{Scenario, ScenarioStep};
        let script: Vec<ScenarioStep> = steps
            .iter()
            .map(|&k| match k {
                0 => ScenarioStep::FailRouters(FailureSpec::CenterFraction(frac)),
                1 => ScenarioStep::ReviveAll,
                _ => ScenarioStep::FailCentralLinks(frac),
            })
            .collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let topo = bgpsim_topology::generators::skewed_topology(
            24, &SkewedSpec::seventy_thirty(), &mut rng).unwrap();
        let mut net = Network::new(
            topo,
            SimConfig::from_scheme(&Scheme::constant_mrai(0.5), seed),
        );
        let stats = Scenario::new(script.clone()).run(&mut net);
        prop_assert_eq!(stats.len(), script.len());
        net.assert_routing_consistent();
    }
}

// ---------------------------------------------------------------------
// End-to-end: the big invariant
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// For random small networks, random failure sizes and any scheme, the
    /// simulation quiesces in a state exactly consistent with surviving
    /// reachability (existence AND shortest-path optimality of every route).
    #[test]
    fn simulation_always_converges_to_ground_truth(
        n in 20usize..36,
        frac in 0.0f64..0.35,
        seed in 0u64..10_000,
        which in 0usize..4,
    ) {
        let scheme = match which {
            0 => Scheme::constant_mrai(0.5),
            1 => Scheme::constant_mrai(2.25),
            2 => Scheme::dynamic_default(),
            _ => Scheme::batching(0.5),
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let topo = bgpsim_topology::generators::skewed_topology(
            n, &SkewedSpec::seventy_thirty(), &mut rng).unwrap();
        let mut net = Network::new(topo, SimConfig::from_scheme(&scheme, seed));
        net.run_failure_experiment(&FailureSpec::CenterFraction(frac));
        net.assert_routing_consistent();
    }
}
