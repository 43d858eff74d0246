//! Scenario scripting: timed sequences of failure and recovery events.
//!
//! The paper measures one failure per run; a downstream user studying
//! churn (repeated disasters, flapping regions, failure-then-repair) wants
//! to script *sequences*. A [`Scenario`] is an ordered list of steps; each
//! step quiesces the network and reports its own [`RunStats`], so a
//! scripted run yields one measurement per event — e.g. the Tdown/Tup pair
//! of a failure-and-repair cycle.

use bgpsim_des::RngStreams;
use bgpsim_topology::region::{central_link_fraction, FailureSpec};
use bgpsim_topology::RouterId;
use serde::{Deserialize, Serialize};

use crate::metrics::RunStats;
use crate::network::Network;

/// One scripted event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ScenarioStep {
    /// Fail a router region (the paper's event).
    FailRouters(FailureSpec),
    /// Fail the central `fraction` of links (routers survive).
    FailCentralLinks(f64),
    /// Withdraw every prefix whose origin sits in the region, in one burst
    /// — the origins stay up and keep their sessions, but flood explicit
    /// withdrawals for their whole prefix blocks (a route leak being pulled
    /// back, or a disaster severing a region's customer cone). On a
    /// full-table workload this is the paper's failure storm at table
    /// scale: thousands of destinations withdrawn in one event storm.
    BurstWithdraw(FailureSpec),
    /// Revive every currently failed router (full session re-establishment
    /// and table exchange).
    ReviveAll,
}

/// An ordered failure/recovery script.
///
/// # Example
///
/// A region fails and later comes back; measure both transitions:
///
/// ```
/// use bgpsim::network::{Network, SimConfig};
/// use bgpsim::scenario::{Scenario, ScenarioStep};
/// use bgpsim::Scheme;
/// use bgpsim_topology::degree::SkewedSpec;
/// use bgpsim_topology::generators::skewed_topology;
/// use bgpsim_topology::region::FailureSpec;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(1);
/// let topo = skewed_topology(30, &SkewedSpec::seventy_thirty(), &mut rng)?;
/// let mut net = Network::new(topo, SimConfig::from_scheme(&Scheme::constant_mrai(0.5), 1));
/// let scenario = Scenario::new(vec![
///     ScenarioStep::FailRouters(FailureSpec::CenterFraction(0.1)),
///     ScenarioStep::ReviveAll,
/// ]);
/// let stats = scenario.run(&mut net);
/// assert_eq!(stats.len(), 2);
/// assert!(stats[1].convergence_delay <= stats[0].convergence_delay,
///         "recovery (Tup) is the faster transition");
/// # Ok::<(), bgpsim_topology::TopologyError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    steps: Vec<ScenarioStep>,
}

impl Scenario {
    /// Creates a scenario from ordered steps.
    pub fn new(steps: Vec<ScenarioStep>) -> Scenario {
        Scenario { steps }
    }

    /// `cycles` repetitions of fail-and-repair (a flapping region).
    pub fn flapping(fraction: f64, cycles: usize) -> Scenario {
        let mut steps = Vec::with_capacity(cycles * 2);
        for _ in 0..cycles {
            steps.push(ScenarioStep::FailRouters(FailureSpec::CenterFraction(
                fraction,
            )));
            steps.push(ScenarioStep::ReviveAll);
        }
        Scenario::new(steps)
    }

    /// The steps, in order.
    pub fn steps(&self) -> &[ScenarioStep] {
        &self.steps
    }

    /// Runs the scenario on a freshly built network: initial convergence,
    /// then each step to quiescence. Returns one [`RunStats`] per step.
    ///
    /// # Panics
    ///
    /// Panics if a `FailRouters` step carries an explicit spec naming a
    /// router id outside the topology. The built-in scenario constructors
    /// never trigger this; already-dead routers in a failure step are
    /// skipped, and `ReviveAll` revives exactly the set of routers the
    /// scenario has failed so far, so neither can panic.
    pub fn run(&self, net: &mut Network) -> Vec<RunStats> {
        net.run_initial_convergence();
        let mut down: Vec<RouterId> = Vec::new();
        let mut out = Vec::with_capacity(self.steps.len());
        let mut failure_rng = RngStreams::new(net.config().seed).stream("scenario-failures", 0);
        for step in &self.steps {
            match step {
                ScenarioStep::FailRouters(spec) => {
                    // Resolve against the topology, excluding already-dead
                    // routers (a region can only fail once until revived).
                    let mut failed = spec.resolve(net.topology(), &mut failure_rng);
                    failed.retain(|r| net.is_alive(*r));
                    let failed = net.inject_failure(&FailureSpec::Explicit(failed));
                    down.extend(failed);
                    down.sort();
                    down.dedup();
                }
                ScenarioStep::FailCentralLinks(fraction) => {
                    let links = central_link_fraction(net.topology(), *fraction);
                    net.inject_link_failure(&links);
                }
                ScenarioStep::BurstWithdraw(spec) => {
                    net.inject_burst_withdrawal(spec);
                }
                ScenarioStep::ReviveAll => {
                    let revive = std::mem::take(&mut down);
                    net.revive_routers(&revive);
                }
            }
            out.push(net.run_to_quiescence());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SimConfig;
    use crate::Scheme;
    use bgpsim_topology::degree::SkewedSpec;
    use bgpsim_topology::generators::skewed_topology;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn net(seed: u64, n: usize) -> Network {
        let mut rng = SmallRng::seed_from_u64(seed);
        let topo = skewed_topology(n, &SkewedSpec::seventy_thirty(), &mut rng).unwrap();
        Network::new(
            topo,
            SimConfig::from_scheme(&Scheme::constant_mrai(0.5), seed),
        )
    }

    #[test]
    fn fail_and_repair_restores_everything() {
        let mut network = net(1, 30);
        let scenario = Scenario::new(vec![
            ScenarioStep::FailRouters(FailureSpec::CenterFraction(0.1)),
            ScenarioStep::ReviveAll,
        ]);
        let stats = scenario.run(&mut network);
        assert_eq!(stats.len(), 2);
        network.assert_routing_consistent();
        for r in network.topology().router_ids() {
            assert!(network.is_alive(r));
            assert_eq!(network.node(r).unwrap().loc_rib().len(), 30);
        }
    }

    #[test]
    fn flapping_region_stays_consistent() {
        let mut network = net(2, 25);
        let stats = Scenario::flapping(0.1, 3).run(&mut network);
        assert_eq!(stats.len(), 6);
        network.assert_routing_consistent();
        // Every failure step withdraws something; every revive announces.
        for (i, s) in stats.iter().enumerate() {
            assert!(s.messages > 0, "step {i} produced no messages");
        }
    }

    #[test]
    fn link_step_keeps_routers_alive() {
        let mut network = net(3, 30);
        let scenario = Scenario::new(vec![ScenarioStep::FailCentralLinks(0.1)]);
        let stats = scenario.run(&mut network);
        assert_eq!(stats.len(), 1);
        network.assert_routing_consistent();
        assert!(network.topology().router_ids().all(|r| network.is_alive(r)));
    }

    #[test]
    fn consecutive_failures_accumulate() {
        let mut network = net(4, 40);
        let scenario = Scenario::new(vec![
            ScenarioStep::FailRouters(FailureSpec::CenterFraction(0.05)),
            ScenarioStep::FailRouters(FailureSpec::CornerFraction(0.05)),
            ScenarioStep::ReviveAll,
        ]);
        let stats = scenario.run(&mut network);
        assert_eq!(stats.len(), 3);
        network.assert_routing_consistent();
        for r in network.topology().router_ids() {
            assert!(network.is_alive(r), "router {r} not revived");
        }
    }

    #[test]
    fn burst_withdraw_step_keeps_routers_alive_and_drops_routes() {
        let mut network = net(5, 25);
        let scenario = Scenario::new(vec![ScenarioStep::BurstWithdraw(
            FailureSpec::CenterFraction(0.2),
        )]);
        let stats = scenario.run(&mut network);
        assert_eq!(stats.len(), 1);
        assert!(stats[0].messages > 0, "the storm must generate updates");
        network.assert_routing_consistent();
        // No router died — only routes did.
        assert!(network.topology().router_ids().all(|r| network.is_alive(r)));
        let gone = network.withdrawn_prefixes().count();
        assert!(gone > 0);
        for r in network.topology().router_ids() {
            assert_eq!(network.node(r).unwrap().loc_rib().len(), 25 - gone);
        }
    }

    #[test]
    fn scenario_serializes() {
        let s = Scenario::flapping(0.1, 2);
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        assert_eq!(back.steps().len(), 4);
    }
}
