//! Property test: the parallel runner's forked trials are bit-identical to
//! cold runs.
//!
//! The batch runner (`run_all_parallel_timed`) converges each pre-failure
//! network that several points share once, then hands every trial a clone
//! of it, or the network itself to its last trial, instead of re-running
//! initial convergence per figure point. Its contract is exact
//! determinism: for any topology size and seed, and for each of the
//! paper's three scheme families (constant MRAI, batching, dynamic MRAI),
//! every trial's `RunStats` must equal a cold `Experiment::run_trial`
//! field for field. One batch of three failure sizes per scheme takes all
//! three paths: build, clone and move.

use bgpsim::experiment::{run_all_parallel_timed, Experiment, TopologySpec};
use bgpsim::scheme::Scheme;
use bgpsim_topology::region::FailureSpec;
use proptest::prelude::*;

fn schemes() -> [Scheme; 3] {
    [
        Scheme::constant_mrai(0.5),
        Scheme::batching(0.5),
        Scheme::dynamic_default(),
    ]
}

proptest! {
    // Each case runs 3 schemes × 3 failure sizes through the runner and
    // again cold; keep the count low and the networks small.
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn warm_forks_are_bit_identical_across_schemes(
        nodes in 15usize..30,
        base_seed in 0u64..10_000,
    ) {
        let points: Vec<Experiment> = schemes()
            .into_iter()
            .flat_map(|scheme| {
                [0.05, 0.10, 0.20].map(|fraction| Experiment {
                    topology: TopologySpec::seventy_thirty(nodes),
                    scheme: scheme.clone(),
                    failure: FailureSpec::CenterFraction(fraction),
                    trials: 1,
                    base_seed,
                })
            })
            .collect();
        let (aggregates, report) = run_all_parallel_timed(&points, Some(2));
        for (exp, agg) in points.iter().zip(&aggregates) {
            prop_assert_eq!(
                &agg.runs,
                &vec![exp.run_trial(0)],
                "forked trial diverged: {} at {:?}",
                &exp.scheme.name,
                exp.failure
            );
        }
        let warm = report.warm.expect("the runner reports prototype sharing");
        prop_assert_eq!((warm.builds, warm.hits, warm.forks), (3, 6, 9));
    }
}
