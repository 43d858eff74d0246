//! Seeded multi-trial experiments.
//!
//! One [`Experiment`] is a point on a paper figure: a topology family, a
//! scheme, a failure size, and a number of seeded trials. Each trial draws
//! a fresh topology and RNG streams from `(base_seed, trial)`, runs the
//! full pipeline (initial convergence → failure → re-convergence) and the
//! results are aggregated. [`run_all_parallel`] fans a batch of experiment
//! points out over worker threads (scoped threads — trials are
//! independent) and converges each pre-failure network the batch shares
//! only once.

use bgpsim_des::RngStreams;
use bgpsim_topology::degree::SkewedSpec;
use bgpsim_topology::generators::{hierarchical, skewed_topology, HierarchicalParams};
use bgpsim_topology::multias::{generate_multi_as, MultiAsConfig};
use bgpsim_topology::region::FailureSpec;
use bgpsim_topology::{Topology, TopologyError};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub use crate::metrics::Aggregate;
use crate::metrics::RunStats;
use crate::network::{Network, SimConfig};
use crate::scheme::Scheme;

/// A topology family an experiment draws from (one fresh sample per trial).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TopologySpec {
    /// Single-router-per-AS with a skewed degree distribution.
    Skewed {
        /// Number of ASes/routers.
        n: usize,
        /// The degree distribution.
        spec: SkewedSpec,
    },
    /// Multi-router-per-AS ("realistic", §3.1/Fig 13).
    MultiAs(MultiAsConfig),
    /// Engineered Internet-like hierarchy (Tier-1 clique + transit tiers);
    /// the substrate for the routing-policy extension, where valley-free
    /// reachability must be total for a fair comparison.
    Hierarchical(HierarchicalParams),
}

impl TopologySpec {
    /// The paper's default: `n` nodes, 70-30 distribution, average degree
    /// 3.8.
    pub fn seventy_thirty(n: usize) -> TopologySpec {
        TopologySpec::Skewed {
            n,
            spec: SkewedSpec::seventy_thirty(),
        }
    }

    /// `n` nodes with the 50-50 distribution (average degree 3.8).
    pub fn fifty_fifty(n: usize) -> TopologySpec {
        TopologySpec::Skewed {
            n,
            spec: SkewedSpec::fifty_fifty(),
        }
    }

    /// `n` nodes with the 85-15 distribution (average degree 3.8).
    pub fn eighty_five_fifteen(n: usize) -> TopologySpec {
        TopologySpec::Skewed {
            n,
            spec: SkewedSpec::eighty_five_fifteen(),
        }
    }

    /// `n` nodes with the dense 50-50 distribution (average degree 7.6).
    pub fn fifty_fifty_dense(n: usize) -> TopologySpec {
        TopologySpec::Skewed {
            n,
            spec: SkewedSpec::fifty_fifty_dense(),
        }
    }

    /// `n` ASes with the CAIDA-like tiered stub/transit distribution
    /// (average degree ≈ 4.2, power-law transit tail) — the
    /// Internet-scale preset for the 10k–70k-AS memory workloads. See
    /// [`bgpsim_topology::degree::caida_like`].
    pub fn caida_like(n: usize) -> TopologySpec {
        TopologySpec::Skewed {
            n,
            spec: bgpsim_topology::degree::caida_like(n),
        }
    }

    /// The paper's realistic multi-router topology over `num_ases` ASes.
    pub fn realistic(num_ases: usize) -> TopologySpec {
        TopologySpec::MultiAs(MultiAsConfig::realistic(num_ases))
    }

    /// A three-tier Internet-like hierarchy of about `n` nodes.
    pub fn hierarchical(n: usize) -> TopologySpec {
        TopologySpec::Hierarchical(HierarchicalParams::three_tier(n))
    }

    /// Generates one topology sample, or the generator's error when this
    /// draw cannot realise the spec (too few nodes for the degree
    /// distribution, say — the smallest workable size depends on the
    /// family and the seed).
    pub fn try_generate(&self, rng: &mut impl Rng) -> Result<Topology, TopologyError> {
        match self {
            TopologySpec::Skewed { n, spec } => skewed_topology(*n, spec, rng),
            TopologySpec::MultiAs(cfg) => generate_multi_as(cfg, rng),
            TopologySpec::Hierarchical(params) => hierarchical(params, rng),
        }
    }

    /// Generates one topology sample.
    ///
    /// # Panics
    ///
    /// Panics if [`try_generate`](TopologySpec::try_generate) fails.
    pub fn generate(&self, rng: &mut impl Rng) -> Topology {
        self.try_generate(rng)
            .unwrap_or_else(|e| panic!("topology generation failed: {e}"))
    }
}

/// One experiment point: topology family × scheme × failure × trials.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Experiment {
    /// Topology family sampled fresh per trial.
    pub topology: TopologySpec,
    /// The scheme under test.
    pub scheme: Scheme,
    /// What fails.
    pub failure: FailureSpec,
    /// Number of seeded trials.
    pub trials: u32,
    /// Base seed; trial `i` derives all randomness from `(base_seed, i)`.
    pub base_seed: u64,
}

impl Experiment {
    /// Runs all trials sequentially.
    pub fn run(&self) -> Aggregate {
        let runs = (0..self.trials).map(|t| self.run_trial(t)).collect();
        Aggregate::new(runs)
    }

    /// Runs a single trial cold: fresh topology, fresh network, initial
    /// convergence from scratch. The reference the parallel runner's
    /// forked trials are checked against.
    pub fn run_trial(&self, trial: u32) -> RunStats {
        self.run_trial_with_network(trial).0
    }

    /// Like [`run_trial`](Experiment::run_trial), but hands back the
    /// finished network alongside the stats so callers can inspect
    /// post-run instrumentation — notably
    /// [`Network::shard_phase_timings`] for the sharded event loop's
    /// per-phase wall-clock breakdown.
    pub fn run_trial_with_network(&self, trial: u32) -> (RunStats, Network) {
        let mut net = self.build_network(trial);
        let stats = net.run_failure_experiment(&self.failure);
        (stats, net)
    }

    /// Runs a single trial with re-convergence tracing: the network
    /// converges untraced, a memory sink (capacity `trace_capacity`
    /// events, [`DEFAULT_MEMORY_CAPACITY`](crate::trace::DEFAULT_MEMORY_CAPACITY)
    /// when `None`) is attached at failure injection, and the recorded
    /// stream comes back with the stats. Tracing is observation-only, so
    /// `stats` is bit-identical to [`run_trial`](Experiment::run_trial).
    pub fn run_trial_traced(&self, trial: u32, trace_capacity: Option<usize>) -> TracedTrial {
        let mut net = self.build_network(trial);
        net.run_initial_convergence();
        net.inject_failure(&self.failure);
        let capacity = trace_capacity.unwrap_or(crate::trace::DEFAULT_MEMORY_CAPACITY);
        net.set_trace_sink(crate::trace::TraceSink::memory(capacity));
        let stats = net.run_to_quiescence();
        let failure_time = net.failure_time().expect("failure was injected");
        let dropped = net
            .trace_sink()
            .memory_events()
            .map(|m| m.dropped())
            .unwrap_or(0);
        TracedTrial {
            stats,
            failure_time,
            dropped,
            events: net.take_trace_events(),
        }
    }

    /// The topology trial `trial` runs on, drawn from its own seeded
    /// stream. A caller can check every trial's draw this way before
    /// running anything.
    pub fn trial_topology(&self, trial: u32) -> Result<Topology, TopologyError> {
        let streams = RngStreams::new(self.base_seed);
        self.topology
            .try_generate(&mut streams.stream("topology", u64::from(trial)))
    }

    /// Builds the trial's network — its topology draw
    /// ([`trial_topology`](Experiment::trial_topology)) and its simulation
    /// seed, with the scheme's configuration applied — but runs nothing
    /// yet.
    ///
    /// # Panics
    ///
    /// Panics if the trial's topology draw fails.
    pub fn build_network(&self, trial: u32) -> Network {
        let topo = self
            .trial_topology(trial)
            .unwrap_or_else(|e| panic!("topology generation failed: {e}"));
        let streams = RngStreams::new(self.base_seed);
        let sim_seed: u64 = streams.stream("sim-seed", u64::from(trial)).gen();
        let mut cfg = SimConfig::from_scheme(&self.scheme, sim_seed);
        if let TopologySpec::Hierarchical(params) = &self.topology {
            // Hierarchical topologies carry ground-truth tiers for policy
            // relationships (no inference needed).
            cfg.policy_tiers = Some(params.tier_vector());
        }
        Network::new(topo, cfg)
    }
}

/// A traced trial: end-of-run stats plus the structured trace of the
/// re-convergence (see [`Experiment::run_trial_traced`]).
#[derive(Clone, Debug)]
pub struct TracedTrial {
    /// The run's statistics, bit-identical to an untraced trial.
    pub stats: RunStats,
    /// When the failure took effect — the `t0` timelines measure from.
    pub failure_time: bgpsim_des::SimTime,
    /// Events evicted by the memory ring (0 = the trace is complete).
    pub dropped: u64,
    /// The recorded re-convergence events, in global order.
    pub events: Vec<crate::trace::TraceEvent>,
}

impl TracedTrial {
    /// The analysis pass over this trial's events.
    pub fn timeline(&self) -> crate::trace::Timeline {
        crate::trace::Timeline::from_events(&self.events)
    }
}

/// The default worker count [`run_all_parallel`] uses when `threads` is
/// `None`: available parallelism, falling back to 4.
fn default_thread_count() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(4)
        .max(1)
}

/// Wall-clock timing of one trial inside a parallel batch run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrialTiming {
    /// Index of the experiment point within the batch.
    pub point: usize,
    /// Trial number within the point.
    pub trial: u32,
    /// Wall-clock time the trial took on its worker thread, in seconds.
    pub wall_secs: f64,
}

/// What a parallel batch run reports besides the aggregates.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ParallelReport {
    /// Worker threads actually used (requested count capped by the number
    /// of tasks in the batch).
    pub threads: usize,
    /// Per-trial wall-clock timings, in `(point, trial)` order.
    pub timings: Vec<TrialTiming>,
    /// How the batch's trials shared converged networks; always `Some`
    /// from [`run_all_parallel_timed`].
    pub warm: Option<WarmStats>,
}

/// How a parallel batch run shared converged pre-failure networks
/// (*prototypes*) between its trials, reported through
/// [`ParallelReport::warm`] and the benchmark's `warm.*` metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct WarmStats {
    /// Prototypes built (topology drawn, initial convergence run).
    pub builds: u64,
    /// Networks handed to trials, one per trial: a clone of its
    /// prototype, or the prototype itself for its last trial.
    pub forks: u64,
    /// Trials whose prototype was already built.
    pub hits: u64,
    /// Trials that built their prototype (equals `builds`).
    pub misses: u64,
    /// Wall-clock seconds spent building prototypes (topology generation +
    /// initial convergence), summed across workers.
    pub build_wall_secs: f64,
    /// Wall-clock seconds spent forking, summed across workers.
    pub fork_wall_secs: f64,
}

/// Runs a batch of experiment points, fanning individual trials out over
/// `threads` workers (defaults to available parallelism). Results are in
/// the same order as `points` and bit-identical to [`Experiment::run`].
pub fn run_all_parallel(points: &[Experiment], threads: Option<usize>) -> Vec<Aggregate> {
    run_all_parallel_timed(points, threads).0
}

/// [`run_all_parallel`], additionally reporting the worker-thread count,
/// per-trial wall-clock timings and prototype sharing (consumed by the
/// benchmark's `experiment.*` and `warm.*` metrics).
///
/// A figure sweep's points differ only in what fails, so their trials
/// converge the same pre-failure network. Each `(point, trial)` task
/// therefore names its prototype: the first task with the same topology
/// family, scheme, base seed and trial. The first worker to reach a
/// prototype builds and converges it, later tasks clone it, and the last
/// one moves it out, so a converged network is freed as soon as its last
/// trial starts. A clone continues bit-identically to the original, and
/// failure injection draws fresh randomness from the simulation seed, so
/// every trial's stats equal a cold [`Experiment::run_trial`].
pub fn run_all_parallel_timed(
    points: &[Experiment],
    threads: Option<usize>,
) -> (Vec<Aggregate>, ParallelReport) {
    let threads = threads.unwrap_or_else(default_thread_count).max(1);
    let tasks: Vec<(usize, u32)> = points
        .iter()
        .enumerate()
        .flat_map(|(i, p)| (0..p.trials).map(move |t| (i, t)))
        .collect();
    let converge_alike = |(p, t): (usize, u32), (q, u): (usize, u32)| {
        let (a, b) = (&points[p], &points[q]);
        t == u && a.base_seed == b.base_seed && a.topology == b.topology && a.scheme == b.scheme
    };
    let prototype: Vec<usize> = (0..tasks.len())
        .map(|i| {
            tasks[..i]
                .iter()
                .position(|&earlier| converge_alike(tasks[i], earlier))
                .unwrap_or(i)
        })
        .collect();
    // One slot per task; a prototype's slot holds its network once built
    // and the number of its tasks still to fork it.
    let mut forks_left = vec![0usize; tasks.len()];
    for &p in &prototype {
        forks_left[p] += 1;
    }
    let slots: Vec<Mutex<(Option<Network>, usize)>> = forks_left
        .into_iter()
        .map(|n| Mutex::new((None, n)))
        .collect();
    let results: Vec<OnceLock<(RunStats, f64)>> = tasks.iter().map(|_| OnceLock::new()).collect();
    let warm = Mutex::new(WarmStats::default());
    let next = AtomicUsize::new(0);

    let workers = threads.min(tasks.len().max(1));
    // Trial workers are plain scoped threads: there are few of them and
    // they live for the whole batch, so spawn cost is noise. Each sharded
    // pump starts a thread crew of its own; pumps share no threads.
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(point, trial)) = tasks.get(i) else {
                    break;
                };
                let exp = &points[point];
                let started = Instant::now();
                let mut net = fork(&slots[prototype[i]], &warm, || {
                    let mut net = exp.build_network(trial);
                    net.run_initial_convergence();
                    net
                });
                net.inject_failure(&exp.failure);
                let stats = net.run_to_quiescence();
                results[i]
                    .set((stats, started.elapsed().as_secs_f64()))
                    .expect("each task runs once");
            });
        }
    });

    let runs: Vec<(RunStats, f64)> = results
        .into_iter()
        .map(|r| r.into_inner().expect("every trial ran"))
        .collect();
    let timings = tasks
        .iter()
        .zip(&runs)
        .map(|(&(point, trial), &(_, wall_secs))| TrialTiming {
            point,
            trial,
            wall_secs,
        })
        .collect();
    let mut stats = runs.into_iter().map(|(s, _)| s);
    let aggregates = points
        .iter()
        .map(|p| Aggregate::new(stats.by_ref().take(p.trials as usize).collect()))
        .collect();
    (
        aggregates,
        ParallelReport {
            threads: workers,
            timings,
            warm: Some(warm.into_inner().expect("no poisoned trials")),
        },
    )
}

/// Hands a task its network from its prototype's slot: the first caller
/// builds the prototype while later callers wait on the lock, then every
/// caller but the last takes a clone and the last takes the prototype.
fn fork(
    slot: &Mutex<(Option<Network>, usize)>,
    warm: &Mutex<WarmStats>,
    build: impl FnOnce() -> Network,
) -> Network {
    let mut slot = slot.lock().expect("no poisoned prototypes");
    let (prototype, forks_left) = &mut *slot;
    let started = Instant::now();
    let built = prototype.is_none();
    if built {
        *prototype = Some(build());
    }
    let build_secs = started.elapsed().as_secs_f64();
    let started = Instant::now();
    *forks_left -= 1;
    let net = if *forks_left == 0 {
        prototype.take()
    } else {
        prototype.clone()
    }
    .expect("prototype built above");
    let fork_secs = started.elapsed().as_secs_f64();
    drop(slot);
    let mut warm = warm.lock().expect("no poisoned trials");
    warm.forks += 1;
    warm.fork_wall_secs += fork_secs;
    if built {
        warm.builds += 1;
        warm.misses += 1;
        warm.build_wall_secs += build_secs;
    } else {
        warm.hits += 1;
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_experiment(seed: u64) -> Experiment {
        Experiment {
            topology: TopologySpec::seventy_thirty(20),
            scheme: Scheme::constant_mrai(0.5),
            failure: FailureSpec::CenterFraction(0.1),
            trials: 2,
            base_seed: seed,
        }
    }

    #[test]
    fn sequential_run_aggregates_trials() {
        let agg = tiny_experiment(1).run();
        assert_eq!(agg.trials(), 2);
        assert!(agg.mean_delay_secs() > 0.0);
        assert!(agg.mean_messages() > 0.0);
    }

    #[test]
    fn traced_trial_matches_untraced_and_explains_delay() {
        let exp = tiny_experiment(5);
        let traced = exp.run_trial_traced(0, None);
        assert_eq!(
            traced.stats,
            exp.run_trial(0),
            "tracing must not perturb the simulation"
        );
        assert_eq!(traced.dropped, 0);
        assert!(!traced.events.is_empty());
        let tl = traced.timeline();
        // The last per-destination settle the timeline reconstructs is the
        // last best-path change; the convergence delay additionally counts
        // trailing non-decision activity (final withdrawals draining), so
        // it bounds the settle time from above.
        let settle = tl.last_settle_since(traced.failure_time);
        assert!(settle <= traced.stats.convergence_delay);
        assert!(tl.sent > 0 && tl.received > 0 && tl.processed > 0);
    }

    #[test]
    fn batching_installs_fewer_transient_routes_than_fifo() {
        // The paper's §5 claim, read off traced trials: deleting stale
        // updates keeps invalid intermediate routes from being installed.
        let transients = |scheme: Scheme| -> Vec<u64> {
            crate::figures::FAILURE_FRACTIONS
                .iter()
                .map(|&f| {
                    let exp = Experiment {
                        topology: TopologySpec::seventy_thirty(24),
                        scheme: scheme.clone(),
                        failure: FailureSpec::CenterFraction(f),
                        trials: 1,
                        base_seed: 3,
                    };
                    let traced = exp.run_trial_traced(0, None);
                    assert_eq!(traced.dropped, 0);
                    traced.timeline().transient_routes()
                })
                .collect()
        };
        let batching = transients(Scheme::batching(0.5));
        let fifo = transients(Scheme::constant_mrai(0.5));
        assert!(
            batching.iter().zip(&fifo).all(|(b, f)| b <= f),
            "batching {batching:?} vs FIFO {fifo:?}"
        );
        assert!(batching.iter().sum::<u64>() < fifo.iter().sum::<u64>());
    }

    #[test]
    fn trials_are_reproducible() {
        let a = tiny_experiment(2).run_trial(0);
        let b = tiny_experiment(2).run_trial(0);
        assert_eq!(a, b);
        let c = tiny_experiment(2).run_trial(1);
        assert_ne!(a, c, "different trials use different randomness");
    }

    #[test]
    fn parallel_matches_sequential() {
        // The parallel runner forks shared prototypes, the sequential
        // reference runs every trial cold.
        let points = vec![tiny_experiment(3), tiny_experiment(4)];
        let seq: Vec<Aggregate> = points.iter().map(Experiment::run).collect();
        let par = run_all_parallel(&points, Some(3));
        assert_eq!(seq, par);
    }

    #[test]
    fn warm_trial_is_bit_identical_to_cold() {
        // A fig01-shaped batch: 3 schemes x 6 failure sizes x 2 trials.
        // Points differing only in failure size share a prototype per
        // trial; a different scheme or trial number does not.
        let mut points = Vec::new();
        for mrai in [0.5, 1.25, 2.25] {
            for fraction in crate::figures::FAILURE_FRACTIONS {
                let mut p = tiny_experiment(5);
                p.scheme = Scheme::constant_mrai(mrai);
                p.failure = FailureSpec::CenterFraction(fraction);
                points.push(p);
            }
        }
        let (par, report) = run_all_parallel_timed(&points, Some(2));
        let seq: Vec<Aggregate> = points.iter().map(Experiment::run).collect();
        assert_eq!(par, seq);
        let warm = report.warm.expect("the runner reports prototype sharing");
        assert_eq!(
            (warm.builds, warm.misses, warm.hits, warm.forks),
            (6, 6, 30, 36)
        );
        assert!(warm.build_wall_secs > 0.0);
        assert_eq!(report.timings.len(), 36);
    }

    #[test]
    fn parallel_handles_empty_batch() {
        assert!(run_all_parallel(&[], Some(2)).is_empty());
    }

    #[test]
    fn topology_presets_generate() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        for spec in [
            TopologySpec::seventy_thirty(30),
            TopologySpec::fifty_fifty(30),
            TopologySpec::eighty_five_fifteen(40),
            TopologySpec::fifty_fifty_dense(30),
            TopologySpec::realistic(12),
            TopologySpec::hierarchical(40),
        ] {
            let topo = spec.generate(&mut rng);
            assert!(topo.is_connected());
        }
    }
}
