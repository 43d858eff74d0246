//! Seeded multi-trial experiments.
//!
//! One [`Experiment`] is a point on a paper figure: a topology family, a
//! scheme, a failure size, and a number of seeded trials. Each trial draws
//! a fresh topology and RNG streams from `(base_seed, trial)`, runs the
//! full pipeline (initial convergence → failure → re-convergence) and the
//! results are aggregated. [`run_all_parallel`] fans a batch of experiment
//! points out over worker threads (crossbeam scoped threads — trials are
//! independent).

use bgpsim_des::RngStreams;
use bgpsim_topology::degree::{DegreeSpec, SkewedSpec};
use bgpsim_topology::generators::{hierarchical, topology_from_spec, HierarchicalParams};
use bgpsim_topology::multias::{generate_multi_as, MultiAsConfig};
use bgpsim_topology::region::FailureSpec;
use bgpsim_topology::Topology;
use rand::Rng;
use serde::{Deserialize, Serialize};

pub use crate::metrics::Aggregate;
use crate::metrics::RunStats;
use crate::network::{Network, SimConfig};
use crate::scheme::Scheme;
use crate::warm::{SnapshotCache, SnapshotKey, WarmStats};

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
    /// Single-router-per-AS with any degree distribution.
    FromDegrees {
        /// Number of ASes/routers.
        n: usize,
        /// The degree distribution.
        spec: DegreeSpec,
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

    /// Generates one topology sample.
    ///
    /// # Panics
    ///
    /// Panics if generation fails repeatedly (pathological specs).
    pub fn generate(&self, rng: &mut impl Rng) -> Topology {
        match self {
            TopologySpec::Skewed { n, spec } => {
                topology_from_spec(*n, &DegreeSpec::Skewed(spec.clone()), rng)
                    .expect("skewed topology generation failed")
            }
            TopologySpec::FromDegrees { n, spec } => {
                topology_from_spec(*n, spec, rng).expect("topology generation failed")
            }
            TopologySpec::MultiAs(cfg) => {
                generate_multi_as(cfg, rng).expect("multi-AS topology generation failed")
            }
            TopologySpec::Hierarchical(params) => {
                hierarchical(params, rng).expect("hierarchical topology generation failed")
            }
        }
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
    /// convergence from scratch. The reference the warm path is checked
    /// against.
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

    /// Runs a single trial warm-started from `cache`: the converged
    /// pre-failure state is forked from a shared snapshot (built on first
    /// use), so only failure injection and re-convergence run per point.
    /// Produces bit-identical [`RunStats`] to [`run_trial`](Experiment::run_trial) —
    /// the converged state depends on the snapshot key alone, forking
    /// clones it exactly, and failure injection derives its randomness
    /// freshly from the simulation seed.
    pub fn run_trial_warm(&self, trial: u32, cache: &SnapshotCache) -> RunStats {
        let mut net = cache.fork_or_build(self.snapshot_key(trial), || {
            let mut net = self.build_network(trial);
            net.run_initial_convergence();
            net
        });
        net.inject_failure(&self.failure);
        net.run_to_quiescence()
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

    /// Builds the trial's network (topology sampled, config applied) but
    /// runs nothing yet.
    fn build_network(&self, trial: u32) -> Network {
        let streams = RngStreams::new(self.base_seed);
        let mut topo_rng = streams.stream("topology", u64::from(trial));
        let topo = self.topology.generate(&mut topo_rng);
        let sim_seed: u64 = streams.stream("sim-seed", u64::from(trial)).gen();
        let mut cfg = SimConfig::from_scheme(&self.scheme, sim_seed);
        if let TopologySpec::Hierarchical(params) = &self.topology {
            // Hierarchical topologies carry ground-truth tiers for policy
            // relationships (no inference needed).
            cfg.policy_tiers = Some(params.tier_vector());
        }
        Network::new(topo, cfg)
    }

    /// The snapshot-cache key identifying this point's converged
    /// pre-failure state: everything about the trial *except* the failure.
    pub fn snapshot_key(&self, trial: u32) -> SnapshotKey {
        let prototype = serde_json::to_string(&(&self.topology, &self.scheme))
            .expect("topology/scheme specs serialize");
        SnapshotKey {
            prototype,
            base_seed: self.base_seed,
            trial,
        }
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
pub fn default_thread_count() -> usize {
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
    /// Worker threads the caller asked for (the default-thread-count
    /// resolution when the caller passed `None`). Recording both sides
    /// keeps benchmark artifacts honest on machines with fewer cores than
    /// the bench requests.
    pub threads_requested: usize,
    /// What `std::thread::available_parallelism()` reported at run time —
    /// the hardware ceiling on real concurrency for this batch.
    pub parallelism_available: usize,
    /// Per-trial wall-clock timings, in `(point, trial)` order.
    pub timings: Vec<TrialTiming>,
    /// Warm-start snapshot-cache effectiveness (`None` for cold runs).
    pub warm: Option<WarmStats>,
}

/// Runs a batch of experiment points, fanning individual trials out over
/// `threads` workers (defaults to available parallelism). Results are in
/// the same order as `points`.
///
/// Trials are warm-started: points sharing a `(topology, scheme, seed,
/// trial)` key — a figure sweep's points differ only in failure size —
/// fork one shared converged prototype instead of re-converging from
/// cold. Results are bit-identical to cold runs (see [`crate::warm`]).
pub fn run_all_parallel(points: &[Experiment], threads: Option<usize>) -> Vec<Aggregate> {
    run_all_parallel_timed(points, threads).0
}

/// [`run_all_parallel`], additionally reporting the worker-thread count,
/// per-trial wall-clock timings and snapshot-cache counters (consumed by
/// the benchmark's `experiment.*` and `warm.*` metrics).
pub fn run_all_parallel_timed(
    points: &[Experiment],
    threads: Option<usize>,
) -> (Vec<Aggregate>, ParallelReport) {
    run_all_parallel_inner(points, threads, true)
}

/// [`run_all_parallel_timed`] without the warm-start snapshot cache:
/// every trial re-converges from cold. Kept as the reference path the
/// warm-start tests compare against.
pub fn run_all_parallel_timed_cold(
    points: &[Experiment],
    threads: Option<usize>,
) -> (Vec<Aggregate>, ParallelReport) {
    run_all_parallel_inner(points, threads, false)
}

fn run_all_parallel_inner(
    points: &[Experiment],
    threads: Option<usize>,
    warm: bool,
) -> (Vec<Aggregate>, ParallelReport) {
    let threads = threads.unwrap_or_else(default_thread_count).max(1);
    let cache = warm.then(SnapshotCache::new);
    if let Some(cache) = &cache {
        // Declare the batch's full demand up front: the cache then hands
        // the prototype itself to each key's last trial (no clone) and
        // evicts the entry, so converged networks are released as the
        // sweep progresses instead of staying pinned until the end.
        for p in points {
            for trial in 0..p.trials {
                cache.expect_forks(p.snapshot_key(trial), 1);
            }
        }
    }

    // Flatten to (point index, trial) tasks.
    let tasks: Vec<(usize, u32)> = points
        .iter()
        .enumerate()
        .flat_map(|(i, p)| (0..p.trials).map(move |t| (i, t)))
        .collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    // One slot per trial: the run's stats plus its wall-clock seconds.
    type TrialSlots = std::sync::Mutex<Vec<Option<(RunStats, f64)>>>;
    let results: Vec<TrialSlots> = points
        .iter()
        .map(|p| std::sync::Mutex::new(vec![None; p.trials as usize]))
        .collect();

    let workers = threads.min(tasks.len().max(1));
    // Trial workers are plain scoped threads: there are few of them and
    // they live for the whole batch, so spawn cost is noise. The epoch
    // fan-out inside each trial's sharded pump is what runs on the
    // process-wide parked pool (`crate::pool::global`) — one pool,
    // reused across every epoch of every trial in the batch, so sweeps
    // never pay a per-trial thread-pool setup. Concurrent pumps open
    // concurrent scopes on that shared pool; its helping barrier keeps
    // them from starving each other even when workers < pumps.
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&(point_idx, trial)) = tasks.get(i) else {
                    break;
                };
                let started = std::time::Instant::now();
                let stats = match &cache {
                    Some(cache) => points[point_idx].run_trial_warm(trial, cache),
                    None => points[point_idx].run_trial(trial),
                };
                let wall_secs = started.elapsed().as_secs_f64();
                results[point_idx].lock().expect("no poisoned trials")[trial as usize] =
                    Some((stats, wall_secs));
            });
        }
    })
    .expect("experiment worker panicked");

    let mut timings = Vec::with_capacity(tasks.len());
    let aggregates = results
        .into_iter()
        .enumerate()
        .map(|(point, m)| {
            let runs = m
                .into_inner()
                .expect("no poisoned trials")
                .into_iter()
                .enumerate()
                .map(|(trial, r)| {
                    let (stats, wall_secs) = r.expect("every trial ran");
                    timings.push(TrialTiming {
                        point,
                        trial: trial as u32,
                        wall_secs,
                    });
                    stats
                })
                .collect();
            Aggregate::new(runs)
        })
        .collect();
    (
        aggregates,
        ParallelReport {
            threads: workers,
            threads_requested: threads,
            parallelism_available: std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1),
            timings,
            warm: cache.map(|c| c.stats()),
        },
    )
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
    fn trials_are_reproducible() {
        let a = tiny_experiment(2).run_trial(0);
        let b = tiny_experiment(2).run_trial(0);
        assert_eq!(a, b);
        let c = tiny_experiment(2).run_trial(1);
        assert_ne!(a, c, "different trials use different randomness");
    }

    #[test]
    fn parallel_matches_sequential() {
        // The parallel runner is warm-started, the sequential reference is
        // cold — this doubles as the warm == cold determinism lock.
        let points = vec![tiny_experiment(3), tiny_experiment(4)];
        let seq: Vec<Aggregate> = points.iter().map(Experiment::run).collect();
        let par = run_all_parallel(&points, Some(3));
        assert_eq!(seq, par);
    }

    #[test]
    fn warm_trial_is_bit_identical_to_cold() {
        let mut sweep = Vec::new();
        for fraction in [0.05, 0.1, 0.2] {
            let mut p = tiny_experiment(5);
            p.failure = FailureSpec::CenterFraction(fraction);
            sweep.push(p);
        }
        let cache = SnapshotCache::new();
        for p in &sweep {
            for trial in 0..p.trials {
                assert_eq!(p.run_trial_warm(trial, &cache), p.run_trial(trial));
            }
        }
        // All points share (topology, scheme, seed): one snapshot per trial.
        let stats = cache.stats();
        assert_eq!(stats.builds, 2);
        assert_eq!(stats.forks, 6);
        assert_eq!(stats.hits, 4);
    }

    #[test]
    fn snapshot_key_ignores_failure_only() {
        let a = tiny_experiment(6);
        let mut b = tiny_experiment(6);
        b.failure = FailureSpec::CenterFraction(0.2);
        assert_eq!(a.snapshot_key(0), b.snapshot_key(0));
        assert_ne!(a.snapshot_key(0), a.snapshot_key(1));
        let mut c = tiny_experiment(6);
        c.scheme = Scheme::batching(0.5);
        assert_ne!(a.snapshot_key(0), c.snapshot_key(0));
    }

    #[test]
    fn cold_parallel_reports_no_warm_stats() {
        let points = vec![tiny_experiment(8)];
        let (warm_agg, warm_report) = run_all_parallel_timed(&points, Some(2));
        let (cold_agg, cold_report) = run_all_parallel_timed_cold(&points, Some(2));
        assert_eq!(warm_agg, cold_agg);
        assert!(cold_report.warm.is_none());
        let stats = warm_report.warm.expect("warm runs report cache stats");
        assert_eq!(stats.forks, 2);
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
