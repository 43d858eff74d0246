//! The workloads and one trial of each, driven through public API only.
//!
//! A trial simulates every network of the workload — fixed topologies,
//! protocol timing from the run's seed — and checks each one outside the
//! timed section.
//! `shards`, `commit_streams` and `fel` are set explicitly in `SimConfig`,
//! so the `BGPSIM_*` environment knobs are never consulted for the
//! networks the benchmark builds itself.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use bgpsim::experiment::{run_all_parallel_timed, Experiment, TopologySpec};
use bgpsim::figures::FAILURE_FRACTIONS;
use bgpsim::network::{FullTableSpec, MemoryFootprint, Network, SimConfig};
use bgpsim::{Scheme, ShardPhaseTimings, TraceSink};
use bgpsim_bgp::NodeEvent;
use bgpsim_des::{FelKind, RngStreams};
use bgpsim_topology::region::FailureSpec;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::check::{loc_rib_digest, Outcome};
use crate::micro;
use crate::spans::{timed, Span, Spans};

/// Most threads (or shards) any workload loads the machine with.
pub const MAX_THREADS: usize = 2;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's figure sweep: three 120-node topologies × three schemes
    /// × six failure sizes, each point cold, on up to two threads.
    Sweep120,
    /// 40 nodes with an Internet-like 5,000-prefix table and a burst
    /// withdrawal from the central 10% of origins, serial.
    FullTable5k,
    /// 512 CAIDA-like ASes, a 10% centre failure, 2 shards × 2 commit
    /// streams; checked against the serial run of the same inputs.
    Caida512TwoShard,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Sweep120,
        Workload::FullTable5k,
        Workload::Caida512TwoShard,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep120 => "sweep120",
            Workload::FullTable5k => "fulltable5k",
            Workload::Caida512TwoShard => "caida512-2shard",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seeds of the workload's fixed topologies. The run's seed varies
    /// the protocol timing — MRAI jitter, processing delays, origination
    /// times — but not the topology: across 40 drawn 120-node topologies
    /// the sweep's event count ranged 5.5M–28M, so a drawn topology would
    /// swing a run's cost far beyond any regression bound. The sweep uses
    /// the three base seeds whose sweeps came closest to that screen's
    /// median (10.9M events); three sweeps per trial also average out the
    /// seed-to-seed swing of path hunting on any one topology. 2006 is
    /// the figures' base seed.
    pub fn topology_seeds(self) -> &'static [u64] {
        match self {
            Workload::Sweep120 => &[6, 36, 27],
            Workload::FullTable5k | Workload::Caida512TwoShard => &[2006],
        }
    }

    /// Whether the workload runs sharded (and so has a serial reference).
    pub fn sharded(self) -> bool {
        self == Workload::Caida512TwoShard
    }

    /// The networks one trial runs. `serial` forces one shard — the
    /// reference run of the sharded workload.
    pub fn points(self, size: &Size, seed: u64, serial: bool) -> Vec<Point> {
        let point = |topology_seed, topology, scheme, fraction, burst, shards| Point {
            experiment: Experiment {
                topology,
                scheme,
                failure: FailureSpec::CenterFraction(fraction),
                trials: 1,
                base_seed: seed,
            },
            burst,
            shards: if serial { 1 } else { shards },
            topology_seed,
        };
        match self {
            Workload::Sweep120 => {
                let mut points = Vec::new();
                for &topology_seed in self.topology_seeds() {
                    for scheme in [
                        Scheme::constant_mrai(0.5),
                        Scheme::batching(0.5),
                        Scheme::dynamic_default(),
                    ] {
                        for f in FAILURE_FRACTIONS {
                            points.push(point(
                                topology_seed,
                                TopologySpec::seventy_thirty(size.sweep_nodes),
                                scheme.clone(),
                                f,
                                false,
                                1,
                            ));
                        }
                    }
                }
                points
            }
            Workload::FullTable5k => vec![point(
                self.topology_seeds()[0],
                TopologySpec::seventy_thirty(size.table_nodes),
                Scheme::batching(0.5)
                    .with_full_table(FullTableSpec::internet_like(size.table_prefixes)),
                0.10,
                true,
                1,
            )],
            Workload::Caida512TwoShard => vec![point(
                self.topology_seeds()[0],
                TopologySpec::caida_like(size.caida_nodes),
                Scheme::batching(0.5),
                0.10,
                false,
                MAX_THREADS,
            )],
        }
    }
}

/// Problem sizes: [`Size::FULL`] is the benchmark, [`Size::SMOKE`] keeps
/// the self-tests fast.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Size {
    /// Nodes of the sweep topology.
    pub sweep_nodes: usize,
    /// Nodes of the full-table topology.
    pub table_nodes: usize,
    /// Prefixes of the full table.
    pub table_prefixes: u32,
    /// ASes of the CAIDA-like topology.
    pub caida_nodes: usize,
    /// Timed stimuli per table size in the single-node probe.
    pub node_ops: usize,
    /// Pending events the FEL hold loop keeps.
    pub hold_depth: usize,
    /// Timed hold operations.
    pub hold_ops: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub const FULL: Size = Size {
        sweep_nodes: 120,
        table_nodes: 40,
        table_prefixes: 5000,
        caida_nodes: 512,
        node_ops: 200_000,
        hold_depth: 4096,
        hold_ops: 2_000_000,
    };

    /// Sizes small enough for the self-tests.
    pub const SMOKE: Size = Size {
        sweep_nodes: 20,
        table_nodes: 12,
        table_prefixes: 300,
        caida_nodes: 80,
        node_ops: 2_000,
        hold_depth: 256,
        hold_ops: 10_000,
    };
}

/// One network of a workload: an experiment point (one trial), whether
/// its failure is a burst withdrawal, and its shard count.
#[derive(Clone, Debug)]
pub struct Point {
    /// Topology, scheme, failure region and seed.
    pub experiment: Experiment,
    /// Withdraw the region's prefixes instead of failing its routers.
    pub burst: bool,
    /// Shards (= commit streams) of the event loop.
    pub shards: usize,
    /// Seed of the topology draw (see [`Workload::topology_seeds`]).
    pub topology_seed: u64,
}

/// The engine configuration a trial actually ran with.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Trial worker threads of the experiment runner (1 outside the sweep).
    pub threads: usize,
    /// Shards of the event loop.
    pub shards: usize,
    /// Commit streams of the sharded epoch commit.
    pub commit_streams: usize,
    /// Future-event-list backend.
    pub fel: String,
}

/// Everything one trial reports. Timings are wall-clock seconds.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TrialOut {
    /// One outcome per network, in point order.
    pub outcomes: Vec<Outcome>,
    /// Checks that failed inside the trial (runner vs cold replica).
    pub errors: Vec<String>,
    /// The timed section.
    pub wall_s: f64,
    /// Topology generation through initial convergence, summed over points.
    pub setup_s: f64,
    /// `run_to_quiescence` after the failure, summed over points.
    pub reconverge_s: f64,
    /// Post-failure events, summed over points.
    pub events: u64,
    /// `VmHWM` at the end of the timed section.
    pub peak_rss_kb: u64,
    /// Threads, shards, streams and FEL backend actually used.
    pub config: RunConfig,
    /// Raw per-layer values (ratios are derived by `report`).
    pub layers: BTreeMap<String, f64>,
    /// Spans of a traced trial (empty otherwise).
    pub spans: Vec<Span>,
}

/// Peak resident set size of this process in kB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Worker threads for this machine: at most [`MAX_THREADS`].
pub fn thread_count() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
        .clamp(1, MAX_THREADS)
}

/// Trace events recorded after the failure, by kind.
#[derive(Clone, Copy, Debug, Default)]
struct TraceCounts {
    events: u64,
    dropped: u64,
    decisions: u64,
    best_changed: u64,
    mrai_started: u64,
    mrai_expired: u64,
}

/// What one network did.
struct PointRun {
    outcome: Outcome,
    generate_s: f64,
    new_s: f64,
    converge_s: f64,
    inject_s: f64,
    reconverge_s: f64,
    validate_s: f64,
    footprint: MemoryFootprint,
    shard: ShardPhaseTimings,
    trace: Option<TraceCounts>,
    config: RunConfig,
}

/// Memory-sink capacity of traced runs: far above any workload's
/// post-failure stream, so nothing is dropped.
const TRACE_CAPACITY: usize = 1 << 28;

/// Builds, converges, fails and re-converges one network the way
/// `Experiment` does for trial 0, except that the topology comes from the
/// point's topology seed. With `trace`, a memory sink records the
/// re-convergence. The digest is left for the check in [`run_points`].
fn simulate(
    p: &Point,
    trace: bool,
    spans: Option<&Spans>,
    parent: Option<u64>,
) -> (Network, PointRun) {
    let exp = &p.experiment;
    let (topo, generate_s) = timed(spans, parent, "topology.generate", |_| {
        let mut rng = RngStreams::new(p.topology_seed).stream("topology", 0);
        exp.topology.generate(&mut rng)
    });
    let sim_seed = RngStreams::new(exp.base_seed).stream("sim-seed", 0).gen();
    let mut cfg = SimConfig::from_scheme(&exp.scheme, sim_seed);
    cfg.shards = Some(p.shards);
    cfg.commit_streams = Some(p.shards);
    cfg.fel = Some(FelKind::default());
    let (mut net, new_s) = timed(spans, parent, "network.new", |_| Network::new(topo, cfg));
    let (_, converge_s) = timed(spans, parent, "network.run_initial_convergence", |_| {
        net.run_initial_convergence()
    });
    let (footprint, _) = timed(spans, parent, "network.memory_footprint", |_| {
        net.memory_footprint()
    });
    let before = net.shard_phase_timings();
    let inject_name = if p.burst {
        "network.inject_burst_withdrawal"
    } else {
        "network.inject_failure"
    };
    let (_, inject_s) = timed(spans, parent, inject_name, |_| {
        if p.burst {
            net.inject_burst_withdrawal(&exp.failure);
        } else {
            net.inject_failure(&exp.failure);
        }
    });
    if trace {
        net.set_trace_sink(TraceSink::memory(TRACE_CAPACITY));
    }
    let (stats, reconverge_s) = timed(spans, parent, "network.run_to_quiescence", |_| {
        net.run_to_quiescence()
    });
    let (after, _) = timed(spans, parent, "network.shard_phase_timings", |_| {
        net.shard_phase_timings()
    });
    let (trace, _) = timed(spans, parent, "trace.count", |_| {
        trace.then(|| count_trace(&mut net))
    });
    let run = PointRun {
        outcome: Outcome { stats, digest: 0 },
        generate_s,
        new_s,
        converge_s,
        inject_s,
        reconverge_s,
        validate_s: 0.0,
        footprint,
        shard: phase_delta(&before, &after),
        trace,
        config: RunConfig {
            threads: 1,
            shards: net.shard_count(),
            commit_streams: net.commit_stream_count(),
            fel: net.fel_kind().name().to_string(),
        },
    };
    (net, run)
}

/// Counts the recorded re-convergence events by kind, in place (draining
/// would copy the whole stream), then detaches the sink.
fn count_trace(net: &mut Network) -> TraceCounts {
    let mut c = TraceCounts::default();
    if let Some(m) = net.trace_sink().memory_events() {
        c.dropped = m.dropped();
        for ev in m.events() {
            c.events += 1;
            match ev.event {
                NodeEvent::Decision { .. } => c.decisions += 1,
                NodeEvent::BestChanged { .. } => c.best_changed += 1,
                NodeEvent::MraiStarted { .. } => c.mrai_started += 1,
                NodeEvent::MraiExpired { .. } => c.mrai_expired += 1,
                _ => {}
            }
        }
    }
    net.set_trace_sink(TraceSink::Off);
    c
}

/// The post-failure share of the sharded loop's phase timings.
fn phase_delta(before: &ShardPhaseTimings, after: &ShardPhaseTimings) -> ShardPhaseTimings {
    ShardPhaseTimings {
        epochs: after.epochs - before.epochs,
        parallel_commit_epochs: after.parallel_commit_epochs - before.parallel_commit_epochs,
        inline_phase_a_epochs: after.inline_phase_a_epochs - before.inline_phase_a_epochs,
        drain_secs: after.drain_secs - before.drain_secs,
        phase_a_secs: after.phase_a_secs - before.phase_a_secs,
        phase_b_secs: after.phase_b_secs - before.phase_b_secs,
        merge_secs: after.merge_secs - before.merge_secs,
        mailbox_exchange_secs: after.mailbox_exchange_secs - before.mailbox_exchange_secs,
    }
}

/// Runs `f(worker, i)` for every index `i` below `n` on `threads`
/// workers and returns the results in index order.
fn parallel<T: Send>(n: usize, threads: usize, f: impl Fn(usize, usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for worker in 0..threads.min(n) {
            let (next, slots, f) = (&next, &slots, &f);
            scope.spawn(move || loop {
                // Relaxed: the counter only hands out indices; results
                // travel through the mutex.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(worker, i);
                slots.lock().expect("no worker panicked")[i] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .expect("no worker panicked")
        .into_iter()
        .map(|r| r.expect("every index ran"))
        .collect()
}

/// What [`run_points`] measured.
struct Section {
    runs: Vec<PointRun>,
    /// The busiest worker's simulation time: the section's wall-clock
    /// with the output checks taken out.
    wall_s: f64,
    /// `VmHWM` at the end of the section.
    peak_rss_kb: u64,
}

/// Simulates `points` on `threads` workers. Each worker checks and drops
/// a network as soon as it finishes, as the experiment runner drops its
/// trials, so finished networks do not pile up in memory.
fn run_points(
    points: &[Point],
    threads: usize,
    trace: bool,
    spans: Option<&Spans>,
    parent: Option<u64>,
) -> Section {
    let done = parallel(points.len(), threads, |worker, i| {
        let ((net, mut run), simulate_s) = timed(spans, parent, "point", |id| {
            simulate(&points[i], trace, spans, id)
        });
        // The output check: ground-truth routing consistency (panics on a
        // violation) and the Loc-RIB digest.
        let (digest, validate_s) = timed(spans, parent, "network.validate", |_| {
            net.assert_routing_consistent();
            loc_rib_digest(&net)
        });
        run.outcome.digest = digest;
        run.validate_s = validate_s;
        (worker, simulate_s, run)
    });
    let mut busy = vec![0.0; threads];
    let runs = done
        .into_iter()
        .map(|(worker, simulate_s, run)| {
            busy[worker] += simulate_s;
            run
        })
        .collect();
    Section {
        runs,
        wall_s: busy.into_iter().fold(0.0, f64::max),
        peak_rss_kb: peak_rss_kb(),
    }
}

/// Runs one trial of `workload`. A traced trial records spans, attaches a
/// memory trace sink after the failure, times the experiment runner (the
/// sweep) and runs the single-layer probes.
pub fn run_trial(
    workload: Workload,
    size: &Size,
    seed: u64,
    serial: bool,
    traced: bool,
) -> TrialOut {
    let recorder = traced.then(|| Spans::new(seed));
    let spans = recorder.as_ref();
    let points = workload.points(size, seed, serial);
    let threads = if workload == Workload::Sweep120 {
        thread_count()
    } else {
        1
    };
    let mut out = TrialOut::default();
    let mut layers = BTreeMap::new();
    timed(spans, None, "trial", |root| {
        // One topology at a time, so a trial holds at most one topology's
        // networks until they are checked.
        let batches: Vec<&[Point]> = points
            .chunk_by(|a, b| a.topology_seed == b.topology_seed)
            .collect();
        let mut runs = Vec::new();
        for &batch in &batches {
            let section = run_points(batch, threads, traced, spans, root);
            out.wall_s += section.wall_s;
            out.peak_rss_kb = out.peak_rss_kb.max(section.peak_rss_kb);
            runs.extend(section.runs);
        }
        summarize(&runs, &mut out, &mut layers);
        out.config.threads = threads;
        if traced {
            if workload == Workload::Sweep120 {
                let sweep = batches[0].to_vec();
                runner_layers(sweep, threads, spans, root, &mut out.errors, &mut layers);
            }
            micro_layers(size, seed, spans, root, &mut layers);
        }
    });
    out.layers = layers;
    out.spans = recorder.map(Spans::into_spans).unwrap_or_default();
    out
}

/// Times the sweep through the parallel warm-start experiment runner and
/// checks it against a cold replica of every point. The runner draws each
/// point's topology from its base seed, so the replica does too.
fn runner_layers(
    mut points: Vec<Point>,
    threads: usize,
    spans: Option<&Spans>,
    parent: Option<u64>,
    errors: &mut Vec<String>,
    layers: &mut BTreeMap<String, f64>,
) {
    let experiments: Vec<Experiment> = points.iter().map(|p| p.experiment.clone()).collect();
    let ((aggregates, report), wall_s) =
        timed(spans, parent, "experiment.run_all_parallel_timed", |_| {
            run_all_parallel_timed(&experiments, Some(threads))
        });
    for p in &mut points {
        p.topology_seed = p.experiment.base_seed;
    }
    let (replica, _) = timed(spans, parent, "experiment.cold_replica", |id| {
        run_points(&points, threads, false, spans, id)
    });
    for (i, (agg, run)) in aggregates.iter().zip(&replica.runs).enumerate() {
        if agg.runs != [run.outcome.stats] {
            errors.push(format!(
                "point {i}: runner {:?} != cold replica {:?}",
                agg.runs, run.outcome.stats
            ));
        }
    }
    let trial_s: Vec<f64> = report.timings.iter().map(|t| t.wall_secs).collect();
    let warm = report.warm.unwrap_or_default();
    for (name, v) in [
        ("experiment.threads", report.threads as f64),
        ("experiment.wall_s", wall_s),
        ("experiment.trial_s_sum", trial_s.iter().sum()),
        ("experiment.trial_s_median", crate::report::median(&trial_s)),
        (
            "experiment.trial_s_max",
            trial_s.iter().copied().fold(0.0, f64::max),
        ),
        ("warm.build_s", warm.build_wall_secs),
        ("warm.fork_s", warm.fork_wall_secs),
        ("warm.hits", warm.hits as f64),
        ("warm.misses", warm.misses as f64),
    ] {
        layers.insert(name.to_string(), v);
    }
}

/// Sums the per-network figures into the trial's outputs and raw layers.
fn summarize(runs: &[PointRun], out: &mut TrialOut, layers: &mut BTreeMap<String, f64>) {
    let mut add = |name: &str, v: f64| *layers.entry(name.to_string()).or_insert(0.0) += v;
    let mut queue_peak = 0usize;
    let mut max_node_heap = 0usize;
    for r in runs {
        let s = &r.outcome.stats;
        out.outcomes.push(r.outcome.clone());
        out.setup_s += r.generate_s + r.new_s + r.converge_s;
        out.reconverge_s += r.reconverge_s;
        out.events += s.events;
        add("topology.generate_s", r.generate_s);
        add("network.new_s", r.new_s);
        add("network.converge_s", r.converge_s);
        add("network.inject_s", r.inject_s);
        add("network.validate_s", r.validate_s);
        add("des.events", s.events as f64);
        add("queue.updates_processed", s.updates_processed as f64);
        add("queue.stale_deleted", s.stale_deleted as f64);
        add("decision.runs", s.decision_runs as f64);
        add("decision.full_rescans", s.full_rescans as f64);
        add("decision.fast", s.fast_decisions as f64);
        add("export.messages", s.messages as f64);
        add("export.withdrawals", s.withdrawals as f64);
        add("rib.routes", r.footprint.routes as f64);
        add("rib.heap_bytes", r.footprint.rib_heap_bytes as f64);
        queue_peak = queue_peak.max(s.peak_queue);
        max_node_heap = max_node_heap.max(r.footprint.max_node_rib_heap_bytes);
        if r.config.shards > 1 {
            let t = &r.shard;
            add("shard.epochs", t.epochs as f64);
            add(
                "shard.parallel_commit_epochs",
                t.parallel_commit_epochs as f64,
            );
            add("shard.drain_s", t.drain_secs);
            add("shard.phase_a_s", t.phase_a_secs);
            add("shard.walk_s", t.phase_b_secs);
            add("shard.merge_s", t.merge_secs);
            add("shard.exchange_s", t.mailbox_exchange_secs);
            add(
                "shard.serial_s",
                t.drain_secs + t.phase_b_secs + t.mailbox_exchange_secs,
            );
            add("shard.total_s", t.total_secs());
        }
        if let Some(c) = r.trace {
            add("trace.events", c.events as f64);
            add("trace.dropped", c.dropped as f64);
            add("trace.reconverge_s", r.reconverge_s);
            add("decision.traced_runs", c.decisions as f64);
            add("decision.best_changed", c.best_changed as f64);
            add("mrai.timers_started", c.mrai_started as f64);
            add("mrai.timers_expired", c.mrai_expired as f64);
        }
    }
    layers.insert("queue.peak".into(), queue_peak as f64);
    layers.insert("rib.max_node_heap_kb".into(), max_node_heap as f64 / 1024.0);
    if let Some(r) = runs.first() {
        out.config = r.config.clone();
    }
}

/// The single-node probe at both table sizes and the FEL hold loop.
fn micro_layers(
    size: &Size,
    seed: u64,
    spans: Option<&Spans>,
    parent: Option<u64>,
    layers: &mut BTreeMap<String, f64>,
) {
    const PEERS: u32 = 4;
    layers.insert("node.peers".into(), f64::from(PEERS));
    for table in [120u32, 5000] {
        let (c, _) = timed(spans, parent, "micro.bgp_node", |_| {
            micro::node_cost(table, PEERS, size.node_ops, seed)
        });
        let mut put = |what: &str, v: u64| {
            layers.insert(format!("node.{what}.p{table}"), v as f64);
        };
        put("update_calls", c.update_calls);
        put("update_total_ns", c.update_ns);
        put("proc_calls", c.proc_calls);
        put("proc_total_ns", c.proc_ns);
        put("mrai_calls", c.mrai_calls);
        put("mrai_total_ns", c.mrai_ns);
        put("actions", c.actions);
        put("calls", c.update_calls + c.proc_calls + c.mrai_calls);
    }
    let (hold_ns, _) = timed(spans, parent, "micro.fel_hold", |_| {
        micro::fel_hold_ns(size.hold_depth, size.hold_ops, seed)
    });
    layers.insert("des.hold_ns".into(), hold_ns);
    layers.insert("des.hold_depth".into(), size.hold_depth as f64);
}
