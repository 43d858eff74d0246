//! `hotpath` — simulator-throughput benchmark harness.
//!
//! Runs a fixed 3-seed × 3-scheme scenario matrix through the full failure
//! pipeline and reports raw simulator throughput: delivered events per
//! second, decision-process executions per second, the full-rescan ratio of
//! the incremental best-path selection, and peak RSS per scheme batch. A
//! second, warm-start section sweeps the paper's six failure fractions per
//! (scheme, seed) cell twice — cold (every point re-converges from scratch)
//! and warm (points fork a shared converged snapshot, see `bgpsim::warm`) —
//! and reports the sweep wall-time speedup plus snapshot build/fork cost
//! and cache hit/miss counters. A third section compares the two
//! future-event-list backends (binary heap vs calendar queue, env knob
//! `BGPSIM_FEL`) on the same matrix; the heap stays the default unless the
//! calendar wins here. A fourth section exercises the sharded event loop
//! (`BGPSIM_SHARDS`): single trials at 1/2/4/8 shards on the 120- and
//! 512-node matrices. Every row asserts bit-identical `RunStats` against
//! the serial run and reports requested shards, the *effective* worker
//! parallelism (capped by the machine's cores — on a 1-core box the
//! sharded rows measure coordination overhead, not speedup, and say so),
//! and the engine's per-phase wall-clock split (partition/drain scan,
//! Phase A execute, Phase B walk, barrier exchange) plus its serial
//! fraction.
//! A `small-epoch` section follows: the per-epoch coordination cost of
//! the old `mpsc` channel handoff vs the parked worker pool, in
//! ns/epoch for empty and 16-op epochs (see `run_small_epoch_section`).
//! A fifth section measures structured-tracing overhead: the same
//! re-convergence with the sink Off (the default one-branch hooks) and
//! with a Memory ring recording everything, asserting bit-identical
//! `RunStats` — the Off row is the number to diff against a pre-tracing
//! baseline (bar: ≤ 2%).
//! A sixth, `memory` section runs one batching trial per scale point
//! (120 and 512 nodes; just the matrix size under `--fast`), each in a
//! fresh child process (`--memory-point N` re-exec) so the `VmHWM`
//! watermark is the trial's own peak, and records peak RSS, routing-state
//! heap bytes per route (`Network::memory_footprint`), resident bytes
//! per route, the largest single router's RIB heap (the arena
//! high-water mark), and the interned config-arena entry count — the
//! numbers the compact delta-encoded RIBs are accountable to
//! (DESIGN.md §12). The 10k-AS point lives in the separate
//! `largescale` bin, which CI runs with a hard RSS ceiling.
//! A seventh, `fulltable` section sweeps the routing-table-size axis:
//! one burst-withdrawal trial per table size (power-law full-table
//! allocation through the prefix trie, central 10% of origins withdraw
//! their blocks in one storm), each in a fresh child process
//! (`--fulltable-point P` re-exec) so peak RSS per table size is the
//! trial's own watermark, recording events/sec and peak RSS per size.
//! Results go to `BENCH_hotpath.json` (see README) so hot-path changes can
//! be compared number-for-number against a recorded baseline.
//!
//! ```text
//! hotpath [--fast] [--nodes N] [--threads T] [--out PATH] [--multicore-gate]
//!         [--memory-point N]
//! ```
//!
//! `--fast` (or `BENCH_FAST=1`) shrinks the matrix to one seed on a small
//! topology — the CI smoke configuration.
//!
//! `--multicore-gate` runs *only* the multi-core speedup gate and exits:
//! the 512-node batching workload serial vs 4 shards,
//! asserting bit-identity and — on machines with ≥ 4 cores — failing the
//! process unless the sharded run is ≥ 2× faster. On fewer cores the gate
//! skips loudly (the speedup is physically unreachable) but still checks
//! identity; it never passes vacuously without saying so in its output
//! and JSON (`enforced: false`).

use std::process::ExitCode;
use std::time::Instant;

use bgpsim::experiment::{
    run_all_parallel_timed, run_all_parallel_timed_cold, Experiment, TopologySpec,
};
use bgpsim::figures::FAILURE_FRACTIONS;
use bgpsim::network::{Network, SimConfig};
use bgpsim::scheme::Scheme;
use bgpsim::trace::TraceSink;
use bgpsim_topology::degree::SkewedSpec;
use bgpsim_topology::generators::skewed_topology;
use bgpsim_topology::region::FailureSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const FAILURE_FRACTION: f64 = 0.10;
const SEEDS: [u64; 3] = [101, 202, 303];
const FAST_SEEDS: [u64; 1] = [101];

#[derive(Debug)]
struct Args {
    fast: bool,
    nodes: Option<usize>,
    threads: Option<usize>,
    out: String,
    multicore_gate: bool,
    memory_point: Option<usize>,
    fulltable_point: Option<u32>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            fast: std::env::var("BENCH_FAST")
                .map(|v| v == "1")
                .unwrap_or(false),
            nodes: None,
            threads: None,
            out: "BENCH_hotpath.json".into(),
            multicore_gate: false,
            memory_point: None,
            fulltable_point: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--fast" => args.fast = true,
            "--nodes" => {
                args.nodes = Some(
                    value("--nodes")?
                        .parse()
                        .map_err(|e| format!("--nodes: {e}"))?,
                );
            }
            "--threads" => {
                args.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                );
            }
            "--out" => args.out = value("--out")?,
            "--multicore-gate" => args.multicore_gate = true,
            "--memory-point" => {
                args.memory_point = Some(
                    value("--memory-point")?
                        .parse()
                        .map_err(|e| format!("--memory-point: {e}"))?,
                );
            }
            "--fulltable-point" => {
                args.fulltable_point = Some(
                    value("--fulltable-point")?
                        .parse()
                        .map_err(|e| format!("--fulltable-point: {e}"))?,
                );
            }
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: hotpath [--fast] [--nodes N] [--threads T] [--out PATH] [--multicore-gate] \
         [--memory-point N] [--fulltable-point P]"
    );
}

/// The scheme axis of the matrix: the paper's three main timer disciplines.
fn schemes() -> Vec<Scheme> {
    vec![
        Scheme::constant_mrai(0.5),
        Scheme::batching(0.5),
        Scheme::dynamic_default(),
    ]
}

/// Peak resident set size in kB, from `/proc/self/status` (`VmHWM`).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resets the peak-RSS watermark (`VmHWM`) to the current RSS by writing
/// `5` to `/proc/self/clear_refs`, so per-batch peaks can be measured.
/// Returns `false` where the kernel/container forbids it — per-scheme RSS
/// figures are then cumulative maxima and are flagged as such.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Restores an env knob to its pre-bench state.
fn restore_env(key: &str, prev: Option<String>) {
    match prev {
        Some(v) => std::env::set_var(key, v),
        None => std::env::remove_var(key),
    }
}

/// The sharded engine's per-phase wall-clock split as a JSON object.
fn phases_json(t: &bgpsim::ShardPhaseTimings) -> serde_json::Value {
    serde_json::json!({
        "epochs": t.epochs,
        "inline_phase_a_epochs": t.inline_phase_a_epochs,
        "drain_secs": t.drain_secs,
        "phase_a_secs": t.phase_a_secs,
        "phase_b_secs": t.phase_b_secs,
        "merge_secs": t.merge_secs,
        "mailbox_exchange_secs": t.mailbox_exchange_secs,
        "serial_fraction": t.serial_fraction(),
    })
}

/// `--memory-point N`: child mode for the memory-footprint section. Runs
/// exactly one batching trial at `N` nodes in this process and prints the
/// measurement row as JSON on stdout. The parent re-execs itself with this
/// flag per scale point so every point gets a fresh address space: `VmHWM`
/// then *is* the trial's peak, untainted by allocator retention from the
/// earlier matrix/sharded/tracing sections (`clear_refs` only drops the
/// watermark to the current RSS, which never shrinks below what the
/// allocator holds on to).
fn run_memory_point(sz: usize) -> ExitCode {
    let scheme = Scheme::batching(0.5);
    let exp = Experiment {
        topology: TopologySpec::seventy_thirty(sz),
        scheme: scheme.clone(),
        failure: FailureSpec::CenterFraction(FAILURE_FRACTION),
        trials: 1,
        base_seed: SEEDS[0],
    };
    let started = Instant::now();
    let (stats, net) = exp.run_trial_with_network(0);
    let wall = started.elapsed().as_secs_f64();
    let fp = net.memory_footprint();
    let peak = peak_rss_kb();
    let row = serde_json::json!({
        "nodes": sz,
        "scheme": scheme.name,
        "seed": SEEDS[0],
        "wall_secs": wall,
        "events": stats.events,
        "peak_rss_kb": peak,
        "fresh_process": true,
        "routes": fp.routes,
        "rib_heap_bytes": fp.rib_heap_bytes,
        "rib_bytes_per_route": fp.bytes_per_route(),
        "peak_rss_bytes_per_route": peak
            .filter(|_| fp.routes > 0)
            .map(|kb| kb as f64 * 1024.0 / fp.routes as f64),
        "max_node_rib_heap_bytes": fp.max_node_rib_heap_bytes,
        "config_arena_entries": fp.config_arena_entries,
    });
    match serde_json::to_string(&row) {
        Ok(s) => {
            println!("{s}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("memory point: serialization failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One full-table point: build a small topology carrying `table` prefixes
/// (power-law split through the prefix trie), converge, withdraw the
/// central 10% of origins' blocks in one burst, re-converge, and print the
/// row as JSON on stdout. Runs in a fresh child process (`--fulltable-point`
/// re-exec) for the same watermark-honesty reason as `run_memory_point`:
/// the table-size axis exists to show how peak RSS and events/sec scale
/// with the number of destinations, so each point must own its peak.
fn run_fulltable_point(table: u32, fast: bool) -> ExitCode {
    let nodes = if fast { 20 } else { 40 };
    let scheme = Scheme::batching(0.5).with_full_table(bgpsim::FullTableSpec::internet_like(table));
    let mut rng = SmallRng::seed_from_u64(SEEDS[0]);
    let topo = skewed_topology(nodes, &SkewedSpec::seventy_thirty(), &mut rng)
        .expect("bench topology realizable");
    let mut net = Network::new(topo, SimConfig::from_scheme(&scheme, SEEDS[0]));
    let started = Instant::now();
    net.run_initial_convergence();
    let convergence_secs = started.elapsed().as_secs_f64();
    let withdrawn = net
        .inject_burst_withdrawal(&FailureSpec::CenterFraction(FAILURE_FRACTION))
        .len();
    let started = Instant::now();
    let stats = net.run_to_quiescence();
    let reconvergence_secs = started.elapsed().as_secs_f64();
    net.assert_routing_consistent();
    let fp = net.memory_footprint();
    let peak = peak_rss_kb();
    let row = serde_json::json!({
        "table_size": table,
        "nodes": nodes,
        "scheme": scheme.name,
        "seed": SEEDS[0],
        "withdrawn_prefixes": withdrawn,
        "convergence_secs": convergence_secs,
        "reconvergence_secs": reconvergence_secs,
        "events": stats.events,
        "events_per_sec": if reconvergence_secs > 0.0 {
            stats.events as f64 / reconvergence_secs
        } else {
            0.0
        },
        "messages": stats.messages,
        "convergence_delay_secs": stats.convergence_delay.as_secs_f64(),
        "peak_rss_kb": peak,
        "fresh_process": true,
        "routes": fp.routes,
        "rib_bytes_per_route": fp.bytes_per_route(),
    });
    match serde_json::to_string(&row) {
        Ok(s) => {
            println!("{s}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fulltable point: serialization failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `small-epoch` section: per-epoch coordination overhead, measured bare.
///
/// Isolates what one sharded epoch costs when the epoch itself is nearly
/// free — the regime convergence tails live in, where most epochs carry a
/// handful of MRAI timers. Two mechanisms run the same `workers`-way
/// fan-out + barrier per epoch:
///
/// * `channel`: the old per-epoch handoff — persistent scoped threads,
///   one `mpsc` work send and one reply receive per worker per epoch.
/// * `pool`: the parked worker pool the engine now uses
///   ([`bgpsim::pool`]) — `Scope::spawn` per worker plus the helping
///   `Scope::wait` barrier, no channels.
///
/// Rows measure an empty epoch (pure barrier) and a 16-op epoch (the
/// `PHASE_A_PAR_MIN_OPS` threshold, ops split across workers; each op is
/// a black-boxed atomic add). Both mechanisms must produce the same op
/// sums — a divergence is a harness bug and panics.
fn run_small_epoch_section(fast: bool) -> serde_json::Value {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;

    fn spin(ops: u64, sink: &AtomicU64) {
        for i in 0..ops {
            sink.fetch_add(std::hint::black_box(i + 1), Ordering::Relaxed);
        }
    }

    let workers = 4usize;
    let epochs: u64 = if fast { 20_000 } else { 100_000 };
    let mut rows = Vec::new();
    for total_ops in [0u64, 16] {
        let per_worker = total_ops / workers as u64;

        let channel_sink = AtomicU64::new(0);
        let channel_secs = crossbeam::thread::scope(|scope| {
            let mut work_txs = Vec::with_capacity(workers);
            let mut reply_rxs = Vec::with_capacity(workers);
            for _ in 0..workers {
                let (wtx, wrx) = mpsc::channel::<u64>();
                let (rtx, rrx) = mpsc::channel::<()>();
                let sink = &channel_sink;
                scope.spawn(move |_| {
                    while let Ok(ops) = wrx.recv() {
                        spin(ops, sink);
                        if rtx.send(()).is_err() {
                            break;
                        }
                    }
                });
                work_txs.push(wtx);
                reply_rxs.push(rrx);
            }
            let started = Instant::now();
            for _ in 0..epochs {
                for tx in &work_txs {
                    tx.send(per_worker).expect("bench worker alive");
                }
                for rx in &reply_rxs {
                    rx.recv().expect("bench worker alive");
                }
            }
            let took = started.elapsed().as_secs_f64();
            drop(work_txs); // hang up so the scope's join can complete
            took
        })
        .expect("channel bench workers don't panic");

        let pool_sink = AtomicU64::new(0);
        let pool = bgpsim::pool::global();
        let started = Instant::now();
        pool.scope(|s| {
            for _ in 0..epochs {
                for _ in 0..workers {
                    let sink = &pool_sink;
                    s.spawn(move || spin(per_worker, sink));
                }
                s.wait();
            }
        });
        let pool_secs = started.elapsed().as_secs_f64();

        assert_eq!(
            channel_sink.into_inner(),
            pool_sink.into_inner(),
            "small-epoch: mechanisms disagree on op count"
        );
        let channel_ns = channel_secs * 1e9 / epochs as f64;
        let pool_ns = pool_secs * 1e9 / epochs as f64;
        rows.push(serde_json::json!({
            "ops_per_epoch": total_ops,
            "channel_ns_per_epoch": channel_ns,
            "pool_ns_per_epoch": pool_ns,
            "pool_speedup": if pool_ns > 0.0 { channel_ns / pool_ns } else { 0.0 },
        }));
    }
    serde_json::json!({
        "workers": workers,
        "epochs_per_row": epochs,
        "rows": rows,
    })
}

/// How many shards the multi-core gate runs, and the aggregate speedup
/// it demands when it has the cores to demand one.
const GATE_SHARDS: usize = 4;
const GATE_MIN_SPEEDUP: f64 = 2.0;

/// `--multicore-gate`: serial vs `GATE_SHARDS`-way sharded on the
/// 512-node batching workload. Bit-identity is always a hard failure; the
/// ≥ `GATE_MIN_SPEEDUP`× aggregate-speedup bar is enforced only on
/// machines with at least `GATE_SHARDS` cores — below that the bar is
/// physically unreachable, so the gate *skips loudly*: the verdict line,
/// exit status and JSON (`enforced: false`) all say the speedup went
/// unchecked rather than passing it silently.
fn run_multicore_gate(args: &Args) -> ExitCode {
    let cores = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let nodes = args.nodes.unwrap_or(if args.fast { 120 } else { 512 });
    let exp = Experiment {
        topology: TopologySpec::seventy_thirty(nodes),
        scheme: Scheme::batching(0.5),
        failure: FailureSpec::CenterFraction(FAILURE_FRACTION),
        trials: 1,
        base_seed: SEEDS[0],
    };
    let prev_shards = std::env::var("BGPSIM_SHARDS").ok();
    let run = |shards: usize| {
        std::env::set_var("BGPSIM_SHARDS", shards.to_string());
        let started = Instant::now();
        let (stats, net) = exp.run_trial_with_network(0);
        let wall = started.elapsed().as_secs_f64();
        (stats, wall, net.shard_phase_timings())
    };
    println!("multicore gate: {nodes}-node batching workload, {cores} cores available");
    let (serial_stats, serial_wall, _) = run(1);
    println!(
        "  serial:              {serial_wall:7.2} s   ({} events)",
        serial_stats.events
    );
    let (sharded_stats, sharded_wall, phases) = run(GATE_SHARDS);
    restore_env("BGPSIM_SHARDS", prev_shards);
    let identical = sharded_stats == serial_stats;
    let speedup = if sharded_wall > 0.0 {
        serial_wall / sharded_wall
    } else {
        0.0
    };
    println!("  {GATE_SHARDS} shards:            {sharded_wall:7.2} s   {speedup:.2}x vs serial");
    println!(
        "    phases: drain {:.2} s | A {:.2} s | walk {:.2} s | exchange {:.2} s \
         ({} epochs, serial fraction {:.0}%)",
        phases.drain_secs,
        phases.phase_a_secs,
        phases.phase_b_secs,
        phases.mailbox_exchange_secs,
        phases.epochs,
        phases.serial_fraction() * 100.0
    );
    let enforced = cores >= GATE_SHARDS;
    let speedup_ok = speedup >= GATE_MIN_SPEEDUP;
    let passed = identical && (!enforced || speedup_ok);
    let payload = serde_json::json!({
        "harness": "hotpath-multicore-gate",
        "nodes": nodes,
        "scheme": "batching (MRAI=0.5)",
        "seed": SEEDS[0],
        "cores_available": cores,
        "shards": GATE_SHARDS,
        "serial_wall_secs": serial_wall,
        "sharded_wall_secs": sharded_wall,
        "speedup": speedup,
        "required_speedup": GATE_MIN_SPEEDUP,
        "identical_to_serial": identical,
        "phases": phases_json(&phases),
        "enforced": enforced,
        "passed": passed,
    });
    let text = serde_json::to_string_pretty(&payload).expect("serializable") + "\n";
    if let Err(e) = std::fs::write(&args.out, &text) {
        eprintln!("error: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("  written to {}", args.out);
    if !identical {
        eprintln!("error: multicore gate: {GATE_SHARDS}-shard run diverged from serial");
        return ExitCode::FAILURE;
    }
    if !enforced {
        println!(
            "  SKIPPED (not enforced): {cores} core(s) < {GATE_SHARDS} — a {GATE_MIN_SPEEDUP}x \
             bar is unreachable here; identity was still verified"
        );
        return ExitCode::SUCCESS;
    }
    if !speedup_ok {
        eprintln!(
            "error: multicore gate: {speedup:.2}x < required {GATE_MIN_SPEEDUP:.2}x \
             on {cores} cores"
        );
        return ExitCode::FAILURE;
    }
    println!("  PASSED: {speedup:.2}x >= {GATE_MIN_SPEEDUP:.2}x on {cores} cores");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}");
            }
            usage();
            return if msg == "help" {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    };

    if args.multicore_gate {
        return run_multicore_gate(&args);
    }
    if let Some(sz) = args.memory_point {
        return run_memory_point(sz);
    }
    if let Some(table) = args.fulltable_point {
        return run_fulltable_point(table, args.fast);
    }

    let nodes = args.nodes.unwrap_or(if args.fast { 40 } else { 120 });
    let seeds: &[u64] = if args.fast { &FAST_SEEDS } else { &SEEDS };
    let schemes = schemes();
    let point = |scheme: &Scheme, seed: u64, nodes: usize, fraction: f64| Experiment {
        topology: TopologySpec::seventy_thirty(nodes),
        scheme: scheme.clone(),
        failure: FailureSpec::CenterFraction(fraction),
        trials: 1,
        base_seed: seed,
    };

    // ── Throughput matrix ───────────────────────────────────────────────
    // One experiment point per (scheme, seed) cell, one trial each, so the
    // per-trial timings map 1:1 onto matrix cells. The matrix runs cold on
    // purpose: every cell has a unique (scheme, seed) key, so warm-starting
    // would only add snapshot-capture overhead and muddy the raw
    // full-pipeline numbers. It runs one scheme batch at a time with the
    // RSS watermark reset in between, so each scheme gets its own peak-RSS
    // figure (the schemes differ a lot in queue depth and RIB churn).
    let rss_reset_supported = reset_peak_rss();
    let mut trials: Vec<serde_json::Value> = Vec::new();
    let mut per_scheme_rss: Vec<serde_json::Value> = Vec::new();
    let mut points: Vec<Experiment> = Vec::new();
    let mut aggregates = Vec::new();
    let mut batch_wall_secs = 0.0f64;
    let mut report = None;
    for scheme in &schemes {
        let batch: Vec<Experiment> = seeds
            .iter()
            .map(|&seed| point(scheme, seed, nodes, FAILURE_FRACTION))
            .collect();
        reset_peak_rss();
        let started = Instant::now();
        let (agg, rep) = run_all_parallel_timed_cold(&batch, args.threads);
        batch_wall_secs += started.elapsed().as_secs_f64();
        per_scheme_rss.push(serde_json::json!({
            "scheme": scheme.name,
            "peak_rss_kb": peak_rss_kb(),
            "rss_reset_supported": rss_reset_supported,
        }));
        for (i, (exp, agg)) in batch.iter().zip(&agg).enumerate() {
            let run = &agg.runs[0];
            let wall_secs = rep
                .timings
                .iter()
                .find(|t| t.point == i && t.trial == 0)
                .map(|t| t.wall_secs)
                .expect("every trial timed");
            trials.push(serde_json::json!({
                "scheme": exp.scheme.name,
                "seed": exp.base_seed,
                "wall_secs": wall_secs,
                "events": run.events,
                "decisions": run.decision_runs,
                "full_rescans": run.full_rescans,
                "fast_decisions": run.fast_decisions,
                "messages": run.messages,
                "updates_processed": run.updates_processed,
                "convergence_delay_secs": run.convergence_delay.as_secs_f64(),
            }));
        }
        points.extend(batch);
        aggregates.extend(agg);
        report = Some(rep);
    }
    let report = report.expect("at least one scheme batch ran");

    let (mut events, mut decisions, mut full, mut fast_d, mut wall_sum) =
        (0u64, 0u64, 0u64, 0u64, 0.0f64);
    for (agg, trial) in aggregates.iter().zip(&trials) {
        let run = &agg.runs[0];
        events += run.events;
        decisions += run.decision_runs;
        full += run.full_rescans;
        fast_d += run.fast_decisions;
        wall_sum += trial["wall_secs"].as_f64().expect("wall_secs recorded");
    }

    let classified = full + fast_d;
    let full_rescan_ratio = if classified == 0 {
        0.0
    } else {
        full as f64 / classified as f64
    };
    let events_per_sec = if wall_sum > 0.0 {
        events as f64 / wall_sum
    } else {
        0.0
    };
    let decisions_per_sec = if wall_sum > 0.0 {
        decisions as f64 / wall_sum
    } else {
        0.0
    };

    // ── Warm-start sweep ────────────────────────────────────────────────
    // The figure-sweep workload. Each (scheme, seed) cell is swept over
    // the paper's six failure fractions — the sweep's points share their
    // converged pre-failure state, which is exactly what the snapshot
    // cache exploits. Run it cold, then warm, off the same points; results
    // must match bit for bit.
    let sweep: Vec<Experiment> = schemes
        .iter()
        .flat_map(|scheme| {
            seeds.iter().flat_map(move |&seed| {
                FAILURE_FRACTIONS
                    .iter()
                    .map(move |&fraction| point(scheme, seed, nodes, fraction))
            })
        })
        .collect();

    let started = Instant::now();
    let (cold_agg, cold_report) = run_all_parallel_timed_cold(&sweep, args.threads);
    let sweep_cold_secs = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let (warm_agg, warm_report) = run_all_parallel_timed(&sweep, args.threads);
    let sweep_warm_secs = started.elapsed().as_secs_f64();
    let identical = cold_agg == warm_agg;
    if !identical {
        eprintln!("error: warm-started sweep diverged from the cold sweep");
        return ExitCode::FAILURE;
    }
    let warm_stats = warm_report.warm.expect("warm runs report cache stats");

    // Per-scheme cold/warm split, from the per-trial timings: the speedup
    // is governed by the initial-convergence share of each trial, which
    // varies a lot across schemes (small for constant MRAI = 0.5, whose
    // post-failure phase is pathologically message-heavy — the paper's
    // motivating observation — and large for the paper's batching and
    // dynamic schemes, whose re-convergence is cheap).
    let scheme_secs = |report: &bgpsim::experiment::ParallelReport| {
        let mut by_scheme = vec![0.0f64; schemes.len()];
        for t in &report.timings {
            let name = &sweep[t.point].scheme.name;
            let idx = schemes
                .iter()
                .position(|s| &s.name == name)
                .expect("sweep schemes come from the scheme axis");
            by_scheme[idx] += t.wall_secs;
        }
        by_scheme
    };
    let cold_by_scheme = scheme_secs(&cold_report);
    let warm_by_scheme = scheme_secs(&warm_report);
    let per_scheme: Vec<serde_json::Value> = schemes
        .iter()
        .enumerate()
        .map(|(i, s)| {
            serde_json::json!({
                "scheme": s.name,
                "cold_wall_secs": cold_by_scheme[i],
                "warm_wall_secs": warm_by_scheme[i],
                "speedup": if warm_by_scheme[i] > 0.0 {
                    cold_by_scheme[i] / warm_by_scheme[i]
                } else {
                    0.0
                },
            })
        })
        .collect();
    let sweep_events: u64 = warm_agg
        .iter()
        .flat_map(|a| &a.runs)
        .map(|r| r.events)
        .sum();
    let speedup = if sweep_warm_secs > 0.0 {
        sweep_cold_secs / sweep_warm_secs
    } else {
        0.0
    };
    let per_sec = |secs: f64| {
        if secs > 0.0 {
            sweep_events as f64 / secs
        } else {
            0.0
        }
    };

    // ── FEL backend comparison ──────────────────────────────────────────
    // The same 1-seed scheme matrix through both future-event-list
    // backends (`BGPSIM_FEL`). Results must be bit-identical — the
    // calendar queue is property-tested to deliver the heap's exact order
    // — so the only difference is events/sec. The heap stays the default
    // backend unless the calendar wins this section.
    let fel_points: Vec<Experiment> = schemes
        .iter()
        .map(|s| point(s, seeds[0], nodes, FAILURE_FRACTION))
        .collect();
    let prev_fel = std::env::var("BGPSIM_FEL").ok();
    let mut fel_rows: Vec<serde_json::Value> = Vec::new();
    let mut fel_results = Vec::new();
    let mut fel_secs = Vec::new();
    for backend in ["heap", "calendar"] {
        std::env::set_var("BGPSIM_FEL", backend);
        let started = Instant::now();
        let (agg, _) = run_all_parallel_timed_cold(&fel_points, args.threads);
        let secs = started.elapsed().as_secs_f64();
        let ev: u64 = agg.iter().flat_map(|a| &a.runs).map(|r| r.events).sum();
        fel_rows.push(serde_json::json!({
            "backend": backend,
            "wall_secs": secs,
            "events": ev,
            "events_per_sec": if secs > 0.0 { ev as f64 / secs } else { 0.0 },
        }));
        fel_results.push(agg);
        fel_secs.push(secs);
    }
    restore_env("BGPSIM_FEL", prev_fel);
    let fel_identical = fel_results[0] == fel_results[1];
    if !fel_identical {
        eprintln!("error: calendar-queue run diverged from the heap run");
        return ExitCode::FAILURE;
    }
    let fel_winner = if fel_secs[1] < fel_secs[0] {
        "calendar"
    } else {
        "heap"
    };

    // ── Sharded event loop ──────────────────────────────────────────────
    // Single trials at increasing shard counts, on the standard matrix
    // size and on a larger 512-node topology where the per-epoch work is
    // big enough to amortise the epoch barrier. The 120-node rows use the
    // message-heaviest scheme (constant MRAI = 0.5); at 512 nodes that
    // scheme's path-hunting blow-up — the paper's motivating pathology —
    // makes a single trial take tens of minutes, so the 512-node rows use
    // the paper's batching scheme, which is what anyone simulating at that
    // scale would run. Every row is checked bit-identical against the
    // serial (1-shard) run. Requested shards and *effective* workers are
    // reported separately: the engine spawns as many workers as requested,
    // but only `min(shards, cores)` can run at once, so on a 1-core
    // machine the >1-shard rows measure determinism overhead, not speedup.
    let parallelism_available = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let shard_cases: Vec<(usize, &Scheme)> = if args.fast {
        vec![(nodes, &schemes[0])]
    } else {
        vec![(120, &schemes[0]), (512, &schemes[1])]
    };
    let shard_counts: Vec<usize> = if args.fast {
        vec![1, 2]
    } else {
        vec![1, 2, 4, 8]
    };
    let prev_shards = std::env::var("BGPSIM_SHARDS").ok();
    let mut sharded_sections: Vec<serde_json::Value> = Vec::new();
    for &(sz, scheme) in &shard_cases {
        let exp = point(scheme, seeds[0], sz, FAILURE_FRACTION);
        let mut serial: Option<(bgpsim::RunStats, f64)> = None;
        let mut rows: Vec<serde_json::Value> = Vec::new();
        for &k in &shard_counts {
            std::env::set_var("BGPSIM_SHARDS", k.to_string());
            let started = Instant::now();
            let (stats, net) = exp.run_trial_with_network(0);
            let wall = started.elapsed().as_secs_f64();
            if let Some((serial_stats, _)) = &serial {
                if stats != *serial_stats {
                    restore_env("BGPSIM_SHARDS", prev_shards);
                    eprintln!("error: {k}-shard run diverged from serial at {sz} nodes");
                    return ExitCode::FAILURE;
                }
            }
            let serial_wall = serial.as_ref().map(|&(_, w)| w).unwrap_or(wall);
            let timings = net.shard_phase_timings();
            rows.push(serde_json::json!({
                "shards_requested": k,
                "workers_effective": k.min(parallelism_available),
                "wall_secs": wall,
                "events": stats.events,
                "events_per_sec": if wall > 0.0 { stats.events as f64 / wall } else { 0.0 },
                "speedup_vs_serial": if wall > 0.0 { serial_wall / wall } else { 0.0 },
                "identical_to_serial": true,
                // Serial rows never enter the sharded loop; phases are null.
                "phases": if k > 1 { phases_json(&timings) } else { serde_json::Value::Null },
            }));
            if serial.is_none() {
                serial = Some((stats, wall));
            }
        }
        sharded_sections.push(serde_json::json!({
            "nodes": sz,
            "scheme": scheme.name,
            "seed": seeds[0],
            "rows": rows,
        }));
    }
    restore_env("BGPSIM_SHARDS", prev_shards);

    // ── Small-epoch coordination overhead ───────────────────────────────
    let small_epoch = run_small_epoch_section(args.fast);

    // ── Tracing overhead ────────────────────────────────────────────────
    // The same re-convergence run three ways: sink left Off (the default —
    // every hook site is one `Option` branch), a Memory ring recording the
    // full event stream, and Off again interleaved to bound timer noise.
    // Only the post-failure phase is timed, since that is the traced
    // phase. RunStats must be bit-identical across sinks (tracing is
    // observation-only) — divergence is a hard failure. The Off rows are
    // the numbers to diff against a recorded pre-tracing baseline: the
    // acceptance bar is Off within 2% of it.
    let trace_runs = if args.fast { 2usize } else { 3 };
    let traced_reconvergence = |memory: bool| -> (bgpsim::RunStats, f64, u64) {
        let mut rng = SmallRng::seed_from_u64(seeds[0]);
        let topo = skewed_topology(nodes, &SkewedSpec::seventy_thirty(), &mut rng)
            .expect("bench topology realizable");
        let mut net = Network::new(topo, SimConfig::from_scheme(&schemes[0], seeds[0]));
        net.run_initial_convergence();
        net.inject_failure(&FailureSpec::CenterFraction(FAILURE_FRACTION));
        if memory {
            net.set_trace_sink(TraceSink::memory(1 << 22));
        }
        let started = Instant::now();
        let stats = net.run_to_quiescence();
        let wall = started.elapsed().as_secs_f64();
        (stats, wall, net.trace_sink().seq())
    };
    let mut off_walls = Vec::new();
    let mut memory_walls = Vec::new();
    let mut trace_events_recorded = 0u64;
    let mut trace_stats: Option<bgpsim::RunStats> = None;
    for _ in 0..trace_runs {
        for memory in [false, true] {
            let (stats, wall, recorded) = traced_reconvergence(memory);
            if let Some(reference) = &trace_stats {
                if stats != *reference {
                    eprintln!("error: traced run diverged from the untraced run");
                    return ExitCode::FAILURE;
                }
            } else {
                trace_stats = Some(stats);
            }
            if memory {
                memory_walls.push(wall);
                trace_events_recorded = recorded;
            } else {
                off_walls.push(wall);
            }
        }
    }
    let min = |walls: &[f64]| walls.iter().copied().fold(f64::INFINITY, f64::min);
    let (off_wall, memory_wall) = (min(&off_walls), min(&memory_walls));
    let memory_overhead = if off_wall > 0.0 {
        memory_wall / off_wall - 1.0
    } else {
        0.0
    };

    // This totals figure keeps its historical meaning: peak since the last
    // scheme-batch reset, covering the sweep/FEL/sharded/tracing sections.
    let totals_peak_rss_kb = peak_rss_kb();

    // ── Memory footprint ────────────────────────────────────────────────
    // One full batching trial per scale point, each in a *fresh child
    // process* (re-exec of this binary with `--memory-point N`). A fresh
    // address space is the only honest watermark: `clear_refs` resets
    // `VmHWM` to the current RSS, and the allocator retains hundreds of MB
    // from the earlier 512-node sharded section, so in-process resets made
    // the small points inherit the big points' peaks. The batching scheme
    // is the one anyone simulates large topologies with (the 512-node
    // sharded rows above use it for the same reason); the child keeps its
    // final network alive so the routing-state heap can be audited route
    // by route (`Network::memory_footprint`). `peak_rss_kb` is
    // process-wide (FEL, queues and allocator slack included),
    // `rib_heap_bytes` is exactly the RIB state — the gap between the two
    // per-route figures is the non-RIB overhead. The 10k-AS caida-like
    // point runs in the separate `largescale` bin so this harness stays
    // minutes, not hours.
    let memory_scheme = &schemes[1]; // batching (MRAI = 0.5)
    let memory_sizes: Vec<usize> = if args.fast {
        vec![nodes]
    } else {
        vec![120, 512]
    };
    let self_exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("memory section: cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut memory_rows: Vec<serde_json::Value> = Vec::new();
    for &sz in &memory_sizes {
        let output = match std::process::Command::new(&self_exe)
            .args(["--memory-point", &sz.to_string()])
            .output()
        {
            Ok(o) => o,
            Err(e) => {
                eprintln!("memory section: spawning --memory-point {sz} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if !output.status.success() {
            eprintln!(
                "memory section: --memory-point {sz} child exited with {}:\n{}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            );
            return ExitCode::FAILURE;
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        match serde_json::from_str::<serde_json::Value>(stdout.trim()) {
            Ok(row) => memory_rows.push(row),
            Err(e) => {
                eprintln!("memory section: --memory-point {sz} produced unparseable output ({e}): {stdout}");
                return ExitCode::FAILURE;
            }
        }
    }

    // ── Full-table axis ─────────────────────────────────────────────────
    // One burst-withdrawal trial per routing-table size, fresh child
    // process each (same honesty argument as the memory section). The
    // sizes sweep the gap between the paper's one-prefix-per-AS workload
    // and the Internet's table; the 10^5+ points live in the `largescale`
    // bin's `--table-size` axis and EXPERIMENTS.md.
    let fulltable_sizes: Vec<u32> = if args.fast {
        vec![500, 2_000]
    } else {
        vec![1_000, 5_000, 20_000]
    };
    let mut fulltable_rows: Vec<serde_json::Value> = Vec::new();
    for &table in &fulltable_sizes {
        let mut cmd = std::process::Command::new(&self_exe);
        cmd.args(["--fulltable-point", &table.to_string()]);
        if args.fast {
            cmd.arg("--fast");
        }
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("fulltable section: spawning --fulltable-point {table} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if !output.status.success() {
            eprintln!(
                "fulltable section: --fulltable-point {table} child exited with {}:\n{}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            );
            return ExitCode::FAILURE;
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        match serde_json::from_str::<serde_json::Value>(stdout.trim()) {
            Ok(row) => fulltable_rows.push(row),
            Err(e) => {
                eprintln!(
                    "fulltable section: --fulltable-point {table} produced unparseable output ({e}): {stdout}"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let payload = serde_json::json!({
        "harness": "hotpath",
        "fast": args.fast,
        "nodes": nodes,
        "failure_fraction": FAILURE_FRACTION,
        "seeds": seeds.to_vec(),
        "schemes": schemes.iter().map(|s| s.name.clone()).collect::<Vec<String>>(),
        "threads": report.threads,
        "threads_requested": report.threads_requested,
        "parallelism_available": report.parallelism_available,
        "trials": trials,
        "totals": serde_json::json!({
            "trial_wall_secs_sum": wall_sum,
            "batch_wall_secs": batch_wall_secs,
            "events": events,
            "decisions": decisions,
            "events_per_sec": events_per_sec,
            "decisions_per_sec": decisions_per_sec,
            "full_rescan_ratio": full_rescan_ratio,
            "peak_rss_kb": totals_peak_rss_kb,
            "per_scheme_rss": per_scheme_rss,
        }),
        "memory": serde_json::json!({
            "scheme": memory_scheme.name,
            "failure_fraction": FAILURE_FRACTION,
            "points": memory_rows,
        }),
        "warm_start": serde_json::json!({
            "failure_fractions": FAILURE_FRACTIONS.to_vec(),
            "sweep_points": sweep.len(),
            "cold_wall_secs": sweep_cold_secs,
            "warm_wall_secs": sweep_warm_secs,
            "speedup": speedup,
            "cold_events_per_sec": per_sec(sweep_cold_secs),
            "warm_events_per_sec": per_sec(sweep_warm_secs),
            "snapshot_builds": warm_stats.builds,
            "snapshot_forks": warm_stats.forks,
            "cache_hits": warm_stats.hits,
            "cache_misses": warm_stats.misses,
            "snapshot_build_wall_secs": warm_stats.build_wall_secs,
            "snapshot_fork_wall_secs": warm_stats.fork_wall_secs,
            "results_identical": identical,
            "per_scheme": per_scheme,
        }),
        "fel": serde_json::json!({
            "backends": fel_rows,
            "results_identical": fel_identical,
            "winner": fel_winner,
            "default": "heap",
        }),
        "sharded": serde_json::json!({
            "parallelism_available": parallelism_available,
            "shard_counts": shard_counts,
            "sections": sharded_sections,
        }),
        "small_epoch": small_epoch,
        "fulltable": serde_json::json!({
            "failure_fraction": FAILURE_FRACTION,
            "points": fulltable_rows,
        }),
        "tracing": serde_json::json!({
            "runs_per_sink": trace_runs,
            "scheme": schemes[0].name,
            "seed": seeds[0],
            "off_reconvergence_secs": off_wall,
            "memory_reconvergence_secs": memory_wall,
            "memory_overhead": memory_overhead,
            "trace_events": trace_events_recorded,
            "stats_identical": true,
        }),
    });

    let text = serde_json::to_string_pretty(&payload).expect("serializable") + "\n";
    if let Err(e) = std::fs::write(&args.out, &text) {
        eprintln!("error: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }

    println!(
        "hotpath throughput ({} nodes, {} threads, {} requested, {} available):",
        nodes, report.threads, report.threads_requested, report.parallelism_available
    );
    println!("  events/sec:        {events_per_sec:.0}");
    println!("  decisions/sec:     {decisions_per_sec:.0}");
    println!("  full-rescan ratio: {full_rescan_ratio:.3}");
    println!("  trial wall sum:    {wall_sum:.2} s (batch {batch_wall_secs:.2} s)");
    for rss in &per_scheme_rss {
        println!(
            "  peak RSS [{}]: {} kB{}",
            rss["scheme"].as_str().unwrap_or("?"),
            rss["peak_rss_kb"].as_u64().unwrap_or(0),
            if rss_reset_supported {
                ""
            } else {
                " (cumulative: watermark reset unsupported)"
            }
        );
    }
    println!(
        "warm-start sweep ({} points, {} fractions per cell):",
        sweep.len(),
        FAILURE_FRACTIONS.len()
    );
    println!(
        "  cold: {sweep_cold_secs:.2} s   warm: {sweep_warm_secs:.2} s   speedup: {speedup:.2}x"
    );
    println!(
        "  snapshots: {} built ({:.2} s), {} forked ({:.3} s), {} hits / {} misses",
        warm_stats.builds,
        warm_stats.build_wall_secs,
        warm_stats.forks,
        warm_stats.fork_wall_secs,
        warm_stats.hits,
        warm_stats.misses
    );
    for (i, s) in schemes.iter().enumerate() {
        println!(
            "  {:24} cold {:6.2} s   warm {:6.2} s   {:.2}x",
            s.name,
            cold_by_scheme[i],
            warm_by_scheme[i],
            if warm_by_scheme[i] > 0.0 {
                cold_by_scheme[i] / warm_by_scheme[i]
            } else {
                0.0
            }
        );
    }
    println!("FEL backends ({} nodes, {} schemes):", nodes, schemes.len());
    for row in &fel_rows {
        println!(
            "  {:9} {:6.2} s   {:.0} events/sec",
            row["backend"].as_str().unwrap_or("?"),
            row["wall_secs"].as_f64().unwrap_or(0.0),
            row["events_per_sec"].as_f64().unwrap_or(0.0)
        );
    }
    println!("  winner: {fel_winner} (default stays heap)");
    println!("sharded event loop ({parallelism_available} cores available):");
    for section in &sharded_sections {
        println!("  {} nodes:", section["nodes"].as_u64().unwrap_or(0));
        for row in section["rows"].as_array().into_iter().flatten() {
            println!(
                "    {} shards ({} effective): {:6.2} s   {:.0} events/sec   {:.2}x vs serial",
                row["shards_requested"].as_u64().unwrap_or(0),
                row["workers_effective"].as_u64().unwrap_or(0),
                row["wall_secs"].as_f64().unwrap_or(0.0),
                row["events_per_sec"].as_f64().unwrap_or(0.0),
                row["speedup_vs_serial"].as_f64().unwrap_or(0.0)
            );
            let p = &row["phases"];
            if !p.is_null() {
                println!(
                    "      phases: drain {:.2} s | A {:.2} s | walk {:.2} s | exchange {:.2} s \
                     ({} epochs, serial fraction {:.0}%)",
                    p["drain_secs"].as_f64().unwrap_or(0.0),
                    p["phase_a_secs"].as_f64().unwrap_or(0.0),
                    p["phase_b_secs"].as_f64().unwrap_or(0.0),
                    p["mailbox_exchange_secs"].as_f64().unwrap_or(0.0),
                    p["epochs"].as_u64().unwrap_or(0),
                    p["serial_fraction"].as_f64().unwrap_or(0.0) * 100.0
                );
            }
        }
    }
    println!(
        "small-epoch overhead ({} workers, {} epochs/row):",
        small_epoch["workers"].as_u64().unwrap_or(0),
        small_epoch["epochs_per_row"].as_u64().unwrap_or(0)
    );
    for row in small_epoch["rows"].as_array().into_iter().flatten() {
        println!(
            "  {:2}-op epoch: channel handoff {:8.0} ns/epoch   parked pool {:8.0} ns/epoch   ({:.2}x)",
            row["ops_per_epoch"].as_u64().unwrap_or(0),
            row["channel_ns_per_epoch"].as_f64().unwrap_or(0.0),
            row["pool_ns_per_epoch"].as_f64().unwrap_or(0.0),
            row["pool_speedup"].as_f64().unwrap_or(0.0)
        );
    }
    println!("tracing overhead (re-convergence, best of {trace_runs}):");
    println!(
        "  sink Off:    {off_wall:.3} s   (diff this against the recorded pre-tracing baseline)"
    );
    println!(
        "  sink Memory: {memory_wall:.3} s   ({:+.1}% vs Off, {trace_events_recorded} events)",
        memory_overhead * 100.0
    );
    println!(
        "memory footprint ({} workload, fresh process per point):",
        memory_scheme.name
    );
    for row in &memory_rows {
        println!(
            "  {:5} nodes: peak RSS {:9} kB   {:9} routes   RIB {:6.1} B/route   RSS {:7.1} B/route   node high-water {} kB   {} config(s)",
            row["nodes"].as_u64().unwrap_or(0),
            row["peak_rss_kb"].as_u64().unwrap_or(0),
            row["routes"].as_u64().unwrap_or(0),
            row["rib_bytes_per_route"].as_f64().unwrap_or(0.0),
            row["peak_rss_bytes_per_route"].as_f64().unwrap_or(0.0),
            row["max_node_rib_heap_bytes"].as_u64().unwrap_or(0) / 1024,
            row["config_arena_entries"].as_u64().unwrap_or(0)
        );
    }
    println!("full-table burst axis (fresh process per point):");
    for row in &fulltable_rows {
        println!(
            "  {:6}-prefix table ({} nodes): {:7} withdrawn   {:8.0} events/sec   delay {:6.1} s sim   peak RSS {:9} kB   RIB {:5.1} B/route",
            row["table_size"].as_u64().unwrap_or(0),
            row["nodes"].as_u64().unwrap_or(0),
            row["withdrawn_prefixes"].as_u64().unwrap_or(0),
            row["events_per_sec"].as_f64().unwrap_or(0.0),
            row["convergence_delay_secs"].as_f64().unwrap_or(0.0),
            row["peak_rss_kb"].as_u64().unwrap_or(0),
            row["rib_bytes_per_route"].as_f64().unwrap_or(0.0)
        );
    }
    println!("  written to {}", args.out);
    ExitCode::SUCCESS
}
