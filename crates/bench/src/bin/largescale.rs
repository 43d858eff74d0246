//! `largescale` — Internet-scale memory smoke trial.
//!
//! Runs ONE failure experiment on a `caida_like` topology (default
//! 10,000 single-router ASes, ~4.2 average degree, 82% stubs — see
//! `bgpsim_topology::degree::caida_like`) under the paper's batching
//! scheme, failing 10% of the routers around the grid centre, and
//! reports per-phase wall-clock plus the memory numbers the compact
//! delta-encoded RIBs are accountable to (DESIGN.md §12): process peak
//! RSS (`VmHWM`), routing-state heap bytes per route
//! (`Network::memory_footprint`), the largest single router's RIB heap
//! (hubs dominate at this scale) and the interned config-arena entry
//! count.
//!
//! ```text
//! largescale [--nodes N] [--failure F] [--table-size P] [--seed S]
//!            [--rss-ceiling-mb M] [--out PATH]
//! ```
//!
//! `--table-size P` switches to the full-table workload: `P` prefixes
//! total, power-law split across ASes through the longest-prefix-match
//! trie, and the failure step becomes a *burst withdrawal* — the central
//! `--failure` fraction's origins stay up but withdraw their whole prefix
//! blocks in one event storm. This is the table-size axis of the memory
//! gate: routes scale with `nodes × P` instead of `nodes²`.
//!
//! `--rss-ceiling-mb` turns the trial into a hard gate: the process
//! exits non-zero if peak RSS exceeds the ceiling. CI's `largescale`
//! job runs this bin with a ceiling so a memory regression at Internet
//! scale fails the build instead of silently eating the runner. The
//! benchmark's `rib.*` and `peak_rss_mb` metrics cover the smaller
//! workloads; this bin exists because the 10k-AS point takes long enough
//! to deserve its own job (and log progress per phase).
//!
//! The post-failure routing state is checked against ground-truth
//! reachability (`assert_routing_consistent`) — this is a smoke trial,
//! not just a stopwatch.

use std::process::ExitCode;
use std::time::Instant;

use bgpsim::network::{Network, SimConfig};
use bgpsim::scheme::Scheme;
use bgpsim_topology::degree::{caida_like, CAIDA_LIKE_MIN_ASES};
use bgpsim_topology::generators::skewed_topology;
use bgpsim_topology::region::FailureSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[derive(Debug)]
struct Args {
    nodes: usize,
    failure: f64,
    table_size: Option<u32>,
    seed: u64,
    rss_ceiling_mb: Option<u64>,
    out: String,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            nodes: 10_000,
            failure: 0.10,
            table_size: None,
            seed: 101,
            rss_ceiling_mb: None,
            out: "BENCH_largescale.json".into(),
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--nodes" => {
                args.nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?;
            }
            "--failure" => {
                args.failure = value("--failure")?
                    .parse()
                    .map_err(|e| format!("--failure: {e}"))?;
            }
            "--table-size" => {
                args.table_size = Some(
                    value("--table-size")?
                        .parse()
                        .map_err(|e| format!("--table-size: {e}"))?,
                );
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--rss-ceiling-mb" => {
                args.rss_ceiling_mb = Some(
                    value("--rss-ceiling-mb")?
                        .parse()
                        .map_err(|e| format!("--rss-ceiling-mb: {e}"))?,
                );
            }
            "--out" => args.out = value("--out")?,
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.nodes < CAIDA_LIKE_MIN_ASES {
        return Err(format!(
            "--nodes {} is below {CAIDA_LIKE_MIN_ASES}, the fewest ASes the caida-like \
             preset can tier",
            args.nodes
        ));
    }
    if !(0.0..=1.0).contains(&args.failure) {
        return Err(format!("--failure {} is outside [0, 1]", args.failure));
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: largescale [--nodes N] [--failure F] [--table-size P] [--seed S] \
         [--rss-ceiling-mb M] [--out PATH]"
    );
}

/// Peak resident set size in kB, from `/proc/self/status` (`VmHWM`).
/// This bin runs one trial in a fresh process, so the watermark needs no
/// reset — it *is* the trial's peak.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn footprint_json(fp: &bgpsim::MemoryFootprint) -> serde_json::Value {
    serde_json::json!({
        "routes": fp.routes,
        "rib_heap_bytes": fp.rib_heap_bytes,
        "rib_bytes_per_route": fp.bytes_per_route(),
        "max_node_rib_heap_bytes": fp.max_node_rib_heap_bytes,
        "config_arena_entries": fp.config_arena_entries,
    })
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
    let mut scheme = Scheme::batching(0.5);
    if let Some(table) = args.table_size {
        scheme = scheme.with_full_table(bgpsim::FullTableSpec::internet_like(table));
    }
    let failure_kind = if args.table_size.is_some() {
        "centre burst withdrawal"
    } else {
        "centre failure"
    };
    println!(
        "largescale smoke: {} caida-like ASes{}, {} scheme, {:.0}% {failure_kind}, seed {}",
        args.nodes,
        args.table_size
            .map(|t| format!(" × {t}-prefix full table"))
            .unwrap_or_default(),
        scheme.name,
        args.failure * 100.0,
        args.seed
    );

    let started = Instant::now();
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let topo = match skewed_topology(args.nodes, &caida_like(args.nodes), &mut rng) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: topology generation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let topology_secs = started.elapsed().as_secs_f64();
    println!(
        "  topology:       {topology_secs:7.2} s   ({} links, avg degree {:.2})",
        topo.num_edges(),
        topo.avg_degree()
    );
    let avg_degree = topo.avg_degree();
    let links = topo.num_edges();

    let started = Instant::now();
    let mut net = Network::new(topo, SimConfig::from_scheme(&scheme, args.seed));
    net.run_initial_convergence();
    let converge_secs = started.elapsed().as_secs_f64();
    let converged_fp = net.memory_footprint();
    println!(
        "  convergence:    {converge_secs:7.2} s   ({} routes, RIB {:.1} B/route, {} config(s))",
        converged_fp.routes,
        converged_fp.bytes_per_route(),
        converged_fp.config_arena_entries
    );

    let started = Instant::now();
    let withdrawn = if args.table_size.is_some() {
        let w = net.inject_burst_withdrawal(&FailureSpec::CenterFraction(args.failure));
        println!(
            "  burst:          {} prefixes withdrawn in one storm",
            w.len()
        );
        w.len()
    } else {
        net.inject_failure(&FailureSpec::CenterFraction(args.failure));
        0
    };
    let stats = net.run_to_quiescence();
    let reconverge_secs = started.elapsed().as_secs_f64();
    println!(
        "  re-convergence: {reconverge_secs:7.2} s   ({} events, {} messages, delay {:.1} s sim-time)",
        stats.events,
        stats.messages,
        stats.convergence_delay.as_secs_f64()
    );

    net.assert_routing_consistent();
    // Sharded runs (BGPSIM_SHARDS > 1) accumulate a per-phase wall-clock
    // split; at Internet scale the Amdahl view (DESIGN.md §10) is the
    // number that matters, so print and record it whenever it is nonzero.
    let phases = net.shard_phase_timings();
    if phases.epochs > 0 {
        println!(
            "  shard phases:   drain {:.2} s | A {:.2} s | walk {:.2} s | exchange {:.2} s \
             ({} epochs, {} inline, serial fraction {:.0}%)",
            phases.drain_secs,
            phases.phase_a_secs,
            phases.phase_b_secs,
            phases.mailbox_exchange_secs,
            phases.epochs,
            phases.inline_phase_a_epochs,
            phases.serial_fraction() * 100.0
        );
        for (s, load) in net.shard_load().iter().enumerate() {
            println!(
                "  shard {s}:        {} events drained, {} handled, Phase A busy {:.2} s",
                load.drained, load.handled, load.busy_secs
            );
        }
    }
    let final_fp = net.memory_footprint();
    let peak = peak_rss_kb();
    let rss_bytes_per_route = peak
        .filter(|_| final_fp.routes > 0)
        .map(|kb| kb as f64 * 1024.0 / final_fp.routes as f64);
    match peak {
        Some(kb) => println!(
            "  peak RSS:       {:7.1} MB  (RSS {:.1} B/route, node high-water {} kB)",
            kb as f64 / 1024.0,
            rss_bytes_per_route.unwrap_or(0.0),
            final_fp.max_node_rib_heap_bytes / 1024
        ),
        None => println!("  peak RSS:       unavailable (/proc/self/status unreadable)"),
    }

    let ceiling_exceeded = match (args.rss_ceiling_mb, peak) {
        (Some(ceiling), Some(kb)) => kb > ceiling * 1024,
        _ => false,
    };
    let payload = serde_json::json!({
        "harness": "largescale",
        "nodes": args.nodes,
        "links": links,
        "avg_degree": avg_degree,
        "scheme": scheme.name,
        "failure_fraction": args.failure,
        "table_size": args.table_size,
        "withdrawn_prefixes": withdrawn,
        "seed": args.seed,
        "topology_secs": topology_secs,
        "convergence_secs": converge_secs,
        "reconvergence_secs": reconverge_secs,
        "events": stats.events,
        "messages": stats.messages,
        "convergence_delay_secs": stats.convergence_delay.as_secs_f64(),
        "peak_rss_kb": peak,
        "peak_rss_bytes_per_route": rss_bytes_per_route,
        "rss_ceiling_mb": args.rss_ceiling_mb,
        "ceiling_exceeded": ceiling_exceeded,
        "routing_consistent": true,
        "shards": net.shard_count(),
        "shard_phases": if phases.epochs > 0 {
            serde_json::json!({
                "epochs": phases.epochs,
                "inline_phase_a_epochs": phases.inline_phase_a_epochs,
                "drain_secs": phases.drain_secs,
                "phase_a_secs": phases.phase_a_secs,
                "phase_b_secs": phases.phase_b_secs,
                "mailbox_exchange_secs": phases.mailbox_exchange_secs,
                "serial_fraction": phases.serial_fraction(),
                "shard_load": net.shard_load().iter().map(|l| serde_json::json!({
                    "drained": l.drained,
                    "handled": l.handled,
                    "busy_secs": l.busy_secs,
                })).collect::<Vec<_>>(),
            })
        } else {
            serde_json::Value::Null
        },
        "converged": footprint_json(&converged_fp),
        "final": footprint_json(&final_fp),
    });
    let text = serde_json::to_string_pretty(&payload).expect("serializable") + "\n";
    if let Err(e) = std::fs::write(&args.out, &text) {
        eprintln!("error: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("  written to {}", args.out);

    if ceiling_exceeded {
        eprintln!(
            "error: peak RSS {} kB exceeds the {} MB ceiling",
            peak.unwrap_or(0),
            args.rss_ceiling_mb.unwrap_or(0)
        );
        return ExitCode::FAILURE;
    }
    if let Some(ceiling) = args.rss_ceiling_mb {
        println!("  PASSED: peak RSS within the {ceiling} MB ceiling (routing state consistent)");
    }
    ExitCode::SUCCESS
}
