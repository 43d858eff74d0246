//! Trace a re-convergence and reconstruct its timeline: per-destination
//! settle times, transient invalid-route episodes (the §5 batching
//! claim), per-node unfinished-work and dynamic-MRAI-level series — all
//! from the structured trace stream, exported as CSV.
//!
//! ```sh
//! cargo run --release --example trace_timeline
//! ```
//!
//! Environment knobs:
//!
//! * `BGPSIM_NODES` — topology size (default 60).
//! * `BGPSIM_SEED` — simulation seed (default 7).
//! * `BGPSIM_OUT` — CSV output directory (default `target/trace_timeline`).
//! * `BGPSIM_TRACE_OUT` — when set, additionally writes the raw trace as
//!   JSONL to this path. Combined with `BGPSIM_SHARDS`, this is the CI
//!   determinism check: the stream is byte-identical for any shard count.

use std::path::PathBuf;

use bgpsim::network::{Network, SimConfig};
use bgpsim::scheme::Scheme;
use bgpsim::trace::{to_jsonl, Timeline, TraceSink};
use bgpsim_bgp::NodeConfig;
use bgpsim_topology::degree::SkewedSpec;
use bgpsim_topology::generators::skewed_topology;
use bgpsim_topology::region::FailureSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Reads `key`, or `default` when it is unset; an unparsable value prints
/// `error: <key>=<value>: <reason>` and exits with status 1.
fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    match std::env::var(key) {
        Ok(v) => v.parse().unwrap_or_else(|e| {
            eprintln!("error: {key}={v}: {e}");
            std::process::exit(1)
        }),
        Err(_) => default,
    }
}

fn main() -> std::io::Result<()> {
    let nodes: usize = env_or("BGPSIM_NODES", 60);
    let seed: u64 = env_or("BGPSIM_SEED", 7);
    let out_dir = PathBuf::from(
        std::env::var("BGPSIM_OUT").unwrap_or_else(|_| "target/trace_timeline".into()),
    );

    // Batching + dynamic MRAI exercises every event family: stale
    // deletions from the batching queue, level transitions from the
    // dynamic-MRAI controller.
    let scheme = Scheme::batching_plus_dynamic();
    let mut rng = SmallRng::seed_from_u64(seed);
    let topo = match skewed_topology(nodes, &SkewedSpec::seventy_thirty(), &mut rng) {
        Ok(topo) => topo,
        Err(e) => {
            eprintln!("error: BGPSIM_NODES={nodes}: cannot draw a 70-30 topology: {e}");
            std::process::exit(1);
        }
    };
    let mut net = Network::new(topo, SimConfig::from_scheme(&scheme, seed));

    println!(
        "== trace_timeline: {} routers, scheme '{}', {} shard(s) ==",
        nodes,
        scheme.name,
        net.shard_count()
    );
    net.run_initial_convergence();
    net.inject_failure(&FailureSpec::CenterFraction(0.10));
    let t0 = net.failure_time().expect("failure injected");

    // Trace only the re-convergence. A memory sink keeps every event for
    // the timeline pass; `to_jsonl` serializes them into the JSONL byte
    // stream the determinism check compares.
    net.set_trace_sink(TraceSink::memory(usize::MAX));
    let stats = net.run_to_quiescence();
    let events = net.take_trace_events();

    if let Ok(path) = std::env::var("BGPSIM_TRACE_OUT") {
        std::fs::write(&path, to_jsonl(&events))?;
        println!("raw trace      -> {path} ({} events)", events.len());
    }

    let tl = Timeline::from_events(&events);
    println!(
        "re-convergence {:.2} s, {} messages, {} trace events",
        stats.convergence_delay.as_secs_f64(),
        stats.messages,
        events.len()
    );
    println!(
        "traffic        {} sent / {} received / {} processed / {} stale-deleted",
        tl.sent, tl.received, tl.processed, tl.stale_deleted
    );
    println!(
        "best paths     {} changes, {} transient invalid routes across {} destinations",
        tl.best_changes,
        tl.transient_routes(),
        tl.transient_by_prefix.len()
    );
    println!(
        "MRAI           {} timer starts, {} expiries, {} level transitions on {} routers",
        tl.mrai_starts,
        tl.mrai_expiries,
        tl.level_series.values().map(Vec::len).sum::<usize>(),
        tl.level_series.len()
    );
    println!(
        "settle         last destination settles {:.2} s after the failure",
        tl.last_settle_since(t0).as_secs_f64()
    );

    // The slowest destinations, from the per-destination settle map.
    let mut settles: Vec<_> = tl.settle_since(t0).into_iter().collect();
    settles.sort_by_key(|&(_, d)| std::cmp::Reverse(d));
    println!("\nslowest destinations:");
    println!("{:>8} {:>12} {:>10}", "prefix", "settle (s)", "transient");
    for (p, d) in settles.iter().take(5) {
        println!(
            "{:>8} {:>12.2} {:>10}",
            p.index(),
            d.as_secs_f64(),
            tl.transient_by_prefix.get(p).copied().unwrap_or(0)
        );
    }

    std::fs::create_dir_all(&out_dir)?;
    let write = |name: &str, data: String| -> std::io::Result<()> {
        let path = out_dir.join(name);
        std::fs::write(&path, data)?;
        println!("{:<14} -> {}", name, path.display());
        Ok(())
    };
    println!();
    write("settle.csv", tl.settle_csv(t0))?;
    write(
        "unfinished_work.csv",
        tl.unfinished_work_csv(NodeConfig::default().mean_processing()),
    )?;
    write("mrai_levels.csv", tl.level_csv())?;
    Ok(())
}
