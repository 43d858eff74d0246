//! Watch a convergence storm unfold: trace the re-convergence from a 10%
//! failure and print the backlog/busy-router/message timeline every 2 s
//! of simulated time, for a FIFO router at MRAI 0.5 s vs the paper's
//! batching scheme. The timeline is rebuilt from the trace's `QueueDepth`
//! and `Sent` events, so it is the same for any `BGPSIM_SHARDS` value.
//!
//! ```sh
//! cargo run --release --example convergence_timeline
//! ```

use bgpsim::network::{Network, SimConfig};
use bgpsim::scheme::Scheme;
use bgpsim::trace::{TraceEvent, TraceSink};
use bgpsim_bgp::trace::NodeEvent;
use bgpsim_des::{SimDuration, SimTime};
use bgpsim_topology::degree::SkewedSpec;
use bgpsim_topology::generators::skewed_topology;
use bgpsim_topology::region::FailureSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The network at one instant of the storm.
struct Sample {
    time: SimTime,
    /// Updates queued (not yet in service) across all routers.
    queued_updates: usize,
    /// Routers with a batch in service.
    busy_routers: usize,
    /// Updates sent since the failure.
    messages_so_far: u64,
}

/// Replays a trace that starts at quiescence into one [`Sample`] every
/// `interval` after `start`, up to `end`. Each sample counts the events
/// strictly before its instant. Every handler that changes a queue
/// records `QueueDepth` before it returns, so a router's last recorded
/// depth before `t` is its depth at `t`; a router with none is idle.
fn samples(
    events: &[TraceEvent],
    routers: usize,
    start: SimTime,
    end: SimTime,
    interval: SimDuration,
) -> Vec<Sample> {
    let mut depth = vec![(0u32, 0u32); routers];
    let (mut queued, mut busy, mut sent) = (0usize, 0usize, 0u64);
    let mut events = events.iter().peekable();
    let mut out = Vec::new();
    let mut at = start + interval;
    while at <= end {
        while let Some(ev) = events.next_if(|ev| ev.time < at) {
            match ev.event {
                NodeEvent::Sent { .. } => sent += 1,
                NodeEvent::QueueDepth {
                    queued: q,
                    in_service,
                } => {
                    let (old_q, old_s) =
                        std::mem::replace(&mut depth[ev.node.index()], (q, in_service));
                    queued = queued + q as usize - old_q as usize;
                    busy = busy + usize::from(in_service > 0) - usize::from(old_s > 0);
                }
                _ => {}
            }
        }
        out.push(Sample {
            time: at,
            queued_updates: queued,
            busy_routers: busy,
            messages_so_far: sent,
        });
        at += interval;
    }
    out
}

/// Renders the queued-update backlog (the paper's "unfinished work"
/// signal) as a unicode sparkline, annotated with the peak.
fn sparkline(samples: &[&Sample]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let peak = samples.iter().map(|s| s.queued_updates).max().unwrap_or(0);
    let mut out: String = samples
        .iter()
        .map(|s| {
            let idx = (s.queued_updates * (BARS.len() - 1) + peak / 2)
                .checked_div(peak)
                .unwrap_or(0);
            BARS[idx.min(BARS.len() - 1)]
        })
        .collect();
    out.push_str(&format!(" (peak {peak})"));
    out
}

fn run(scheme: Scheme) {
    let mut rng = SmallRng::seed_from_u64(8);
    let topo = skewed_topology(120, &SkewedSpec::seventy_thirty(), &mut rng)
        .expect("70-30 at 120 nodes is realizable");
    let routers = topo.num_routers();
    let mut net = Network::new(topo, SimConfig::from_scheme(&scheme, 8));
    net.run_initial_convergence();
    let start = net.now();
    net.inject_failure(&FailureSpec::CenterFraction(0.10));
    let failure_time = net.failure_time().expect("failure injected");
    net.set_trace_sink(TraceSink::memory(usize::MAX));
    let stats = net.run_to_quiescence();
    let timeline = samples(
        &net.take_trace_events(),
        routers,
        start,
        net.now(),
        SimDuration::from_secs(2),
    );

    println!("\n=== {} ===", scheme.name);
    println!(
        "re-convergence {:.1} s, {} messages",
        stats.convergence_delay.as_secs_f64(),
        stats.messages
    );
    let post_failure: Vec<&Sample> = timeline.iter().filter(|s| s.time >= failure_time).collect();
    println!("backlog   {}", sparkline(&post_failure));
    println!(
        "{:>8} {:>14} {:>12} {:>12}",
        "t (s)", "queued updates", "busy routers", "messages"
    );
    for (printed, s) in post_failure.into_iter().enumerate() {
        // Print every sample while the storm is active, then stop once the
        // network has been quiet for a while (keeps the table short).
        if s.queued_updates == 0 && s.busy_routers == 0 && printed > 3 {
            break;
        }
        println!(
            "{:>8.0} {:>14} {:>12} {:>12}",
            (s.time - failure_time).as_secs_f64(),
            s.queued_updates,
            s.busy_routers,
            s.messages_so_far
        );
    }
}

fn main() {
    println!("10% central failure on the paper's 120-node 70-30 network.");
    println!("Watch how the input-queue backlog (the paper's 'unfinished work')");
    println!("builds and drains under each configuration:");
    run(Scheme::constant_mrai(0.5));
    run(Scheme::batching(0.5));
    run(Scheme::dynamic_default().named("dynamic MRAI"));
}
