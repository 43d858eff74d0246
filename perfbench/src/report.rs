//! Metric names and units, medians, and the per-layer ratios.

use std::collections::BTreeMap;

/// End-to-end metrics: name, unit, and whether higher is better.
pub const END_TO_END: [(&str, &str, bool); 5] = [
    ("wall_s", "s", false),
    ("setup_s", "s", false),
    ("reconverge_s", "s", false),
    ("events_per_s", "1/s", true),
    ("peak_rss_mb", "MB", false),
];

/// How a ratio reads its numerator and denominator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ratio {
    /// `num / den`.
    Plain,
    /// `1 − num / den`.
    Complement,
    /// `num / den − 1`.
    Excess,
}

/// Ratios derived from other per-layer metrics: `(ratio, numerator,
/// denominator, kind)`. A ratio with a zero denominator reads 0.
pub const RATIOS: [(&str, &str, &str, Ratio); 17] = [
    (
        "queue.stale_ratio",
        "queue.stale_deleted",
        "queue.stale_total",
        Ratio::Plain,
    ),
    (
        "decision.fast_ratio",
        "decision.fast",
        "decision.runs",
        Ratio::Plain,
    ),
    (
        "decision.useful_ratio",
        "decision.best_changed",
        "decision.traced_runs",
        Ratio::Plain,
    ),
    (
        "rib.bytes_per_route",
        "rib.heap_bytes",
        "rib.routes",
        Ratio::Plain,
    ),
    (
        "shard.serial_fraction",
        "shard.serial_s",
        "shard.total_s",
        Ratio::Plain,
    ),
    (
        "experiment.idle_frac",
        "experiment.trial_s_sum",
        "experiment.capacity_s",
        Ratio::Complement,
    ),
    (
        "trace.overhead",
        "trace.reconverge_s",
        "trace.untraced_reconverge_s",
        Ratio::Excess,
    ),
    (
        "bench.failed_frac",
        "bench.failed",
        "bench.attempted",
        Ratio::Plain,
    ),
    (
        "node.on_update_ns.p120",
        "node.update_total_ns.p120",
        "node.update_calls.p120",
        Ratio::Plain,
    ),
    (
        "node.on_update_ns.p5000",
        "node.update_total_ns.p5000",
        "node.update_calls.p5000",
        Ratio::Plain,
    ),
    (
        "node.on_proc_done_ns.p120",
        "node.proc_total_ns.p120",
        "node.proc_calls.p120",
        Ratio::Plain,
    ),
    (
        "node.on_proc_done_ns.p5000",
        "node.proc_total_ns.p5000",
        "node.proc_calls.p5000",
        Ratio::Plain,
    ),
    (
        "node.on_mrai_expiry_ns.p120",
        "node.mrai_total_ns.p120",
        "node.mrai_calls.p120",
        Ratio::Plain,
    ),
    (
        "node.on_mrai_expiry_ns.p5000",
        "node.mrai_total_ns.p5000",
        "node.mrai_calls.p5000",
        Ratio::Plain,
    ),
    (
        "node.actions_per_call.p120",
        "node.actions.p120",
        "node.calls.p120",
        Ratio::Plain,
    ),
    (
        "node.actions_per_call.p5000",
        "node.actions.p5000",
        "node.calls.p5000",
        Ratio::Plain,
    ),
    (
        "node.on_update_growth",
        "node.on_update_ns.p5000",
        "node.on_update_ns.p120",
        Ratio::Plain,
    ),
];

/// Every per-layer metric with its unit, grouped by layer.
pub const PER_LAYER: [(&str, &str); 84] = [
    ("topology.generate_s", "s"),
    ("network.new_s", "s"),
    ("network.converge_s", "s"),
    ("network.inject_s", "s"),
    ("network.validate_s", "s"),
    ("des.events", "count"),
    ("des.hold_ns", "ns"),
    ("des.hold_depth", "count"),
    ("node.peers", "count"),
    ("node.update_calls.p120", "count"),
    ("node.update_total_ns.p120", "ns"),
    ("node.on_update_ns.p120", "ns"),
    ("node.proc_calls.p120", "count"),
    ("node.proc_total_ns.p120", "ns"),
    ("node.on_proc_done_ns.p120", "ns"),
    ("node.mrai_calls.p120", "count"),
    ("node.mrai_total_ns.p120", "ns"),
    ("node.on_mrai_expiry_ns.p120", "ns"),
    ("node.actions.p120", "count"),
    ("node.calls.p120", "count"),
    ("node.actions_per_call.p120", "ratio"),
    ("node.update_calls.p5000", "count"),
    ("node.update_total_ns.p5000", "ns"),
    ("node.on_update_ns.p5000", "ns"),
    ("node.proc_calls.p5000", "count"),
    ("node.proc_total_ns.p5000", "ns"),
    ("node.on_proc_done_ns.p5000", "ns"),
    ("node.mrai_calls.p5000", "count"),
    ("node.mrai_total_ns.p5000", "ns"),
    ("node.on_mrai_expiry_ns.p5000", "ns"),
    ("node.actions.p5000", "count"),
    ("node.calls.p5000", "count"),
    ("node.actions_per_call.p5000", "ratio"),
    ("node.on_update_growth", "ratio"),
    ("queue.updates_processed", "count"),
    ("queue.stale_deleted", "count"),
    ("queue.stale_total", "count"),
    ("queue.stale_ratio", "ratio"),
    ("queue.peak", "count"),
    ("decision.runs", "count"),
    ("decision.full_rescans", "count"),
    ("decision.fast", "count"),
    ("decision.fast_ratio", "ratio"),
    ("decision.traced_runs", "count"),
    ("decision.best_changed", "count"),
    ("decision.useful_ratio", "ratio"),
    ("export.messages", "count"),
    ("export.withdrawals", "count"),
    ("mrai.timers_started", "count"),
    ("mrai.timers_expired", "count"),
    ("rib.routes", "count"),
    ("rib.heap_bytes", "B"),
    ("rib.bytes_per_route", "B/route"),
    ("rib.max_node_heap_kb", "kB"),
    ("shard.epochs", "count"),
    ("shard.parallel_commit_epochs", "count"),
    ("shard.drain_s", "s"),
    ("shard.phase_a_s", "s"),
    ("shard.walk_s", "s"),
    ("shard.merge_s", "s"),
    ("shard.exchange_s", "s"),
    ("shard.serial_s", "s"),
    ("shard.total_s", "s"),
    ("shard.serial_fraction", "ratio"),
    ("experiment.threads", "count"),
    ("experiment.wall_s", "s"),
    ("experiment.capacity_s", "s"),
    ("experiment.trial_s_sum", "s"),
    ("experiment.trial_s_median", "s"),
    ("experiment.trial_s_max", "s"),
    ("experiment.idle_frac", "ratio"),
    ("warm.build_s", "s"),
    ("warm.fork_s", "s"),
    ("warm.hits", "count"),
    ("warm.misses", "count"),
    ("trace.events", "count"),
    ("trace.dropped", "count"),
    ("trace.reconverge_s", "s"),
    ("trace.untraced_reconverge_s", "s"),
    ("trace.overhead", "ratio"),
    ("bench.attempted", "count"),
    ("bench.failed", "count"),
    ("bench.failed_frac", "ratio"),
    ("bench.samples", "count"),
];

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Completes a traced trial's raw layers into the full per-layer set:
/// sums that make up ratio denominators, every ratio from its numerator
/// and denominator, and 0 for the layers the workload bypasses (a shard
/// counter on a serial workload, the runner on a single-network one).
pub fn finalize_layers(raw: &BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    let mut m = raw.clone();
    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let stale_total = get(&m, "queue.stale_deleted") + get(&m, "queue.updates_processed");
    m.insert("queue.stale_total".into(), stale_total);
    let capacity = get(&m, "experiment.threads") * get(&m, "experiment.wall_s");
    m.insert("experiment.capacity_s".into(), capacity);
    // Ratios in table order: a later ratio may divide two earlier ones.
    for (ratio, num, den, kind) in RATIOS {
        let (n, d) = (get(&m, num), get(&m, den));
        let r = match kind {
            _ if d == 0.0 => 0.0,
            Ratio::Plain => n / d,
            Ratio::Complement => 1.0 - n / d,
            Ratio::Excess => n / d - 1.0,
        };
        m.insert(ratio.to_string(), r);
    }
    for (name, _) in PER_LAYER {
        m.entry(name.to_string()).or_insert(0.0);
    }
    m
}

/// Renders the benchmark's result line: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, each metric with value and unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let metrics = serde_json::Value::Object(
        metrics
            .iter()
            .map(|&(name, unit, value)| {
                (
                    name.to_string(),
                    serde_json::json!({"value": value, "unit": unit}),
                )
            })
            .collect(),
    );
    let line = serde_json::json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    });
    serde_json::to_string(&line).expect("result line serializes")
}
