//! Per-run statistics and cross-trial aggregation.

use bgpsim_des::SimDuration;
use serde::{Deserialize, Serialize};

/// What one simulated failure run produced (post-failure activity only;
/// counters are reset after initial convergence).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Time from failure injection to the last routing-relevant event
    /// (message sent/delivered or processing completed).
    pub convergence_delay: SimDuration,
    /// Update messages sent network-wide (announcements + withdrawals),
    /// counted per destination per peer — the quantity of Figs 2 and 11.
    pub messages: u64,
    /// Announcements among [`messages`](RunStats::messages).
    pub announcements: u64,
    /// Withdrawals among [`messages`](RunStats::messages).
    pub withdrawals: u64,
    /// Work items actually processed across all surviving routers.
    pub updates_processed: u64,
    /// Decision-process executions across all surviving routers.
    pub decision_runs: u64,
    /// Decision runs that fell back to a full Adj-RIB-In rescan.
    pub full_rescans: u64,
    /// Decision runs resolved on the incremental fast path.
    pub fast_decisions: u64,
    /// Stale updates deleted unprocessed by the batching discipline.
    pub stale_deleted: u64,
    /// Largest input-queue length observed at any router.
    pub peak_queue: usize,
    /// Routers that failed.
    pub failed_routers: usize,
    /// Discrete events delivered during the post-failure phase.
    pub events: u64,
    /// Time the initial (pre-failure) convergence took.
    pub initial_convergence: SimDuration,
}

/// Aggregate over several seeded trials of the same experiment point.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Aggregate {
    /// The per-trial results.
    pub runs: Vec<RunStats>,
}

impl Aggregate {
    /// Wraps per-trial results.
    pub fn new(runs: Vec<RunStats>) -> Aggregate {
        Aggregate { runs }
    }

    /// Number of trials.
    pub fn trials(&self) -> usize {
        self.runs.len()
    }

    /// Mean convergence delay in seconds; 0.0 for an empty aggregate
    /// (never NaN).
    pub fn mean_delay_secs(&self) -> f64 {
        mean(self.runs.iter().map(|r| r.convergence_delay.as_secs_f64()))
    }

    /// Sample standard deviation of the convergence delay in seconds
    /// (0.0 for fewer than two trials).
    pub fn std_delay_secs(&self) -> f64 {
        std_dev(self.runs.iter().map(|r| r.convergence_delay.as_secs_f64()))
    }

    /// Mean number of update messages; 0.0 for an empty aggregate (never
    /// NaN).
    pub fn mean_messages(&self) -> f64 {
        mean(self.runs.iter().map(|r| r.messages as f64))
    }

    /// Mean number of stale updates deleted by batching; 0.0 for an empty
    /// aggregate (never NaN).
    pub fn mean_stale_deleted(&self) -> f64 {
        mean(self.runs.iter().map(|r| r.stale_deleted as f64))
    }

    /// Largest queue peak over all trials.
    pub fn max_peak_queue(&self) -> usize {
        self.runs.iter().map(|r| r.peak_queue).max().unwrap_or(0)
    }
}

/// 0.0 for an empty iterator, so an empty aggregate never puts the
/// 0/0 = NaN case into a figure.
fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / f64::from(n)
    }
}

fn std_dev(values: impl Iterator<Item = f64>) -> f64 {
    let vals: Vec<f64> = values.collect();
    if vals.len() < 2 {
        return 0.0;
    }
    let m = mean(vals.iter().copied());
    let var = vals.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (vals.len() - 1) as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(delay_secs: u64, messages: u64) -> RunStats {
        RunStats {
            convergence_delay: SimDuration::from_secs(delay_secs),
            messages,
            ..Default::default()
        }
    }

    #[test]
    fn aggregate_means() {
        let agg = Aggregate::new(vec![run(10, 100), run(20, 300)]);
        assert_eq!(agg.trials(), 2);
        assert_eq!(agg.mean_delay_secs(), 15.0);
        assert_eq!(agg.mean_messages(), 200.0);
    }

    #[test]
    fn std_dev_of_two_points() {
        let agg = Aggregate::new(vec![run(10, 0), run(20, 0)]);
        assert!((agg.std_delay_secs() - 7.0710678).abs() < 1e-6);
    }

    #[test]
    fn empty_aggregate_is_zero_never_nan() {
        let agg = Aggregate::default();
        assert_eq!(agg.mean_delay_secs(), 0.0);
        assert_eq!(agg.mean_messages(), 0.0);
        assert_eq!(agg.mean_stale_deleted(), 0.0);
        assert_eq!(agg.std_delay_secs(), 0.0);
        assert_eq!(agg.max_peak_queue(), 0);
    }

    #[test]
    fn single_run_has_zero_std() {
        let agg = Aggregate::new(vec![run(5, 1)]);
        assert_eq!(agg.std_delay_secs(), 0.0);
    }

    #[test]
    fn max_peak_queue() {
        let mut a = run(1, 1);
        a.peak_queue = 7;
        let mut b = run(1, 1);
        b.peak_queue = 3;
        assert_eq!(Aggregate::new(vec![a, b]).max_peak_queue(), 7);
    }
}
