//! One benchmark run: the serial reference (sharded workload only), the
//! measured trials for the requested seconds, the optional traced trial,
//! the output check on each, and the medians.
//!
//! Trials come from a caller-supplied function so that the binary can give
//! every trial a fresh process (its own `VmHWM`, a cold worker pool) while
//! the self-tests run them in-process.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::check::{compare, Outcome};
use crate::report::{finalize_layers, median, END_TO_END};
use crate::workload::{TrialOut, Workload};

/// Which trial to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrialKind {
    /// An untraced trial; end-to-end metrics come from these.
    Measured,
    /// The one traced trial: spans, memory trace sink, single-layer probes.
    Traced,
    /// The sharded workload's inputs run on one shard.
    SerialReference,
}

/// How long to measure and how many trials to allow.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Keep starting measured trials until this many seconds have passed.
    pub seconds: f64,
    /// Measured trials to run however long they take.
    pub min_trials: usize,
    /// Measured trials never to exceed.
    pub max_trials: usize,
    /// Run the traced trial and report per-layer metrics.
    pub trace: bool,
}

/// A finished run: the check's verdict, the metrics, and the raw trials.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Trials attempted (reference and traced trials included).
    pub attempted: u64,
    /// Trials that panicked, failed a check, or disagreed with the reference.
    pub failed: u64,
    /// Why each failed trial failed.
    pub problems: Vec<String>,
    /// Measured trials that passed the check; the medians come from these.
    pub measured: Vec<TrialOut>,
    /// The traced trial, when one ran and passed.
    pub traced: Option<TrialOut>,
    /// Where the reference came from.
    pub reference_source: String,
    /// `(name, unit, value)`: every end-to-end metric, or with tracing
    /// every per-layer metric.
    pub metrics: Vec<(String, String, f64)>,
}

impl Summary {
    /// Whether every trial passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.measured.is_empty()
    }
}

/// Runs the benchmark for `workload`. `pinned` is the stored reference for
/// this seed, if any; `trial` runs one trial of the given kind.
pub fn run_bench(
    workload: Workload,
    plan: &Plan,
    pinned: Option<Vec<Outcome>>,
    mut trial: impl FnMut(TrialKind) -> Result<TrialOut, String>,
) -> Summary {
    let mut s = Summary {
        reference_source: if pinned.is_some() {
            "pinned"
        } else {
            "first trial"
        }
        .into(),
        ..Summary::default()
    };
    let mut reference = pinned;
    let mut judge = |s: &mut Summary, kind: TrialKind, reference: &mut Option<Vec<Outcome>>| {
        s.attempted += 1;
        let verdict = trial(kind).and_then(|out| {
            if !out.errors.is_empty() {
                return Err(out.errors.join("; "));
            }
            match reference {
                Some(r) => compare(&out.outcomes, r)?,
                None => *reference = Some(out.outcomes.clone()),
            }
            Ok(out)
        });
        verdict.map_err(|e| {
            s.failed += 1;
            s.problems
                .push(format!("{kind:?} trial {}: {e}", s.attempted));
        })
    };

    if workload.sharded() {
        if reference.is_none() {
            s.reference_source = "serial run".into();
        }
        // Checked against the pinned reference when there is one, and
        // otherwise adopted as the reference itself.
        let _ = judge(&mut s, TrialKind::SerialReference, &mut reference);
    }
    let started = Instant::now();
    while s.measured.len() + (s.failed as usize) < plan.max_trials
        && (s.measured.len() < plan.min_trials || started.elapsed().as_secs_f64() < plan.seconds)
    {
        if let Ok(out) = judge(&mut s, TrialKind::Measured, &mut reference) {
            s.measured.push(out);
        }
    }
    let samples =
        |f: fn(&TrialOut) -> f64| -> f64 { median(&s.measured.iter().map(f).collect::<Vec<_>>()) };
    let e2e: BTreeMap<&str, f64> = [
        ("wall_s", samples(|t| t.wall_s)),
        ("setup_s", samples(|t| t.setup_s)),
        ("reconverge_s", samples(|t| t.reconverge_s)),
        (
            "events_per_s",
            samples(|t| t.events as f64 / t.reconverge_s),
        ),
        ("peak_rss_mb", samples(|t| t.peak_rss_kb as f64 / 1024.0)),
    ]
    .into_iter()
    .collect();

    if !plan.trace {
        s.metrics = END_TO_END
            .iter()
            .map(|&(name, unit, _)| (name.to_string(), unit.to_string(), e2e[name]))
            .collect();
        return s;
    }
    s.traced = judge(&mut s, TrialKind::Traced, &mut reference).ok();
    let mut raw = s
        .traced
        .as_ref()
        .map(|t| t.layers.clone())
        .unwrap_or_default();
    raw.insert("trace.untraced_reconverge_s".into(), e2e["reconverge_s"]);
    raw.insert("bench.attempted".into(), s.attempted as f64);
    raw.insert("bench.failed".into(), s.failed as f64);
    raw.insert("bench.samples".into(), s.measured.len() as f64);
    let layers = finalize_layers(&raw);
    s.metrics = crate::report::PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit.to_string(), layers[name]))
        .collect();
    s
}
