//! One function per figure of the paper.
//!
//! Every function returns the [`FigureData`] the corresponding figure
//! plots: the same x axis, one series per curve. Absolute values depend on
//! the simulator substrate; the *shapes* (who wins, where the optima sit,
//! crossover points) are the reproduction targets — see EXPERIMENTS.md.
//!
//! All figures default to the paper's 120-node networks and average over
//! seeded trials; [`FigOpts`] scales nodes/trials down for quick runs.

use bgpsim_topology::region::FailureSpec;
use serde::{Deserialize, Serialize};

use crate::experiment::{run_all_parallel, Experiment, TopologySpec};
use crate::metrics::Aggregate;
use crate::scheme::Scheme;

/// The failure sizes (fraction of nodes) the paper sweeps in Figs 1/2/6–11.
pub const FAILURE_FRACTIONS: [f64; 6] = [0.01, 0.025, 0.05, 0.10, 0.15, 0.20];

/// The MRAI values (seconds) used for the V-curve sweeps (Figs 3–5, 12).
pub const MRAI_SWEEP: [f64; 10] = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.25, 3.0, 4.0];

/// What a figure reports on the y axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Metric {
    /// Mean convergence delay, seconds.
    DelaySecs,
    /// Mean number of update messages.
    Messages,
}

impl Metric {
    /// Extracts this metric's mean from an aggregate.
    pub fn value(self, agg: &Aggregate) -> f64 {
        match self {
            Metric::DelaySecs => agg.mean_delay_secs(),
            Metric::Messages => agg.mean_messages(),
        }
    }

    /// Axis label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Metric::DelaySecs => "convergence delay (s)",
            Metric::Messages => "update messages",
        }
    }
}

/// One curve of a figure.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// `(x, y)` points in x order.
    pub points: Vec<(f64, f64)>,
}

/// A regenerated figure: the series the paper plots, as numbers.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FigureData {
    /// Figure id ("fig01" … "fig13").
    pub id: String,
    /// Human title.
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl FigureData {
    /// The series named `name`, if present.
    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// The x position of the minimum y in the series named `name`
    /// (the "optimal MRAI" of the paper's V-curves).
    ///
    /// Non-finite y values (a NaN mean from an empty aggregate, an
    /// infinity from a degenerate sweep point) are skipped with a warning
    /// rather than compared; returns `None` when the series is missing or
    /// no point has a finite y. Ties keep the last minimal point, matching
    /// `Iterator::min_by`.
    pub fn argmin_of(&self, name: &str) -> Option<f64> {
        let series = self.series_named(name)?;
        let mut skipped = 0usize;
        let mut best: Option<(f64, f64)> = None;
        for &(x, y) in &series.points {
            if !y.is_finite() {
                skipped += 1;
                continue;
            }
            if best.is_none_or(|(_, by)| y <= by) {
                best = Some((x, y));
            }
        }
        if skipped > 0 {
            eprintln!(
                "figures: argmin_of({:?} in {}): skipped {skipped} non-finite point(s)",
                name, self.id
            );
        }
        best.map(|(x, _)| x)
    }
}

/// A figure-regenerating function, as listed by [`all_figures`] (and the
/// extension experiments' `all_extensions`).
pub type FigureFn = fn(FigOpts) -> FigureData;

/// Sizing knobs for figure regeneration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FigOpts {
    /// Nodes (ASes) per topology; the paper uses 120.
    pub nodes: usize,
    /// Seeded trials per point; the paper averages several runs.
    pub trials: u32,
    /// Base seed.
    pub base_seed: u64,
    /// Worker threads (`None` = available parallelism).
    pub threads: Option<usize>,
}

impl Default for FigOpts {
    fn default() -> FigOpts {
        FigOpts {
            nodes: 120,
            trials: 3,
            base_seed: 2006,
            threads: None,
        }
    }
}

impl FigOpts {
    /// A scaled-down configuration for quick runs and tests.
    pub fn quick() -> FigOpts {
        FigOpts {
            nodes: 40,
            trials: 1,
            base_seed: 2006,
            threads: None,
        }
    }
}

/// Sweep failure sizes for a set of schemes on one topology family.
fn failure_sweep(
    id: &str,
    title: &str,
    metric: Metric,
    topology: TopologySpec,
    schemes: &[Scheme],
    fractions: &[f64],
    opts: FigOpts,
) -> FigureData {
    let mut points: Vec<Experiment> = Vec::new();
    for scheme in schemes {
        for &f in fractions {
            points.push(Experiment {
                topology: topology.clone(),
                scheme: scheme.clone(),
                failure: FailureSpec::CenterFraction(f),
                trials: opts.trials,
                base_seed: opts.base_seed,
            });
        }
    }
    let aggs = run_all_parallel(&points, opts.threads);
    let series = schemes
        .iter()
        .enumerate()
        .map(|(si, scheme)| Series {
            name: scheme.name.clone(),
            points: fractions
                .iter()
                .enumerate()
                .map(|(fi, &f)| (f * 100.0, metric.value(&aggs[si * fractions.len() + fi])))
                .collect(),
        })
        .collect();
    FigureData {
        id: id.into(),
        title: title.into(),
        x_label: "failure size (% of nodes)".into(),
        y_label: metric.label().into(),
        series,
    }
}

/// Sweep MRAI values; one series per (label, topology, failure fraction).
fn mrai_sweep(
    id: &str,
    title: &str,
    series_defs: &[(String, TopologySpec, f64)],
    mrais: &[f64],
    queue_batched: bool,
    opts: FigOpts,
) -> FigureData {
    let mut points: Vec<Experiment> = Vec::new();
    for (_, topology, fraction) in series_defs {
        for &m in mrais {
            let scheme = if queue_batched {
                Scheme::batching(m)
            } else {
                Scheme::constant_mrai(m)
            };
            points.push(Experiment {
                topology: topology.clone(),
                scheme,
                failure: FailureSpec::CenterFraction(*fraction),
                trials: opts.trials,
                base_seed: opts.base_seed,
            });
        }
    }
    let aggs = run_all_parallel(&points, opts.threads);
    let series = series_defs
        .iter()
        .enumerate()
        .map(|(si, (name, _, _))| Series {
            name: name.clone(),
            points: mrais
                .iter()
                .enumerate()
                .map(|(mi, &m)| (m, aggs[si * mrais.len() + mi].mean_delay_secs()))
                .collect(),
        })
        .collect();
    FigureData {
        id: id.into(),
        title: title.into(),
        x_label: "MRAI (s)".into(),
        y_label: "convergence delay (s)".into(),
        series,
    }
}

/// Fig 1: convergence delay vs failure size for MRAI ∈ {0.5, 1.25, 2.25} s.
pub fn fig01(opts: FigOpts) -> FigureData {
    failure_sweep(
        "fig01",
        "Convergence delay for different sized failures",
        Metric::DelaySecs,
        TopologySpec::seventy_thirty(opts.nodes),
        &[
            Scheme::constant_mrai(0.5),
            Scheme::constant_mrai(1.25),
            Scheme::constant_mrai(2.25),
        ],
        &FAILURE_FRACTIONS,
        opts,
    )
}

/// Fig 2: number of generated messages for the same three MRAI values.
pub fn fig02(opts: FigOpts) -> FigureData {
    failure_sweep(
        "fig02",
        "Number of generated messages for different MRAI values",
        Metric::Messages,
        TopologySpec::seventy_thirty(opts.nodes),
        &[
            Scheme::constant_mrai(0.5),
            Scheme::constant_mrai(1.25),
            Scheme::constant_mrai(2.25),
        ],
        &FAILURE_FRACTIONS,
        opts,
    )
}

/// Fig 3: delay vs MRAI (V-curves) for 1%, 5% and 10% failures.
pub fn fig03(opts: FigOpts) -> FigureData {
    let t = TopologySpec::seventy_thirty(opts.nodes);
    mrai_sweep(
        "fig03",
        "Variation in convergence delay with MRAI",
        &[
            ("1% failure".into(), t.clone(), 0.01),
            ("5% failure".into(), t.clone(), 0.05),
            ("10% failure".into(), t, 0.10),
        ],
        &MRAI_SWEEP,
        false,
        opts,
    )
}

/// Fig 4: delay vs MRAI for a 5% failure under the three degree
/// distributions with equal average degree (50-50, 70-30, 85-15).
pub fn fig04(opts: FigOpts) -> FigureData {
    mrai_sweep(
        "fig04",
        "Convergence delay for different topologies",
        &[
            ("50-50".into(), TopologySpec::fifty_fifty(opts.nodes), 0.05),
            (
                "70-30".into(),
                TopologySpec::seventy_thirty(opts.nodes),
                0.05,
            ),
            (
                "85-15".into(),
                TopologySpec::eighty_five_fifteen(opts.nodes),
                0.05,
            ),
        ],
        &MRAI_SWEEP,
        false,
        opts,
    )
}

/// Fig 5: effect of average degree — 50-50 at average degree 3.8 vs 7.6.
pub fn fig05(opts: FigOpts) -> FigureData {
    mrai_sweep(
        "fig05",
        "Effect of average degree on convergence delay",
        &[
            (
                "avg degree 3.8".into(),
                TopologySpec::fifty_fifty(opts.nodes),
                0.05,
            ),
            (
                "avg degree 7.6".into(),
                TopologySpec::fifty_fifty_dense(opts.nodes),
                0.05,
            ),
        ],
        &MRAI_SWEEP,
        false,
        opts,
    )
}

/// Fig 6: degree-dependent MRAI (low/high assignments and both constants).
pub fn fig06(opts: FigOpts) -> FigureData {
    failure_sweep(
        "fig06",
        "Effect of degree dependent MRAI",
        Metric::DelaySecs,
        TopologySpec::seventy_thirty(opts.nodes),
        &[
            Scheme::degree_dependent(0.5, 2.25, 8),
            Scheme::degree_dependent(2.25, 0.5, 8),
            Scheme::constant_mrai(0.5),
            Scheme::constant_mrai(2.25),
        ],
        &FAILURE_FRACTIONS,
        opts,
    )
}

/// Fig 7: the dynamic MRAI scheme vs the three constants.
pub fn fig07(opts: FigOpts) -> FigureData {
    failure_sweep(
        "fig07",
        "Effect of dynamic MRAI",
        Metric::DelaySecs,
        TopologySpec::seventy_thirty(opts.nodes),
        &[
            Scheme::dynamic_default().named("dynamic"),
            Scheme::constant_mrai(0.5),
            Scheme::constant_mrai(1.25),
            Scheme::constant_mrai(2.25),
        ],
        &FAILURE_FRACTIONS,
        opts,
    )
}

/// Fig 8: effect of `upTh` (with `downTh` = 0).
pub fn fig08(opts: FigOpts) -> FigureData {
    failure_sweep(
        "fig08",
        "Effect of upTh on convergence delay",
        Metric::DelaySecs,
        TopologySpec::seventy_thirty(opts.nodes),
        &[
            Scheme::dynamic(&[0.5, 1.25, 2.25], 0.05, 0.0).named("upTh=0.05"),
            Scheme::dynamic(&[0.5, 1.25, 2.25], 0.25, 0.0).named("upTh=0.25"),
            Scheme::dynamic(&[0.5, 1.25, 2.25], 0.65, 0.0).named("upTh=0.65"),
            Scheme::dynamic(&[0.5, 1.25, 2.25], 1.25, 0.0).named("upTh=1.25"),
        ],
        &FAILURE_FRACTIONS,
        opts,
    )
}

/// Fig 9: effect of `downTh` (with `upTh` = 0.65 s).
pub fn fig09(opts: FigOpts) -> FigureData {
    failure_sweep(
        "fig09",
        "Effect of downTh on convergence delay",
        Metric::DelaySecs,
        TopologySpec::seventy_thirty(opts.nodes),
        &[
            Scheme::dynamic(&[0.5, 1.25, 2.25], 0.65, 0.0).named("downTh=0"),
            Scheme::dynamic(&[0.5, 1.25, 2.25], 0.65, 0.05).named("downTh=0.05"),
            Scheme::dynamic(&[0.5, 1.25, 2.25], 0.65, 0.2).named("downTh=0.2"),
            Scheme::dynamic(&[0.5, 1.25, 2.25], 0.65, 0.5).named("downTh=0.5"),
        ],
        &FAILURE_FRACTIONS,
        opts,
    )
}

/// Fig 10: batching (MRAI = 0.5 s) vs dynamic vs constants, plus the
/// batching+dynamic combination.
pub fn fig10(opts: FigOpts) -> FigureData {
    failure_sweep(
        "fig10",
        "Performance of batching scheme",
        Metric::DelaySecs,
        TopologySpec::seventy_thirty(opts.nodes),
        &[
            Scheme::batching(0.5).named("batching"),
            Scheme::dynamic_default().named("dynamic"),
            Scheme::batching_plus_dynamic(),
            Scheme::constant_mrai(0.5),
            Scheme::constant_mrai(2.25),
        ],
        &FAILURE_FRACTIONS,
        opts,
    )
}

/// Fig 11: message counts of the batching scheme vs the constants.
pub fn fig11(opts: FigOpts) -> FigureData {
    failure_sweep(
        "fig11",
        "Number of messages generated by the batching scheme",
        Metric::Messages,
        TopologySpec::seventy_thirty(opts.nodes),
        &[
            Scheme::batching(0.5).named("batching"),
            Scheme::constant_mrai(0.5),
            Scheme::constant_mrai(2.25),
        ],
        &FAILURE_FRACTIONS,
        opts,
    )
}

/// Fig 12: effect of batching across MRAI values (5% failure, 70-30).
pub fn fig12(opts: FigOpts) -> FigureData {
    let t = TopologySpec::seventy_thirty(opts.nodes);
    let mut fifo = mrai_sweep(
        "fig12",
        "Effect of batching with different MRAIs",
        &[("no batching".into(), t.clone(), 0.05)],
        &MRAI_SWEEP,
        false,
        opts,
    );
    let batched = mrai_sweep(
        "fig12",
        "Effect of batching with different MRAIs",
        &[("batching".into(), t, 0.05)],
        &MRAI_SWEEP,
        true,
        opts,
    );
    fifo.series.extend(batched.series);
    fifo
}

/// Fig 13: batching and dynamic MRAI on the realistic (multi-router,
/// Internet-derived degrees) topologies. The paper found optimal MRAIs of
/// 0.5 s (small failures) and 3.5 s (10% failures) there, so the dynamic
/// levels span 0.5–3.5 s.
pub fn fig13(opts: FigOpts) -> FigureData {
    // Multi-router topologies are several times larger than the AS count;
    // sweep a reduced fraction list (the paper shows 1–10%).
    failure_sweep(
        "fig13",
        "Convergence delay of realistic topologies",
        Metric::DelaySecs,
        TopologySpec::realistic(opts.nodes),
        &[
            Scheme::batching(0.5).named("batching"),
            Scheme::dynamic(&[0.5, 1.25, 3.5], 0.65, 0.05).named("dynamic"),
            Scheme::constant_mrai(0.5),
            Scheme::constant_mrai(3.5),
        ],
        &[0.01, 0.025, 0.05, 0.10],
        opts,
    )
}

/// Trace-derived companion figure (no direct paper counterpart):
/// transient invalid-route episodes vs failure size for batching against
/// plain FIFO processing, both at MRAI = 0.5 s. Quantifies the paper's §5
/// claim that deleting stale updates keeps invalid intermediate routes
/// from ever being installed: each y value counts best routes some node
/// installed during re-convergence and later replaced or withdrew,
/// reconstructed by [`Timeline`](crate::trace::Timeline) from a traced
/// trial. Not part of [`all_figures`] — the goldens pin the paper's
/// thirteen — but exercised by the `trace_timeline` example.
pub fn fig_transient_routes(opts: FigOpts) -> FigureData {
    let topology = TopologySpec::seventy_thirty(opts.nodes);
    let schemes = [
        Scheme::batching(0.5).named("batching"),
        Scheme::constant_mrai(0.5),
    ];
    let series = schemes
        .iter()
        .map(|scheme| Series {
            name: scheme.name.clone(),
            points: FAILURE_FRACTIONS
                .iter()
                .map(|&f| {
                    let exp = Experiment {
                        topology: topology.clone(),
                        scheme: scheme.clone(),
                        failure: FailureSpec::CenterFraction(f),
                        trials: opts.trials,
                        base_seed: opts.base_seed,
                    };
                    let total: u64 = (0..opts.trials)
                        .map(|t| exp.run_trial_traced(t, None).timeline().transient_routes())
                        .sum();
                    (f * 100.0, total as f64 / opts.trials.max(1) as f64)
                })
                .collect(),
        })
        .collect();
    FigureData {
        id: "fig_transient_routes".into(),
        title: "Transient invalid routes installed during re-convergence".into(),
        x_label: "failure size (% of nodes)".into(),
        y_label: "transient routes (mean per trial)".into(),
        series,
    }
}

/// Full-table companion figure (no direct paper counterpart): convergence
/// delay and transient invalid-route episodes of a central-region *burst
/// withdrawal* as the routing table grows from the paper's one prefix per
/// AS towards Internet scale. Each x value is a network-wide table size
/// (power-law split across ASes, [`FullTableSpec`](crate::FullTableSpec));
/// the failed region's origins stay alive and withdraw their whole prefix
/// blocks in one event storm. Not part of [`all_figures`] — the goldens
/// pin the paper's thirteen — the `fig_fulltable` bin drives it instead.
pub fn fig_fulltable(opts: FigOpts, sizes: &[u32]) -> FigureData {
    use bgpsim_des::RngStreams;
    let scheme_base = Scheme::batching(0.5);
    let mut delay = Series {
        name: "convergence delay (s)".into(),
        points: Vec::new(),
    };
    let mut transient = Series {
        name: "transient invalid episodes".into(),
        points: Vec::new(),
    };
    for &size in sizes {
        let scheme = scheme_base
            .clone()
            .with_full_table(crate::FullTableSpec::internet_like(size));
        let spec = TopologySpec::seventy_thirty(opts.nodes);
        let mut delay_sum = 0.0;
        let mut transient_sum = 0u64;
        for trial in 0..opts.trials {
            let streams = RngStreams::new(opts.base_seed);
            let mut topo_rng = streams.stream("topology", u64::from(trial));
            let topo = spec.generate(&mut topo_rng);
            use rand::Rng;
            let sim_seed: u64 = streams.stream("sim-seed", u64::from(trial)).gen();
            let mut net =
                crate::Network::new(topo, crate::SimConfig::from_scheme(&scheme, sim_seed));
            net.run_initial_convergence();
            // Trace only the storm's re-convergence, like
            // `Experiment::run_trial_traced`.
            net.set_trace_sink(crate::trace::TraceSink::memory(
                crate::trace::DEFAULT_MEMORY_CAPACITY,
            ));
            net.inject_burst_withdrawal(&FailureSpec::CenterFraction(0.1));
            let stats = net.run_to_quiescence();
            delay_sum += stats.convergence_delay.as_secs_f64();
            let events = net.take_trace_events();
            transient_sum += crate::trace::Timeline::from_events(&events).transient_routes();
        }
        let trials = f64::from(opts.trials.max(1));
        delay.points.push((f64::from(size), delay_sum / trials));
        transient
            .points
            .push((f64::from(size), transient_sum as f64 / trials));
    }
    FigureData {
        id: "fig_fulltable".into(),
        title: "Burst-withdrawal convergence vs routing-table size".into(),
        x_label: "table size (prefixes)".into(),
        y_label: "delay (s) / transient episodes".into(),
        series: vec![delay, transient],
    }
}

/// Every figure in order, with its regenerating function.
pub fn all_figures() -> Vec<(&'static str, FigureFn)> {
    vec![
        ("fig01", fig01),
        ("fig02", fig02),
        ("fig03", fig03),
        ("fig04", fig04),
        ("fig05", fig05),
        ("fig06", fig06),
        ("fig07", fig07),
        ("fig08", fig08),
        ("fig09", fig09),
        ("fig10", fig10),
        ("fig11", fig11),
        ("fig12", fig12),
        ("fig13", fig13),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig01_quick_has_expected_shape() {
        let data = fig01(FigOpts {
            nodes: 30,
            trials: 1,
            base_seed: 1,
            threads: None,
        });
        assert_eq!(data.series.len(), 3);
        for s in &data.series {
            assert_eq!(s.points.len(), FAILURE_FRACTIONS.len());
            assert!(s.points.iter().all(|&(_, y)| y >= 0.0));
        }
        assert_eq!(data.series[0].points[0].0, 1.0, "x is % of nodes");
    }

    #[test]
    fn fig_fulltable_scales_with_table_size() {
        let data = fig_fulltable(
            FigOpts {
                nodes: 20,
                trials: 1,
                base_seed: 5,
                threads: None,
            },
            &[20, 200],
        );
        assert_eq!(data.series.len(), 2);
        for s in &data.series {
            assert_eq!(s.points.len(), 2);
            assert_eq!(s.points[0].0, 20.0);
            assert_eq!(s.points[1].0, 200.0);
            assert!(s.points.iter().all(|&(_, y)| y >= 0.0));
        }
    }

    #[test]
    fn figure_helpers() {
        let data = FigureData {
            id: "t".into(),
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![Series {
                name: "a".into(),
                points: vec![(1.0, 5.0), (2.0, 3.0), (3.0, 4.0)],
            }],
        };
        assert_eq!(data.argmin_of("a"), Some(2.0));
        assert!(data.series_named("missing").is_none());
        assert!(data.argmin_of("missing").is_none());
    }

    #[test]
    fn argmin_skips_non_finite_points() {
        let fig = |points: Vec<(f64, f64)>| FigureData {
            id: "t".into(),
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![Series {
                name: "a".into(),
                points,
            }],
        };
        // A NaN mean (empty aggregate) must not panic or win the argmin.
        let data = fig(vec![
            (1.0, f64::NAN),
            (2.0, 3.0),
            (3.0, f64::INFINITY),
            (4.0, 7.0),
        ]);
        assert_eq!(data.argmin_of("a"), Some(2.0));
        // All-non-finite series: no argmin rather than a panic.
        assert_eq!(fig(vec![(1.0, f64::NAN)]).argmin_of("a"), None);
        // Ties keep the last minimal point (Iterator::min_by semantics).
        assert_eq!(fig(vec![(1.0, 2.0), (5.0, 2.0)]).argmin_of("a"), Some(5.0));
    }

    #[test]
    fn transient_routes_figure_shows_batching_win() {
        let data = fig_transient_routes(FigOpts {
            nodes: 24,
            trials: 1,
            base_seed: 3,
            threads: None,
        });
        assert_eq!(data.series.len(), 2);
        for s in &data.series {
            assert_eq!(s.points.len(), FAILURE_FRACTIONS.len());
            assert!(s.points.iter().all(|&(_, y)| y.is_finite() && y >= 0.0));
        }
    }

    #[test]
    fn all_figures_enumerates_thirteen() {
        assert_eq!(all_figures().len(), 13);
    }
}
