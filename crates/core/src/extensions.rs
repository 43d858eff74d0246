//! Extension experiments beyond the paper's 13 figures.
//!
//! The paper's discussion sections sketch several follow-ups; each function
//! here regenerates one of them as a [`FigureData`] so they plug into the
//! same reporting pipeline:
//!
//! * [`ext_size_sensitivity`] — the §4 verification note: the trends hold
//!   for 60- and 240-node networks, not just 120.
//! * [`ext_detector_comparison`] — §4.3 reports trying a processor-
//!   utilization detector ("promising") and an update-count detector
//!   ("not very successful"); compare all three.
//! * [`ext_oracle`] — §5 future work: an oracle that instantly knows the
//!   failure size and sets the optimal MRAI; the upper bound for any
//!   failure-size-estimation scheme.
//! * [`ext_expedite`] — the Deshpande & Sikdar timer-cancelling scheme the
//!   paper cites as related work \[12\]: less delay, many more messages.
//! * [`ext_mrai_scope`] — per-peer vs the RFC-literal per-destination MRAI
//!   (§2 calls the latter the unscalable ideal).
//! * [`ext_batching_variants`] — §5 future work on improving batching:
//!   oldest-destination-first vs largest-backlog-first, plus the TCP-batch
//!   baseline.
//! * [`ext_ablations`] — jitter off, WRATE on, delayed failure detection:
//!   the model knobs DESIGN.md calls out.

use bgpsim_des::SimDuration;
use bgpsim_topology::region::FailureSpec;

use crate::experiment::{Experiment, TopologySpec};
use crate::figures::{failure_sweep, on_topology, FigOpts, FigureData, FigureFn, Metric, Series};
use crate::scheme::Scheme;

/// Failure sizes used by the extension sweeps (a subset of the paper's).
pub const EXT_FRACTIONS: [f64; 4] = [0.01, 0.05, 0.10, 0.20];

/// Network-size sensitivity: the same scheme on 60-, 120- and 240-node
/// 70-30 topologies (the paper verified its 120-node trends at both other
/// sizes; §3.1 explains why 120 was the workhorse).
pub fn ext_size_sensitivity(opts: FigOpts) -> FigureData {
    let entries: Vec<(Scheme, TopologySpec)> = [60usize, 120, 240]
        .iter()
        .map(|&n| {
            (
                Scheme::constant_mrai(1.25).named(&format!("{n} nodes")),
                TopologySpec::seventy_thirty(n),
            )
        })
        .collect();
    failure_sweep(
        "ext-size",
        "Network-size sensitivity (MRAI = 1.25 s)",
        Metric::DelaySecs,
        &entries,
        &EXT_FRACTIONS,
        opts,
    )
}

/// The three overload detectors for the dynamic scheme.
pub fn ext_detector_comparison(opts: FigOpts) -> FigureData {
    use crate::scheme::{MraiAssignment, SimOverrides};
    use bgpsim_bgp::config::MraiPolicy;
    use bgpsim_bgp::dynmrai::{Detector, DynamicMraiConfig};
    use bgpsim_bgp::queue::QueueDiscipline;

    let levels = vec![
        SimDuration::from_millis(500),
        SimDuration::from_millis(1250),
        SimDuration::from_millis(2250),
    ];
    let mk = |name: &str, detector: Detector| Scheme {
        name: name.into(),
        mrai: MraiAssignment::Uniform(MraiPolicy::Dynamic(DynamicMraiConfig {
            levels: levels.clone(),
            detector,
        })),
        queue: QueueDiscipline::Fifo,
        overrides: SimOverrides::default(),
    };
    let entries = on_topology(
        TopologySpec::seventy_thirty(opts.nodes),
        [
            mk(
                "unfinished work",
                Detector::UnfinishedWork {
                    up: SimDuration::from_millis(650),
                    down: SimDuration::from_millis(50),
                    mean_processing: SimDuration::from_micros(15_500),
                },
            ),
            mk(
                "utilization",
                Detector::Utilization {
                    up: 0.8,
                    down: 0.15,
                },
            ),
            mk("update count", Detector::UpdateCount { up: 40, down: 4 }),
            Scheme::constant_mrai(0.5),
        ],
    );
    failure_sweep(
        "ext-detectors",
        "Dynamic-MRAI overload detectors",
        Metric::DelaySecs,
        &entries,
        &EXT_FRACTIONS,
        opts,
    )
}

/// The failure-size oracle vs the dynamic scheme and the constants.
pub fn ext_oracle(opts: FigOpts) -> FigureData {
    let entries = on_topology(
        TopologySpec::seventy_thirty(opts.nodes),
        [
            Scheme::oracle(&[(0.025, 0.5), (0.075, 1.25), (1.0, 2.25)]),
            Scheme::dynamic_default().named("dynamic"),
            Scheme::constant_mrai(0.5),
            Scheme::constant_mrai(2.25),
        ],
    );
    failure_sweep(
        "ext-oracle",
        "Failure-size-aware oracle MRAI (paper §5 future work)",
        Metric::DelaySecs,
        &entries,
        &EXT_FRACTIONS,
        opts,
    )
}

/// Deshpande & Sikdar's timer-cancelling scheme: delay (left metric) — use
/// [`ext_expedite_messages`] for the message-count side of the trade-off.
pub fn ext_expedite(opts: FigOpts) -> FigureData {
    let entries = on_topology(
        TopologySpec::seventy_thirty(opts.nodes),
        [
            Scheme::constant_mrai(2.25),
            Scheme::constant_mrai(2.25).with_expedited_improvements(),
            Scheme::constant_mrai(0.5),
        ],
    );
    failure_sweep(
        "ext-expedite",
        "Expedited improvements (Deshpande & Sikdar [12]): delay",
        Metric::DelaySecs,
        &entries,
        &EXT_FRACTIONS,
        opts,
    )
}

/// The message-count cost of expedited improvements (the paper notes the
/// related-work schemes raise the update count "considerably").
pub fn ext_expedite_messages(opts: FigOpts) -> FigureData {
    let entries = on_topology(
        TopologySpec::seventy_thirty(opts.nodes),
        [
            Scheme::constant_mrai(2.25),
            Scheme::constant_mrai(2.25).with_expedited_improvements(),
        ],
    );
    failure_sweep(
        "ext-expedite-msgs",
        "Expedited improvements: message cost",
        Metric::Messages,
        &entries,
        &EXT_FRACTIONS,
        opts,
    )
}

/// Per-peer vs per-destination MRAI scope.
pub fn ext_mrai_scope(opts: FigOpts) -> FigureData {
    use bgpsim_bgp::mrai::MraiScope;
    let entries = on_topology(
        TopologySpec::seventy_thirty(opts.nodes),
        [
            Scheme::constant_mrai(2.25).named("per-peer"),
            Scheme::constant_mrai(2.25)
                .with_mrai_scope(MraiScope::PerDestination)
                .named("per-destination"),
        ],
    );
    failure_sweep(
        "ext-scope",
        "MRAI scope: per-peer vs per-destination (RFC-literal)",
        Metric::DelaySecs,
        &entries,
        &EXT_FRACTIONS,
        opts,
    )
}

/// Batching variants: oldest-first (the paper's), largest-backlog-first
/// (future-work improvement), and the TCP-buffer baseline.
pub fn ext_batching_variants(opts: FigOpts) -> FigureData {
    use bgpsim_bgp::queue::QueueDiscipline;
    let mut largest = Scheme::batching(0.5).named("batching (largest-first)");
    largest.queue = QueueDiscipline::BatchedLargestFirst;
    let entries = on_topology(
        TopologySpec::seventy_thirty(opts.nodes),
        [
            Scheme::batching(0.5).named("batching (oldest-first)"),
            largest,
            Scheme::tcp_batch(0.5, 32),
            Scheme::constant_mrai(0.5).named("fifo"),
        ],
    );
    failure_sweep(
        "ext-batching",
        "Batching variants (paper §5 future work)",
        Metric::DelaySecs,
        &entries,
        &EXT_FRACTIONS,
        opts,
    )
}

/// Model ablations: jitter off, WRATE on, 2 s failure-detection delay.
pub fn ext_ablations(opts: FigOpts) -> FigureData {
    let entries = on_topology(
        TopologySpec::seventy_thirty(opts.nodes),
        [
            Scheme::constant_mrai(1.25).named("baseline"),
            Scheme::constant_mrai(1.25)
                .with_jitter(false)
                .named("no jitter"),
            Scheme::constant_mrai(1.25)
                .with_wrate(true)
                .named("WRATE on"),
            Scheme::constant_mrai(1.25)
                .with_detection_delay(SimDuration::from_secs(2))
                .named("2 s detection"),
        ],
    );
    failure_sweep(
        "ext-ablations",
        "Model ablations (MRAI = 1.25 s)",
        Metric::DelaySecs,
        &entries,
        &EXT_FRACTIONS,
        opts,
    )
}

/// Policy impact (Labovitz et al. \[6\], the paper's related work): the same
/// failure sweep with and without Gao–Rexford policies. Valley-free export
/// prunes the alternate paths BGP hunts through, cutting both messages and
/// delay — at the price of reduced reachability.
pub fn ext_policy(opts: FigOpts) -> FigureData {
    // A hierarchical (Tier-1 clique) topology so valley-free reachability
    // is total and the comparison isolates path-exploration pruning.
    let entries = on_topology(
        TopologySpec::hierarchical(opts.nodes),
        [
            Scheme::constant_mrai(0.5).named("no policy"),
            Scheme::constant_mrai(0.5)
                .with_policy()
                .named("Gao-Rexford"),
            Scheme::constant_mrai(2.25).named("no policy (2.25)"),
            Scheme::constant_mrai(2.25)
                .with_policy()
                .named("Gao-Rexford (2.25)"),
        ],
    );
    failure_sweep(
        "ext-policy",
        "Policy impact on convergence (Labovitz et al. [6])",
        Metric::DelaySecs,
        &entries,
        &EXT_FRACTIONS,
        opts,
    )
}

/// Failure detection: the paper's instant link-layer notification vs BGP
/// hold-timer expiry (RFC 1771 default 90 s, and a tuned 9 s variant).
/// With the deployed default, *detection* dwarfs re-convergence for all
/// but the largest failures — the justification for the paper's implicit
/// fast-detection assumption.
pub fn ext_detection(opts: FigOpts) -> FigureData {
    let entries = on_topology(
        TopologySpec::seventy_thirty(opts.nodes),
        [
            Scheme::constant_mrai(1.25).named("instant detection"),
            Scheme::constant_mrai(1.25)
                .with_hold_timer(SimDuration::from_secs(9))
                .named("hold timer 9 s"),
            Scheme::constant_mrai(1.25)
                .with_hold_timer(SimDuration::from_secs(90))
                .named("hold timer 90 s"),
        ],
    );
    failure_sweep(
        "ext-detection",
        "Failure-detection models",
        Metric::DelaySecs,
        &entries,
        &EXT_FRACTIONS,
        opts,
    )
}

/// Destination-count scaling (paper §5: the Internet's ~200k destinations
/// mean a large failure "will generate a huge number of updates"): the
/// same failure sweep with 1, 4 and 8 prefixes per AS, with and without
/// batching.
pub fn ext_destinations(opts: FigOpts) -> FigureData {
    let fifo = [1usize, 4, 8].map(|k| {
        Scheme::constant_mrai(0.5)
            .with_prefixes_per_as(k)
            .named(&format!("fifo, {k} pfx/AS"))
    });
    let batching = Scheme::batching(0.5)
        .with_prefixes_per_as(8)
        .named("batching, 8 pfx/AS");
    let entries = on_topology(
        TopologySpec::seventy_thirty(opts.nodes),
        fifo.into_iter().chain([batching]),
    );
    failure_sweep(
        "ext-destinations",
        "Destination-count scaling (paper §5)",
        Metric::DelaySecs,
        &entries,
        &[0.01, 0.05, 0.10],
        opts,
    )
}

/// The MRAI = 1.25 s centre failure on 70-30 networks that
/// [`ext_updown`] and [`ext_link_failures`] build their trials from.
fn baseline_point(opts: FigOpts, fraction: f64) -> Experiment {
    Experiment {
        topology: TopologySpec::seventy_thirty(opts.nodes),
        scheme: Scheme::constant_mrai(1.25),
        failure: FailureSpec::CenterFraction(fraction),
        trials: opts.trials,
        base_seed: opts.base_seed,
    }
}

/// Failure vs recovery convergence (the Tup/Tdown asymmetry of Labovitz
/// et al. \[5\], which the paper builds on): for each failure size, measure
/// the re-convergence after the failure (Tdown, with path hunting) and
/// after the failed routers come back (Tup, monotone new information).
pub fn ext_updown(opts: FigOpts) -> FigureData {
    let mut down_series = Series {
        name: "failure (Tdown)".into(),
        points: Vec::new(),
    };
    let mut up_series = Series {
        name: "recovery (Tup)".into(),
        points: Vec::new(),
    };
    for &f in &EXT_FRACTIONS {
        let exp = baseline_point(opts, f);
        let (mut down_sum, mut up_sum) = (0.0, 0.0);
        for trial in 0..opts.trials {
            let mut net = exp.build_network(trial);
            net.run_initial_convergence();
            let failed = net.inject_failure(&exp.failure);
            let down = net.run_to_quiescence();
            net.revive_routers(&failed);
            let up = net.run_to_quiescence();
            down_sum += down.convergence_delay.as_secs_f64();
            up_sum += up.convergence_delay.as_secs_f64();
        }
        down_series
            .points
            .push((f * 100.0, down_sum / f64::from(opts.trials)));
        up_series
            .points
            .push((f * 100.0, up_sum / f64::from(opts.trials)));
    }
    FigureData {
        id: "ext-updown".into(),
        title: "Failure vs recovery convergence (Tdown vs Tup, Labovitz [5])".into(),
        x_label: "failure size (% of nodes)".into(),
        y_label: "convergence delay (s)".into(),
        series: vec![down_series, up_series],
    }
}

/// Router-region failures (the paper's model) vs link-only failures of
/// the same central region (the scenario §3.2 sets aside as unlikely):
/// link failures keep every prefix alive, so the re-convergence is pure
/// rerouting without the withdrawal storms of dead destinations.
pub fn ext_link_failures(opts: FigOpts) -> FigureData {
    use bgpsim_topology::region::central_link_fraction;

    let mut routers_series = Series {
        name: "router failures".into(),
        points: Vec::new(),
    };
    let mut links_series = Series {
        name: "link failures".into(),
        points: Vec::new(),
    };
    for &f in &EXT_FRACTIONS {
        let exp = baseline_point(opts, f);
        let (mut router_sum, mut link_sum) = (0.0, 0.0);
        for trial in 0..opts.trials {
            router_sum += exp.run_trial(trial).convergence_delay.as_secs_f64();

            let mut net = exp.build_network(trial);
            net.run_initial_convergence();
            let links = central_link_fraction(net.topology(), f);
            net.inject_link_failure(&links);
            link_sum += net.run_to_quiescence().convergence_delay.as_secs_f64();
        }
        routers_series
            .points
            .push((f * 100.0, router_sum / f64::from(opts.trials)));
        links_series
            .points
            .push((f * 100.0, link_sum / f64::from(opts.trials)));
    }
    FigureData {
        id: "ext-links".into(),
        title: "Router-region vs link-only failures (paper §3.2)".into(),
        x_label: "failed fraction (% of routers / % of links)".into(),
        y_label: "convergence delay (s)".into(),
        series: vec![routers_series, links_series],
    }
}

/// Route-flap damping vs the paper's schemes. Damping is the other
/// deployed answer to update storms; Mao et al. (SIGCOMM 2002) showed it
/// *exacerbates* post-failure convergence because legitimate path-hunting
/// alternates get suppressed. Compare undamped BGP, damped BGP, and the
/// paper's batching under the same failures.
pub fn ext_damping(opts: FigOpts) -> FigureData {
    use bgpsim_bgp::damping::DampingConfig;
    let entries = on_topology(
        TopologySpec::seventy_thirty(opts.nodes),
        [
            Scheme::constant_mrai(2.25),
            Scheme::constant_mrai(2.25).with_damping(DampingConfig::paper_scale()),
            Scheme::batching(0.5).named("batching"),
        ],
    );
    failure_sweep(
        "ext-damping",
        "Route-flap damping (RFC 2439) vs the paper's schemes",
        Metric::DelaySecs,
        &entries,
        &EXT_FRACTIONS,
        opts,
    )
}

/// iBGP full mesh (the paper's implicit model) vs per-AS route reflectors
/// (RFC 4456) on the realistic multi-router topologies: reflection scales
/// the session count but adds an intra-AS hop and a single point of
/// failure per AS.
pub fn ext_ibgp(opts: FigOpts) -> FigureData {
    let entries = on_topology(
        TopologySpec::realistic(opts.nodes),
        [
            Scheme::constant_mrai(0.5).named("full mesh"),
            Scheme::constant_mrai(0.5)
                .with_route_reflection()
                .named("route reflectors"),
        ],
    );
    failure_sweep(
        "ext-ibgp",
        "iBGP full mesh vs route reflection (RFC 4456)",
        Metric::DelaySecs,
        &entries,
        &EXT_FRACTIONS,
        opts,
    )
}

/// Every extension experiment, with its regenerating function.
pub fn all_extensions() -> Vec<(&'static str, FigureFn)> {
    vec![
        ("ext-size", ext_size_sensitivity),
        ("ext-detectors", ext_detector_comparison),
        ("ext-oracle", ext_oracle),
        ("ext-expedite", ext_expedite),
        ("ext-expedite-msgs", ext_expedite_messages),
        ("ext-scope", ext_mrai_scope),
        ("ext-batching", ext_batching_variants),
        ("ext-ablations", ext_ablations),
        ("ext-policy", ext_policy),
        ("ext-detection", ext_detection),
        ("ext-destinations", ext_destinations),
        ("ext-updown", ext_updown),
        ("ext-links", ext_link_failures),
        ("ext-damping", ext_damping),
        ("ext-ibgp", ext_ibgp),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FigOpts {
        FigOpts {
            nodes: 24,
            trials: 1,
            base_seed: 3,
            threads: None,
        }
    }

    #[test]
    fn all_extensions_enumerate() {
        assert_eq!(all_extensions().len(), 15);
    }

    #[test]
    fn ibgp_extension_runs() {
        let data = ext_ibgp(tiny());
        assert_eq!(data.series.len(), 2);
    }

    #[test]
    fn damping_extension_runs() {
        let data = ext_damping(tiny());
        assert_eq!(data.series.len(), 3);
        assert!(data.series[1].name.contains("damping"));
    }

    #[test]
    fn link_failure_extension_runs() {
        let data = ext_link_failures(tiny());
        assert_eq!(data.series.len(), 2);
        assert!(data
            .series
            .iter()
            .all(|s| s.points.len() == EXT_FRACTIONS.len()));
    }

    #[test]
    fn updown_extension_shows_asymmetry() {
        let data = ext_updown(tiny());
        assert_eq!(data.series.len(), 2);
        let down: f64 = data.series[0].points.iter().map(|&(_, y)| y).sum();
        let up: f64 = data.series[1].points.iter().map(|&(_, y)| y).sum();
        assert!(up < down, "Tup ({up:.1}) must beat Tdown ({down:.1})");
    }

    #[test]
    fn detection_extension_runs() {
        let data = ext_detection(tiny());
        assert_eq!(data.series.len(), 3);
        // Hold-timer delays must exceed instant-detection delays.
        let instant: f64 = data.series[0].points.iter().map(|&(_, y)| y).sum();
        let held: f64 = data.series[2].points.iter().map(|&(_, y)| y).sum();
        assert!(held > instant);
    }

    #[test]
    fn destinations_extension_runs() {
        let data = ext_destinations(tiny());
        assert_eq!(data.series.len(), 4);
    }

    #[test]
    fn policy_extension_runs() {
        let data = ext_policy(tiny());
        assert_eq!(data.series.len(), 4);
        assert!(data.series[1].name.contains("Gao"));
    }

    #[test]
    fn oracle_runs_and_produces_series() {
        let data = ext_oracle(tiny());
        assert_eq!(data.series.len(), 4);
        assert_eq!(data.series[0].name, "oracle");
        assert!(data.series[0].points.iter().all(|&(_, y)| y >= 0.0));
    }

    #[test]
    fn expedite_runs() {
        let data = ext_expedite(tiny());
        assert_eq!(data.series.len(), 3);
        assert!(data.series[1].name.contains("expedite"));
    }

    #[test]
    fn batching_variants_run() {
        let data = ext_batching_variants(tiny());
        assert_eq!(data.series.len(), 4);
    }
}
