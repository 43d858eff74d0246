//! The paper's schemes as ready-made configurations.
//!
//! A [`Scheme`] bundles the two knobs the paper turns: how each node picks
//! its MRAI (constant / degree-dependent / dynamic) and how the input queue
//! forms processing batches (FIFO / batched / TCP-buffer batch). Every
//! curve in the paper's figures is one `Scheme` evaluated over a failure
//! sweep.

use bgpsim_bgp::config::MraiPolicy;
use bgpsim_bgp::dynmrai::DynamicMraiConfig;
use bgpsim_bgp::mrai::MraiScope;
use bgpsim_bgp::queue::QueueDiscipline;
use bgpsim_des::SimDuration;
use serde::{Deserialize, Serialize};

/// Optional overrides of the simulation defaults, carried by a [`Scheme`]
/// so ablation experiments (jitter off, WRATE on, detection delay, MRAI
/// scope, expedited improvements) run through the same experiment
/// machinery as the paper's schemes. `None` keeps the paper's default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SimOverrides {
    /// RFC 1771 timer jitter (default on).
    pub jitter: Option<bool>,
    /// Withdrawal rate limiting (default off).
    pub wrate: Option<bool>,
    /// Failure-detection delay (default zero).
    pub detection_delay: Option<SimDuration>,
    /// MRAI scope (default per peer).
    pub mrai_scope: Option<MraiScope>,
    /// Deshpande & Sikdar timer cancelling (default off).
    pub expedite_improvements: Option<bool>,
    /// Gao–Rexford policies (default off, per the paper's §3.2).
    pub policy: Option<bool>,
    /// Detect failures by BGP hold-timer expiry with this hold time,
    /// instead of the paper's instant link-layer notification.
    pub hold_timer: Option<SimDuration>,
    /// Prefixes originated per AS (default 1, as in the paper).
    pub prefixes_per_as: Option<usize>,
    /// RFC 2439 route-flap damping (default off, as in the paper).
    pub damping: Option<bgpsim_bgp::damping::DampingConfig>,
    /// Intra-AS session layout (default: full iBGP mesh).
    pub ibgp_mode: Option<crate::network::IbgpMode>,
    /// Full-table prefix allocation: a fixed network-wide table size split
    /// across ASes by a power law, instead of `prefixes_per_as` identical
    /// blocks (default off). Takes precedence over `prefixes_per_as`.
    pub full_table: Option<crate::network::FullTableSpec>,
}

/// How per-node MRAIs are assigned across the network.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum MraiAssignment {
    /// Every node uses the same policy.
    Uniform(MraiPolicy),
    /// The paper's degree-dependent scheme (§4.2): nodes with degree at
    /// least `high_degree_min` use `high`, the rest use `low`.
    DegreeDependent {
        /// Smallest degree that counts as "high degree".
        high_degree_min: usize,
        /// MRAI at low-degree nodes.
        low: SimDuration,
        /// MRAI at high-degree nodes.
        high: SimDuration,
    },
    /// The paper's future-work oracle ("a scheme that can accurately and
    /// quickly set the MRAI consistent with the extent of failure"): at
    /// failure-injection time every surviving node is switched to the
    /// constant MRAI of the first table row whose fraction bound covers
    /// the actual failure size. Before the failure, nodes run the first
    /// row's MRAI. An upper bound on what failure-size estimation can buy.
    OracleFailureSize {
        /// `(max_fraction, mrai)` rows in increasing fraction order; the
        /// last row should have `max_fraction = 1.0`.
        table: Vec<(f64, SimDuration)>,
    },
}

/// A named experimental configuration (one curve of a figure).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scheme {
    /// Display name used in tables ("MRAI=0.5", "dynamic", "batching", …).
    pub name: String,
    /// How nodes pick their MRAI.
    pub mrai: MraiAssignment,
    /// Input-queue discipline.
    pub queue: QueueDiscipline,
    /// Ablation overrides of the simulation defaults.
    pub overrides: SimOverrides,
}

impl Scheme {
    /// Constant MRAI everywhere, FIFO processing (the baseline).
    pub fn constant_mrai(secs: f64) -> Scheme {
        Scheme {
            name: format!("MRAI={secs}"),
            mrai: MraiAssignment::Uniform(MraiPolicy::Constant(SimDuration::from_secs_f64(secs))),
            queue: QueueDiscipline::Fifo,
            overrides: SimOverrides::default(),
        }
    }

    /// Degree-dependent MRAI (§4.2): `low` seconds at nodes below
    /// `high_degree_min`, `high` seconds at the rest.
    pub fn degree_dependent(low: f64, high: f64, high_degree_min: usize) -> Scheme {
        Scheme {
            name: format!("low {low}, high {high}"),
            mrai: MraiAssignment::DegreeDependent {
                high_degree_min,
                low: SimDuration::from_secs_f64(low),
                high: SimDuration::from_secs_f64(high),
            },
            queue: QueueDiscipline::Fifo,
            overrides: SimOverrides::default(),
        }
    }

    /// The paper's dynamic MRAI (§4.3) with its Fig 7 parameters.
    pub fn dynamic_default() -> Scheme {
        Scheme {
            name: "dynamic".into(),
            mrai: MraiAssignment::Uniform(MraiPolicy::Dynamic(DynamicMraiConfig::paper_default())),
            queue: QueueDiscipline::Fifo,
            overrides: SimOverrides::default(),
        }
    }

    /// Dynamic MRAI with custom levels (seconds) and unfinished-work
    /// thresholds (seconds) — the Fig 8/9/13 variants.
    pub fn dynamic(levels: &[f64], up_th: f64, down_th: f64) -> Scheme {
        let mut cfg = DynamicMraiConfig::with_thresholds(
            SimDuration::from_secs_f64(up_th),
            SimDuration::from_secs_f64(down_th),
        );
        cfg.levels = levels
            .iter()
            .map(|&s| SimDuration::from_secs_f64(s))
            .collect();
        Scheme {
            name: format!("dynamic up={up_th} down={down_th}"),
            mrai: MraiAssignment::Uniform(MraiPolicy::Dynamic(cfg)),
            queue: QueueDiscipline::Fifo,
            overrides: SimOverrides::default(),
        }
    }

    /// The paper's batching scheme (§4.4) at the given constant MRAI
    /// (the paper uses 0.5 s).
    pub fn batching(mrai_secs: f64) -> Scheme {
        Scheme {
            name: format!("batching (MRAI={mrai_secs})"),
            queue: QueueDiscipline::Batched,
            ..Scheme::constant_mrai(mrai_secs)
        }
    }

    /// Batching combined with the default dynamic MRAI (§4.4: "if we
    /// combine the batching and dynamic MRAI schemes, then we are able to
    /// decrease the delays even further").
    pub fn batching_plus_dynamic() -> Scheme {
        Scheme {
            name: "batching + dynamic".into(),
            queue: QueueDiscipline::Batched,
            ..Scheme::dynamic_default()
        }
    }

    /// Today's router behaviour (§4.4): per-peer TCP-buffer batches of
    /// `buffer` updates, constant MRAI.
    pub fn tcp_batch(mrai_secs: f64, buffer: usize) -> Scheme {
        Scheme {
            name: format!("tcp-batch({buffer}, MRAI={mrai_secs})"),
            queue: QueueDiscipline::TcpBatch { buffer },
            ..Scheme::constant_mrai(mrai_secs)
        }
    }

    /// The oracle failure-size-aware MRAI (the paper's future-work upper
    /// bound): `(max_fraction, mrai_secs)` rows.
    pub fn oracle(table: &[(f64, f64)]) -> Scheme {
        Scheme {
            name: "oracle".into(),
            mrai: MraiAssignment::OracleFailureSize {
                table: table
                    .iter()
                    .map(|&(f, m)| (f, SimDuration::from_secs_f64(m)))
                    .collect(),
            },
            queue: QueueDiscipline::Fifo,
            overrides: SimOverrides::default(),
        }
    }

    /// Enables Deshpande & Sikdar's timer-cancelling scheme on top of this
    /// configuration.
    #[must_use]
    pub fn with_expedited_improvements(mut self) -> Scheme {
        self.overrides.expedite_improvements = Some(true);
        self.name = format!("{} + expedite", self.name);
        self
    }

    /// Overrides the MRAI scope.
    #[must_use]
    pub fn with_mrai_scope(mut self, scope: MraiScope) -> Scheme {
        self.overrides.mrai_scope = Some(scope);
        self
    }

    /// Overrides timer jitter.
    #[must_use]
    pub fn with_jitter(mut self, on: bool) -> Scheme {
        self.overrides.jitter = Some(on);
        self
    }

    /// Overrides withdrawal rate limiting.
    #[must_use]
    pub fn with_wrate(mut self, on: bool) -> Scheme {
        self.overrides.wrate = Some(on);
        self
    }

    /// Overrides the failure-detection delay.
    #[must_use]
    pub fn with_detection_delay(mut self, delay: SimDuration) -> Scheme {
        self.overrides.detection_delay = Some(delay);
        self
    }

    /// Enables Gao–Rexford policies (customer/peer/provider preferences and
    /// valley-free export; relationships from the AS hierarchy tiers).
    #[must_use]
    pub fn with_policy(mut self) -> Scheme {
        self.overrides.policy = Some(true);
        self.name = format!("{} + policy", self.name);
        self
    }

    /// Detects failures via BGP hold-timer expiry (RFC 1771 default 90 s)
    /// instead of instant link-layer notification.
    #[must_use]
    pub fn with_hold_timer(mut self, hold: SimDuration) -> Scheme {
        self.overrides.hold_timer = Some(hold);
        self
    }

    /// Originates `k` prefixes per AS instead of one (scales the update
    /// load per failed AS — the paper's §5 destination-count point).
    #[must_use]
    pub fn with_prefixes_per_as(mut self, k: usize) -> Scheme {
        self.overrides.prefixes_per_as = Some(k);
        self
    }

    /// Allocates a fixed network-wide routing table (power-law split across
    /// ASes) instead of a per-AS prefix count — the full-table workload.
    #[must_use]
    pub fn with_full_table(mut self, spec: crate::network::FullTableSpec) -> Scheme {
        self.overrides.full_table = Some(spec);
        self
    }

    /// Enables RFC 2439 route-flap damping on eBGP sessions.
    #[must_use]
    pub fn with_damping(mut self, cfg: bgpsim_bgp::damping::DampingConfig) -> Scheme {
        self.overrides.damping = Some(cfg);
        self.name = format!("{} + damping", self.name);
        self
    }

    /// Uses per-AS route reflectors instead of the full iBGP mesh
    /// (RFC 4456; only matters on multi-router topologies).
    #[must_use]
    pub fn with_route_reflection(mut self) -> Scheme {
        self.overrides.ibgp_mode = Some(crate::network::IbgpMode::RouteReflector);
        self
    }

    /// Renames the scheme (for table legends).
    #[must_use]
    pub fn named(mut self, name: &str) -> Scheme {
        self.name = name.to_owned();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_scheme_shape() {
        let s = Scheme::constant_mrai(2.25);
        assert_eq!(s.name, "MRAI=2.25");
        assert_eq!(s.queue, QueueDiscipline::Fifo);
        match s.mrai {
            MraiAssignment::Uniform(MraiPolicy::Constant(d)) => {
                assert_eq!(d, SimDuration::from_millis(2250));
            }
            other => panic!("unexpected assignment {other:?}"),
        }
    }

    #[test]
    fn degree_dependent_scheme_shape() {
        let s = Scheme::degree_dependent(0.5, 2.25, 8);
        match s.mrai {
            MraiAssignment::DegreeDependent {
                high_degree_min,
                low,
                high,
            } => {
                assert_eq!(high_degree_min, 8);
                assert_eq!(low, SimDuration::from_millis(500));
                assert_eq!(high, SimDuration::from_millis(2250));
            }
            other => panic!("unexpected assignment {other:?}"),
        }
    }

    #[test]
    fn batching_wraps_queue_discipline() {
        let s = Scheme::batching(0.5);
        assert_eq!(s.queue, QueueDiscipline::Batched);
        let s = Scheme::batching_plus_dynamic();
        assert_eq!(s.queue, QueueDiscipline::Batched);
        assert!(matches!(
            s.mrai,
            MraiAssignment::Uniform(MraiPolicy::Dynamic(_))
        ));
    }

    #[test]
    fn dynamic_custom_levels() {
        let s = Scheme::dynamic(&[0.5, 3.5], 0.65, 0.05);
        match s.mrai {
            MraiAssignment::Uniform(MraiPolicy::Dynamic(cfg)) => {
                assert_eq!(cfg.levels.len(), 2);
                assert_eq!(cfg.levels[1], SimDuration::from_millis(3500));
            }
            other => panic!("unexpected assignment {other:?}"),
        }
    }

    #[test]
    fn named_renames() {
        let s = Scheme::constant_mrai(0.5).named("baseline");
        assert_eq!(s.name, "baseline");
    }
}
