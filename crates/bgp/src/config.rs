//! Per-node BGP configuration.

use bgpsim_des::SimDuration;
use serde::{Deserialize, Serialize};

use crate::damping::DampingConfig;
use crate::dynmrai::DynamicMraiConfig;
use crate::mrai::MraiScope;
use crate::policy::PolicyMode;
use crate::queue::QueueDiscipline;

/// How a node picks its MRAI for eBGP sessions.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum MraiPolicy {
    /// A fixed interval (possibly different per node — the paper's
    /// degree-dependent scheme assigns constants by node degree).
    Constant(SimDuration),
    /// The paper's dynamic scheme (§4.3).
    Dynamic(DynamicMraiConfig),
}

impl Default for MraiPolicy {
    fn default() -> MraiPolicy {
        // RFC 1771 / deployed default.
        MraiPolicy::Constant(SimDuration::from_secs(30))
    }
}

/// Full configuration of one BGP router.
///
/// Build with [`NodeConfig::builder`]; defaults reproduce the paper's
/// SSFNet setup (§3.2): per-peer jittered MRAI, FIFO update processing with
/// U(1, 30) ms service times, no withdrawal rate limiting. iBGP sessions
/// are never MRAI-paced.
///
/// ```
/// use bgpsim_bgp::NodeConfig;
/// use bgpsim_bgp::queue::QueueDiscipline;
/// use bgpsim_des::SimDuration;
///
/// let cfg = NodeConfig::builder()
///     .mrai_constant(SimDuration::from_millis(500))
///     .queue(QueueDiscipline::Batched)
///     .build();
/// assert_eq!(cfg.queue, QueueDiscipline::Batched);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NodeConfig {
    /// MRAI policy for eBGP sessions.
    pub mrai: MraiPolicy,
    /// MRAI scope (per peer vs per destination).
    pub mrai_scope: MraiScope,
    /// Jitter timers per RFC 1771 (multiply by U(0.75, 1.0)).
    pub jitter: bool,
    /// Rate-limit withdrawals too (SSFNet's WRATE; off by default).
    pub withdrawal_rate_limiting: bool,
    /// Minimum per-update processing delay.
    pub proc_min: SimDuration,
    /// Maximum per-update processing delay.
    pub proc_max: SimDuration,
    /// Input-queue discipline.
    pub queue: QueueDiscipline,
    /// Cancel a running MRAI timer when the pending change *improves*
    /// (shortens) the route previously advertised to that peer, sending it
    /// immediately. This reproduces the first scheme of Deshpande & Sikdar
    /// (GLOBECOM 2004), which the paper discusses as related work: it cuts
    /// the convergence delay at the cost of considerably more update
    /// messages. Off by default.
    pub expedite_improvements: bool,
    /// Gao–Rexford commercial policies (off by default, as in the paper's
    /// §3.2 "no policy based restrictions").
    pub policy: PolicyMode,
    /// RFC 2439 route-flap damping on eBGP sessions (off by default; the
    /// paper does not damp).
    pub damping: Option<DampingConfig>,
    /// Whether this router is an iBGP route reflector (RFC 4456): unlike a
    /// regular iBGP speaker it re-advertises iBGP-learned routes to its
    /// other iBGP peers (its clients). With a full mesh this stays `false`.
    pub route_reflector: bool,
}

impl Default for NodeConfig {
    fn default() -> NodeConfig {
        NodeConfig {
            mrai: MraiPolicy::default(),
            mrai_scope: MraiScope::PerPeer,
            jitter: true,
            withdrawal_rate_limiting: false,
            proc_min: SimDuration::from_millis(1),
            proc_max: SimDuration::from_millis(30),
            queue: QueueDiscipline::Fifo,
            expedite_improvements: false,
            policy: PolicyMode::None,
            damping: None,
            route_reflector: false,
        }
    }
}

impl NodeConfig {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> NodeConfigBuilder {
        NodeConfigBuilder {
            cfg: NodeConfig::default(),
        }
    }

    /// Mean of the processing-delay distribution (15.5 ms for the paper's
    /// U(1, 30) ms) — the factor converting queue length to unfinished work.
    pub fn mean_processing(&self) -> SimDuration {
        (self.proc_min + self.proc_max) / 2
    }

    /// Validates invariants the node relies on.
    ///
    /// # Panics
    ///
    /// Panics if `proc_min > proc_max`.
    pub fn validate(&self) {
        assert!(
            self.proc_min <= self.proc_max,
            "processing-delay bounds out of order: {} > {}",
            self.proc_min,
            self.proc_max
        );
        if let Some(d) = &self.damping {
            d.validate();
        }
    }
}

/// Builder for [`NodeConfig`].
#[derive(Clone, Debug, Default)]
pub struct NodeConfigBuilder {
    cfg: NodeConfig,
}

impl NodeConfigBuilder {
    /// Uses a constant MRAI for eBGP sessions.
    pub fn mrai_constant(mut self, mrai: SimDuration) -> NodeConfigBuilder {
        self.cfg.mrai = MraiPolicy::Constant(mrai);
        self
    }

    /// Uses the dynamic MRAI scheme.
    pub fn mrai_dynamic(mut self, dynamic: DynamicMraiConfig) -> NodeConfigBuilder {
        self.cfg.mrai = MraiPolicy::Dynamic(dynamic);
        self
    }

    /// Sets the MRAI scope.
    pub fn mrai_scope(mut self, scope: MraiScope) -> NodeConfigBuilder {
        self.cfg.mrai_scope = scope;
        self
    }

    /// Enables or disables RFC 1771 timer jitter.
    pub fn jitter(mut self, on: bool) -> NodeConfigBuilder {
        self.cfg.jitter = on;
        self
    }

    /// Enables or disables withdrawal rate limiting (WRATE).
    pub fn withdrawal_rate_limiting(mut self, on: bool) -> NodeConfigBuilder {
        self.cfg.withdrawal_rate_limiting = on;
        self
    }

    /// Sets the input-queue discipline.
    pub fn queue(mut self, discipline: QueueDiscipline) -> NodeConfigBuilder {
        self.cfg.queue = discipline;
        self
    }

    /// Enables or disables expedited improvements (Deshpande & Sikdar's
    /// timer-cancelling scheme).
    pub fn expedite_improvements(mut self, on: bool) -> NodeConfigBuilder {
        self.cfg.expedite_improvements = on;
        self
    }

    /// Sets the routing-policy mode.
    pub fn policy(mut self, mode: PolicyMode) -> NodeConfigBuilder {
        self.cfg.policy = mode;
        self
    }

    /// Enables RFC 2439 route-flap damping with the given parameters.
    pub fn damping(mut self, cfg: DampingConfig) -> NodeConfigBuilder {
        self.cfg.damping = Some(cfg);
        self
    }

    /// Marks this router as an iBGP route reflector.
    pub fn route_reflector(mut self, on: bool) -> NodeConfigBuilder {
        self.cfg.route_reflector = on;
        self
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`NodeConfig::validate`]).
    pub fn build(self) -> NodeConfig {
        self.cfg.validate();
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let cfg = NodeConfig::default();
        assert_eq!(cfg.mrai, MraiPolicy::Constant(SimDuration::from_secs(30)));
        assert!(cfg.jitter);
        assert!(!cfg.withdrawal_rate_limiting);
        assert_eq!(cfg.proc_min, SimDuration::from_millis(1));
        assert_eq!(cfg.proc_max, SimDuration::from_millis(30));
        assert_eq!(cfg.queue, QueueDiscipline::Fifo);
        assert!(!cfg.expedite_improvements);
        assert_eq!(cfg.policy, PolicyMode::None);
        assert!(cfg.damping.is_none());
        assert!(!cfg.route_reflector);
    }

    #[test]
    fn mean_processing_is_midpoint() {
        let cfg = NodeConfig::default();
        assert_eq!(cfg.mean_processing(), SimDuration::from_micros(15_500));
    }

    #[test]
    fn builder_sets_fields() {
        let cfg = NodeConfig::builder()
            .mrai_constant(SimDuration::from_millis(1250))
            .jitter(false)
            .withdrawal_rate_limiting(true)
            .queue(QueueDiscipline::TcpBatch { buffer: 16 })
            .build();
        assert_eq!(
            cfg.mrai,
            MraiPolicy::Constant(SimDuration::from_millis(1250))
        );
        assert!(!cfg.jitter);
        assert!(cfg.withdrawal_rate_limiting);
        assert_eq!(cfg.queue, QueueDiscipline::TcpBatch { buffer: 16 });
    }

    #[test]
    #[should_panic(expected = "bounds out of order")]
    fn builder_rejects_bad_processing_bounds() {
        NodeConfig {
            proc_min: SimDuration::from_millis(30),
            proc_max: SimDuration::from_millis(1),
            ..NodeConfig::default()
        }
        .validate();
    }
}
