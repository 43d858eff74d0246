//! # bgpsim-bgp — a BGP-4 path-vector protocol model
//!
//! The protocol substrate of the `bgpsim` workspace, reproducing the BGP
//! behaviour the paper *"Improving BGP Convergence Delay for Large-Scale
//! Failures"* (Sahoo, Kant, Mohapatra — DSN 2006) simulated with SSFNet:
//!
//! * [`msg`] — per-destination UPDATE messages (announce with AS path, or
//!   withdraw).
//! * [`path`] — AS paths with loop detection and prepending.
//! * [`rib`] — Adj-RIB-In, Loc-RIB and Adj-RIB-Out.
//! * [`iptrie`] — the IPv4 CIDR prefix ([`IpPrefix`]) that names a dense
//!   prefix slot in full-table output.
//! * [`decision`] — best-path selection: shortest AS path, eBGP over iBGP,
//!   lowest peer id (the paper uses path length as the only criterion and
//!   no routing policies, §3.2).
//! * [`mrai`] — the per-peer Minimum Route Advertisement Interval machinery
//!   with RFC 1771 jitter, plus optional per-destination mode and optional
//!   withdrawal rate limiting.
//! * [`queue`] — update-processing queue disciplines: default FIFO, the
//!   paper's **batched** per-destination processing with stale-update
//!   deletion (§4.4), and the "today's routers" TCP-buffer batch the paper
//!   compares against.
//! * [`damping`] — optional RFC 2439 route-flap damping, the deployed
//!   counterpart to the paper's schemes (and a famous aggravator of
//!   post-failure convergence, Mao et al. 2002).
//! * [`policy`] — optional Gao–Rexford commercial policies (customer /
//!   peer / provider preferences and valley-free export), off by default
//!   as in the paper, available for the policy-impact extension.
//! * [`dynmrai`] — the paper's **dynamic MRAI** controller driven by
//!   unfinished work (§4.3), plus the utilization and update-count variants
//!   the authors report trying.
//! * [`node`] — the router engine tying it all together: a single-server
//!   processing model with U(1, 30) ms per-update service times, dirty-route
//!   tracking, and MRAI-gated advertisement generation.
//!
//! The node is written in a *sans-io* style: it never touches a clock or a
//! network. Handlers take the current [`SimTime`](bgpsim_des::SimTime) and
//! return [`node::Action`]s (send a message, start the processing timer,
//! start an MRAI timer) that a driver executes against the discrete-event
//! scheduler. That keeps every protocol rule unit-testable without a
//! simulation loop; the `bgpsim` crate provides the loop.

#![warn(missing_docs)]

pub mod config;
pub mod damping;
pub mod decision;
pub mod dynmrai;
pub mod iptrie;
pub mod mrai;
pub mod msg;
pub mod node;
pub mod path;
pub mod policy;
pub mod queue;
pub mod rib;
pub mod stats;
pub mod trace;

pub use config::{NodeConfig, NodeConfigBuilder};
pub use iptrie::IpPrefix;
pub use msg::{Prefix, UpdateAction, UpdateMsg};
pub use node::{Action, BgpNode};
pub use path::AsPath;
pub use trace::NodeEvent;
