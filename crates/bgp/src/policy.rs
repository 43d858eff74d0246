//! Commercial routing policies (Gao–Rexford).
//!
//! The paper runs BGP with "no policy based restrictions on route
//! advertisements" (§3.2), but its related work (Labovitz et al. \[6\], *The
//! Impact of Internet Policy and Topology on Delayed Routing Convergence*)
//! studies how the customer/peer/provider structure of the Internet changes
//! convergence: valley-free export rules prune the set of alternate paths
//! BGP can hunt through. This module provides that machinery so the
//! workspace can reproduce the comparison as an extension experiment:
//!
//! * [`Relationship`] — what a *neighbor* is to us.
//! * Route *ranks* — customer-learned (or local) routes rank 0, peer routes
//!   1, provider routes 2; the decision process prefers lower ranks before
//!   path length (the BGP `LOCAL_PREF` idiom).
//! * [`may_export`] — Gao–Rexford export: customer/local routes go to
//!   everyone; peer- and provider-learned routes go only to customers.
//!
//! With these preferences and filters, BGP is provably convergent
//! (Gao & Rexford 2001) — the simulation's quiescence is guaranteed, not
//! accidental.

use serde::{Deserialize, Serialize};

/// Whether policy routing is enabled on a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PolicyMode {
    /// No policies: shortest path only (the paper's configuration).
    #[default]
    None,
    /// Gao–Rexford preferences and valley-free export rules.
    GaoRexford,
}

/// The business relationship of a *neighbor* relative to this router's AS.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Relationship {
    /// The neighbor is our customer (they pay us; routes via them are
    /// preferred and freely exportable).
    Customer,
    /// Settlement-free peer.
    Peer,
    /// The neighbor is our provider (we pay them).
    Provider,
}

impl Relationship {
    /// The rank a route learned from this neighbor gets: lower is
    /// preferred (customer 0 < peer 1 < provider 2).
    pub fn rank(self) -> u8 {
        match self {
            Relationship::Customer => RANK_CUSTOMER,
            Relationship::Peer => RANK_PEER,
            Relationship::Provider => RANK_PROVIDER,
        }
    }

    /// How the neighbor sees *us* (customer ↔ provider, peer ↔ peer).
    pub fn inverse(self) -> Relationship {
        match self {
            Relationship::Customer => Relationship::Provider,
            Relationship::Peer => Relationship::Peer,
            Relationship::Provider => Relationship::Customer,
        }
    }
}

/// Rank of customer-learned and locally originated routes.
pub const RANK_CUSTOMER: u8 = 0;
/// Rank of peer-learned routes.
pub const RANK_PEER: u8 = 1;
/// Rank of provider-learned routes.
pub const RANK_PROVIDER: u8 = 2;

/// Gao–Rexford export rule: may a route of rank `route_rank` be advertised
/// to a neighbor that is `to` us?
///
/// Customer-learned and local routes (`rank 0`) are exportable to everyone;
/// peer- and provider-learned routes only to customers — this is what makes
/// every propagated path valley-free.
///
/// ```
/// use bgpsim_bgp::policy::{may_export, Relationship, RANK_CUSTOMER, RANK_PEER};
///
/// assert!(may_export(RANK_CUSTOMER, Relationship::Provider));
/// assert!(may_export(RANK_PEER, Relationship::Customer));
/// assert!(!may_export(RANK_PEER, Relationship::Peer));
/// assert!(!may_export(RANK_PEER, Relationship::Provider));
/// ```
pub fn may_export(route_rank: u8, to: Relationship) -> bool {
    route_rank == RANK_CUSTOMER || to == Relationship::Customer
}

/// Relationship from hierarchy *tiers* (distance from the top tier):
/// the lower-tier (closer-to-top) neighbor is the provider; equal tiers
/// peer. Used with tiers computed as BFS depth from the maximum-degree
/// ASes, which guarantees every non-top AS has at least one provider — no
/// "local peak" can strand its customer cone.
pub fn relationship_by_tier(own_tier: usize, neighbor_tier: usize) -> Relationship {
    use std::cmp::Ordering::*;
    match neighbor_tier.cmp(&own_tier) {
        Less => Relationship::Provider,
        Greater => Relationship::Customer,
        Equal => Relationship::Peer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_order_customer_first() {
        assert!(Relationship::Customer.rank() < Relationship::Peer.rank());
        assert!(Relationship::Peer.rank() < Relationship::Provider.rank());
    }

    #[test]
    fn inverse_is_involutive() {
        for rel in [
            Relationship::Customer,
            Relationship::Peer,
            Relationship::Provider,
        ] {
            assert_eq!(rel.inverse().inverse(), rel);
        }
        assert_eq!(Relationship::Customer.inverse(), Relationship::Provider);
        assert_eq!(Relationship::Peer.inverse(), Relationship::Peer);
    }

    #[test]
    fn export_matrix_is_valley_free() {
        // Customer/local routes: to everyone.
        for to in [
            Relationship::Customer,
            Relationship::Peer,
            Relationship::Provider,
        ] {
            assert!(may_export(RANK_CUSTOMER, to));
        }
        // Peer & provider routes: customers only.
        for rank in [RANK_PEER, RANK_PROVIDER] {
            assert!(may_export(rank, Relationship::Customer));
            assert!(!may_export(rank, Relationship::Peer));
            assert!(!may_export(rank, Relationship::Provider));
        }
    }

    #[test]
    fn default_mode_is_none() {
        assert_eq!(PolicyMode::default(), PolicyMode::None);
    }

    #[test]
    fn tier_relationships() {
        assert_eq!(relationship_by_tier(2, 1), Relationship::Provider);
        assert_eq!(relationship_by_tier(1, 2), Relationship::Customer);
        assert_eq!(relationship_by_tier(1, 1), Relationship::Peer);
        // Antisymmetry.
        assert_eq!(
            relationship_by_tier(3, 0),
            relationship_by_tier(0, 3).inverse()
        );
    }
}
