//! The BGP decision process.
//!
//! The paper configures SSFNet so that "the path length (i.e., number of
//! hops along the route) was the only criterion used for selecting the
//! routes and there were no policy based restrictions" (§3.2). We rank:
//!
//! 1. lowest policy rank (only relevant when Gao–Rexford policies are on:
//!    customer < peer < provider, the `LOCAL_PREF` idiom; rank is uniformly
//!    0 otherwise, matching the paper);
//! 2. shortest AS path;
//! 3. eBGP-learned over iBGP-learned (only relevant in multi-router ASes);
//! 4. lowest advertising-peer id (a deterministic stand-in for the
//!    router-id tie-break).

use bgpsim_topology::RouterId;

use crate::msg::Prefix;
use crate::rib::{AdjRibIn, NextHop, RouteEntry, Selected};

/// Selects the best route for `prefix` among the Adj-RIB-In candidates.
///
/// Returns `None` if no peer advertises a (loop-free) route. Locally
/// originated prefixes never reach this function — the node always prefers
/// its own zero-length route.
///
/// ```
/// use bgpsim_bgp::decision::select_best;
/// use bgpsim_bgp::rib::{AdjRibIn, RouteEntry};
/// use bgpsim_bgp::{AsPath, Prefix};
/// use bgpsim_topology::{AsId, RouterId};
///
/// let mut rib = AdjRibIn::new();
/// let p = Prefix::new(0);
/// rib.insert(p, RouterId::new(9), RouteEntry {
///     path: AsPath::from_hops([AsId::new(1)]), ibgp: false, rank: 0 });
/// rib.insert(p, RouterId::new(2), RouteEntry {
///     path: AsPath::from_hops([AsId::new(3), AsId::new(1)]), ibgp: false, rank: 0 });
/// let best = select_best(p, &rib).expect("a candidate exists");
/// assert_eq!(best.path.len(), 1, "shortest path wins");
/// ```
pub fn select_best(prefix: Prefix, rib_in: &AdjRibIn) -> Option<Selected> {
    let mut best: Option<(RouterId, &RouteEntry)> = None;
    for (peer, entry) in rib_in.candidates(prefix) {
        best = Some(match best {
            None => (peer, entry),
            Some(current) => {
                if ranks_higher((peer, entry), current) {
                    (peer, entry)
                } else {
                    current
                }
            }
        });
    }
    best.map(to_selected)
}

/// The candidate sort key; the decision process installs the minimum.
///
/// The advertising peer is the last component, so the order is *strictly*
/// total — no two candidates compare equal. The incremental fast path
/// leans on that: whatever lost to the installed best at the previous
/// decision still ranks strictly below its key now, unless it changed.
pub fn decision_key(peer: RouterId, entry: &RouteEntry) -> (u8, usize, bool, RouterId) {
    (entry.rank, entry.path.len(), entry.ibgp, peer)
}

/// Whether candidate `a` outranks candidate `b`.
fn ranks_higher(a: (RouterId, &RouteEntry), b: (RouterId, &RouteEntry)) -> bool {
    decision_key(a.0, a.1) < decision_key(b.0, b.1)
}

fn to_selected((peer, entry): (RouterId, &RouteEntry)) -> Selected {
    Selected {
        path: entry.path.clone(),
        next_hop: NextHop::Peer(peer),
        via_ibgp: entry.ibgp,
        rank: entry.rank,
    }
}

/// What [`select_incremental`] concluded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Incremental {
    /// The fast path determined the new best route outright (`None` =
    /// prefix now unreachable).
    Resolved(Option<Selected>),
    /// The installed best route was withdrawn or worsened and no changed
    /// candidate covers for it — only a full rescan can find the
    /// runner-up among the unchanged candidates.
    NeedsRescan,
}

/// Incremental decision process: recomputes the best route for `prefix`
/// touching only the `changed` peers' candidates, given the currently
/// `installed` best.
///
/// Correctness rests on one invariant: every Adj-RIB-In mutation since
/// the previous decision for `prefix` came from a peer listed in
/// `changed` (over-listing peers is harmless). Then every *unchanged*
/// candidate still ranks strictly below the installed best's key, so:
///
/// * nothing installed — only changed peers can hold candidates at all;
/// * installed best untouched — it competes against the changed
///   candidates alone;
/// * installed best changed — if some changed candidate still ranks at
///   or above the old key it beats every unchanged candidate; otherwise
///   the result hides among the unchanged candidates and the caller must
///   fall back to [`select_best`] (reported via
///   [`Incremental::NeedsRescan`]).
///
/// The outcome is proven bit-identical to [`select_best`] by the
/// `incremental_selection_matches_full_rescan` property test.
pub fn select_incremental(
    prefix: Prefix,
    rib_in: &AdjRibIn,
    installed: Option<&Selected>,
    changed: &[RouterId],
) -> Incremental {
    // Best among the changed peers' current candidates.
    let mut best: Option<(RouterId, &RouteEntry)> = None;
    for &peer in changed {
        if let Some(entry) = rib_in.get(prefix, peer) {
            let cand = (peer, entry);
            best = Some(match best {
                None => cand,
                Some(current) => {
                    if ranks_higher(cand, current) {
                        cand
                    } else {
                        current
                    }
                }
            });
        }
    }

    let Some(installed) = installed else {
        return Incremental::Resolved(best.map(to_selected));
    };
    let NextHop::Peer(installed_peer) = installed.next_hop else {
        // Locally originated prefixes never reach the decision process;
        // be conservative if one somehow does.
        return Incremental::NeedsRescan;
    };
    let installed_key = (
        installed.rank,
        installed.path.len(),
        installed.via_ibgp,
        installed_peer,
    );

    if !changed.contains(&installed_peer) {
        // Keys are strictly total and the peers differ, so no tie-break
        // against the installed key is possible here.
        return Incremental::Resolved(Some(match best {
            Some((peer, entry)) if decision_key(peer, entry) < installed_key => {
                to_selected((peer, entry))
            }
            _ => installed.clone(),
        }));
    }
    match best {
        Some((peer, entry)) if decision_key(peer, entry) <= installed_key => {
            Incremental::Resolved(Some(to_selected((peer, entry))))
        }
        _ => Incremental::NeedsRescan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::AsPath;
    use bgpsim_topology::AsId;

    fn entry(hops: &[u32], ibgp: bool) -> RouteEntry {
        RouteEntry {
            path: AsPath::from_hops(hops.iter().map(|&h| AsId::new(h))),
            ibgp,
            rank: 0,
        }
    }

    fn rid(i: u32) -> RouterId {
        RouterId::new(i)
    }

    #[test]
    fn empty_rib_gives_none() {
        let rib = AdjRibIn::new();
        assert!(select_best(Prefix::new(0), &rib).is_none());
    }

    #[test]
    fn shortest_path_wins() {
        let mut rib = AdjRibIn::new();
        let p = Prefix::new(0);
        rib.insert(p, rid(1), entry(&[1, 2, 3], false));
        rib.insert(p, rid(2), entry(&[4, 3], false));
        let best = select_best(p, &rib).unwrap();
        assert_eq!(best.next_hop, NextHop::Peer(rid(2)));
        assert_eq!(best.path.len(), 2);
    }

    #[test]
    fn ebgp_beats_ibgp_on_equal_length() {
        let mut rib = AdjRibIn::new();
        let p = Prefix::new(0);
        rib.insert(p, rid(1), entry(&[7, 8], true));
        rib.insert(p, rid(2), entry(&[5, 8], false));
        let best = select_best(p, &rib).unwrap();
        assert_eq!(best.next_hop, NextHop::Peer(rid(2)));
        assert!(!best.via_ibgp);
    }

    #[test]
    fn lowest_peer_id_breaks_full_ties() {
        let mut rib = AdjRibIn::new();
        let p = Prefix::new(0);
        // All candidates tie on length (1) and session type (eBGP).
        rib.insert(p, rid(9), entry(&[1], false));
        rib.insert(p, rid(3), entry(&[2], false));
        rib.insert(p, rid(7), entry(&[4], false));
        let best = select_best(p, &rib).unwrap();
        assert_eq!(best.next_hop, NextHop::Peer(rid(3)));
    }

    #[test]
    fn selection_is_deterministic_in_insertion_order() {
        let p = Prefix::new(0);
        let mut rib1 = AdjRibIn::new();
        rib1.insert(p, rid(1), entry(&[1], false));
        rib1.insert(p, rid(2), entry(&[2], false));
        let mut rib2 = AdjRibIn::new();
        rib2.insert(p, rid(2), entry(&[2], false));
        rib2.insert(p, rid(1), entry(&[1], false));
        assert_eq!(select_best(p, &rib1), select_best(p, &rib2));
    }
}
