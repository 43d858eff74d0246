//! Property test: the incremental decision process is bit-identical to a
//! full rescan.
//!
//! `select_incremental` is the simulator's hot path — it resolves most
//! decisions by looking only at the peers whose routes changed since the
//! last decision, falling back to `select_best` when the installed best
//! was withdrawn or worsened. This test drives both processes through
//! randomized announce/withdraw/replace sequences (including batched
//! multi-peer change sets, mirroring how `BgpNode::on_proc_done` groups
//! work) and asserts they install exactly the same route at every step.

use bgpsim_bgp::decision::{select_best, select_incremental, Incremental};
use bgpsim_bgp::rib::{AdjRibIn, RouteEntry, Selected};
use bgpsim_bgp::{AsPath, Prefix};
use bgpsim_topology::{AsId, RouterId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn incremental_selection_matches_full_rescan(
        // Each op: ((peer, kind), (path_len, seed)).
        //   kind 0       — withdraw, then decide
        //   kind 1, 2    — announce/replace, then decide
        //   kind 3       — announce/replace, defer the decision so the
        //                  next one sees a multi-peer change set
        // `seed` scrambles the hop values, rank, and iBGP flag so ties
        // and strict improvements both occur.
        ops in prop::collection::vec(((0u32..6, 0u32..4), (0usize..5, 0u32..16)), 1..60)
    ) {
        let prefix = Prefix::new(0);
        let mut rib = AdjRibIn::new();
        // What the incremental process currently has installed.
        let mut installed: Option<Selected> = None;
        // Peers mutated since the last decision.
        let mut pending: Vec<RouterId> = Vec::new();
        for &((peer, kind), (len, seed)) in &ops {
            let peer = RouterId::new(peer);
            if kind == 0 {
                rib.remove(prefix, peer);
            } else {
                let entry = RouteEntry {
                    path: AsPath::from_hops((0..len as u32).map(|i| AsId::new(seed + i))),
                    ibgp: seed & 8 != 0,
                    rank: (seed % 3) as u8,
                };
                rib.insert(prefix, peer, entry);
            }
            if !pending.contains(&peer) {
                pending.push(peer);
            }
            if kind == 3 {
                continue;
            }
            let changed = std::mem::take(&mut pending);
            let resolved = match select_incremental(prefix, &rib, installed.as_ref(), &changed) {
                Incremental::Resolved(sel) => sel,
                Incremental::NeedsRescan => select_best(prefix, &rib),
            };
            let reference = select_best(prefix, &rib);
            prop_assert_eq!(
                &resolved,
                &reference,
                "incremental diverged after changed set {:?}",
                changed
            );
            installed = resolved;
        }
    }

    /// The fast path must also be exact when the caller over-lists peers
    /// in `changed` (the invariant allows it), including peers with no
    /// candidate at all.
    #[test]
    fn incremental_selection_tolerates_overlisted_peers(
        ops in prop::collection::vec(((0u32..4, 0u32..3), (0usize..4, 0u32..16)), 1..40)
    ) {
        let prefix = Prefix::new(0);
        let mut rib = AdjRibIn::new();
        let mut installed: Option<Selected> = None;
        // Every decision lists *all* peers as changed — maximal
        // over-listing, which must degrade to a correct full compare.
        let everyone: Vec<RouterId> = (0..8).map(RouterId::new).collect();
        for &((peer, kind), (len, seed)) in &ops {
            let peer = RouterId::new(peer);
            if kind == 0 {
                rib.remove(prefix, peer);
            } else {
                let entry = RouteEntry {
                    path: AsPath::from_hops((0..len as u32).map(|i| AsId::new(seed + i))),
                    ibgp: seed & 8 != 0,
                    rank: (seed % 3) as u8,
                };
                rib.insert(prefix, peer, entry);
            }
            let resolved = match select_incremental(prefix, &rib, installed.as_ref(), &everyone) {
                Incremental::Resolved(sel) => sel,
                Incremental::NeedsRescan => select_best(prefix, &rib),
            };
            let reference = select_best(prefix, &rib);
            prop_assert_eq!(&resolved, &reference);
            installed = resolved;
        }
    }
}
