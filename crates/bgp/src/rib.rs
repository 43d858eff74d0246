//! Routing information bases: Adj-RIB-In, Loc-RIB, Adj-RIB-Out.
//!
//! Storage is compact (DESIGN.md §12): the Adj-RIB-In keeps one sorted row
//! of `(peer, route)` pairs per prefix — sized by the routes actually held,
//! not by the peers ever seen — and the Adj-RIB-Out is *delta-encoded*
//! against the Loc-RIB: a converged session stores nothing at all, because
//! everything it last advertised mirrors the node's current export. The
//! previous dense representations (`DenseAdjRibIn`, `DenseAdjRibOut`) are
//! kept in test builds only, as the reference the equivalence property
//! tests drive through identical histories and the node's shadow
//! Adj-RIB-Out asserts against.

use std::collections::BTreeMap;

use bgpsim_topology::RouterId;
use serde::{Deserialize, Serialize};

use crate::msg::Prefix;
use crate::path::AsPath;

/// A route as stored in the Adj-RIB-In: the path a peer advertised, plus
/// whether it arrived over an iBGP session (affects both preference and
/// re-advertisement rules).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteEntry {
    /// The AS path the peer advertised.
    pub path: AsPath,
    /// Whether the route was learned over iBGP.
    pub ibgp: bool,
    /// Policy rank (0 customer/local, 1 peer, 2 provider); always 0 when
    /// policies are off, so it never affects selection then.
    pub rank: u8,
}

/// Where the best route points.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NextHop {
    /// Locally originated (our own prefix).
    Local,
    /// Learned from this peer.
    Peer(RouterId),
}

/// The selected (best) route for a prefix, as installed in the Loc-RIB.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Selected {
    /// The AS path of the best route (empty for local origination).
    pub path: AsPath,
    /// Where it points.
    pub next_hop: NextHop,
    /// Whether it was learned over iBGP (never true for local routes).
    pub via_ibgp: bool,
    /// Policy rank of the selected route (0 when policies are off or the
    /// route is local/customer-learned).
    pub rank: u8,
}

impl Selected {
    /// The local-origination entry for an owned prefix.
    pub fn local() -> Selected {
        Selected {
            path: AsPath::local(),
            next_hop: NextHop::Local,
            via_ibgp: false,
            rank: 0,
        }
    }
}

/// Adj-RIB-In: every route currently advertised to us, keyed by prefix and
/// advertising peer.
///
/// Storage is compact: prefixes index rows directly (prefix ids are dense
/// per network) and each row is a peer-id-sorted `Vec` of the routes
/// actually held for that prefix — a handful of entries on a degree-4 AS,
/// zero bytes of heap for prefixes nothing advertises. Point lookups
/// binary-search the row; candidate iteration walks it in order, which is
/// exactly the increasing-peer-id order selection relies on for
/// determinism.
///
/// ```
/// use bgpsim_bgp::rib::{AdjRibIn, RouteEntry};
/// use bgpsim_bgp::{AsPath, Prefix};
/// use bgpsim_topology::{AsId, RouterId};
///
/// let mut rib = AdjRibIn::new();
/// let p = Prefix::new(0);
/// let peer = RouterId::new(1);
/// rib.insert(p, peer, RouteEntry {
///     path: AsPath::from_hops([AsId::new(1)]), ibgp: false, rank: 0 });
/// assert_eq!(rib.candidates(p).count(), 1);
/// rib.remove(p, peer);
/// assert_eq!(rib.candidates(p).count(), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct AdjRibIn {
    /// `rows[prefix.index()]` — the routes held for that prefix, sorted by
    /// advertising peer id. Rows grow lazily on first touch.
    rows: Vec<Vec<(RouterId, RouteEntry)>>,
    /// Live route count across all rows.
    len: usize,
}

impl AdjRibIn {
    /// Creates an empty Adj-RIB-In.
    pub fn new() -> AdjRibIn {
        AdjRibIn::default()
    }

    /// Installs (or replaces) the route `peer` advertises for `prefix`.
    /// Returns the replaced entry, if any.
    pub fn insert(
        &mut self,
        prefix: Prefix,
        peer: RouterId,
        entry: RouteEntry,
    ) -> Option<RouteEntry> {
        let index = prefix.index();
        if self.rows.len() <= index {
            self.rows.resize_with(index + 1, Vec::new);
        }
        let row = &mut self.rows[index];
        match row.binary_search_by_key(&peer, |&(p, _)| p) {
            Ok(i) => Some(std::mem::replace(&mut row[i].1, entry)),
            Err(i) => {
                row.insert(i, (peer, entry));
                self.len += 1;
                None
            }
        }
    }

    /// Removes `peer`'s route for `prefix` (a withdrawal). Returns the
    /// removed entry, if any.
    pub fn remove(&mut self, prefix: Prefix, peer: RouterId) -> Option<RouteEntry> {
        let row = self.rows.get_mut(prefix.index())?;
        let i = row.binary_search_by_key(&peer, |&(p, _)| p).ok()?;
        self.len -= 1;
        Some(row.remove(i).1)
    }

    /// Drops every route learned from `peer` (session teardown), returning
    /// the affected prefixes in increasing order.
    pub fn remove_peer(&mut self, peer: RouterId) -> Vec<Prefix> {
        let mut affected = Vec::new();
        for (index, row) in self.rows.iter_mut().enumerate() {
            if let Ok(i) = row.binary_search_by_key(&peer, |&(p, _)| p) {
                row.remove(i);
                self.len -= 1;
                affected.push(Prefix::new(index as u32));
            }
        }
        affected
    }

    /// The route `peer` currently advertises for `prefix`, if any.
    pub fn get(&self, prefix: Prefix, peer: RouterId) -> Option<&RouteEntry> {
        let row = self.rows.get(prefix.index())?;
        let i = row.binary_search_by_key(&peer, |&(p, _)| p).ok()?;
        Some(&row[i].1)
    }

    /// All candidate routes for `prefix`, in increasing peer-id order.
    pub fn candidates(&self, prefix: Prefix) -> impl Iterator<Item = (RouterId, &RouteEntry)> {
        self.rows
            .get(prefix.index())
            .into_iter()
            .flatten()
            .map(|(peer, entry)| (*peer, entry))
    }

    /// Prefixes for which `peer` currently advertises a route.
    pub fn prefixes_via(&self, peer: RouterId) -> Vec<Prefix> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, row)| row.binary_search_by_key(&peer, |&(p, _)| p).is_ok())
            .map(|(index, _)| Prefix::new(index as u32))
            .collect()
    }

    /// Total number of stored routes (over all prefixes and peers).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no routes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes currently committed to route storage (capacity, not just
    /// live entries) — the per-node contribution to the memory benchmark's
    /// arena accounting.
    pub fn heap_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(RouterId, RouteEntry)>();
        self.rows.capacity() * std::mem::size_of::<Vec<(RouterId, RouteEntry)>>()
            + self
                .rows
                .iter()
                .map(|row| row.capacity() * entry)
                .sum::<usize>()
    }

    /// Nested-map view of the stored routes (the pre-dense representation);
    /// the basis for equality and the serialized form.
    fn as_map(&self) -> BTreeMap<Prefix, BTreeMap<RouterId, &RouteEntry>> {
        let mut map: BTreeMap<Prefix, BTreeMap<RouterId, &RouteEntry>> = BTreeMap::new();
        for (index, row) in self.rows.iter().enumerate() {
            for (peer, entry) in row {
                map.entry(Prefix::new(index as u32))
                    .or_default()
                    .insert(*peer, entry);
            }
        }
        map
    }
}

// Equality is over the logical route set: row capacity and trailing empty
// rows depend on arrival order and must not distinguish two RIBs holding
// the same routes.
impl PartialEq for AdjRibIn {
    fn eq(&self, other: &AdjRibIn) -> bool {
        self.len == other.len && self.as_map() == other.as_map()
    }
}

impl Eq for AdjRibIn {}

// Hand-written so the wire shape stays exactly what the old
// `BTreeMap<Prefix, BTreeMap<RouterId, RouteEntry>>`-backed struct
// derived: `{"routes": {"<prefix>": {"<peer>": entry}}}`.
impl Serialize for AdjRibIn {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![(String::from("routes"), self.as_map().to_value())])
    }
}

impl Deserialize for AdjRibIn {
    fn from_value(v: &serde::Value) -> Result<AdjRibIn, serde::Error> {
        let serde::Value::Object(fields) = v else {
            return Err(serde::Error(format!(
                "AdjRibIn: expected object, found {}",
                v.kind()
            )));
        };
        let routes = fields
            .iter()
            .find(|(k, _)| k == "routes")
            .map(|(_, v)| v)
            .ok_or_else(|| serde::Error(String::from("AdjRibIn: missing field `routes`")))?;
        let map = BTreeMap::<Prefix, BTreeMap<RouterId, RouteEntry>>::from_value(routes)?;
        let mut rib = AdjRibIn::new();
        for (prefix, peers) in map {
            for (peer, entry) in peers {
                rib.insert(prefix, peer, entry);
            }
        }
        Ok(rib)
    }
}

/// Loc-RIB: the best route per prefix.
///
/// Dense: prefix ids index the table directly. The decision process reads
/// the installed best on every run and the export path on every flush, so
/// both are a bounds-checked load instead of a `BTreeMap` walk.
#[derive(Clone, Debug, Default)]
pub struct LocRib {
    best: Vec<Option<Selected>>,
    len: usize,
}

impl LocRib {
    /// Creates an empty Loc-RIB.
    pub fn new() -> LocRib {
        LocRib::default()
    }

    /// The best route for `prefix`, if the prefix is reachable.
    pub fn get(&self, prefix: Prefix) -> Option<&Selected> {
        self.best.get(prefix.index())?.as_ref()
    }

    /// Installs `selected` as the best route for `prefix`, returning the
    /// previous one.
    pub fn install(&mut self, prefix: Prefix, selected: Selected) -> Option<Selected> {
        let index = prefix.index();
        if self.best.len() <= index {
            self.best.resize_with(index + 1, || None);
        }
        let previous = self.best[index].replace(selected);
        if previous.is_none() {
            self.len += 1;
        }
        previous
    }

    /// Removes the route for `prefix` (unreachable), returning it.
    pub fn remove(&mut self, prefix: Prefix) -> Option<Selected> {
        let removed = self.best.get_mut(prefix.index())?.take();
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Iterates over `(prefix, best)` in increasing prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &Selected)> {
        self.best
            .iter()
            .enumerate()
            .filter_map(|(index, s)| Some((Prefix::new(index as u32), s.as_ref()?)))
    }

    /// Number of reachable prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is reachable.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes committed to the best-route table (capacity).
    pub fn heap_bytes(&self) -> usize {
        self.best.capacity() * std::mem::size_of::<Option<Selected>>()
    }
}

// Equality over the logical route set (trailing empty slots are invisible).
impl PartialEq for LocRib {
    fn eq(&self, other: &LocRib) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for LocRib {}

// Same wire shape as the old `BTreeMap<Prefix, Selected>`-backed struct:
// `{"best": {"<prefix>": selected}}`.
impl Serialize for LocRib {
    fn to_value(&self) -> serde::Value {
        let map: BTreeMap<Prefix, &Selected> = self.iter().collect();
        serde::Value::Object(vec![(String::from("best"), map.to_value())])
    }
}

impl Deserialize for LocRib {
    fn from_value(v: &serde::Value) -> Result<LocRib, serde::Error> {
        let serde::Value::Object(fields) = v else {
            return Err(serde::Error(format!(
                "LocRib: expected object, found {}",
                v.kind()
            )));
        };
        let best = fields
            .iter()
            .find(|(k, _)| k == "best")
            .map(|(_, v)| v)
            .ok_or_else(|| serde::Error(String::from("LocRib: missing field `best`")))?;
        let map = BTreeMap::<Prefix, Selected>::from_value(best)?;
        let mut rib = LocRib::new();
        for (prefix, selected) in map {
            rib.install(prefix, selected);
        }
        Ok(rib)
    }
}

/// Delta-encoded Adj-RIB-Out for one peer session.
///
/// The full "what did we last advertise" table is never materialized.
/// Instead the structure maintains the **mirror invariant**: a prefix with
/// no entry here was last advertised exactly as the session's *current*
/// export of the Loc-RIB computes it — so a converged session stores
/// nothing at all. An entry means the prefix is **pending** (an MRAI flush
/// owes the peer an update) and records the *frozen* last-advertised path
/// (`None` = nothing was on the wire), captured just before the first
/// Loc-RIB change since the last flush broke the mirror.
///
/// The pending set doubles as the old explicit dirty set: its keys are, by
/// construction, exactly the prefixes whose advertised state may differ
/// from the current export. Flushing drains entries, which restores the
/// mirror for those prefixes — sending is what re-synchronizes the peer.
///
/// ```
/// use bgpsim_bgp::rib::AdjRibOut;
/// use bgpsim_bgp::{AsPath, Prefix};
/// use bgpsim_topology::AsId;
///
/// let mut out = AdjRibOut::new();
/// let p = Prefix::new(0);
/// assert!(out.is_clean(), "converged session stores nothing");
/// // About to change the Loc-RIB: freeze what the peer last heard.
/// out.freeze_with(p, || Some(AsPath::from_hops([AsId::new(7)])));
/// assert_eq!(out.pending().collect::<Vec<_>>(), vec![p]);
/// // Flush: the frozen value is what redundancy is checked against.
/// let frozen = out.take(p).unwrap();
/// assert_eq!(frozen, Some(AsPath::from_hops([AsId::new(7)])));
/// assert!(out.is_clean());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdjRibOut {
    /// Pending prefixes → frozen last-advertised path. Absent = mirrors
    /// the current export (zero bytes for the converged common case).
    overrides: BTreeMap<Prefix, Option<AsPath>>,
}

impl AdjRibOut {
    /// Creates an empty (fully mirroring) Adj-RIB-Out.
    pub fn new() -> AdjRibOut {
        AdjRibOut::default()
    }

    /// Marks `prefix` pending, freezing `advertised()` (the session's
    /// export of the *pre-change* Loc-RIB — by the mirror invariant, what
    /// the peer last heard) unless an earlier change already froze it.
    /// Must be called **before** the Loc-RIB change that breaks the mirror.
    pub fn freeze_with(&mut self, prefix: Prefix, advertised: impl FnOnce() -> Option<AsPath>) {
        self.overrides.entry(prefix).or_insert_with(advertised);
    }

    /// What the peer last heard for `prefix`, if the prefix is pending
    /// (`None` = not pending: the current export is the answer).
    pub fn frozen(&self, prefix: Prefix) -> Option<&Option<AsPath>> {
        self.overrides.get(&prefix)
    }

    /// Whether the prefix is pending an update.
    pub fn is_pending(&self, prefix: Prefix) -> bool {
        self.overrides.contains_key(&prefix)
    }

    /// Whether nothing is pending (every prefix mirrors the export).
    pub fn is_clean(&self) -> bool {
        self.overrides.is_empty()
    }

    /// Number of pending prefixes.
    pub fn pending_len(&self) -> usize {
        self.overrides.len()
    }

    /// The pending prefixes, in increasing order.
    pub fn pending(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.overrides.keys().copied()
    }

    /// Takes one pending prefix's frozen value (flushing it re-establishes
    /// the mirror). `None` = the prefix was not pending.
    pub fn take(&mut self, prefix: Prefix) -> Option<Option<AsPath>> {
        self.overrides.remove(&prefix)
    }

    /// Takes the whole pending set (a full per-peer flush), leaving the
    /// session clean.
    pub fn take_pending(&mut self) -> BTreeMap<Prefix, Option<AsPath>> {
        std::mem::take(&mut self.overrides)
    }

    /// Heap bytes committed to pending entries (approximate: B-tree node
    /// overhead is charged per entry).
    pub fn heap_bytes(&self) -> usize {
        // Key + value + amortized B-tree node overhead (~2/3 occupancy of
        // 11-entry leaves, rounded to one pointer per entry).
        self.overrides.len()
            * (std::mem::size_of::<(Prefix, Option<AsPath>)>() + std::mem::size_of::<usize>())
    }
}

/// The dense slot-indexed Adj-RIB-In this engine used before the compact
/// sorted-row layout — kept in test builds so equivalence property tests
/// can drive both representations through identical histories.
#[cfg(test)]
#[derive(Clone, Debug, Default)]
pub struct DenseAdjRibIn {
    /// `(peer, column)` directory, sorted by peer id. Columns are assigned
    /// in first-seen order and never reused.
    slots: Vec<(RouterId, usize)>,
    /// `rows[prefix.index()][column]` — the route `peer` advertises for
    /// `prefix`.
    rows: Vec<Vec<Option<RouteEntry>>>,
    /// Live route count across all rows.
    len: usize,
}

#[cfg(test)]
impl DenseAdjRibIn {
    /// Creates an empty dense Adj-RIB-In.
    pub fn new() -> DenseAdjRibIn {
        DenseAdjRibIn::default()
    }

    fn slot_of(&self, peer: RouterId) -> Option<usize> {
        self.slots
            .binary_search_by_key(&peer, |&(p, _)| p)
            .ok()
            .map(|i| self.slots[i].1)
    }

    fn slot_or_assign(&mut self, peer: RouterId) -> usize {
        match self.slots.binary_search_by_key(&peer, |&(p, _)| p) {
            Ok(i) => self.slots[i].1,
            Err(i) => {
                let slot = self.slots.len();
                self.slots.insert(i, (peer, slot));
                slot
            }
        }
    }

    /// Installs (or replaces) the route `peer` advertises for `prefix`.
    pub fn insert(
        &mut self,
        prefix: Prefix,
        peer: RouterId,
        entry: RouteEntry,
    ) -> Option<RouteEntry> {
        let slot = self.slot_or_assign(peer);
        let index = prefix.index();
        if self.rows.len() <= index {
            self.rows.resize_with(index + 1, Vec::new);
        }
        let row = &mut self.rows[index];
        if row.len() <= slot {
            row.resize_with(slot + 1, || None);
        }
        let replaced = row[slot].replace(entry);
        if replaced.is_none() {
            self.len += 1;
        }
        replaced
    }

    /// Removes `peer`'s route for `prefix`.
    pub fn remove(&mut self, prefix: Prefix, peer: RouterId) -> Option<RouteEntry> {
        let slot = self.slot_of(peer)?;
        let removed = self.rows.get_mut(prefix.index())?.get_mut(slot)?.take();
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Drops every route learned from `peer`, returning affected prefixes.
    pub fn remove_peer(&mut self, peer: RouterId) -> Vec<Prefix> {
        let Some(slot) = self.slot_of(peer) else {
            return Vec::new();
        };
        let mut affected = Vec::new();
        for (index, row) in self.rows.iter_mut().enumerate() {
            if row.get_mut(slot).and_then(Option::take).is_some() {
                affected.push(Prefix::new(index as u32));
                self.len -= 1;
            }
        }
        affected
    }

    /// The route `peer` currently advertises for `prefix`, if any.
    pub fn get(&self, prefix: Prefix, peer: RouterId) -> Option<&RouteEntry> {
        let slot = self.slot_of(peer)?;
        self.rows.get(prefix.index())?.get(slot)?.as_ref()
    }

    /// All candidate routes for `prefix`, in increasing peer-id order.
    pub fn candidates(&self, prefix: Prefix) -> impl Iterator<Item = (RouterId, &RouteEntry)> {
        let row = self.rows.get(prefix.index());
        self.slots.iter().filter_map(move |&(peer, slot)| {
            let entry = row?.get(slot)?.as_ref()?;
            Some((peer, entry))
        })
    }

    /// Prefixes for which `peer` currently advertises a route.
    pub fn prefixes_via(&self, peer: RouterId) -> Vec<Prefix> {
        let Some(slot) = self.slot_of(peer) else {
            return Vec::new();
        };
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, row)| row.get(slot).is_some_and(Option::is_some))
            .map(|(index, _)| Prefix::new(index as u32))
            .collect()
    }

    /// Total number of stored routes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    fn as_map(&self) -> BTreeMap<Prefix, BTreeMap<RouterId, &RouteEntry>> {
        let mut map: BTreeMap<Prefix, BTreeMap<RouterId, &RouteEntry>> = BTreeMap::new();
        for (index, row) in self.rows.iter().enumerate() {
            for &(peer, slot) in &self.slots {
                if let Some(entry) = row.get(slot).and_then(Option::as_ref) {
                    map.entry(Prefix::new(index as u32))
                        .or_default()
                        .insert(peer, entry);
                }
            }
        }
        map
    }
}

// Same wire shape as the compact [`AdjRibIn`] (and the pre-dense nested
// maps), so serialized forms compare across representations.
#[cfg(test)]
impl Serialize for DenseAdjRibIn {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![(String::from("routes"), self.as_map().to_value())])
    }
}

/// The dense materialized Adj-RIB-Out this engine used before the
/// delta-encoded [`AdjRibOut`]: a prefix-indexed table of exactly what was
/// last advertised. Kept in test builds as the reference model the delta
/// representation's shadow assertions and equivalence tests check against.
#[cfg(test)]
#[derive(Clone, Debug, Default)]
pub struct DenseAdjRibOut {
    advertised: Vec<Option<AsPath>>,
    len: usize,
}

#[cfg(test)]
impl DenseAdjRibOut {
    /// Creates an empty dense Adj-RIB-Out.
    pub fn new() -> DenseAdjRibOut {
        DenseAdjRibOut::default()
    }

    /// What we last advertised for `prefix`, if anything.
    pub fn get(&self, prefix: Prefix) -> Option<&AsPath> {
        self.advertised.get(prefix.index())?.as_ref()
    }

    /// Records an advertisement.
    pub fn advertise(&mut self, prefix: Prefix, path: AsPath) {
        let index = prefix.index();
        if self.advertised.len() <= index {
            self.advertised.resize_with(index + 1, || None);
        }
        if self.advertised[index].replace(path).is_none() {
            self.len += 1;
        }
    }

    /// Records a withdrawal; returns whether anything had been advertised.
    pub fn withdraw(&mut self, prefix: Prefix) -> bool {
        let withdrawn = self
            .advertised
            .get_mut(prefix.index())
            .and_then(Option::take)
            .is_some();
        if withdrawn {
            self.len -= 1;
        }
        withdrawn
    }

    /// Whether nothing is advertised.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim_topology::AsId;
    use proptest::prelude::*;

    fn path(hops: &[u32]) -> AsPath {
        AsPath::from_hops(hops.iter().map(|&h| AsId::new(h)))
    }

    fn entry(hops: &[u32]) -> RouteEntry {
        RouteEntry {
            path: path(hops),
            ibgp: false,
            rank: 0,
        }
    }

    #[test]
    fn rib_in_insert_replace_remove() {
        let mut rib = AdjRibIn::new();
        let (p, peer) = (Prefix::new(0), RouterId::new(1));
        assert!(rib.insert(p, peer, entry(&[1])).is_none());
        let old = rib.insert(p, peer, entry(&[1, 2]));
        assert_eq!(old.unwrap().path, path(&[1]));
        assert_eq!(rib.len(), 1);
        assert_eq!(rib.remove(p, peer).unwrap().path, path(&[1, 2]));
        assert!(rib.is_empty());
        assert!(rib.remove(p, peer).is_none());
    }

    #[test]
    fn rib_in_candidates_sorted_by_peer() {
        let mut rib = AdjRibIn::new();
        let p = Prefix::new(0);
        rib.insert(p, RouterId::new(5), entry(&[1]));
        rib.insert(p, RouterId::new(2), entry(&[2]));
        let peers: Vec<RouterId> = rib.candidates(p).map(|(r, _)| r).collect();
        assert_eq!(peers, vec![RouterId::new(2), RouterId::new(5)]);
    }

    #[test]
    fn rib_in_remove_peer_reports_affected() {
        let mut rib = AdjRibIn::new();
        let peer = RouterId::new(3);
        rib.insert(Prefix::new(0), peer, entry(&[1]));
        rib.insert(Prefix::new(2), peer, entry(&[1]));
        rib.insert(Prefix::new(1), RouterId::new(4), entry(&[1]));
        let affected = rib.remove_peer(peer);
        assert_eq!(affected, vec![Prefix::new(0), Prefix::new(2)]);
        assert_eq!(rib.len(), 1);
        assert_eq!(rib.prefixes_via(RouterId::new(4)), vec![Prefix::new(1)]);
    }

    #[test]
    fn rib_in_equality_ignores_insertion_order() {
        // Same routes inserted in different peer orders must compare equal
        // regardless of internal layout history.
        let (p, a, b) = (Prefix::new(1), RouterId::new(2), RouterId::new(7));
        let mut x = AdjRibIn::new();
        x.insert(p, a, entry(&[1]));
        x.insert(p, b, entry(&[2]));
        let mut y = AdjRibIn::new();
        y.insert(p, b, entry(&[2]));
        y.insert(p, a, entry(&[1]));
        assert_eq!(x, y);
        y.remove(p, a);
        assert_ne!(x, y);
    }

    #[test]
    fn rib_in_serde_keeps_nested_map_shape() {
        let mut rib = AdjRibIn::new();
        rib.insert(Prefix::new(1), RouterId::new(3), entry(&[5]));
        let json = serde_json::to_string(&rib).unwrap();
        assert_eq!(
            json,
            r#"{"routes":{"1":{"3":{"path":[5],"ibgp":false,"rank":0}}}}"#
        );
        let back: AdjRibIn = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rib);
    }

    #[test]
    fn rib_in_empty_rows_commit_no_heap() {
        let mut rib = AdjRibIn::new();
        // Touch a far prefix: only the row spine grows, untouched rows are
        // empty Vecs with no heap allocation of their own.
        rib.insert(Prefix::new(64), RouterId::new(1), entry(&[1]));
        let entry_sz = std::mem::size_of::<(RouterId, RouteEntry)>();
        let spine = rib.rows.capacity() * std::mem::size_of::<Vec<(RouterId, RouteEntry)>>();
        assert!(
            rib.heap_bytes() <= spine + 4 * entry_sz,
            "{}",
            rib.heap_bytes()
        );
    }

    #[test]
    fn loc_rib_lifecycle() {
        let mut rib = LocRib::new();
        let p = Prefix::new(0);
        assert!(rib.get(p).is_none());
        rib.install(p, Selected::local());
        assert_eq!(rib.get(p).unwrap().next_hop, NextHop::Local);
        assert_eq!(rib.len(), 1);
        let removed = rib.remove(p).unwrap();
        assert!(removed.path.is_empty());
        assert!(rib.is_empty());
    }

    #[test]
    fn adj_rib_out_freeze_take_cycle() {
        let mut out = AdjRibOut::new();
        let p = Prefix::new(0);
        assert!(out.is_clean());
        out.freeze_with(p, || Some(path(&[7])));
        // A second change before the flush must keep the FIRST frozen value:
        // that is what the peer actually last heard.
        out.freeze_with(p, || Some(path(&[7, 8])));
        assert!(out.is_pending(p));
        assert_eq!(out.pending_len(), 1);
        assert_eq!(out.frozen(p), Some(&Some(path(&[7]))));
        assert_eq!(out.take(p), Some(Some(path(&[7]))));
        assert!(out.take(p).is_none(), "double take reports not-pending");
        assert!(out.is_clean());
    }

    #[test]
    fn adj_rib_out_take_pending_drains_in_prefix_order() {
        let mut out = AdjRibOut::new();
        out.freeze_with(Prefix::new(3), || None);
        out.freeze_with(Prefix::new(1), || Some(path(&[2])));
        let drained: Vec<(Prefix, Option<AsPath>)> = out.take_pending().into_iter().collect();
        assert_eq!(
            drained,
            vec![(Prefix::new(1), Some(path(&[2]))), (Prefix::new(3), None)]
        );
        assert!(out.is_clean());
    }

    #[test]
    fn adj_rib_out_dedup_support() {
        let mut out = DenseAdjRibOut::new();
        let p = Prefix::new(0);
        assert!(out.get(p).is_none());
        out.advertise(p, path(&[7]));
        assert_eq!(out.get(p), Some(&path(&[7])));
        assert!(out.withdraw(p));
        assert!(!out.withdraw(p), "double withdraw reports false");
        assert!(out.is_empty());
    }

    // ── Dense vs compact equivalence ────────────────────────────────────
    //
    // Drive both Adj-RIB-In representations through identical operation
    // histories and require them indistinguishable through every read API
    // (get, candidates incl. order, prefixes_via, remove_peer reports,
    // len, serialized form). The engine-level half is the node's shadow
    // Adj-RIB-Out and the pinned digests in tests/rib_equivalence.rs.

    #[derive(Clone, Debug)]
    enum Op {
        Insert(u32, u32, Vec<u32>),
        Remove(u32, u32),
        RemovePeer(u32),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0u32..12, 0u32..8, proptest::collection::vec(1u32..50, 0..4))
                .prop_map(|(p, r, hops)| Op::Insert(p, r, hops)),
            2 => (0u32..12, 0u32..8).prop_map(|(p, r)| Op::Remove(p, r)),
            1 => (0u32..8).prop_map(Op::RemovePeer),
        ]
    }

    proptest! {
        #[test]
        fn dense_and_compact_rib_in_agree(ops in proptest::collection::vec(op_strategy(), 0..80)) {
            let mut compact = AdjRibIn::new();
            let mut dense = DenseAdjRibIn::new();
            for op in &ops {
                match op {
                    Op::Insert(p, r, hops) => {
                        let (p, r) = (Prefix::new(*p), RouterId::new(*r));
                        let replaced_c = compact.insert(p, r, entry(hops));
                        let replaced_d = dense.insert(p, r, entry(hops));
                        prop_assert_eq!(replaced_c, replaced_d);
                    }
                    Op::Remove(p, r) => {
                        let (p, r) = (Prefix::new(*p), RouterId::new(*r));
                        prop_assert_eq!(compact.remove(p, r), dense.remove(p, r));
                    }
                    Op::RemovePeer(r) => {
                        let r = RouterId::new(*r);
                        prop_assert_eq!(compact.remove_peer(r), dense.remove_peer(r));
                    }
                }
                prop_assert_eq!(compact.len(), dense.len());
            }
            for p in 0..12u32 {
                let p = Prefix::new(p);
                let cc: Vec<(RouterId, &RouteEntry)> = compact.candidates(p).collect();
                let dc: Vec<(RouterId, &RouteEntry)> = dense.candidates(p).collect();
                prop_assert_eq!(cc, dc, "candidate sets or order differ");
                for r in 0..8u32 {
                    let r = RouterId::new(r);
                    prop_assert_eq!(compact.get(p, r), dense.get(p, r));
                }
            }
            for r in 0..8u32 {
                let r = RouterId::new(r);
                prop_assert_eq!(compact.prefixes_via(r), dense.prefixes_via(r));
            }
            prop_assert_eq!(
                serde_json::to_string(&compact).unwrap(),
                serde_json::to_string(&dense).unwrap()
            );
        }

        // The delta Adj-RIB-Out against the dense reference: simulate an
        // export table that changes under freeze/flush cycles and require
        // the delta's frozen values to always report exactly what the dense
        // table holds, and flushes to leave both in the same logical state.
        #[test]
        fn delta_rib_out_matches_dense_reference(
            rounds in proptest::collection::vec(
                proptest::collection::vec(
                    (0u32..6, (0u32..40).prop_map(|h| (h > 0).then_some(h))),
                    0..6,
                ),
                0..12,
            )
        ) {
            let mut delta = AdjRibOut::new();
            let mut dense = DenseAdjRibOut::new();
            // export: what the session currently exports per prefix.
            let mut export: BTreeMap<u32, Option<AsPath>> = BTreeMap::new();
            for changes in &rounds {
                // A burst of Loc-RIB changes: freeze-before-install each.
                for (p, hop) in changes {
                    let prefix = Prefix::new(*p);
                    let pre = export.get(p).cloned().unwrap_or(None);
                    delta.freeze_with(prefix, || pre.clone());
                    export.insert(*p, hop.map(|h| path(&[h])));
                }
                // Flush: drain pending, emit per the three-way match, and
                // mirror every emission into the dense reference.
                for (prefix, frozen) in delta.take_pending() {
                    let current = export.get(&(prefix.index() as u32)).cloned().unwrap_or(None);
                    prop_assert_eq!(
                        frozen.as_ref(),
                        dense.get(prefix),
                        "frozen value must be what the dense table last recorded"
                    );
                    match (current, frozen) {
                        (Some(path), Some(old)) if path == old => {}
                        (Some(path), _) => dense.advertise(prefix, path),
                        (None, Some(_)) => {
                            dense.withdraw(prefix);
                        }
                        (None, None) => {}
                    }
                }
                // Post-flush the mirror invariant holds: dense == export.
                for (p, exp) in &export {
                    prop_assert_eq!(dense.get(Prefix::new(*p)), exp.as_ref());
                }
                prop_assert!(delta.is_clean());
            }
        }
    }
}
