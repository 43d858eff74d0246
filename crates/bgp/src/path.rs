//! AS paths.

use std::fmt;
use std::sync::{Arc, OnceLock};

use bgpsim_topology::AsId;
use serde::{Deserialize, Serialize};

/// An AS path: the ordered list of ASes a route has traversed, nearest
/// first.
///
/// An empty path denotes a locally originated route. Paths grow by
/// [`prepend`](AsPath::prepend)ing the advertising AS when a route crosses
/// an eBGP session (iBGP re-advertisement leaves the path untouched).
///
/// The hop list is a shared immutable `Arc<[AsId]>`: a path is cloned on
/// every RIB insert, every UPDATE message, and every Loc-RIB install, and
/// with shared storage each of those clones is a refcount bump instead of
/// a heap allocation. All locally originated routes share one static empty
/// allocation.
///
/// ```
/// use bgpsim_bgp::AsPath;
/// use bgpsim_topology::AsId;
///
/// let origin = AsPath::local();
/// let at_origin_peer = origin.prepend(AsId::new(7));
/// assert_eq!(at_origin_peer.len(), 1);
/// assert!(at_origin_peer.contains(AsId::new(7)));
/// ```
// `derived_hash_with_manual_eq`: the manual `PartialEq` below only adds a
// pointer-identity fast path; same allocation implies equal hops, so it
// agrees with the derived `Hash` over the hop slice.
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Clone, Debug, Eq, PartialOrd, Ord, Hash)]
pub struct AsPath(Arc<[AsId]>);

// Shared storage makes identity a cheap witness for equality: clones of
// one path (the common case on the export path, where the Adj-RIB-Out
// holds a clone of exactly what the prepend cache returns) compare in one
// pointer check instead of a slice scan.
impl PartialEq for AsPath {
    fn eq(&self, other: &AsPath) -> bool {
        self.ptr_eq(other) || self.0 == other.0
    }
}

impl AsPath {
    /// The empty path of a locally originated route.
    pub fn local() -> AsPath {
        static EMPTY: OnceLock<Arc<[AsId]>> = OnceLock::new();
        AsPath(Arc::clone(EMPTY.get_or_init(|| Arc::from(Vec::new()))))
    }

    /// Builds a path from nearest-first hops.
    pub fn from_hops<I: IntoIterator<Item = AsId>>(hops: I) -> AsPath {
        let mut it = hops.into_iter().peekable();
        if it.peek().is_none() {
            // Share the static empty allocation instead of making a new one.
            return AsPath::local();
        }
        AsPath(it.collect())
    }

    /// Number of AS hops. This is the paper's sole route-selection metric.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether this is a local (zero-hop) path.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether `asn` appears anywhere in the path (BGP loop detection).
    pub fn contains(&self, asn: AsId) -> bool {
        self.0.contains(&asn)
    }

    /// Returns a new path with `asn` prepended (what an eBGP speaker in
    /// `asn` advertises to its neighbors).
    #[must_use]
    pub fn prepend(&self, asn: AsId) -> AsPath {
        let mut hops = Vec::with_capacity(self.0.len() + 1);
        hops.push(asn);
        hops.extend_from_slice(&self.0);
        AsPath(hops.into())
    }

    /// The hops, nearest first.
    pub fn hops(&self) -> &[AsId] {
        &self.0
    }

    /// The originating AS (last hop), or `None` for a local path.
    pub fn origin(&self) -> Option<AsId> {
        self.0.last().copied()
    }

    /// Whether two paths share the same backing allocation (refcount-bump
    /// clones of one another). Used by the per-node prepend cache to key
    /// on identity rather than content, and by memory tests as the
    /// witness that network clones share path storage instead of deep-
    /// copying it.
    pub fn ptr_eq(&self, other: &AsPath) -> bool {
        std::ptr::eq(self.0.as_ptr(), other.0.as_ptr())
    }

    /// Address of the backing hop storage: a cheap identity key, stable
    /// for as long as any clone of this path is alive.
    pub(crate) fn storage_key(&self) -> usize {
        self.0.as_ptr() as usize
    }
}

impl Default for AsPath {
    fn default() -> AsPath {
        AsPath::local()
    }
}

// Hand-written so the wire shape stays exactly what the old
// `AsPath(Vec<AsId>)` newtype derived: a plain JSON array of hops.
impl Serialize for AsPath {
    fn to_value(&self) -> serde::Value {
        self.hops().to_value()
    }
}

impl Deserialize for AsPath {
    fn from_value(v: &serde::Value) -> Result<AsPath, serde::Error> {
        Vec::<AsId>::from_value(v).map(AsPath::from_hops)
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "(local)");
        }
        for (i, asn) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{asn}")?;
        }
        Ok(())
    }
}

impl FromIterator<AsId> for AsPath {
    fn from_iter<I: IntoIterator<Item = AsId>>(iter: I) -> AsPath {
        AsPath::from_hops(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asn(i: u32) -> AsId {
        AsId::new(i)
    }

    #[test]
    fn local_path_is_empty() {
        let p = AsPath::local();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.origin(), None);
        assert_eq!(p.to_string(), "(local)");
    }

    #[test]
    fn prepend_builds_nearest_first() {
        let p = AsPath::local()
            .prepend(asn(3))
            .prepend(asn(2))
            .prepend(asn(1));
        assert_eq!(p.hops(), &[asn(1), asn(2), asn(3)]);
        assert_eq!(p.origin(), Some(asn(3)));
        assert_eq!(p.len(), 3);
        assert_eq!(p.to_string(), "AS1 AS2 AS3");
    }

    #[test]
    fn loop_detection() {
        let p = AsPath::from_hops([asn(1), asn(2)]);
        assert!(p.contains(asn(2)));
        assert!(!p.contains(asn(3)));
    }

    #[test]
    fn prepend_does_not_mutate_original() {
        let p = AsPath::from_hops([asn(9)]);
        let q = p.prepend(asn(8));
        assert_eq!(p.len(), 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn collect_from_iterator() {
        let p: AsPath = [asn(4), asn(5)].into_iter().collect();
        assert_eq!(p.hops(), &[asn(4), asn(5)]);
    }

    #[test]
    fn clones_share_storage() {
        let p = AsPath::from_hops([asn(1), asn(2)]);
        let q = p.clone();
        assert!(p.ptr_eq(&q));
        assert_eq!(p.storage_key(), q.storage_key());
        // Equal content, distinct allocations.
        let r = AsPath::from_hops([asn(1), asn(2)]);
        assert_eq!(p, r);
        assert!(!p.ptr_eq(&r));
    }

    #[test]
    fn local_paths_share_one_allocation() {
        assert!(AsPath::local().ptr_eq(&AsPath::local()));
        assert!(AsPath::local().ptr_eq(&AsPath::default()));
        assert!(AsPath::local().ptr_eq(&AsPath::from_hops([])));
    }

    #[test]
    fn serde_round_trip_is_a_plain_array() {
        let p = AsPath::from_hops([asn(4), asn(7)]);
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(json, "[4,7]");
        let back: AsPath = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
