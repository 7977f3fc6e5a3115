//! An indexed, in-memory triple store over dictionary-encoded triples.
//!
//! The store has two layers behind one set of methods:
//!
//! * the **base** — an [`Arc<FrozenStore>`]: the bulk of the triples as
//!   SPO/POS sorted runs, immutable and shared by reference count
//!   (cloning a store, freezing it, or publishing it copies a pointer);
//! * the **overlay** — two nested-map indexes (SPO, POS) plus a
//!   membership set, holding only what was inserted since the last
//!   compaction.
//!
//! Invariant: the overlay holds no triple the base holds. Every read
//! answers `base ∪ overlay` (so match callbacks fire once per distinct
//! triple and counts are sums), [`TripleStore::insert`] refuses what
//! either layer has, and [`TripleStore::compact`] folds the overlay into
//! the base by linear merge. Nothing compacts on its own: a store built
//! by inserts alone stays a pure hash store, and its iteration order is
//! the membership set's, as it always was. An owner that keeps inserting
//! — a served KB's writer, a distributed worker absorbing deliveries —
//! calls [`TripleStore::compact_if_outgrown`] after each batch, which is
//! where the one compaction policy lives.
//!
//! Bulk results never pass through the per-triple indexes: a closure
//! engine that worked on the base hands the closed [`FrozenStore`] back
//! with [`TripleStore::adopt`], and a loader or a master folds a sorted
//! run in with [`TripleStore::merge_run`].

use crate::dictionary::NodeId;
use crate::frozen::FrozenStore;
use crate::fx::{FxHashMap, FxHashSet};
use crate::triple::Triple;
use std::sync::Arc;

pub(crate) type Nested = FxHashMap<NodeId, FxHashMap<NodeId, Vec<NodeId>>>;

/// A match pattern: `None` positions are wildcards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TriplePattern {
    /// Subject constraint.
    pub s: Option<NodeId>,
    /// Predicate constraint.
    pub p: Option<NodeId>,
    /// Object constraint.
    pub o: Option<NodeId>,
}

impl TriplePattern {
    /// A pattern with every position wildcarded.
    pub fn any() -> Self {
        Self::default()
    }

    /// Construct from options.
    pub fn new(s: Option<NodeId>, p: Option<NodeId>, o: Option<NodeId>) -> Self {
        TriplePattern { s, p, o }
    }

    /// Does `t` satisfy this pattern?
    #[inline]
    pub fn matches(&self, t: &Triple) -> bool {
        self.s.is_none_or(|s| s == t.s)
            && self.p.is_none_or(|p| p == t.p)
            && self.o.is_none_or(|o| o == t.o)
    }

    /// Number of bound positions (0–3).
    pub fn bound_count(&self) -> usize {
        usize::from(self.s.is_some()) + usize::from(self.p.is_some()) + usize::from(self.o.is_some())
    }
}

/// The indexed triple store: a shared frozen base plus a hash-indexed
/// overlay of recent inserts. See the module docs.
#[derive(Debug, Default, Clone)]
pub struct TripleStore {
    /// The sorted bulk.
    base: Arc<FrozenStore>,
    /// Overlay membership; disjoint from `base`.
    all: FxHashSet<Triple>,
    spo: Nested, // s -> p -> [o]
    pos: Nested, // p -> o -> [s]
}

impl TripleStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct triples.
    pub fn len(&self) -> usize {
        self.base.len() + self.all.len()
    }

    /// `true` iff the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty() && self.all.is_empty()
    }

    /// Insert a triple. Returns `true` if it was not already present.
    pub fn insert(&mut self, t: Triple) -> bool {
        if self.base.contains(&t) || !self.all.insert(t) {
            return false;
        }
        self.spo.entry(t.s).or_default().entry(t.p).or_default().push(t.o);
        self.pos.entry(t.p).or_default().entry(t.o).or_default().push(t.s);
        true
    }

    /// Insert every triple from an iterator; returns how many were new.
    pub fn extend(&mut self, iter: impl IntoIterator<Item = Triple>) -> usize {
        iter.into_iter().filter(|&t| self.insert(t)).count()
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, t: &Triple) -> bool {
        self.all.contains(t) || self.base.contains(t)
    }

    /// Iterate over all triples: the base in SPO order, then the overlay
    /// in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.base.iter().chain(self.overlay())
    }

    /// All triples, sorted SPO — deterministic order for tests/serialization.
    pub fn iter_sorted(&self) -> Vec<Triple> {
        let mut recent: Vec<Triple> = self.overlay().collect();
        recent.sort_unstable();
        self.base.sorted_union(&recent)
    }

    /// The frozen layer.
    pub fn base(&self) -> &Arc<FrozenStore> {
        &self.base
    }

    /// The triples inserted since the last compaction (arbitrary order).
    pub fn overlay(&self) -> impl Iterator<Item = Triple> + '_ {
        self.all.iter().copied()
    }

    /// How many triples the overlay holds. O(1).
    pub fn overlay_len(&self) -> usize {
        self.all.len()
    }

    /// The whole store as one frozen store: the base itself (shared, not
    /// copied) when the overlay is empty, otherwise the base merged with
    /// the overlay.
    pub fn frozen(&self) -> Arc<FrozenStore> {
        self.folded(0)
    }

    /// [`TripleStore::frozen`] on at most `threads` threads, the caller's
    /// included (`0`: whatever the machine has).
    fn folded(&self, threads: usize) -> Arc<FrozenStore> {
        if self.all.is_empty() {
            Arc::clone(&self.base)
        } else {
            Arc::new(self.base.fold_nested([&self.spo, &self.pos], self.all.len(), threads))
        }
    }

    /// Fold the overlay into the base: a linear merge of sorted runs per
    /// column family (the overlay's runs come off its nested indexes, so
    /// only key sets and posting lists are sorted). No-op on an empty
    /// overlay.
    pub fn compact(&mut self) {
        self.compact_within(0);
    }

    fn compact_within(&mut self, threads: usize) {
        if !self.all.is_empty() {
            self.base = self.folded(threads);
            self.clear_overlay();
        }
    }

    /// The compaction policy of every store that grows by inserts:
    /// [`compact`](TripleStore::compact) once the overlay holds more than
    /// 4096 triples and more than a quarter of the base, on at most
    /// `threads` threads (`0`: whatever the machine has). Returns whether
    /// it compacted. Between compactions a batch costs O(batch), a clone
    /// O(overlay), and the merges amortize to O(1) per triple.
    pub fn compact_if_outgrown(&mut self, threads: usize) -> bool {
        let outgrown = self.all.len() > 4096.max(self.base.len() / 4);
        if outgrown {
            self.compact_within(threads);
        }
        outgrown
    }

    /// Replace the base by `closed`, a superset of it — what a closure
    /// engine that started from [`TripleStore::base`] hands back. O(1)
    /// on a compacted store; otherwise the overlay is swept for triples
    /// `closed` now holds.
    pub fn adopt(&mut self, closed: impl Into<Arc<FrozenStore>>) {
        let closed = closed.into();
        debug_assert!(closed.len() >= self.base.len());
        self.base = closed;
        self.sweep_overlay();
    }

    /// Fold a run into the base without touching the per-triple indexes.
    /// `run` should be SPO-sorted and duplicate-free (a merged worker
    /// output, a sorted load); any other order costs a sort. Returns how
    /// many of its triples were new to the store.
    pub fn merge_run(&mut self, run: &[Triple]) -> usize {
        if run.is_empty() {
            return 0;
        }
        let before = self.len();
        self.base = Arc::new(self.base.merge_triples(run));
        self.sweep_overlay();
        self.len() - before
    }

    /// Restore disjointness after the base grew: drop from the overlay
    /// whatever the base now holds.
    fn sweep_overlay(&mut self) {
        let keep: Vec<Triple> = self
            .overlay()
            .filter(|t| !self.base.contains(t))
            .collect();
        if keep.len() < self.all.len() {
            self.clear_overlay();
            self.extend(keep);
        }
    }

    fn clear_overlay(&mut self) {
        self.all = FxHashSet::default();
        self.spo = Nested::default();
        self.pos = Nested::default();
    }

    /// Invoke `f` for every triple matching `pat`, using the cheapest
    /// available index of each layer. This is the workhorse of the
    /// datalog joins.
    pub fn for_each_match(&self, pat: TriplePattern, mut f: impl FnMut(Triple)) {
        self.base.for_each_match(pat, &mut f);
        if self.all.is_empty() {
            return;
        }
        match (pat.s, pat.p, pat.o) {
            (Some(s), Some(p), Some(o)) => {
                let t = Triple::new(s, p, o);
                if self.all.contains(&t) {
                    f(t);
                }
            }
            (Some(s), Some(p), None) => {
                if let Some(os) = self.spo.get(&s).and_then(|m| m.get(&p)) {
                    for &o in os {
                        f(Triple::new(s, p, o));
                    }
                }
            }
            (Some(s), None, Some(o)) => {
                if let Some(pm) = self.spo.get(&s) {
                    for &p in pm.keys() {
                        let t = Triple::new(s, p, o);
                        if self.all.contains(&t) {
                            f(t);
                        }
                    }
                }
            }
            (None, Some(p), Some(o)) => {
                if let Some(ss) = self.pos.get(&p).and_then(|m| m.get(&o)) {
                    for &s in ss {
                        f(Triple::new(s, p, o));
                    }
                }
            }
            (Some(s), None, None) => {
                if let Some(pm) = self.spo.get(&s) {
                    for (&p, os) in pm {
                        for &o in os {
                            f(Triple::new(s, p, o));
                        }
                    }
                }
            }
            (None, Some(p), None) => {
                if let Some(om) = self.pos.get(&p) {
                    for (&o, ss) in om {
                        for &s in ss {
                            f(Triple::new(s, p, o));
                        }
                    }
                }
            }
            (None, None, Some(o)) => {
                for (&p, om) in &self.pos {
                    for &s in om.get(&o).into_iter().flatten() {
                        f(Triple::new(s, p, o));
                    }
                }
            }
            (None, None, None) => {
                for &t in &self.all {
                    f(t);
                }
            }
        }
    }

    /// Collect all matches of `pat` into a vector.
    pub fn matches(&self, pat: TriplePattern) -> Vec<Triple> {
        let mut out = Vec::new();
        self.for_each_match(pat, |t| out.push(t));
        out
    }

    /// Number of matches without materializing them: index arithmetic on
    /// the base plus posting-list lengths in the overlay, no triple
    /// built; the layers are disjoint, so the sum is exact.
    pub fn count_matches(&self, pat: TriplePattern) -> usize {
        fn row_len(nested: &Nested, k0: NodeId) -> usize {
            nested
                .get(&k0)
                .map_or(0, |m| m.values().map(Vec::len).sum())
        }
        fn list_len(nested: &Nested, k0: NodeId, k1: NodeId) -> usize {
            nested
                .get(&k0)
                .and_then(|m| m.get(&k1))
                .map_or(0, Vec::len)
        }
        let recent = match (pat.s, pat.p, pat.o) {
            (Some(s), Some(p), Some(o)) => {
                usize::from(self.all.contains(&Triple::new(s, p, o)))
            }
            (Some(s), Some(p), None) => list_len(&self.spo, s, p),
            (None, Some(p), Some(o)) => list_len(&self.pos, p, o),
            (Some(s), None, Some(o)) => self.spo.get(&s).map_or(0, |pm| {
                pm.keys().filter(|&&p| self.all.contains(&Triple::new(s, p, o))).count()
            }),
            (Some(s), None, None) => row_len(&self.spo, s),
            (None, Some(p), None) => row_len(&self.pos, p),
            (None, None, Some(o)) => self.pos.values().map(|om| om.get(&o).map_or(0, Vec::len)).sum(),
            (None, None, None) => self.all.len(),
        };
        self.base.count_matches(pat) + recent
    }

    /// Every distinct node appearing in subject or object position.
    /// (Predicates are deliberately excluded: the paper's partitioners own
    /// *resources*, i.e. graph vertices.)
    pub fn nodes(&self) -> FxHashSet<NodeId> {
        let mut set: FxHashSet<NodeId> = self
            .base
            .subjects()
            .iter()
            .copied()
            .chain(self.base.object_column())
            .collect();
        set.extend(self.spo.keys());
        set.extend(self.pos.values().flat_map(|om| om.keys()));
        set
    }

    /// Every distinct predicate.
    pub fn predicates(&self) -> FxHashSet<NodeId> {
        self.base
            .predicates()
            .iter()
            .chain(self.pos.keys())
            .copied()
            .collect()
    }

    /// Histogram `predicate -> triple count`; feeds the edge weights of the
    /// rule-dependency partitioner.
    pub fn predicate_counts(&self) -> FxHashMap<NodeId, usize> {
        let mut h: FxHashMap<NodeId, usize> = self.base.predicate_counts().collect();
        for t in &self.all {
            *h.entry(t.p).or_default() += 1;
        }
        h
    }
}

impl FromIterator<Triple> for TripleStore {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        let mut s = TripleStore::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    fn sample() -> TripleStore {
        [t(0, 1, 2), t(0, 1, 3), t(0, 2, 2), t(4, 1, 2), t(4, 2, 0)]
            .into_iter()
            .collect()
    }

    #[test]
    fn insert_deduplicates() {
        let mut s = TripleStore::new();
        assert!(s.insert(t(1, 2, 3)));
        assert!(!s.insert(t(1, 2, 3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn contains_and_len() {
        let s = sample();
        assert_eq!(s.len(), 5);
        assert!(s.contains(&t(0, 1, 2)));
        assert!(!s.contains(&t(9, 9, 9)));
    }

    #[test]
    fn all_eight_pattern_shapes() {
        let s = sample();
        let pat = |a: Option<u32>, b: Option<u32>, c: Option<u32>| {
            TriplePattern::new(a.map(NodeId), b.map(NodeId), c.map(NodeId))
        };
        // fully bound
        assert_eq!(s.matches(pat(Some(0), Some(1), Some(2))), vec![t(0, 1, 2)]);
        assert!(s.matches(pat(Some(0), Some(1), Some(9))).is_empty());
        // s p ?
        let mut m = s.matches(pat(Some(0), Some(1), None));
        m.sort_unstable();
        assert_eq!(m, vec![t(0, 1, 2), t(0, 1, 3)]);
        // s ? o
        let mut m = s.matches(pat(Some(0), None, Some(2)));
        m.sort_unstable();
        assert_eq!(m, vec![t(0, 1, 2), t(0, 2, 2)]);
        // ? p o
        let mut m = s.matches(pat(None, Some(1), Some(2)));
        m.sort_unstable();
        assert_eq!(m, vec![t(0, 1, 2), t(4, 1, 2)]);
        // s ? ?
        assert_eq!(s.matches(pat(Some(4), None, None)).len(), 2);
        // ? p ?
        assert_eq!(s.matches(pat(None, Some(1), None)).len(), 3);
        // ? ? o
        assert_eq!(s.matches(pat(None, None, Some(2))).len(), 3);
        // ? ? ?
        assert_eq!(s.matches(TriplePattern::any()).len(), 5);
    }

    #[test]
    fn matches_agree_with_linear_scan() {
        let s = sample();
        let pats = [
            TriplePattern::new(Some(NodeId(0)), None, None),
            TriplePattern::new(None, Some(NodeId(2)), None),
            TriplePattern::new(None, None, Some(NodeId(0))),
            TriplePattern::new(Some(NodeId(4)), Some(NodeId(2)), None),
            TriplePattern::any(),
        ];
        for pat in pats {
            let mut via_index = s.matches(pat);
            via_index.sort_unstable();
            let mut via_scan: Vec<Triple> =
                s.iter().filter(|t| pat.matches(t)).collect();
            via_scan.sort_unstable();
            assert_eq!(via_index, via_scan, "pattern {pat:?}");
        }
    }

    #[test]
    fn nodes_excludes_predicates() {
        let s: TripleStore = [t(10, 99, 11)].into_iter().collect();
        let nodes = s.nodes();
        assert!(nodes.contains(&NodeId(10)));
        assert!(nodes.contains(&NodeId(11)));
        assert!(!nodes.contains(&NodeId(99)));
    }

    #[test]
    fn predicate_counts_histogram() {
        let s = sample();
        let h = s.predicate_counts();
        assert_eq!(h.get(&NodeId(1)), Some(&3));
        assert_eq!(h.get(&NodeId(2)), Some(&2));
    }

    #[test]
    fn extend_counts_only_new() {
        let mut a = sample();
        assert_eq!(a.extend([t(0, 1, 2), t(7, 7, 7)]), 1);
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn iter_sorted_is_deterministic_and_complete() {
        let s = sample();
        let v = s.iter_sorted();
        assert_eq!(v.len(), 5);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn pattern_bound_count() {
        assert_eq!(TriplePattern::any().bound_count(), 0);
        assert_eq!(
            TriplePattern::new(Some(NodeId(0)), None, Some(NodeId(1))).bound_count(),
            2
        );
    }

    #[test]
    fn count_matches_equals_matches_len_for_all_shapes() {
        let s = sample();
        let opts = [None, Some(0), Some(1), Some(2), Some(4), Some(9)];
        for a in opts {
            for b in opts {
                for c in opts {
                    let pat =
                        TriplePattern::new(a.map(NodeId), b.map(NodeId), c.map(NodeId));
                    assert_eq!(
                        s.count_matches(pat),
                        s.matches(pat).len(),
                        "pattern {pat:?}"
                    );
                }
            }
        }
    }
}
