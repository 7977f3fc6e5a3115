//! Dictionary encoding: a two-way interner mapping [`Term`]s to dense
//! `u32` ids.
//!
//! All reasoning, partitioning and communication operate on ids; the
//! dictionary is consulted only at system edges. Ids are allocated densely
//! from 0, which lets the partitioners use plain vectors indexed by id
//! instead of hash maps.

use crate::term::{Term, TermRef};

/// Dense identifier of an interned term. `NodeId(u32)` keeps encoded
/// triples at 12 bytes, well under the 128-byte memcpy threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize`, for vector indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A two-way `Term` ↔ `NodeId` mapping.
///
/// Interning an already-present term returns its existing id; the mapping
/// is injective in both directions.
///
/// Each term is stored once, in `terms`; the other direction is an index
/// over that vector — an open-addressing table of ids, not a second map
/// keyed by a copy of the term. A lookup therefore takes a borrowed term
/// (`TermRef`) and compares it with the stored text, so a loader builds a
/// `Term` (allocates) only the first time it sees one.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    terms: Vec<Term>,
    /// Linear-probing index over `terms`, a power of two long and at most
    /// half full. A slot is 0 (empty) or `tag << 32 | id + 1`, where `tag`
    /// is the high half of the term's [`TermRef::dict_hash`]; the tag's
    /// leading bits are the probe start, so growing never re-reads a term.
    slots: Vec<u64>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Intern a term, returning its (possibly pre-existing) id.
    ///
    /// Panics if the dictionary would reach 2^32 terms — ids are `u32`
    /// by design (three-word triples), and no supported dataset comes
    /// within two orders of magnitude of that.
    pub fn intern(&mut self, term: Term) -> NodeId {
        let hash = term.as_ref().dict_hash();
        match self.find(hash, &term.as_ref()) {
            Some(id) => id,
            None => self.push(hash, term),
        }
    }

    /// Intern a borrowed term whose `dict_hash()` is `hash` (the loader
    /// hashes on its tokenising threads): a term the dictionary already
    /// holds costs a lookup and no allocation.
    pub(crate) fn intern_hashed(&mut self, hash: u64, term: &TermRef<'_>) -> NodeId {
        match self.find(hash, term) {
            Some(id) => id,
            None => self.push(hash, term.to_term()),
        }
    }

    /// Convenience: intern an IRI given as a string.
    pub fn intern_iri(&mut self, iri: impl AsRef<str>) -> NodeId {
        let term = TermRef::Iri(iri.as_ref());
        self.intern_hashed(term.dict_hash(), &term)
    }

    /// Look up the id of a term without interning.
    pub fn id(&self, term: &Term) -> Option<NodeId> {
        let term = term.as_ref();
        self.find(term.dict_hash(), &term)
    }

    /// Look up the term for an id.
    pub fn term(&self, id: NodeId) -> Option<&Term> {
        self.terms.get(id.index())
    }

    /// Iterate over `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Term)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (NodeId(i as u32), t))
    }

    /// Merge another dictionary into this one, returning a remapping table
    /// `other_id -> self_id`. Used when the master aggregates partition
    /// outputs that were encoded against per-worker dictionaries.
    pub fn merge(&mut self, other: &Dictionary) -> Vec<NodeId> {
        other
            .terms
            .iter()
            .map(|t| self.intern(t.clone()))
            .collect()
    }

    /// Where the probe sequence of a term tagged `tag` starts.
    fn probe_start(&self, tag: u64) -> usize {
        // `slots.len()` is 2^bits: the tag's leading `bits` bits.
        (tag << 32 >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    fn find(&self, hash: u64, term: &TermRef<'_>) -> Option<NodeId> {
        if self.slots.is_empty() {
            return None;
        }
        let tag = hash >> 32;
        let mask = self.slots.len() - 1;
        let mut i = self.probe_start(tag);
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return None;
            }
            let id = (slot as u32 - 1) as usize;
            if slot >> 32 == tag && *term == self.terms[id] {
                return Some(NodeId(id as u32));
            }
            i = (i + 1) & mask;
        }
    }

    /// Append a term known to be absent.
    #[allow(clippy::expect_used)]
    fn push(&mut self, hash: u64, term: Term) -> NodeId {
        self.terms.push(term);
        let id_plus_1 = u32::try_from(self.terms.len()).expect("dictionary overflow: 2^32 terms");
        if self.terms.len() * 2 > self.slots.len() {
            let old = std::mem::take(&mut self.slots);
            self.slots = vec![0; (old.len() * 2).max(16)];
            for slot in old.into_iter().filter(|&slot| slot != 0) {
                self.place(slot);
            }
        }
        self.place((hash >> 32 << 32) | u64::from(id_plus_1));
        NodeId(id_plus_1 - 1)
    }

    /// Put an occupied slot value into the first free slot of its probe
    /// sequence.
    fn place(&mut self, slot: u64) {
        let mask = self.slots.len() - 1;
        let mut i = self.probe_start(slot >> 32);
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern(Term::iri("http://x/a"));
        let b = d.intern(Term::iri("http://x/a"));
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_are_dense_from_zero() {
        let mut d = Dictionary::new();
        for i in 0..100 {
            let id = d.intern(Term::iri(format!("http://x/{i}")));
            assert_eq!(id, NodeId(i));
        }
    }

    #[test]
    fn roundtrip_id_term() {
        let mut d = Dictionary::new();
        let t = Term::lang_literal("bonjour", "fr");
        let id = d.intern(t.clone());
        assert_eq!(d.term(id), Some(&t));
        assert_eq!(d.id(&t), Some(id));
        assert_eq!(d.id(&Term::literal("bonjour")), None);
    }

    #[test]
    fn term_lookup_out_of_range_is_none() {
        let d = Dictionary::new();
        assert_eq!(d.term(NodeId(5)), None);
        assert!(d.is_empty());
    }

    #[test]
    fn distinct_literal_kinds_get_distinct_ids() {
        let mut d = Dictionary::new();
        let a = d.intern(Term::literal("x"));
        let b = d.intern(Term::lang_literal("x", "en"));
        let c = d.intern(Term::typed_literal("x", "http://dt"));
        let e = d.intern(Term::iri("x"));
        let f = d.intern(Term::blank("x"));
        let all = [a, b, c, e, f];
        for (i, x) in all.iter().enumerate() {
            for y in &all[i + 1..] {
                assert_ne!(x, y);
            }
        }
    }

    #[test]
    fn merge_produces_correct_remap() {
        let mut d1 = Dictionary::new();
        d1.intern_iri("http://x/a");
        d1.intern_iri("http://x/b");

        let mut d2 = Dictionary::new();
        d2.intern_iri("http://x/b"); // id 0 in d2, id 1 in d1
        d2.intern_iri("http://x/c"); // id 1 in d2, new in d1

        let remap = d1.merge(&d2);
        assert_eq!(remap, vec![NodeId(1), NodeId(2)]);
        assert_eq!(d1.len(), 3);
        assert_eq!(d1.term(NodeId(2)), Some(&Term::iri("http://x/c")));
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut d = Dictionary::new();
        d.intern_iri("http://x/a");
        d.intern_iri("http://x/b");
        let pairs: Vec<_> = d.iter().map(|(id, _)| id).collect();
        assert_eq!(pairs, vec![NodeId(0), NodeId(1)]);
    }
}
