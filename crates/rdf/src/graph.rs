//! [`Graph`]: a triple store paired with its dictionary.
//!
//! This is the unit the public API hands around: generators produce a
//! `Graph`, the reasoner closes a `Graph`, partitioners split a `Graph`.

use crate::dictionary::{Dictionary, NodeId};
use crate::store::{TriplePattern, TripleStore};
use crate::term::Term;
use crate::triple::Triple;

/// A dictionary-encoded RDF graph.
#[derive(Debug, Default, Clone)]
pub struct Graph {
    /// The term ↔ id mapping.
    pub dict: Dictionary,
    /// The encoded triples.
    pub store: TripleStore,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` iff the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Intern a term.
    pub fn intern(&mut self, t: Term) -> NodeId {
        self.dict.intern(t)
    }

    /// Intern an IRI string.
    pub fn intern_iri(&mut self, iri: impl AsRef<str>) -> NodeId {
        self.dict.intern_iri(iri)
    }

    /// Term for an id.
    pub fn term(&self, id: NodeId) -> Option<&Term> {
        self.dict.term(id)
    }

    /// Insert an encoded triple. Returns `true` if new.
    pub fn insert(&mut self, s: NodeId, p: NodeId, o: NodeId) -> bool {
        self.store.insert(Triple::new(s, p, o))
    }

    /// Insert a triple of terms, interning as needed. Returns `true` if new.
    pub fn insert_terms(&mut self, s: Term, p: Term, o: Term) -> bool {
        let s = self.dict.intern(s);
        let p = self.dict.intern(p);
        let o = self.dict.intern(o);
        self.insert(s, p, o)
    }

    /// Insert a triple of IRIs given as strings. Returns `true` if new.
    pub fn insert_iris(
        &mut self,
        s: impl AsRef<str>,
        p: impl AsRef<str>,
        o: impl AsRef<str>,
    ) -> bool {
        self.insert_terms(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    /// Does the graph contain the triple of terms?
    pub fn contains_terms(&self, s: &Term, p: &Term, o: &Term) -> bool {
        match (self.dict.id(s), self.dict.id(p), self.dict.id(o)) {
            (Some(s), Some(p), Some(o)) => self.store.contains(&Triple::new(s, p, o)),
            _ => false,
        }
    }

    /// Pattern matching re-exported at graph level.
    pub fn matches(&self, pat: TriplePattern) -> Vec<Triple> {
        self.store.matches(pat)
    }

    /// The terms of a triple, borrowed from the dictionary (panics if ids
    /// are foreign to this graph's dictionary — a programming error).
    #[allow(clippy::expect_used)]
    pub fn decode_ref(&self, t: Triple) -> (&Term, &Term, &Term) {
        (
            self.dict.term(t.s).expect("unknown subject id"),
            self.dict.term(t.p).expect("unknown predicate id"),
            self.dict.term(t.o).expect("unknown object id"),
        )
    }

    /// [`Graph::decode_ref`] for callers that want owned terms.
    pub fn decode(&self, t: Triple) -> (Term, Term, Term) {
        let (s, p, o) = self.decode_ref(t);
        (s.clone(), p.clone(), o.clone())
    }

    /// Import every triple of `other` (different dictionary) into `self`,
    /// remapping ids. Returns the number of new triples.
    pub fn absorb(&mut self, other: &Graph) -> usize {
        let remap = self.dict.merge(&other.dict);
        let mut added = 0;
        for t in other.store.iter() {
            if self.store.insert(Triple::new(
                remap[t.s.index()],
                remap[t.p.index()],
                remap[t.o.index()],
            )) {
                added += 1;
            }
        }
        added
    }

    /// A deterministic fingerprint of the triple set *as terms* (not ids),
    /// usable to compare closures computed with different dictionaries.
    pub fn term_fingerprint(&self) -> u64 {
        use std::hash::BuildHasher;
        let bh = crate::fx::FxBuildHasher::default();
        let mut acc: u64 = 0;
        for t in self.store.iter() {
            // XOR-fold so the fingerprint is order independent. A tuple
            // of references hashes as the tuple of owned terms does.
            acc ^= bh.hash_one(self.decode_ref(t));
        }
        acc ^ (self.store.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn insert_and_contains_via_terms() {
        let mut g = Graph::new();
        assert!(g.insert_iris("http://x/a", "http://x/p", "http://x/b"));
        assert!(!g.insert_iris("http://x/a", "http://x/p", "http://x/b"));
        assert!(g.contains_terms(
            &Term::iri("http://x/a"),
            &Term::iri("http://x/p"),
            &Term::iri("http://x/b")
        ));
        assert!(!g.contains_terms(
            &Term::iri("http://x/b"),
            &Term::iri("http://x/p"),
            &Term::iri("http://x/a")
        ));
    }

    #[test]
    fn decode_roundtrip() {
        let mut g = Graph::new();
        g.insert_terms(Term::iri("http://x/s"), Term::iri("http://x/p"), Term::literal("42"));
        let t = g.store.iter().next().unwrap();
        let (s, p, o) = g.decode(t);
        assert_eq!(s, Term::iri("http://x/s"));
        assert_eq!(p, Term::iri("http://x/p"));
        assert_eq!(o, Term::literal("42"));
    }

    #[test]
    fn absorb_remaps_foreign_ids() {
        let mut g1 = Graph::new();
        g1.insert_iris("http://x/a", "http://x/p", "http://x/b");

        let mut g2 = Graph::new();
        // Insert in a different order so ids differ between dictionaries.
        g2.intern_iri("http://x/zzz");
        g2.insert_iris("http://x/b", "http://x/p", "http://x/c");
        g2.insert_iris("http://x/a", "http://x/p", "http://x/b"); // duplicate of g1's

        let added = g1.absorb(&g2);
        assert_eq!(added, 1);
        assert_eq!(g1.len(), 2);
        assert!(g1.contains_terms(
            &Term::iri("http://x/b"),
            &Term::iri("http://x/p"),
            &Term::iri("http://x/c")
        ));
    }

    #[test]
    fn fingerprint_is_dictionary_independent() {
        let mut g1 = Graph::new();
        g1.insert_iris("http://x/a", "http://x/p", "http://x/b");
        g1.insert_iris("http://x/c", "http://x/p", "http://x/d");

        let mut g2 = Graph::new();
        g2.intern_iri("http://unrelated/padding"); // shift all ids
        g2.insert_iris("http://x/c", "http://x/p", "http://x/d");
        g2.insert_iris("http://x/a", "http://x/p", "http://x/b");

        assert_eq!(g1.term_fingerprint(), g2.term_fingerprint());

        g2.insert_iris("http://x/e", "http://x/p", "http://x/f");
        assert_ne!(g1.term_fingerprint(), g2.term_fingerprint());
    }

    #[test]
    fn empty_graph_properties() {
        let g = Graph::new();
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
        assert_eq!(g.matches(TriplePattern::any()), vec![]);
    }
}
