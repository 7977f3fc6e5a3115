//! Synthetic benchmark data generators.
//!
//! The paper evaluates on LUBM-10, UOBM-4 and a proprietary oilfield
//! dataset (MDC). We rebuild all three as seeded generators:
//!
//! * [`lubm`] — the Lehigh University Benchmark universe: universities,
//!   departments, faculty, students, courses, publications, following the
//!   UBA generator's distributions. Entities cluster per university, so
//!   graph/domain partitioning finds low-cut partitions (the super-linear
//!   regime of Fig. 1).
//! * [`uobm`] — a UOBM-style extension: the LUBM universe plus dense
//!   *cross-university* social links (`isFriendOf`, symmetric;
//!   `hasSameHomeTownWith`, transitive+symmetric). The high inter-cluster
//!   connectivity drives up edge-cut and input replication, reproducing
//!   the sub-linear UOBM regime of Fig. 1.
//! * [`mdc`] — an MDC-like synthetic oilfield: fields, wells, equipment,
//!   sensors with a deep transitive `partOf` hierarchy and per-field
//!   clustering (the paper's other super-linear dataset).
//!
//! All generators are deterministic given their seed, and emit schema
//! (TBox) triples alongside instance data, exactly like loading an OWL
//! file plus its ontology into a real KB.

#![forbid(unsafe_code)]

pub mod lubm;
pub mod mdc;
pub mod ontology;
pub mod uobm;

use owlpar_rdf::vocab::RDF_TYPE;
use owlpar_rdf::{Graph, NodeId, Triple};
use std::fmt::Write as _;

pub use lubm::{generate_lubm, LubmConfig};
pub use mdc::{generate_mdc, MdcConfig};
pub use uobm::{generate_uobm, UobmConfig};

/// A graph under generation. Terms are interned as entities are created
/// (so ids follow creation order); instance triples wait in a plain
/// vector and are stored in one merge at the end, over the TBox helpers'
/// handful of inserts. A generated graph arrives compacted, like a loaded
/// one, without a triple of it ever entering the hash overlay.
pub(crate) struct Builder {
    pub(crate) g: Graph,
    /// The instance triples, in creation order, duplicates and all.
    pub(crate) triples: Vec<Triple>,
    pub(crate) rdf_type: NodeId,
    /// Scratch for entity IRIs: the dictionary copies what it keeps.
    iri: String,
}

impl Builder {
    /// Start from a graph that holds the TBox.
    pub(crate) fn new(mut g: Graph) -> Self {
        let rdf_type = g.intern_iri(RDF_TYPE);
        Builder {
            g,
            triples: Vec::new(),
            rdf_type,
            iri: String::new(),
        }
    }

    pub(crate) fn add(&mut self, s: NodeId, p: NodeId, o: NodeId) {
        self.triples.push(Triple::new(s, p, o));
    }

    /// A new entity of `class`, named by the formatted IRI.
    pub(crate) fn typed(&mut self, iri: std::fmt::Arguments<'_>, class: NodeId) -> NodeId {
        self.iri.clear();
        // writing to a String cannot fail
        let _ = self.iri.write_fmt(iri);
        let id = self.g.intern_iri(&self.iri);
        self.add(id, self.rdf_type, class);
        id
    }

    /// Store the instance triples and hand the graph over.
    pub(crate) fn finish(mut self) -> Graph {
        // The TBox inserts ride along: the merge sweeps out of the overlay
        // whatever it put into the base.
        self.triples.extend(self.g.store.overlay());
        self.g.store.merge_run(&self.triples);
        self.g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owlpar_rdf::TriplePattern;

    /// One kind of `Graph`: a generated one arrives compacted like a loaded
    /// one, and inserts after that land in the overlay over its base.
    #[test]
    fn generated_graphs_arrive_compacted_and_stay_insertable() {
        let graphs = [
            ("lubm", generate_lubm(&LubmConfig::mini(1))),
            ("uobm", generate_uobm(&UobmConfig::mini(2))),
            ("mdc", generate_mdc(&MdcConfig::mini())),
        ];
        for (name, mut g) in graphs {
            assert_eq!(g.store.overlay().count(), 0, "{name}");
            assert_eq!(g.store.base().len(), g.len(), "{name}");
            let run: Vec<Triple> = g.store.iter().collect();
            assert!(owlpar_rdf::is_sorted_run(&run), "{name}: SPO order");

            let held = run[run.len() / 2];
            assert!(
                !g.insert(held.s, held.p, held.o),
                "{name}: the base holds it"
            );
            let fresh = g.intern_iri("http://example.org/fresh");
            assert!(g.insert(fresh, held.p, held.o), "{name}");
            assert!(!g.insert(fresh, held.p, held.o), "{name}");
            assert_eq!(g.len(), run.len() + 1, "{name}");
            assert_eq!(g.store.overlay().count(), 1, "{name}");
            let by_object = g.matches(TriplePattern::new(None, Some(held.p), Some(held.o)));
            assert!(by_object.contains(&held) && by_object.iter().any(|t| t.s == fresh));
            g.store.compact();
            assert_eq!((g.len(), g.store.overlay().count()), (run.len() + 1, 0));
        }
    }

    /// `term_fingerprint` hashes borrowed terms; the value is the one the
    /// owned `(Term, Term, Term)` tuples gave (the text pins hold the
    /// values recorded before the change).
    #[test]
    fn fingerprint_of_borrowed_terms_equals_the_owned_one() {
        use std::hash::BuildHasher;
        let g = generate_uobm(&UobmConfig::mini(1));
        let bh = owlpar_rdf::fx::FxBuildHasher::default();
        let owned = g
            .store
            .iter()
            .fold(0u64, |acc, t| acc ^ bh.hash_one(g.decode(t)));
        assert_eq!(
            g.term_fingerprint(),
            owned ^ (g.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        );
    }
}
