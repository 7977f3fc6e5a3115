//! Property tests for the RDF substrate: the store against a naive model,
//! N-Triples and snapshot round-trips over arbitrary graphs.

// Tests assert on infallible setup; unwrap/expect failures are test failures.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_rdf::snapshot;
use owlpar_rdf::{parse_ntriples, write_ntriples, Graph, NodeId, Term, Triple, TriplePattern, TripleStore};
use proptest::prelude::*;
use std::collections::HashSet;

fn term_strategy() -> impl Strategy<Value = Term> {
    // modest alphabets keep collision probability (and thus join cases) high
    prop_oneof![
        (0u32..40).prop_map(|i| Term::iri(format!("http://ex.org/n{i}"))),
        (0u32..10).prop_map(|i| Term::blank(format!("b{i}"))),
        "[a-z \\\\\"\n\t]{0,12}".prop_map(Term::literal),
        ("[a-z]{1,8}", "[a-z]{2,3}").prop_map(|(l, t)| Term::lang_literal(l, t)),
        "[a-z0-9]{1,8}"
            .prop_map(|l| Term::typed_literal(l, "http://www.w3.org/2001/XMLSchema#string")),
    ]
}

fn subjectish() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0u32..40).prop_map(|i| Term::iri(format!("http://ex.org/n{i}"))),
        (0u32..10).prop_map(|i| Term::blank(format!("b{i}"))),
    ]
}

fn predicate() -> impl Strategy<Value = Term> {
    (0u32..8).prop_map(|i| Term::iri(format!("http://ex.org/p{i}")))
}

fn graph_strategy() -> impl Strategy<Value = Graph> {
    prop::collection::vec((subjectish(), predicate(), term_strategy()), 0..60).prop_map(
        |triples| {
            let mut g = Graph::new();
            for (s, p, o) in triples {
                g.insert_terms(s, p, o);
            }
            g
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The indexed store behaves exactly like a set of triples with a
    /// linear-scan matcher.
    #[test]
    fn store_matches_naive_model(
        triples in prop::collection::vec((0u32..30, 0u32..6, 0u32..30), 0..100),
        qs in 0u32..30, qp in 0u32..6, qo in 0u32..30,
    ) {
        let enc: Vec<Triple> = triples
            .iter()
            .map(|&(s, p, o)| Triple::new(NodeId(s), NodeId(100 + p), NodeId(o)))
            .collect();
        let store: TripleStore = enc.iter().copied().collect();
        let model: HashSet<Triple> = enc.iter().copied().collect();
        prop_assert_eq!(store.len(), model.len());

        // all 8 pattern shapes agree with the linear scan
        for mask in 0..8u8 {
            let pat = TriplePattern::new(
                (mask & 1 != 0).then_some(NodeId(qs)),
                (mask & 2 != 0).then_some(NodeId(100 + qp)),
                (mask & 4 != 0).then_some(NodeId(qo)),
            );
            let mut via_index = store.matches(pat);
            via_index.sort_unstable();
            let mut via_scan: Vec<Triple> =
                model.iter().copied().filter(|t| pat.matches(t)).collect();
            via_scan.sort_unstable();
            prop_assert_eq!(via_index, via_scan, "mask {}", mask);
        }
    }

    /// write → parse reproduces the same term-level graph.
    #[test]
    fn ntriples_roundtrip(g in graph_strategy()) {
        let text = write_ntriples(&g);
        let mut back = Graph::new();
        let n = parse_ntriples(&text, &mut back).expect("own output parses");
        prop_assert_eq!(n, g.len());
        prop_assert_eq!(back.term_fingerprint(), g.term_fingerprint());
    }

    /// snapshot save → load is the identity (including ids).
    #[test]
    fn snapshot_roundtrip(g in graph_strategy()) {
        let mut buf = Vec::new();
        snapshot::save(&g, &mut buf).expect("save");
        let back = snapshot::load(&mut buf.as_slice()).expect("load");
        prop_assert_eq!(back.len(), g.len());
        prop_assert_eq!(back.dict.len(), g.dict.len());
        prop_assert_eq!(back.term_fingerprint(), g.term_fingerprint());
    }

    /// Fingerprints are invariant under dictionary reordering and
    /// sensitive to any triple change.
    #[test]
    fn fingerprint_properties(g in graph_strategy()) {
        // re-insert in sorted term order with a shifted dictionary
        let mut shuffled = Graph::new();
        shuffled.intern_iri("http://pad/0");
        let mut decoded: Vec<(Term, Term, Term)> =
            g.store.iter().map(|t| g.decode(t)).collect();
        decoded.sort();
        decoded.reverse();
        for (s, p, o) in decoded {
            shuffled.insert_terms(s, p, o);
        }
        prop_assert_eq!(shuffled.term_fingerprint(), g.term_fingerprint());

        let mut extended = g.clone();
        if extended.insert_iris("http://ex.org/fresh-s", "http://ex.org/fresh-p", "http://ex.org/fresh-o") {
            prop_assert_ne!(extended.term_fingerprint(), g.term_fingerprint());
        }
    }

    /// Triple batch encode/decode round-trips.
    #[test]
    fn triple_batch_roundtrip(ids in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..64)) {
        let batch: Vec<Triple> = ids
            .iter()
            .map(|&(s, p, o)| Triple::new(NodeId(s), NodeId(p), NodeId(o)))
            .collect();
        let bytes = owlpar_rdf::triple::encode_batch(&batch);
        prop_assert_eq!(owlpar_rdf::triple::decode_batch(&bytes), batch);
    }
}
