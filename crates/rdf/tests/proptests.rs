//! Property tests for the RDF substrate: the store against a naive model,
//! N-Triples, snapshot and triple-block round-trips over arbitrary input.

// Tests assert on infallible setup; unwrap/expect failures are test failures.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_rdf::snapshot;
use owlpar_rdf::{
    decode_triple_block, encode_triple_block, parse_ntriples, write_ntriples, Graph, NodeId, Term,
    Triple, TripleBlockError, TriplePattern, TripleStore,
};
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

    /// snapshot save → load is the identity (including ids), and the
    /// image is canonical: saving what was loaded gives the same bytes.
    #[test]
    fn snapshot_roundtrip(g in graph_strategy()) {
        let mut buf = Vec::new();
        snapshot::save(&g, &mut buf).expect("save");
        let back = snapshot::load(&mut buf.as_slice()).expect("load");
        prop_assert_eq!(back.len(), g.len());
        prop_assert_eq!(back.dict.len(), g.dict.len());
        prop_assert_eq!(back.term_fingerprint(), g.term_fingerprint());
        prop_assert_eq!(snapshot::save_to_vec(&back).expect("save again"), buf);
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

    /// A triple block decodes to the set it encodes — sorted, without
    /// duplicates, over the whole id range — consuming exactly its own
    /// bytes, and every strict prefix of it is a typed truncation.
    #[test]
    fn triple_block_roundtrip(ids in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..64)) {
        let batch: Vec<Triple> = ids
            .iter()
            .map(|&(s, p, o)| Triple::new(NodeId(s), NodeId(p), NodeId(o)))
            .collect();
        let block = encode_triple_block(&batch);
        let mut set = batch.clone();
        set.sort_unstable();
        set.dedup();
        prop_assert_eq!(decode_triple_block(&block), Ok((set, block.len())));
        for cut in 0..block.len() {
            let truncated = matches!(
                decode_triple_block(&block[..cut]),
                Err(TripleBlockError::Truncated { .. })
            );
            prop_assert!(truncated, "cut at {}", cut);
        }
    }
}
