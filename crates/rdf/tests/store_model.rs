//! Model-based property suite for the two-layer [`TripleStore`]: random
//! interleavings of every mutating entry point, checked after each step
//! against a `BTreeSet<Triple>` — every read, and the invariant that the
//! overlay shares no triple with the base — plus the fixed cases of a
//! store with both layers populated and of the compaction policy.

// Tests assert on infallible setup; unwrap/expect failures are test failures.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_rdf::{
    parse_ntriples, FrozenStore, Graph, NodeId, Triple, TriplePattern, TripleSource, TripleStore,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

type Model = BTreeSet<Triple>;

/// Small id ranges keep collisions — duplicates, re-inserts of what the
/// base holds, runs overlapping the overlay — frequent.
fn triple() -> impl Strategy<Value = Triple> {
    (0u32..12, 0u32..4, 0u32..12)
        .prop_map(|(s, p, o)| Triple::new(NodeId(s), NodeId(100 + p), NodeId(o)))
}

/// One step: which entry point, and the triples it is given.
fn step() -> impl Strategy<Value = (u8, Vec<Triple>)> {
    (0u8..7, prop::collection::vec(triple(), 0..14))
}

fn sorted_dedup(mut v: Vec<Triple>) -> Vec<Triple> {
    v.sort_unstable();
    v.dedup();
    v
}

/// Apply one step to store and model alike, checking what it returns.
fn apply(store: &mut TripleStore, model: &mut Model, kind: u8, payload: &[Triple]) {
    let fresh = |model: &Model| {
        sorted_dedup(payload.to_vec())
            .iter()
            .filter(|t| !model.contains(t))
            .count()
    };
    match kind {
        0 => {
            for &t in payload {
                assert_eq!(store.insert(t), model.insert(t), "insert {t:?}");
            }
        }
        1 => {
            let want = fresh(model);
            assert_eq!(store.extend(payload.iter().copied()), want, "extend");
            model.extend(payload);
        }
        2 => store.compact(),
        3 => {
            // A closed superset of the base, as a closure engine would
            // hand back — here the base plus the payload, which may name
            // triples the overlay holds.
            let closed =
                FrozenStore::from_triples(store.base().iter().chain(payload.iter().copied()));
            store.adopt(closed);
            model.extend(payload);
        }
        4 => {
            let want = fresh(model);
            assert_eq!(
                store.merge_run(&sorted_dedup(payload.to_vec())),
                want,
                "merge_run"
            );
            model.extend(payload);
        }
        5 => {
            // any order, duplicates and all: tolerated at the cost of a sort
            let want = fresh(model);
            assert_eq!(store.merge_run(payload), want, "merge_run (unsorted)");
            model.extend(payload);
        }
        _ => {
            // A clone is a store of its own: swap it in and drop the
            // original, so later steps run on the copy.
            *store = store.clone();
        }
    }
}

/// Every read of `store` against `model`; `probes` choose the patterns.
fn check(store: &TripleStore, model: &Model, probes: &[Triple]) {
    let want: Vec<Triple> = model.iter().copied().collect();
    assert_eq!(store.len(), want.len());
    assert_eq!(store.is_empty(), want.is_empty());
    assert_eq!(store.iter_sorted(), want);
    assert_eq!(
        sorted_of(store.iter()),
        want,
        "iter() yields each triple once"
    );
    assert_eq!(store.frozen().iter_sorted(), want);
    assert_eq!(FrozenStore::from_store(store).iter_sorted(), want);

    // the layers are disjoint and together are the store
    assert!(
        store.overlay().all(|t| !store.base().contains(&t)),
        "overlay ∩ base ≠ ∅"
    );
    assert_eq!(store.base().len() + store.overlay().count(), want.len());
    assert_eq!(store.overlay_len(), store.overlay().count());

    for probe in probes.iter().chain(want.first()) {
        assert_eq!(
            store.contains(probe),
            model.contains(probe),
            "contains {probe:?}"
        );
        for mask in 0..8u8 {
            let pat = TriplePattern::new(
                (mask & 4 != 0).then_some(probe.s),
                (mask & 2 != 0).then_some(probe.p),
                (mask & 1 != 0).then_some(probe.o),
            );
            let scan: Vec<Triple> = want.iter().copied().filter(|t| pat.matches(t)).collect();
            // not deduplicated: a triple reported by both layers would show
            assert_eq!(sorted_of(store.matches(pat).into_iter()), scan, "{pat:?}");
            assert_eq!(store.count_matches(pat), scan.len(), "count {pat:?}");
        }
    }

    let mut hist: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut nodes: BTreeSet<NodeId> = BTreeSet::new();
    for t in &want {
        *hist.entry(t.p).or_default() += 1;
        nodes.extend([t.s, t.o]);
    }
    assert_eq!(
        store
            .predicate_counts()
            .into_iter()
            .collect::<BTreeMap<_, _>>(),
        hist
    );
    assert_eq!(
        store.predicates().into_iter().collect::<BTreeSet<_>>(),
        hist.keys().copied().collect()
    );
    assert_eq!(store.nodes().into_iter().collect::<BTreeSet<_>>(), nodes);
}

fn sorted_of(it: impl Iterator<Item = Triple>) -> Vec<Triple> {
    let mut v: Vec<Triple> = it.collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_interleaving_agrees_with_the_set_model(
        steps in prop::collection::vec(step(), 1..24),
        absent in prop::collection::vec(triple(), 1..4),
    ) {
        let mut store = TripleStore::new();
        let mut model = Model::new();
        // clones taken along the way must not see later steps
        let mut kept: Vec<(TripleStore, Model)> = Vec::new();
        for (i, (kind, payload)) in steps.iter().enumerate() {
            if i % 5 == 2 {
                kept.push((store.clone(), model.clone()));
            }
            apply(&mut store, &mut model, *kind, payload);
            let probes: Vec<Triple> = payload.iter().chain(&absent).copied().collect();
            check(&store, &model, &probes);
        }
        for (clone, model_then) in &kept {
            check(clone, model_then, &absent);
        }
    }

    /// Two frozen stores merge into what freezing their union from
    /// scratch gives — every family, so every pattern shape — whatever
    /// they share and on every thread budget.
    #[test]
    fn merge_frozen_is_the_frozen_union(
        a in prop::collection::vec(triple(), 0..40),
        b in prop::collection::vec(triple(), 0..40),
        threads in 0usize..4,
    ) {
        let merged = FrozenStore::from_triples(a.iter().copied())
            .merge_frozen(&FrozenStore::from_triples(b.iter().copied()), threads);
        let model: Model = a.iter().chain(&b).copied().collect();
        let mut store = TripleStore::new();
        store.adopt(merged.clone());
        check(&store, &model, &a);
        // and `merge_triples`, which is "index, then merge_frozen"
        let via_batch = FrozenStore::from_triples(a.iter().copied()).merge_triples_within(&b, threads);
        prop_assert_eq!(via_batch.iter_sorted(), merged.iter_sorted());
        prop_assert_eq!(merged.max_id(), model.iter().flat_map(|t| [t.s, t.p, t.o]).max());
    }

    /// The parts of a pattern's matches partition them: over `part` in
    /// `0..parts` every match is reported once, for every pattern shape,
    /// including match sets shorter than `parts`.
    #[test]
    fn match_parts_partition_every_pattern_shape(
        triples in prop::collection::vec(triple(), 0..60),
        probe in triple(),
        parts in 1usize..9,
    ) {
        let fs = FrozenStore::from_triples(triples.iter().copied());
        for mask in 0..8u8 {
            let pat = TriplePattern::new(
                (mask & 4 != 0).then_some(probe.s),
                (mask & 2 != 0).then_some(probe.p),
                (mask & 1 != 0).then_some(probe.o),
            );
            let mut got = Vec::new();
            let mut sizes = Vec::new();
            for part in 0..parts {
                let before = got.len();
                fs.for_each_match_part(pat, part, parts, |t| got.push(t));
                sizes.push(got.len() - before);
            }
            // not deduplicated: a match two parts report would show
            prop_assert_eq!(sorted_of(got.into_iter()), sorted_of(fs.matches(pat).into_iter()), "{:?}", pat);
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            prop_assert!(max - min <= 1, "near-equal parts, got {:?}", sizes);
        }
    }

    /// `parse_ntriples` counts the distinct triples that were new —
    /// whatever the store's layers held before and however often a line
    /// repeats — and a malformed line keeps exactly the lines before it.
    #[test]
    fn parse_counts_distinct_new_triples(
        before in prop::collection::vec(triple(), 0..20),
        compacted in 0usize..20,
        lines in prop::collection::vec(triple(), 0..30),
        // where a malformed line goes, if inside the document
        bad in 0usize..60,
    ) {
        // NodeId(i) is the i-th interned IRI, so a triple renders as a line
        // by its ids.
        let mut g = Graph::new();
        for i in 0..112u32 {
            g.intern_iri(format!("http://ex.org/n{i}"));
        }
        let iri = |id: NodeId| format!("<http://ex.org/n{}>", id.0);
        let mut text: Vec<String> = lines
            .iter()
            .map(|t| format!("{} {} {} .\n", iri(t.s), iri(t.p), iri(t.o)))
            .collect();
        let kept = if bad <= lines.len() {
            text.insert(bad, "<http://ex.org/n0> <http://ex.org/unclosed <http://ex.org/n1> .\n".into());
            &lines[..bad]
        } else {
            &lines[..]
        };
        let nt = text.concat();
        // pre-populated: part of it in the base, the rest in the overlay
        for (i, &t) in before.iter().enumerate() {
            g.store.insert(t);
            if i + 1 == compacted {
                g.store.compact();
            }
        }
        let mut model: Model = before.iter().copied().collect();
        let want = sorted_dedup(kept.to_vec()).iter().filter(|t| !model.contains(t)).count();
        match parse_ntriples(&nt, &mut g) {
            Ok(added) => {
                prop_assert!(bad > lines.len());
                prop_assert_eq!(added, want);
            }
            Err(e) => prop_assert_eq!(e.line, bad + 1),
        }
        prop_assert_eq!(g.dict.len(), 112, "nothing of the malformed line is interned");
        model.extend(kept);
        check(&g.store, &model, &lines);
    }
}

/// A document big enough for the loader to cut it into chunks and
/// tokenise them on helper threads loads exactly like its lines handed
/// over one at a time (each a one-chunk document on the calling thread):
/// same ids, same store, same count — into a graph that already holds
/// part of it, half compacted.
#[test]
fn a_document_over_the_parallel_floor_loads_like_its_lines_one_by_one() {
    let pad = "x".repeat(90);
    let node = |n: usize| match n % 5 {
        0 => format!("_:b{n}"),
        1 => format!("\"{pad} \\\"{n}\\\" caf\u{e9}\"@en"),
        _ => format!("<http://ex.org/{pad}/n{n}>"),
    };
    let mut lines: Vec<String> = Vec::new();
    for i in 0..2400usize {
        let (s, o) = (i * 7 % 610, i * 13 % 457);
        let s = if s % 5 == 1 { s + 1 } else { s }; // no literal subjects
        lines.push(format!(
            "{} <http://ex.org/{pad}/p{}> {} .",
            node(s),
            i % 9,
            node(o)
        ));
        if i % 97 == 0 {
            lines.push(format!("# {pad}"));
            lines.push(lines[i / 2].clone());
        }
    }
    let doc = lines.join("\n");
    assert!(doc.len() > 1 << 19, "{} bytes", doc.len());

    let mut start = Graph::new();
    let head = lines[..40].join("\n");
    parse_ntriples(&head, &mut start).unwrap();
    for line in &lines[2000..2010] {
        let mut scratch = Graph::new();
        parse_ntriples(line, &mut scratch).unwrap();
        let (s, p, o) = scratch.decode(scratch.store.iter().next().unwrap());
        start.insert_terms(s, p, o);
    }
    assert!(start.store.overlay().count() > 0 && !start.store.base().is_empty());

    let mut whole = start.clone();
    let added = parse_ntriples(&doc, &mut whole).unwrap();
    let mut by_line = start.clone();
    let mut added_by_line = 0;
    for line in &lines {
        added_by_line += parse_ntriples(line, &mut by_line).unwrap();
    }
    assert_eq!(added, added_by_line);
    assert_eq!(whole.store.iter_sorted(), by_line.store.iter_sorted());
    assert_eq!(
        whole.dict.iter().collect::<Vec<_>>(),
        by_line.dict.iter().collect::<Vec<_>>()
    );
    assert_eq!(whole.term_fingerprint(), by_line.term_fingerprint());

    // and a malformed line in the middle: same line number, same prefix
    let mut broken = lines.clone();
    broken.insert(
        1500,
        "<http://ex.org/a> <http://ex.org/unclosed <http://ex.org/b> .".into(),
    );
    let mut whole = start.clone();
    let err = parse_ntriples(&broken.join("\n"), &mut whole).unwrap_err();
    assert_eq!(err.line, 1501);
    let mut by_line = start.clone();
    for line in &broken[..1500] {
        parse_ntriples(line, &mut by_line).unwrap();
    }
    assert_eq!(whole.store.iter_sorted(), by_line.store.iter_sorted());
    assert_eq!(whole.dict.len(), by_line.dict.len());
}

#[test]
fn a_syntax_error_keeps_the_lines_before_it() {
    let mut g = Graph::new();
    let nt = "<http://x/a> <http://x/p> <http://x/b> .\n\
              <http://x/a> <http://x/p> <http://x/b> .\n\
              <http://x/c> <http://x/p> \"unterminated .\n";
    let err = parse_ntriples(nt, &mut g).unwrap_err();
    assert_eq!(err.line, 3);
    assert_eq!(g.len(), 1);
}

fn t(s: u32, p: u32, o: u32) -> Triple {
    Triple::new(NodeId(s), NodeId(p), NodeId(o))
}

/// Both layers populated: every read is their union, each triple
/// once, whichever layer holds it.
#[test]
fn base_and_overlay_read_as_their_union() {
    let frozen = [
        t(0, 1, 2),
        t(0, 1, 3),
        t(0, 2, 2),
        t(4, 1, 2),
        t(4, 2, 0),
        t(7, 9, 7),
    ];
    let mut s = TripleStore::new();
    s.adopt(FrozenStore::from_triples(frozen));
    assert!(s.insert(t(8, 1, 2)));
    assert!(s.insert(t(9, 1, 1)));
    assert!(!s.insert(t(0, 1, 2)), "the base already holds it");
    assert_eq!((s.len(), s.base().len(), s.overlay_len()), (8, 6, 2));
    assert!(s.contains(&t(8, 1, 2)) && s.contains(&t(0, 1, 2)));
    assert!(
        s.overlay().all(|t| !s.base().contains(&t)),
        "overlay ∩ base ≠ ∅"
    );

    let all = s.iter_sorted();
    assert_eq!(all.len(), 8);
    assert!(all.windows(2).all(|w| w[0] < w[1]));
    let mut m = s.matches(TriplePattern::new(None, Some(NodeId(1)), Some(NodeId(2))));
    m.sort_unstable();
    assert_eq!(m, vec![t(0, 1, 2), t(4, 1, 2), t(8, 1, 2)]);
    // all eight shapes, against a scan; not deduplicated, so a triple
    // reported by both layers would show
    let opts = [None, Some(0), Some(1), Some(2), Some(8), Some(9)];
    for a in opts {
        for b in opts {
            for c in opts {
                let pat = TriplePattern::new(a.map(NodeId), b.map(NodeId), c.map(NodeId));
                let mut got = s.matches(pat);
                got.sort_unstable();
                let scan: Vec<Triple> =
                    all.iter().copied().filter(|t| pat.matches(t)).collect();
                assert_eq!(got, scan, "pattern {pat:?}");
                assert_eq!(s.count_matches(pat), scan.len(), "count {pat:?}");
            }
        }
    }
    // a clone shares the base and owns its overlay
    let mut copy = s.clone();
    assert!(Arc::ptr_eq(copy.base(), s.base()));
    copy.insert(t(10, 1, 1));
    assert_eq!((copy.len(), s.len()), (9, 8));
}

#[test]
fn compact_if_outgrown_folds_past_the_threshold_only() {
    let many = |from: u32, n: u32| (from..from + n).map(|i| t(i, 1, i % 7));
    // a small base: the floor of 4096 decides
    let mut s: TripleStore = many(0, 100).collect();
    s.compact();
    s.extend(many(1000, 4096));
    assert!(!s.compact_if_outgrown(1), "4096 is not past the floor");
    assert_eq!(s.overlay_len(), 4096);
    s.insert(t(9000, 1, 0));
    assert!(s.compact_if_outgrown(1));
    assert_eq!((s.overlay_len(), s.base().len(), s.len()), (0, 4197, 4197));
    // a big base: a quarter of it decides
    s.extend(many(10_000, 20_000));
    s.compact();
    s.extend(many(40_000, 6_049));
    assert!(!s.compact_if_outgrown(0), "6049 = 24197 / 4");
    s.insert(t(50_000, 1, 0));
    assert!(s.compact_if_outgrown(0));
    assert_eq!((s.overlay_len(), s.len()), (0, 30_247));
    assert!(!s.compact_if_outgrown(0), "nothing left to fold");
}
