//! Property test for the incremental maintenance path: for randomized
//! insert sequences, the delta-closure state must equal the closure
//! `owlpar_core::run_serial` computes from scratch over the accumulated
//! triples — including sequences that mutate the schema mid-stream, and
//! a stream long enough to compact the writer's store twice.

// Tests assert on infallible setup; unwrap/expect failures are test failures.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_core::run_serial;
use owlpar_datalog::MaterializationStrategy;
use owlpar_horst::HorstReasoner;
use owlpar_rdf::{parse_ntriples, Dictionary, Graph};
use owlpar_serve::{recover, Durability, DurabilityConfig, ServingKb};
use std::sync::Arc;

/// Deterministic xorshift64* generator (no external deps).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(2685821657736338717).max(1))
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const RDF_TYPE: &str = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>";
const SUBCLASS: &str = "<http://www.w3.org/2000/01/rdf-schema#subClassOf>";
const TRANSITIVE: &str = "<http://www.w3.org/2002/07/owl#TransitiveProperty>";

fn entity(i: u64) -> String {
    format!("<http://d/e{i}>")
}

fn class(i: u64) -> String {
    format!("<http://o/C{i}>")
}

/// A random N-Triples line from a small universe: mostly instance
/// triples (type assertions, transitive `partOf` edges), occasionally —
/// when `allow_schema` — a schema axiom.
fn random_line(rng: &mut Rng, allow_schema: bool) -> String {
    match rng.below(if allow_schema { 10 } else { 8 }) {
        0..=4 => format!("{} {RDF_TYPE} {} .", entity(rng.below(12)), class(rng.below(4))),
        5..=7 => format!(
            "{} <http://o/partOf> {} .",
            entity(rng.below(12)),
            entity(rng.below(12))
        ),
        8 => format!("{} {SUBCLASS} {} .", class(rng.below(4)), class(rng.below(4))),
        _ => format!("{} {SUBCLASS} <http://o/Thing> .", class(rng.below(4))),
    }
}

fn base_nt(rng: &mut Rng) -> String {
    let mut nt = String::new();
    // Fixed schema skeleton: a subclass edge and a transitive property.
    nt.push_str(&format!("{} {SUBCLASS} {} .\n", class(0), class(1)));
    nt.push_str(&format!("<http://o/partOf> {RDF_TYPE} {TRANSITIVE} .\n"));
    for _ in 0..(3 + rng.below(6)) {
        nt.push_str(&random_line(rng, false));
        nt.push('\n');
    }
    nt
}

/// Dictionary-independent canonical form of a triple set.
fn canon(triples: impl IntoIterator<Item = owlpar_rdf::Triple>, dict: &Dictionary) -> Vec<String> {
    let mut out: Vec<String> = triples
        .into_iter()
        .map(|t| {
            let term = |id| {
                dict.term(id)
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "?".to_string())
            };
            format!("{} {} {}", term(t.s), term(t.p), term(t.o))
        })
        .collect();
    out.sort();
    out
}

fn oracle_closure(all_nt: &str) -> Vec<String> {
    let mut g = Graph::new();
    parse_ntriples(all_nt, &mut g).expect("oracle parse");
    run_serial(&mut g, MaterializationStrategy::ForwardSemiNaive);
    canon(g.store.iter(), &g.dict)
}

fn check_seed(seed: u64, allow_schema: bool) {
    let mut rng = Rng::new(seed);
    let mut accumulated = base_nt(&mut rng);

    let mut g = Graph::new();
    parse_ntriples(&accumulated, &mut g).expect("base parse");
    let hr = HorstReasoner::from_graph(&mut g, MaterializationStrategy::ForwardSemiNaive);
    hr.materialize(&mut g);
    let kb = ServingKb::from_closed(g, hr);

    for batch_no in 0..3 {
        let mut batch = String::new();
        for _ in 0..(1 + rng.below(8)) {
            batch.push_str(&random_line(&mut rng, allow_schema));
            batch.push('\n');
        }
        accumulated.push_str(&batch);
        kb.insert_ntriples(&batch).expect("insert batch");

        let snapshot = kb.snapshot();
        assert_eq!(snapshot.epoch, batch_no + 1);
        assert_eq!(
            canon(snapshot.store.iter(), &snapshot.dict),
            oracle_closure(&accumulated),
            "seed {seed} batch {batch_no}: delta closure diverged from \
             the from-scratch run_serial closure"
        );
    }
}

#[test]
fn delta_closure_equals_from_scratch_closure_instance_only() {
    for seed in 1..=20 {
        check_seed(seed, false);
    }
}

#[test]
fn delta_closure_equals_from_scratch_closure_with_schema_changes() {
    for seed in 100..=119 {
        check_seed(seed, true);
    }
}

/// The writer keeps one store and compacts it by the store's own policy:
/// over a stream that outgrows the overlay twice, every snapshot's
/// overlay stays within `max(4096, base / 4)`, snapshots between two
/// compactions share one frozen base and differ by the batch alone, each
/// compaction is a checkpoint, and what is served — and what a restart
/// recovers — is the from-scratch closure of everything inserted.
#[test]
fn compaction_bounds_the_overlay_shares_the_base_and_checkpoints() {
    let dir = std::env::temp_dir().join(format!("owlpar-incremental-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = || DurabilityConfig {
        checkpoint_bytes: u64::MAX, // only a compaction checkpoints
        ..DurabilityConfig::new(&dir)
    };

    let mut accumulated = format!(
        "{} {SUBCLASS} {} .\n{} {RDF_TYPE} {} .\n",
        class(0),
        class(1),
        entity(0),
        class(0)
    );
    let mut g = Graph::new();
    parse_ntriples(&accumulated, &mut g).expect("base parse");
    let hr = HorstReasoner::from_graph(&mut g, MaterializationStrategy::ForwardSemiNaive);
    hr.materialize(&mut g);
    let durability = Durability::init(durable(), &g).expect("fresh data dir");
    let kb = ServingKb::from_closed(g, hr).with_durability(durability);

    let mut compactions = 0;
    let mut previous = kb.snapshot();
    for batch_no in 0..7u64 {
        // 700 new members of C0, each of which is then a C1 too
        let batch: String = (0..700)
            .map(|i| {
                format!(
                    "{} {RDF_TYPE} {} .\n",
                    entity(1000 * (batch_no + 1) + i),
                    class(0)
                )
            })
            .collect();
        accumulated.push_str(&batch);
        let out = kb.insert_ntriples(&batch).expect("insert batch");
        assert_eq!((out.added, out.derived), (700, 700));

        let snapshot = kb.snapshot();
        let (base, recent) = (snapshot.store.base(), snapshot.store.overlay_len());
        assert!(
            recent <= 4096.max(base.len() / 4),
            "batch {batch_no}: overlay {recent} over base {}",
            base.len()
        );
        assert!(snapshot.store.overlay().all(|t| !base.contains(&t)));
        if Arc::ptr_eq(base, previous.store.base()) {
            assert_eq!(recent, previous.store.overlay_len() + 1400);
        } else {
            compactions += 1;
            assert_eq!((recent, base.len()), (0, previous.store.len() + 1400));
        }
        previous = snapshot;
    }
    assert_eq!(compactions, 2, "batches 3 and 6 outgrow the overlay");
    assert_eq!(kb.durability_status().as_deref(), Some("ok"));

    let want = oracle_closure(&accumulated);
    assert_eq!(canon(previous.store.iter(), &previous.dict), want);
    drop(kb);
    let (recovered, _, report) = recover(durable()).expect("recover");
    assert_eq!(report.checkpoint_seq, 2, "one checkpoint per compaction");
    assert_eq!(report.batches_replayed, 1, "the batch after the last one");
    assert_eq!(canon(recovered.store.iter(), &recovered.dict), want);
    std::fs::remove_dir_all(&dir).expect("clean up");
}
