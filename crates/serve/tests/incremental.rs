//! Property test for the incremental maintenance path: for randomized
//! insert sequences, the delta-closure state must equal the closure
//! `owlpar_core::run_serial` computes from scratch over the accumulated
//! triples — including sequences that mutate the schema mid-stream.

// Tests assert on infallible setup; unwrap/expect failures are test failures.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_core::run_serial;
use owlpar_datalog::MaterializationStrategy;
use owlpar_horst::HorstReasoner;
use owlpar_rdf::{parse_ntriples, Dictionary, Graph};
use owlpar_serve::ServingKb;

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
