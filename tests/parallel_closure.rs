//! Property suite for the in-node parallel closure: across random seeds,
//! rule mixes and thread counts, `parallel_closure` /
//! `parallel_closure_delta` must reach exactly the fixpoint the serial
//! semi-naive engine (`forward_closure`) computes. Derivation order may
//! differ — sorted stores are compared. Every case starts from each of the
//! store's layouts: all of it in the hash overlay, all of it in the sorted
//! base, and half in each.

// Tests assert on infallible setup; unwrap/expect failures are test failures.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar::datalog::ast::build::{atom, c, v};
use owlpar::datalog::forward::{forward_closure, forward_closure_delta};
use owlpar::datalog::{parallel_closure, parallel_closure_delta, Rule};
use owlpar::prelude::*;
use owlpar::rdf::{NodeId, TripleStore};

const THREADS: [usize; 4] = [1, 2, 4, 8];

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

fn t(s: u64, p: u64, o: u64) -> Triple {
    Triple::new(NodeId(s as u32), NodeId(p as u32), NodeId(o as u32))
}

const TYPE: u64 = 1;
const SUB_CLASS: u64 = 2;
const PART_OF: u64 = 3;
const CONNECTED: u64 = 4;
const MEMBER_OF: u64 = 5;
const HEAD_OF: u64 = 6;

/// A LUBM-flavoured single-join rule mix: class promotion along a
/// subclass hierarchy, a transitive `partOf`, and `headOf ⇒ memberOf`.
fn lubm_style_rules() -> Vec<Rule> {
    vec![
        // (x type c1) (c1 subClassOf c2) -> (x type c2)
        Rule::new(
            "subclass",
            atom(v(0), c(NodeId(TYPE as u32)), v(2)),
            vec![
                atom(v(0), c(NodeId(TYPE as u32)), v(1)),
                atom(v(1), c(NodeId(SUB_CLASS as u32)), v(2)),
            ],
        )
        .unwrap(),
        // partOf transitive
        Rule::new(
            "trans",
            atom(v(0), c(NodeId(PART_OF as u32)), v(2)),
            vec![
                atom(v(0), c(NodeId(PART_OF as u32)), v(1)),
                atom(v(1), c(NodeId(PART_OF as u32)), v(2)),
            ],
        )
        .unwrap(),
        // headOf ⇒ memberOf (subproperty)
        Rule::new(
            "subprop",
            atom(v(0), c(NodeId(MEMBER_OF as u32)), v(1)),
            vec![atom(v(0), c(NodeId(HEAD_OF as u32)), v(1))],
        )
        .unwrap(),
    ]
}

/// A cycle/cascade mix: `connected` is transitive *and* symmetric, so
/// random edges collapse into dense strongly-connected cliques — many
/// rounds, heavy duplicate generation across shards.
fn cycle_cascade_rules() -> Vec<Rule> {
    vec![
        Rule::new(
            "trans",
            atom(v(0), c(NodeId(CONNECTED as u32)), v(2)),
            vec![
                atom(v(0), c(NodeId(CONNECTED as u32)), v(1)),
                atom(v(1), c(NodeId(CONNECTED as u32)), v(2)),
            ],
        )
        .unwrap(),
        Rule::new(
            "sym",
            atom(v(1), c(NodeId(CONNECTED as u32)), v(0)),
            vec![atom(v(0), c(NodeId(CONNECTED as u32)), v(1))],
        )
        .unwrap(),
        // connected things share parts: (x connected y)(y partOf z) -> (x partOf z)
        Rule::new(
            "cascade",
            atom(v(0), c(NodeId(PART_OF as u32)), v(2)),
            vec![
                atom(v(0), c(NodeId(CONNECTED as u32)), v(1)),
                atom(v(1), c(NodeId(PART_OF as u32)), v(2)),
            ],
        )
        .unwrap(),
    ]
}

fn lubm_style_facts(rng: &mut Rng) -> Vec<Triple> {
    let mut facts = Vec::new();
    // a random subclass chain/forest over 8 classes (ids 100..108)
    for cls in 101..108 {
        facts.push(t(cls, SUB_CLASS, 100 + rng.below(cls - 100)));
    }
    let n = 200 + rng.below(400);
    for _ in 0..n {
        let e = 1000 + rng.below(120);
        match rng.below(4) {
            0 => facts.push(t(e, TYPE, 100 + rng.below(8))),
            1 => facts.push(t(e, PART_OF, 1000 + rng.below(120))),
            2 => facts.push(t(e, HEAD_OF, 2000 + rng.below(10))),
            _ => facts.push(t(e, MEMBER_OF, 2000 + rng.below(10))),
        }
    }
    facts
}

fn cycle_cascade_facts(rng: &mut Rng) -> Vec<Triple> {
    let mut facts = Vec::new();
    let nodes = 20 + rng.below(20);
    let edges = 60 + rng.below(120);
    for _ in 0..edges {
        facts.push(t(
            1000 + rng.below(nodes),
            CONNECTED,
            1000 + rng.below(nodes),
        ));
    }
    for _ in 0..20 {
        facts.push(t(1000 + rng.below(nodes), PART_OF, 3000 + rng.below(8)));
    }
    facts
}

/// `facts` as a hash-only, a compacted and a half-compacted store.
fn layouts(facts: &[Triple]) -> [(&'static str, TripleStore); 3] {
    let hash_only: TripleStore = facts.iter().copied().collect();
    let mut compacted = hash_only.clone();
    compacted.compact();
    let (early, late) = facts.split_at(facts.len() / 2);
    let mut half: TripleStore = early.iter().copied().collect();
    half.compact();
    half.extend(late.iter().copied());
    [
        ("hash-only", hash_only),
        ("compacted", compacted),
        ("half-compacted", half),
    ]
}

fn check_seed(seed: u64, rules: &[Rule], facts: Vec<Triple>) {
    let mut serial: TripleStore = facts.iter().copied().collect();
    let n_serial = forward_closure(&mut serial, rules);
    let oracle = serial.iter_sorted();

    for threads in THREADS {
        for (layout, mut par) in layouts(&facts) {
            let n_par = parallel_closure(&mut par, rules, threads);
            assert_eq!(
                par.iter_sorted(),
                oracle,
                "seed {seed} threads {threads} {layout}: parallel fixpoint diverged"
            );
            assert_eq!(
                n_par, n_serial,
                "seed {seed} threads {threads} {layout}: derived counts differ"
            );
        }
    }
}

#[test]
fn thirty_seeds_lubm_style_mix() {
    for seed in 1..=30 {
        let mut rng = Rng::new(seed);
        let facts = lubm_style_facts(&mut rng);
        check_seed(seed, &lubm_style_rules(), facts);
    }
}

#[test]
fn thirty_seeds_cycle_cascade_mix() {
    for seed in 31..=60 {
        let mut rng = Rng::new(seed);
        let facts = cycle_cascade_facts(&mut rng);
        check_seed(seed, &cycle_cascade_rules(), facts);
    }
}

#[test]
fn delta_path_agrees_with_serial_delta_across_seeds() {
    for seed in 61..=75 {
        let mut rng = Rng::new(seed);
        let rules = lubm_style_rules();
        let facts = lubm_style_facts(&mut rng);
        let mut serial: TripleStore = facts.iter().copied().collect();
        forward_closure(&mut serial, &rules);
        let closed = serial.iter_sorted();

        // a batch of fresh facts against the closed store
        let batch_raw = lubm_style_facts(&mut rng);
        let mut fresh_s = Vec::new();
        for &f in &batch_raw {
            if serial.insert(f) {
                fresh_s.push(f);
            }
        }
        let mut a = forward_closure_delta(&mut serial, &rules, fresh_s.clone());
        a.sort_unstable();
        a.dedup();

        for (layout, mut par) in layouts(&closed) {
            let mut fresh_p = Vec::new();
            for &f in &batch_raw {
                if par.insert(f) {
                    fresh_p.push(f);
                }
            }
            assert_eq!(fresh_s, fresh_p, "seed {seed} {layout}");
            let mut b = parallel_closure_delta(&mut par, &rules, fresh_p, 4);
            b.sort_unstable();
            b.dedup();
            assert_eq!(a, b, "seed {seed} {layout}: delta consequences diverged");
            assert_eq!(
                par.iter_sorted(),
                serial.iter_sorted(),
                "seed {seed} {layout}"
            );
        }
    }
}

#[test]
fn small_stores_take_the_serial_fallback_from_every_layout() {
    // Under MIN_PARALLEL_DELTA triples the closure (and a delta under it)
    // runs on the serial engine, whose reads and inserts then go through
    // both layers of the store.
    let rules = lubm_style_rules();
    for seed in 76..=85 {
        let mut rng = Rng::new(seed);
        let mut facts = lubm_style_facts(&mut rng);
        facts.truncate(120);
        check_seed(seed, &rules, facts.clone());

        let mut serial: TripleStore = facts.iter().copied().collect();
        forward_closure(&mut serial, &rules);
        let closed = serial.iter_sorted();
        let batch = [
            t(1000, PART_OF, 1001),
            t(1001, PART_OF, 1002),
            t(1002, TYPE, 107),
        ];
        let fresh: Vec<Triple> = batch
            .iter()
            .copied()
            .filter(|&f| serial.insert(f))
            .collect();
        let mut want = forward_closure_delta(&mut serial, &rules, fresh.clone());
        want.sort_unstable();
        for (layout, mut par) in layouts(&closed) {
            par.extend(fresh.iter().copied());
            let mut got = parallel_closure_delta(&mut par, &rules, fresh.clone(), 4);
            got.sort_unstable();
            assert_eq!(got, want, "seed {seed} {layout}");
            assert_eq!(
                par.iter_sorted(),
                serial.iter_sorted(),
                "seed {seed} {layout}"
            );
        }
    }
}

#[test]
fn forward_parallel_strategy_on_generated_lubm() {
    // End-to-end: the ForwardParallel materialization strategy through
    // HorstReasoner on a real generated dataset equals ForwardSemiNaive.
    let g0 = generate_lubm(&LubmConfig::mini(1));

    let mut serial = g0.clone();
    let hr = HorstReasoner::from_graph(&mut serial, MaterializationStrategy::ForwardSemiNaive);
    hr.materialize(&mut serial);

    // As generated (compacted, like a loaded KB), and with every triple in
    // the hash overlay — a layout only inserts produce, so built here.
    let mut hash_only = g0.clone();
    hash_only.store = g0.store.iter().collect();
    assert_eq!(g0.store.overlay().count(), 0);
    assert_eq!(hash_only.store.overlay().count(), g0.len());

    for (layout, start) in [("compacted", &g0), ("hash-only", &hash_only)] {
        for threads in [0, 2, 4] {
            let mut par = start.clone();
            let hr = HorstReasoner::from_graph(
                &mut par,
                MaterializationStrategy::ForwardParallel { threads },
            );
            hr.materialize(&mut par);
            assert_eq!(
                par.store.iter_sorted(),
                serial.store.iter_sorted(),
                "{layout} threads {threads}"
            );
        }
    }
}

#[test]
fn run_parallel_workers_with_in_node_threads_match_serial() {
    // The cluster runtime with ForwardParallel workers (auto thread
    // split) still reproduces the serial closure.
    let g0 = generate_lubm(&LubmConfig::mini(1));
    let mut serial = g0.clone();
    run_serial(&mut serial, MaterializationStrategy::ForwardSemiNaive);

    let mut par = g0.clone();
    let cfg = ParallelConfig {
        k: 2,
        ..ParallelConfig::default()
    }
    .forward_parallel(0);
    run_parallel(&mut par, &cfg).expect("clean run");
    assert_eq!(par.term_fingerprint(), serial.term_fingerprint());
    assert_eq!(par.len(), serial.len());
}
