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
use owlpar::datalog::Program;
use owlpar::datalog::{
    closure_delta_within, closure_within, parallel_closure, parallel_closure_delta, Rule,
};
use owlpar::prelude::*;
use owlpar::rdf::{FrozenStore, NodeId, TripleStore};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Thread counts for the seams of the shared-index round loop: one shard,
/// an even split, an odd one, and more shards than most pivot ranges are
/// long.
const SEAM_THREADS: [usize; 4] = [1, 2, 3, 8];

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
    check_seed_on(seed, rules, facts, &THREADS);
}

fn check_seed_on(seed: u64, rules: &[Rule], facts: Vec<Triple>, thread_counts: &[usize]) {
    let mut serial: TripleStore = facts.iter().copied().collect();
    let n_serial = forward_closure(&mut serial, &Program::compile(rules));
    let oracle = serial.iter_sorted();

    for &threads in thread_counts {
        for (layout, mut par) in layouts(&facts) {
            let n_par = parallel_closure(&mut par, &Program::compile(rules), threads);
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
        forward_closure(&mut serial, &Program::compile(&rules));
        let closed = serial.iter_sorted();

        // a batch of fresh facts against the closed store
        let batch_raw = lubm_style_facts(&mut rng);
        let mut fresh_s = Vec::new();
        for &f in &batch_raw {
            if serial.insert(f) {
                fresh_s.push(f);
            }
        }
        let mut a = forward_closure_delta(&mut serial, &Program::compile(&rules), fresh_s.clone());
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
            let mut b = parallel_closure_delta(&mut par, &Program::compile(&rules), fresh_p, 4);
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
        forward_closure(&mut serial, &Program::compile(&rules));
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
        let mut want = forward_closure_delta(&mut serial, &Program::compile(&rules), fresh.clone());
        want.sort_unstable();
        for (layout, mut par) in layouts(&closed) {
            par.extend(fresh.iter().copied());
            let mut got =
                parallel_closure_delta(&mut par, &Program::compile(&rules), fresh.clone(), 4);
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

// --- the seams of the shared-index round loop ---------------------------
//
// Class-membership heads `(?x type C)` go through per-head subject
// bitmaps; everything else takes the sort → dedup → filter path. The mix
// below puts a rule on every seam between the two.

const P: u64 = 7;
const ISA: u64 = 8;
const SUB_PROP: u64 = 9;
const HAS_MEMBER: u64 = 10;
const CLS_A: u64 = 200;
const CLS_B: u64 = 201;
/// Never asserted: only rules put anything in it.
const CLS_C: u64 = 202;
const CLS_D: u64 = 203;
/// Two or three members: a pivot range shorter than the shard count.
const CLS_RARE: u64 = 204;
const HUB: u64 = 300;
/// A head constant above every id the base holds.
const CLS_BIG: u64 = 1_000_000;
/// The largest subject id of the base.
const MAX_ENTITY: u64 = 70_000;

/// Subjects on the edges of a bitmap's words, then a block of plain ones.
fn seam_entity(rng: &mut Rng) -> u64 {
    const EDGES: [u64; 8] = [0, 63, 64, 127, 128, 4095, 4096, MAX_ENTITY];
    match rng.below(4) {
        0 => EDGES[rng.below(EDGES.len() as u64) as usize],
        _ => 1000 + rng.below(150),
    }
}

fn seam_rules() -> Vec<Rule> {
    let n = |id: u64| NodeId(id as u32);
    let class_of = |x: u16, cls: u64| atom(v(x), c(n(TYPE)), c(n(cls)));
    vec![
        // three rules share the head (?x type C), absent from the base
        Rule::new("a<c", class_of(0, CLS_C), vec![class_of(0, CLS_A)]).unwrap(),
        Rule::new("b<c", class_of(0, CLS_C), vec![class_of(0, CLS_B)]).unwrap(),
        Rule::new(
            "domain",
            class_of(0, CLS_C),
            vec![atom(v(0), c(n(P)), v(1))],
        )
        .unwrap(),
        // range: the head subject is bound from an object position
        Rule::new("range", class_of(1, CLS_D), vec![atom(v(0), c(n(P)), v(1))]).unwrap(),
        // a second round, into a class whose id no base triple reaches
        Rule::new("c<big", class_of(0, CLS_BIG), vec![class_of(0, CLS_C)]).unwrap(),
        Rule::new("rare<d", class_of(0, CLS_D), vec![class_of(0, CLS_RARE)]).unwrap(),
        // a two-atom body with a constant head
        Rule::new(
            "both",
            class_of(0, CLS_A),
            vec![class_of(0, CLS_D), atom(v(0), c(n(P)), v(1))],
        )
        .unwrap(),
        // general path: constant subject ...
        Rule::new(
            "hub",
            atom(c(n(HUB)), c(n(HAS_MEMBER)), v(0)),
            vec![class_of(0, CLS_BIG)],
        )
        .unwrap(),
        // ... and variable predicate, which also derives (?x type C)
        // behind the bitmaps' back through `isa subPropertyOf type`
        Rule::new(
            "subprop",
            atom(v(0), v(3), v(1)),
            vec![atom(v(0), v(2), v(1)), atom(v(2), c(n(SUB_PROP)), v(3))],
        )
        .unwrap(),
    ]
}

fn seam_facts(rng: &mut Rng, n: u64) -> Vec<Triple> {
    let mut facts = vec![t(ISA, SUB_PROP, TYPE)];
    for _ in 0..2 + rng.below(2) {
        facts.push(t(seam_entity(rng), TYPE, CLS_RARE));
    }
    for _ in 0..n {
        let e = seam_entity(rng);
        facts.push(match rng.below(6) {
            0 => t(e, TYPE, CLS_A),
            1 => t(e, TYPE, CLS_B),
            2 => t(e, TYPE, CLS_D),
            3 => t(e, ISA, if rng.below(2) == 0 { CLS_C } else { CLS_A }),
            _ => t(e, P, seam_entity(rng)),
        });
    }
    facts
}

#[test]
fn constant_head_seams_match_serial() {
    for seed in 100..=119 {
        let mut rng = Rng::new(seed);
        // enough triples for eight shards of the whole-base round
        let n = 700 + rng.below(500);
        let facts = seam_facts(&mut rng, n);
        check_seed_on(seed, &seam_rules(), facts, &SEAM_THREADS);
    }
}

#[test]
fn a_delta_over_a_closed_base_derives_each_consequence_once() {
    // Known members seed the bitmaps: a batch big enough for the frozen
    // rounds must come back without them and without repeats — compared
    // to the serial engine as lists, not sets.
    let rules = seam_rules();
    for seed in 120..=129 {
        let mut rng = Rng::new(seed);
        let facts = seam_facts(&mut rng, 900);
        let mut serial: TripleStore = facts.iter().copied().collect();
        forward_closure(&mut serial, &Program::compile(&rules));
        let closed = serial.iter_sorted();

        let batch = seam_facts(&mut rng, 600);
        let fresh: Vec<Triple> = batch
            .iter()
            .copied()
            .filter(|&f| serial.insert(f))
            .collect();
        assert!(
            fresh.len() >= 256,
            "seed {seed}: batch takes the parallel path"
        );
        let mut want = forward_closure_delta(&mut serial, &Program::compile(&rules), fresh.clone());
        want.sort_unstable();

        for threads in SEAM_THREADS {
            for (layout, mut par) in layouts(&closed) {
                par.extend(fresh.iter().copied());
                let mut got = parallel_closure_delta(
                    &mut par,
                    &Program::compile(&rules),
                    fresh.clone(),
                    threads,
                );
                got.sort_unstable();
                assert_eq!(got, want, "seed {seed} threads {threads} {layout}");
                assert_eq!(
                    par.iter_sorted(),
                    serial.iter_sorted(),
                    "seed {seed} threads {threads} {layout}"
                );
            }
        }
    }
}

#[test]
fn budgeted_entry_points_match_serial_on_the_seam_mix() {
    let rules = seam_rules();
    for seed in 130..=137 {
        let mut rng = Rng::new(seed);
        let facts = seam_facts(&mut rng, 900);
        let mut serial: TripleStore = facts.iter().copied().collect();
        let base_len = serial.len();
        forward_closure(&mut serial, &Program::compile(&rules));
        // one batch for the frozen rounds, one under the small-delta floor
        let batches = [seam_facts(&mut rng, 500), seam_facts(&mut rng, 6)];

        for budget in 1..=3 {
            let base = FrozenStore::from_triples(facts.iter().copied());
            let (mut closed, derived) = closure_within(base, &Program::compile(&rules), budget);
            assert_eq!(
                closed.iter_sorted(),
                serial.iter_sorted(),
                "seed {seed} budget {budget}"
            );
            assert_eq!(
                derived.len(),
                serial.len() - base_len,
                "seed {seed} budget {budget}"
            );

            let mut oracle = serial.clone();
            for batch in &batches {
                let mut fresh: Vec<Triple> = batch
                    .iter()
                    .copied()
                    .filter(|&f| oracle.insert(f))
                    .collect();
                let mut want =
                    forward_closure_delta(&mut oracle, &Program::compile(&rules), fresh.clone());
                fresh.sort_unstable();
                let grown = closed.merge_triples_within(&fresh, budget);
                let (next, mut got) =
                    closure_delta_within(grown, &Program::compile(&rules), fresh, budget);
                want.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, want, "seed {seed} budget {budget}");
                assert_eq!(
                    next.iter_sorted(),
                    oracle.iter_sorted(),
                    "seed {seed} budget {budget}"
                );
                closed = next;
            }
        }
    }
}

#[test]
fn a_fixpoint_that_tapers_off_ends_on_the_small_tail() {
    // Long `partOf` chains under transitivity: path lengths double each
    // round, so the last rounds add a handful of triples each — rounds
    // that cost only their own small layers, which merge into the bigger
    // ones before the base is merged once. The result must not show the
    // layering.
    let rules = lubm_style_rules();
    for (seed, chains) in [(140u64, 3u64), (141, 5), (142, 9)] {
        let mut facts = Vec::new();
        for chain in 0..chains {
            let len = 70 + 13 * chain;
            for i in 0..len {
                facts.push(t(
                    10_000 * (chain + 1) + i,
                    PART_OF,
                    10_000 * (chain + 1) + i + 1,
                ));
            }
        }
        // ballast, so the base dwarfs the last rounds' deltas
        for i in 0..600 {
            facts.push(t(1000 + i % 90, HEAD_OF, 2000 + i));
        }
        check_seed_on(seed, &rules, facts, &SEAM_THREADS);
    }
}

#[test]
fn one_thread_is_one_shard_of_the_same_loop() {
    // threads = 1 used to thaw into the hash engine: every derived triple
    // inserted into the overlay, the store left uncompacted.
    let mut rng = Rng::new(150);
    let rules = seam_rules();
    let mut facts = seam_facts(&mut rng, 1500);
    facts.extend((0..4500).map(|i| t(20_000 + i, P, 30_000 + i % 700)));
    let mut serial: TripleStore = facts.iter().copied().collect();
    let n_serial = forward_closure(&mut serial, &Program::compile(&rules));

    let mut par: TripleStore = facts.iter().copied().collect();
    par.compact();
    assert!(par.len() >= 5000);
    let n_par = parallel_closure(&mut par, &Program::compile(&rules), 1);
    assert_eq!(n_par, n_serial);
    assert_eq!(par.overlay().count(), 0, "the closed store is all base");
    assert_eq!(par.iter_sorted(), serial.iter_sorted());

    // and through the strategy, as a 1-core box resolves `threads: 0`
    let mut via_strategy: TripleStore = facts.iter().copied().collect();
    via_strategy.compact();
    let reasoner = Reasoner::new(
        rules,
        MaterializationStrategy::ForwardParallel { threads: 1 },
    );
    assert_eq!(reasoner.materialize(&mut via_strategy), n_serial);
    assert_eq!(via_strategy.overlay().count(), 0);
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
