//! Differential testing of the three materialization engines on random
//! single-join rule sets and random data — forward semi-naive is the
//! oracle; both backward engines must agree with it. The same rule sets
//! also drive data-partitioned runs, whose placement and routing follow
//! the rule-base's join positions, and rule-partitioned runs, which route
//! by the partitions whose bodies can match a triple: both must close to
//! the serial closure. And they drive every entry point of the in-node
//! parallel closure, beside chains long enough for many rounds.

// Tests assert on infallible setup; unwrap/expect failures are test failures.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar::core::{run_parallel, ParallelConfig, PartitioningStrategy};
use owlpar::datalog::ast::build::{atom, c, v};
use owlpar::datalog::ast::{Atom, TermPat};
use owlpar::datalog::backward::{BackwardEngine, TableScope};
use owlpar::datalog::forward::forward_closure;
use owlpar::datalog::{
    closure_delta_within, closure_within, parallel_closure as closure_on_threads,
    MaterializationStrategy, Reasoner, Rule,
};
use owlpar::horst::HorstReasoner;
use owlpar::rdf::{FrozenStore, Graph, NodeId, Term, Triple, TripleStore};
use proptest::prelude::*;

/// A random single-join rule over a small predicate alphabet.
fn rule_strategy(preds: u32) -> impl Strategy<Value = Rule> {
    let pred = move || 0..preds;
    prop_oneof![
        // transitive: p(x,y) p(y,z) -> p(x,z)
        pred().prop_map(|p| Rule::new(
            format!("trans{p}"),
            atom(v(0), c(NodeId(500 + p)), v(2)),
            vec![
                atom(v(0), c(NodeId(500 + p)), v(1)),
                atom(v(1), c(NodeId(500 + p)), v(2))
            ],
        )
        .unwrap()),
        // symmetric: p(x,y) -> p(y,x)
        pred().prop_map(|p| Rule::new(
            format!("sym{p}"),
            atom(v(1), c(NodeId(500 + p)), v(0)),
            vec![atom(v(0), c(NodeId(500 + p)), v(1))],
        )
        .unwrap()),
        // promotion: p(x,y) -> q(x,y)
        (pred(), pred()).prop_map(|(p, q)| Rule::new(
            format!("promote{p}_{q}"),
            atom(v(0), c(NodeId(500 + q)), v(1)),
            vec![atom(v(0), c(NodeId(500 + p)), v(1))],
        )
        .unwrap()),
        // inverse: p(x,y) -> q(y,x)
        (pred(), pred()).prop_map(|(p, q)| Rule::new(
            format!("inv{p}_{q}"),
            atom(v(1), c(NodeId(500 + q)), v(0)),
            vec![atom(v(0), c(NodeId(500 + p)), v(1))],
        )
        .unwrap()),
        // join-on-subject (functional flavor): p(x,y) p(x,z) -> q(y,z)
        (pred(), pred()).prop_map(|(p, q)| Rule::new(
            format!("fun{p}_{q}"),
            atom(v(1), c(NodeId(500 + q)), v(2)),
            vec![
                atom(v(0), c(NodeId(500 + p)), v(1)),
                atom(v(0), c(NodeId(500 + p)), v(2))
            ],
        )
        .unwrap()),
    ]
}

fn data_strategy(nodes: u32, preds: u32, len: usize) -> impl Strategy<Value = Vec<Triple>> {
    prop::collection::vec(
        (0..nodes, 0..preds, 0..nodes)
            .prop_map(|(s, p, o)| Triple::new(NodeId(s), NodeId(500 + p), NodeId(o))),
        1..len,
    )
}

/// `data` over `nodes` nodes as a graph of IRIs, and `rules` with their
/// predicate constants (`500 + p`) renamed to the graph's ids.
fn as_graph(rules: &[Rule], data: &[Triple], nodes: u32, preds: u32) -> (Graph, Vec<Rule>) {
    let mut g = Graph::new();
    let node: Vec<NodeId> = (0..nodes)
        .map(|i| g.intern(Term::iri(format!("http://r/n{i}"))))
        .collect();
    let pred: Vec<NodeId> = (0..preds)
        .map(|i| g.intern(Term::iri(format!("http://r/p{i}"))))
        .collect();
    let head_pred = g.intern(Term::iri("http://r/head"));
    for t in data {
        g.insert(
            node[t.s.0 as usize],
            pred[(t.p.0 - 500) as usize],
            node[t.o.0 as usize],
        );
    }
    g.store.compact();
    let rename = |tp: TermPat| match tp {
        TermPat::Const(NodeId(id)) if (500..500 + preds).contains(&id) => {
            TermPat::Const(pred[(id - 500) as usize])
        }
        TermPat::Const(_) => TermPat::Const(head_pred),
        var => var,
    };
    let atom = |a: &Atom| Atom::new(rename(a.s), rename(a.p), rename(a.o));
    let rules = rules
        .iter()
        .map(|r| {
            Rule::new(
                r.name.clone(),
                atom(&r.head),
                r.body.iter().map(atom).collect(),
            )
        })
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    (g, rules)
}

/// The serial closure of `g0` under its compiled rules plus `rules`.
fn serial_closure(g0: &Graph, rules: &[Rule]) -> Vec<Triple> {
    let mut serial = g0.clone();
    let hr = HorstReasoner::from_graph(&mut serial, MaterializationStrategy::ForwardSemiNaive);
    let all: Vec<Rule> = hr.rules().iter().chain(rules).cloned().collect();
    Reasoner::new(all, MaterializationStrategy::ForwardSemiNaive).materialize(&mut serial.store);
    serial.store.iter_sorted()
}

/// The closure of `g0` plus `rules` as a `k`-worker `strategy` run.
fn parallel_closure(
    g0: &Graph,
    rules: &[Rule],
    strategy: &PartitioningStrategy,
    k: usize,
) -> Vec<Triple> {
    let cfg = ParallelConfig {
        k,
        strategy: strategy.clone(),
        ..ParallelConfig::default()
    }
    .forward()
    .with_extra_rules(rules.to_vec());
    let mut g = g0.clone();
    run_parallel(&mut g, &cfg).unwrap();
    g.store.iter_sorted()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Data partitioning places and routes a triple only where the rule
    /// set joins it; under graph and hash ownership at k ∈ {2, 4} the
    /// partitioned closure still equals the serial one.
    #[test]
    fn masked_data_partitioning_equals_serial(
        rules in prop::collection::vec(rule_strategy(3), 1..5),
        data in data_strategy(12, 3, 30),
    ) {
        let (g0, rules) = as_graph(&rules, &data, 12, 3);
        let serial = serial_closure(&g0, &rules);
        for strategy in [PartitioningStrategy::data_graph(), PartitioningStrategy::data_hash()] {
            for k in [2, 4] {
                prop_assert_eq!(
                    parallel_closure(&g0, &rules, &strategy, k),
                    serial,
                    "k={} {:?}",
                    k,
                    strategy
                );
            }
        }
    }

    /// Rule partitioning routes a derived triple to every partition
    /// whose rule bodies can match it (the consumer index); weighted and
    /// unweighted, at k ∈ {2, 4}, the partitioned closure equals the
    /// serial one.
    #[test]
    fn rule_partitioning_equals_serial(
        rules in prop::collection::vec(rule_strategy(3), 1..5),
        data in data_strategy(12, 3, 30),
    ) {
        let (g0, rules) = as_graph(&rules, &data, 12, 3);
        let serial = serial_closure(&g0, &rules);
        for weighted in [false, true] {
            let strategy = PartitioningStrategy::Rule { weighted };
            for k in [2, 4] {
                prop_assert_eq!(
                    parallel_closure(&g0, &rules, &strategy, k),
                    serial,
                    "k={} {:?}",
                    k,
                    strategy
                );
            }
        }
    }

    #[test]
    fn engines_agree_on_random_programs(
        rules in prop::collection::vec(rule_strategy(3), 1..5),
        data in data_strategy(12, 3, 30),
    ) {
        let mut fwd: TripleStore = data.iter().copied().collect();
        forward_closure(&mut fwd, &rules);

        let mut bwd: TripleStore = data.iter().copied().collect();
        BackwardEngine::new(&rules, TableScope::PerQuery).materialize(&mut bwd);
        prop_assert_eq!(fwd.iter_sorted(), bwd.iter_sorted(), "backward != forward");

        let mut sweep: TripleStore = data.iter().copied().collect();
        BackwardEngine::new(&rules, TableScope::PerSweep).materialize(&mut sweep);
        prop_assert_eq!(fwd.iter_sorted(), sweep.iter_sorted(), "per-sweep != forward");

        let mut jena: TripleStore = data.iter().copied().collect();
        BackwardEngine::new(&rules, TableScope::PerQuery).materialize_jena(&mut jena);
        prop_assert_eq!(fwd.iter_sorted(), jena.iter_sorted(), "jena != forward");
    }

    /// Incremental (delta) closure equals from-scratch closure when the
    /// base was closed first and the delta arrives later.
    #[test]
    fn incremental_equals_scratch(
        rules in prop::collection::vec(rule_strategy(3), 1..4),
        base in data_strategy(10, 3, 20),
        delta in data_strategy(10, 3, 8),
    ) {
        let mut scratch: TripleStore = base.iter().chain(delta.iter()).copied().collect();
        forward_closure(&mut scratch, &rules);

        let mut inc: TripleStore = base.iter().copied().collect();
        let mut eng = BackwardEngine::new(&rules, TableScope::PerQuery);
        eng.materialize(&mut inc);
        let fresh: Vec<Triple> = delta.iter().copied().filter(|t| inc.insert(*t)).collect();
        eng.materialize_delta(&mut inc, &fresh);
        prop_assert_eq!(scratch.iter_sorted(), inc.iter_sorted());
    }
}

/// `p3(x,y) p3(y,z) -> p3(x,z)`: the chains' predicate, which no rule of
/// `rule_strategy(3)` reads, so the chains close on their own.
fn chain_rule() -> Rule {
    Rule::new(
        "trans3",
        atom(v(0), c(NodeId(503)), v(2)),
        vec![
            atom(v(0), c(NodeId(503)), v(1)),
            atom(v(1), c(NodeId(503)), v(2)),
        ],
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The frozen round loop keeps each round's new triples as a layer of
    /// what the joins read and merges the layers into each other, the
    /// base only once. Transitive chains of 44–69 links take 7–8 rounds
    /// that grow and then taper, so the layers merge; random single- and
    /// two-atom rules fire over random data in the same rounds. At 1, 2
    /// and 4 threads every entry point closes to the serial fixpoint.
    #[test]
    fn layered_rounds_equal_serial(
        rules in prop::collection::vec(rule_strategy(3), 1..5),
        data in data_strategy(12, 3, 30),
        chains in prop::collection::vec(44u32..70, 6..9),
    ) {
        let mut rules = rules;
        rules.push(chain_rule());
        let mut facts = data;
        for (chain, &len) in chains.iter().enumerate() {
            let first = 1000 * (chain as u32 + 1);
            facts.extend((first..first + len).map(|i| {
                Triple::new(NodeId(i), NodeId(503), NodeId(i + 1))
            }));
        }
        let mut serial: TripleStore = facts.iter().copied().collect();
        forward_closure(&mut serial, &rules);
        let serial = serial.iter_sorted();
        let base = FrozenStore::from_triples(facts.iter().copied());
        prop_assert!(base.len() >= 256, "past the serial fallback");
        let derived_len = serial.len() - base.len();
        for threads in [1, 2, 4] {
            let mut store: TripleStore = facts.iter().copied().collect();
            store.compact();
            let derived = closure_on_threads(&mut store, &rules, threads);
            prop_assert_eq!(store.iter_sorted(), serial.clone(), "parallel_closure {}", threads);
            prop_assert_eq!(derived, derived_len);

            let (closed, derived) = closure_within(base.clone(), &rules, threads);
            prop_assert_eq!(closed.iter_sorted(), serial.clone(), "closure_within {}", threads);
            prop_assert_eq!(derived.len(), derived_len);

            let seed = base.iter_sorted();
            let (closed, derived) = closure_delta_within(base.clone(), &rules, seed, threads);
            prop_assert_eq!(closed.iter_sorted(), serial.clone(), "closure_delta_within {}", threads);
            prop_assert_eq!(derived.len(), derived_len);
        }
    }
}
