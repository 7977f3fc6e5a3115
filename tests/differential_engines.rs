//! Differential testing of the three materialization engines on random
//! single-join rule sets and random data — forward semi-naive is the
//! oracle; both backward engines must agree with it. The same rule sets
//! also drive data-partitioned runs, whose placement and routing follow
//! the rule-base's join positions, and rule-partitioned runs, which route
//! by the partitions whose bodies can match a triple: both must close to
//! the serial closure. And they drive every entry point of the in-node
//! parallel closure, beside chains long enough for many rounds. Last,
//! random rules of every shape — repeated and predicate variables,
//! constants anywhere — check every engine path's compiled join plans
//! against the naive closure's own join.

// Tests assert on infallible setup; unwrap/expect failures are test failures.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar::core::{run_parallel, ParallelConfig, PartitioningStrategy};
use owlpar::datalog::ast::build::{atom, c, v};
use owlpar::datalog::ast::{Atom, TermPat};
use owlpar::datalog::backward::{BackwardEngine, TableScope};
use owlpar::datalog::forward::{forward_closure, forward_closure_delta, naive_closure};
use owlpar::datalog::Program;
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
        forward_closure(&mut fwd, &Program::compile(&rules));

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
        forward_closure(&mut scratch, &Program::compile(&rules));

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
        forward_closure(&mut serial, &Program::compile(&rules));
        let serial = serial.iter_sorted();
        let base = FrozenStore::from_triples(facts.iter().copied());
        prop_assert!(base.len() >= 256, "past the serial fallback");
        let derived_len = serial.len() - base.len();
        for threads in [1, 2, 4] {
            let mut store: TripleStore = facts.iter().copied().collect();
            store.compact();
            let derived = closure_on_threads(&mut store, &Program::compile(&rules), threads);
            prop_assert_eq!(store.iter_sorted(), serial.clone(), "parallel_closure {}", threads);
            prop_assert_eq!(derived, derived_len);

            let (closed, derived) = closure_within(base.clone(), &Program::compile(&rules), threads);
            prop_assert_eq!(closed.iter_sorted(), serial.clone(), "closure_within {}", threads);
            prop_assert_eq!(derived.len(), derived_len);

            let seed = base.iter_sorted();
            let (closed, derived) = closure_delta_within(base.clone(), &Program::compile(&rules), seed, threads);
            prop_assert_eq!(closed.iter_sorted(), serial.clone(), "closure_delta_within {}", threads);
            prop_assert_eq!(derived.len(), derived_len);
        }
    }
}

/// A raw random term, decoded by [`term`].
type RawAtom = (u32, u32, u32);

/// Decode a raw atom: subject and object `0..3` are the variables
/// `?0..?2` and `3..6` the nodes `0..3`; predicate `0` is `?3`, `1` is
/// `?0` (shared with the other positions) and `2..6` the predicates.
fn term(raw: RawAtom) -> Atom {
    let node = |k: u32| {
        if k < 3 {
            TermPat::Var(k as u16)
        } else {
            TermPat::Const(NodeId(k - 3))
        }
    };
    let pred = match raw.1 {
        0 => TermPat::Var(3),
        1 => TermPat::Var(0),
        k => TermPat::Const(NodeId(500 + (k - 2) % 3)),
    };
    Atom::new(node(raw.0), pred, node(raw.2))
}

/// A valid rule from raw atoms: a head variable the body does not bind
/// becomes the first body variable (a node constant if there is none),
/// except in predicate position, where a variable must come from a body
/// predicate (else predicate `500`) so that predicates stay few; then
/// the variables are renumbered densely.
fn planned_rule(name: String, body: &[RawAtom], head: RawAtom) -> Rule {
    let body: Vec<Atom> = body.iter().map(|&raw| term(raw)).collect();
    let vars: Vec<TermPat> = body
        .iter()
        .flat_map(|a| a.positions())
        .filter(|tp| tp.as_var().is_some())
        .collect();
    let pred_vars: Vec<TermPat> = body.iter().map(|a| a.p).filter(|tp| tp.as_var().is_some()).collect();
    let head = term(head);
    let bound = |tp: TermPat| match tp {
        TermPat::Var(_) if !vars.contains(&tp) => vars.first().copied().unwrap_or(TermPat::Const(NodeId(0))),
        tp => tp,
    };
    let head_p = match head.p {
        TermPat::Var(_) if !pred_vars.contains(&head.p) => TermPat::Const(NodeId(500)),
        tp => tp,
    };
    let head = Atom::new(bound(head.s), head_p, bound(head.o));
    let mut order: Vec<u16> = Vec::new();
    for v in body.iter().chain(std::iter::once(&head)).flat_map(|a| a.positions()) {
        if let Some(v) = v.as_var() {
            if !order.contains(&v) {
                order.push(v);
            }
        }
    }
    let dense = |tp: TermPat| match tp {
        TermPat::Var(v) => TermPat::Var(order.iter().position(|&w| w == v).unwrap() as u16),
        tp => tp,
    };
    let dense_atom = |a: &Atom| Atom::new(dense(a.s), dense(a.p), dense(a.o));
    Rule::new(name, dense_atom(&head), body.iter().map(dense_atom).collect()).unwrap()
}

fn raw_atom() -> impl Strategy<Value = RawAtom> {
    (0u32..6, 0u32..6, 0u32..6)
}

fn planned_facts(raw: &[(u32, u32, u32)]) -> Vec<Triple> {
    raw.iter()
        .map(|&(s, p, o)| Triple::new(NodeId(s), NodeId(500 + p), NodeId(o)))
        .collect()
}

fn naive(facts: &[Triple], rules: &[Rule]) -> Vec<Triple> {
    let mut store: TripleStore = facts.iter().copied().collect();
    naive_closure(&mut store, rules);
    store.iter_sorted()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every engine path evaluates rules by their compiled join plans;
    /// the naive closure joins on its own, with a binding frame that
    /// re-checks every position. Random rules of one to three atoms, with
    /// variables repeated inside an atom, in predicate position and
    /// constants anywhere, including constant heads, over random data:
    /// the semi-naive, parallel and frozen closures, and the serial and
    /// frozen delta closures after a random insert, all equal the naive
    /// closure. Three fixed rules ride along: a repeated variable, and a
    /// join step of each object-first shape with an open predicate.
    #[test]
    fn compiled_plans_equal_the_naive_join(
        raw_rules in prop::collection::vec(
            (prop::collection::vec(raw_atom(), 1..4), raw_atom()),
            1..5,
        ),
        data in prop::collection::vec((0u32..12, 0u32..3, 0u32..12), 400..520),
        extra in prop::collection::vec((0u32..12, 0u32..3, 0u32..12), 1..12),
    ) {
        let mut rules: Vec<Rule> = raw_rules
            .iter()
            .enumerate()
            .map(|(i, (body, head))| planned_rule(format!("r{i}"), body, *head))
            .collect();
        // (?x p0 ?x) -> (?x p1 ?x): a repeated variable in every case.
        rules.push(planned_rule("refl".into(), &[(0, 2, 0)], (0, 3, 0)));
        // (?x p0 ?y), (?y ?q ?x) -> (?x ?q ?y): from the first atom, the
        // second step looks up (s, ?, o).
        rules.push(planned_rule("back".into(), &[(0, 2, 1), (1, 0, 0)], (0, 0, 1)));
        // (?x p0 ?y), (?z ?q ?y) -> (?z p1 ?x): from the first atom, the
        // second step looks up (?, ?, o).
        rules.push(planned_rule("into".into(), &[(0, 2, 1), (2, 0, 1)], (2, 3, 0)));
        let facts = planned_facts(&data);
        let want = naive(&facts, &rules);

        let mut serial: TripleStore = facts.iter().copied().collect();
        forward_closure(&mut serial, &Program::compile(&rules));
        prop_assert_eq!(serial.iter_sorted(), want.clone(), "forward_closure");
        let base = FrozenStore::from_triples(facts.iter().copied());
        for threads in [1, 2, 4] {
            let mut store: TripleStore = facts.iter().copied().collect();
            store.compact();
            closure_on_threads(&mut store, &Program::compile(&rules), threads);
            prop_assert_eq!(store.iter_sorted(), want.clone(), "parallel_closure {}", threads);
            let (closed, _) = closure_within(base.clone(), &Program::compile(&rules), threads);
            prop_assert_eq!(closed.iter_sorted(), want.clone(), "closure_within {}", threads);
        }

        let extra: Vec<Triple> = planned_facts(&extra)
            .into_iter()
            .filter(|t| serial.insert(*t))
            .collect();
        let grown: Vec<Triple> = facts.iter().chain(&extra).copied().collect();
        let want = naive(&grown, &rules);
        let closed = serial.clone();
        forward_closure_delta(&mut serial, &Program::compile(&rules), extra.clone());
        prop_assert_eq!(serial.iter_sorted(), want.clone(), "forward_closure_delta");
        let mut seed = extra;
        seed.sort_unstable();
        let (closed, _) = closure_delta_within(FrozenStore::from_store(&closed), &Program::compile(&rules), seed, 2);
        prop_assert_eq!(closed.iter_sorted(), want, "closure_delta_within");
    }
}

/// `p`, the transitive property of [`program_rules`].
const P: u32 = 500;

/// `(?x a ?y) -> (?x b ?y)`, or `-> (?y b ?x)` when `swap`: a
/// sub-property or an inverse link, by predicate offset from `p`.
fn link(a: u32, b: u32, swap: bool) -> Rule {
    let head = if swap {
        atom(v(1), c(NodeId(P + b)), v(0))
    } else {
        atom(v(0), c(NodeId(P + b)), v(1))
    };
    Rule::new(format!("link{a}_{b}"), head, vec![atom(v(0), c(NodeId(P + a)), v(1))]).unwrap()
}

/// `p` transitive, and symmetric when `symmetric`; `p1 ⊑ p` and `p2`
/// the inverse of `p`, so other rules derive `p` edges; a chain of
/// one-atom links from `p3` through random predicates, each kept or
/// swapped, which may revisit a predicate and so close a cycle; and
/// random one-atom rules with variable predicates, repeated variables
/// and constants.
fn program_rules(symmetric: bool, chain: &[(u32, bool)], raw: &[(RawAtom, RawAtom)]) -> Vec<Rule> {
    let mut rules = vec![
        Rule::new(
            "trans",
            atom(v(0), c(NodeId(P)), v(2)),
            vec![atom(v(0), c(NodeId(P)), v(1)), atom(v(1), c(NodeId(P)), v(2))],
        )
        .unwrap(),
        link(1, 0, false),
        link(2, 0, true),
    ];
    if symmetric {
        rules.push(link(0, 0, true));
    }
    let mut from = 3;
    for &(to, swap) in chain {
        rules.push(link(from, to, swap));
        from = to;
    }
    rules.extend(
        raw.iter()
            .enumerate()
            .map(|(i, &(body, head))| planned_rule(format!("one{i}"), &[body], head)),
    );
    rules
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The program the forward engines run — the one-atom rules closed
    /// under composition and applied as products are emitted, and the
    /// transitive rule closed by an operator — equals the naive closure
    /// of the rules as given. The graphs have cycles and self-loops, `p`
    /// chains of up to 13 links that a join closes over several rounds,
    /// and `p` edges that the sub-property and the inverse derive, the
    /// same round or later. Every engine path at 1, 2 and 4 threads, then
    /// the serial and frozen delta closures after a random insert.
    #[test]
    fn the_program_equals_the_naive_closure(
        symmetric in any::<bool>(),
        chain in prop::collection::vec((0u32..6, any::<bool>()), 2..9),
        raw in prop::collection::vec((raw_atom(), raw_atom()), 0..4),
        data in prop::collection::vec((0u32..20, 0u32..6, 0u32..20), 260..340),
        runs in prop::collection::vec((0u32..3, 2u32..14), 1..4),
        extra in prop::collection::vec((0u32..24, 0u32..6, 0u32..24), 1..12),
    ) {
        let rules = program_rules(symmetric, &chain, &raw);
        let program = Program::compile(&rules);
        let mut facts: Vec<Triple> = data
            .iter()
            .map(|&(s, p, o)| Triple::new(NodeId(s), NodeId(P + p), NodeId(o)))
            .collect();
        for (run, &(pred, len)) in runs.iter().enumerate() {
            let first = 100 * (run as u32 + 1);
            facts.extend((first..first + len).map(|i| Triple::new(NodeId(i), NodeId(P + pred), NodeId(i + 1))));
        }
        let want = naive(&facts, &rules);

        let mut serial: TripleStore = facts.iter().copied().collect();
        forward_closure(&mut serial, &program);
        prop_assert_eq!(serial.iter_sorted(), want.clone(), "forward_closure");
        let base = FrozenStore::from_triples(facts.iter().copied());
        prop_assert!(base.len() >= 256, "past the serial fallback");
        for threads in [1, 2, 4] {
            let mut store: TripleStore = facts.iter().copied().collect();
            store.compact();
            closure_on_threads(&mut store, &program, threads);
            prop_assert_eq!(store.iter_sorted(), want.clone(), "parallel_closure {}", threads);
            let (closed, _) = closure_within(base.clone(), &program, threads);
            prop_assert_eq!(closed.iter_sorted(), want.clone(), "closure_within {}", threads);
        }

        let extra: Vec<Triple> = extra
            .iter()
            .map(|&(s, p, o)| Triple::new(NodeId(s), NodeId(P + p), NodeId(o)))
            .filter(|t| serial.insert(*t))
            .collect();
        let grown: Vec<Triple> = facts.iter().chain(&extra).copied().collect();
        let want = naive(&grown, &rules);
        let closed = serial.clone();
        forward_closure_delta(&mut serial, &program, extra.clone());
        prop_assert_eq!(serial.iter_sorted(), want.clone(), "forward_closure_delta");
        let mut seed = extra;
        seed.sort_unstable();
        for threads in [1, 2] {
            let (grown, _) = closure_delta_within(FrozenStore::from_store(&closed), &program, seed.clone(), threads);
            prop_assert_eq!(grown.iter_sorted(), want.clone(), "closure_delta_within {}", threads);
        }
    }
}
