//! Property-based tests of Algorithm 1's invariants on random instance
//! graphs, plus the single-join completeness property the paper's
//! correctness argument rests on.

// Tests assert on infallible setup; unwrap/expect failures are test failures.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar::datagen::UobmConfig;
use owlpar::datagen::{generate_lubm, generate_mdc, generate_uobm, LubmConfig, MdcConfig};
use owlpar::datalog::analysis::{JoinMask, JoinPositions};
use owlpar::datalog::ast::build::{atom, c, v};
use owlpar::datalog::Rule;
use owlpar::lint::LintCode;
use owlpar::partition::data::Destinations;
use owlpar::partition::multilevel::PartitionOptions;
use owlpar::partition::partition_data_ordered;
use owlpar::prelude::*;
use owlpar::rdf::{Dictionary, NodeId};
use proptest::prelude::*;

/// Two-atom rules over predicates `1000 + p`: transitive (joins object
/// to subject) or functional (joins subject to subject).
fn join_rule_strategy(preds: u32) -> impl Strategy<Value = Rule> {
    (0..preds, 0..preds, any::<bool>()).prop_map(|(p, q, transitive)| {
        let (p, q) = (c(NodeId(1000 + p)), c(NodeId(1000 + q)));
        let body = if transitive {
            vec![atom(v(0), p, v(1)), atom(v(1), q, v(2))]
        } else {
            vec![atom(v(0), p, v(1)), atom(v(0), q, v(2))]
        };
        Rule::new("join", atom(v(1), c(NodeId(999)), v(2)), body).unwrap()
    })
}

fn triples_strategy(
    max_node: u32,
    max_pred: u32,
    max_len: usize,
) -> impl Strategy<Value = Vec<Triple>> {
    prop::collection::vec(
        (0..max_node, 0..max_pred, 0..max_node)
            .prop_map(|(s, p, o)| Triple::new(NodeId(s), NodeId(1000 + p), NodeId(o))),
        1..max_len,
    )
}

fn policies() -> Vec<(&'static str, OwnershipPolicy)> {
    vec![
        (
            "graph",
            OwnershipPolicy::Graph(PartitionOptions {
                seed: 7,
                ..PartitionOptions::default()
            }),
        ),
        ("hash", OwnershipPolicy::Hash { seed: 3 }),
        ("domain", OwnershipPolicy::Domain),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every triple lands on the owner of its subject and of its object,
    /// appears in one or two partitions, and the union reproduces the
    /// input exactly.
    #[test]
    fn algorithm1_invariants(triples in triples_strategy(60, 5, 120), k in 1usize..6) {
        let dict = Dictionary::new();
        for (name, policy) in policies() {
            let dp = partition_data(&triples, &dict, None, k, &policy);

            // ownership is total over subject/object nodes
            for t in &triples {
                prop_assert!(dp.owner_of(t.s).is_some(), "{name}: subject unowned");
                prop_assert!(dp.owner_of(t.o).is_some(), "{name}: object unowned");
                let copies = dp.parts.iter().filter(|p| p.contains(t)).count();
                prop_assert!((1..=2).contains(&copies), "{name}: {copies} copies");
                // present exactly at the owners
                for owner in [dp.owner_of(t.s).unwrap(), dp.owner_of(t.o).unwrap()] {
                    prop_assert!(dp.parts[owner as usize].contains(t), "{name}");
                }
                match dp.destinations(t) {
                    Destinations::Two(a, b) => prop_assert_ne!(a, b),
                    Destinations::One(_) => {}
                    Destinations::None => prop_assert!(false, "instance triple unroutable"),
                }
            }

            // union == input
            let mut union: Vec<Triple> = dp.parts.iter().flatten().copied().collect();
            union.sort_unstable();
            union.dedup();
            let mut input = triples.clone();
            input.sort_unstable();
            input.dedup();
            prop_assert_eq!(union, input, "{} union mismatch", name);
        }
    }

    /// The single-join completeness property: for ANY two triples that
    /// share a node (i.e. could join under a single-join rule), some
    /// partition holds both.
    #[test]
    fn joinable_pairs_colocated(triples in triples_strategy(40, 3, 80), k in 2usize..5) {
        let dict = Dictionary::new();
        for (name, policy) in policies() {
            let dp = partition_data(&triples, &dict, None, k, &policy);
            for a in &triples {
                for b in &triples {
                    let share = a.s == b.s || a.s == b.o || a.o == b.s || a.o == b.o;
                    if !share {
                        continue;
                    }
                    let colocated = dp
                        .parts
                        .iter()
                        .any(|p| p.contains(a) && p.contains(b));
                    prop_assert!(
                        colocated,
                        "{name}: joinable {a} / {b} never co-located"
                    );
                }
            }
        }
    }

    /// Graph-policy balance: partition node counts stay within a loose
    /// factor of the mean (the partitioner's epsilon plus replication).
    #[test]
    fn graph_policy_balances(triples in triples_strategy(200, 4, 400), k in 2usize..5) {
        let dict = Dictionary::new();
        let policy = OwnershipPolicy::Graph(PartitionOptions::default());
        let dp = partition_data(&triples, &dict, None, k, &policy);
        let mut owned = vec![0usize; k];
        for (_, &p) in dp.owner.iter() {
            owned[p as usize] += 1;
        }
        let total: usize = owned.len();
        prop_assert_eq!(total, k);
        let n: usize = owned.iter().sum();
        let target = n as f64 / k as f64;
        for &o in &owned {
            prop_assert!(
                (o as f64) <= target * 1.6 + 2.0,
                "owned {owned:?} vs target {target}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The masked placement keeps the single-join guarantee: for any two
    /// triples some rule's body joins, some partition holds both — while
    /// a triple joined nowhere is stored exactly once.
    #[test]
    fn masked_placement_colocates_every_join(
        triples in triples_strategy(40, 4, 80),
        rules in prop::collection::vec(join_rule_strategy(4), 1..4),
        k in 2usize..5,
    ) {
        let dict = Dictionary::new();
        let mask = JoinMask::of(&rules);
        for (name, policy) in policies() {
            let dp = partition_data_ordered(&triples, &triples, &dict, None, k, &policy, &mask);
            for a in &triples {
                let copies = dp.parts.iter().filter(|p| p.contains(a)).count();
                if !mask.positions(a.p).any() {
                    prop_assert_eq!(copies, 1, "{}: {} joins nowhere", name, a);
                }
                for b in &triples {
                    let joins = rules.iter().any(|r| {
                        r.body[0]
                            .match_triple(a, &r.empty_bindings())
                            .and_then(|bound| r.body[1].match_triple(b, &bound))
                            .is_some()
                    });
                    if joins {
                        let colocated =
                            dp.parts.iter().any(|p| p.contains(a) && p.contains(b));
                        prop_assert!(colocated, "{}: joinable {} / {} never co-located", name, a, b);
                    }
                }
            }
        }
    }
}

/// LUBM's compiled OWL-Horst rule-base joins on one predicate, at both
/// ends: `subOrganizationOf`, the one transitive property. Every other
/// instance triple is joined nowhere.
#[test]
fn lubm_rule_base_joins_only_sub_organization_of() {
    let mut g = generate_lubm(&LubmConfig::mini(2));
    let hr = HorstReasoner::from_graph(&mut g, MaterializationStrategy::ForwardSemiNaive);
    let mask = JoinMask::of(hr.rules());
    let mut joined: Vec<(String, JoinPositions)> = hr
        .instance_triples
        .iter()
        .map(|t| t.p)
        .chain(hr.schema_triples.iter().map(|t| t.p))
        .filter(|&p| mask.positions(p).any())
        .map(|p| (g.dict.term(p).unwrap().to_string(), mask.positions(p)))
        .collect();
    joined.sort_by(|a, b| a.0.cmp(&b.0));
    joined.dedup();
    assert_eq!(joined.len(), 1, "{joined:?}");
    assert!(joined[0].0.ends_with("subOrganizationOf>"), "{joined:?}");
    assert_eq!(joined[0].1, JoinPositions::BOTH);
}

/// The compiled rule-bases of the three generators join only at owned
/// positions: the class-object refusal raises nothing on them.
#[test]
fn generated_rule_bases_join_only_at_owned_positions() {
    for mut g in [
        generate_lubm(&LubmConfig::mini(2)),
        generate_uobm(&UobmConfig::mini(2)),
        generate_mdc(&MdcConfig::mini()),
    ] {
        let hr = HorstReasoner::from_graph(&mut g, MaterializationStrategy::ForwardSemiNaive);
        assert!(
            !hr.lint
                .diagnostics
                .iter()
                .any(|d| d.code == LintCode::UnownedJoin),
            "{}",
            hr.lint
        );
        assert!(!hr.lint.has_deny(), "{}", hr.lint);
    }
}

/// A deterministic worst case: a path graph must not split joinable pairs.
#[test]
fn path_graph_pairs_colocated_under_graph_policy() {
    let triples: Vec<Triple> = (0..50)
        .map(|i| Triple::new(NodeId(i), NodeId(1000), NodeId(i + 1)))
        .collect();
    let dict = Dictionary::new();
    let dp = partition_data(
        &triples,
        &dict,
        None,
        4,
        &OwnershipPolicy::Graph(PartitionOptions::default()),
    );
    for w in triples.windows(2) {
        let colocated = dp.parts.iter().any(|p| p.contains(&w[0]) && p.contains(&w[1]));
        assert!(colocated, "adjacent path triples split: {} {}", w[0], w[1]);
    }
}
