//! The full user workflow: generate → materialize in parallel → query.
//! Asserts the materialized KB answers the LUBM mix identically no matter
//! which partitioning strategy produced it.

// Tests assert on infallible setup; unwrap/expect failures are test failures.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar::prelude::*;
use owlpar::query::lubm::queries;

fn close_with(g0: &Graph, strategy: PartitioningStrategy, k: usize) -> Graph {
    let mut g = g0.clone();
    run_parallel(
        &mut g,
        &ParallelConfig {
            k,
            strategy,
            ..ParallelConfig::default()
        }
        .forward(),
    )
    .expect("clean run");
    g
}

#[test]
fn query_answers_independent_of_partitioning() {
    let g0 = generate_lubm(&LubmConfig::mini(2));
    let mut closed: Vec<Graph> = vec![
        close_with(&g0, PartitioningStrategy::data_graph(), 3),
        close_with(&g0, PartitioningStrategy::data_hash(), 4),
        close_with(&g0, PartitioningStrategy::rule(), 2),
    ];
    for (name, _, src) in queries() {
        let counts: Vec<usize> = closed
            .iter_mut()
            .map(|g| {
                let q = parse_query(&src, &mut g.dict).expect("parses");
                execute(&g.store, &q).len()
            })
            .collect();
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "{name}: answer counts differ across strategies: {counts:?}"
        );
    }
}

#[test]
fn ask_queries_on_materialized_kb() {
    let mut g = generate_lubm(&LubmConfig::mini(1));
    run_parallel(&mut g, &ParallelConfig::default().forward()).expect("clean run");
    let yes = parse_query(
        &format!(
            "{}ASK {{ ?x a ub:Person }}",
            owlpar::query::lubm::PREFIX
        ),
        &mut g.dict,
    )
    .unwrap();
    assert!(ask(&g.store, &yes), "inferred Person instances must exist");
    let no = parse_query(
        "ASK { ?x <http://nonexistent/prop> ?y }",
        &mut g.dict,
    )
    .unwrap();
    assert!(!ask(&g.store, &no));
}

#[test]
fn snapshot_of_materialized_kb_is_queryable() {
    let mut g = generate_lubm(&LubmConfig::mini(1));
    run_parallel(&mut g, &ParallelConfig::default().forward()).expect("clean run");

    let mut buf = Vec::new();
    owlpar::rdf::snapshot::save(&g, &mut buf).unwrap();
    let mut restored = owlpar::rdf::snapshot::load(&mut buf.as_slice()).unwrap();

    let src = format!("{}SELECT ?x WHERE {{ ?x a ub:Student }}", owlpar::query::lubm::PREFIX);
    let q1 = parse_query(&src, &mut g.dict).unwrap();
    let q2 = parse_query(&src, &mut restored.dict).unwrap();
    assert_eq!(
        execute(&g.store, &q1).len(),
        execute(&restored.store, &q2).len()
    );
}
