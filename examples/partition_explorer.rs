//! Partition explorer: inspect what the three ownership policies do to a
//! dataset before committing to a parallel run.
//!
//! ```text
//! cargo run --release --example partition_explorer [lubm|uobm|mdc] [k]
//! ```
//!
//! Prints the Table-I metrics (bal / IR / partition time / edge-cut) per
//! policy, which is how the paper recommends choosing a policy for a new
//! dataset, and the graph partitioner's coarsening profile: how many
//! levels the root bisection took and how fast the ownership graph shrank.

// Examples favour directness over error plumbing.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar::horst::HorstReasoner;
use owlpar::partition::metrics::quality;
use owlpar::partition::multilevel::{coarsening_profile, PartitionOptions};
use owlpar::partition::rdfgraph::build_ownership_graph;
use owlpar::prelude::*;
use owlpar::rdf::vocab::RDF_TYPE;

fn main() {
    let mut args = std::env::args().skip(1);
    let which = args.next().unwrap_or_else(|| "lubm".into());
    let k: usize = args.next().map(|a| a.parse().unwrap()).unwrap_or(4);

    let mut graph = match which.as_str() {
        "uobm" => generate_uobm(&UobmConfig::mini(4)),
        "mdc" => generate_mdc(&MdcConfig::default()),
        _ => generate_lubm(&LubmConfig {
            universities: 4,
            scale: 0.15,
            seed: 42,
        }),
    };
    println!("dataset {which}: {} triples, k={k}\n", graph.len());

    let hr = HorstReasoner::from_graph(
        &mut graph,
        MaterializationStrategy::ForwardSemiNaive,
    );
    println!(
        "schema: {} triples   instance: {} triples   compiled rules: {}\n",
        hr.schema_triples.len(),
        hr.instance_triples.len(),
        hr.rules().len()
    );
    let rdf_type = graph.dict.id(&Term::iri(RDF_TYPE));

    for (name, policy) in [
        ("graph", OwnershipPolicy::Graph(PartitionOptions::default())),
        ("domain", OwnershipPolicy::Domain(None)),
        ("hash", OwnershipPolicy::Hash { seed: 1 }),
    ] {
        let dp = partition_data(&hr.instance_triples, &graph.dict, rdf_type, k, &policy);
        let q = quality(&dp.parts, rdf_type);
        println!(
            "{name:>6}: bal {:>8.1}  IR {:.3}  time {:>7.3}s  cut {:?}",
            q.bal,
            q.ir_excess(),
            dp.partition_time.as_secs_f64(),
            dp.edge_cut
        );
        println!("         triples/partition: {:?}", q.triple_counts);
    }

    let og = build_ownership_graph(&hr.instance_triples, rdf_type);
    let profile = coarsening_profile(&og.graph, &PartitionOptions::default());
    println!("\ncoarsening levels: {}", profile.len() - 1);
    for (level, (n, m)) in profile.iter().enumerate() {
        println!("  level {level:>2}: {n:>7} vertices {m:>8} edges");
    }
}
