//! **Figure 5** — speedups of the three data-partitioning policies
//! (graph, domain-specific, hash) on LUBM.
//!
//! Paper shape: domain-specific performs nearly as well as graph
//! partitioning; hash performs very badly because it does not minimize
//! edge-cut (the paper could not even finish hash at 8/16 nodes for
//! memory; at our scales it finishes but its replication shows).
//!
//! ```text
//! cargo run --release -p owlpar-bench --bin fig5_policy_compare [-- --ks 2,4,8,16]
//! ```

// Benchmarks and experiment binaries abort loudly on failure.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_bench::datasets::{Dataset, DatasetConfig};
use owlpar_bench::runner::{record_jsonl, speedup_series};
use owlpar_bench::table;
use owlpar_core::{ParallelConfig, PartitioningStrategy};
use owlpar_obs::json::obj;

fn main() {
    let (cfg, rest) = DatasetConfig::from_args(std::env::args().skip(1));
    let ks: Vec<usize> = rest
        .iter()
        .position(|a| a == "--ks")
        .and_then(|i| rest.get(i + 1))
        .map(|s| s.split(',').map(|x| x.parse().unwrap()).collect())
        .unwrap_or_else(|| vec![2, 4, 8, 16]);

    let graph = cfg.generate(Dataset::Lubm);
    println!(
        "Figure 5: data-partitioning policy comparison, LUBM ({} triples)\n",
        graph.len()
    );

    let policies: [(&str, PartitioningStrategy); 3] = [
        ("graph", PartitioningStrategy::data_graph()),
        ("domain", PartitioningStrategy::data_domain()),
        ("hash", PartitioningStrategy::data_hash()),
    ];

    let mut json = Vec::new();
    for (name, strategy) in policies {
        let base = ParallelConfig {
            strategy,
            ..ParallelConfig::default()
        };
        let points = speedup_series(&graph, &base, &ks);
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.k.to_string(),
                    table::f2(p.speedup),
                    p.ir_excess.map(table::f3).unwrap_or_default(),
                    table::f3(p.or_excess),
                    p.rounds.to_string(),
                ]
            })
            .collect();
        println!("policy: {name}");
        println!(
            "{}",
            table::render(&["k", "speedup", "IR", "OR", "rounds"], &rows)
        );
        for p in points {
            json.push(obj([("policy", name.into()), ("point", p.to_json())]));
        }
    }
    let path = record_jsonl("fig5_policy_compare", &json);
    println!("rows recorded to {}", path.display());
}
