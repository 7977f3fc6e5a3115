//! **Figure 6** — speedups of the rule-partitioning approach on LUBM,
//! UOBM and MDC for small k.
//!
//! Paper shape: sub-linear but monotonic speedups; the rule-bases are
//! small so only a few partitions make sense. The paper switched this
//! experiment to shared memory because the communicated volumes are much
//! higher than under data partitioning — we use the channel transport
//! accordingly. `--weighted` enables predicate-histogram edge weights.
//!
//! ```text
//! cargo run --release -p owlpar-bench --bin fig6_rule_partition [-- --ks 2,3,4 --weighted]
//! ```

// Benchmarks and experiment binaries abort loudly on failure.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_bench::datasets::{Dataset, DatasetConfig};
use owlpar_bench::runner::{record_jsonl, speedup_series};
use owlpar_bench::table;
use owlpar_core::{ParallelConfig, PartitioningStrategy};
use owlpar_datalog::backward::TableScope;
use owlpar_datalog::MaterializationStrategy;
use owlpar_obs::json::obj;

fn main() {
    let (cfg, rest) = DatasetConfig::from_args(std::env::args().skip(1));
    let ks: Vec<usize> = rest
        .iter()
        .position(|a| a == "--ks")
        .and_then(|i| rest.get(i + 1))
        .map(|s| s.split(',').map(|x| x.parse().unwrap()).collect())
        .unwrap_or_else(|| vec![2, 3, 4]);
    let weighted = rest.iter().any(|a| a == "--weighted");

    println!("Figure 6: rule-partitioning speedups (weighted={weighted})\n");
    let mut json = Vec::new();
    for dataset in Dataset::ALL {
        let graph = cfg.generate(dataset);
        println!("{} ({} triples)", dataset.name(), graph.len());
        // Rule partitioning divides work by *rules*; the per-resource
        // backward engine (whose proof work scales with the rule count)
        // is the matching cost model — the Jena candidate scan would not
        // shrink with the rule subset.
        let base = ParallelConfig {
            strategy: PartitioningStrategy::Rule { weighted },
            materialization: MaterializationStrategy::BackwardPerResource(TableScope::PerQuery),
            ..ParallelConfig::default()
        };
        let points = speedup_series(&graph, &base, &ks);
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.k.to_string(),
                    table::f2(p.speedup),
                    table::f3(p.or_excess),
                    p.rounds.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            table::render(&["k", "speedup", "OR", "rounds"], &rows)
        );
        for p in points {
            json.push(obj([
                ("dataset", dataset.name().into()),
                ("weighted", weighted.into()),
                ("point", p.to_json()),
            ]));
        }
    }
    let path = record_jsonl("fig6_rule_partition", &json);
    println!("rows recorded to {}", path.display());
}
