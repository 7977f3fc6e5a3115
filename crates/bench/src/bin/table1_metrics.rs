//! **Table I** — partitioning metrics (`bal`, `OR`, `IR`, partitioning
//! time) for the three ownership policies on LUBM at k ∈ {2, 4, 8, 16}.
//!
//! Paper shape: graph and domain policies have low IR (≈0.07–0.19 excess)
//! and low-ish bal; hash has IR near or above 1.0 excess (every node's
//! neighborhood is scattered). Partitioning itself is orders of magnitude
//! cheaper than inferencing.
//!
//! ```text
//! cargo run --release -p owlpar-bench --bin table1_metrics [-- --ks 2,4,8,16]
//! ```

// Benchmarks and experiment binaries abort loudly on failure.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_bench::datasets::{Dataset, DatasetConfig};
use owlpar_bench::runner::record_jsonl;
use owlpar_bench::table;
use owlpar_core::{run_parallel, ParallelConfig, PartitioningStrategy};
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
        "Table I: partitioning metrics for the LUBM data-set ({} triples)\n",
        graph.len()
    );

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for &k in &ks {
        for (name, strategy) in [
            ("Graph", PartitioningStrategy::data_graph()),
            ("Dom sp.", PartitioningStrategy::data_domain()),
            ("Hash", PartitioningStrategy::data_hash()),
        ] {
            let mut g = graph.clone();
            // OR needs the reasoning outputs; the forward engine computes
            // the identical closure at a fraction of the cost.
            let report = run_parallel(
                &mut g,
                &ParallelConfig {
                    k,
                    strategy,
                    ..ParallelConfig::default()
                }
                .forward(),
            )
            .expect("clean experiment run");
            let q = report.partition_quality.as_ref().expect("data strategy");
            rows.push(vec![
                k.to_string(),
                name.to_string(),
                format!("{:.0}", q.bal),
                table::f3(report.output_replication),
                table::f3(q.ir_excess()),
                format!("{:.3}", report.partition_time.as_secs_f64()),
            ]);
            json.push(obj([
                ("k", k.into()),
                ("algorithm", name.into()),
                ("bal", q.bal.into()),
                ("or_excess", report.output_replication.into()),
                ("ir_excess", q.ir_excess().into()),
                (
                    "partition_time_s",
                    report.partition_time.as_secs_f64().into(),
                ),
                ("edge_cut", report.edge_cut.into()),
            ]));
        }
    }
    println!(
        "{}",
        table::render(
            &["k", "algorithm", "bal", "OR", "IR", "part.time(s)"],
            &rows
        )
    );
    let path = record_jsonl("table1_metrics", &json);
    println!("rows recorded to {}", path.display());
}
