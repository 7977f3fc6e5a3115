//! **Figure 1** — speedup of the data-partitioning approach (graph
//! partitioning policy) for LUBM, UOBM and MDC over the number of
//! processors.
//!
//! Paper shape: LUBM and MDC super-linear (partitioning shrinks the
//! super-linear backward reasoner's search space), UOBM sub-linear (dense
//! cross-cluster links ⇒ high replication & communication).
//!
//! ```text
//! cargo run --release -p owlpar-bench --bin fig1_speedup [-- --scale 0.3 --universities 4 --ks 1,2,4,8,16]
//! ```

// Benchmarks and experiment binaries abort loudly on failure.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_bench::datasets::{Dataset, DatasetConfig};
use owlpar_bench::runner::{record_jsonl, speedup_series};
use owlpar_bench::table;
use owlpar_core::ParallelConfig;
use owlpar_obs::json::obj;

fn main() {
    let (cfg, rest) = DatasetConfig::from_args(std::env::args().skip(1));
    let ks = parse_ks(&rest).unwrap_or_else(|| vec![1, 2, 4, 8, 16]);

    println!("Figure 1: data-partitioning (graph policy) speedups");
    println!("dataset config: {cfg:?}, ks: {ks:?}\n");

    let mut all_rows = Vec::new();
    for dataset in Dataset::ALL {
        let graph = cfg.generate(dataset);
        println!("{} ({} triples)", dataset.name(), graph.len());
        let base = ParallelConfig::default(); // backward engine, channel comm
        let points = speedup_series(&graph, &base, &ks);
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.k.to_string(),
                    table::f2(p.serial_secs),
                    table::f2(p.parallel_secs),
                    table::f2(p.speedup),
                    p.rounds.to_string(),
                    p.ir_excess.map(table::f3).unwrap_or_default(),
                ]
            })
            .collect();
        println!(
            "{}",
            table::render(&["k", "serial(s)", "parallel(s)", "speedup", "rounds", "IR"], &rows)
        );
        for p in points {
            all_rows.push(obj([
                ("dataset", dataset.name().into()),
                ("point", p.to_json()),
            ]));
        }
    }
    let path = record_jsonl("fig1_speedup", &all_rows);
    println!("rows recorded to {}", path.display());
}

fn parse_ks(rest: &[String]) -> Option<Vec<usize>> {
    let idx = rest.iter().position(|a| a == "--ks")?;
    let spec = rest.get(idx + 1)?;
    Some(
        spec.split(',')
            .map(|s| s.trim().parse().expect("--ks takes integers"))
            .collect(),
    )
}
