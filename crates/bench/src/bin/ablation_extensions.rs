//! Ablation of the paper-proposed improvement we implemented:
//! **hybrid partitioning** (§VII future work), a rules × data split vs
//! pure data and pure rule splits at equal worker counts.
//!
//! ```text
//! cargo run --release -p owlpar-bench --bin ablation_extensions [-- --scale 0.15 --ks 4,8]
//! ```

// Benchmarks and experiment binaries abort loudly on failure.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_bench::datasets::{Dataset, DatasetConfig};
use owlpar_bench::runner::{point_from_report, record_jsonl};
use owlpar_bench::table;
use owlpar_core::{run_parallel, run_serial, ParallelConfig, PartitioningStrategy};
use owlpar_obs::json::obj;

fn main() {
    let (cfg, rest) = DatasetConfig::from_args(std::env::args().skip(1));
    let ks: Vec<usize> = rest
        .iter()
        .position(|a| a == "--ks")
        .and_then(|i| rest.get(i + 1))
        .map(|s| s.split(',').map(|x| x.parse().unwrap()).collect())
        .unwrap_or_else(|| vec![4, 8]);

    let graph = cfg.generate(Dataset::Lubm);
    let base = ParallelConfig::default();
    let (_, serial) = run_serial(&mut graph.clone(), base.materialization);
    println!(
        "Extension ablations, LUBM ({} triples), serial {:.2}s\n",
        graph.len(),
        serial.as_secs_f64()
    );

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for &k in &ks {
        let variants: Vec<(&str, ParallelConfig)> = vec![
            (
                "data/barrier",
                ParallelConfig {
                    k,
                    ..base.clone()
                },
            ),
            (
                "rule",
                ParallelConfig {
                    k,
                    strategy: PartitioningStrategy::rule(),
                    ..base.clone()
                },
            ),
            (
                "hybrid(g=2)",
                ParallelConfig {
                    k,
                    strategy: PartitioningStrategy::Hybrid { rule_groups: 2 },
                    ..base.clone()
                },
            ),
        ];
        for (name, cfg_v) in variants {
            if matches!(cfg_v.strategy, PartitioningStrategy::Hybrid { rule_groups } if k % rule_groups != 0)
            {
                continue;
            }
            let mut g = graph.clone();
            let report = run_parallel(&mut g, &cfg_v).expect("clean experiment run");
            let p = point_from_report(&report, serial);
            let max_sync = report
                .workers
                .iter()
                .map(|w| w.sync_time)
                .max()
                .unwrap_or_default();
            rows.push(vec![
                k.to_string(),
                name.to_string(),
                table::f2(p.speedup),
                table::f3(max_sync.as_secs_f64()),
                p.rounds.to_string(),
                table::f3(p.or_excess),
            ]);
            json.push(obj([
                ("k", k.into()),
                ("variant", name.into()),
                ("point", p.to_json()),
                ("max_sync_s", max_sync.as_secs_f64().into()),
            ]));
        }
    }
    println!(
        "{}",
        table::render(
            &["k", "variant", "speedup", "max sync(s)", "rounds", "OR"],
            &rows
        )
    );
    let path = record_jsonl("ablation_extensions", &json);
    println!("rows recorded to {}", path.display());
}
