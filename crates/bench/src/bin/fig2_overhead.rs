//! **Figure 2** — per-phase overhead (reasoning, IO, synchronization,
//! aggregation) of the parallel run over the number of partitions, for
//! LUBM with the shared-file transport (the paper's implementation).
//!
//! Paper shape: reasoning time falls with k while IO + synchronization
//! grow, which is why the paper recommends an MPI-like transport — pass
//! `--comm channel` to see that ablation.
//!
//! ```text
//! cargo run --release -p owlpar-bench --bin fig2_overhead [-- --comm file|channel --ks 1,2,4,8,16]
//! ```

// Benchmarks and experiment binaries abort loudly on failure.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_bench::datasets::{Dataset, DatasetConfig};
use owlpar_bench::runner::record_jsonl;
use owlpar_bench::table;
use owlpar_core::{run_parallel, CommMode, ParallelConfig, WireFormat};
use owlpar_obs::json::obj;

fn main() {
    let (cfg, rest) = DatasetConfig::from_args(std::env::args().skip(1));
    let ks: Vec<usize> = rest
        .iter()
        .position(|a| a == "--ks")
        .and_then(|i| rest.get(i + 1))
        .map(|s| s.split(',').map(|x| x.parse().unwrap()).collect())
        .unwrap_or_else(|| vec![1, 2, 4, 8, 16]);
    let comm = match rest
        .iter()
        .position(|a| a == "--comm")
        .and_then(|i| rest.get(i + 1))
        .map(String::as_str)
    {
        Some("channel") => CommMode::Channel,
        _ => CommMode::SharedFile {
            dir: None,
            format: WireFormat::NTriples,
        },
    };

    let graph = cfg.generate(Dataset::Lubm);
    println!("Figure 2: overhead of sub-tasks, LUBM ({} triples), comm={comm:?}\n", graph.len());

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for &k in &ks {
        let mut g = graph.clone();
        let report = run_parallel(
            &mut g,
            &ParallelConfig {
                k,
                comm: comm.clone(),
                ..ParallelConfig::default()
            },
        )
        .expect("clean experiment run");
        let b = &report.breakdown;
        rows.push(vec![
            k.to_string(),
            table::f3(b.reason.as_secs_f64()),
            table::f3(b.io.as_secs_f64()),
            table::f3(b.sync.as_secs_f64()),
            table::f3(b.aggregation.as_secs_f64()),
            report.max_rounds().to_string(),
        ]);
        json.push(obj([
            ("k", k.into()),
            ("reason_s", b.reason.as_secs_f64().into()),
            ("io_s", b.io.as_secs_f64().into()),
            ("sync_s", b.sync.as_secs_f64().into()),
            ("aggregation_s", b.aggregation.as_secs_f64().into()),
            ("rounds", report.max_rounds().into()),
        ]));
    }
    println!(
        "{}",
        table::render(
            &["k", "reason(s)", "io(s)", "sync(s)", "aggregate(s)", "rounds"],
            &rows
        )
    );
    let path = record_jsonl("fig2_overhead", &json);
    println!("rows recorded to {}", path.display());
}
