//! **Figure 3** — measured speedup vs the theoretical maximum predicted
//! by the Fig. 4 performance model, for LUBM.
//!
//! The theoretical maximum assumes a perfect partition: k equal parts, no
//! replication, so `max = t(n) / t(n/k)`. The paper plots the overall
//! parallel time and the slowest partition's reasoning time; reasoning
//! tracks the model closely, and the gap to overall is the
//! communication/synchronization overhead a better transport would close.
//!
//! ```text
//! cargo run --release -p owlpar-bench --bin fig3_theoretical [-- --ks 1,2,4,8,16]
//! ```

// Benchmarks and experiment binaries abort loudly on failure.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_bench::datasets::{Dataset, DatasetConfig};
use owlpar_bench::runner::{record_jsonl, speedup_series};
use owlpar_bench::table;
use owlpar_core::{fit_cubic, run_serial, ParallelConfig};
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
        .unwrap_or_else(|| vec![1, 2, 4, 8, 16]);

    // Fit the model on a size series that reaches *down* to
    // partition-sized inputs (n/k for the largest k measured), so the
    // theoretical-max prediction t(n)/t(n/k) interpolates instead of
    // extrapolating the cubic below the sampled range.
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for frac in [0.08, 0.15, 0.25, 0.4, 0.6, 0.8, 1.0] {
        let mut g = DatasetConfig {
            scale: cfg.scale * frac,
            ..cfg.clone()
        }
        .generate(Dataset::Lubm);
        xs.push(g.len() as f64);
        let (_, t) = run_serial(
            &mut g,
            MaterializationStrategy::BackwardJena(TableScope::PerQuery),
        );
        ys.push(t.as_secs_f64());
    }
    let model = fit_cubic(&xs, &ys);
    let min_sample = xs.iter().copied().fold(f64::INFINITY, f64::min);

    // Measure the parallel speedups on the largest size.
    let graph = cfg.generate(Dataset::Lubm);
    let n = graph.len() as f64;
    let points = speedup_series(&graph, &ParallelConfig::default(), &ks);

    println!(
        "Figure 3: measured vs theoretical max speedup, LUBM ({} triples, model R²={:.4})\n",
        graph.len(),
        model.r_squared
    );
    let theoretical = |k: f64| {
        let part = n / k;
        let max = model.max_speedup(n, k);
        if part < min_sample * 0.5 || !max.is_finite() || max <= 0.0 {
            None // below the model's valid range
        } else {
            Some(max)
        }
    };
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.k.to_string(),
                table::f2(p.speedup),
                table::f2(p.reason_speedup),
                theoretical(p.k as f64)
                    .map(table::f2)
                    .unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &["k", "overall speedup", "slowest-partition speedup", "theoretical max"],
            &rows
        )
    );
    let json: Vec<_> = points
        .iter()
        .map(|p| {
            obj([
                ("k", p.k.into()),
                ("measured", p.speedup.into()),
                ("reasoning_only", p.reason_speedup.into()),
                ("theoretical_max", theoretical(p.k as f64).into()),
            ])
        })
        .collect();
    let path = record_jsonl("fig3_theoretical", &json);
    println!("rows recorded to {}", path.display());
}
