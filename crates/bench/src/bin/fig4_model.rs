//! **Figure 4** — regressing a cubic performance model from observed
//! serial reasoning times over a series of LUBM sizes (LUBM-1, LUBM-2,
//! ...).
//!
//! Paper shape: the backward per-resource reasoner's time grows
//! super-linearly in KB size and a cubic fits with high R² ("since the
//! worst case of the reasoning for the rule set is cubic, fitting a cubic
//! model is reasonable").
//!
//! ```text
//! cargo run --release -p owlpar-bench --bin fig4_model [-- --universities 6 --scale 0.3]
//! ```

use owlpar_bench::datasets::{Dataset, DatasetConfig};
use owlpar_bench::runner::record_jsonl;
use owlpar_bench::table;
use owlpar_core::{fit_cubic, run_serial};
use owlpar_datalog::backward::TableScope;
use owlpar_datalog::MaterializationStrategy;
use owlpar_obs::json::obj;

fn main() {
    let (cfg, _) = DatasetConfig::from_args(std::env::args().skip(1));
    let max_u = cfg.universities.max(4);
    println!("Figure 4: cubic model of serial reasoning time vs LUBM size\n");

    let mut xs = Vec::new(); // triples
    let mut ys = Vec::new(); // seconds
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for u in 1..=max_u {
        let mut g = DatasetConfig {
            universities: u,
            ..cfg.clone()
        }
        .generate(Dataset::Lubm);
        let n = g.len() as f64;
        let (_, t) = run_serial(
            &mut g,
            MaterializationStrategy::BackwardJena(TableScope::PerQuery),
        );
        xs.push(n);
        ys.push(t.as_secs_f64());
        rows.push((u, n, t.as_secs_f64()));
    }

    let model = fit_cubic(&xs, &ys);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|&(u, n, t)| {
            vec![
                format!("LUBM-{u}"),
                (n as u64).to_string(),
                table::f3(t),
                table::f3(model.predict(n)),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(&["dataset", "triples", "measured(s)", "model(s)"], &table_rows)
    );
    println!(
        "cubic fit: t(n) = {:.3e} + {:.3e}·n + {:.3e}·n² + {:.3e}·n³   (R² = {:.4})",
        model.coeffs[0], model.coeffs[1], model.coeffs[2], model.coeffs[3], model.r_squared
    );
    for &(u, n, t) in &rows {
        json.push(obj([
            ("universities", u.into()),
            ("triples", n.into()),
            ("measured_s", t.into()),
            ("predicted_s", model.predict(n).into()),
        ]));
    }
    json.push(obj([("model", model.to_json())]));
    let path = record_jsonl("fig4_model", &json);
    println!("rows recorded to {}", path.display());
}
