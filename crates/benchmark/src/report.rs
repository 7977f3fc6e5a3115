//! `owlbench run` (every workload, each run a child process, results to
//! one file) and `owlbench compare` (two such files, metric by metric).

use crate::metrics::{find, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{summarize, Summary};
use crate::{Args, Res};
use owlpar_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

/// What one workload's runs measured: per metric, one value per run.
#[derive(Default)]
struct WorkloadRuns {
    attempted: u64,
    failed: u64,
    end_to_end: BTreeMap<String, Vec<f64>>,
    per_layer: BTreeMap<String, f64>,
}

/// Run `owlbench bench` with `flags` as a child; echo what it prints and
/// return its result object.
fn child(flags: &[String]) -> Res<Value> {
    let out = Command::new(std::env::current_exe()?)
        .arg("bench")
        .args(flags)
        .output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let last = stdout.lines().last().unwrap_or("");
    let result = json::parse(last)
        .map_err(|e| format!("bench {flags:?} ({}) printed no result: {e}", out.status))?;
    Ok(result)
}

fn metric_values(result: &Value) -> Res<Vec<(String, f64)>> {
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        return Err("result has no metrics object".into());
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let v = m.get("value").and_then(Value::as_f64);
            v.map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} has no value").into())
        })
        .collect()
}

pub fn run(args: &Args) -> Res<bool> {
    let seed: u64 = args.parsed("--seed", 42)?;
    let runs: u64 = args.parsed("--runs", 5)?;
    let seconds: f64 = args.parsed("--seconds", 10.0)?;
    let size = args.get("--size").unwrap_or("full");
    let trace_dir = args.get("--trace");
    let mut names = args.all("--workload");
    if names.is_empty() {
        names = WORKLOADS.to_vec();
    }

    let mut all: BTreeMap<String, WorkloadRuns> = BTreeMap::new();
    for name in names {
        let w = all.entry(name.to_string()).or_default();
        let flags = |seed: u64, trace: &str| -> Vec<String> {
            ["--workload", name, "--size", size, "--trace", trace]
                .iter()
                .map(ToString::to_string)
                .chain(["--seed".into(), seed.to_string()])
                .chain(["--seconds".into(), seconds.to_string()])
                .collect()
        };
        let count = |w: &mut WorkloadRuns, result: &Value| {
            w.attempted += result.get("attempted").and_then(Value::as_u64).unwrap_or(0);
            w.failed += result.get("failed").and_then(Value::as_u64).unwrap_or(0);
        };
        for r in 0..runs {
            let result = child(&flags(seed + r, "0"))?;
            count(w, &result);
            for (metric, v) in metric_values(&result)? {
                w.end_to_end.entry(metric).or_default().push(v);
            }
        }
        // End-to-end numbers come from the untraced runs above; the
        // per-layer table and the tracing overhead from this one.
        if let Some(dir) = trace_dir {
            let mut flags = flags(seed, "1");
            flags.extend(["--trace-dir".into(), dir.to_string()]);
            let result = child(&flags)?;
            count(w, &result);
            w.per_layer.extend(metric_values(&result)?);
        }
    }

    println!(
        "\n== owlbench: seed {seed}, {runs} run(s) per workload, {seconds} s timed, size {size} =="
    );
    let mut failed = 0;
    for (name, w) in &all {
        println!(
            "\n{name}: failed_ops / attempted_ops = {} / {}",
            w.failed, w.attempted
        );
        failed += w.failed;
        for def in &END_TO_END {
            if let Some(values) = w.end_to_end.get(def.name) {
                let s = summarize(values);
                println!(
                    "  {:<16} median {:>14.4} {:<5} q1 {:.4} q3 {:.4} n {} spread {:.1} %",
                    def.name,
                    s.median,
                    def.unit,
                    s.q1,
                    s.q3,
                    s.n,
                    s.spread() * 100.0
                );
            }
        }
        for def in &PER_LAYER {
            if let Some(v) = w.per_layer.get(def.name) {
                println!("  {:<32} {:>16.4} {}", def.name, v, def.unit);
            }
        }
    }
    if let Some(path) = args.get("--out") {
        std::fs::write(path, to_json(seed, runs, seconds, size, &all))?;
        println!("\nwrote {path}");
    }
    Ok(failed == 0)
}

fn to_json(
    seed: u64,
    runs: u64,
    seconds: f64,
    size: &str,
    all: &BTreeMap<String, WorkloadRuns>,
) -> String {
    let unit = |name: &str| find(name).map_or("", |d| d.unit);
    let mut out = format!(
        "{{\"seed\": {seed}, \"runs\": {runs}, \"seconds\": {seconds}, \"size\": \"{size}\", \"workloads\": {{"
    );
    for (i, (name, w)) in all.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n\"{name}\": {{\"attempted\": {}, \"failed\": {}, \"end_to_end\": {{",
            if i == 0 { "" } else { "," },
            w.attempted,
            w.failed
        );
        for (j, (metric, values)) in w.end_to_end.iter().enumerate() {
            let values: Vec<String> = values.iter().map(f64::to_string).collect();
            let _ = write!(
                out,
                "{}\n  \"{metric}\": {{\"unit\": \"{}\", \"values\": [{}]}}",
                if j == 0 { "" } else { "," },
                unit(metric),
                values.join(", ")
            );
        }
        out.push_str("}, \"per_layer\": {");
        for (j, (metric, v)) in w.per_layer.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n  \"{metric}\": {{\"unit\": \"{}\", \"value\": {v}}}",
                if j == 0 { "" } else { "," },
                unit(metric)
            );
        }
        out.push_str("}}");
    }
    out.push_str("\n}}\n");
    out
}

struct Side {
    attempted: f64,
    failed: f64,
    end_to_end: BTreeMap<String, Summary>,
}

fn load(path: &str) -> Res<BTreeMap<String, Side>> {
    let doc = json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))?;
    let Some(Value::Obj(workloads)) = doc.get("workloads") else {
        return Err(format!("{path}: no workloads object").into());
    };
    let mut out = BTreeMap::new();
    for (name, w) in workloads {
        let num = |k: &str| w.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let mut end_to_end = BTreeMap::new();
        if let Some(Value::Obj(metrics)) = w.get("end_to_end") {
            for (metric, m) in metrics {
                let values: Vec<f64> = m
                    .get("values")
                    .and_then(Value::as_array)
                    .map(|vs| vs.iter().filter_map(Value::as_f64).collect())
                    .unwrap_or_default();
                end_to_end.insert(metric.clone(), summarize(&values));
            }
        }
        out.insert(
            name.clone(),
            Side {
                attempted: num("attempted"),
                failed: num("failed"),
                end_to_end,
            },
        );
    }
    Ok(out)
}

/// One row per (workload, end-to-end metric): both medians, the ratio
/// with its base, the bound and a verdict. `worse`: the second median is
/// beyond the bound; `unresolved`: it is not, but either side's spread is
/// wider than the bound. Fails on any `worse` and on any rise in
/// `failed_ops / attempted_ops`.
pub fn compare(args: &Args) -> Res<bool> {
    let [a_path, b_path] = args.positional() else {
        return Err("compare needs <a.json> <b.json>".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>22} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "b/a (base a)", "bound"
    );
    let (mut worse, mut unresolved) = (0, 0);
    for (name, sa) in &a {
        let Some(sb) = b.get(name) else {
            println!("{name:<14} missing from {b_path}");
            worse += 1;
            continue;
        };
        for def in &END_TO_END {
            let (Some(ma), Some(mb)) = (sa.end_to_end.get(def.name), sb.end_to_end.get(def.name))
            else {
                continue;
            };
            let bound = def.bound.unwrap_or(0.0);
            let ratio = mb.median / ma.median;
            let beyond = if def.higher_is_better {
                ratio < 1.0 - bound
            } else {
                ratio > 1.0 + bound
            };
            let verdict = if beyond {
                worse += 1;
                "worse"
            } else if ma.spread() > bound || mb.spread() > bound {
                unresolved += 1;
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{name:<14} {:<16} {:>14.4} {:>14.4} {:>8.4} of {:<10.4} {:>5.0}%  {verdict} (spread {:.1}% / {:.1}%)",
                def.name,
                ma.median,
                mb.median,
                ratio,
                ma.median,
                bound * 100.0,
                ma.spread() * 100.0,
                mb.spread() * 100.0
            );
        }
        let rate = |s: &Side| s.failed / s.attempted.max(1.0);
        let rose = rate(sb) > rate(sa);
        println!(
            "{name:<14} failed/attempted {} / {} -> {} / {}  {}",
            sa.failed,
            sa.attempted,
            sb.failed,
            sb.attempted,
            if rose { "worse" } else { "ok" }
        );
        worse += usize::from(rose);
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok(worse == 0)
}
