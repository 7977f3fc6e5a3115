//! Runs the whole benchmark at `--size tiny` on two seeds and checks the
//! output against `BENCHMARK.json`: every workload and metric named there
//! is reported with its unit and a finite value, and no operation fails.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_obs::json::{parse, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")).unwrap()
}

/// `(name, unit)` of each entry of a metric list of `BENCHMARK.json`.
fn named(doc: &Value, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run_tiny(seed: u64) -> Value {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{seed}"));
    let out = dir.join("out.json");
    let status = Command::new(env!("CARGO_BIN_EXE_owlbench"))
        .args(["run", "--size", "tiny", "--runs", "1", "--seconds", "0.5"])
        .args(["--seed", &seed.to_string()])
        .arg("--trace")
        .arg(dir.join("traces"))
        .arg("--out")
        .arg(&out)
        .status()
        .expect("owlbench starts");
    assert!(status.success(), "owlbench run --seed {seed}: {status}");
    parse(&std::fs::read_to_string(out).unwrap()).unwrap()
}

fn check(seed: u64) {
    let spec = benchmark_json();
    let report = run_tiny(seed);
    let workloads = report.get("workloads").expect("workloads in the report");
    for w in spec.get("workloads").and_then(Value::as_array).unwrap() {
        let name = w.get("name").and_then(Value::as_str).unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "workload name {name:?}"
        );
        let got = workloads
            .get(name)
            .unwrap_or_else(|| panic!("seed {seed}: workload {name} missing from the report"));
        assert_eq!(
            got.get("failed").and_then(Value::as_u64),
            Some(0),
            "{name}: failed_ops"
        );
        assert!(got.get("attempted").and_then(Value::as_u64).unwrap() >= 1);

        for (metric, unit) in named(&spec, "end_to_end") {
            let m = got
                .get("end_to_end")
                .and_then(|e| e.get(&metric))
                .unwrap_or_else(|| panic!("{name}: {metric} missing"));
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(unit.as_str()),
                "{metric}"
            );
            let values = m.get("values").and_then(Value::as_array).unwrap();
            assert!(!values.is_empty(), "{name}: {metric} has no value");
            for v in values {
                let v = v.as_f64().unwrap();
                assert!(v.is_finite() && v > 0.0, "{name}: {metric} = {v}");
            }
        }
        for (metric, unit) in named(&spec, "per_layer") {
            let m = got
                .get("per_layer")
                .and_then(|e| e.get(&metric))
                .unwrap_or_else(|| panic!("{name}: {metric} missing"));
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(unit.as_str()),
                "{metric}"
            );
            let v = m.get("value").and_then(Value::as_f64).unwrap();
            assert!(v.is_finite() && v >= 0.0, "{name}: {metric} = {v}");
        }
        // The traced run left a loadable Chrome trace.
        let trace = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{seed}/traces/{name}.trace.json"));
        let trace = parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(!trace
            .get("traceEvents")
            .and_then(Value::as_array)
            .unwrap()
            .is_empty());
    }
    // Nothing is reported that BENCHMARK.json does not name.
    let Value::Obj(reported) = workloads else {
        panic!("workloads is not an object")
    };
    assert_eq!(
        reported.len(),
        spec.get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .len()
    );
    for got in reported.values() {
        for list in ["end_to_end", "per_layer"] {
            let Some(Value::Obj(metrics)) = got.get(list) else {
                panic!("{list} is not an object")
            };
            assert_eq!(metrics.len(), named(&spec, list).len(), "{list}");
        }
    }
}

#[test]
fn tiny_run_reports_everything_benchmark_json_names() {
    check(42);
}

/// Guards against inputs that only work for seed 42.
#[test]
fn tiny_run_passes_its_oracles_on_a_second_seed() {
    check(7);
}
