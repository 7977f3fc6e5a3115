//! End-to-end tests of the `owlpar plan` CLI: auto strategy selection
//! on a real KB, the deny-level refusal path (exit 3), the one set of
//! `--strategy` names, and the contract that `owlpar lint --json` and
//! `owlpar plan --json` emit diagnostics under **one** shared schema.
//! Also `owlpar partition`, whose rows must be the partitions a run
//! builds.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar::obs::json::{self, Value};
use owlpar::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

fn owlpar_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_owlpar"))
}

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// A LUBM of `universities` written through the CLI itself, as a user
/// would, into a directory of its own (`tag` keeps tests apart).
fn lubm_kb(tag: &str, universities: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("owlpar-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let kb = dir.join("lubm.nt");
    let gen = owlpar_bin()
        .args([
            "gen",
            "lubm",
            kb.to_str().unwrap(),
            "--universities",
            universities,
        ])
        .output()
        .expect("owlpar runs");
    assert!(gen.status.success(), "gen failed");
    (dir, kb)
}

/// The one diagnostic shape both subcommands promise
/// (`owlpar_lint::render::diagnostic_json`).
fn diagnostic_keys() -> BTreeSet<String> {
    [
        "code",
        "title",
        "severity",
        "context",
        "rule",
        "rule_index",
        "message",
        "violation",
        "witness",
        "suppressed",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn keys_of(diag: &Value) -> BTreeSet<String> {
    match diag {
        Value::Obj(fields) => fields.keys().cloned().collect(),
        _ => panic!("diagnostic is not an object: {diag}"),
    }
}

fn json_stdout(out: std::process::Output) -> Value {
    let stdout = String::from_utf8(out.stdout).unwrap();
    json::parse(&stdout).unwrap_or_else(|e| panic!("bad JSON ({e}): {stdout}"))
}

/// `doc[k0][k1]…`: the value at a path of object keys.
fn at<'a>(doc: &'a Value, path: &[&str]) -> &'a Value {
    path.iter().fold(doc, |v, k| {
        v.get(k).unwrap_or_else(|| panic!("no key {k} in {v}"))
    })
}

fn array<'a>(doc: &'a Value, path: &[&str]) -> &'a [Value] {
    at(doc, path).as_array().unwrap()
}

#[test]
fn lint_json_and_plan_json_share_one_diagnostic_schema() {
    // Lint diagnostics for the multi-join fixture (exit 3, OWL001...).
    let lint = owlpar_bin()
        .args(["lint", &fixture("multijoin.rules"), "--json"])
        .output()
        .expect("owlpar runs");
    let lint_doc = json_stdout(lint);
    let lint_diags = array(&lint_doc, &["diagnostics"]);
    assert!(!lint_diags.is_empty(), "lint found nothing to report");

    // Plan diagnostics for the same fixture under rule partitioning at a
    // skewed k (exit 3, OWL015 idle-majority among them).
    let plan = owlpar_bin()
        .args([
            "plan",
            &fixture("multijoin.rules"),
            "--strategy",
            "rule",
            "--k",
            "8",
            "--json",
        ])
        .output()
        .expect("owlpar runs");
    assert_eq!(plan.status.code(), Some(3), "skewed plan must be refused");
    let plan_doc = json_stdout(plan);
    let plan_diags: Vec<&Value> = array(&plan_doc, &["strategies"])
        .iter()
        .flat_map(|s| array(s, &["diagnostics"]))
        .collect();
    assert!(!plan_diags.is_empty(), "plan found nothing to report");

    // Round-trip: every diagnostic either tool ever emits has exactly
    // the same key set, so downstream tooling parses both with a single
    // schema.
    let want = diagnostic_keys();
    for d in lint_diags {
        assert_eq!(keys_of(d), want, "lint diagnostic drifted: {d}");
    }
    for d in &plan_diags {
        assert_eq!(keys_of(d), want, "plan diagnostic drifted: {d}");
    }
}

#[test]
fn plan_auto_selects_the_argmin_cost_deny_free_strategy() {
    let (dir, kb) = lubm_kb("plan-cli", "1");
    let out = owlpar_bin()
        .args(["plan", kb.to_str().unwrap(), "--strategy", "auto", "--k", "4", "--json"])
        .output()
        .expect("owlpar runs");
    assert_eq!(out.status.code(), Some(0), "auto plan must succeed");
    let doc = json_stdout(out);
    let chosen = at(&doc, &["chosen"])
        .as_str()
        .expect("a strategy was chosen");

    // The chosen strategy is the cheapest among the deny-free candidates.
    let best = array(&doc, &["strategies"])
        .iter()
        .filter(|s| at(s, &["summary", "ok"]).as_bool().unwrap())
        .min_by(|a, b| {
            let ca = at(a, &["plan", "total_cost"]).as_f64().unwrap();
            let cb = at(b, &["plan", "total_cost"]).as_f64().unwrap();
            ca.total_cmp(&cb)
        })
        .expect("at least one deny-free candidate");
    assert_eq!(at(best, &["plan", "strategy"]).as_str().unwrap(), chosen);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn plan_auto_refuses_pathological_rulebase_with_exit_3() {
    let out = owlpar_bin()
        .args([
            "plan",
            &fixture("multijoin.rules"),
            "--strategy",
            "auto",
            "--k",
            "8",
            "--json",
        ])
        .output()
        .expect("owlpar runs");
    assert_eq!(out.status.code(), Some(3), "no deny-free candidate exists");
    let doc = json_stdout(out);
    assert_eq!(
        at(&doc, &["chosen"]),
        &Value::Null,
        "nothing must be chosen: {doc}"
    );
    let any_deny = array(&doc, &["strategies"])
        .iter()
        .flat_map(|s| array(s, &["diagnostics"]))
        .any(|d| at(d, &["severity"]).as_str() == Some("deny"));
    assert!(any_deny, "refusal must carry a deny diagnostic: {doc}");
}

#[test]
fn every_strategy_name_is_scored_and_no_other_is_accepted() {
    // Two universities: the domain policy puts a single one on a single
    // worker, which the analyzer rightly denies (OWL011).
    let (dir, kb) = lubm_kb("plan-names", "2");
    let kb = kb.to_str().unwrap();
    for name in ["graph", "hash", "domain", "rule", "auto"] {
        let out = owlpar_bin()
            .args(["plan", kb, "--strategy", name, "--k", "2", "--json"])
            .output()
            .expect("owlpar runs");
        assert_eq!(out.status.code(), Some(0), "{name}: {out:?}");
        let doc = json_stdout(out);
        assert!(
            !array(&doc, &["strategies"]).is_empty(),
            "{name} scored nothing"
        );
    }
    for name in ["hybrid", "data"] {
        let out = owlpar_bin()
            .args(["plan", kb, "--strategy", name, "--k", "2"])
            .output()
            .expect("owlpar runs");
        assert_eq!(out.status.code(), Some(1), "{name} is a usage error");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains(&format!("unknown strategy '{name}'"))
                && stderr.contains("graph|hash|domain|rule|auto"),
            "{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `owlpar partition`'s hash row is the partition `--strategy hash`
/// builds: same seed, so the same input replication a run reports.
#[test]
fn partition_hash_row_is_the_partition_a_hash_run_builds() {
    let (dir, kb) = lubm_kb("partition-hash", "1");
    let out = owlpar_bin()
        .args(["partition", kb.to_str().unwrap(), "--k", "4"])
        .output()
        .expect("owlpar runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let row = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("hash:"))
        .unwrap_or_else(|| panic!("no hash row in {stdout}"));
    let ir = row
        .split("IR ")
        .nth(1)
        .and_then(|r| r.split_whitespace().next())
        .unwrap_or_else(|| panic!("no IR in {row}"));

    let mut g = Graph::new();
    parse_ntriples(&std::fs::read_to_string(&kb).unwrap(), &mut g).unwrap();
    let cfg = ParallelConfig {
        k: 4,
        strategy: PartitioningStrategy::data_hash(),
        ..ParallelConfig::default()
    }
    .forward();
    let report = run_parallel(&mut g, &cfg).expect("hash run succeeds");
    let q = report.partition_quality.expect("data runs report quality");
    assert_eq!(ir, format!("{:.3}", q.ir_excess()), "{row}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flag `owlpar materialize`'s usage line does not name, or one
/// missing its value, is refused with exit 1 and an error naming the
/// flag — not dropped while the run goes ahead with defaults.
#[test]
fn unknown_and_valueless_flags_are_refused() {
    let (dir, kb) = lubm_kb("flags", "1");
    let out = dir.join("out.nt");
    for (extra, why) in [
        (
            &["--k", "2", "--stratgy", "rule"][..],
            "unknown flag --stratgy",
        ),
        (&["--k"][..], "--k needs a value"),
    ] {
        let run = owlpar_bin()
            .args(["materialize", kb.to_str().unwrap(), out.to_str().unwrap()])
            .args(extra)
            .output()
            .expect("owlpar runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{extra:?}: {stderr}");
        assert!(stderr.contains(why), "{extra:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
