//! End-to-end tests of the `owlpar plan` CLI: auto strategy selection
//! on a real KB, the deny-level refusal path (exit 3), and the contract
//! that `owlpar lint --json` and `owlpar plan --json` emit diagnostics
//! under **one** shared schema.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar::obs::json::{self, Value};
use std::collections::BTreeSet;
use std::process::Command;

fn owlpar_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_owlpar"))
}

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
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
    // Build a small KB through the CLI itself, as a user would.
    let dir = std::env::temp_dir().join(format!("owlpar-plan-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let kb = dir.join("lubm.nt");
    let gen = owlpar_bin()
        .args(["gen", "lubm", kb.to_str().unwrap(), "--universities", "1"])
        .output()
        .expect("owlpar runs");
    assert!(gen.status.success(), "gen failed");

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
