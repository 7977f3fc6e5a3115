//! Human-readable and JSON renderers for [`LintReport`].

use crate::{Diagnostic, LintReport};
use owlpar_obs::json::{obj, Value};
use std::fmt::Write as _;

/// The **one** JSON shape a diagnostic ever takes — shared by
/// `owlpar lint --json` and `owlpar plan --json` so downstream tooling
/// parses both with a single schema
/// (`code/title/severity/context/rule/rule_index/message/violation/witness/suppressed`).
pub(crate) fn diagnostic_json(d: &Diagnostic, context: &str) -> Value {
    obj([
        ("code", d.code.id().into()),
        ("title", d.code.title().into()),
        ("severity", d.severity.label().into()),
        ("context", context.into()),
        ("rule", d.rule.as_deref().into()),
        ("rule_index", d.rule_index.into()),
        ("message", d.message.as_str().into()),
        ("violation", d.violation.as_ref().map(|v| v.label()).into()),
        ("witness", d.witness.as_deref().into()),
        ("suppressed", d.suppressed.into()),
    ])
}

pub(crate) fn render_human(report: &LintReport) -> String {
    let mut out = String::new();
    let suppressed = report
        .diagnostics
        .iter()
        .filter(|d| d.suppressed)
        .count();
    let single_join = report
        .rules
        .iter()
        .filter(|r| matches!(r.join_class.as_str(), "single-join" | "single-atom"))
        .count();
    let _ = writeln!(
        out,
        "linted {} rule(s) under the {} context: {} locally evaluable, {} deny, {} warn, {} suppressed",
        report.rules.len(),
        report.context.label(),
        single_join,
        report.deny_count(),
        report.warn_count(),
        suppressed,
    );
    for d in &report.diagnostics {
        let at = d
            .rule
            .as_deref()
            .map(|n| format!(" [{n}]"))
            .unwrap_or_default();
        let tail = if d.suppressed { " (suppressed)" } else { "" };
        let _ = writeln!(
            out,
            "{:>5} {}{}: {}{}",
            d.severity.label(),
            d.code.id(),
            at,
            d.message,
            tail
        );
    }
    if !report.rules.is_empty() {
        let _ = writeln!(out, "rules:");
        for r in &report.rules {
            let witness = match &r.witness {
                Some(w) => format!(", witness {w}"),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "  {}: {}{}, weight {}, scc {}",
                r.name, r.join_class, witness, r.weight, r.scc
            );
        }
    }
    let _ = write!(
        out,
        "verdict: {}",
        if report.has_deny() { "DENY" } else { "ok" }
    );
    out
}

pub(crate) fn to_json(report: &LintReport) -> Value {
    let rules: Vec<Value> = report
        .rules
        .iter()
        .map(|r| {
            obj([
                ("name", r.name.as_str().into()),
                ("join_class", r.join_class.as_str().into()),
                ("witness", r.witness.as_deref().into()),
                ("weight", r.weight.into()),
                ("scc", r.scc.into()),
            ])
        })
        .collect();
    let diagnostics: Vec<Value> = report
        .diagnostics
        .iter()
        .map(|d| diagnostic_json(d, report.context.label()))
        .collect();
    obj([
        ("context", report.context.label().into()),
        (
            "summary",
            obj([
                ("rules", report.rules.len().into()),
                ("deny", report.deny_count().into()),
                ("warn", report.warn_count().into()),
                ("ok", (!report.has_deny()).into()),
            ]),
        ),
        ("rules", rules.into()),
        ("diagnostics", diagnostics.into()),
    ])
}
