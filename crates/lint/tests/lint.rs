//! End-to-end tests of the lint analyses over parsed rule files.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_datalog::ast::build::{atom, c, v};
use owlpar_datalog::{parse_rules, parse_rules_annotated, Rule};
use owlpar_lint::{
    lint_parsed, lint_rules, JoinViolation, LintCode, LintOptions, PartitionContext, Severity,
};
use owlpar_rdf::fx::{FxHashMap, FxHashSet};
use owlpar_rdf::{Dictionary, NodeId};

const P: &str = "<http://x/p>";
const Q: &str = "<http://x/q>";
const R: &str = "<http://x/r>";

fn lint_text(text: &str, opts: &LintOptions) -> owlpar_lint::LintReport {
    let mut dict = Dictionary::new();
    let rules = parse_rules(text, &mut dict).unwrap();
    lint_rules(&rules, opts)
}

#[test]
fn clean_single_join_rulebase_passes_with_named_witness() {
    let report = lint_text(
        &format!("[trans: (?a {P} ?b) (?b {P} ?c) -> (?a {P} ?c)]"),
        &LintOptions::default(),
    );
    assert!(!report.has_deny(), "{report}");
    assert_eq!(report.rules.len(), 1);
    assert_eq!(report.rules[0].join_class, "single-join");
    // Parsed without annotations: no source names, normalized form.
    assert_eq!(report.rules[0].witness.as_deref(), Some("?v1"));
}

#[test]
fn witness_uses_source_variable_names_when_annotated_parse_is_used() {
    let mut dict = Dictionary::new();
    let parsed = parse_rules_annotated(
        &format!("[trans: (?x {P} ?mid) (?mid {P} ?z) -> (?x {P} ?z)]"),
        &mut dict,
    )
    .unwrap();
    let report = lint_parsed(&parsed, LintOptions::default());
    assert_eq!(report.rules[0].witness.as_deref(), Some("?mid"));
}

#[test]
fn multi_join_denied_under_data_partitioning() {
    let report = lint_text(
        &format!("[multi: (?a {P} ?b) (?b {P} ?c) (?c {Q} ?a) -> (?a {R} ?c)]"),
        &LintOptions::default(),
    );
    assert!(report.has_deny());
    let d = report.deny_findings().next().unwrap();
    assert_eq!(d.code, LintCode::NonSingleJoin);
    assert_eq!(
        d.violation,
        Some(JoinViolation::MultiJoin { body_atoms: 3 })
    );
    assert_eq!(report.unsafe_rule_names(), vec!["multi".to_string()]);
}

#[test]
fn multi_join_only_warns_under_rule_partitioning() {
    let report = lint_text(
        &format!("[multi: (?a {P} ?b) (?b {P} ?c) (?c {Q} ?a) -> (?a {R} ?c)]"),
        &LintOptions::for_context(PartitionContext::RulePartitioned),
    );
    assert!(!report.has_deny());
    assert_eq!(report.warn_count(), 1);
    assert!(report.unsafe_rule_names().is_empty());
}

#[test]
fn known_exception_downgrades_to_warning_with_typed_explanation() {
    let mut opts = LintOptions::default();
    opts.known_exceptions.push("multi".to_string());
    let report = lint_text(
        &format!("[multi: (?a {P} ?b) (?b {P} ?c) (?c {Q} ?a) -> (?a {R} ?c)]"),
        &opts,
    );
    assert!(!report.has_deny(), "{report}");
    let d = &report.diagnostics[0];
    assert_eq!(d.code, LintCode::NonSingleJoin);
    assert_eq!(d.severity, Severity::Warn);
    assert_eq!(d.violation, Some(JoinViolation::KnownException));
}

#[test]
fn cross_product_denied_with_typed_explanation() {
    let report = lint_text(
        &format!("[cross: (?a {P} ?b) (?c {Q} ?d) -> (?a {R} ?c)]"),
        &LintOptions::default(),
    );
    let d = report.deny_findings().next().unwrap();
    assert_eq!(d.code, LintCode::CrossProduct);
    assert_eq!(d.violation, Some(JoinViolation::CrossProduct));
    assert_eq!(report.rules[0].join_class, "cross-product");
    assert!(report.rules[0].witness.is_none());
}

#[test]
fn structural_lints_catch_hand_built_rules() {
    // The parser can't produce these; hand-built rules can.
    let empty = Rule::unchecked("fact", atom(c(NodeId(1)), c(NodeId(2)), c(NodeId(3))), vec![], 0);
    let sparse = Rule::unchecked(
        "sparse",
        atom(v(0), c(NodeId(2)), v(5)),
        vec![atom(v(0), c(NodeId(2)), v(5))],
        2,
    );
    let unrestricted = Rule::unchecked(
        "unrestricted",
        atom(v(0), c(NodeId(2)), v(1)),
        vec![atom(v(0), c(NodeId(2)), v(0))],
        2,
    );
    let report = lint_rules(&[empty, sparse, unrestricted], &LintOptions::default());
    let codes: Vec<LintCode> = report.deny_findings().map(|d| d.code).collect();
    assert!(codes.contains(&LintCode::EmptyBody));
    assert!(codes.contains(&LintCode::BrokenVariables));
    assert!(codes.contains(&LintCode::NotRangeRestricted));
}

#[test]
fn dead_rule_detected_against_base_vocabulary() {
    let mut dict = Dictionary::new();
    let rules = parse_rules(
        &format!(
            "[live: (?a {P} ?b) -> (?a {Q} ?b)]\n\
             [dead: (?a {R} ?b) -> (?a {Q} ?b)]"
        ),
        &mut dict,
    )
    .unwrap();
    let p = dict.intern_iri("http://x/p");
    let mut base = FxHashSet::default();
    base.insert(p);
    let opts = LintOptions {
        base_predicates: Some(base),
        ..LintOptions::default()
    };
    let report = lint_rules(&rules, &opts);
    let dead: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == LintCode::DeadRule)
        .collect();
    assert_eq!(dead.len(), 1);
    assert_eq!(dead[0].rule.as_deref(), Some("dead"));
    assert_eq!(dead[0].severity, Severity::Warn);
}

#[test]
fn duplicate_detected_up_to_variable_renaming() {
    let report = lint_text(
        &format!(
            "[one: (?a {P} ?b) -> (?a {Q} ?b)]\n\
             [two: (?x {P} ?y) -> (?x {Q} ?y)]"
        ),
        &LintOptions::default(),
    );
    let dups: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == LintCode::DuplicateRule)
        .collect();
    assert_eq!(dups.len(), 1);
    assert_eq!(dups[0].rule.as_deref(), Some("two"));
    assert!(dups[0].message.contains("'one'"));
}

#[test]
fn subsumed_rule_detected() {
    let report = lint_text(
        &format!(
            "[narrow: (?a {P} ?b) (?a {R} ?b) -> (?a {Q} ?b)]\n\
             [wide: (?a {P} ?b) -> (?a {Q} ?b)]"
        ),
        &LintOptions::default(),
    );
    let subs: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == LintCode::SubsumedRule)
        .collect();
    assert_eq!(subs.len(), 1);
    assert_eq!(subs[0].rule.as_deref(), Some("narrow"));
    assert!(subs[0].message.contains("'wide'"));
}

#[test]
fn mutually_recursive_group_reported_as_allow() {
    let report = lint_text(
        &format!(
            "[pq: (?a {P} ?b) -> (?a {Q} ?b)]\n\
             [qp: (?a {Q} ?b) -> (?a {P} ?b)]"
        ),
        &LintOptions::default(),
    );
    let rec: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == LintCode::RecursiveGroup)
        .collect();
    assert_eq!(rec.len(), 1);
    assert_eq!(rec[0].severity, Severity::Allow);
    assert!(rec[0].message.contains("pq") && rec[0].message.contains("qp"));
    assert_eq!(report.rules[0].scc, report.rules[1].scc);
    assert!(!report.has_deny());
}

#[test]
fn production_weights_come_from_predicate_histogram() {
    let mut dict = Dictionary::new();
    let rules = parse_rules(&format!("[pq: (?a {P} ?b) -> (?a {Q} ?b)]"), &mut dict).unwrap();
    let q = dict.intern_iri("http://x/q");
    let mut hist = FxHashMap::default();
    hist.insert(q, 321usize);
    let opts = LintOptions {
        predicate_counts: Some(hist),
        ..LintOptions::default()
    };
    let report = lint_rules(&rules, &opts);
    assert_eq!(report.rules[0].weight, 321);
}

#[test]
fn suppression_round_trip_from_rule_file_annotation() {
    let mut dict = Dictionary::new();
    let text = format!(
        "[one: (?a {P} ?b) -> (?a {Q} ?b)]\n\
         # lint: allow(OWL007)\n\
         [two: (?x {P} ?y) -> (?x {Q} ?y)]"
    );
    let parsed = parse_rules_annotated(&text, &mut dict).unwrap();
    assert_eq!(parsed[1].suppress, vec!["OWL007".to_string()]);
    let report = lint_parsed(&parsed, LintOptions::default());
    let dup = report
        .diagnostics
        .iter()
        .find(|d| d.code == LintCode::DuplicateRule)
        .unwrap();
    assert!(dup.suppressed);
    assert_eq!(dup.severity, Severity::Allow);
    assert_eq!(report.warn_count(), 0);
    assert!(!report.has_deny());
}

#[test]
fn unknown_suppression_code_reports_owl010() {
    let opts = LintOptions {
        suppressions: vec![vec!["OWL999".to_string()]],
        ..LintOptions::default()
    };
    let report = lint_text(&format!("[pq: (?a {P} ?b) -> (?a {Q} ?b)]"), &opts);
    let bad = report
        .diagnostics
        .iter()
        .find(|d| d.code == LintCode::BadSuppression)
        .unwrap();
    assert!(bad.message.contains("OWL999"));
}

#[test]
fn deny_level_codes_cannot_be_suppressed() {
    let opts = LintOptions {
        suppressions: vec![vec!["OWL001".to_string()]],
        ..LintOptions::default()
    };
    let report = lint_text(
        &format!("[multi: (?a {P} ?b) (?b {P} ?c) (?c {Q} ?a) -> (?a {R} ?c)]"),
        &opts,
    );
    // The deny finding survives AND the suppression attempt is flagged.
    assert!(report.has_deny());
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.code == LintCode::BadSuppression));
}

#[test]
fn json_rendering_has_stable_shape() {
    let report = lint_text(
        &format!("[multi: (?a {P} ?b) (?b {P} ?c) (?c {Q} ?a) -> (?a {R} ?c)]"),
        &LintOptions::default(),
    );
    let json = report.to_json().to_string();
    assert!(json.contains("\"code\":\"OWL001\""), "{json}");
    assert!(json.contains("\"severity\":\"deny\""), "{json}");
    assert!(json.contains("\"violation\":\"multi-join\""), "{json}");
    assert!(json.contains("\"context\":\"data-partitioned\""), "{json}");
    assert!(json.contains("\"ok\":false"), "{json}");
}

#[test]
fn human_rendering_names_rule_and_code() {
    let report = lint_text(
        &format!("[multi: (?a {P} ?b) (?b {P} ?c) (?c {Q} ?a) -> (?a {R} ?c)]"),
        &LintOptions::default(),
    );
    let text = report.render_human();
    assert!(text.contains("OWL001"), "{text}");
    assert!(text.contains("[multi]"), "{text}");
    assert!(text.contains("verdict: DENY"), "{text}");
}

#[test]
fn join_on_a_class_or_predicate_is_denied_under_data_partitioning_only() {
    const TYPE: &str = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>";
    let text = format!(
        "[same_class: (?x {TYPE} ?c) (?y {TYPE} ?c) -> (?x {P} ?y)]\n\
         [promote_all: (?p {Q} ?q) (?x ?p ?y) -> (?x ?q ?y)]\n\
         [typed: (?x {TYPE} ?c) (?x {P} ?y) -> (?y {R} ?c)]"
    );
    let mut dict = Dictionary::new();
    let parsed = parse_rules_annotated(&text, &mut dict).unwrap();
    let rdf_type = dict.id(&owlpar_rdf::Term::iri(
        "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
    ));
    assert!(rdf_type.is_some());
    let opts = |context| LintOptions {
        rdf_type,
        ..LintOptions::for_context(context)
    };
    let report = lint_parsed(&parsed, opts(PartitionContext::DataPartitioned));
    let owl018: Vec<(&str, &str)> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == LintCode::UnownedJoin)
        .map(|d| (d.rule.as_deref().unwrap(), d.witness.as_deref().unwrap()))
        .collect();
    assert_eq!(owl018, [("same_class", "?c"), ("promote_all", "?p")]);
    assert_eq!(report.unsafe_rule_names(), ["same_class", "promote_all"]);
    assert_eq!(LintCode::UnownedJoin.id(), "OWL018");
    // rule partitioning ships every worker the whole base: a warning
    let report = lint_parsed(&parsed, opts(PartitionContext::RulePartitioned));
    assert!(!report.has_deny(), "{report}");
    assert_eq!(
        report
            .diagnostics
            .iter()
            .filter(|d| d.code == LintCode::UnownedJoin && d.severity == Severity::Warn)
            .count(),
        2
    );
}
