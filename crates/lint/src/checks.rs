//! The analyses behind [`lint_rules`](crate::lint_rules).

use crate::{
    Diagnostic, JoinViolation, LintCode, LintOptions, LintReport, RuleSummary, Severity,
};
use owlpar_datalog::analysis::{classify, sccs, weighted_dependency_graph, JoinClass, JoinMask};
use owlpar_datalog::ast::{Atom, TermPat};
use owlpar_datalog::Rule;
use owlpar_rdf::fx::FxHashMap;

/// Renumber a rule's variables in first-occurrence order (head first,
/// then body atoms in the order given) so structurally identical rules
/// compare equal regardless of how their authors numbered variables.
struct Canon {
    map: FxHashMap<u16, u16>,
    next: u16,
}

impl Canon {
    fn new() -> Self {
        Canon {
            map: FxHashMap::default(),
            next: 0,
        }
    }

    fn term(&mut self, tp: TermPat) -> TermPat {
        match tp {
            TermPat::Var(v) => {
                let next = &mut self.next;
                let id = *self.map.entry(v).or_insert_with(|| {
                    let n = *next;
                    *next += 1;
                    n
                });
                TermPat::Var(id)
            }
            c @ TermPat::Const(_) => c,
        }
    }

    fn atom(&mut self, a: &Atom) -> Atom {
        Atom::new(self.term(a.s), self.term(a.p), self.term(a.o))
    }
}

fn canonicalize(rule: &Rule) -> (Atom, Vec<Atom>) {
    let mut c = Canon::new();
    let head = c.atom(&rule.head);
    let body = rule.body.iter().map(|a| c.atom(a)).collect();
    (head, body)
}

/// Render a variable for diagnostics: its source name when the parser
/// captured one, `?v{i}` otherwise (the normalized form `Display` uses).
fn var_label(opts: &LintOptions, rule_index: usize, var: u16) -> String {
    opts.var_names
        .get(rule_index)
        .and_then(|names| names.get(var as usize))
        .filter(|n| !n.is_empty())
        .map(|n| format!("?{n}"))
        .unwrap_or_else(|| format!("?v{var}"))
}

pub(crate) fn run(rules: &[Rule], opts: &LintOptions) -> LintReport {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let push = |code: LintCode,
                    severity: Severity,
                    rule: Option<(usize, &str)>,
                    message: String,
                    violation: Option<JoinViolation>,
                    diags: &mut Vec<Diagnostic>| {
        let witness = violation.as_ref().map(|v| v.label().to_string());
        diags.push(Diagnostic {
            code,
            severity,
            rule: rule.map(|(_, n)| n.to_string()),
            rule_index: rule.map(|(i, _)| i),
            message,
            violation,
            witness,
            suppressed: false,
        });
    };

    // Dependency graph, SCCs and production weights (shared by several
    // checks and by the per-rule summary).
    let empty_hist = FxHashMap::default();
    let hist = opts.predicate_counts.as_ref().unwrap_or(&empty_hist);
    let graph = weighted_dependency_graph(rules, hist, 1);
    let comp = sccs(&graph);

    let mut summaries = Vec::with_capacity(rules.len());
    for (i, rule) in rules.iter().enumerate() {
        let at = Some((i, rule.name.as_str()));
        let class = classify(rule);

        // --- structural checks (lifted from the ad-hoc `Rule::new`
        // validation into reported diagnostics; `Rule`'s fields are
        // public, so hand-built rules can violate any of these) ---
        if rule.body.is_empty() {
            push(
                LintCode::EmptyBody,
                LintCode::EmptyBody.default_severity(opts.context),
                at,
                "rule has an empty body; ground facts belong in the data, not the rule-base"
                    .to_string(),
                None,
                &mut diags,
            );
        }
        let mut vars: Vec<u16> = rule
            .body
            .iter()
            .chain(std::iter::once(&rule.head))
            .flat_map(|a| a.variables())
            .collect();
        vars.sort_unstable();
        vars.dedup();
        let dense = vars.iter().enumerate().all(|(n, v)| *v as usize == n);
        if !dense || vars.len() != rule.var_count as usize {
            push(
                LintCode::BrokenVariables,
                LintCode::BrokenVariables.default_severity(opts.context),
                at,
                format!(
                    "variable bookkeeping broken: {} distinct variable(s) ({}dense), var_count = {}",
                    vars.len(),
                    if dense { "" } else { "non-" },
                    rule.var_count
                ),
                None,
                &mut diags,
            );
        }
        let body_vars: Vec<u16> = {
            let mut vs: Vec<u16> = rule.body.iter().flat_map(|a| a.variables()).collect();
            vs.sort_unstable();
            vs.dedup();
            vs
        };
        let unbound: Vec<String> = rule
            .head
            .variables()
            .into_iter()
            .filter(|v| !body_vars.contains(v))
            .map(|v| var_label(opts, i, v))
            .collect();
        if !unbound.is_empty() && !rule.body.is_empty() {
            push(
                LintCode::NotRangeRestricted,
                LintCode::NotRangeRestricted.default_severity(opts.context),
                at,
                format!(
                    "head variable(s) {} never occur in the body (rule is not range-restricted)",
                    unbound.join(", ")
                ),
                None,
                &mut diags,
            );
        }

        // --- partition-safety proof ---
        let known_exception = opts.known_exceptions.iter().any(|n| n == &rule.name);
        match &class {
            JoinClass::CrossProduct => {
                let (severity, violation) = if known_exception {
                    (Severity::Warn, JoinViolation::KnownException)
                } else {
                    (
                        LintCode::CrossProduct.default_severity(opts.context),
                        JoinViolation::CrossProduct,
                    )
                };
                push(
                    LintCode::CrossProduct,
                    severity,
                    at,
                    format!(
                        "body atoms share no variable (cross product): the operands can live on \
                         different owners, so the join is not locally evaluable under data \
                         partitioning{}",
                        if known_exception {
                            " — accepted as a known exception; its inputs must be replicated"
                        } else {
                            ""
                        }
                    ),
                    Some(violation),
                    &mut diags,
                );
            }
            JoinClass::MultiJoin => {
                let (severity, violation) = if known_exception {
                    (Severity::Warn, JoinViolation::KnownException)
                } else {
                    (
                        LintCode::NonSingleJoin.default_severity(opts.context),
                        JoinViolation::MultiJoin {
                            body_atoms: rule.body.len(),
                        },
                    )
                };
                push(
                    LintCode::NonSingleJoin,
                    severity,
                    at,
                    format!(
                        "body has {} atoms (single-join allows at most 2): intermediate join \
                         results are not anchored to any single owner, so a distributed run can \
                         silently miss derivations{}",
                        rule.body.len(),
                        if known_exception {
                            " — accepted as a known exception; its inputs must be replicated"
                        } else {
                            ""
                        }
                    ),
                    Some(violation),
                    &mut diags,
                );
            }
            JoinClass::EmptyBody | JoinClass::SingleAtom | JoinClass::SingleJoin { .. } => {}
        }

        // --- per-rule summary: witness + weight + SCC ---
        let witness = match &class {
            JoinClass::SingleJoin { join_vars } => Some(
                join_vars
                    .iter()
                    .map(|v| var_label(opts, i, *v))
                    .collect::<Vec<_>>()
                    .join(", "),
            ),
            _ => None,
        };
        let weight = match rule.head.p {
            TermPat::Const(p) => hist.get(&p).map(|&c| (c as u64).max(1)).unwrap_or(1),
            TermPat::Var(_) => 1,
        };
        summaries.push(RuleSummary {
            name: rule.name.clone(),
            join_class: crate::join_class_label(&class).to_string(),
            witness,
            weight,
            scc: comp[i],
        });
    }

    // --- single-join rules joining where no owner stands ---
    for (i, var) in JoinMask::unowned_joins(rules, opts.rdf_type) {
        let rule = &rules[i];
        if !matches!(classify(rule), JoinClass::SingleJoin { .. }) {
            continue; // OWL001 already refuses a wider body
        }
        let label = var_label(opts, i, var);
        diags.push(Diagnostic {
            code: LintCode::UnownedJoin,
            severity: LintCode::UnownedJoin.default_severity(opts.context),
            rule: Some(rule.name.clone()),
            rule_index: Some(i),
            message: format!(
                "join variable {label} sits at a predicate or rdf:type-class position, which \
                 no partition owns: the two body triples are placed and routed without regard \
                 to it, so a data-partitioned run can silently miss derivations"
            ),
            violation: None,
            witness: Some(label),
            suppressed: false,
        });
    }

    // --- dead-rule detection (needs to know the base vocabulary) ---
    if let Some(base) = &opts.base_predicates {
        for (i, rule) in rules.iter().enumerate() {
            let dead_atom = rule.body.iter().find(|atom| {
                let TermPat::Const(p) = atom.p else {
                    return false; // variable predicate matches anything
                };
                let derivable = rules.iter().any(|r| r.head.may_unify(atom));
                !derivable && !base.contains(&p)
            });
            if let Some(atom) = dead_atom {
                let TermPat::Const(p) = atom.p else {
                    continue;
                };
                push(
                    LintCode::DeadRule,
                    LintCode::DeadRule.default_severity(opts.context),
                    Some((i, rule.name.as_str())),
                    format!(
                        "body predicate {p} is neither derivable by any rule head nor present \
                         in the base data: the rule can never fire"
                    ),
                    None,
                    &mut diags,
                );
            }
        }
    }

    // --- duplicate / subsumed rules ---
    let canon: Vec<(Atom, Vec<Atom>)> = rules.iter().map(canonicalize).collect();
    let mut first_of: FxHashMap<&(Atom, Vec<Atom>), usize> = FxHashMap::default();
    let mut duplicate = vec![false; rules.len()];
    for (i, key) in canon.iter().enumerate() {
        if let Some(&first) = first_of.get(key) {
            duplicate[i] = true;
            push(
                LintCode::DuplicateRule,
                LintCode::DuplicateRule.default_severity(opts.context),
                Some((i, rules[i].name.as_str())),
                format!(
                    "structurally identical to rule '{}' (same head and body up to variable \
                     renaming)",
                    rules[first].name
                ),
                None,
                &mut diags,
            );
        } else {
            first_of.insert(key, i);
        }
    }
    for i in 0..rules.len() {
        for j in 0..rules.len() {
            if i == j || duplicate[i] || duplicate[j] {
                continue;
            }
            // i subsumes j: same head, i's body a strict subset of j's.
            if canon[i].0 == canon[j].0
                && canon[i].1.len() < canon[j].1.len()
                && canon[i].1.iter().all(|a| canon[j].1.contains(a))
            {
                push(
                    LintCode::SubsumedRule,
                    LintCode::SubsumedRule.default_severity(opts.context),
                    Some((j, rules[j].name.as_str())),
                    format!(
                        "rule '{}' has the same head and a subset of this body, so it fires \
                         whenever this rule would: this rule is redundant",
                        rules[i].name
                    ),
                    None,
                    &mut diags,
                );
            }
        }
    }

    // --- mutually recursive groups (informational) ---
    let mut groups: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
    for (i, &c) in comp.iter().enumerate() {
        groups.entry(c).or_default().push(i);
    }
    let mut group_ids: Vec<usize> = groups.keys().copied().collect();
    group_ids.sort_unstable();
    for c in group_ids {
        let members = &groups[&c];
        if members.len() >= 2 {
            let names: Vec<&str> = members.iter().map(|&i| rules[i].name.as_str()).collect();
            push(
                LintCode::RecursiveGroup,
                LintCode::RecursiveGroup.default_severity(opts.context),
                None,
                format!(
                    "rules {{{}}} are mutually recursive (dependency SCC #{c}); they reach their \
                     fixpoint together and should stay in one rule partition",
                    names.join(", ")
                ),
                None,
                &mut diags,
            );
        }
    }

    // --- apply suppressions ---
    apply_suppressions(rules, opts, &mut diags);

    // Stable order: per-rule findings first (by rule, then code), then
    // rule-base-wide ones.
    diags.sort_by_key(|d| (d.rule_index.unwrap_or(usize::MAX), d.code.id()));

    LintReport {
        context: opts.context,
        rules: summaries,
        diagnostics: diags,
    }
}

fn apply_suppressions(rules: &[Rule], opts: &LintOptions, diags: &mut Vec<Diagnostic>) {
    let mut extra: Vec<Diagnostic> = Vec::new();
    for (i, codes) in opts.suppressions.iter().enumerate() {
        let rule_name = rules.get(i).map(|r| r.name.clone());
        for code_str in codes {
            let Some(code) = LintCode::from_id(code_str) else {
                extra.push(Diagnostic {
                    code: LintCode::BadSuppression,
                    severity: LintCode::BadSuppression.default_severity(opts.context),
                    rule: rule_name.clone(),
                    rule_index: Some(i),
                    message: format!("suppression names unknown lint code '{code_str}'"),
                    violation: None,
                    witness: Some(code_str.clone()),
                    suppressed: false,
                });
                continue;
            };
            // Deny-level codes are correctness findings: a rule-file
            // comment must not be able to wave them through.
            if code.default_severity(opts.context) == Severity::Deny {
                extra.push(Diagnostic {
                    code: LintCode::BadSuppression,
                    severity: LintCode::BadSuppression.default_severity(opts.context),
                    rule: rule_name.clone(),
                    rule_index: Some(i),
                    message: format!(
                        "{} ({}) is deny-level under the {} context and cannot be suppressed",
                        code.id(),
                        code.title(),
                        opts.context.label()
                    ),
                    violation: None,
                    witness: Some(code.id().to_string()),
                    suppressed: false,
                });
                continue;
            }
            for d in diags.iter_mut() {
                if d.rule_index == Some(i) && d.code == code {
                    d.suppressed = true;
                    d.severity = Severity::Allow;
                }
            }
        }
    }
    diags.extend(extra);
}
