//! `owlpar-lint` — static rule-base verification.
//!
//! The paper's data-partitioning correctness argument (§II, Algorithm 1)
//! rests on a *static* property of the rule-base: every rule is
//! **single-join**, so if both endpoints of every triple mentioning a
//! resource live on that resource's owner, every join is locally
//! evaluable. A rule-base violating the property silently produces an
//! *incomplete* closure in a distributed run — exactly the class of bug a
//! static check proves away at load time.
//!
//! This crate runs a battery of static analyses over any rule-base
//! (compiled from an ontology or parsed from a rule file) and emits
//! structured [`Diagnostic`]s with stable lint codes, severities
//! ([`Severity::Deny`] / [`Severity::Warn`] / [`Severity::Allow`]),
//! human and JSON renderers, and per-rule suppressions parsed from
//! rule-file annotations (`# lint: allow(OWL007)`).
//!
//! | code | check | default severity |
//! |--------|--------------------------------------------|------------------|
//! | OWL001 | non-single-join rule (≥3 body atoms)       | deny under data partitioning, warn otherwise |
//! | OWL002 | cross-product body (2 atoms, no shared var)| deny under data partitioning, warn otherwise |
//! | OWL003 | dead rule (body never derivable nor in base vocabulary) | warn |
//! | OWL004 | head variable unbound in body (not range-restricted) | deny |
//! | OWL005 | empty rule body                            | deny |
//! | OWL006 | variable bookkeeping broken (sparse indices / wrong `var_count`) | deny |
//! | OWL007 | duplicate rule                             | warn |
//! | OWL008 | subsumed rule                              | warn |
//! | OWL009 | mutually recursive rule group (SCC ≥ 2)    | allow (informational) |
//! | OWL010 | bad suppression (unknown code, or deny-level target) | warn |
//! | OWL018 | single-join rule joining on a position no owner stands behind (a predicate, an `rdf:type` class) | deny under data partitioning, warn otherwise |
//!
//! The **plan-analysis pass** ([`analyze_plan`]) extends the battery
//! with pre-run cost/skew prediction over a concrete partition plan
//! (worker count, per-worker base sizes, routing strategy):
//!
//! | code | check | default severity |
//! |--------|--------------------------------------------|------------------|
//! | OWL011 | one worker owns > 80% of the estimated firing load | deny |
//! | OWL012 | max worker load > 2× the mean (moderate skew) | warn |
//! | OWL013 | a rule's cross-partition exchange estimate exceeds the whole base | deny |
//! | OWL014 | a rule's exchange estimate exceeds a quarter of the base | warn |
//! | OWL015 | idle workers (zero estimated load); deny when a majority idles | warn |
//! | OWL016 | recursive rule with cross-partition exchange (round count data-dependent) | allow (informational) |
//! | OWL017 | measured round skew exceeds predicted (traced runs, [`check_skew_tolerance`]) | warn |
//!
//! Deny-level findings are correctness findings: the master refuses to
//! spawn workers over such a rule-base (or falls back to full data
//! replication when configured to). They can *not* be suppressed.
//! Plan-level deny findings (OWL011/OWL013, escalated OWL015) are
//! likewise non-overridable: under `--strategy auto` the master only
//! runs a deny-free plan.

#![forbid(unsafe_code)]

mod checks;
mod plan;
mod render;

pub use plan::{
    analyze_plan, check_skew_tolerance, render_comparison, PlanInputs, PlanReport, RoundBound,
    RouteModel, RuleTraffic, WireCostModel, WorkerLoad,
};

use owlpar_datalog::analysis::JoinClass;
use owlpar_datalog::ParsedRule;
use owlpar_datalog::Rule;
use owlpar_rdf::fx::{FxHashMap, FxHashSet};
use owlpar_rdf::NodeId;

/// How the rule-base will be deployed — decides whether a non-local join
/// is a correctness problem or merely a locality concern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionContext {
    /// Algorithm 1: instance data is split by resource ownership and each
    /// worker sees only its shard. Non-single-join rules are **unsound**
    /// here (a derivation could need triples from two shards at once).
    #[default]
    DataPartitioned,
    /// Algorithm 2: the rule-base is split but every worker holds the
    /// complete data, so any join shape is evaluable — non-single-join
    /// rules are only a locality/cost warning.
    RulePartitioned,
    /// Serial or fully replicated evaluation; same as rule partitioning
    /// for safety purposes.
    Replicated,
}

impl PartitionContext {
    /// Stable label used by both renderers.
    pub fn label(self) -> &'static str {
        match self {
            PartitionContext::DataPartitioned => "data-partitioned",
            PartitionContext::RulePartitioned => "rule-partitioned",
            PartitionContext::Replicated => "replicated",
        }
    }
}

/// Diagnostic severity, ordered `Allow < Warn < Deny`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: reported, never fails a run.
    Allow,
    /// Suspicious but safe: reported, fails only opt-in strict gates.
    Warn,
    /// Correctness violation: the master refuses the rule-base.
    Deny,
}

impl Severity {
    /// Stable label used by both renderers.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// Every lint this crate can emit. The discriminant order matches the
/// `OWLxxx` code numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// OWL001 — ≥3 body atoms: not evaluable under data partitioning.
    NonSingleJoin,
    /// OWL002 — two body atoms sharing no variable (cross product).
    CrossProduct,
    /// OWL003 — a body atom no rule head can derive and whose predicate
    /// is absent from the base vocabulary: the rule can never fire.
    DeadRule,
    /// OWL004 — head variable that never occurs in the body.
    NotRangeRestricted,
    /// OWL005 — empty body.
    EmptyBody,
    /// OWL006 — sparse variable indices or a wrong `var_count`.
    BrokenVariables,
    /// OWL007 — structurally identical to an earlier rule.
    DuplicateRule,
    /// OWL008 — an earlier rule with the same head and a subset of this
    /// body fires whenever this rule would.
    SubsumedRule,
    /// OWL009 — the rule sits in a mutually recursive group (SCC ≥ 2).
    RecursiveGroup,
    /// OWL010 — a suppression annotation that names an unknown code or a
    /// deny-level (non-suppressible) one.
    BadSuppression,
    /// OWL011 — one worker owns more than 80% of the estimated
    /// rule-firing load: the "parallel" run degenerates to serial plus
    /// exchange overhead.
    LoadImbalance,
    /// OWL012 — the most loaded worker carries more than twice the mean
    /// estimated load (moderate skew).
    LoadSkew,
    /// OWL013 — a single rule's cross-partition exchange estimate
    /// exceeds the whole instance base: the plan ships more than it
    /// stores, so partitioning costs more than replication.
    ExchangeExceedsBase,
    /// OWL014 — a rule's exchange estimate exceeds a quarter of the
    /// instance base (heavy but not pathological traffic).
    HeavyExchange,
    /// OWL015 — workers with zero estimated load (no rules to fire, or
    /// an empty base share); deny when a majority of the cluster idles.
    IdleWorkers,
    /// OWL016 — a recursive rule (SCC with a cycle) ships derivations
    /// cross-partition: the round count is bounded only by derivation
    /// depth, not by the rule-dependency condensation.
    RecursiveExchange,
    /// OWL017 — a traced run measured worse per-round skew than the
    /// analyzer predicted (beyond tolerance): the static load model is
    /// underestimating the straggler, so the plan's speedup projection
    /// is optimistic.
    SkewExceedsPredicted,
    /// OWL018 — a single-join rule whose join variable sits at a
    /// position data partitioning never owns: a predicate, or the class
    /// of an `rdf:type` atom. Its two body triples are placed and routed
    /// without regard to that value, so they need not meet.
    UnownedJoin,
}

/// All codes, in `OWLxxx` order (used by renderers and `from_id`).
pub const ALL_CODES: [LintCode; 18] = [
    LintCode::NonSingleJoin,
    LintCode::CrossProduct,
    LintCode::DeadRule,
    LintCode::NotRangeRestricted,
    LintCode::EmptyBody,
    LintCode::BrokenVariables,
    LintCode::DuplicateRule,
    LintCode::SubsumedRule,
    LintCode::RecursiveGroup,
    LintCode::BadSuppression,
    LintCode::LoadImbalance,
    LintCode::LoadSkew,
    LintCode::ExchangeExceedsBase,
    LintCode::HeavyExchange,
    LintCode::IdleWorkers,
    LintCode::RecursiveExchange,
    LintCode::SkewExceedsPredicted,
    LintCode::UnownedJoin,
];

impl LintCode {
    /// The stable `OWLxxx` identifier.
    pub fn id(self) -> &'static str {
        match self {
            LintCode::NonSingleJoin => "OWL001",
            LintCode::CrossProduct => "OWL002",
            LintCode::DeadRule => "OWL003",
            LintCode::NotRangeRestricted => "OWL004",
            LintCode::EmptyBody => "OWL005",
            LintCode::BrokenVariables => "OWL006",
            LintCode::DuplicateRule => "OWL007",
            LintCode::SubsumedRule => "OWL008",
            LintCode::RecursiveGroup => "OWL009",
            LintCode::BadSuppression => "OWL010",
            LintCode::LoadImbalance => "OWL011",
            LintCode::LoadSkew => "OWL012",
            LintCode::ExchangeExceedsBase => "OWL013",
            LintCode::HeavyExchange => "OWL014",
            LintCode::IdleWorkers => "OWL015",
            LintCode::RecursiveExchange => "OWL016",
            LintCode::SkewExceedsPredicted => "OWL017",
            LintCode::UnownedJoin => "OWL018",
        }
    }

    /// Short human title for the code table.
    pub fn title(self) -> &'static str {
        match self {
            LintCode::NonSingleJoin => "non-single-join rule",
            LintCode::CrossProduct => "cross-product rule body",
            LintCode::DeadRule => "dead rule",
            LintCode::NotRangeRestricted => "head variable unbound in body",
            LintCode::EmptyBody => "empty rule body",
            LintCode::BrokenVariables => "broken variable bookkeeping",
            LintCode::DuplicateRule => "duplicate rule",
            LintCode::SubsumedRule => "subsumed rule",
            LintCode::RecursiveGroup => "mutually recursive rule group",
            LintCode::BadSuppression => "bad lint suppression",
            LintCode::LoadImbalance => "severe worker load imbalance",
            LintCode::LoadSkew => "moderate worker load skew",
            LintCode::HeavyExchange => "heavy cross-partition exchange",
            LintCode::ExchangeExceedsBase => "exchange estimate exceeds the base",
            LintCode::IdleWorkers => "idle workers in the plan",
            LintCode::RecursiveExchange => "recursive cross-partition exchange",
            LintCode::SkewExceedsPredicted => "measured round skew exceeds predicted",
            LintCode::UnownedJoin => "join on a position no owner stands behind",
        }
    }

    /// Resolve a `OWLxxx` identifier (as written in an annotation).
    pub fn from_id(id: &str) -> Option<Self> {
        ALL_CODES.into_iter().find(|c| c.id() == id)
    }

    /// Default severity of this code under a deployment context.
    pub fn default_severity(self, context: PartitionContext) -> Severity {
        match self {
            LintCode::NonSingleJoin | LintCode::CrossProduct | LintCode::UnownedJoin => {
                match context {
                    PartitionContext::DataPartitioned => Severity::Deny,
                    PartitionContext::RulePartitioned | PartitionContext::Replicated => {
                        Severity::Warn
                    }
                }
            }
            LintCode::NotRangeRestricted | LintCode::EmptyBody | LintCode::BrokenVariables => {
                Severity::Deny
            }
            LintCode::DeadRule
            | LintCode::DuplicateRule
            | LintCode::SubsumedRule
            | LintCode::BadSuppression => Severity::Warn,
            LintCode::RecursiveGroup => Severity::Allow,
            // Plan-analysis codes: severity is plan-shape-dependent, not
            // deployment-context-dependent (see `plan::analyze_plan`;
            // OWL015 escalates to deny when a majority of workers idle).
            LintCode::LoadImbalance | LintCode::ExchangeExceedsBase => Severity::Deny,
            LintCode::LoadSkew | LintCode::HeavyExchange | LintCode::IdleWorkers => Severity::Warn,
            LintCode::RecursiveExchange => Severity::Allow,
            // Measured-vs-predicted comparison (fed by a traced run's
            // telemetry, `plan::check_skew_tolerance`): the run already
            // happened, so this can only ever advise.
            LintCode::SkewExceedsPredicted => Severity::Warn,
        }
    }
}

/// Typed explanation of a partition-safety violation (OWL001/OWL002).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinViolation {
    /// Two body atoms share no variable: the join degenerates into a
    /// cross product, whose operands can live on different owners.
    CrossProduct,
    /// Three or more body atoms: the intermediate join result is not
    /// anchored to any single resource's owner.
    MultiJoin {
        /// Number of body atoms.
        body_atoms: usize,
    },
    /// The paper's known exception: a rule the operator vouches for by
    /// name (§II keeps exactly one OWL-Horst rule outside the single-join
    /// class). Downgraded to a warning; the runtime must replicate the
    /// triples this rule consumes.
    KnownException,
}

impl JoinViolation {
    /// Stable label used by both renderers.
    pub fn label(&self) -> &'static str {
        match self {
            JoinViolation::CrossProduct => "cross-product",
            JoinViolation::MultiJoin { .. } => "multi-join",
            JoinViolation::KnownException => "known-exception",
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: LintCode,
    /// Effective severity (after context mapping and suppression).
    pub severity: Severity,
    /// Name of the offending rule, when the finding is per-rule.
    pub rule: Option<String>,
    /// Index of the offending rule in the linted slice.
    pub rule_index: Option<usize>,
    /// Human message.
    pub message: String,
    /// Typed partition-safety explanation (OWL001/OWL002 only).
    pub violation: Option<JoinViolation>,
    /// The concrete evidence the finding rests on — a join witness for
    /// safety lints, a measured share/estimate for plan lints (e.g.
    /// `"worker 0 owns 92.3% of the estimated load"`). Shared between
    /// `owlpar lint --json` and `owlpar plan --json`.
    pub witness: Option<String>,
    /// True when a rule-file annotation suppressed this finding; the
    /// severity is then [`Severity::Allow`] regardless of the default.
    pub suppressed: bool,
}

/// Per-rule summary: the proof artifact for the partition-safety pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSummary {
    /// Rule name.
    pub name: String,
    /// Join classification label: `empty-body`, `single-atom`,
    /// `single-join`, `cross-product` or `multi-join`.
    pub join_class: String,
    /// The **locality witness** for a single-join rule: the join
    /// variable(s) whose binding anchors both body atoms to one owner.
    /// `Some` exactly when `join_class == "single-join"`.
    pub witness: Option<String>,
    /// Estimated triple production of this rule (head-predicate count
    /// from the dataset histogram, 1 when unknown) — the weight rule
    /// partitioning assigns to this rule's outgoing dependency edges.
    pub weight: u64,
    /// Strongly-connected component id in the rule-dependency graph.
    pub scc: usize,
}

/// Everything the linter needs besides the rules themselves.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Deployment context the severity mapping is checked against.
    pub context: PartitionContext,
    /// Rule names accepted as the paper's known exception: their
    /// OWL001/OWL002 findings downgrade to warnings with a
    /// [`JoinViolation::KnownException`] explanation.
    pub known_exceptions: Vec<String>,
    /// Dataset predicate histogram for production-estimate weights.
    pub predicate_counts: Option<FxHashMap<NodeId, usize>>,
    /// The KB's id for `rdf:type`, whose objects (classes) data
    /// partitioning never owns. Enables OWL018's class-object half;
    /// `None` checks only predicate-position joins.
    pub rdf_type: Option<NodeId>,
    /// Predicates present in the base (asserted) data. Enables the
    /// dead-rule check; `None` disables it (a rule file alone cannot
    /// know what data it will meet).
    pub base_predicates: Option<FxHashSet<NodeId>>,
    /// Per-rule suppressed codes, parallel to the rule slice (shorter is
    /// fine — missing entries mean no suppressions).
    pub suppressions: Vec<Vec<String>>,
    /// Per-rule source variable names for witness rendering, parallel to
    /// the rule slice. Rules without names render variables as `?v{i}`.
    pub var_names: Vec<Vec<String>>,
}

impl LintOptions {
    /// Options for a given context, everything else defaulted.
    pub fn for_context(context: PartitionContext) -> Self {
        LintOptions {
            context,
            ..LintOptions::default()
        }
    }

    /// Carry the annotations of a parsed rule file (suppressions and
    /// source variable names) into the options.
    pub fn with_parsed(mut self, parsed: &[ParsedRule]) -> Self {
        self.suppressions = parsed.iter().map(|p| p.suppress.clone()).collect();
        self.var_names = parsed.iter().map(|p| p.var_names.clone()).collect();
        self
    }
}

/// The result of linting one rule-base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// Context the severities were mapped against.
    pub context: PartitionContext,
    /// Per-rule partition-safety summary (witnesses, weights, SCCs).
    pub rules: Vec<RuleSummary>,
    /// All findings, in rule order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Findings at deny severity (suppressed findings never count —
    /// deny-level codes are not suppressible in the first place).
    pub fn deny_findings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
    }

    /// Number of deny findings.
    pub fn deny_count(&self) -> usize {
        self.deny_findings().count()
    }

    /// Number of warn findings (unsuppressed).
    pub fn warn_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// Does the rule-base fail the gate?
    pub fn has_deny(&self) -> bool {
        self.deny_count() > 0
    }

    /// Names of rules with a deny-level partition-safety finding —
    /// the drop-in replacement for the old `verify_single_join`.
    pub fn unsafe_rule_names(&self) -> Vec<String> {
        self.diagnostics
            .iter()
            .filter(|d| {
                matches!(
                    d.code,
                    LintCode::NonSingleJoin | LintCode::CrossProduct | LintCode::UnownedJoin
                ) && d.severity == Severity::Deny
            })
            .filter_map(|d| d.rule.clone())
            .collect()
    }

    /// JSON rendering (stable shape; see DESIGN.md §10).
    pub fn to_json(&self) -> owlpar_obs::json::Value {
        render::to_json(self)
    }

    /// Human rendering, one line per finding.
    pub fn render_human(&self) -> String {
        render::render_human(self)
    }
}

impl std::fmt::Display for LintReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render_human())
    }
}

/// Run every analysis over `rules` and collect the report.
pub fn lint_rules(rules: &[Rule], opts: &LintOptions) -> LintReport {
    checks::run(rules, opts)
}

/// Convenience: lint the output of [`parse_rules_annotated`]
/// (suppressions and variable names wired through).
///
/// [`parse_rules_annotated`]: owlpar_datalog::parse_rules_annotated
pub fn lint_parsed(parsed: &[ParsedRule], opts: LintOptions) -> LintReport {
    let rules: Vec<Rule> = parsed.iter().map(|p| p.rule.clone()).collect();
    let opts = opts.with_parsed(parsed);
    lint_rules(&rules, &opts)
}

pub(crate) fn join_class_label(class: &JoinClass) -> &'static str {
    match class {
        JoinClass::EmptyBody => "empty-body",
        JoinClass::SingleAtom => "single-atom",
        JoinClass::SingleJoin { .. } => "single-join",
        JoinClass::CrossProduct => "cross-product",
        JoinClass::MultiJoin => "multi-join",
    }
}
