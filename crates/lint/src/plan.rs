//! Plan analysis — pre-run cost/skew prediction over a partition plan.
//!
//! WawPart-style workload-aware reasoning: given the rule-base, the
//! dataset's predicate histogram (or better per-rule firing estimates),
//! the worker count and a routing strategy, predict — **before any
//! worker exists** — per-worker firing load, per-rule cross-partition
//! traffic (triples and wire bytes), and round-count bounds from the
//! rule-dependency SCC condensation. Pathological plans surface as
//! deny-level diagnostics (OWL011, OWL013, escalated OWL015) that the
//! master treats exactly like partition-safety denials: refuse before
//! shipping a byte.
//!
//! ## Cost model
//!
//! Everything is estimated in **triples**, then converted to wire bytes
//! with [`WireCostModel`] (mirroring the cluster's wire accounting:
//! 8 B frame overhead, measured delta/varint round encoding).
//!
//! * a rule's *production estimate* `w_r` is the caller's per-rule
//!   firing estimate when given (`PlanInputs::productions`, typically
//!   the smallest body-atom match count against the actual base), else
//!   the dataset count of the head predicate (the same weight rule
//!   partitioning uses), else 1;
//! * *data routing* ships a derived triple to the owners of its subject
//!   and object when remote: expected remote destinations =
//!   `instance endpoints × cross_fraction`, where `cross_fraction` is
//!   the caller's boundary estimate (ownership replication excess for
//!   graph partitions, `(k−1)/k` for hash ownership);
//! * *rule routing* is exact statically: a triple produced by rule `r`
//!   ships to every partition holding a consumer of `r`'s head (from
//!   the weighted dependency graph), excluding `r`'s own;
//! * *hybrid routing* multiplies consumer groups by the expected owner
//!   shards per triple;
//! * workers exchange peer to peer over one TCP mesh, so round bytes
//!   charge each exchanged triple **once** (one hop), plus the
//!   end-of-round marker every worker sends every peer: `k·(k−1)`
//!   marker frames per round.

use crate::{
    checks, Diagnostic, LintCode, LintOptions, LintReport, PartitionContext, Severity,
};
use owlpar_datalog::analysis::{sccs, weighted_dependency_graph};
use owlpar_datalog::ast::TermPat;
use owlpar_datalog::Rule;
use owlpar_obs::json::{obj, Value};
use owlpar_rdf::fx::FxHashMap;
use std::fmt::Write as _;

/// Byte-cost constants mirroring the cluster wire format; the default is
/// what the cluster runtime writes.
#[derive(Debug, Clone, PartialEq)]
pub struct WireCostModel {
    /// Length-prefix + CRC framing per frame (`len u32 | crc u32`).
    pub frame_overhead: u64,
    /// Measured delta/varint bytes per triple in a round batch
    /// (sorted triple blocks; ~3.4 B on the bench KB).
    pub round_triple_bytes: f64,
    /// Fixed cost of one end-of-round marker frame (`tag | round` plus
    /// framing), paid per ordered worker pair per round.
    pub marker_frame_bytes: f64,
}

impl Default for WireCostModel {
    fn default() -> Self {
        WireCostModel {
            frame_overhead: 8,
            round_triple_bytes: 3.5,
            marker_frame_bytes: 13.0,
        }
    }
}

/// Static image of how the plan routes a fresh derivation — the
/// analyzable shadow of `owlpar_core`'s `Routing`.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteModel {
    /// Data partitioning: a derived triple ships to the remote owners
    /// of its instance endpoints. `cross_fraction` estimates the
    /// probability one endpoint's owner is remote.
    Data {
        /// Boundary estimate in `[0, 1]`.
        cross_fraction: f64,
    },
    /// Rule partitioning: a triple produced by rule `r` ships to every
    /// partition holding a consumer of `r`'s head.
    Rule {
        /// Partition id per rule index.
        assignment: Vec<u32>,
    },
    /// Hybrid: consumer rule-groups × expected owner shards.
    Hybrid {
        /// Boundary estimate for the shard dimension.
        cross_fraction: f64,
        /// Rule-group id per rule index.
        groups_assignment: Vec<u32>,
        /// Data shards per group (`k / groups`).
        data_shards: usize,
    },
}

/// Everything the analyzer needs about a concrete plan, beyond the
/// rules themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanInputs {
    /// Strategy label (`data` / `rule` / `hybrid`) for the report.
    pub strategy: String,
    /// Worker count.
    pub k: usize,
    /// Schema (replicated) triples per worker.
    pub schema_triples: usize,
    /// Per-worker shipped base sizes (`k` entries; all equal to
    /// `total_base` under rule partitioning; empty when unknown —
    /// structure-only analysis).
    pub base_sizes: Vec<usize>,
    /// Distinct instance triples in the KB (0 when unknown).
    pub total_base: usize,
    /// Routing shadow.
    pub route: RouteModel,
    /// Per-rule firing estimates overriding the histogram weights.
    pub productions: Option<Vec<u64>>,
    /// Duplicate-suppression discount in `(0, 1]` applied to every
    /// exchange estimate: the runtime ships each *new* remote triple
    /// once, while the firing estimates count raw productions —
    /// re-derivations and triples the receiver already holds are
    /// silently dropped before the wire. `1.0` charges raw productions
    /// (structure-only analysis); graph-aware callers pass a measured
    /// calibration (see `owlpar_core::plan`).
    pub exchange_discount: f64,
    /// Caller's estimate of total encoded+framed `Setup` bytes across
    /// all workers (`None` when no KB is at hand).
    pub setup_bytes: Option<u64>,
    /// Byte-cost constants.
    pub cost: WireCostModel,
}

/// Round-count bounds derived from the rule-dependency SCC condensation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundBound {
    /// Every run takes at least this many rounds.
    pub min: usize,
    /// Best estimate used for the fixed per-round wire overhead.
    pub expected: usize,
    /// Static upper bound (condensation depth + quiescence round), or
    /// `None` when a recursive rule ships cross-partition — then the
    /// round count is bounded only by derivation depth (data-dependent).
    pub bounded: Option<usize>,
}

/// Predicted load of one worker.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerLoad {
    /// Worker index.
    pub worker: usize,
    /// Shipped base partition size (triples).
    pub base: usize,
    /// Rules this worker evaluates.
    pub rules: usize,
    /// Estimated rule-firing load (triple productions).
    pub load: f64,
    /// `load / Σ load` (0 when the total is 0).
    pub share: f64,
}

/// Predicted cross-partition traffic of one rule.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleTraffic {
    /// Rule name.
    pub name: String,
    /// Production estimate (triples this rule fires).
    pub weight: u64,
    /// Expected remote destinations per produced triple.
    pub remote_dests: f64,
    /// Estimated cross-partition triples (one wire leg).
    pub exchange_triples: f64,
    /// Wire bytes for that exchange (one hop, sender to receiver).
    pub exchange_bytes: f64,
}

/// The plan-analysis verdict: predicted loads, traffic, round bounds
/// and OWL011–OWL016 diagnostics (plus any deny-level rule-base
/// findings that make the plan infeasible outright).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// Strategy label (`data` / `rule` / `hybrid`).
    pub strategy: String,
    /// Deployment context the rule-base was linted under.
    pub context: PartitionContext,
    /// Worker count.
    pub k: usize,
    /// False when the rule-base lint denies this strategy's context —
    /// the plan is unsound regardless of cost.
    pub feasible: bool,
    /// Per-worker predicted loads (empty for an infeasible plan).
    pub workers: Vec<WorkerLoad>,
    /// Per-rule predicted traffic (empty for an infeasible plan).
    pub rules: Vec<RuleTraffic>,
    /// Distinct instance triples (0 when unknown).
    pub total_base: u64,
    /// Schema triples replicated per worker.
    pub schema_triples: u64,
    /// Largest worker's share of the total estimated load.
    pub max_load_share: f64,
    /// Total estimated cross-partition triples (one wire leg).
    pub exchange_triples: f64,
    /// Predicted `Setup` phase wire bytes (0 when unknown).
    pub setup_bytes: u64,
    /// Predicted round-phase wire bytes (one hop per exchanged triple,
    /// plus the per-round end-of-round markers).
    pub round_bytes: f64,
    /// Round-count bounds.
    pub rounds: RoundBound,
    /// Scalar cost in triple-equivalents — what `--strategy auto`
    /// minimizes: `max worker load + 2 × exchange + shipped triples`.
    /// Infinite for infeasible plans.
    pub total_cost: f64,
    /// Plan diagnostics (OWL011–OWL016), plus copied deny-level
    /// rule-base findings when the plan is infeasible.
    pub diagnostics: Vec<Diagnostic>,
}

impl PlanReport {
    /// Deny findings in this plan (plan-level or copied rule-base ones).
    pub fn deny_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count()
    }

    /// Warn findings.
    pub fn warn_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// Does this plan fail the gate? (Deny diagnostics are never
    /// overridable — same contract as the OWL001–OWL010 lint gate.)
    pub fn has_deny(&self) -> bool {
        !self.feasible || self.deny_count() > 0
    }

    /// Stable JSON rendering; diagnostics use the **same schema** as
    /// `LintReport::to_json` (see `render::diagnostic_json`).
    pub fn to_json(&self) -> Value {
        let rounds = obj([
            ("min", self.rounds.min.into()),
            ("expected", self.rounds.expected.into()),
            ("bounded", self.rounds.bounded.into()),
        ]);
        let plan = obj([
            ("strategy", self.strategy.as_str().into()),
            ("context", self.context.label().into()),
            ("k", self.k.into()),
            ("feasible", self.feasible.into()),
            ("total_base", self.total_base.into()),
            ("schema_triples", self.schema_triples.into()),
            ("max_load_share", self.max_load_share.into()),
            ("exchange_triples", self.exchange_triples.into()),
            ("setup_bytes", self.setup_bytes.into()),
            ("round_bytes", self.round_bytes.into()),
            ("rounds", rounds),
            // An infeasible plan's infinite cost is written as `null`.
            ("total_cost", self.total_cost.into()),
        ]);
        let workers: Vec<Value> = self
            .workers
            .iter()
            .map(|w| {
                obj([
                    ("worker", w.worker.into()),
                    ("base", w.base.into()),
                    ("rules", w.rules.into()),
                    ("load", w.load.into()),
                    ("share", w.share.into()),
                ])
            })
            .collect();
        let rules: Vec<Value> = self
            .rules
            .iter()
            .map(|r| {
                obj([
                    ("name", r.name.as_str().into()),
                    ("weight", r.weight.into()),
                    ("remote_dests", r.remote_dests.into()),
                    ("exchange_triples", r.exchange_triples.into()),
                    ("exchange_bytes", r.exchange_bytes.into()),
                ])
            })
            .collect();
        let summary = obj([
            ("deny", self.deny_count().into()),
            ("warn", self.warn_count().into()),
            ("ok", (!self.has_deny()).into()),
        ]);
        let diagnostics: Vec<Value> = self
            .diagnostics
            .iter()
            .map(|d| crate::render::diagnostic_json(d, self.context.label()))
            .collect();
        obj([
            ("plan", plan),
            ("workers", workers.into()),
            ("rules", rules.into()),
            ("summary", summary),
            ("diagnostics", diagnostics.into()),
        ])
    }

    /// Human rendering, one plan per call (see [`render_comparison`]
    /// for the side-by-side table).
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan {} (k={}, {} context): {}",
            self.strategy,
            self.k,
            self.context.label(),
            if self.feasible { "feasible" } else { "INFEASIBLE" },
        );
        let _ = writeln!(
            out,
            "  load: max share {:.1}%  exchange {:.0} triple(s)  rounds {}..{}",
            self.max_load_share * 100.0,
            self.exchange_triples,
            self.rounds.min,
            self.rounds
                .bounded
                .map_or_else(|| "data-dependent".to_string(), |b| b.to_string()),
        );
        let _ = writeln!(
            out,
            "  wire: setup ~{} B  rounds ~{:.0} B  cost {:.0}",
            self.setup_bytes, self.round_bytes, self.total_cost,
        );
        for d in &self.diagnostics {
            let at = d
                .rule
                .as_deref()
                .map(|n| format!(" [{n}]"))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "{:>5} {}{}: {}",
                d.severity.label(),
                d.code.id(),
                at,
                d.message
            );
        }
        let _ = write!(
            out,
            "verdict: {}",
            if self.has_deny() { "DENY" } else { "ok" }
        );
        out
    }
}

/// Side-by-side comparison table over several analyzed strategies —
/// what `owlpar plan` prints. `chosen` marks the auto-selected row.
pub fn render_comparison(reports: &[PlanReport], chosen: Option<usize>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>11} {:>13} {:>11} {:>12} {:>8} {:>12}  verdict",
        "strategy", "feasible", "max-share", "exchange(t)", "setup(B)", "rounds(B)", "rounds", "cost"
    );
    for (i, r) in reports.iter().enumerate() {
        let mark = if chosen == Some(i) { "*" } else { " " };
        let verdict = if r.has_deny() { "DENY" } else { "ok" };
        let _ = writeln!(
            out,
            "{mark}{:<9} {:>9} {:>10.1}% {:>13.0} {:>11} {:>12.0} {:>8} {:>12.0}  {}",
            r.strategy,
            if r.feasible { "yes" } else { "no" },
            r.max_load_share * 100.0,
            r.exchange_triples,
            r.setup_bytes,
            r.round_bytes,
            r.rounds
                .bounded
                .map_or_else(|| "≤?".to_string(), |b| format!("≤{b}")),
            r.total_cost,
            verdict,
        );
    }
    match chosen {
        Some(i) => {
            let _ = write!(out, "auto: chose {} (argmin cost)", reports[i].strategy);
        }
        None => {
            let _ = write!(out, "auto: no feasible deny-free plan");
        }
    }
    out
}

/// How many of a head atom's endpoints (subject/object) are instance
/// positions a data router would look up: variables bind instance
/// resources; constants are schema/class nodes outside the ownership
/// table.
fn instance_endpoints(rule: &Rule) -> usize {
    [rule.head.s, rule.head.o]
        .iter()
        .filter(|t| matches!(t, TermPat::Var(_)))
        .count()
}

/// Run the plan-analysis pass. Lints the rule-base under
/// `opts.context` first: a deny finding there makes every cost moot
/// (the plan is unsound), so the report comes back infeasible with the
/// blocking findings copied in and an infinite cost.
pub fn analyze_plan(rules: &[Rule], opts: &LintOptions, inputs: &PlanInputs) -> PlanReport {
    let lint: LintReport = checks::run(rules, opts);
    let feasible = !lint.has_deny();

    // Production estimates: caller's firing estimates, else the head
    // predicate histogram (the rule-partitioning weight), else 1.
    let empty_hist = FxHashMap::default();
    let hist = opts.predicate_counts.as_ref().unwrap_or(&empty_hist);
    let weights: Vec<u64> = match &inputs.productions {
        Some(p) if p.len() == rules.len() => p.clone(),
        _ => rules
            .iter()
            .map(|r| match r.head.p {
                TermPat::Const(p) => hist.get(&p).map(|&c| (c as u64).max(1)).unwrap_or(1),
                TermPat::Var(_) => 1,
            })
            .collect(),
    };

    // Dependency structure: consumers, SCCs, condensation depth.
    let dep = weighted_dependency_graph(rules, hist, 1);
    let comp = sccs(&dep);
    let ncomp = comp.iter().copied().max().map_or(0, |m| m + 1);
    let mut comp_size = vec![0usize; ncomp];
    for &c in &comp {
        comp_size[c] += 1;
    }
    let recursive: Vec<bool> = (0..rules.len())
        .map(|i| comp_size[comp[i]] > 1 || dep.edges[i].iter().any(|&(j, _)| j == i))
        .collect();
    // Longest path over the condensation DAG. Tarjan numbers components
    // in reverse topological order (an edge's target component id never
    // exceeds its source's), so ascending component order sees every
    // child before its parents.
    let mut depth = vec![1usize; ncomp];
    let mut rules_by_comp: Vec<Vec<usize>> = vec![Vec::new(); ncomp];
    for (i, &c) in comp.iter().enumerate() {
        rules_by_comp[c].push(i);
    }
    for c in 0..ncomp {
        for &i in &rules_by_comp[c] {
            for &(j, _) in &dep.edges[i] {
                if comp[j] != c {
                    depth[c] = depth[c].max(depth[comp[j]] + 1);
                }
            }
        }
    }
    let levels = depth.iter().copied().max().unwrap_or(1);

    if !feasible {
        // Unsound plan: copy the blocking findings, skip the cost pass.
        let diagnostics: Vec<Diagnostic> = lint.deny_findings().cloned().collect();
        return PlanReport {
            strategy: inputs.strategy.clone(),
            context: opts.context,
            k: inputs.k,
            feasible: false,
            workers: Vec::new(),
            rules: Vec::new(),
            total_base: inputs.total_base as u64,
            schema_triples: inputs.schema_triples as u64,
            max_load_share: 0.0,
            exchange_triples: 0.0,
            setup_bytes: inputs.setup_bytes.unwrap_or(0),
            round_bytes: 0.0,
            rounds: RoundBound {
                min: 1,
                expected: 1,
                bounded: None,
            },
            total_cost: f64::INFINITY,
            diagnostics,
        };
    }

    let k = inputs.k.max(1);
    let total_weight: f64 = weights.iter().map(|&w| w as f64).sum();
    let base_known = inputs.base_sizes.len() == k;
    let total_shipped_base: usize = inputs.base_sizes.iter().sum();

    // --- per-worker loads -------------------------------------------
    let mut loads = vec![0.0f64; k];
    let mut rule_counts = vec![0usize; k];
    // Share of the (deduplicated) base each worker holds; uniform when
    // the base is unknown (structure-only mode).
    let share_of = |w: usize| -> f64 {
        if base_known && inputs.total_base > 0 {
            inputs.base_sizes[w] as f64 / inputs.total_base as f64
        } else {
            1.0 / k as f64
        }
    };
    match &inputs.route {
        RouteModel::Data { .. } => {
            for (w, load) in loads.iter_mut().enumerate() {
                *load = share_of(w) * total_weight;
            }
            rule_counts = vec![rules.len(); k];
        }
        RouteModel::Rule { assignment } => {
            for (r, &part) in assignment.iter().enumerate() {
                let p = (part as usize).min(k - 1);
                loads[p] += weights.get(r).copied().unwrap_or(1) as f64;
                rule_counts[p] += 1;
            }
        }
        RouteModel::Hybrid {
            groups_assignment,
            data_shards,
            ..
        } => {
            let d = (*data_shards).max(1);
            let mut group_weight = vec![0.0f64; k.div_ceil(d)];
            let mut group_rules = vec![0usize; k.div_ceil(d)];
            for (r, &g) in groups_assignment.iter().enumerate() {
                let g = (g as usize).min(group_weight.len() - 1);
                group_weight[g] += weights.get(r).copied().unwrap_or(1) as f64;
                group_rules[g] += 1;
            }
            for w in 0..k {
                let g = w / d;
                loads[w] = group_weight.get(g).copied().unwrap_or(0.0) * share_of(w);
                rule_counts[w] = group_rules.get(g).copied().unwrap_or(0);
            }
        }
    }
    let total_load: f64 = loads.iter().sum();
    let max_load = loads.iter().copied().fold(0.0f64, f64::max);
    let max_load_share = if total_load > 0.0 {
        max_load / total_load
    } else {
        0.0
    };

    // --- per-rule cross-partition traffic ---------------------------
    let mut rule_traffic = Vec::with_capacity(rules.len());
    let mut total_exchange = 0.0f64;
    for (r, rule) in rules.iter().enumerate() {
        let w = weights[r] as f64;
        let remote = match &inputs.route {
            RouteModel::Data { cross_fraction } => {
                instance_endpoints(rule) as f64 * cross_fraction.clamp(0.0, 1.0)
            }
            RouteModel::Rule { assignment } => {
                let me = assignment.get(r).copied().unwrap_or(0);
                let mut parts: Vec<u32> = dep.edges[r]
                    .iter()
                    .filter_map(|&(j, _)| assignment.get(j).copied())
                    .filter(|&p| p != me)
                    .collect();
                parts.sort_unstable();
                parts.dedup();
                parts.len() as f64
            }
            RouteModel::Hybrid {
                cross_fraction,
                groups_assignment,
                ..
            } => {
                let me = groups_assignment.get(r).copied().unwrap_or(0);
                let mut groups: Vec<u32> = dep.edges[r]
                    .iter()
                    .filter_map(|&(j, _)| groups_assignment.get(j).copied())
                    .collect();
                groups.sort_unstable();
                groups.dedup();
                let own = if groups.contains(&me) { 1.0 } else { 0.0 };
                let shard_mult = 1.0
                    + cross_fraction.clamp(0.0, 1.0)
                        * instance_endpoints(rule).saturating_sub(1) as f64;
                (groups.len() as f64 * shard_mult - own).max(0.0)
            }
        };
        let exchange = w * remote * inputs.exchange_discount.clamp(f64::EPSILON, 1.0);
        total_exchange += exchange;
        rule_traffic.push(RuleTraffic {
            name: rule.name.clone(),
            weight: weights[r],
            remote_dests: remote,
            exchange_triples: exchange,
            exchange_bytes: exchange * inputs.cost.round_triple_bytes,
        });
    }

    // --- rounds ------------------------------------------------------
    let recursive_exchange = rule_traffic
        .iter()
        .enumerate()
        .any(|(r, t)| recursive[r] && t.exchange_triples > 0.0);
    let rounds = if total_exchange <= f64::EPSILON {
        RoundBound {
            min: 1,
            expected: 1,
            bounded: Some(1),
        }
    } else {
        RoundBound {
            min: 2,
            expected: 2,
            bounded: (!recursive_exchange).then_some(levels + 1),
        }
    };

    // --- wire totals -------------------------------------------------
    let markers = rounds.expected * k * k.saturating_sub(1);
    let round_bytes = total_exchange * inputs.cost.round_triple_bytes
        + markers as f64 * inputs.cost.marker_frame_bytes;
    let shipped = total_shipped_base as f64 + (k * inputs.schema_triples) as f64;
    let total_cost = max_load + 2.0 * total_exchange + shipped;

    // --- diagnostics -------------------------------------------------
    let mut diagnostics = Vec::new();
    let mut push = |code: LintCode,
                    severity: Severity,
                    rule: Option<(usize, &str)>,
                    message: String,
                    witness: String| {
        diagnostics.push(Diagnostic {
            code,
            severity,
            rule: rule.map(|(_, n)| n.to_string()),
            rule_index: rule.map(|(i, _)| i),
            message,
            violation: None,
            witness: Some(witness),
            suppressed: false,
        });
    };
    if k >= 2 && total_load > 0.0 {
        let mean = total_load / k as f64;
        let (max_w, _) = loads
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap_or((0, &0.0));
        if max_load_share > 0.8 {
            push(
                LintCode::LoadImbalance,
                Severity::Deny,
                None,
                format!(
                    "worker {max_w} owns {:.1}% of the estimated firing load; \
                     the parallel run degenerates to serial plus exchange overhead",
                    max_load_share * 100.0
                ),
                format!("worker {max_w} share {:.3}", max_load_share),
            );
        } else if max_load > 2.0 * mean {
            push(
                LintCode::LoadSkew,
                Severity::Warn,
                None,
                format!(
                    "worker {max_w} carries {:.1}× the mean estimated load \
                     ({:.0} vs {:.0})",
                    max_load / mean,
                    max_load,
                    mean
                ),
                format!("worker {max_w} load {max_load:.0} mean {mean:.0}"),
            );
        }
        let idle: Vec<usize> = loads
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == 0.0)
            .map(|(w, _)| w)
            .collect();
        if !idle.is_empty() {
            let severity = if idle.len() * 2 > k {
                Severity::Deny
            } else {
                Severity::Warn
            };
            push(
                LintCode::IdleWorkers,
                severity,
                None,
                format!(
                    "{} of {k} worker(s) have zero estimated load (first idle: worker {}); \
                     shrink k or change strategy",
                    idle.len(),
                    idle[0]
                ),
                format!("{} idle of {k}", idle.len()),
            );
        }
    }
    if inputs.total_base > 0 {
        for (r, t) in rule_traffic.iter().enumerate() {
            let at = Some((r, rules[r].name.as_str()));
            if t.exchange_triples > inputs.total_base as f64 {
                push(
                    LintCode::ExchangeExceedsBase,
                    Severity::Deny,
                    at,
                    format!(
                        "estimated exchange of {:.0} triple(s) exceeds the whole base \
                         ({}); this plan ships more than it stores",
                        t.exchange_triples, inputs.total_base
                    ),
                    format!("{:.0} > base {}", t.exchange_triples, inputs.total_base),
                );
            } else if t.exchange_triples > inputs.total_base as f64 / 4.0 {
                push(
                    LintCode::HeavyExchange,
                    Severity::Warn,
                    at,
                    format!(
                        "estimated exchange of {:.0} triple(s) exceeds a quarter of \
                         the base ({})",
                        t.exchange_triples, inputs.total_base
                    ),
                    format!("{:.0} > base/4", t.exchange_triples),
                );
            }
        }
    }
    for (r, t) in rule_traffic.iter().enumerate() {
        if recursive[r] && t.exchange_triples > 0.0 {
            push(
                LintCode::RecursiveExchange,
                Severity::Allow,
                Some((r, rules[r].name.as_str())),
                "recursive rule ships derivations cross-partition; round count is \
                 bounded by derivation depth, not the dependency condensation"
                    .to_string(),
                format!("scc {} exchange {:.0}", comp[r], t.exchange_triples),
            );
        }
    }

    let workers = (0..k)
        .map(|w| WorkerLoad {
            worker: w,
            base: if base_known { inputs.base_sizes[w] } else { 0 },
            rules: rule_counts[w],
            load: loads[w],
            share: if total_load > 0.0 {
                loads[w] / total_load
            } else {
                0.0
            },
        })
        .collect();

    PlanReport {
        strategy: inputs.strategy.clone(),
        context: opts.context,
        k: inputs.k,
        feasible: true,
        workers,
        rules: rule_traffic,
        total_base: inputs.total_base as u64,
        schema_triples: inputs.schema_triples as u64,
        max_load_share,
        exchange_triples: total_exchange,
        setup_bytes: inputs.setup_bytes.unwrap_or(0),
        round_bytes,
        rounds,
        total_cost,
        diagnostics,
    }
}

/// OWL017 — compare a traced run's measured per-round skew against the
/// analyzer's prediction.
///
/// `measured` holds one ratio per round: the slowest worker's round
/// time over the mean (`max/mean`), the live analog of the analyzer's
/// predicted skew ratio ([`PlanReport::max_load_share`] × k). The
/// finding fires — always [`Severity::Warn`]: the run already happened,
/// so this can only advise — when the worst measured ratio exceeds
/// `predicted × tolerance` (`tolerance` ≥ 1, e.g. `1.25` for 25%
/// headroom; lower values are clamped to exact). Returns `None` when
/// the measurement is within tolerance or either side is degenerate
/// (no finite rounds, non-positive prediction).
pub fn check_skew_tolerance(
    measured: &[f64],
    predicted: f64,
    tolerance: f64,
) -> Option<Diagnostic> {
    if predicted <= 0.0 || !predicted.is_finite() {
        return None;
    }
    let worst = measured
        .iter()
        .copied()
        .filter(|m| m.is_finite())
        .fold(f64::NEG_INFINITY, f64::max);
    if !worst.is_finite() {
        return None;
    }
    let tolerance = tolerance.max(1.0);
    let bound = predicted * tolerance;
    if worst <= bound {
        return None;
    }
    Some(Diagnostic {
        code: LintCode::SkewExceedsPredicted,
        severity: Severity::Warn,
        rule: None,
        rule_index: None,
        message: format!(
            "measured round skew {worst:.2}x exceeds the predicted {predicted:.2}x \
             (tolerance {tolerance:.2}x): the static load model is underestimating \
             the straggler"
        ),
        violation: None,
        witness: Some(format!(
            "worst of {} round(s) measured {worst:.2}x; bound {bound:.2}x",
            measured.len()
        )),
        suppressed: false,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::ALL_CODES;
    use owlpar_datalog::ast::{Atom, TermPat};
    use owlpar_rdf::NodeId;

    fn v(i: u16) -> TermPat {
        TermPat::Var(i)
    }

    fn c(i: u32) -> TermPat {
        TermPat::Const(NodeId(i))
    }

    fn rule(name: &str, head: Atom, body: Vec<Atom>) -> Rule {
        Rule::new(name, head, body).unwrap()
    }

    fn atom(s: TermPat, p: TermPat, o: TermPat) -> Atom {
        Atom::new(s, p, o)
    }

    /// Two chained safe rules: `p(x,y) → q(x,y)` and `q(x,y) → r(x,y)`.
    fn chain_rules() -> Vec<Rule> {
        vec![
            rule("pq", atom(v(0), c(11), v(1)), vec![atom(v(0), c(10), v(1))]),
            rule("qr", atom(v(0), c(12), v(1)), vec![atom(v(0), c(11), v(1))]),
        ]
    }

    fn inputs(strategy: &str, k: usize, route: RouteModel) -> PlanInputs {
        PlanInputs {
            strategy: strategy.to_string(),
            k,
            schema_triples: 5,
            base_sizes: vec![50; k],
            total_base: 100,
            route,
            productions: None,
            exchange_discount: 1.0,
            setup_bytes: None,
            cost: WireCostModel::default(),
        }
    }

    #[test]
    fn new_codes_roundtrip_ids() {
        assert_eq!(ALL_CODES.len(), 17);
        for code in ALL_CODES {
            assert_eq!(LintCode::from_id(code.id()), Some(code));
        }
        assert_eq!(LintCode::from_id("OWL011"), Some(LintCode::LoadImbalance));
        assert_eq!(
            LintCode::from_id("OWL016"),
            Some(LintCode::RecursiveExchange)
        );
        assert_eq!(
            LintCode::from_id("OWL017"),
            Some(LintCode::SkewExceedsPredicted)
        );
    }

    #[test]
    fn skew_tolerance_fires_only_beyond_the_bound() {
        // Within tolerance: 1.4 measured vs 1.2 predicted × 1.25 = 1.5.
        assert!(check_skew_tolerance(&[1.1, 1.4], 1.2, 1.25).is_none());
        // Beyond it: worst round 1.9 > 1.5.
        let d = check_skew_tolerance(&[1.1, 1.9], 1.2, 1.25).expect("fires");
        assert_eq!(d.code, LintCode::SkewExceedsPredicted);
        assert_eq!(d.severity, Severity::Warn);
        assert_eq!(d.code.id(), "OWL017");
        assert!(d.message.contains("1.90x"), "{}", d.message);
        // Degenerate inputs never fire: no rounds, NaN rounds, bad
        // prediction; sub-1 tolerances clamp to exact comparison.
        assert!(check_skew_tolerance(&[], 1.2, 1.25).is_none());
        assert!(check_skew_tolerance(&[f64::NAN], 1.2, 1.25).is_none());
        assert!(check_skew_tolerance(&[2.0], 0.0, 1.25).is_none());
        assert!(check_skew_tolerance(&[1.3], 1.2, 0.5).is_some());
    }

    #[test]
    fn balanced_data_plan_is_clean() {
        let rules = chain_rules();
        let opts = LintOptions::for_context(PartitionContext::DataPartitioned);
        let report = analyze_plan(
            &rules,
            &opts,
            &inputs("data", 2, RouteModel::Data { cross_fraction: 0.1 }),
        );
        assert!(report.feasible);
        assert!(!report.has_deny(), "{:?}", report.diagnostics);
        assert!((report.max_load_share - 0.5).abs() < 1e-9);
        // Acyclic 2-level chain, some exchange: statically bounded.
        assert_eq!(report.rounds.bounded, Some(3));
    }

    #[test]
    fn severe_imbalance_denies_owl011() {
        let rules = chain_rules();
        let opts = LintOptions::for_context(PartitionContext::RulePartitioned);
        // Both rules on worker 0, worker 1 idle: 100% share + idle worker.
        let report = analyze_plan(
            &rules,
            &opts,
            &inputs(
                "rule",
                2,
                RouteModel::Rule {
                    assignment: vec![0, 0],
                },
            ),
        );
        assert!(report.has_deny());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::LoadImbalance && d.severity == Severity::Deny));
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.witness.is_some()));
    }

    #[test]
    fn majority_idle_escalates_owl015_to_deny() {
        let rules = chain_rules();
        let opts = LintOptions::for_context(PartitionContext::RulePartitioned);
        // 2 rules over k=8: at least 6 idle workers — a majority.
        let report = analyze_plan(
            &rules,
            &opts,
            &inputs(
                "rule",
                8,
                RouteModel::Rule {
                    assignment: vec![0, 1],
                },
            ),
        );
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::IdleWorkers && d.severity == Severity::Deny));
    }

    #[test]
    fn exchange_beyond_base_denies_owl013() {
        let rules = chain_rules();
        let mut opts = LintOptions::for_context(PartitionContext::RulePartitioned);
        // Huge production estimate for rule 0, whose consumer lives on
        // the other partition: exchange ≈ 500 > base 100.
        opts.predicate_counts = Some(
            [(NodeId(11), 500usize)]
                .into_iter()
                .collect(),
        );
        let report = analyze_plan(
            &rules,
            &opts,
            &inputs(
                "rule",
                2,
                RouteModel::Rule {
                    assignment: vec![0, 1],
                },
            ),
        );
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::ExchangeExceedsBase
                && d.severity == Severity::Deny
                && d.rule.as_deref() == Some("pq")));
    }

    #[test]
    fn recursive_exchange_is_informational_and_unbounded() {
        // Transitive rule: t(x,y) ∧ t(y,z) → t(x,z), self-recursive.
        let rules = vec![rule(
            "trans",
            atom(v(0), c(10), v(2)),
            vec![atom(v(0), c(10), v(1)), atom(v(1), c(10), v(2))],
        )];
        let opts = LintOptions::for_context(PartitionContext::DataPartitioned);
        let report = analyze_plan(
            &rules,
            &opts,
            &inputs("data", 2, RouteModel::Data { cross_fraction: 0.2 }),
        );
        assert!(report.rounds.bounded.is_none());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::RecursiveExchange && d.severity == Severity::Allow));
        assert!(!report.has_deny());
    }

    #[test]
    fn infeasible_context_copies_lint_denials_and_costs_infinity() {
        // A 3-atom rule is deny-level under data partitioning.
        let rules = vec![rule(
            "tri",
            atom(v(0), c(30), v(2)),
            vec![
                atom(v(0), c(10), v(1)),
                atom(v(1), c(11), v(2)),
                atom(v(2), c(12), v(0)),
            ],
        )];
        let opts = LintOptions::for_context(PartitionContext::DataPartitioned);
        let report = analyze_plan(
            &rules,
            &opts,
            &inputs("data", 2, RouteModel::Data { cross_fraction: 0.1 }),
        );
        assert!(!report.feasible);
        assert!(report.has_deny());
        assert!(report.total_cost.is_infinite());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::NonSingleJoin));
    }

    #[test]
    fn comparison_table_marks_the_chosen_row() {
        let rules = chain_rules();
        let opts = LintOptions::for_context(PartitionContext::DataPartitioned);
        let a = analyze_plan(
            &rules,
            &opts,
            &inputs("data", 2, RouteModel::Data { cross_fraction: 0.1 }),
        );
        let opts_r = LintOptions::for_context(PartitionContext::RulePartitioned);
        let b = analyze_plan(
            &rules,
            &opts_r,
            &inputs(
                "rule",
                2,
                RouteModel::Rule {
                    assignment: vec![0, 1],
                },
            ),
        );
        let table = render_comparison(&[a, b], Some(0));
        assert!(table.contains("auto: chose data"));
        assert!(table.contains("*data"));
    }
}
