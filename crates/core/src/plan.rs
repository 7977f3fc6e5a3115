//! Graph-aware plan analysis and `--strategy auto` selection.
//!
//! `owlpar-lint`'s [`analyze_plan`] is deliberately abstract — it scores
//! a [`PlanInputs`] shadow of a plan without ever seeing a triple. This
//! module builds that shadow from the *real* artifacts the runtime would
//! distribute: it partitions through [`crate::master::build_partitions`]
//! (the exact code path `prepare_run` uses), reads base sizes and
//! routing tables off the result, estimates per-rule firings against the
//! actual KB, and prices the `Setup` phase with the same delta/varint
//! triple blocks the cluster wire format ships
//! ([`crate::frame::encode_triple_block`]).
//!
//! Two estimates deserve a note:
//!
//! * **productions** — a rule's firing estimate is the *smallest* match
//!   count of any body atom against the base KB. The head-predicate
//!   histogram (the rule-partitioning weight) badly overestimates
//!   `rdf:type`-headed rules — every one of them would be charged the
//!   entire type census — while the min-body-atom bound tracks which
//!   rules can actually fire;
//! * **cross fraction** — for data strategies the probability a derived
//!   triple's endpoint lives remote is taken from the partitioning's
//!   measured input-replication excess ([`PartitionQuality::ir_excess`]):
//!   the ownership graph replicates exactly the boundary nodes, which
//!   are exactly the nodes whose triples cross partitions.

use crate::config::PartitioningStrategy;
use crate::error::RunError;
use crate::frame::encode_triple_block;
use crate::master::{build_partitions, RunPlan};
use crate::worker::Routing;
use owlpar_datalog::ast::{Atom, TermPat};
use owlpar_datalog::Rule;
use owlpar_lint::{
    analyze_plan, LintOptions, PartitionContext, PlanInputs, PlanReport, RouteModel, WireCostModel,
};
use owlpar_partition::metrics::PartitionQuality;
use owlpar_partition::multilevel::PartitionOptions;
use owlpar_partition::partition_rules;
use owlpar_rdf::fx::FxHashMap;
use owlpar_rdf::{Dictionary, Graph, NodeId, Triple};

/// Floor for the data-routing cross fraction: even a perfect min-cut
/// partitioning ships *some* derivations (the estimate must never claim
/// a free lunch).
const MIN_CROSS_FRACTION: f64 = 0.02;

/// Cross fraction assumed when no partitioning quality is at hand
/// (structure-only analysis).
const DEFAULT_CROSS_FRACTION: f64 = 0.1;

/// Derivation–ownership correlation discount on the data-routing
/// boundary fraction: a worker derives a triple because the producing
/// body atoms matched *locally* — the derived triple usually shares its
/// subject with a locally-owned body triple — so its endpoints are
/// owned locally far more often than the raw node-replication excess
/// ([`PartitionQuality::ir_excess`]) suggests. Charging endpoints
/// independently at `ir_excess` overshoots measured data-strategy round
/// traffic 3–5× on the bench KB; 0.25 keeps both k ∈ {2, 4} inside the
/// 2× band (see `owlpar-net`'s plan-tolerance test).
const DATA_LOCALITY_DISCOUNT: f64 = 0.25;

/// Duplicate-suppression discount on every exchange estimate
/// ([`PlanInputs::exchange_discount`]): production estimates count raw
/// firings, but the runtime only ships *new* remote triples — repeat
/// derivations and triples the receiver already holds never touch the
/// wire. Calibrated against the bench KB's measured round traffic at
/// k ∈ {2, 4} for both strategies (see `owlpar-net`'s
/// plan-tolerance test); raw charges overshoot ~2–3×.
const EXCHANGE_DEDUP_DISCOUNT: f64 = 0.6;

/// Everything strategy-independent the analyzer needs about one KB +
/// rule-base: the effective rules, the split base, the predicate
/// histogram, and per-rule production estimates. Build it once, score
/// every candidate strategy against it.
pub struct PlanningBase {
    /// The effective rule-base (compiled ontology rules + extras).
    pub all_rules: Vec<Rule>,
    /// Schema triples (replicated to every worker).
    pub schema: Vec<Triple>,
    /// Instance triples (the partitioned base).
    pub instance: Vec<Triple>,
    /// `rdf:type`'s node id, when interned.
    pub rdf_type: Option<NodeId>,
    /// Predicate histogram over the whole base (schema + instance).
    pub hist: FxHashMap<NodeId, usize>,
    /// Per-rule production estimates (min body-atom match count).
    pub productions: Vec<u64>,
}

impl PlanningBase {
    /// Index the base and estimate per-rule productions.
    pub fn new(
        all_rules: Vec<Rule>,
        schema: Vec<Triple>,
        instance: Vec<Triple>,
        rdf_type: Option<NodeId>,
    ) -> Self {
        // One pass over the base builds every histogram the atom
        // matcher needs: by predicate, by (predicate, object), by
        // (subject, predicate).
        let mut hist: FxHashMap<NodeId, usize> = FxHashMap::default();
        let mut hist_po: FxHashMap<(NodeId, NodeId), usize> = FxHashMap::default();
        let mut hist_sp: FxHashMap<(NodeId, NodeId), usize> = FxHashMap::default();
        let mut total = 0usize;
        for t in schema.iter().chain(instance.iter()) {
            total += 1;
            *hist.entry(t.p).or_insert(0) += 1;
            *hist_po.entry((t.p, t.o)).or_insert(0) += 1;
            *hist_sp.entry((t.s, t.p)).or_insert(0) += 1;
        }
        let match_count = |a: &Atom| -> usize {
            match (a.s, a.p, a.o) {
                (TermPat::Var(_), TermPat::Const(p), TermPat::Var(_)) => {
                    hist.get(&p).copied().unwrap_or(0)
                }
                (TermPat::Var(_), TermPat::Const(p), TermPat::Const(o)) => {
                    hist_po.get(&(p, o)).copied().unwrap_or(0)
                }
                (TermPat::Const(s), TermPat::Const(p), TermPat::Var(_)) => {
                    hist_sp.get(&(s, p)).copied().unwrap_or(0)
                }
                // Fully ground atoms: bounded by the (p, o) census.
                (TermPat::Const(_), TermPat::Const(p), TermPat::Const(o)) => {
                    hist_po.get(&(p, o)).copied().unwrap_or(0).min(1)
                }
                // Variable predicate: anything could match.
                _ => total,
            }
        };
        // A body atom also matches triples *derived* by upstream rules,
        // not just the base: `type Faculty` may never be asserted yet
        // fires `subClassOf:Faculty<Employee` for every derived Faculty.
        // Propagate estimates through the producer→consumer chain to a
        // bounded fixpoint (estimates only grow; the sweep cap keeps
        // recursive SCCs from amplifying without limit).
        let n = all_rules.len();
        let mut productions: Vec<u64> = vec![0; n];
        for _ in 0..8 {
            let mut changed = false;
            for (i, r) in all_rules.iter().enumerate() {
                let est = r
                    .body
                    .iter()
                    .map(|a| {
                        let derived: u64 = all_rules
                            .iter()
                            .enumerate()
                            .filter(|&(j, rj)| j != i && rj.head.may_unify(a))
                            .map(|(j, _)| productions[j])
                            .sum();
                        match_count(a) as u64 + derived
                    })
                    .min()
                    .unwrap_or(0);
                if est > productions[i] {
                    productions[i] = est;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        PlanningBase {
            all_rules,
            schema,
            instance,
            rdf_type,
            hist,
            productions,
        }
    }

    /// Compile `graph`'s ontology (interning its last constants — same
    /// caveat as [`crate::prepare_run`]) and build the planning base for
    /// the effective rule-base.
    pub fn compile(graph: &mut Graph, extra_rules: &[Rule]) -> Self {
        let hr = owlpar_horst::HorstReasoner::from_graph(
            graph,
            owlpar_datalog::MaterializationStrategy::ForwardSemiNaive,
        );
        let rdf_type = graph
            .dict
            .id(&owlpar_rdf::Term::iri(owlpar_rdf::vocab::RDF_TYPE));
        let mut all_rules = hr.rules().to_vec();
        all_rules.extend(extra_rules.iter().cloned());
        PlanningBase::new(
            all_rules,
            hr.schema_triples.clone(),
            hr.instance_triples.clone(),
            rdf_type,
        )
    }
}

/// The strategies `--strategy auto` scores, the paper's two: min-cut
/// data partitioning and weighted rule partitioning. The same for every
/// `k`.
pub fn auto_candidates(_k: usize) -> Vec<PartitioningStrategy> {
    vec![
        PartitioningStrategy::data_graph(),
        PartitioningStrategy::Rule { weighted: true },
    ]
}

/// Deployment context a strategy lints under.
pub(crate) fn context_of(strategy: &PartitioningStrategy) -> Result<PartitionContext, RunError> {
    match strategy {
        PartitioningStrategy::Data(_) => Ok(PartitionContext::DataPartitioned),
        PartitioningStrategy::Rule { .. } => Ok(PartitionContext::RulePartitioned),
        PartitioningStrategy::Auto => Err(RunError::config(
            "cannot analyze the auto strategy itself; analyze its candidates",
        )),
    }
}

/// Boundary fraction for the data strategy: locality-discounted —
/// the deriving worker owns the body triples, so it usually owns the
/// derived endpoints too.
fn data_cross_fraction(quality: Option<&PartitionQuality>) -> f64 {
    quality
        .map(|q| q.ir_excess() * DATA_LOCALITY_DISCOUNT)
        .unwrap_or(DEFAULT_CROSS_FRACTION)
        .clamp(MIN_CROSS_FRACTION, 1.0)
}

/// `Setup` frame size estimate for one worker, mirroring the
/// cluster wire format's components: exact delta/varint triple blocks
/// for schema + base, compact rules, the routing table, the fixed
/// header and framing.
fn setup_frame_bytes(
    schema_block: u64,
    base_block: u64,
    all_rules: &[Rule],
    my_rules: usize,
    routing_entries: u64,
    frame_overhead: u64,
) -> u64 {
    let rules: u64 = all_rules
        .iter()
        .map(|r| 3 + r.name.len() as u64 + 9 * (1 + r.body.len() as u64))
        .sum();
    // Timeouts/counters ≈ 16 B of fixed header.
    schema_block + base_block + rules + my_rules as u64 * 2 + routing_entries * 3
        + 16
        + frame_overhead
}

/// Analyze one **concrete** strategy against a prepared planning base:
/// partition for real (the same partitioner the runtime uses), shadow
/// the result into [`PlanInputs`], and run the OWL011–OWL016 pass.
pub fn analyze_strategy(
    base: &PlanningBase,
    dict: &Dictionary,
    k: usize,
    strategy: &PartitioningStrategy,
) -> Result<PlanReport, RunError> {
    let context = context_of(strategy)?;
    let mut opts = LintOptions::for_context(context);
    opts.predicate_counts = Some(base.hist.clone());
    let label = strategy.label().to_string();

    // A deny-level rule-base finding makes the plan unsound regardless
    // of cost — skip the (possibly expensive) partitioning entirely and
    // let the analyzer report infeasibility.
    if owlpar_lint::lint_rules(&base.all_rules, &opts).has_deny() {
        let inputs = PlanInputs {
            strategy: label,
            k,
            schema_triples: base.schema.len(),
            base_sizes: Vec::new(),
            total_base: base.instance.len(),
            route: RouteModel::Data { cross_fraction: 0.0 },
            productions: Some(base.productions.clone()),
            exchange_discount: 1.0,
            setup_bytes: None,
            cost: WireCostModel::default(),
        };
        return Ok(analyze_plan(&base.all_rules, &opts, &inputs));
    }

    let parts = build_partitions(
        strategy,
        k,
        &base.all_rules,
        &base.instance,
        &base.instance,
        dict,
        base.rdf_type,
        Some(&base.hist),
    )?;
    Ok(score_partition(
        base,
        label,
        &opts,
        &parts.bases,
        &parts.rules_per_worker,
        &parts.routing,
        parts.quality.as_ref(),
    ))
}

/// [`analyze_strategy`] for a run whose partition is already built: score
/// what `plan` is about to distribute — its own bases, rule subsets and
/// routing — instead of partitioning the KB a second time. `base` must
/// be the planning base of the KB and rule-base `plan` was prepared
/// from.
pub fn analyze_run_plan(base: &PlanningBase, plan: &RunPlan) -> Result<PlanReport, RunError> {
    let mut opts = LintOptions::for_context(context_of(&plan.strategy)?);
    opts.predicate_counts = Some(base.hist.clone());
    let label = plan.strategy.label().to_string();
    Ok(score_partition(
        base,
        label,
        &opts,
        &plan.bases,
        &plan.rules_per_worker,
        &plan.routing,
        plan.quality.as_ref(),
    ))
}

/// Shadow one concrete partition — one base, rule subset and routing
/// table per worker — into [`PlanInputs`] and run the OWL011–OWL016 pass
/// over it.
fn score_partition(
    base: &PlanningBase,
    label: String,
    opts: &LintOptions,
    bases: &[Vec<Triple>],
    rules_per_worker: &[Vec<Rule>],
    routing: &[Routing],
    quality: Option<&PartitionQuality>,
) -> PlanReport {
    let k = bases.len();
    let cost = WireCostModel::default();
    let route = match routing.first() {
        // A single worker owns everything: no exchange, whatever the
        // partition quality claims.
        Some(Routing::Data { .. }) | None => RouteModel::Data {
            cross_fraction: if k == 1 {
                0.0
            } else {
                data_cross_fraction(quality)
            },
        },
        Some(Routing::Rule { partitions, .. }) => RouteModel::Rule {
            assignment: partitions.assignment.clone(),
        },
    };
    let routing_entries = match routing.first() {
        Some(Routing::Data { owner }) => owner.len(),
        Some(Routing::Rule { partitions, .. }) => partitions.assignment.len(),
        None => 0,
    } as u64;

    // Price the setup phase with the real triple-block encoding.
    let schema_block = encode_triple_block(&base.schema).len() as u64;
    let mut setup = 0u64;
    for (w, b) in bases.iter().enumerate() {
        let base_block = encode_triple_block(b).len() as u64;
        setup += setup_frame_bytes(
            schema_block,
            base_block,
            &base.all_rules,
            rules_per_worker[w].len(),
            routing_entries,
            cost.frame_overhead,
        );
    }

    let inputs = PlanInputs {
        strategy: label,
        k,
        schema_triples: base.schema.len(),
        base_sizes: bases.iter().map(Vec::len).collect(),
        total_base: base.instance.len(),
        route,
        productions: Some(base.productions.clone()),
        exchange_discount: EXCHANGE_DEDUP_DISCOUNT,
        setup_bytes: Some(setup),
        cost,
    };
    analyze_plan(&base.all_rules, opts, &inputs)
}

/// Structure-only analysis for a bare rule-base (no KB at hand): loads
/// fall back to uniform shares, traffic to histogram-free weights, and
/// no wire-byte estimates are produced. This is what `owlpar plan`
/// runs on a `.rules` file — enough to catch infeasible contexts,
/// idle-worker skew and recursive exchange before any data exists.
pub fn analyze_rules_only(
    rules: &[Rule],
    k: usize,
    strategy: &PartitioningStrategy,
) -> Result<PlanReport, RunError> {
    let context = context_of(strategy)?;
    let opts = LintOptions::for_context(context);
    let route = match strategy {
        PartitioningStrategy::Data(_) => RouteModel::Data {
            cross_fraction: DEFAULT_CROSS_FRACTION,
        },
        PartitioningStrategy::Rule { .. } => {
            let rp = partition_rules(rules, k, None, &PartitionOptions::default());
            RouteModel::Rule {
                assignment: rp.assignment,
            }
        }
        PartitioningStrategy::Auto => {
            return Err(RunError::config(
                "cannot analyze the auto strategy itself; analyze its candidates",
            ))
        }
    };
    let inputs = PlanInputs {
        strategy: strategy.label().to_string(),
        k,
        schema_triples: 0,
        base_sizes: Vec::new(),
        total_base: 0,
        route,
        productions: None,
        exchange_discount: 1.0,
        setup_bytes: None,
        cost: WireCostModel::default(),
    };
    Ok(analyze_plan(rules, &opts, &inputs))
}

/// The outcome of `--strategy auto`: the chosen strategy, its report,
/// and every candidate's report (for the comparison table).
pub struct AutoSelection {
    /// The argmin-cost deny-free strategy.
    pub strategy: PartitioningStrategy,
    /// Its plan report.
    pub report: PlanReport,
    /// All candidates' reports, in [`auto_candidates`] order.
    pub all: Vec<PlanReport>,
    /// Index of the chosen report within `all`.
    pub chosen: usize,
}

/// Score every candidate strategy and select the argmin-cost plan with
/// no deny-level diagnostics. Errors with [`RunError::Plan`] — the
/// non-overridable pre-spawn refusal — when no candidate survives.
pub fn select_auto(
    base: &PlanningBase,
    dict: &Dictionary,
    k: usize,
) -> Result<AutoSelection, RunError> {
    let candidates = auto_candidates(k);
    let mut reports = Vec::with_capacity(candidates.len());
    for c in &candidates {
        reports.push(analyze_strategy(base, dict, k, c)?);
    }
    let chosen = reports
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.has_deny())
        .min_by(|a, b| a.1.total_cost.total_cmp(&b.1.total_cost))
        .map(|(i, _)| i);
    match chosen {
        Some(i) => Ok(AutoSelection {
            strategy: candidates[i].clone(),
            report: reports[i].clone(),
            all: reports,
            chosen: i,
        }),
        None => {
            let deny = reports.iter().map(|r| r.deny_count()).sum();
            let detail = reports
                .iter()
                .map(|r| {
                    let findings = r
                        .diagnostics
                        .iter()
                        .filter(|d| d.severity == owlpar_lint::Severity::Deny)
                        .map(|d| format!("{} {}", d.code.id(), d.message))
                        .collect::<Vec<_>>()
                        .join("; ");
                    format!("{}: {}", r.strategy, if findings.is_empty() {
                        "infeasible".to_string()
                    } else {
                        findings
                    })
                })
                .collect::<Vec<_>>()
                .join(" | ");
            Err(RunError::Plan {
                candidates: reports.iter().map(|r| r.strategy.clone()).collect(),
                deny,
                detail,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use owlpar_datagen::{generate_lubm, LubmConfig};

    fn lubm_base() -> (PlanningBase, Dictionary) {
        let mut g = generate_lubm(&LubmConfig::mini(2));
        let base = PlanningBase::compile(&mut g, &[]);
        (base, g.dict)
    }

    #[test]
    fn productions_do_not_charge_type_rules_the_whole_census() {
        let (base, _) = lubm_base();
        let type_count = base
            .rdf_type
            .and_then(|t| base.hist.get(&t).copied())
            .unwrap_or(0);
        assert!(type_count > 50, "LUBM has a real type census");
        // At least one rule's estimate must be far below the census —
        // the min-body-atom bound is doing its job.
        assert!(base
            .productions
            .iter()
            .any(|&p| p > 0 && (p as usize) < type_count / 4));
    }

    #[test]
    fn all_candidates_analyze_feasibly_on_lubm() {
        let (base, dict) = lubm_base();
        for strategy in auto_candidates(4) {
            let r = analyze_strategy(&base, &dict, 4, &strategy).expect("analyzable");
            assert!(r.feasible, "{} infeasible", r.strategy);
            assert!(r.total_cost.is_finite());
            assert!(r.setup_bytes > 0);
            assert_eq!(r.workers.len(), 4);
        }
    }

    #[test]
    fn scoring_a_prepared_plan_equals_analyzing_its_strategy() {
        // What a traced cluster master does: the run's own partition is
        // scored, not a second one — and the report is the one a fresh
        // analysis of the same strategy gives.
        use crate::config::ParallelConfig;
        for strategy in [
            PartitioningStrategy::data_graph(),
            PartitioningStrategy::rule(),
        ] {
            let mut g = generate_lubm(&LubmConfig::mini(2));
            let cfg = ParallelConfig {
                k: 4,
                strategy: strategy.clone(),
                ..ParallelConfig::default()
            };
            let plan = crate::prepare_run(&mut g, &cfg).expect("plannable");
            let base = PlanningBase::compile(&mut g, &[]);
            let own = analyze_run_plan(&base, &plan).expect("scorable");
            let fresh = analyze_strategy(&base, &g.dict, 4, &strategy).expect("analyzable");
            assert_eq!(own.strategy, fresh.strategy);
            assert_eq!(own.setup_bytes, fresh.setup_bytes, "{}", own.strategy);
            assert_eq!(own.round_bytes, fresh.round_bytes, "{}", own.strategy);
            assert_eq!(own.max_load_share, fresh.max_load_share, "{}", own.strategy);
            assert_eq!(own.rounds.expected, fresh.rounds.expected, "{}", own.strategy);
            assert_eq!(own.total_cost, fresh.total_cost, "{}", own.strategy);
        }
    }

    #[test]
    fn auto_scores_the_paper_two_and_the_cli_rule_is_its_rule() {
        for k in [1, 2, 3, 4, 8] {
            let names: Vec<String> = auto_candidates(k)
                .iter()
                .map(|s| format!("{s:?}"))
                .collect();
            let want = [
                format!("{:?}", PartitioningStrategy::data_graph()),
                format!("{:?}", PartitioningStrategy::Rule { weighted: true }),
            ];
            assert_eq!(names, want, "k={k}");
        }
        // `--strategy rule` runs the rule plan `auto` scores, and
        // `--strategy graph` the data plan.
        let cli = |name| format!("{:?}", PartitioningStrategy::from_name(name).unwrap());
        assert_eq!(cli("rule"), format!("{:?}", auto_candidates(4)[1]));
        assert_eq!(cli("graph"), format!("{:?}", auto_candidates(4)[0]));
    }

    #[test]
    fn auto_selects_argmin_cost() {
        let (base, dict) = lubm_base();
        let sel = select_auto(&base, &dict, 2).expect("a viable plan exists");
        let min = sel
            .all
            .iter()
            .filter(|r| !r.has_deny())
            .map(|r| r.total_cost)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(sel.report.total_cost, min);
        assert_eq!(sel.all[sel.chosen].strategy, sel.report.strategy);
        // Rule partitioning replicates the whole base to every worker;
        // on LUBM the data plan's shipped volume is strictly smaller, so
        // auto must not pick rule here.
        assert_eq!(sel.report.strategy, "data");
    }

    #[test]
    fn rules_only_mode_denies_skewed_rule_plan() {
        // 3 rules over k = 8: at least 5 idle workers — a majority, so
        // OWL015 escalates to deny even without any KB.
        use owlpar_datalog::ast::build::{atom, c, v};
        let mk = |name: &str, p_in: u32, p_out: u32| {
            Rule::new(
                name,
                atom(v(0), c(owlpar_rdf::NodeId(p_out)), v(1)),
                vec![atom(v(0), c(owlpar_rdf::NodeId(p_in)), v(1))],
            )
            .unwrap()
        };
        let rules = vec![mk("a", 10, 11), mk("b", 11, 12), mk("c", 12, 13)];
        let r = analyze_rules_only(&rules, 8, &PartitioningStrategy::rule()).unwrap();
        assert!(r.has_deny());
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.code == owlpar_lint::LintCode::IdleWorkers));
    }

    #[test]
    fn auto_resolution_is_rejected_as_input() {
        let (base, dict) = lubm_base();
        let err = analyze_strategy(&base, &dict, 2, &PartitioningStrategy::Auto).unwrap_err();
        assert!(matches!(err, RunError::Config { .. }));
    }
}
