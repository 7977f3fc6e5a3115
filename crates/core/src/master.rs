//! The master side of Algorithm 3: partition, distribute, join, aggregate.
//!
//! "The master node partitions either the data-set or the rule-base and
//! sends the appropriate partition to each processor in the system ...
//! Apart from this, the master node also sends a partition table to each
//! processor. ... the master node itself has no role to play once the
//! initial partition is done."
//!
//! Unlike the quote, this master has one more job: **containment and
//! recovery**. Every worker runs inside a `catch_unwind` wrapper; a
//! panicking worker is converted into a structured
//! [`WorkerError::Panicked`], and whichever way a worker leaves the run
//! the wrapper defects from the barrier on its behalf — after raising
//! the shared failure flag if it failed — so the survivors drain cleanly
//! (see `worker`). The tail of a run — aggregate, recover, reconstruct
//! the schedule, report — is [`finish_run`], shared with the cluster
//! master. If the run lost workers, the master either reports a
//! [`RunError::Workers`] or — for data partitioning under
//! [`FaultRecovery::AdoptAndReclose`] — adopts the loss: the original
//! graph still holds every base triple and every survivor's output is a
//! subset of the closure, so re-closing serially yields *exactly* the
//! serial closure (forward closure is monotonic in its inputs).
//!
//! Triples travel as SPO-sorted runs throughout: [`prepare_run`] sorts
//! the KB once and cuts every partition in that order, workers hand back
//! sorted runs of what they gained (never the base they were given — the
//! master graph still has it), and aggregation is a k-way merge of those
//! runs followed by one in-order insert.

use crate::barrier::RoundBarrier;
use crate::comm::build_fabric_with_faults;
use crate::config::{FaultRecovery, ParallelConfig, PartitioningStrategy};
use crate::error::{RunError, WorkerError};
use crate::stats::{PhaseBreakdown, WorkerStats};
use crate::worker::{run_rounds, BarrierVote, Routing, RunFlags, WorkerCtx};
use owlpar_datalog::analysis::{ConsumerIndex, JoinMask};
use owlpar_datalog::{MaterializationStrategy, Reasoner, Rule};
use owlpar_horst::HorstReasoner;
use owlpar_lint::lint_rules;
use owlpar_obs as obs;
use owlpar_partition::metrics::{or_excess, quality, PartitionQuality};
use owlpar_partition::multilevel::PartitionOptions;
use owlpar_partition::{partition_data_ordered, partition_rules};
use owlpar_rdf::vocab::RDF_TYPE;
use owlpar_rdf::{is_sorted_run, merge_runs, Graph, Term, Triple};
use std::borrow::Cow;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything measured about one parallel run.
#[derive(Debug)]
pub struct RunReport {
    /// Number of workers.
    pub k: usize,
    /// Per-worker counters (a lost worker keeps its slot, with default
    /// counters — `workers.len() == k` always holds).
    pub workers: Vec<WorkerStats>,
    /// Max-per-phase breakdown (Fig. 2 convention) + aggregation.
    pub breakdown: PhaseBreakdown,
    /// Time spent partitioning (Table I column).
    pub partition_time: Duration,
    /// **Simulated cluster wall-clock**: Σ over rounds of the slowest
    /// worker's CPU charge — what a machine with one core per partition
    /// would measure. Equals host wall-clock when cores ≥ k.
    pub parallel_time: Duration,
    /// Host wall-clock from worker spawn to last join (contended when the
    /// host has fewer cores than workers; reported for transparency).
    pub host_parallel_time: Duration,
    /// End-to-end time including partitioning and aggregation.
    pub total_time: Duration,
    /// Distinct new triples across the union.
    pub derived: usize,
    /// Final closure size (base + schema + derived).
    pub closure_size: usize,
    /// Output replication excess (paper's OR convention, ≈0 is perfect).
    pub output_replication: f64,
    /// Pre-run partition quality (data strategies only).
    pub partition_quality: Option<PartitionQuality>,
    /// Ownership-graph edge-cut (graph policy only).
    pub edge_cut: Option<u64>,
    /// Workers lost during the run (empty on a clean run). Non-empty
    /// only when recovery succeeded — otherwise the run is an `Err`.
    pub worker_errors: Vec<WorkerError>,
    /// True when worker losses were recovered by the adopt-and-reclose
    /// pass (the closure is still exactly the serial closure).
    pub recovered: bool,
    /// Wire-traffic accounting, filled by the `owlpar-net` cluster
    /// master (the only runtime whose exchanges cross real sockets);
    /// `None` for in-process runs.
    pub wire: Option<crate::stats::WireBytes>,
}

impl RunReport {
    /// Largest round count over the workers.
    pub fn max_rounds(&self) -> usize {
        self.workers.iter().map(|w| w.rounds).max().unwrap_or(0)
    }

    /// Total messages skipped-with-report across workers.
    pub fn total_skipped(&self) -> usize {
        self.workers.iter().map(|w| w.skipped).sum()
    }

    /// Total transient IO failures absorbed by retrying, across workers.
    pub fn total_io_retries(&self) -> usize {
        self.workers.iter().map(|w| w.io_retries).sum()
    }

    /// One-line human summary — what the CLI and the serving layer
    /// print. Deliberately includes the skipped-message and IO-retry
    /// totals (even when zero) so transport trouble is visible, not
    /// buried in per-worker counters.
    pub fn summary(&self) -> String {
        format!(
            "{} worker(s), {} round(s), {} derived, closure {} triples, \
             {} message(s) skipped, {} io retr{}, simulated cluster time {:.3}s",
            self.k,
            self.max_rounds(),
            self.derived,
            self.closure_size,
            self.total_skipped(),
            self.total_io_retries(),
            if self.total_io_retries() == 1 { "y" } else { "ies" },
            self.parallel_time.as_secs_f64(),
        )
    }
}

/// Materialize `graph` serially; returns (derived count, CPU time of the
/// reasoning thread — comparable with the simulated parallel times).
pub fn run_serial(graph: &mut Graph, materialization: MaterializationStrategy) -> (usize, Duration) {
    let rec = obs::global();
    let mut lane = rec.track("serial");
    let start = crate::cputime::CpuTimer::start();
    let compile_span = lane.begin(obs::Phase::Compile, obs::NO_ROUND);
    let hr = HorstReasoner::from_graph(graph, materialization);
    lane.end(compile_span);
    let join_span = lane.begin(obs::Phase::Join, obs::NO_ROUND);
    let derived = hr.materialize(graph);
    lane.end(join_span);
    (derived, start.elapsed())
}

/// Resolve the per-worker in-node thread budget before spawning: an
/// auto (`threads == 0`) [`MaterializationStrategy::ForwardParallel`]
/// splits the machine's parallelism evenly across the `k` workers so the
/// run does not oversubscribe cores. Every other strategy passes through.
/// Public so the cluster master (`owlpar-net`) ships workers the same
/// resolved strategy the in-process spawner would use.
pub fn resolve_materialization(m: MaterializationStrategy, k: usize) -> MaterializationStrategy {
    match m {
        MaterializationStrategy::ForwardParallel { threads: 0 } => {
            let avail = std::thread::available_parallelism().map_or(1, usize::from);
            MaterializationStrategy::ForwardParallel {
                threads: (avail / k.max(1)).max(1),
            }
        }
        other => other,
    }
}

/// Render a contained panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Everything Algorithm 3's master computes *before* any worker exists:
/// the compiled + linted effective rule-base, the partition plan, the
/// run's routing table, and the partition-quality metrics. Shared
/// between [`run_parallel`] (which spawns threads on it) and the
/// `owlpar-net` cluster master (which ships it to worker processes over
/// TCP) so both runtimes distribute byte-identical work.
pub struct RunPlan {
    /// Number of partitions.
    pub k: usize,
    /// Effective strategy — differs from `cfg.strategy` only under
    /// [`PartitioningStrategy::Auto`], which it resolves.
    pub strategy: PartitioningStrategy,
    /// The effective rule-base (compiled ontology rules + extras).
    pub all_rules: Vec<Rule>,
    /// Schema triples, replicated to every worker (an SPO-sorted run).
    pub schema: Vec<Triple>,
    /// Per-worker base (instance) partitions, each an SPO-sorted run.
    pub bases: Vec<Vec<Triple>>,
    /// Per-worker rule subsets.
    pub rules_per_worker: Vec<Vec<Rule>>,
    /// The run's routing table, shared by every worker.
    pub routing: Arc<Routing>,
    /// Pre-run partition quality (data strategies only).
    pub quality: Option<PartitionQuality>,
    /// Ownership-graph edge-cut, when the policy computes one.
    pub edge_cut: Option<u64>,
    /// Time spent compiling, linting and partitioning.
    pub partition_time: Duration,
    /// The analyzer's report for the selected plan — `Some` only when
    /// the run was configured with [`PartitioningStrategy::Auto`].
    pub analysis: Option<owlpar_lint::PlanReport>,
}

/// `triples` as an SPO-sorted run: borrowed when it already is one.
fn sorted_run(triples: &[Triple]) -> Cow<'_, [Triple]> {
    if is_sorted_run(triples) {
        Cow::Borrowed(triples)
    } else {
        let mut run = triples.to_vec();
        run.sort_unstable();
        Cow::Owned(run)
    }
}

impl RunPlan {
    /// Whether losing a worker under this plan is recoverable by the
    /// adopt-and-reclose pass (guaranteed only when every worker ran the
    /// complete rule-base, i.e. data partitioning).
    pub fn recoverable(&self, recovery: FaultRecovery) -> bool {
        matches!(recovery, FaultRecovery::AdoptAndReclose)
            && matches!(self.strategy, PartitioningStrategy::Data(_))
    }
}

/// Serial re-close over the master graph with the *effective* rule-base
/// — the adopt-and-reclose recovery step. Recompiling via [`run_serial`]
/// would silently drop `cfg.extra_rules`, so the caller passes the
/// rule-base the lost run actually used.
fn reclose_serial(graph: &mut Graph, cfg: &ParallelConfig, all_rules: &[Rule]) {
    if cfg.extra_rules.is_empty() {
        run_serial(graph, cfg.materialization);
    } else {
        Reasoner::new(all_rules.to_vec(), cfg.materialization).materialize(&mut graph.store);
    }
}

/// Compile, lint and partition — the master's pre-spawn half of
/// Algorithm 3. Interns the ontology's last constants into `graph.dict`
/// (so freeze the dictionary *after* calling this), and refuses with
/// [`RunError::Lint`] / [`RunError::Config`] before any work is
/// distributed.
pub fn prepare_run(graph: &mut Graph, cfg: &ParallelConfig) -> Result<RunPlan, RunError> {
    if cfg.k < 1 {
        return Err(RunError::config("k must be at least 1"));
    }
    let rec = obs::global();
    let mut lane = rec.track("master");
    let part_span = lane.begin(obs::Phase::Partition, obs::NO_ROUND);

    // Compile the ontology (this interns the last few constants, so it
    // must precede freezing the dictionary).
    let t_part = Instant::now();
    let hr = HorstReasoner::from_graph(graph, cfg.materialization);
    let rdf_type = graph.dict.id(&Term::iri(RDF_TYPE));

    // The run's one sort of the KB — none at all when the store is
    // compacted (a loaded KB), whose iteration is already SPO order.
    // Everything downstream — the partition cuts, the wire blocks, the
    // workers' frozen stores — reads these two runs in order.
    let schema = sorted_run(&hr.schema_triples).into_owned();
    let instance = sorted_run(&hr.instance_triples);

    // Static partition-safety gate: lint the *effective* rule-base
    // (compiled ontology rules plus any user-supplied extras) against the
    // deployment context before any worker spawns. A deny finding means a
    // distributed run could silently miss derivations.
    let mut all_rules: Vec<Rule> = hr.rules().to_vec();
    all_rules.extend(cfg.extra_rules.iter().cloned());
    let mut strategy = cfg.strategy.clone();

    // Auto strategy: score the candidate plans with the static analyzer
    // and take the argmin-cost deny-free one. A plan-level deny on every
    // candidate refuses the run here — before the lint gate, before
    // partitioning, before any worker exists — and is not overridable.
    let mut analysis = None;
    if matches!(strategy, PartitioningStrategy::Auto) {
        let base = crate::plan::PlanningBase::new(
            all_rules.clone(),
            hr.schema_triples.clone(),
            hr.instance_triples.clone(),
            rdf_type,
        );
        let selection = crate::plan::select_auto(&base, &graph.dict, cfg.k)?;
        strategy = selection.strategy;
        analysis = Some(selection.report);
    }

    let context = crate::plan::context_of(&strategy)?;
    let lint = lint_rules(&all_rules, &crate::plan::lint_options(context, rdf_type));
    if lint.has_deny() {
        return Err(RunError::Lint { report: lint });
    }

    // Partition.
    let hist;
    let weights = if matches!(strategy, PartitioningStrategy::Rule { weighted: true }) {
        hist = graph.store.predicate_counts();
        Some(&hist)
    } else {
        None
    };
    let PartitionParts {
        bases,
        rules_per_worker,
        routing,
        quality,
        edge_cut,
    } = build_partitions(
        &strategy,
        cfg.k,
        &all_rules,
        &hr.instance_triples,
        &instance,
        &graph.dict,
        rdf_type,
        weights,
    )?;
    lane.end(part_span);
    Ok(RunPlan {
        k: cfg.k,
        strategy,
        all_rules,
        schema,
        bases,
        rules_per_worker,
        routing,
        quality,
        edge_cut,
        partition_time: t_part.elapsed(),
        analysis,
    })
}

/// One strategy's concrete partitioning — the post-lint half of
/// [`prepare_run`]. `pub(crate)` so the plan analyzer
/// (`crate::plan`) scores candidate strategies through exactly the code
/// path the runtime then distributes: same partitioner, same routing
/// tables, same quality metrics.
pub(crate) struct PartitionParts {
    /// Per-worker base (instance) partitions.
    pub bases: Vec<Vec<Triple>>,
    /// Per-worker rule subsets.
    pub rules_per_worker: Vec<Vec<Rule>>,
    /// The run's routing table, shared by every worker.
    pub routing: Arc<Routing>,
    /// Pre-run partition quality (data strategies only).
    pub quality: Option<PartitionQuality>,
    /// Ownership-graph edge-cut, when the policy computes one.
    pub edge_cut: Option<u64>,
}

/// Partition `instance_triples` and `all_rules` for `k` workers under a
/// **concrete** (non-[`PartitioningStrategy::Auto`]) strategy.
/// Ownership is decided from `instance_triples` in the compiler's order
/// (vertex numbering follows first appearance; re-ordering it would move
/// every assignment); the bases are cut by walking `cut_order` — the same
/// triples, SPO-sorted by [`prepare_run`] so each base is born a sorted
/// run. `predicate_counts` weighs the rule-dependency edges when the
/// strategy asks for it.
#[allow(clippy::too_many_arguments)] // two internal call sites
pub(crate) fn build_partitions(
    strategy: &PartitioningStrategy,
    k: usize,
    all_rules: &[Rule],
    instance_triples: &[Triple],
    cut_order: &[Triple],
    dict: &owlpar_rdf::Dictionary,
    rdf_type: Option<owlpar_rdf::NodeId>,
    predicate_counts: Option<&owlpar_rdf::fx::FxHashMap<owlpar_rdf::NodeId, usize>>,
) -> Result<PartitionParts, RunError> {
    match strategy {
        PartitioningStrategy::Data(policy) => {
            let mask = JoinMask::of(all_rules);
            let dp = partition_data_ordered(
                instance_triples,
                cut_order,
                dict,
                rdf_type,
                k,
                policy,
                &mask,
            );
            let q = quality(&dp.parts, rdf_type);
            Ok(PartitionParts {
                routing: Arc::new(Routing::Data {
                    owner: dp.owner,
                    mask,
                }),
                bases: dp.parts,
                rules_per_worker: (0..k).map(|_| all_rules.to_vec()).collect(),
                quality: Some(q),
                edge_cut: dp.edge_cut,
            })
        }
        PartitioningStrategy::Rule { .. } => {
            let rp = partition_rules(all_rules, k, predicate_counts, &PartitionOptions::default());
            Ok(PartitionParts {
                bases: (0..k).map(|_| cut_order.to_vec()).collect(),
                rules_per_worker: (0..k)
                    .map(|p| {
                        rp.parts[p].iter().map(|&i| all_rules[i].clone()).collect()
                    })
                    .collect(),
                routing: Arc::new(Routing::Rule {
                    consumers: ConsumerIndex::of(all_rules, &rp.assignment, k),
                }),
                quality: None,
                edge_cut: Some(rp.edge_cut),
            })
        }
        PartitioningStrategy::Auto => Err(RunError::config(
            "auto strategy must be resolved by the plan analyzer before partitioning",
        )),
    }
}

/// Run Algorithm 3 over `graph`, materializing it in place.
///
/// Errors: [`RunError::Config`] for an invalid configuration,
/// [`RunError::Fabric`] when the transport cannot even be built, and
/// [`RunError::Workers`] when workers were lost and recovery was
/// unavailable (non-data strategy) or disabled ([`FaultRecovery::Fail`]).
pub fn run_parallel(graph: &mut Graph, cfg: &ParallelConfig) -> Result<RunReport, RunError> {
    let start_total = Instant::now();
    let before_len = graph.len();
    let mut plan = prepare_run(graph, cfg)?;

    // Freeze the dictionary and build the fabric.
    let dict = Arc::new(graph.dict.clone());
    let fabric = build_fabric_with_faults(cfg.k, &cfg.comm, dict, cfg.fault.as_deref())
        .map_err(|source| RunError::Fabric { source })?;
    let barrier = Arc::new(RoundBarrier::new(cfg.k));
    let total_sent = Arc::new(AtomicU64::new(0));
    let flags = Arc::new(RunFlags::new());

    // Spawn the workers, each inside a containment wrapper.
    let t_par = Instant::now();
    let schema = Arc::new(std::mem::take(&mut plan.schema));
    let materialization = resolve_materialization(cfg.materialization, cfg.k);
    let parts = std::mem::take(&mut plan.bases)
        .into_iter()
        .zip(std::mem::take(&mut plan.rules_per_worker))
        .zip(fabric);
    let mut results: Vec<Result<(Vec<Triple>, WorkerStats), WorkerError>> =
        Vec::with_capacity(cfg.k);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(cfg.k);
        // every zipped list has exactly k elements by construction
        for (id, ((base, rules), comm)) in parts.enumerate() {
            let ctx = WorkerCtx {
                id,
                k: cfg.k,
                schema: Arc::clone(&schema),
                base,
                reasoner: Reasoner::new(rules, materialization),
                routing: Arc::clone(&plan.routing),
            };
            let barrier = Arc::clone(&barrier);
            let total_sent = Arc::clone(&total_sent);
            let flags = Arc::clone(&flags);
            handles.push(scope.spawn(move || {
                let progress = Arc::new(AtomicUsize::new(0));
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    // Ambient tracing lane for this worker (one branch
                    // per span when the recorder is disabled; flushed on
                    // drop, including error exits).
                    let mut lane = obs::global().track(&format!("worker {id}"));
                    // Owned in here: the endpoint closes as the worker
                    // leaves, before the flag and the defection below.
                    let mut comm = comm;
                    let mut vote = BarrierVote {
                        barrier: Arc::clone(&barrier),
                        total_sent,
                        last_total: 0,
                        flags: Arc::clone(&flags),
                        round_timeout: cfg.round_timeout,
                        progress: Arc::clone(&progress),
                    };
                    run_rounds(ctx, &mut comm, &mut vote, &mut lane)
                }));
                let result = outcome.unwrap_or_else(|payload| {
                    Err(WorkerError::Panicked {
                        worker: id,
                        round: progress.load(Ordering::Relaxed),
                        message: panic_message(payload.as_ref()),
                    })
                });
                // Leaving the run — on quiescence, drain, structured
                // error or contained panic — must shrink the barrier
                // membership: a peer that raced past the failure flag may
                // already be waiting on the next barrier, and without
                // this defection it would stall there until its round
                // timeout. A failure raises the flag *before* defecting,
                // then releases anyone the lost worker would have kept
                // waiting (see worker.rs module docs).
                if result.is_err() {
                    flags.fail();
                }
                barrier.defect();
                result
            }));
        }
        for (id, h) in handles.into_iter().enumerate() {
            results.push(h.join().unwrap_or_else(|_| {
                Err(WorkerError::Panicked {
                    worker: id,
                    round: 0,
                    message: "worker thread died outside containment".to_string(),
                })
            }));
        }
    });
    let host_parallel_time = t_par.elapsed();

    let mut outcomes = Vec::with_capacity(cfg.k);
    let mut worker_errors = Vec::new();
    for r in results {
        match r {
            Ok(outcome) => outcomes.push(Some(outcome)),
            Err(e) => {
                worker_errors.push(e);
                outcomes.push(None);
            }
        }
    }
    let mut lane = obs::global().track("master");
    finish_run(
        graph,
        cfg,
        &plan,
        &mut lane,
        outcomes,
        worker_errors,
        (start_total, before_len, host_parallel_time),
        None,
    )
}

/// The tail both masters share: aggregate what the workers handed back
/// into `graph`, recover from lost workers if the plan allows it,
/// reconstruct the cluster's wall-clock and assemble the report.
///
/// `outcomes[id]` is worker `id`'s derived-only run and statistics,
/// `None` if it was lost (it keeps its slot in the report, with default
/// counters); `worker_errors` says why, one entry per lost worker.
/// `clock` is `(run start, graph size at run start, host wall-clock from
/// worker spawn to last join)`. Spans (`Aggregate`, `Recovery`) go on the
/// calling master's `lane`.
#[allow(clippy::too_many_arguments)] // the two masters are the only callers
pub fn finish_run(
    graph: &mut Graph,
    cfg: &ParallelConfig,
    plan: &RunPlan,
    lane: &mut obs::Track,
    outcomes: Vec<Option<(Vec<Triple>, WorkerStats)>>,
    worker_errors: Vec<WorkerError>,
    clock: (Instant, usize, Duration),
    wire: Option<crate::stats::WireBytes>,
) -> Result<RunReport, RunError> {
    let (start_total, before_len, host_parallel_time) = clock;
    // Aggregate: merge the survivors' runs and fold the result into the
    // master graph's base — no triple is hashed, and the base triples
    // never left the graph.
    let agg_span = lane.begin(obs::Phase::Aggregate, obs::NO_ROUND);
    let t_agg = Instant::now();
    let mut worker_stats = Vec::with_capacity(outcomes.len());
    let mut output_sizes = Vec::with_capacity(outcomes.len());
    let mut runs: Vec<Vec<Triple>> = Vec::with_capacity(outcomes.len());
    for (id, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Some((run, stats)) => {
                output_sizes.push(stats.output_size);
                runs.push(run);
                worker_stats.push(stats);
            }
            None => worker_stats.push(WorkerStats {
                id,
                ..WorkerStats::default()
            }),
        }
    }
    graph.store.merge_run(&merge_runs(&runs));

    // Recovery. The master graph still holds every base and schema
    // triple (it was never emptied, and aggregation only adds), and each
    // survivor's run is a subset of the closure, so a serial re-close
    // over the union is exactly the serial closure. Guaranteed for data
    // partitioning, where every worker ran the complete rule-base;
    // rule-partitioning losses are reported instead.
    let mut recovered = false;
    if !worker_errors.is_empty() {
        if !plan.recoverable(cfg.recovery) {
            return Err(RunError::Workers {
                errors: worker_errors,
            });
        }
        let rec_span = lane.begin(obs::Phase::Recovery, obs::NO_ROUND);
        reclose_serial(graph, cfg, &plan.all_rules);
        lane.end(rec_span);
        recovered = true;
    }
    let aggregation = t_agg.elapsed();
    lane.end(agg_span);

    // Reconstruct the cluster's wall-clock: replay the synchronous
    // schedule (per-round maxima + barrier slack).
    let (parallel_time, sim_sync) = crate::stats::simulate_rounds(&worker_stats);
    for (w, s) in worker_stats.iter_mut().zip(sim_sync) {
        w.sync_time = s;
    }

    let closure_size = graph.len();
    Ok(RunReport {
        k: plan.k,
        breakdown: PhaseBreakdown::from_workers(&worker_stats, aggregation),
        workers: worker_stats,
        partition_time: plan.partition_time,
        parallel_time,
        host_parallel_time,
        total_time: start_total.elapsed(),
        derived: closure_size - before_len,
        closure_size,
        output_replication: or_excess(&output_sizes, closure_size),
        partition_quality: plan.quality.clone(),
        edge_cut: plan.edge_cut,
        worker_errors,
        recovered,
        wire,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::comm::{CommMode, WireFormat};
    use crate::fault::{FaultKind, FaultPlan};
    use owlpar_datagen::{generate_lubm, generate_mdc, generate_uobm, LubmConfig, MdcConfig, UobmConfig};

    fn serial_closure(mut g: Graph) -> (u64, usize) {
        run_serial(&mut g, MaterializationStrategy::ForwardSemiNaive);
        (g.term_fingerprint(), g.len())
    }

    fn assert_parallel_matches_serial(g0: &Graph, cfg: &ParallelConfig) {
        let (want_fp, want_len) = serial_closure(g0.clone());
        let mut g = g0.clone();
        let report = run_parallel(&mut g, cfg).expect("run succeeds");
        assert_eq!(g.len(), want_len, "closure size mismatch ({cfg:?})");
        assert_eq!(g.term_fingerprint(), want_fp, "closure mismatch ({cfg:?})");
        assert!(report.derived > 0);
        assert_eq!(report.k, cfg.k);
    }

    #[test]
    fn lubm_data_graph_partitioning_all_k() {
        let g0 = generate_lubm(&LubmConfig::mini(2));
        for k in [1, 2, 4] {
            let cfg = ParallelConfig {
                k,
                strategy: PartitioningStrategy::data_graph(),
                ..ParallelConfig::default()
            }
            .forward();
            assert_parallel_matches_serial(&g0, &cfg);
        }
    }

    #[test]
    fn lubm_data_hash_partitioning() {
        let g0 = generate_lubm(&LubmConfig::mini(2));
        let cfg = ParallelConfig {
            k: 3,
            strategy: PartitioningStrategy::data_hash(),
            ..ParallelConfig::default()
        }
        .forward();
        assert_parallel_matches_serial(&g0, &cfg);
    }

    #[test]
    fn lubm_data_domain_partitioning() {
        let g0 = generate_lubm(&LubmConfig::mini(3));
        let cfg = ParallelConfig {
            k: 3,
            strategy: PartitioningStrategy::data_domain(),
            ..ParallelConfig::default()
        }
        .forward();
        assert_parallel_matches_serial(&g0, &cfg);
    }

    #[test]
    fn lubm_rule_partitioning() {
        let g0 = generate_lubm(&LubmConfig::mini(2));
        for weighted in [false, true] {
            let cfg = ParallelConfig {
                k: 3,
                strategy: PartitioningStrategy::Rule { weighted },
                ..ParallelConfig::default()
            }
            .forward();
            assert_parallel_matches_serial(&g0, &cfg);
        }
    }

    #[test]
    fn mdc_transitive_chains_across_partitions() {
        let g0 = generate_mdc(&MdcConfig::mini());
        let cfg = ParallelConfig {
            k: 4,
            strategy: PartitioningStrategy::data_graph(),
            ..ParallelConfig::default()
        }
        .forward();
        assert_parallel_matches_serial(&g0, &cfg);
    }

    #[test]
    fn uobm_dense_graph_partitioning() {
        let g0 = generate_uobm(&UobmConfig::mini(2));
        let cfg = ParallelConfig {
            k: 2,
            strategy: PartitioningStrategy::data_graph(),
            ..ParallelConfig::default()
        }
        .forward();
        assert_parallel_matches_serial(&g0, &cfg);
    }

    #[test]
    fn backward_engine_parallel_matches_serial() {
        let g0 = generate_mdc(&MdcConfig::mini());
        let cfg = ParallelConfig {
            k: 2,
            strategy: PartitioningStrategy::data_graph(),
            ..ParallelConfig::default()
        }; // default = backward per-resource
        assert_parallel_matches_serial(&g0, &cfg);
    }

    #[test]
    fn shared_file_comm_matches_channel() {
        let g0 = generate_lubm(&LubmConfig::mini(2));
        for format in [WireFormat::Binary, WireFormat::NTriples] {
            let cfg = ParallelConfig {
                k: 3,
                comm: CommMode::SharedFile { dir: None, format },
                ..ParallelConfig::default()
            }
            .forward();
            assert_parallel_matches_serial(&g0, &cfg);
        }
    }

    #[test]
    fn report_carries_metrics() {
        let g0 = generate_lubm(&LubmConfig::mini(2));
        let mut g = g0.clone();
        let report = run_parallel(
            &mut g,
            &ParallelConfig {
                k: 4,
                ..ParallelConfig::default()
            }
            .forward(),
        )
        .expect("run succeeds");
        assert_eq!(report.workers.len(), 4);
        assert!(report.max_rounds() >= 1);
        assert!(report.closure_size > g0.len());
        assert_eq!(report.total_skipped(), 0);
        let line = report.summary();
        assert!(line.contains("0 message(s) skipped"), "summary surfaces skipped: {line}");
        assert!(line.contains("4 worker(s)"));
        let q = report.partition_quality.expect("data strategy has quality");
        assert_eq!(q.node_counts.len(), 4);
        assert!(q.ir >= 1.0);
        assert!(report.edge_cut.is_some());
        assert!(report.output_replication >= 0.0);
        assert!(report.worker_errors.is_empty());
        assert!(!report.recovered);
    }

    #[test]
    fn zero_k_is_config_error() {
        let mut g = generate_lubm(&LubmConfig::mini(1));
        let err = run_parallel(&mut g, &ParallelConfig::default().with_k(0)).unwrap_err();
        assert!(matches!(err, RunError::Config { .. }));
    }

    #[test]
    fn k1_equals_serial_with_no_comm() {
        let g0 = generate_lubm(&LubmConfig::mini(1));
        let mut g = g0.clone();
        let report = run_parallel(&mut g, &ParallelConfig::default().with_k(1).forward())
            .expect("run succeeds");
        assert_eq!(report.workers[0].sent, 0);
        assert_eq!(report.workers[0].received, 0);
        assert_eq!(report.max_rounds(), 1);
        let (fp, len) = serial_closure(g0);
        assert_eq!(g.len(), len);
        assert_eq!(g.term_fingerprint(), fp);
    }

    #[test]
    fn worker_panic_is_contained_and_recovered() {
        // Data partitioning + AdoptAndReclose (the default): a worker
        // panicking at round 1 must yield a *recovered* run whose
        // closure equals the serial closure.
        let g0 = generate_mdc(&MdcConfig::mini());
        let (want_fp, want_len) = serial_closure(g0.clone());
        let mut g = g0.clone();
        let cfg = ParallelConfig {
            k: 4,
            strategy: PartitioningStrategy::data_graph(),
            ..ParallelConfig::default()
        }
        .forward()
        .with_round_timeout(Duration::from_secs(300))
        .with_faults(FaultPlan::new().with(1, 2, FaultKind::Panic));
        let report = run_parallel(&mut g, &cfg).expect("recovered run succeeds");
        assert!(report.recovered, "panic at round 1 triggers recovery");
        assert!(report
            .worker_errors
            .iter()
            .any(|e| matches!(e, WorkerError::Panicked { worker: 2, .. })));
        assert_eq!(report.workers.len(), 4, "dead worker keeps its slot");
        assert_eq!(g.len(), want_len);
        assert_eq!(g.term_fingerprint(), want_fp);
    }

    /// A LUBM graph carrying a 3-cycle over a fresh predicate, plus the
    /// multi-join rule `(?a p ?b)(?b p ?c)(?c p ?a) -> (?a q ?c)` that
    /// fires on it. The rule is NOT single-join, so the compiled-rulebase
    /// safety proof does not cover it.
    fn graph_with_multi_join_rule() -> (Graph, owlpar_datalog::Rule) {
        use owlpar_datalog::ast::build::{atom, c, v};
        let mut g = generate_lubm(&LubmConfig::mini(1));
        g.insert_iris("http://x/a", "http://x/p", "http://x/b");
        g.insert_iris("http://x/b", "http://x/p", "http://x/c");
        g.insert_iris("http://x/c", "http://x/p", "http://x/a");
        let p = g.intern(Term::iri("http://x/p"));
        let q = g.intern(Term::iri("http://x/q"));
        let rule = owlpar_datalog::Rule::new(
            "tri",
            atom(v(0), c(q), v(2)),
            vec![
                atom(v(0), c(p), v(1)),
                atom(v(1), c(p), v(2)),
                atom(v(2), c(p), v(0)),
            ],
        )
        .expect("tri rule is well-formed");
        (g, rule)
    }

    /// Serial oracle for the effective (compiled + extra) rule-base.
    fn serial_closure_with_extra(g0: &Graph, extra: &owlpar_datalog::Rule) -> (u64, usize) {
        let mut g = g0.clone();
        let hr = HorstReasoner::from_graph(&mut g, MaterializationStrategy::ForwardSemiNaive);
        let mut rules = hr.rules().to_vec();
        rules.push(extra.clone());
        Reasoner::new(rules, MaterializationStrategy::ForwardSemiNaive)
            .materialize(&mut g.store);
        (g.term_fingerprint(), g.len())
    }

    #[test]
    fn lint_gate_refuses_multi_join_rule_under_data_partitioning() {
        let (g0, rule) = graph_with_multi_join_rule();
        let mut g = g0.clone();
        let before = g.len();
        let cfg = ParallelConfig {
            k: 3,
            strategy: PartitioningStrategy::data_graph(),
            ..ParallelConfig::default()
        }
        .forward()
        .with_extra_rules(vec![rule]);
        let err = run_parallel(&mut g, &cfg).unwrap_err();
        let RunError::Lint { report } = err else {
            panic!("expected Lint error, got {err}");
        };
        assert!(report.has_deny());
        assert_eq!(report.unsafe_rule_names(), vec!["tri".to_string()]);
        assert!(report
            .deny_findings()
            .any(|d| d.code == owlpar_lint::LintCode::NonSingleJoin));
        // Refused before any worker spawned: the graph is untouched.
        assert_eq!(g.len(), before, "no partial closure on refusal");
    }

    /// LUBM plus `(?x rdf:type ?c) (?y rdf:type ?c) -> (?x sameClassAs ?y)`:
    /// single-join, but on a class, which no partition owns — the two
    /// type triples of a match sit with the owners of `?x` and `?y`.
    fn graph_with_class_join_rule() -> (Graph, owlpar_datalog::Rule) {
        use owlpar_datalog::ast::build::{atom, c, v};
        let mut g = generate_lubm(&LubmConfig::mini(2));
        let ty = g.intern(Term::iri(RDF_TYPE));
        let same = g.intern(Term::iri("http://x/sameClassAs"));
        let rule = owlpar_datalog::Rule::new(
            "same_class",
            atom(v(0), c(same), v(1)),
            vec![atom(v(0), c(ty), v(2)), atom(v(1), c(ty), v(2))],
        )
        .expect("well-formed");
        (g, rule)
    }

    #[test]
    fn lint_gate_refuses_a_join_on_a_class_under_data_partitioning() {
        let (g0, rule) = graph_with_class_join_rule();
        for k in [2, 4] {
            let mut g = g0.clone();
            let cfg = ParallelConfig {
                k,
                strategy: PartitioningStrategy::data_graph(),
                ..ParallelConfig::default()
            }
            .forward()
            .with_extra_rules(vec![rule.clone()]);
            let err = run_parallel(&mut g, &cfg).unwrap_err();
            let RunError::Lint { report } = err else {
                panic!("expected Lint error, got {err}");
            };
            assert_eq!(report.unsafe_rule_names(), vec!["same_class".to_string()]);
            assert!(report
                .deny_findings()
                .all(|d| d.code == owlpar_lint::LintCode::UnownedJoin));
            assert_eq!(g.len(), g0.len(), "no partial closure on refusal");
        }
    }

    #[test]
    fn class_join_falls_back_to_rule_partitioning_and_matches_serial() {
        let (g0, rule) = graph_with_class_join_rule();
        let (want_fp, want_len) = serial_closure_with_extra(&g0, &rule);
        for k in [2, 3, 4] {
            let mut g = g0.clone();
            let cfg = ParallelConfig {
                k,
                strategy: PartitioningStrategy::Auto,
                ..ParallelConfig::default()
            }
            .forward()
            .with_extra_rules(vec![rule.clone()]);
            let plan = prepare_run(&mut g.clone(), &cfg).expect("auto plan prepares");
            assert!(
                matches!(plan.strategy, PartitioningStrategy::Rule { .. }),
                "k={k}: auto must pick rule partitioning"
            );
            run_parallel(&mut g, &cfg).expect("fallback run succeeds");
            assert_eq!(
                (g.len(), g.term_fingerprint()),
                (want_len, want_fp),
                "k={k}"
            );
        }
    }

    #[test]
    fn lint_gate_replication_fallback_matches_serial() {
        let (g0, rule) = graph_with_multi_join_rule();
        let (want_fp, want_len) = serial_closure_with_extra(&g0, &rule);
        let mut g = g0.clone();
        let cfg = ParallelConfig {
            k: 3,
            strategy: PartitioningStrategy::Auto,
            ..ParallelConfig::default()
        }
        .forward()
        .with_extra_rules(vec![rule]);
        let report = run_parallel(&mut g, &cfg).expect("fallback run succeeds");
        assert_eq!(report.k, 3);
        assert_eq!(g.len(), want_len);
        assert_eq!(g.term_fingerprint(), want_fp);
    }

    #[test]
    fn multi_join_extra_rule_is_fine_under_rule_partitioning() {
        let (g0, rule) = graph_with_multi_join_rule();
        let (want_fp, want_len) = serial_closure_with_extra(&g0, &rule);
        let mut g = g0.clone();
        let cfg = ParallelConfig {
            k: 3,
            strategy: PartitioningStrategy::rule(),
            ..ParallelConfig::default()
        }
        .forward()
        .with_extra_rules(vec![rule]);
        let report = run_parallel(&mut g, &cfg).expect("rule partitioning accepts any join shape");
        assert_eq!(report.k, 3);
        assert_eq!(g.len(), want_len);
        assert_eq!(g.term_fingerprint(), want_fp);
    }

    #[test]
    fn broken_extra_rule_refuses_even_with_replication_fallback() {
        use owlpar_datalog::ast::build::{atom, c, v};
        let mut g = generate_lubm(&LubmConfig::mini(1));
        let p = g.intern(Term::iri("http://x/p"));
        // Head variable ?1 never bound in the body: not range-restricted.
        let broken = owlpar_datalog::Rule::unchecked(
            "broken",
            atom(v(0), c(p), v(1)),
            vec![atom(v(0), c(p), v(0))],
            2,
        );
        let cfg = ParallelConfig {
            strategy: PartitioningStrategy::Auto,
            ..ParallelConfig::default()
        }
        .forward()
        .with_extra_rules(vec![broken]);
        let before = g.len();
        let err = run_parallel(&mut g, &cfg).unwrap_err();
        let RunError::Plan {
            candidates,
            deny,
            detail,
        } = err
        else {
            panic!("expected Plan error, got {err}");
        };
        assert_eq!(candidates, vec!["data".to_string(), "rule".to_string()]);
        assert!(deny >= 2, "{detail}");
        // OWL004 (not range-restricted) refuses both candidates.
        let owl004 = owlpar_lint::LintCode::NotRangeRestricted.id();
        for part in detail.split(" | ") {
            assert!(part.contains(owl004), "{part}");
        }
        assert_eq!(g.len(), before, "no partial closure on refusal");
    }

    #[test]
    fn auto_strategy_resolves_and_matches_serial() {
        let g0 = generate_lubm(&LubmConfig::mini(2));
        for k in [2, 4] {
            let cfg = ParallelConfig {
                k,
                strategy: PartitioningStrategy::Auto,
                ..ParallelConfig::default()
            }
            .forward();
            assert_parallel_matches_serial(&g0, &cfg);
        }
    }

    #[test]
    fn auto_attaches_the_argmin_plan_report() {
        let mut g = generate_lubm(&LubmConfig::mini(2));
        let cfg = ParallelConfig {
            k: 2,
            strategy: PartitioningStrategy::Auto,
            ..ParallelConfig::default()
        }
        .forward();
        let plan = prepare_run(&mut g, &cfg).expect("auto plan prepares");
        let report = plan.analysis.expect("auto runs carry the analyzer report");
        assert!(!report.has_deny());
        assert!(report.total_cost.is_finite());
        // The resolved strategy is concrete and matches the report.
        assert!(!matches!(plan.strategy, PartitioningStrategy::Auto));
        assert_eq!(plan.strategy.label(), report.strategy);
        // Rule partitioning ships the whole base k times; on LUBM the
        // analyzer must prefer the data split.
        assert_eq!(report.strategy, "data");
    }

    #[test]
    fn explicit_strategies_carry_no_analysis() {
        let mut g = generate_lubm(&LubmConfig::mini(1));
        let plan = prepare_run(&mut g, &ParallelConfig::default().forward())
            .expect("plan prepares");
        assert!(plan.analysis.is_none());
    }

    #[test]
    fn worker_panic_without_recovery_is_structured_error() {
        let mut g = generate_mdc(&MdcConfig::mini());
        let cfg = ParallelConfig {
            k: 4,
            strategy: PartitioningStrategy::data_graph(),
            ..ParallelConfig::default()
        }
        .forward()
        .with_round_timeout(Duration::from_secs(300))
        .with_recovery(FaultRecovery::Fail)
        .with_faults(FaultPlan::new().with(1, 1, FaultKind::Panic));
        let err = run_parallel(&mut g, &cfg).unwrap_err();
        match err {
            RunError::Workers { errors } => {
                assert!(errors.iter().any(|e| matches!(
                    e,
                    WorkerError::Panicked {
                        worker: 1,
                        round: 1,
                        ..
                    }
                )));
            }
            other => panic!("expected Workers error, got {other}"),
        }
    }
}
