//! Configuration of a parallel reasoning run.

use crate::comm::CommMode;
use crate::fault::FaultPlan;
use owlpar_datalog::backward::TableScope;
use owlpar_datalog::{MaterializationStrategy, Rule};
use owlpar_partition::multilevel::PartitionOptions;
use owlpar_partition::OwnershipPolicy;
use std::sync::Arc;
use std::time::Duration;

/// Which of the paper's two partitioning approaches to use, and with
/// which policy.
#[derive(Debug, Clone)]
pub enum PartitioningStrategy {
    /// Algorithm 1 — split the instance triples; every worker runs the
    /// complete rule-base.
    Data(OwnershipPolicy),
    /// Algorithm 2 — split the rule-base; every worker holds the complete
    /// data.
    Rule {
        /// Weigh dependency edges with the dataset's predicate histogram.
        weighted: bool,
    },
    /// Let the static plan analyzer pick: score the candidate strategies
    /// (`owlpar_core::plan::auto_candidates`) with the OWL011–OWL016
    /// cost model and run the argmin-cost deny-free plan. Refuses with
    /// [`RunError::Plan`](crate::error::RunError::Plan) — before any
    /// worker spawns — when every candidate has deny-level plan
    /// diagnostics; that refusal is not overridable.
    Auto,
}

impl PartitioningStrategy {
    /// Data partitioning with the graph policy and default options.
    pub fn data_graph() -> Self {
        PartitioningStrategy::Data(OwnershipPolicy::Graph(PartitionOptions::default()))
    }

    /// Data partitioning with hash ownership.
    pub fn data_hash() -> Self {
        PartitioningStrategy::Data(OwnershipPolicy::Hash { seed: 0xa5a5 })
    }

    /// Data partitioning with the domain-specific policy.
    pub fn data_domain() -> Self {
        PartitioningStrategy::Data(OwnershipPolicy::Domain)
    }

    /// Unweighted rule partitioning.
    pub fn rule() -> Self {
        PartitioningStrategy::Rule { weighted: false }
    }

    /// Analyzer-selected strategy.
    pub fn auto() -> Self {
        PartitioningStrategy::Auto
    }

    /// The strategy a user names on a command line:
    /// `graph|hash|domain|rule|auto`. `rule` is the histogram-weighted
    /// rule partitioning, the candidate `auto` scores and runs.
    pub fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "graph" => Ok(PartitioningStrategy::data_graph()),
            "hash" => Ok(PartitioningStrategy::data_hash()),
            "domain" => Ok(PartitioningStrategy::data_domain()),
            "rule" => Ok(PartitioningStrategy::Rule { weighted: true }),
            "auto" => Ok(PartitioningStrategy::Auto),
            other => Err(format!(
                "unknown strategy '{other}' (graph|hash|domain|rule|auto)"
            )),
        }
    }

    /// Short family label (`data` / `rule` / `auto`) — the name plan
    /// reports use.
    pub fn label(&self) -> &'static str {
        match self {
            PartitioningStrategy::Data(_) => "data",
            PartitioningStrategy::Rule { .. } => "rule",
            PartitioningStrategy::Auto => "auto",
        }
    }
}

/// What the master does when a worker is lost mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultRecovery {
    /// Report the loss as a `RunError::Workers` and produce no closure.
    Fail,
    /// Data partitioning only: survivors drain cleanly, the master adopts
    /// the dead worker's base partition and re-closes serially — the
    /// recovered closure equals the serial closure (forward closure is
    /// monotonic). Other strategies fall back to failing.
    #[default]
    AdoptAndReclose,
}

/// Full configuration of a run.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Number of partitions / workers.
    pub k: usize,
    /// Partitioning approach.
    pub strategy: PartitioningStrategy,
    /// Closure engine each worker wraps (paper: Jena's hybrid engine;
    /// default here: the backward per-resource emulation of it).
    pub materialization: MaterializationStrategy,
    /// Inter-partition transport.
    pub comm: CommMode,
    /// Injected faults for robustness testing (`None` = run clean).
    pub fault: Option<Arc<FaultPlan>>,
    /// Patience at the round barrier and for a round's collect; a worker
    /// waiting longer reports a structured timeout instead of hanging.
    pub round_timeout: Duration,
    /// Reaction to losing a worker.
    pub recovery: FaultRecovery,
    /// User-supplied rules evaluated alongside the compiled ontology
    /// rules. They pass through the same pre-spawn lint gate — this is
    /// how a rule-base that is *not* provably partition-safe reaches the
    /// master, since the compiler only emits single-join rules.
    pub extra_rules: Vec<Rule>,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            k: 2,
            strategy: PartitioningStrategy::data_graph(),
            materialization: MaterializationStrategy::BackwardJena(TableScope::PerQuery),
            comm: CommMode::Channel,
            fault: None,
            round_timeout: Duration::from_secs(30),
            recovery: FaultRecovery::default(),
            extra_rules: Vec::new(),
        }
    }
}

impl ParallelConfig {
    /// Convenience: same config with a different k.
    pub fn with_k(&self, k: usize) -> Self {
        ParallelConfig {
            k,
            ..self.clone()
        }
    }

    /// Convenience: fast forward-chaining materialization (used by tests
    /// and the correctness suite; the speedup experiments use the
    /// default backward engine).
    pub fn forward(mut self) -> Self {
        self.materialization = MaterializationStrategy::ForwardSemiNaive;
        self
    }

    /// Convenience: in-node parallel forward closure in every worker.
    /// `threads == 0` lets the master split the machine's parallelism
    /// evenly across the `k` workers at spawn time.
    pub fn forward_parallel(mut self, threads: usize) -> Self {
        self.materialization = MaterializationStrategy::ForwardParallel { threads };
        self
    }

    /// Convenience: attach a fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(Arc::new(plan));
        self
    }

    /// Convenience: set the round/collect patience.
    pub fn with_round_timeout(mut self, timeout: Duration) -> Self {
        self.round_timeout = timeout;
        self
    }

    /// Convenience: set the reaction to worker loss.
    pub fn with_recovery(mut self, recovery: FaultRecovery) -> Self {
        self.recovery = recovery;
        self
    }

    /// Convenience: evaluate `rules` alongside the compiled ontology
    /// rules (they must be interned against the run's dictionary).
    pub fn with_extra_rules(mut self, rules: Vec<Rule>) -> Self {
        self.extra_rules = rules;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ParallelConfig::default();
        assert_eq!(c.k, 2);
        assert!(matches!(
            c.strategy,
            PartitioningStrategy::Data(OwnershipPolicy::Graph(_))
        ));
        assert!(matches!(
            c.materialization,
            MaterializationStrategy::BackwardJena(_)
        ));
    }

    #[test]
    fn with_k_overrides_only_k() {
        let c = ParallelConfig::default().with_k(8);
        assert_eq!(c.k, 8);
        assert!(matches!(c.comm, CommMode::Channel));
    }

    #[test]
    fn forward_switches_materialization() {
        let c = ParallelConfig::default().forward();
        assert_eq!(c.materialization, MaterializationStrategy::ForwardSemiNaive);
    }
}
