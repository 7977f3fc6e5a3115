//! The reasoner facade: a rule set plus a materialization strategy.
//!
//! The paper's parallel algorithm is "built as a wrapper over an existing
//! reasoner" (§IV); [`Reasoner`] is the seam that wrapper plugs into. The
//! two strategies correspond to the two engines the paper discusses:
//! bottom-up datalog evaluation and Jena's per-resource backward chaining.

use crate::ast::Rule;
use crate::backward::{BackwardEngine, TableScope};
use crate::forward::{forward_closure, forward_closure_delta};
use crate::parallel::{parallel_closure, parallel_closure_delta};
use crate::program::Program;
use owlpar_rdf::{Triple, TripleStore};

/// How a [`Reasoner`] computes the closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaterializationStrategy {
    /// Semi-naive bottom-up evaluation — efficient, near-linear in the
    /// size of the output.
    #[default]
    ForwardSemiNaive,
    /// Semi-naive bottom-up evaluation with each round's delta sharded
    /// across `threads` in-node worker threads joining against a frozen
    /// CSR base (`threads == 0` ⇒ all available parallelism). Identical
    /// fixpoint to [`ForwardSemiNaive`](Self::ForwardSemiNaive).
    ForwardParallel {
        /// In-node thread budget; `0` means auto-detect.
        threads: usize,
    },
    /// Jena emulation: per-resource queries through a tabled SLD engine.
    /// Super-linear in KB size; the strategy behind the paper's Fig. 1/4.
    BackwardPerResource(TableScope),
    /// Faithful Jena cost model: per resource, enumerate a candidate
    /// triple for every (predicate, object) pair in the KB and prove each
    /// (§VI-A of the paper) — Θ(resources × triples) per sweep, the
    /// strongly super-linear regime that the paper's Fig. 1/3/4 exhibit.
    BackwardJena(TableScope),
}

/// A rule set bound to a materialization strategy, and the evaluation
/// program the forward engines run, compiled from it once, here.
#[derive(Debug, Clone)]
pub struct Reasoner {
    rules: Vec<Rule>,
    program: Program,
    /// Closure strategy.
    pub strategy: MaterializationStrategy,
}

impl Reasoner {
    /// Create a reasoner with the given strategy.
    pub fn new(rules: Vec<Rule>, strategy: MaterializationStrategy) -> Self {
        let program = Program::compile(&rules);
        Reasoner {
            rules,
            program,
            strategy,
        }
    }

    /// The rule-base, as given.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The rule-base compiled for the forward engines.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Forward semi-naive reasoner.
    pub fn forward(rules: Vec<Rule>) -> Self {
        Self::new(rules, MaterializationStrategy::ForwardSemiNaive)
    }

    /// Jena-style backward reasoner (per-query tabling).
    pub fn backward(rules: Vec<Rule>) -> Self {
        Self::new(
            rules,
            MaterializationStrategy::BackwardPerResource(TableScope::PerQuery),
        )
    }

    /// Compute the closure of `store` in place; returns #derived triples.
    pub fn materialize(&self, store: &mut TripleStore) -> usize {
        match self.strategy {
            MaterializationStrategy::ForwardSemiNaive => forward_closure(store, &self.program),
            MaterializationStrategy::ForwardParallel { threads } => {
                parallel_closure(store, &self.program, threads)
            }
            MaterializationStrategy::BackwardPerResource(scope) => {
                BackwardEngine::new(&self.rules, scope).materialize(store)
            }
            MaterializationStrategy::BackwardJena(scope) => {
                BackwardEngine::new(&self.rules, scope).materialize_jena(store)
            }
        }
    }

    /// Incremental closure: `store` was closed, then the triples in
    /// `delta` were inserted. Returns the derived consequences.
    ///
    /// The forward strategy is natively incremental (semi-naive seeded
    /// with the delta). The backward strategies re-query, but — when every
    /// rule is single-join, which compiled OWL-Horst rule-bases guarantee —
    /// only the delta's single-join neighbourhood needs re-querying; with
    /// any non-single-join rule present they fall back to a full
    /// re-materialization.
    pub fn materialize_delta(&self, store: &mut TripleStore, delta: Vec<Triple>) -> Vec<Triple> {
        let scope = match self.strategy {
            MaterializationStrategy::ForwardSemiNaive => {
                return forward_closure_delta(store, &self.program, delta);
            }
            MaterializationStrategy::ForwardParallel { threads } => {
                return parallel_closure_delta(store, &self.program, delta, threads);
            }
            MaterializationStrategy::BackwardPerResource(scope)
            | MaterializationStrategy::BackwardJena(scope) => scope,
        };
        let jena = matches!(self.strategy, MaterializationStrategy::BackwardJena(_));
        let mut engine = BackwardEngine::new(&self.rules, scope);
        if self.rules.iter().all(crate::analysis::is_single_join) {
            if jena {
                engine.materialize_delta_jena(store, &delta)
            } else {
                engine.materialize_delta(store, &delta)
            }
        } else {
            // conservative: full re-materialization + diff
            let before_set: owlpar_rdf::fx::FxHashSet<Triple> =
                store.iter().collect();
            if jena {
                engine.materialize_jena(store);
            } else {
                engine.materialize(store);
            }
            store
                .iter()
                .filter(|t| !before_set.contains(t))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::ast::build::*;
    use owlpar_rdf::NodeId;

    const P: u32 = 10;

    fn nid(i: u32) -> NodeId {
        NodeId(i)
    }

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(nid(s), nid(p), nid(o))
    }

    fn trans() -> Vec<Rule> {
        vec![Rule::new(
            "trans",
            atom(v(0), c(nid(P)), v(2)),
            vec![atom(v(0), c(nid(P)), v(1)), atom(v(1), c(nid(P)), v(2))],
        )
        .unwrap()]
    }

    #[test]
    fn strategies_agree() {
        let base = [t(0, P, 1), t(1, P, 2), t(2, P, 3)];
        let mut fwd: TripleStore = base.into_iter().collect();
        Reasoner::forward(trans()).materialize(&mut fwd);
        let mut bwd: TripleStore = base.into_iter().collect();
        Reasoner::backward(trans()).materialize(&mut bwd);
        assert_eq!(fwd.iter_sorted(), bwd.iter_sorted());
        let mut jena: TripleStore = base.into_iter().collect();
        Reasoner::new(
            trans(),
            MaterializationStrategy::BackwardJena(crate::backward::TableScope::PerQuery),
        )
        .materialize(&mut jena);
        assert_eq!(fwd.iter_sorted(), jena.iter_sorted());
    }

    #[test]
    fn delta_falls_back_for_non_single_join_rules() {
        use crate::ast::build::*;
        // a 3-atom rule forces the conservative full re-materialization
        let multi = Rule::new(
            "multi",
            atom(v(0), c(nid(P)), v(2)),
            vec![
                atom(v(0), c(nid(P)), v(1)),
                atom(v(1), c(nid(P)), v(2)),
                atom(v(2), c(nid(P)), v(3)),
            ],
        )
        .unwrap();
        let r = Reasoner::backward(vec![multi]);
        let mut s: TripleStore = [t(0, P, 1), t(1, P, 2)].into_iter().collect();
        r.materialize(&mut s);
        s.insert(t(2, P, 3));
        let derived = r.materialize_delta(&mut s, vec![t(2, P, 3)]);
        // body 0→1→2→3 fires with head (v0, P, v2) = (0, P, 2)
        assert_eq!(derived, vec![t(0, P, 2)]);
    }

    #[test]
    fn delta_materialization_forward() {
        let r = Reasoner::forward(trans());
        let mut s: TripleStore = [t(0, P, 1)].into_iter().collect();
        r.materialize(&mut s);
        s.insert(t(1, P, 2));
        let derived = r.materialize_delta(&mut s, vec![t(1, P, 2)]);
        assert_eq!(derived, vec![t(0, P, 2)]);
    }

    #[test]
    fn delta_materialization_backward_reports_new() {
        let r = Reasoner::backward(trans());
        let mut s: TripleStore = [t(0, P, 1)].into_iter().collect();
        r.materialize(&mut s);
        s.insert(t(1, P, 2));
        let mut derived = r.materialize_delta(&mut s, vec![t(1, P, 2)]);
        derived.sort_unstable();
        assert_eq!(derived, vec![t(0, P, 2)]);
    }

    #[test]
    fn default_strategy_is_forward() {
        assert_eq!(
            MaterializationStrategy::default(),
            MaterializationStrategy::ForwardSemiNaive
        );
    }
}
