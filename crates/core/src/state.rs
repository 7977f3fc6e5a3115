//! A worker's local triples, as sorted runs from load to hand-back.
//!
//! The round loop ([`run_rounds`](crate::worker::run_rounds)) keeps its
//! partition in one [`WorkerState`], whatever carries its messages. The
//! state is one [`TripleStore`]. The schema and partition runs a worker
//! is shipped are already SPO-sorted, so they become the SPO family of
//! the store's frozen base as they are (only POS is sorted); round 0
//! closes that base with the frozen-store delta closure and adopts the
//! result; each later round's deliveries and their consequences go into
//! the store's hash overlay, which it folds into the base by linear
//! merge once outgrown ([`TripleStore::compact_if_outgrown`] — the
//! serving layer's policy, because it is the same store). No per-triple
//! hash index is ever built over the partition.
//!
//! What a worker hands back is **only what it was not shipped**: the
//! master still holds every schema and base triple, so
//! [`WorkerState::finish`] returns the sorted, duplicate-free run of
//! triples derived here or received from peers, plus the full local size
//! for the statistics.
//!
//! Everything stays inside the worker's resolved thread budget:
//! `ForwardSemiNaive` is one thread — nothing is ever spawned — and
//! `ForwardParallel { threads }` caps joins, freezes and folds together
//! at `threads`. The backward engines need per-triple indexes to prove
//! goals against; they keep the same store and never compact it.

use owlpar_datalog::forward::forward_closure_delta;
use owlpar_datalog::parallel::{resolve_threads, MIN_PARALLEL_DELTA};
use owlpar_datalog::{closure_delta_within, closure_within, MaterializationStrategy, Reasoner};
use owlpar_rdf::{merge_runs, FrozenStore, Triple, TripleStore};
use std::sync::Arc;

/// One worker's partition, its reasoner, and the record of what it has
/// gained since it was shipped. See the module docs.
pub struct WorkerState {
    reasoner: Reasoner,
    /// Forward engines: the thread budget for joins, freezes and folds
    /// (the caller's thread included). `None` for the backward engines,
    /// whose store stays a hash store.
    budget: Option<usize>,
    store: TripleStore,
    /// Every triple that arrived or was derived after the load, each
    /// once, in arrival order.
    gained: Vec<Triple>,
}

impl WorkerState {
    /// Load the shipped partition: `schema` and `base` are SPO-sorted,
    /// duplicate-free runs (decoded triple blocks, or the master's own
    /// sorted cuts). The engine — and with it the thread budget — is
    /// `reasoner.strategy`, already resolved by the master.
    pub fn load(schema: &[Triple], base: &[Triple], reasoner: Reasoner) -> Self {
        let budget = match reasoner.strategy {
            MaterializationStrategy::ForwardSemiNaive => Some(1),
            MaterializationStrategy::ForwardParallel { threads } => Some(resolve_threads(threads)),
            MaterializationStrategy::BackwardPerResource(_)
            | MaterializationStrategy::BackwardJena(_) => None,
        };
        let shipped = merge_runs(&[schema, base]);
        let store = match budget {
            Some(threads) => {
                let mut store = TripleStore::new();
                store.adopt(FrozenStore::from_sorted_run(&shipped, threads));
                store
            }
            None => shipped.into_iter().collect(),
        };
        WorkerState {
            reasoner,
            budget,
            store,
            gained: Vec::new(),
        }
    }

    /// Round 0: close the shipped partition. Returns the derivations, for
    /// routing.
    pub fn close(&mut self) -> Vec<Triple> {
        let derived = match self.budget {
            Some(threads) => {
                // The store gives its base up to the closure, which holds
                // it until its one merge has built both new families: the
                // old base and the closed one are both live at the merge.
                let base = Arc::clone(std::mem::take(&mut self.store).base());
                let (closed, derived) = closure_within(base, self.reasoner.program(), threads);
                self.store.adopt(closed);
                derived
            }
            None => {
                let seed: Vec<Triple> = self.store.iter().collect();
                self.reasoner.materialize_delta(&mut self.store, seed)
            }
        };
        self.gained.extend_from_slice(&derived);
        derived
    }

    /// A later round: take in `received` (any order, duplicates and
    /// already-known triples tolerated) and derive its consequences.
    /// Returns the derivations, for routing.
    pub fn absorb(&mut self, mut received: Vec<Triple>) -> Vec<Triple> {
        received.sort_unstable();
        received.dedup();
        received.retain(|t| !self.store.contains(t));
        let fresh = received;
        self.gained.extend_from_slice(&fresh);
        let program = self.reasoner.program();
        let derived = match self.budget {
            Some(threads) if threads > 1 && fresh.len() >= MIN_PARALLEL_DELTA => {
                // Big enough to shard: fold it (and the overlay) in and
                // run the frozen delta closure on the budget.
                let mut run: Vec<Triple> = self.store.overlay().collect();
                run.extend_from_slice(&fresh);
                let grown = self.store.base().merge_triples_within(&run, threads);
                self.store = TripleStore::new();
                let (closed, derived) = closure_delta_within(grown, program, fresh, threads);
                self.store.adopt(closed);
                derived
            }
            Some(threads) => {
                self.store.extend(fresh.iter().copied());
                let derived = forward_closure_delta(&mut self.store, program, fresh);
                self.store.compact_if_outgrown(threads);
                derived
            }
            None => {
                self.store.extend(fresh.iter().copied());
                self.reasoner.materialize_delta(&mut self.store, fresh)
            }
        };
        self.gained.extend_from_slice(&derived);
        derived
    }

    /// Number of distinct triples held: shipped + gained.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` iff the worker holds nothing (an empty partition of an
    /// empty schema).
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Hand back the SPO-sorted, duplicate-free run of everything gained
    /// since the load — disjoint from the shipped partition, so
    /// `shipped + run.len() == local size` — and that full local size.
    pub fn finish(self) -> (Vec<Triple>, usize) {
        let len = self.len();
        let mut run = self.gained;
        run.sort_unstable();
        run.dedup();
        (run, len)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use owlpar_datalog::ast::build::*;
    use owlpar_datalog::backward::TableScope;
    use owlpar_datalog::Rule;
    use owlpar_rdf::{is_sorted_run, NodeId};

    const P: u32 = 500;
    const SUB: u32 = 501;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    fn rules() -> Vec<Rule> {
        vec![Rule::new(
            "trans",
            atom(v(0), c(NodeId(P)), v(2)),
            vec![
                atom(v(0), c(NodeId(P)), v(1)),
                atom(v(1), c(NodeId(P)), v(2)),
            ],
        )
        .unwrap()]
    }

    fn strategies() -> Vec<MaterializationStrategy> {
        vec![
            MaterializationStrategy::ForwardSemiNaive,
            MaterializationStrategy::ForwardParallel { threads: 2 },
            MaterializationStrategy::BackwardPerResource(TableScope::PerQuery),
        ]
    }

    /// Load a chain, close it, then feed it link batches big and small:
    /// after every step the state must hold exactly the serial closure of
    /// everything it has seen, and `finish` must return exactly the
    /// triples it was not shipped.
    #[test]
    fn every_engine_tracks_the_serial_closure_through_absorbs_and_folds() {
        let schema = vec![t(P, SUB, P)];
        let base: Vec<Triple> = (0..40).map(|i| t(i, P, i + 1)).collect();
        // one tiny delivery, one that crosses the shard floor and (with
        // its consequences) the fold bound, one that is all duplicates
        let deliveries: Vec<Vec<Triple>> = vec![
            vec![t(40, P, 41), t(0, P, 1), t(40, P, 41)],
            (0..95)
                .map(|i| t(1000 + i, P, 1001 + i))
                .chain((0..205).map(|i| t(2000 + i, 9, i)))
                .collect(),
            vec![t(0, P, 2), t(5, P, 6)],
        ];
        for strategy in strategies() {
            let mut oracle: TripleStore = schema.iter().chain(&base).copied().collect();
            let serial = Reasoner::forward(rules());
            serial.materialize(&mut oracle);
            let mut state = WorkerState::load(&schema, &base, Reasoner::new(rules(), strategy));
            let mut derived = state.close();
            assert_eq!(state.len(), oracle.len(), "{strategy:?} after close");
            assert_eq!(derived.len(), oracle.len() - schema.len() - base.len());
            for batch in &deliveries {
                let fresh: Vec<Triple> = batch
                    .iter()
                    .copied()
                    .filter(|&t| oracle.insert(t))
                    .collect();
                let mut want = serial.materialize_delta(&mut oracle, fresh);
                derived = state.absorb(batch.clone());
                want.sort_unstable();
                derived.sort_unstable();
                assert_eq!(derived, want, "{strategy:?}");
                assert_eq!(state.len(), oracle.len(), "{strategy:?}");
                // forward engines keep the bulk frozen and the overlay
                // bounded; backward engines never compact
                let (base, recent) = (state.store.base(), state.store.overlay_len());
                match state.budget {
                    Some(_) => assert!(recent <= 4096.max(base.len() / 4), "{strategy:?}"),
                    None => assert!(base.is_empty(), "{strategy:?}"),
                }
                assert!(state.store.overlay().all(|t| !base.contains(&t)));
            }
            let (run, len) = state.finish();
            assert_eq!(len, oracle.len());
            assert!(is_sorted_run(&run), "{strategy:?}");
            assert_eq!(schema.len() + base.len() + run.len(), len, "{strategy:?}");
            let shipped: TripleStore = schema.iter().chain(&base).copied().collect();
            assert!(run
                .iter()
                .all(|t| !shipped.contains(t) && oracle.contains(t)));
        }
    }

    #[test]
    fn nothing_to_derive_hands_back_an_empty_run() {
        let base = vec![t(1, 9, 2), t(3, 9, 4)];
        for strategy in strategies() {
            let mut state = WorkerState::load(&[], &base, Reasoner::new(rules(), strategy));
            assert!(state.close().is_empty());
            assert!(state.absorb(vec![t(1, 9, 2)]).is_empty());
            assert!(!state.is_empty());
            assert_eq!(state.finish(), (Vec::new(), 2));
        }
    }
}
