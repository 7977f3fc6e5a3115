//! A worker's local triples, as sorted runs from load to hand-back.
//!
//! All three worker loops — [`run_worker`](crate::worker::run_worker),
//! [`run_worker_async`](crate::worker::run_worker_async) and the cluster
//! runtime's `run_cluster_worker` — keep their partition in one
//! [`WorkerState`]. The schema and partition runs a worker is shipped are
//! already SPO-sorted, so they become the SPO family of a
//! [`FrozenStore`] as they are; round 0 closes that store with the
//! frozen-store delta closure; each later round's deliveries go into a
//! small mutable overlay that is folded into the frozen base by linear
//! merge once it outgrows `max(4096, base / 4)` (the serving layer's
//! compaction policy). No per-triple hash index is ever built over the
//! partition.
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
//! at `threads`. The backward engines need a mutable hash store to prove
//! goals against; they keep one behind the same type.

use owlpar_datalog::forward::forward_closure_delta_overlay;
use owlpar_datalog::parallel::{resolve_threads, MIN_PARALLEL_DELTA};
use owlpar_datalog::{closure_delta_within, closure_within, MaterializationStrategy, Reasoner};
use owlpar_rdf::{merge_runs, FrozenStore, Triple, TripleStore};
use std::sync::Arc;

/// Fold the overlay into the frozen base once it holds more than this
/// many triples and more than a quarter of the base (`ServingKb`'s
/// policy): absorbing a round stays O(deliveries + consequences) and the
/// merges amortize to O(1) per triple.
const FOLD_FLOOR: usize = 4096;

/// The two shapes a partition is held in.
#[allow(clippy::large_enum_variant)] // one per worker, never moved around
enum Local {
    /// Forward engines: frozen bulk + recent arrivals. The overlay never
    /// shares a triple with the base.
    Sorted {
        base: Arc<FrozenStore>,
        overlay: TripleStore,
    },
    /// Backward engines: one mutable hash store.
    Thawed(TripleStore),
}

/// One worker's partition, its reasoner, and the record of what it has
/// gained since it was shipped. See the module docs.
pub struct WorkerState {
    reasoner: Reasoner,
    /// Thread budget for joins, freezes and folds (the caller's thread
    /// included).
    threads: usize,
    local: Local,
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
        let (threads, frozen) = match reasoner.strategy {
            MaterializationStrategy::ForwardSemiNaive => (1, true),
            MaterializationStrategy::ForwardParallel { threads } => {
                (resolve_threads(threads), true)
            }
            MaterializationStrategy::BackwardPerResource(_)
            | MaterializationStrategy::BackwardJena(_) => (1, false),
        };
        let shipped = merge_runs(&[schema, base]);
        let local = if frozen {
            Local::Sorted {
                base: Arc::new(FrozenStore::from_sorted_run(&shipped, threads)),
                overlay: TripleStore::new(),
            }
        } else {
            Local::Thawed(shipped.into_iter().collect())
        };
        WorkerState {
            reasoner,
            threads,
            local,
            gained: Vec::new(),
        }
    }

    /// Round 0: close the shipped partition. Returns the derivations, for
    /// routing.
    pub fn close(&mut self) -> Vec<Triple> {
        let derived = match &mut self.local {
            Local::Sorted { base, .. } => {
                let (closed, derived) =
                    closure_within(std::mem::take(base), &self.reasoner.rules, self.threads);
                *base = closed;
                derived
            }
            Local::Thawed(store) => {
                let seed: Vec<Triple> = store.iter().collect();
                self.reasoner.materialize_delta(store, seed)
            }
        };
        self.gained.extend_from_slice(&derived);
        derived
    }

    /// A later round: take in `received` (any order, duplicates and
    /// already-known triples tolerated) and derive its consequences.
    /// Returns the derivations, for routing.
    pub fn absorb(&mut self, mut received: Vec<Triple>) -> Vec<Triple> {
        let derived = match &mut self.local {
            Local::Sorted { base, overlay } => {
                received.sort_unstable();
                received.dedup();
                received.retain(|t| !base.contains(t) && !overlay.contains(t));
                let fresh = received;
                self.gained.extend_from_slice(&fresh);
                if self.threads > 1 && fresh.len() >= MIN_PARALLEL_DELTA {
                    // Big enough to shard: fold it (and the overlay) in
                    // and run the frozen delta closure on the budget.
                    let mut run: Vec<Triple> = overlay.iter().collect();
                    run.extend_from_slice(&fresh);
                    *overlay = TripleStore::new();
                    let grown = base.merge_triples_within(&run, self.threads);
                    let (closed, derived) =
                        closure_delta_within(grown, &self.reasoner.rules, fresh, self.threads);
                    *base = closed;
                    derived
                } else {
                    overlay.extend(fresh.iter().copied());
                    let derived =
                        forward_closure_delta_overlay(base, overlay, &self.reasoner.rules, fresh);
                    if overlay.len() > FOLD_FLOOR.max(base.len() / 4) {
                        let run: Vec<Triple> = overlay.iter().collect();
                        *base = Arc::new(base.merge_triples_within(&run, self.threads));
                        *overlay = TripleStore::new();
                    }
                    derived
                }
            }
            Local::Thawed(store) => {
                received.retain(|t| store.insert(*t));
                self.gained.extend_from_slice(&received);
                self.reasoner.materialize_delta(store, received)
            }
        };
        self.gained.extend_from_slice(&derived);
        derived
    }

    /// Number of distinct triples held: shipped + gained.
    pub fn len(&self) -> usize {
        match &self.local {
            Local::Sorted { base, overlay } => base.len() + overlay.len(),
            Local::Thawed(store) => store.len(),
        }
    }

    /// `true` iff the worker holds nothing (an empty partition of an
    /// empty schema).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
