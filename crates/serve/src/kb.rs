//! [`ServingKb`]: a materialized KB published through epochs and
//! maintained incrementally.
//!
//! The write path owns a private mutable [`Graph`] (dictionary + closed
//! store) plus the compiled [`HorstReasoner`]. An INSERT batch is parsed,
//! re-interned, pushed through the semi-naive **delta closure**
//! ([`HorstReasoner::materialize_delta`] — O(batch + consequences), not
//! O(store)), and then published as a brand-new snapshot. Readers keep
//! draining queries from the previous snapshot the whole time; they only
//! see the new epoch once it is complete.
//!
//! The writer's store is the only copy of the KB: a frozen base plus the
//! hash overlay of what was inserted since the last compaction. A
//! snapshot's store is a clone of it — the base shared by reference
//! count, the overlay copied — so publication costs O(overlay), and the
//! store's own policy ([`TripleStore::compact_if_outgrown`]) keeps the
//! overlay small relative to the base. A compaction doubles as the
//! checkpoint trigger of the durability layer.
//!
//! A batch containing schema triples invalidates the compiled rule-base;
//! the writer then recompiles and re-closes from scratch (correct, just
//! not O(delta)) before publishing.
//!
//! [`TripleStore::compact_if_outgrown`]: owlpar_rdf::TripleStore::compact_if_outgrown

use crate::epoch::{EpochHandle, KbSnapshot};
use crate::error::ServeError;
use crate::recovery::Durability;
use owlpar_core::{run_parallel, ParallelConfig, RunReport};
use owlpar_datalog::MaterializationStrategy;
use owlpar_obs::{Phase, Track, NO_ROUND};
use owlpar_horst::{DeltaOutcome, HorstReasoner};
use owlpar_rdf::{parse_ntriples, Graph, Triple};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// What an insert did, as reported to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertOutcome {
    /// The epoch this insert published.
    pub epoch: u64,
    /// Batch triples that were actually new.
    pub added: usize,
    /// Consequences derived from them.
    pub derived: usize,
    /// Whether the batch carried schema triples and forced a
    /// recompile + full re-close instead of the delta path.
    pub schema_changed: bool,
}

struct WriterState {
    /// The KB: dictionary plus the closed store, whose frozen base every
    /// published snapshot shares.
    graph: Graph,
    reasoner: HorstReasoner,
    /// Optional durability layer: WAL + checkpoints. `None` = the
    /// pre-durability, purely in-memory behavior.
    durability: Option<Durability>,
    /// The last checkpoint failure, surfaced through
    /// [`ServingKb::durability_status`]. The triggering insert was
    /// still acknowledged — it was already logged — but the layer is
    /// poisoned and later inserts are refused.
    durability_error: Option<String>,
    /// Trace lane of the write path on the ambient recorder (a no-op
    /// unless one was installed *before* the KB was built): WAL fsyncs
    /// and checkpoint writes show up as spans on the server timeline.
    lane: Track,
}

impl WriterState {
    fn from_closed(mut graph: Graph, reasoner: HorstReasoner) -> Self {
        // A KB that arrives compacted (a parallel run's result) is
        // shared as it is; one built by inserts is frozen once, here.
        graph.store.compact();
        WriterState {
            graph,
            reasoner,
            durability: None,
            durability_error: None,
            lane: owlpar_obs::global().track("kb-writer"),
        }
    }

    /// The next snapshot of the current state. O(overlay + dictionary):
    /// the frozen base is shared.
    fn snapshot(&self, epoch: u64) -> KbSnapshot {
        KbSnapshot {
            epoch,
            store: self.graph.store.clone(),
            dict: Arc::new(self.graph.dict.clone()),
        }
    }
}

/// A concurrently servable knowledge base.
pub struct ServingKb {
    epochs: EpochHandle,
    writer: Mutex<WriterState>,
    /// Test hook: sleep this long *after* building the next snapshot but
    /// *before* publishing it, to make the "readers never block on
    /// writers" property observable in tests.
    debug_publish_delay: Duration,
}

impl ServingKb {
    /// Materialize `graph` with the parallel runtime, then wrap the
    /// closed result for serving (epoch 0).
    pub fn materialize(
        mut graph: Graph,
        cfg: &ParallelConfig,
    ) -> Result<(Self, RunReport), ServeError> {
        let report = run_parallel(&mut graph, cfg)?;
        let reasoner =
            HorstReasoner::from_graph(&mut graph, MaterializationStrategy::ForwardSemiNaive);
        Ok((Self::from_closed(graph, reasoner), report))
    }

    /// Serve a graph that is *already closed* under `reasoner`'s rules.
    pub fn from_closed(graph: Graph, reasoner: HorstReasoner) -> Self {
        let writer = WriterState::from_closed(graph, reasoner);
        ServingKb {
            epochs: EpochHandle::new(writer.snapshot(0)),
            writer: Mutex::new(writer),
            debug_publish_delay: Duration::ZERO,
        }
    }

    /// Set the publish-delay test hook (see field docs).
    pub fn with_debug_publish_delay(mut self, d: Duration) -> Self {
        self.debug_publish_delay = d;
        self
    }

    /// Attach a durability layer: every subsequent accepted INSERT is
    /// write-ahead logged (and fsynced) before it is applied, and
    /// checkpoints are taken at merge-compaction or when the WAL grows
    /// past its configured bound.
    pub fn with_durability(self, d: Durability) -> Self {
        {
            let mut guard = self.lock_writer();
            guard.durability = Some(d);
            guard.durability_error = None;
        }
        self
    }

    /// `None` when no durability layer is attached, `Some("ok")` while
    /// it is healthy, and the first persistent failure (IO error or
    /// injected crash) as a string once poisoned. A degraded server
    /// keeps answering queries but refuses further inserts.
    pub fn durability_status(&self) -> Option<String> {
        let guard = self.lock_writer();
        if let Some(e) = &guard.durability_error {
            return Some(e.clone());
        }
        guard.durability.as_ref().map(|d| {
            if d.poisoned() {
                "durability layer poisoned by an earlier failure".into()
            } else {
                "ok".into()
            }
        })
    }

    /// Final durability flush for graceful shutdown — called after every
    /// worker has drained, so in-flight inserts are either fully
    /// applied+logged or were rejected before touching any state.
    pub fn shutdown_flush(&self) -> Result<(), ServeError> {
        let mut guard = self.lock_writer();
        let w: &mut WriterState = &mut guard;
        let result = match w.durability.as_mut() {
            Some(d) => {
                let span = w.lane.begin(Phase::WalFsync, NO_ROUND);
                let r = d.final_sync();
                w.lane.end(span);
                r
            }
            None => Ok(()),
        };
        w.lane.flush();
        result
    }

    /// The current snapshot (cheap; see [`EpochHandle::load`]).
    pub fn snapshot(&self) -> Arc<KbSnapshot> {
        self.epochs.load()
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epochs.epoch()
    }

    fn lock_writer(&self) -> MutexGuard<'_, WriterState> {
        match self.writer.lock() {
            Ok(g) => g,
            // The writer never unwinds while holding the lock (all
            // fallible steps return typed errors), but stay total.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Parse `nt` as N-Triples, apply it through the delta-closure path,
    /// and publish the result as a new epoch.
    ///
    /// Serialized with other inserts by the writer mutex; concurrent
    /// readers are *not* blocked at any point — they read the previous
    /// snapshot until the new one is fully built and swapped in.
    pub fn insert_ntriples(&self, nt: &str) -> Result<InsertOutcome, ServeError> {
        // Parse into a scratch graph first so a syntax error cannot
        // leave partial state anywhere.
        let mut scratch = Graph::new();
        parse_ntriples(nt, &mut scratch).map_err(|e| ServeError::BadBatch(e.to_string()))?;

        let mut guard = self.lock_writer();
        let w: &mut WriterState = &mut guard;

        // Re-intern the batch against the serving dictionary.
        let batch: Vec<Triple> = scratch
            .store
            .iter()
            .map(|t| {
                let (s, p, o) = scratch.decode(t);
                Triple::new(w.graph.intern(s), w.graph.intern(p), w.graph.intern(o))
            })
            .collect();

        // Write-ahead: the batch is durably logged (appended + fsynced)
        // *before* any in-memory mutation, so an acknowledged insert is
        // always recoverable and a failed log leaves nothing applied.
        // (Interned dictionary terms from the lines above are semantic
        // no-ops without triples referencing them.)
        if let Some(d) = w.durability.as_mut() {
            if !batch.is_empty() {
                let span = w.lane.begin(Phase::WalFsync, NO_ROUND);
                d.log_batch(nt)?;
                w.lane.end(span);
            }
        }

        let before = w.graph.store.len();
        let (derived, schema_changed) =
            match w.reasoner.materialize_delta(&mut w.graph.store, &batch) {
                DeltaOutcome::Incremental { derived } => (derived.len(), false),
                DeltaOutcome::SchemaChanged => {
                    // The compiled rule-base is stale: insert the batch,
                    // recompile against the new schema and re-close
                    // fully.
                    for &t in &batch {
                        w.graph.store.insert(t);
                    }
                    let mid = w.graph.store.len();
                    w.reasoner = HorstReasoner::from_graph(
                        &mut w.graph,
                        MaterializationStrategy::ForwardSemiNaive,
                    );
                    w.reasoner.materialize(&mut w.graph);
                    (w.graph.store.len() - mid, true)
                }
            };
        // A full re-close is a compaction point whatever its size.
        let compacted = if schema_changed {
            w.graph.store.compact();
            true
        } else {
            w.graph.store.compact_if_outgrown(0)
        };
        let added = w.graph.store.len() - before - derived;

        // Checkpoint at the compaction point or when the WAL has
        // outgrown its bound. The batch is already logged, so a
        // checkpoint failure does not retract the acknowledgement — it
        // poisons the layer, and the *next* insert is refused.
        if let Some(d) = w.durability.as_mut() {
            if compacted || d.wal_over_threshold() {
                let span = w.lane.begin(Phase::Checkpoint, NO_ROUND);
                let result = d.take_checkpoint(&w.graph);
                w.lane.end(span);
                if let Err(e) = result {
                    w.durability_error = Some(e.to_string());
                }
            }
        }

        // Publish this insert's spans so a STATS scrape between inserts
        // sees them in the phase totals.
        w.lane.flush();

        // Build the complete next snapshot before touching the handle.
        let next = w.snapshot(self.epochs.epoch() + 1);
        if !self.debug_publish_delay.is_zero() {
            std::thread::sleep(self.debug_publish_delay);
        }
        let epoch = next.epoch;
        self.epochs.publish(next);
        Ok(InsertOutcome {
            epoch,
            added,
            derived,
            schema_changed,
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use owlpar_datalog::MaterializationStrategy;

    fn base() -> (Graph, HorstReasoner) {
        let mut g = Graph::new();
        g.insert_iris(
            "http://x/Student",
            owlpar_rdf::vocab::RDFS_SUBCLASSOF,
            "http://x/Person",
        );
        g.insert_iris("http://x/alice", owlpar_rdf::vocab::RDF_TYPE, "http://x/Student");
        let hr = HorstReasoner::from_graph(&mut g, MaterializationStrategy::ForwardSemiNaive);
        hr.materialize(&mut g);
        (g, hr)
    }

    #[test]
    fn insert_publishes_new_epoch_with_consequences() {
        let (g, hr) = base();
        let kb = ServingKb::from_closed(g, hr);
        assert_eq!(kb.epoch(), 0);
        let out = kb
            .insert_ntriples(
                "<http://x/bob> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
                 <http://x/Student> .\n",
            )
            .unwrap();
        assert_eq!(out.epoch, 1);
        assert_eq!(out.added, 1);
        assert_eq!(out.derived, 1, "bob:Person follows");
        assert!(!out.schema_changed);
        assert_eq!(kb.epoch(), 1);
    }

    #[test]
    fn old_snapshot_is_immutable_across_inserts() {
        let (g, hr) = base();
        let kb = ServingKb::from_closed(g, hr);
        let old = kb.snapshot();
        let n = old.store.len();
        kb.insert_ntriples(
            "<http://x/carol> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
             <http://x/Student> .\n",
        )
        .unwrap();
        assert_eq!(old.store.len(), n, "reader's snapshot unchanged");
        assert!(kb.snapshot().store.len() > n);
    }

    #[test]
    fn schema_triple_takes_the_recompile_path() {
        let (g, hr) = base();
        let kb = ServingKb::from_closed(g, hr);
        let out = kb
            .insert_ntriples(
                "<http://x/Person> \
                 <http://www.w3.org/2000/01/rdf-schema#subClassOf> \
                 <http://x/Agent> .\n",
            )
            .unwrap();
        assert!(out.schema_changed);
        // alice (and her derived Person membership) now cascades to Agent.
        assert!(out.derived >= 1, "derived={}", out.derived);
        // New rule-base answers follow-up instance inserts incrementally.
        let out2 = kb
            .insert_ntriples(
                "<http://x/dan> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
                 <http://x/Student> .\n",
            )
            .unwrap();
        assert!(!out2.schema_changed);
        assert_eq!(out2.derived, 2, "dan:Person and dan:Agent");
    }

    /// The writer holds one copy of the KB: what it publishes shares its
    /// store's frozen base, across a compaction too, and its overlay is
    /// what the last compaction left plus what was inserted since.
    #[test]
    fn the_writers_store_is_the_only_copy() {
        let (g, hr) = base();
        let kb = ServingKb::from_closed(g, hr);
        let shares_base = |kb: &ServingKb| {
            let snapshot = kb.snapshot();
            let w = kb.lock_writer();
            assert_eq!(snapshot.store.len(), w.graph.store.len());
            assert_eq!(snapshot.store.overlay_len(), w.graph.store.overlay_len());
            Arc::ptr_eq(snapshot.store.base(), w.graph.store.base())
        };
        assert!(shares_base(&kb));
        assert_eq!(kb.snapshot().store.overlay_len(), 0, "born compacted");
        for (round, members) in [2100, 2000].into_iter().enumerate() {
            let batch: String = (0..members)
                .map(|i| {
                    format!(
                        "<http://x/s{round}_{i}> \
                         <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Student> .\n"
                    )
                })
                .collect();
            let before = kb.snapshot();
            kb.insert_ntriples(&batch).unwrap();
            assert!(shares_base(&kb));
            let after = kb.snapshot();
            if round == 0 {
                // 4200 triples: past the floor, folded into a new base
                assert_eq!(after.store.overlay_len(), 0);
                assert!(!Arc::ptr_eq(after.store.base(), before.store.base()));
            } else {
                // 4000 triples: within the floor, left in the overlay
                assert_eq!(after.store.overlay_len(), 4000);
                assert!(Arc::ptr_eq(after.store.base(), before.store.base()));
            }
        }
    }

    #[test]
    fn bad_ntriples_is_a_typed_error_and_publishes_nothing() {
        let (g, hr) = base();
        let kb = ServingKb::from_closed(g, hr);
        let err = kb.insert_ntriples("this is not ntriples").unwrap_err();
        assert!(matches!(err, ServeError::BadBatch(_)), "{err}");
        assert_eq!(kb.epoch(), 0);
    }
}
