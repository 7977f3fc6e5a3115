//! Epoch-based snapshot publication.
//!
//! The serving KB is published as a sequence of *immutable* snapshots,
//! each tagged with a monotonically increasing epoch. Readers grab the
//! current `Arc<KbSnapshot>` — a pointer clone under a read lock held
//! for nanoseconds — and then run their whole query against that frozen
//! state with no further coordination. The writer prepares the *entire*
//! next snapshot off to the side and only then swaps the pointer, so:
//!
//! * readers never observe a half-applied update (consistency), and
//! * readers never wait for closure computation (the write lock is held
//!   only for the pointer swap — never across reasoning, and never
//!   across the destructor of the snapshot being replaced).
//!
//! This is the textbook read-copy-update shape, built from `std` parts
//! only.

use owlpar_rdf::{Dictionary, TripleStore};
use std::sync::{Arc, RwLock};

/// One immutable published state of the KB.
#[derive(Debug)]
pub struct KbSnapshot {
    /// Publication sequence number; starts at 0 for the initial
    /// materialization and increases by 1 per published update.
    pub epoch: u64,
    /// The closed triple store as of this epoch: a clone of the writer's
    /// store — its frozen base shared across epochs, the overlay of
    /// recent inserts copied — read as their union.
    pub store: TripleStore,
    /// The dictionary the store is encoded against. Queries against this
    /// snapshot must be parsed read-only against *this* dictionary
    /// (`owlpar_query::parse_query_frozen`), never a newer one.
    pub dict: Arc<Dictionary>,
}

/// The handle readers load snapshots from and the writer publishes to.
#[derive(Debug)]
pub struct EpochHandle {
    current: RwLock<Arc<KbSnapshot>>,
}

impl EpochHandle {
    /// Publish the initial snapshot (epoch 0 by convention).
    pub fn new(initial: KbSnapshot) -> Self {
        EpochHandle {
            current: RwLock::new(Arc::new(initial)),
        }
    }

    /// The current snapshot. Cheap (one `Arc` clone); the returned
    /// snapshot stays valid and immutable no matter how many updates
    /// are published afterwards.
    pub fn load(&self) -> Arc<KbSnapshot> {
        match self.current.read() {
            Ok(g) => Arc::clone(&g),
            // A writer can't poison this lock (publish only swaps a
            // pointer), but stay total: the value is still intact.
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Current epoch without keeping the snapshot alive.
    pub fn epoch(&self) -> u64 {
        self.load().epoch
    }

    /// Swap in a fully built snapshot. The write lock is held only for
    /// the pointer swap: the replaced snapshot is dropped after the lock
    /// is released, because when this handle held its last reference the
    /// drop frees a whole dictionary and overlay — milliseconds during
    /// which every [`EpochHandle::load`] would otherwise block.
    pub fn publish(&self, next: KbSnapshot) {
        let next = Arc::new(next);
        let previous = match self.current.write() {
            Ok(mut g) => std::mem::replace(&mut *g, next),
            Err(poisoned) => std::mem::replace(&mut *poisoned.into_inner(), next),
        };
        drop(previous);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use owlpar_rdf::{Graph, Triple};

    fn snap(epoch: u64, ntriples: u32) -> KbSnapshot {
        let mut g = Graph::new();
        for i in 0..ntriples {
            let s = g.intern_iri(format!("http://x/s{i}"));
            let p = g.intern_iri("http://x/p");
            let o = g.intern_iri(format!("http://x/o{i}"));
            g.store.insert(Triple::new(s, p, o));
        }
        KbSnapshot {
            epoch,
            store: g.store,
            dict: Arc::new(g.dict),
        }
    }

    #[test]
    fn load_returns_published_snapshot() {
        let h = EpochHandle::new(snap(0, 2));
        assert_eq!(h.epoch(), 0);
        assert_eq!(h.load().store.len(), 2);
    }

    #[test]
    fn old_snapshot_survives_publication() {
        let h = EpochHandle::new(snap(0, 1));
        let old = h.load();
        h.publish(snap(1, 5));
        assert_eq!(old.epoch, 0, "reader's snapshot is frozen");
        assert_eq!(old.store.len(), 1);
        assert_eq!(h.epoch(), 1);
        assert_eq!(h.load().store.len(), 5);
    }

    #[test]
    fn concurrent_readers_see_a_consistent_epoch() {
        let h = Arc::new(EpochHandle::new(snap(0, 1)));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let h = Arc::clone(&h);
            readers.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let s = h.load();
                    // Epoch n was always published with n+1 triples.
                    assert_eq!(s.store.len() as u64, s.epoch + 1);
                }
            }));
        }
        for e in 1..20 {
            h.publish(snap(e, e as u32 + 1));
        }
        for r in readers {
            r.join().unwrap();
        }
    }
}
