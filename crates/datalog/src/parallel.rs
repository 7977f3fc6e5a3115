//! Multi-threaded semi-naive evaluation over a frozen base store.
//!
//! The serial engine in [`forward`](crate::forward) spends each round
//! joining the delta against the store. Those joins are independent per
//! delta triple, so this module shards the round's delta across a scoped
//! thread pool: every thread joins its shard against a shared, immutable
//! [`FrozenStore`] base into a thread-local, sorted, novelty-filtered
//! run, and the coordinating thread merges the runs into the next delta.
//! The fixpoint is identical to the serial engine's — only derivation
//! order differs — because semi-naive evaluation is confluent: any
//! instantiation with at least one body atom in the delta has a pivot in
//! exactly the shards holding that atom's triple, and the remaining atoms
//! are joined against the full base.
//!
//! The base is maintained LSM-style: each round's new triples are folded
//! into a fresh frozen store by a linear merge of sorted runs, never a
//! rebuild. Reads stay lock-free throughout — threads only ever see a
//! frozen store that is not mutated during a round.
//!
//! A [`TripleStore`] keeps its bulk as exactly such a frozen store, so
//! closing one is: fold its overlay in (if it has one), run the rounds on
//! the base, and hand the closed base back
//! ([`TripleStore::adopt`]) — no triple of the result is inserted into a
//! per-triple index.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use crate::ast::Rule;
use crate::forward::{apply_rule_delta, forward_closure_delta};
use owlpar_obs::{global as obs_global, Phase, Recorder, Track, NO_ROUND};
use owlpar_rdf::{is_sorted_run, merge_runs, FrozenStore, Triple, TripleStore};
use std::sync::Arc;

/// Below this delta size a round is evaluated on the calling thread:
/// spawn + merge overhead dwarfs the join work.
pub const MIN_PARALLEL_DELTA: usize = 256;

/// Resolve a configured thread budget: `0` means "all available
/// parallelism" (clamped to at least 1).
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    }
}

/// Compute the closure of `store` under `rules` using up to `threads`
/// worker threads (0 = auto). Returns the number of derived triples.
///
/// Produces exactly the same fixpoint as
/// [`forward_closure`](crate::forward::forward_closure).
pub fn parallel_closure(store: &mut TripleStore, rules: &[Rule], threads: usize) -> usize {
    let threads = resolve_threads(threads);
    if threads <= 1 || store.len() < MIN_PARALLEL_DELTA {
        let seed: Vec<Triple> = store.iter().collect();
        return forward_closure_delta(store, rules, seed).len();
    }
    // Seed in SPO order: shard chunks are then sorted runs, so the
    // per-shard indexes need no SPO sort (and chunking is deterministic,
    // independent of hash iteration order).
    let seed = compacted_base(store).iter_sorted();
    close_base(store, rules, seed, threads).len()
}

/// `store` is closed under `rules` except that the triples in `delta`
/// were just inserted. Derives all consequences with up to `threads`
/// worker threads (0 = auto), adds them, and returns them (cascades
/// included). Same contract as
/// [`forward_closure_delta`](crate::forward::forward_closure_delta).
pub fn parallel_closure_delta(
    store: &mut TripleStore,
    rules: &[Rule],
    delta: Vec<Triple>,
    threads: usize,
) -> Vec<Triple> {
    let threads = resolve_threads(threads);
    if threads <= 1 || delta.len() < MIN_PARALLEL_DELTA {
        return forward_closure_delta(store, rules, delta);
    }
    compacted_base(store);
    close_base(store, rules, delta, threads)
}

/// Fold `store`'s overlay into its base, if it has one, under a
/// [`Phase::Freeze`] span, and return the base — now the whole store.
fn compacted_base(store: &mut TripleStore) -> &Arc<FrozenStore> {
    if store.overlay().next().is_some() {
        let mut track = obs_global().track("compact");
        let freeze = track.begin(Phase::Freeze, NO_ROUND);
        store.compact();
        track.end(freeze);
    }
    store.base()
}

/// Run the frozen rounds from `seed` over a compacted `store`'s base and
/// give the closed base back to it. Returns the derivations.
fn close_base(
    store: &mut TripleStore,
    rules: &[Rule],
    seed: Vec<Triple>,
    threads: usize,
) -> Vec<Triple> {
    let (closed, derived) = closure_delta_over(Arc::clone(store.base()), rules, seed, threads);
    store.adopt(closed);
    derived
}

/// Core round loop over a frozen base store.
///
/// `seed` must already be contained in `base`. Each round joins the delta
/// shards against the frozen base, then folds the round's new triples
/// into it with a linear merge of sorted runs (LSM-style: freezing is a
/// merge, never a rebuild) — no per-triple hash maintenance anywhere on
/// the hot path. Returns the final frozen store (the closure; `base`
/// itself when nothing was derived) and every newly derived triple.
///
/// The freezes take whatever cores the machine has, on top of `threads`
/// join shards; a caller that shares the machine uses
/// [`closure_delta_within`].
pub fn closure_delta_over(
    base: impl Into<Arc<FrozenStore>>,
    rules: &[Rule],
    seed: Vec<Triple>,
    threads: usize,
) -> (Arc<FrozenStore>, Vec<Triple>) {
    frozen_rounds(base.into(), rules, seed, resolve_threads(threads).max(1), None)
}

/// [`closure_delta_over`] for a caller that owns only `threads` cores —
/// one of `k` distributed workers closing its partition beside the
/// others. Joins, shard indexes and the per-round merges together never
/// run on more than `threads` threads, the caller's included, so a
/// budget of 1 spawns nothing. `seed` should be an SPO-sorted,
/// duplicate-free run (a frozen store's own iteration order is one):
/// shard indexes are then built without sorting the SPO family, and a
/// seed that is the whole of `base` reuses `base` as its own index.
pub fn closure_delta_within(
    base: impl Into<Arc<FrozenStore>>,
    rules: &[Rule],
    seed: Vec<Triple>,
    threads: usize,
) -> (Arc<FrozenStore>, Vec<Triple>) {
    let threads = threads.max(1);
    frozen_rounds(base.into(), rules, seed, threads, Some(threads))
}

/// The round loop behind both entry points. `freeze_budget` is the
/// thread cap on the per-round merges — `None` lets them take the
/// machine — and a caller that states one is a distributed worker whose
/// own lane already spans this whole closure as one `Join` of one of
/// *its* rounds, so in-node spans are not recorded beside it (they would
/// count the same time twice).
fn frozen_rounds(
    mut base: Arc<FrozenStore>,
    rules: &[Rule],
    seed: Vec<Triple>,
    threads: usize,
    freeze_budget: Option<usize>,
) -> (Arc<FrozenStore>, Vec<Triple>) {
    // Ambient tracing: one coordinator track plus one stable lane per
    // shard slot, forked into the scoped threads each round (disabled
    // recorder: every span call is a single branch).
    let rec = if freeze_budget.is_some() {
        Recorder::disabled()
    } else {
        obs_global()
    };
    let mut track = rec.track("closure");
    let shard_tracks: Vec<Track> = (0..threads)
        .map(|i| rec.track(&format!("shard {i}")))
        .collect();
    let mut all_derived: Vec<Triple> = Vec::new();
    let mut delta = seed;
    let mut round_no: u32 = 0;
    while !delta.is_empty() {
        let round_span = track.begin(Phase::Round, round_no);
        // Sorted, deduplicated, *novel* heads from the sharded joins
        // (each shard filters against the frozen base before returning).
        let new = round_candidates(&base, rules, &delta, threads, &shard_tracks, &mut track, round_no);
        if !new.is_empty() {
            let freeze = track.begin(Phase::Freeze, round_no);
            base = Arc::new(match freeze_budget {
                Some(budget) => base.merge_triples_within(&new, budget),
                None => base.merge_triples(&new),
            });
            track.end(freeze);
            all_derived.extend_from_slice(&new);
        }
        track.end(round_span);
        delta = new;
        round_no += 1;
    }
    (base, all_derived)
}

/// One round: shard `delta`, join each shard against the frozen `view`
/// on its own thread, and return the sorted, deduplicated triples that
/// are *not yet* in `view`.
///
/// Each shard sorts, dedupes and novelty-filters its own candidates
/// before handing them to the coordinator, so the per-candidate
/// `contains` probes run in parallel and walk the base coherently
/// (ascending probes). The coordinator only resolves cross-shard
/// duplicates, by merging the shards' runs.
fn round_candidates(
    view: &FrozenStore,
    rules: &[Rule],
    delta: &[Triple],
    threads: usize,
    shard_tracks: &[Track],
    track: &mut Track,
    round_no: u32,
) -> Vec<Triple> {
    let join_shard = |shard: &[Triple], mut lane: Track| {
        let join = lane.begin(Phase::Join, round_no);
        let built;
        let shard_store = if shard.len() == view.len() && is_sorted_run(shard) {
            // Duplicate-free, inside `view` and as long as it: the shard
            // *is* the view (round 0 of a whole-store closure on one
            // thread).
            view
        } else {
            // The shard threads are the budget; each index builds inline.
            // A chunk of a sorted seed is its own SPO family.
            built = FrozenStore::from_sorted_run(shard, 1);
            &built
        };
        let mut out = Vec::new();
        for rule in rules {
            apply_rule_delta(view, shard_store, rule, &mut out);
        }
        lane.end(join);
        let dedup = lane.begin(Phase::Dedup, round_no);
        out.sort_unstable();
        out.dedup();
        out.retain(|t| !view.contains(t));
        lane.end(dedup);
        out
    };

    let shards = threads.min(delta.len().div_ceil(MIN_PARALLEL_DELTA / 4)).max(1);
    if shards <= 1 {
        return join_shard(delta, track.fork());
    }
    let chunk = delta.len().div_ceil(shards);
    let mut locals: Vec<Vec<Triple>> = Vec::with_capacity(shards);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(shards);
        for (i, shard) in delta.chunks(chunk).enumerate() {
            let lane = shard_tracks.get(i).map_or_else(|| track.fork(), Track::fork);
            handles.push(scope.spawn(move || join_shard(shard, lane)));
        }
        for handle in handles {
            match handle.join() {
                Ok(out) => locals.push(out),
                // A panicking shard (rule bug, OOM abort path) must not
                // silently drop derivations: re-raise on the coordinator
                // so callers see the original panic.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let dedup = track.begin(Phase::Dedup, round_no);
    let out = merge_runs(&locals);
    track.end(dedup);
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::ast::build::*;
    use crate::forward::forward_closure;
    use owlpar_rdf::NodeId;

    const P: u32 = 100;
    const Q: u32 = 101;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    fn trans_rule(p: u32) -> Rule {
        Rule::new(
            "trans",
            atom(v(0), c(NodeId(p)), v(2)),
            vec![atom(v(0), c(NodeId(p)), v(1)), atom(v(1), c(NodeId(p)), v(2))],
        )
        .unwrap()
    }

    fn chain(n: u32) -> Vec<Triple> {
        (0..n).map(|i| t(i, P, i + 1)).collect()
    }

    #[test]
    fn matches_serial_on_transitive_chain() {
        for threads in [1, 2, 4, 8] {
            let mut serial: TripleStore = chain(60).into_iter().collect();
            forward_closure(&mut serial, &[trans_rule(P)]);

            let mut par: TripleStore = chain(60).into_iter().collect();
            let n = parallel_closure(&mut par, &[trans_rule(P)], threads);
            assert_eq!(par.iter_sorted(), serial.iter_sorted(), "threads={threads}");
            assert_eq!(n, 60 * 61 / 2 - 60, "threads={threads}");
        }
    }

    #[test]
    fn delta_matches_serial_delta() {
        let rules = [trans_rule(P)];
        // close a chain, then extend it with a batch of fresh links
        let mut serial: TripleStore = chain(40).into_iter().collect();
        forward_closure(&mut serial, &rules);
        let mut par = serial.clone();

        let fresh: Vec<Triple> = (41..80).map(|i| t(i, P, i + 1)).collect();
        for &f in &fresh {
            serial.insert(f);
            par.insert(f);
        }
        let mut a = forward_closure_delta(&mut serial, &rules, fresh.clone());
        let mut b = parallel_closure_delta(&mut par, &rules, fresh, 4);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(par.iter_sorted(), serial.iter_sorted());
    }

    #[test]
    fn small_deltas_fall_back_to_serial_and_agree() {
        let rules = [trans_rule(P)];
        let mut s: TripleStore = [t(0, P, 1), t(1, P, 2)].into_iter().collect();
        let n = parallel_closure(&mut s, &rules, 8);
        assert_eq!(n, 1);
        assert!(s.contains(&t(0, P, 2)));
    }

    #[test]
    fn cascading_rule_mix_matches_serial() {
        // q(x,y) -> p(x,y), p transitive: cascades across rounds
        let promote = Rule::new(
            "promote",
            atom(v(0), c(NodeId(P)), v(1)),
            vec![atom(v(0), c(NodeId(Q)), v(1))],
        )
        .unwrap();
        let rules = [promote, trans_rule(P)];
        let facts: Vec<Triple> = (0..400).map(|i| t(i % 37, Q, (i * 7) % 37)).collect();

        let mut serial: TripleStore = facts.iter().copied().collect();
        forward_closure(&mut serial, &rules);
        for threads in [2, 8] {
            let mut par: TripleStore = facts.iter().copied().collect();
            parallel_closure(&mut par, &rules, threads);
            assert_eq!(par.iter_sorted(), serial.iter_sorted(), "threads={threads}");
        }
    }

    #[test]
    fn closure_delta_over_returns_closed_frozen_store() {
        let rules = [trans_rule(P)];
        let facts = chain(150);
        let mut serial: TripleStore = facts.iter().copied().collect();
        forward_closure(&mut serial, &rules);

        let base = FrozenStore::from_triples(facts.iter().copied());
        let (closed, derived) = closure_delta_over(base, &rules, facts.clone(), 4);
        let expected = 150 * 151 / 2 - 150;
        assert_eq!(derived.len(), expected);
        assert_eq!(closed.iter_sorted(), serial.iter_sorted());
    }

    #[test]
    fn budgeted_closure_matches_serial_from_whole_base_and_from_a_delta() {
        let promote = Rule::new(
            "promote",
            atom(v(0), c(NodeId(P)), v(1)),
            vec![atom(v(0), c(NodeId(Q)), v(1))],
        )
        .unwrap();
        let rules = [promote, trans_rule(P)];
        let facts: Vec<Triple> = (0..600).map(|i| t(i % 41, Q, (i * 7) % 41)).collect();
        let mut serial: TripleStore = facts.iter().copied().collect();
        forward_closure(&mut serial, &rules);

        for threads in [1, 2, 3] {
            // whole-base seed: round 0 joins the base against itself
            let base = FrozenStore::from_triples(facts.iter().copied());
            let seed = base.iter_sorted();
            let n_base = base.len();
            let (closed, derived) = closure_delta_within(base, &rules, seed, threads);
            assert_eq!(closed.iter_sorted(), serial.iter_sorted(), "threads={threads}");
            assert_eq!(derived.len(), serial.len() - n_base);

            // delta seed over an already-closed base
            let extra: Vec<Triple> = (0..300).map(|i| t(100 + i, Q, i % 41)).collect();
            let mut want = serial.clone();
            let fresh: Vec<Triple> = extra.iter().copied().filter(|&t| want.insert(t)).collect();
            let mut want_derived = crate::forward::forward_closure_delta(&mut want, &rules, fresh);
            let grown = closed.merge_triples_within(&extra, threads);
            let mut seed = extra.clone();
            seed.sort_unstable();
            let (closed2, mut derived2) = closure_delta_within(grown, &rules, seed, threads);
            want_derived.sort_unstable();
            derived2.sort_unstable();
            assert_eq!(derived2, want_derived, "threads={threads}");
            assert_eq!(closed2.iter_sorted(), want.iter_sorted(), "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
