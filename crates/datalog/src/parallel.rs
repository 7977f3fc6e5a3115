//! Multi-threaded semi-naive evaluation over a frozen base store.
//!
//! The serial engine in [`forward`](crate::forward) spends each round
//! joining the delta against the store. Those joins are independent per
//! delta triple, so this module shards them across a scoped thread pool.
//! A round has **one** delta index — the previous round's new triples as
//! a [`FrozenStore`], or the base itself in round 0 of a whole-store
//! closure — and every shard reads its share of each pivot's match range
//! out of it ([`FrozenStore::for_each_match_part`]); nothing is indexed
//! per shard. Each shard joins against the shared, immutable base into a
//! thread-local, sorted, novelty-filtered run, and the coordinating
//! thread merges the runs into the next delta. The fixpoint is identical
//! to the serial engine's — only derivation order differs — because
//! semi-naive evaluation is confluent: any instantiation with at least
//! one body atom in the delta is found from that atom as pivot by exactly
//! one shard, and the remaining atoms are joined against the full base.
//!
//! **Who sorts what.** A new triple is sorted into each column family
//! once: SPO by the shard that derived it (the candidate sort), POS and
//! OSP when the round's new run becomes the delta index. That index is
//! both the next round's pivot and the input of the merge that grows the
//! base ([`FrozenStore::merge_frozen`]: three linear merges, no sort).
//!
//! **Duplicates are dropped where they are born.** Nearly every candidate
//! of an OWL-Horst closure is a class membership `(?x rdf:type C)` with
//! `C` one of a few dozen constants, derived many times over. A rule
//! whose head is `(?x, const p, const o)` therefore emits through a
//! subject bitmap for that head ([`SeenHeads`]): only the first emission
//! of a subject reaches the candidate run, whichever shard or round makes
//! it. Every other head shape takes the general path — sort, dedup,
//! filter against the base.
//!
//! The base is maintained LSM-style: each round's new triples are folded
//! into a fresh frozen store by a linear merge of sorted runs, never a
//! rebuild. Reads stay lock-free throughout — threads only ever see a
//! frozen store that is not mutated during a round. Once a round's delta
//! is too small to be worth a merge of the whole base
//! ([`small_delta_floor`]), the fixpoint is finished serially over a hash
//! overlay, which is folded in once.
//!
//! A [`TripleStore`] keeps its bulk as exactly such a frozen store, so
//! closing one is: fold its overlay in (if it has one), run the rounds on
//! the base, and hand the closed base back
//! ([`TripleStore::adopt`]) — no triple of the result is inserted into a
//! per-triple index.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use crate::ast::{Rule, TermPat};
use crate::forward::{apply_rule_delta, forward_closure_delta};
use owlpar_obs::{global as obs_global, Phase, Recorder, Track, NO_ROUND};
use owlpar_rdf::fx::FxHashMap;
use owlpar_rdf::{
    merge_runs, FrozenStore, NodeId, Triple, TriplePattern, TripleSource, TripleStore,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Below this delta size a round is evaluated on the calling thread:
/// spawn + merge overhead dwarfs the join work.
pub const MIN_PARALLEL_DELTA: usize = 256;

/// A delta below this is not worth a frozen round, which ends in a merge
/// of all of `base`: a 64th of the base, so that merge would move at
/// least 64 old rows per new one.
fn small_delta_floor(base: &FrozenStore) -> usize {
    MIN_PARALLEL_DELTA.max(base.len() / 64)
}

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
    if store.len() < MIN_PARALLEL_DELTA {
        let seed: Vec<Triple> = store.iter().collect();
        return forward_closure_delta(store, rules, seed).len();
    }
    compacted_base(store);
    close_base(store, rules, None, threads).len()
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
    if delta.len() < MIN_PARALLEL_DELTA {
        return forward_closure_delta(store, rules, delta);
    }
    compacted_base(store);
    close_base(store, rules, Some(delta), threads)
}

/// Fold `store`'s overlay into its base, if it has one, under a
/// [`Phase::Freeze`] span: the base is then the whole store.
fn compacted_base(store: &mut TripleStore) {
    if store.overlay().next().is_some() {
        let mut track = obs_global().track("compact");
        let freeze = track.begin(Phase::Freeze, NO_ROUND);
        store.compact();
        track.end(freeze);
    }
}

/// Run the frozen rounds from `seed` (`None`: the whole store) over a
/// compacted `store`'s base and give the closed base back to it. Returns
/// the derivations.
fn close_base(
    store: &mut TripleStore,
    rules: &[Rule],
    seed: Option<Vec<Triple>>,
    threads: usize,
) -> Vec<Triple> {
    let threads = resolve_threads(threads).max(1);
    let (closed, derived) = frozen_rounds(Arc::clone(store.base()), rules, seed, threads, None);
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
    let threads = resolve_threads(threads).max(1);
    frozen_rounds(base.into(), rules, Some(seed), threads, None)
}

/// [`closure_delta_over`] for a caller that owns only `threads` cores —
/// one of `k` distributed workers absorbing a delivery beside the others.
/// Joins, the delta index and the per-round merges together never run on
/// more than `threads` threads, the caller's included, so a budget of 1
/// spawns nothing. A `seed` that is an SPO-sorted, duplicate-free run
/// saves its index a sort.
pub fn closure_delta_within(
    base: impl Into<Arc<FrozenStore>>,
    rules: &[Rule],
    seed: Vec<Triple>,
    threads: usize,
) -> (Arc<FrozenStore>, Vec<Triple>) {
    let threads = threads.max(1);
    frozen_rounds(base.into(), rules, Some(seed), threads, Some(threads))
}

/// The closure of all of `base` on at most `threads` threads, the
/// caller's included: [`closure_delta_within`] seeded with every triple,
/// except that round 0 pivots on `base` itself and no seed is copied or
/// indexed.
pub fn closure_within(
    base: impl Into<Arc<FrozenStore>>,
    rules: &[Rule],
    threads: usize,
) -> (Arc<FrozenStore>, Vec<Triple>) {
    let threads = threads.max(1);
    frozen_rounds(base.into(), rules, None, threads, Some(threads))
}

/// The round loop behind every entry point. `seed` is the first delta —
/// `None` for the whole of `base`. `freeze_budget` is the thread cap on
/// the per-round index builds and merges — `None` lets them take the
/// machine — and a caller that states one is a distributed worker whose
/// own lane already spans this whole closure as one `Join` of one of
/// *its* rounds, so in-node spans are not recorded beside it (they would
/// count the same time twice).
fn frozen_rounds(
    mut base: Arc<FrozenStore>,
    rules: &[Rule],
    seed: Option<Vec<Triple>>,
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
    let freeze_threads = freeze_budget.unwrap_or(0);
    let seen = SeenHeads::new(&base, rules);
    let mut all_derived: Vec<Triple> = Vec::new();
    let mut round_no: u32 = 0;

    // The delta of the coming round. `Indexed(None)` is the base itself:
    // round 0 of a whole-store closure.
    enum Delta {
        Indexed(Option<FrozenStore>),
        /// Too small for a frozen round; `true` when `base` holds it.
        Small(Vec<Triple>, bool),
    }
    let mut delta = match seed {
        None => Delta::Indexed(None),
        Some(seed) if seed.len() < small_delta_floor(&base) => Delta::Small(seed, true),
        Some(seed) => Delta::Indexed(Some(FrozenStore::from_sorted_run(&seed, freeze_threads))),
    };
    loop {
        let index = match delta {
            Delta::Indexed(index) => index,
            Delta::Small(small, in_base) => {
                if !small.is_empty() {
                    let round_span = track.begin(Phase::Round, round_no);
                    let join = track.begin(Phase::Join, round_no);
                    let (overlay, derived) = small_tail(&base, rules, small, in_base);
                    track.end(join);
                    all_derived.extend(derived);
                    if !overlay.is_empty() {
                        let freeze = track.begin(Phase::Freeze, round_no);
                        base = Arc::new(base.merge_triples_within(&overlay, freeze_threads));
                        track.end(freeze);
                    }
                    track.end(round_span);
                }
                return (base, all_derived);
            }
        };
        let round_span = track.begin(Phase::Round, round_no);
        // Sorted, deduplicated, *novel* heads from the sharded joins
        // (each shard filters against the frozen base before returning).
        let new = round_candidates(
            &base,
            index.as_ref().unwrap_or(&base),
            rules,
            &seen,
            threads,
            &shard_tracks,
            &mut track,
            round_no,
        );
        // Spent: the coming merge's transient peak should not carry it.
        drop(index);
        all_derived.extend_from_slice(&new);
        delta = if new.len() < small_delta_floor(&base) {
            Delta::Small(new, false)
        } else {
            let freeze = track.begin(Phase::Freeze, round_no);
            let index = FrozenStore::from_sorted_run(&new, freeze_threads);
            base = Arc::new(base.merge_frozen(&index, freeze_threads));
            track.end(freeze);
            Delta::Indexed(Some(index))
        };
        track.end(round_span);
        round_no += 1;
    }
}

/// Finish the fixpoint from a delta under [`small_delta_floor`]: the
/// serial engine derives every remaining consequence into the hash
/// overlay of a store adopted over the untouched `base`. Returns what is
/// to be folded into `base`, as a sorted run — the derivations, with
/// `delta` itself unless `base` already holds it — and what was derived
/// beyond `delta`.
fn small_tail(
    base: &Arc<FrozenStore>,
    rules: &[Rule],
    delta: Vec<Triple>,
    delta_in_base: bool,
) -> (Vec<Triple>, Vec<Triple>) {
    let mut store = TripleStore::new();
    store.adopt(Arc::clone(base));
    if !delta_in_base {
        store.extend(delta.iter().copied());
    }
    let derived = forward_closure_delta(&mut store, rules, delta);
    let mut run: Vec<Triple> = store.overlay().collect();
    run.sort_unstable();
    (run, derived)
}

/// Per-head subject bitmaps: which `?x` of a constant head `(?x p o)` is
/// already a known member.
///
/// One bitmap per distinct `(p, o)` for the whole closure, shared by all
/// shards and rounds. It is allocated at the head's first emission —
/// one bit per node id up to the largest the closure can meet — and
/// seeded there from the `(p, o)` POS row of the base as it then stands.
/// After that a bit is only ever set by the emission that reports it
/// first ([`SeenHeads::first`]), so a set bit means "in the base, or
/// already handed to some shard's candidate run": suppressing such a
/// head loses nothing, and a head that slips through unsuppressed (a
/// member that another head shape derived) still meets the shard's
/// dedup and base filter like any other candidate. The derived *set* is
/// therefore the same as without bitmaps; only the duplicates are gone.
///
/// Memory: all bitmaps together may take as many bytes as the base they
/// are sized from; heads beyond that share stay on the general path.
struct SeenHeads {
    /// Words per bitmap.
    words: usize,
    /// Rule index → slot in `heads` / `bits`, for constant-head rules.
    slot_of_rule: Vec<Option<usize>>,
    /// The distinct `(p, o)` heads that got a slot.
    heads: Vec<(NodeId, NodeId)>,
    bits: Vec<OnceLock<Box<[AtomicU64]>>>,
}

impl SeenHeads {
    fn new(base: &FrozenStore, rules: &[Rule]) -> Self {
        let constants = rules.iter().flat_map(|r| {
            r.body
                .iter()
                .chain(std::iter::once(&r.head))
                .flat_map(|a| a.positions())
                .filter_map(|tp| tp.as_const())
        });
        // Every id a derived triple can carry is in the base or is a rule
        // constant.
        let max_id = base.max_id().into_iter().chain(constants).max();
        let words = max_id.map_or(0, |id| id.0 as usize / 64 + 1);
        // Three families of three 4-byte ids per triple.
        let base_bytes = base.len() * 36;
        let max_heads = base_bytes.checked_div(words * 8).unwrap_or(0);
        let mut heads: Vec<(NodeId, NodeId)> = Vec::new();
        let mut slots: FxHashMap<(NodeId, NodeId), usize> = FxHashMap::default();
        let slot_of_rule = rules
            .iter()
            .map(|r| match (r.head.s, r.head.p, r.head.o) {
                (TermPat::Var(_), TermPat::Const(p), TermPat::Const(o)) => {
                    slots.get(&(p, o)).copied().or_else(|| {
                        (heads.len() < max_heads).then(|| {
                            heads.push((p, o));
                            slots.insert((p, o), heads.len() - 1);
                            heads.len() - 1
                        })
                    })
                }
                _ => None,
            })
            .collect();
        let bits = heads.iter().map(|_| OnceLock::new()).collect();
        SeenHeads {
            words,
            slot_of_rule,
            heads,
            bits,
        }
    }

    /// Is this the first time subject `s` is reported for the head in
    /// `slot`? `view` is the current base, read only to seed the bitmap.
    #[inline]
    fn first(&self, slot: usize, s: NodeId, view: &FrozenStore) -> bool {
        let bits = self.bits[slot].get_or_init(|| {
            let mut known = vec![0u64; self.words];
            let (p, o) = self.heads[slot];
            view.for_each_match(TriplePattern::new(None, Some(p), Some(o)), |t| {
                if let Some(word) = known.get_mut(t.s.0 as usize / 64) {
                    *word |= 1 << (t.s.0 % 64);
                }
            });
            known.into_iter().map(AtomicU64::new).collect()
        });
        let Some(word) = bits.get(s.0 as usize / 64) else {
            return true;
        };
        let bit = 1u64 << (s.0 % 64);
        // Relaxed: the bit publishes nothing but itself — whoever flips
        // it keeps the triple in its own run, which the coordinator reads
        // only after joining the thread. The plain load first spares the
        // (far more common) repeat emission a locked write.
        word.load(Ordering::Relaxed) & bit == 0 && word.fetch_or(bit, Ordering::Relaxed) & bit == 0
    }
}

/// One shard's share of the round's delta index, as the pivot side of
/// [`apply_rule_delta`]. Not a set of triples: each pattern's matches are
/// shared out on their own, which is all a pivot scan needs — over the
/// parts of one round every match of every pattern is seen exactly once.
struct IndexPart<'a> {
    index: &'a FrozenStore,
    part: usize,
    parts: usize,
}

impl TripleSource for IndexPart<'_> {
    fn for_each_match(&self, pat: TriplePattern, f: impl FnMut(Triple)) {
        self.index.for_each_match_part(pat, self.part, self.parts, f);
    }

    fn contains(&self, t: &Triple) -> bool {
        let mut hit = false;
        self.for_each_match(TriplePattern::new(Some(t.s), Some(t.p), Some(t.o)), |_| hit = true);
        hit
    }

    fn len(&self) -> usize {
        let mut n = 0;
        self.for_each_match(TriplePattern::any(), |_| n += 1);
        n
    }
}

/// One round: every shard pivots on its share of `index` (the round's
/// delta), joins against the frozen `view` on its own thread, and the
/// sorted, deduplicated triples that are *not yet* in `view` come back.
///
/// Each shard sorts, dedupes and novelty-filters its own candidates
/// before handing them to the coordinator, so the per-candidate
/// `contains` probes run in parallel and walk the base coherently
/// (ascending probes). The coordinator only resolves cross-shard
/// duplicates, by merging the shards' runs.
#[allow(clippy::too_many_arguments)]
fn round_candidates(
    view: &FrozenStore,
    index: &FrozenStore,
    rules: &[Rule],
    seen: &SeenHeads,
    threads: usize,
    shard_tracks: &[Track],
    track: &mut Track,
    round_no: u32,
) -> Vec<Triple> {
    let shards = threads.min(index.len().div_ceil(MIN_PARALLEL_DELTA / 4)).max(1);
    let join_shard = |part: usize, mut lane: Track| {
        let join = lane.begin(Phase::Join, round_no);
        let pivot = IndexPart {
            index,
            part,
            parts: shards,
        };
        let mut out = Vec::new();
        for (rule, slot) in rules.iter().zip(&seen.slot_of_rule) {
            match *slot {
                Some(slot) => apply_rule_delta(view, &pivot, rule, &mut |t: Triple| {
                    if seen.first(slot, t.s, view) {
                        out.push(t);
                    }
                }),
                None => apply_rule_delta(view, &pivot, rule, &mut |t| out.push(t)),
            }
        }
        lane.end(join);
        let dedup = lane.begin(Phase::Dedup, round_no);
        out.sort_unstable();
        out.dedup();
        out.retain(|t| !view.contains(t));
        lane.end(dedup);
        out
    };

    if shards <= 1 {
        return join_shard(0, track.fork());
    }
    let mut locals: Vec<Vec<Triple>> = Vec::with_capacity(shards);
    std::thread::scope(|scope| {
        let join_shard = &join_shard;
        let handles: Vec<_> = (0..shards)
            .map(|part| {
                let lane = shard_tracks.get(part).map_or_else(|| track.fork(), Track::fork);
                scope.spawn(move || join_shard(part, lane))
            })
            .collect();
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
            let (closed, derived) = closure_delta_within(base.clone(), &rules, seed, threads);
            assert_eq!(closed.iter_sorted(), serial.iter_sorted(), "threads={threads}");
            assert_eq!(derived.len(), serial.len() - n_base);
            // the same closure without a seed: round 0 pivots on the base
            let (whole, mut whole_derived) = closure_within(base, &rules, threads);
            let mut derived = derived;
            derived.sort_unstable();
            whole_derived.sort_unstable();
            assert_eq!(whole.iter_sorted(), closed.iter_sorted(), "threads={threads}");
            assert_eq!(whole_derived, derived, "threads={threads}");

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

    const TYPE: u32 = 102;
    const CLS: u32 = 103;

    fn member_rule(from: u32) -> Rule {
        Rule::new(
            "member",
            atom(v(0), c(NodeId(TYPE)), c(NodeId(CLS))),
            vec![atom(v(0), c(NodeId(from)), v(1))],
        )
        .unwrap()
    }

    #[test]
    fn seen_heads_report_each_subject_once_across_threads() {
        // Known members 0, 63, 64 and 700 seed the bitmap; eight threads
        // then race to report every subject 0..=700 for the same head.
        let known = [0u32, 63, 64, 700];
        let mut facts: Vec<Triple> = known.iter().map(|&s| t(s, TYPE, CLS)).collect();
        facts.extend((0..700).map(|s| t(s, P, s + 1)));
        let base = FrozenStore::from_triples(facts);
        let rules = [member_rule(P), member_rule(Q)];
        let seen = SeenHeads::new(&base, &rules);
        assert_eq!(seen.slot_of_rule, vec![Some(0), Some(0)], "one head, one bitmap");

        let threads = 8;
        let barrier = std::sync::Barrier::new(threads);
        let firsts: Vec<Vec<u32>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        (0..=700u32)
                            .filter(|&s| seen.first(0, NodeId(s), &base))
                            .collect::<Vec<u32>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<u32> = firsts.into_iter().flatten().collect();
        all.sort_unstable();
        let want: Vec<u32> = (0..=700).filter(|s| !known.contains(s)).collect();
        assert_eq!(all, want, "each unknown subject exactly once, no known one");
        // beyond the bitmap: never suppressed
        assert!(seen.first(0, NodeId(1 << 30), &base));
        assert!(seen.first(0, NodeId(1 << 30), &base));
    }

    #[test]
    fn heads_past_the_memory_bound_stay_on_the_general_path() {
        // Three hundred triples whose ids reach 2^27: one bitmap (16 MB)
        // would dwarf the base (11 KB), so no head gets one — and the
        // closure is the serial one all the same.
        let big = 1u32 << 27;
        let facts: Vec<Triple> = (0..300).map(|i| t(big - i, P, i)).collect();
        let rules = [member_rule(P), trans_rule(P)];
        let base = FrozenStore::from_triples(facts.iter().copied());
        let seen = SeenHeads::new(&base, &rules);
        assert_eq!(seen.slot_of_rule, vec![None, None]);
        assert!(seen.bits.is_empty());

        let mut serial: TripleStore = facts.iter().copied().collect();
        forward_closure(&mut serial, &rules);
        let (closed, _) = closure_delta_over(base, &rules, facts, 2);
        assert_eq!(closed.iter_sorted(), serial.iter_sorted());
    }

    #[test]
    fn index_parts_share_out_every_pivot_scan() {
        let facts: Vec<Triple> = (0..500u32).map(|i| t(i % 40, P + i % 3, i % 7)).collect();
        let index = FrozenStore::from_triples(facts);
        let pats = [
            TriplePattern::any(),
            TriplePattern::new(None, Some(NodeId(P)), None),
            TriplePattern::new(Some(NodeId(3)), None, None),
            TriplePattern::new(None, Some(NodeId(P)), Some(NodeId(2))),
            // a single match: shorter than any shard count above one
            TriplePattern::new(Some(NodeId(3)), Some(NodeId(P)), Some(NodeId(3))),
        ];
        for parts in [1, 2, 3, 8] {
            for pat in pats {
                let mut got = Vec::new();
                let mut total = 0;
                for part in 0..parts {
                    let share = IndexPart {
                        index: &index,
                        part,
                        parts,
                    };
                    share.for_each_match(pat, |t| got.push(t));
                    if pat == TriplePattern::any() {
                        total += share.len();
                    }
                }
                got.sort_unstable();
                let mut want = index.matches(pat);
                want.sort_unstable();
                assert_eq!(got, want, "{parts} parts of {pat:?}");
                if pat == TriplePattern::any() {
                    assert_eq!(total, index.len());
                    let hits = (0..parts)
                        .filter(|&part| {
                            IndexPart {
                                index: &index,
                                part,
                                parts,
                            }
                            .contains(&want[0])
                        })
                        .count();
                    assert_eq!(hits, 1, "a triple is in exactly one part");
                }
            }
        }
    }

    #[test]
    fn a_small_seed_finishes_on_the_overlay_and_folds_once() {
        let rules = [trans_rule(P)];
        let mut serial: TripleStore = chain(300).into_iter().collect();
        forward_closure(&mut serial, &rules);
        let base = FrozenStore::from_store(&serial);
        // three fresh links: far under the floor of a 45 k-triple base
        let fresh = vec![t(300, P, 301), t(301, P, 302), t(400, P, 0)];
        let mut want = serial.clone();
        want.extend(fresh.iter().copied());
        let mut want_derived = forward_closure_delta(&mut want, &rules, fresh.clone());
        let grown = base.merge_triples(&fresh);
        assert!(fresh.len() < small_delta_floor(&grown));
        for threads in [1, 2, 4] {
            let (closed, mut derived) =
                closure_delta_over(grown.clone(), &rules, fresh.clone(), threads);
            want_derived.sort_unstable();
            derived.sort_unstable();
            assert_eq!(derived, want_derived, "threads={threads}");
            assert_eq!(closed.iter_sorted(), want.iter_sorted(), "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
