//! Multi-threaded semi-naive evaluation over a frozen base store.
//!
//! The serial engine in [`forward`](crate::forward) spends each round
//! joining the delta against the store. Those joins are independent per
//! delta triple, so this module shards them across a scoped thread pool.
//! A round has **one** delta index — the previous round's new triples as
//! a [`FrozenStore`], or the base itself in round 0 of a whole-store
//! closure — and every shard reads its share of each pivot's match range
//! out of it ([`FrozenStore::for_each_match_part`]); nothing is indexed
//! per shard. Each shard runs the compiled [`Program`] — the same
//! evaluator as the serial engine's — against the closure's immutable
//! view into a thread-local, sorted, novelty-filtered run, and the
//! coordinating thread merges the runs into the next delta. The fixpoint
//! is identical to the serial engine's — only derivation order differs —
//! because semi-naive evaluation is confluent: any instantiation with at
//! least one body atom in the delta is found from that atom as pivot by
//! exactly one shard, and the remaining atoms are joined against the
//! whole view.
//!
//! **Round 0 pivots everything, later rounds only what can find
//! something new.** Round 0 pivots every rule of the program on the
//! seed; in a whole-store closure every atom is in that delta, so each
//! rule pivots on its first atom only. A later round pivots only the
//! multi-atom rules: the one-atom rules, closed under composition, were
//! applied to every product as it was emitted, so the view is closed
//! under them after each round. Each transitive rule is an operator that
//! one shard runs over the whole delta (operator `i` on shard `i mod
//! shards`), emitting exactly what closes its property
//! ([`program`](crate::program)).
//!
//! **Who sorts what.** A new triple is sorted into each column family
//! once: SPO by the shard that derived it (the candidate sort), POS when
//! the round's new run becomes the delta index. That index is both the
//! next round's pivot and a layer of the view.
//!
//! **Duplicates are dropped where they are born.** Nearly every candidate
//! of an OWL-Horst closure is a class membership `(?x rdf:type C)` with
//! `C` one of a few dozen constants, derived many times over. A rule
//! whose head is `(?x, const p, const o)` therefore emits through a
//! subject bitmap for that head ([`SeenHeads`]): only the first emission
//! of a subject reaches the candidate run, whichever shard or round makes
//! it. Every other head shape takes the general path — sort, dedup,
//! filter against the view. The filter is no probe per candidate: the
//! sorted run is walked once beside each store's SPO rows, galloping
//! over the rows between candidates ([`FrozenStore::retain_absent`]).
//!
//! **The base is merged once.** The view is the base, fixed for the whole
//! closure, plus every round's delta index kept as a layer (`Layered`),
//! all pairwise disjoint and read as their union. Layers are merged into
//! each other, never into the base, so a round costs its own index
//! however large the base is and the layers stay logarithmic in number;
//! the closed store is built by one k-way merge of the base and the
//! layers at the fixpoint ([`FrozenStore::merge_all`]). Reads stay
//! lock-free throughout — threads only ever see frozen stores that are
//! not mutated during a round.
//!
//! A [`TripleStore`] keeps its bulk as exactly such a frozen store, so
//! closing one is: fold its overlay in (if it has one), run the rounds on
//! the base, and hand the closed store back
//! ([`TripleStore::adopt`]) — no triple of the result is inserted into a
//! per-triple index.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use crate::ast::{Rule, TermPat};
use crate::forward::forward_closure_delta;
use crate::program::{Program, Round, Sink};
use owlpar_obs::{global as obs_global, Metric, Phase, Recorder, Track, NO_ROUND};
use owlpar_rdf::fx::FxHashMap;
use owlpar_rdf::{
    merge_runs, FrozenStore, NodeId, Triple, TriplePattern, TripleSource, TripleStore,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

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

/// Compute the closure of `store` under `program` using up to `threads`
/// worker threads (0 = auto). Returns the number of derived triples.
///
/// Produces exactly the same fixpoint as
/// [`forward_closure`](crate::forward::forward_closure).
pub fn parallel_closure(store: &mut TripleStore, program: &Program, threads: usize) -> usize {
    if store.len() < MIN_PARALLEL_DELTA {
        return crate::forward::forward_closure(store, program);
    }
    compacted_base(store);
    close_base(store, program, None, threads).len()
}

/// `store` is closed under `program` except that the triples in `delta`
/// were just inserted. Derives all consequences with up to `threads`
/// worker threads (0 = auto), adds them, and returns them (cascades
/// included). Same contract as
/// [`forward_closure_delta`](crate::forward::forward_closure_delta).
pub fn parallel_closure_delta(
    store: &mut TripleStore,
    program: &Program,
    delta: Vec<Triple>,
    threads: usize,
) -> Vec<Triple> {
    if delta.len() < MIN_PARALLEL_DELTA {
        return forward_closure_delta(store, program, delta);
    }
    compacted_base(store);
    close_base(store, program, Some(delta), threads)
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
    program: &Program,
    seed: Option<Vec<Triple>>,
    threads: usize,
) -> Vec<Triple> {
    let threads = resolve_threads(threads).max(1);
    let (closed, derived) = frozen_rounds(Arc::clone(store.base()), program, seed, threads, None);
    store.adopt(closed);
    derived
}

/// Core round loop over a frozen base store.
///
/// `seed` must already be contained in `base`. Each round joins the delta
/// shards against `base` and the earlier rounds' new triples, which are
/// kept beside it as frozen layers; the closed store is built by one
/// merge of the base and the layers at the fixpoint — no per-triple hash
/// maintenance anywhere on the hot path. Returns the final frozen store
/// (the closure; `base` itself when nothing was derived) and every newly
/// derived triple.
///
/// The index builds and merges take whatever cores the machine has, on
/// top of `threads` join shards; a caller that shares the machine uses
/// [`closure_delta_within`].
pub fn closure_delta_over(
    base: impl Into<Arc<FrozenStore>>,
    program: &Program,
    seed: Vec<Triple>,
    threads: usize,
) -> (Arc<FrozenStore>, Vec<Triple>) {
    let threads = resolve_threads(threads).max(1);
    frozen_rounds(base.into(), program, Some(seed), threads, None)
}

/// [`closure_delta_over`] for a caller that owns only `threads` cores —
/// one of `k` distributed workers absorbing a delivery beside the others.
/// Joins, the delta indexes and the merges together never run on more
/// than `threads` threads, the caller's included, so a budget of 1
/// spawns nothing. A `seed` that is an SPO-sorted, duplicate-free run
/// saves its index a sort.
pub fn closure_delta_within(
    base: impl Into<Arc<FrozenStore>>,
    program: &Program,
    seed: Vec<Triple>,
    threads: usize,
) -> (Arc<FrozenStore>, Vec<Triple>) {
    let threads = threads.max(1);
    frozen_rounds(base.into(), program, Some(seed), threads, Some(threads))
}

/// The closure of all of `base` on at most `threads` threads, the
/// caller's included: [`closure_delta_within`] seeded with every triple,
/// except that round 0 pivots on `base` itself and no seed is copied or
/// indexed.
pub fn closure_within(
    base: impl Into<Arc<FrozenStore>>,
    program: &Program,
    threads: usize,
) -> (Arc<FrozenStore>, Vec<Triple>) {
    let threads = threads.max(1);
    frozen_rounds(base.into(), program, None, threads, Some(threads))
}

/// The round loop behind every entry point. `seed` is the first delta —
/// `None` for the whole of `base`. `freeze_budget` is the thread cap on
/// the index builds and merges — `None` lets them take the machine — and
/// a caller that states one is a distributed worker whose own lane
/// already spans this whole closure as one `Join` of one of *its* rounds,
/// so in-node spans are not recorded beside it (they would count the same
/// time twice).
///
/// Per round the closure lane counts the candidates the joins produced
/// ([`Metric::Triples`] under [`Phase::Join`]) and the new triples
/// ([`Metric::Derived`]); the final merge's [`Phase::Freeze`] span counts
/// the rows it merged.
fn frozen_rounds(
    base: Arc<FrozenStore>,
    program: &Program,
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
    let seen = SeenHeads::new(&base, program.rules());
    // What each operator emitted the round before.
    let mut closed: Vec<Vec<Triple>> = vec![Vec::new(); program.operators()];
    let mut round_no: u32 = 0;
    // The delta of the coming round; `None` is the base itself, round 0
    // of a whole-store closure.
    let mut pivot =
        seed.map(|seed| Arc::new(FrozenStore::from_sorted_run(&seed, freeze_threads)));
    let mut view = Layered {
        base,
        layers: Vec::new(),
    };
    loop {
        let round_span = track.begin(Phase::Round, round_no);
        let round = if round_no == 0 {
            Round::Seed {
                whole: pivot.is_none(),
            }
        } else {
            Round::Delta
        };
        let (new, candidates) = round_candidates(
            &view,
            pivot.as_deref(),
            program,
            round,
            &mut closed,
            &seen,
            threads,
            &shard_tracks,
            &mut track,
            round_no,
        );
        track.count(Phase::Join, round_no, Metric::Triples, candidates as u64);
        track.count(Phase::Round, round_no, Metric::Derived, new.len() as u64);
        // Spent: the coming index build should not carry it.
        drop(pivot);
        if new.is_empty() {
            let closed = if view.layers.is_empty() {
                (view.base, Vec::new())
            } else {
                let freeze = track.begin(Phase::Freeze, round_no);
                let rows = view.len() as u64;
                let closed = view.close(freeze_threads);
                track.count(Phase::Freeze, round_no, Metric::Triples, rows);
                track.end(freeze);
                closed
            };
            track.end(round_span);
            return closed;
        }
        let freeze = track.begin(Phase::Freeze, round_no);
        let index = Arc::new(FrozenStore::from_sorted_run(&new, freeze_threads));
        view.push(Arc::clone(&index), freeze_threads);
        track.end(freeze);
        pivot = Some(index);
        track.end(round_span);
        round_no += 1;
    }
}

/// What a round joins against: the closure's base, fixed for the whole
/// closure, and the frozen indexes of the rounds' new triples as layers
/// — pairwise disjoint, since each round keeps only triples the view did
/// not hold, and read as their union.
struct Layered {
    base: Arc<FrozenStore>,
    /// Oldest first; each more than twice the size of the next.
    layers: Vec<Arc<FrozenStore>>,
}

impl Layered {
    /// Add `index` as the newest layer, then merge the two newest while
    /// the newer is at least half the older: like the carries of a binary
    /// counter, this keeps the layers within log2 of the derived count in
    /// number and copies a triple O(log) times, however many rounds there
    /// are. The base is never merged here.
    fn push(&mut self, index: Arc<FrozenStore>, threads: usize) {
        self.layers.push(index);
        while let [.., older, newer] = self.layers.as_slice() {
            if newer.len() * 2 < older.len() {
                break;
            }
            let merged = Arc::new(older.merge_frozen(newer, threads));
            self.layers.truncate(self.layers.len() - 2);
            self.layers.push(merged);
        }
    }

    /// The union as one frozen store, by one k-way merge, and the layers'
    /// own triples — everything the rounds derived — read out after it.
    fn close(self, threads: usize) -> (Arc<FrozenStore>, Vec<Triple>) {
        let layers: Vec<&FrozenStore> = self.layers.iter().map(Arc::as_ref).collect();
        let closed = Arc::new(self.base.merge_all(&layers, threads));
        let derived = layers.iter().flat_map(|layer| layer.iter()).collect();
        (closed, derived)
    }

    fn stores(&self) -> impl Iterator<Item = &FrozenStore> {
        std::iter::once(self.base.as_ref()).chain(self.layers.iter().map(Arc::as_ref))
    }

    /// Drop from `run`, an SPO-sorted, duplicate-free run, every triple
    /// the view holds: one merge walk of the run per store
    /// ([`FrozenStore::retain_absent`]).
    fn retain_new(&self, run: &mut Vec<Triple>) {
        for store in self.stores() {
            if run.is_empty() {
                return;
            }
            store.retain_absent(run);
        }
    }
}

impl TripleSource for Layered {
    fn for_each_match(&self, pat: TriplePattern, mut f: impl FnMut(Triple)) {
        for store in self.stores() {
            store.for_each_match(pat, &mut f);
        }
    }

    fn contains(&self, t: &Triple) -> bool {
        self.stores().any(|store| store.contains(t))
    }

    fn len(&self) -> usize {
        self.stores().map(FrozenStore::len).sum()
    }
}

/// Per-head subject bitmaps: which `?x` of a constant head `(?x p o)` is
/// already a known member.
///
/// One bitmap per distinct `(p, o)` for the whole closure, shared by all
/// shards and rounds. It is allocated at the head's first emission —
/// one bit per node id up to the largest the closure can meet — and
/// seeded there from the `(p, o)` POS rows of the view as it then stands.
/// After that a bit is only ever set by the emission that reports it
/// first ([`SeenHeads::first`]), so a set bit means "in the view, or
/// already handed to some shard's candidate run": suppressing such a
/// head loses nothing, and a head that slips through unsuppressed (a
/// member that another head shape derived) still meets the shard's
/// dedup and view filter like any other candidate. The derived *set* is
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
        // Two families of three 4-byte ids per triple.
        let base_bytes = base.len() * 24;
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
    /// `slot`? `view` is what the round joins against, read only to seed
    /// the bitmap.
    #[inline]
    fn first(&self, slot: usize, s: NodeId, view: &impl TripleSource) -> bool {
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

/// A shard's candidate run: a product with a constant head `(?x p o)`
/// goes in only if [`SeenHeads`] reports its subject first.
struct Candidates<'a> {
    seen: &'a SeenHeads,
    view: &'a Layered,
    out: Vec<Triple>,
}

impl Sink for Candidates<'_> {
    #[inline]
    fn offer(&mut self, rule: Option<usize>, t: Triple) -> bool {
        if let Some(slot) = rule.and_then(|i| self.seen.slot_of_rule[i]) {
            if !self.seen.first(slot, t.s, self.view) {
                return false;
            }
        }
        self.out.push(t);
        true
    }
}

/// One round: every shard pivots `round`'s rules on its share of `pivot`
/// (the round's delta; `None` is the whole base), runs its share of the
/// operators on all of it, joins against `view` on its own thread, and
/// the sorted, deduplicated triples that are *not yet* in `view` come
/// back, with the number of candidates the joins produced. `closed`
/// holds what each operator emitted the round before, and is replaced by
/// what it emits in this one.
///
/// Each shard sorts, dedupes and novelty-filters its own candidates
/// before handing them to the coordinator, so the filter runs in
/// parallel and is one merge walk of the sorted run beside each store of
/// the view ([`Layered::retain_new`]), not a probe per candidate. The
/// coordinator only resolves cross-shard duplicates, by merging the
/// shards' runs.
#[allow(clippy::too_many_arguments)]
fn round_candidates(
    view: &Layered,
    pivot: Option<&FrozenStore>,
    program: &Program,
    round: Round,
    closed: &mut Vec<Vec<Triple>>,
    seen: &SeenHeads,
    threads: usize,
    shard_tracks: &[Track],
    track: &mut Track,
    round_no: u32,
) -> (Vec<Triple>, usize) {
    let index = pivot.unwrap_or(&view.base);
    let shards = threads.min(index.len().div_ceil(MIN_PARALLEL_DELTA / 4)).max(1);
    let prev = std::mem::take(closed);
    let join_shard = |part: usize, mut lane: Track| {
        let join = lane.begin(Phase::Join, round_no);
        let share = IndexPart {
            index,
            part,
            parts: shards,
        };
        let mut sink = Candidates {
            seen,
            view,
            out: Vec::new(),
        };
        program.pivot(view, &share, round, &mut sink);
        let ops: Vec<(usize, Vec<Triple>)> = (part..prev.len())
            .step_by(shards)
            .map(|op| (op, program.close_transitive(op, view, index, round, &prev[op], &mut sink)))
            .collect();
        lane.end(join);
        let mut out = sink.out;
        let candidates = out.len();
        let dedup = lane.begin(Phase::Dedup, round_no);
        out.sort_unstable();
        out.dedup();
        view.retain_new(&mut out);
        lane.end(dedup);
        (out, candidates, ops)
    };

    closed.resize(prev.len(), Vec::new());
    if shards <= 1 {
        let (out, candidates, ops) = join_shard(0, track.fork());
        for (op, emitted) in ops {
            closed[op] = emitted;
        }
        return (out, candidates);
    }
    let mut locals: Vec<Vec<Triple>> = Vec::with_capacity(shards);
    let mut candidates = 0;
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
                Ok((out, n, ops)) => {
                    locals.push(out);
                    candidates += n;
                    for (op, emitted) in ops {
                        closed[op] = emitted;
                    }
                }
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
    (out, candidates)
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
            forward_closure(&mut serial, &Program::compile(&[trans_rule(P)]));

            let mut par: TripleStore = chain(60).into_iter().collect();
            let n = parallel_closure(&mut par, &Program::compile(&[trans_rule(P)]), threads);
            assert_eq!(par.iter_sorted(), serial.iter_sorted(), "threads={threads}");
            assert_eq!(n, 60 * 61 / 2 - 60, "threads={threads}");
        }
    }

    #[test]
    fn delta_matches_serial_delta() {
        let rules = [trans_rule(P)];
        // close a chain, then extend it with a batch of fresh links
        let mut serial: TripleStore = chain(40).into_iter().collect();
        forward_closure(&mut serial, &Program::compile(&rules));
        let mut par = serial.clone();

        let fresh: Vec<Triple> = (41..80).map(|i| t(i, P, i + 1)).collect();
        for &f in &fresh {
            serial.insert(f);
            par.insert(f);
        }
        let mut a = forward_closure_delta(&mut serial, &Program::compile(&rules), fresh.clone());
        let mut b = parallel_closure_delta(&mut par, &Program::compile(&rules), fresh, 4);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(par.iter_sorted(), serial.iter_sorted());
    }

    #[test]
    fn small_deltas_fall_back_to_serial_and_agree() {
        let rules = [trans_rule(P)];
        let mut s: TripleStore = [t(0, P, 1), t(1, P, 2)].into_iter().collect();
        let n = parallel_closure(&mut s, &Program::compile(&rules), 8);
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
        forward_closure(&mut serial, &Program::compile(&rules));
        for threads in [2, 8] {
            let mut par: TripleStore = facts.iter().copied().collect();
            parallel_closure(&mut par, &Program::compile(&rules), threads);
            assert_eq!(par.iter_sorted(), serial.iter_sorted(), "threads={threads}");
        }
    }

    #[test]
    fn closure_delta_over_returns_closed_frozen_store() {
        let rules = [trans_rule(P)];
        let facts = chain(150);
        let mut serial: TripleStore = facts.iter().copied().collect();
        forward_closure(&mut serial, &Program::compile(&rules));

        let base = FrozenStore::from_triples(facts.iter().copied());
        let (closed, derived) = closure_delta_over(base, &Program::compile(&rules), facts.clone(), 4);
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
        forward_closure(&mut serial, &Program::compile(&rules));

        for threads in [1, 2, 3] {
            // whole-base seed: round 0 joins the base against itself
            let base = FrozenStore::from_triples(facts.iter().copied());
            let seed = base.iter_sorted();
            let n_base = base.len();
            let (closed, derived) = closure_delta_within(base.clone(), &Program::compile(&rules), seed, threads);
            assert_eq!(closed.iter_sorted(), serial.iter_sorted(), "threads={threads}");
            assert_eq!(derived.len(), serial.len() - n_base);
            // the same closure without a seed: round 0 pivots on the base
            let (whole, mut whole_derived) = closure_within(base, &Program::compile(&rules), threads);
            let mut derived = derived;
            derived.sort_unstable();
            whole_derived.sort_unstable();
            assert_eq!(whole.iter_sorted(), closed.iter_sorted(), "threads={threads}");
            assert_eq!(whole_derived, derived, "threads={threads}");

            // delta seed over an already-closed base
            let extra: Vec<Triple> = (0..300).map(|i| t(100 + i, Q, i % 41)).collect();
            let mut want = serial.clone();
            let fresh: Vec<Triple> = extra.iter().copied().filter(|&t| want.insert(t)).collect();
            let mut want_derived = crate::forward::forward_closure_delta(&mut want, &Program::compile(&rules), fresh);
            let grown = closed.merge_triples_within(&extra, threads);
            let mut seed = extra.clone();
            seed.sort_unstable();
            let (closed2, mut derived2) = closure_delta_within(grown, &Program::compile(&rules), seed, threads);
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
        forward_closure(&mut serial, &Program::compile(&rules));
        let (closed, _) = closure_delta_over(base, &Program::compile(&rules), facts, 2);
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
            // object-first with an open predicate: rows of the subject's
            // SPO row, and the object's block under every predicate
            TriplePattern::new(Some(NodeId(3)), None, Some(NodeId(3))),
            TriplePattern::new(None, None, Some(NodeId(2))),
        ];
        let under = |pat: TriplePattern| {
            let preds: std::collections::BTreeSet<NodeId> =
                index.matches(pat).iter().map(|t| t.p).collect();
            preds.len()
        };
        assert_eq!(under(pats[5]), 2, "(s, ?, o) spans two predicates");
        assert_eq!(under(pats[6]), 3, "(?, ?, o) spans all three");
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
        forward_closure(&mut serial, &Program::compile(&rules));
        let base = FrozenStore::from_store(&serial);
        // three fresh links into a 45 k-triple base: each round costs its
        // own few hundred triples, and the base is merged once, at the end
        let fresh = vec![t(300, P, 301), t(301, P, 302), t(400, P, 0)];
        let mut want = serial.clone();
        want.extend(fresh.iter().copied());
        let mut want_derived = forward_closure_delta(&mut want, &Program::compile(&rules), fresh.clone());
        let grown = base.merge_triples(&fresh);
        assert!(fresh.len() * 64 < grown.len());
        for threads in [1, 2, 4] {
            let (closed, mut derived) =
                closure_delta_over(grown.clone(), &Program::compile(&rules), fresh.clone(), threads);
            want_derived.sort_unstable();
            derived.sort_unstable();
            assert_eq!(derived, want_derived, "threads={threads}");
            assert_eq!(closed.iter_sorted(), want.iter_sorted(), "threads={threads}");
        }
    }

    #[test]
    fn the_layered_view_reads_as_the_union() {
        let all: Vec<Triple> = (0..3000u32)
            .map(|i| t(i % 53, P + i % 4, (i * 31) % 97))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        // a base and disjoint rounds of shrinking, then growing size
        let mut rest = all.as_slice();
        let mut take = |n: usize| {
            let (head, tail) = rest.split_at(n.min(rest.len()));
            rest = tail;
            FrozenStore::from_triples(head.iter().copied())
        };
        let mut view = Layered {
            base: Arc::new(take(1000)),
            layers: Vec::new(),
        };
        let mut pushed = 0;
        for n in [400, 300, 90, 40, 3, 1, 30, 200, 60, 9] {
            let layer = take(n);
            pushed += layer.len();
            view.push(Arc::new(layer), 2);
            assert!(
                view.layers.windows(2).all(|w| w[0].len() > 2 * w[1].len()),
                "each layer more than twice the next"
            );
            assert!(view.layers.len() <= pushed.ilog2() as usize + 1);
        }
        assert_eq!(view.layers.len(), 3, "1064, 60 and 9 triples");
        let union = FrozenStore::from_triples(all[..all.len() - rest.len()].iter().copied());
        assert_eq!(view.len(), union.len());
        let probes = [t(0, P, 0), t(7, P + 3, 7 * 31 % 97), t(52, P + 1, 5), t(99, P, 1)];
        for probe in all.iter().step_by(97).chain(&probes) {
            assert_eq!(view.contains(probe), union.contains(probe), "{probe:?}");
            for mask in 0..8u8 {
                let pat = TriplePattern::new(
                    (mask & 4 != 0).then_some(probe.s),
                    (mask & 2 != 0).then_some(probe.p),
                    (mask & 1 != 0).then_some(probe.o),
                );
                let mut got = view.matches(pat);
                got.sort_unstable();
                let mut want = union.matches(pat);
                want.sort_unstable();
                assert_eq!(got, want, "{pat:?}");
            }
        }
        let mut fresh: Vec<Triple> = (0..3000u32).map(|i| t(i % 60, P + i % 5, (i * 7) % 101)).collect();
        fresh.sort_unstable();
        fresh.dedup();
        let mut want = fresh.clone();
        want.retain(|t| !view.contains(t));
        assert!(!want.is_empty() && want.len() < fresh.len(), "some known, some new");
        view.retain_new(&mut fresh);
        assert_eq!(fresh, want, "the merge walk keeps what the probes keep");
        let (closed, derived) = view.close(2);
        assert_eq!(closed.iter_sorted(), union.iter_sorted());
        assert_eq!(derived.len(), pushed, "the layers' triples, each once");
    }

    mod layered {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        fn triples(max: usize) -> impl Strategy<Value = Vec<Triple>> {
            prop::collection::vec((0u32..10, 0u32..3, 0u32..10), 0..max)
                .prop_map(|v| v.into_iter().map(|(s, p, o)| t(s, P + p, o)).collect())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// A random base and random layers, each layer keeping only
            /// what the view did not hold yet, as a round does: every
            /// pattern shape, `contains` and `len` read the union.
            #[test]
            fn the_layered_view_is_the_union_of_its_stores(
                base in triples(60),
                layers in prop::collection::vec(triples(30), 0..6),
                absent in triples(4),
            ) {
                let mut model: BTreeSet<Triple> = base.iter().copied().collect();
                let mut view = Layered {
                    base: Arc::new(FrozenStore::from_triples(base)),
                    layers: Vec::new(),
                };
                for layer in layers {
                    let fresh: Vec<Triple> = layer.into_iter().filter(|&t| model.insert(t)).collect();
                    view.push(Arc::new(FrozenStore::from_triples(fresh)), 2);
                }
                prop_assert_eq!(view.len(), model.len());
                for probe in model.iter().chain(&absent) {
                    prop_assert_eq!(view.contains(probe), model.contains(probe), "{:?}", probe);
                    for mask in 0..8u8 {
                        let pat = TriplePattern::new(
                            (mask & 4 != 0).then_some(probe.s),
                            (mask & 2 != 0).then_some(probe.p),
                            (mask & 1 != 0).then_some(probe.o),
                        );
                        // not deduplicated: a triple two stores report would show
                        let mut got = view.matches(pat);
                        got.sort_unstable();
                        let want: Vec<Triple> = model.iter().copied().filter(|t| pat.matches(t)).collect();
                        prop_assert_eq!(got, want, "{:?}", pat);
                    }
                }
                let want: Vec<Triple> = model.into_iter().collect();
                prop_assert_eq!(view.close(2).0.iter_sorted(), want);
            }
        }
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
