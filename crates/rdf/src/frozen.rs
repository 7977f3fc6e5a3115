//! Frozen, read-optimized triple storage for lock-free parallel joins.
//!
//! Nested hash maps are built for cheap inserts. That shape is hostile to
//! the parallel closure engine — hash maps scatter the posting lists
//! across the heap, and sharing them from many threads still pays
//! pointer-chasing on every probe. [`FrozenStore`] is the read path's
//! answer, and the layer a [`TripleStore`](crate::TripleStore) keeps its
//! bulk in: the triples
//! laid out **twice as sorted flat columns** (SPO and POS order) with
//! CSR-style offset indexes over the leading component. A
//! [`TriplePattern`]'s matches are one contiguous slice scan, or, with the
//! object bound and the predicate open, one per predicate; the whole
//! structure is immutable and `Sync`, and concurrent `for_each_match`
//! from any number of threads is wait-free.
//!
//! Mutation is layered on top, LSM-style, instead of in place, and the
//! layering has one home: a [`TripleStore`](crate::TripleStore) is an
//! `Arc<FrozenStore>` base plus a small hash overlay read as their union
//! — what a closure round joins against, what a worker absorbs deliveries
//! into and what the serving layer publishes as a snapshot (a clone
//! copies the overlay and shares the base). Compaction
//! ([`FrozenStore::merge_triples`] and friends) folds a delta into the
//! base by a linear merge of already-sorted runs, not a rebuild.
//!
//! The [`TripleSource`] trait abstracts over both (frozen and two-layer),
//! so the datalog joins and the query engine run unchanged against
//! whichever representation holds the data.

// Shared read path of the parallel closure: never panic (same discipline
// as owlpar-core; enforced in CI by clippy).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::dictionary::NodeId;
use crate::store::{Nested, TriplePattern, TripleStore};
use crate::triple::Triple;
use std::sync::Arc;

/// Read access to an indexed set of triples: the interface the datalog
/// joins and the query engine actually need. Implemented by the two-layer
/// [`TripleStore`] and the immutable [`FrozenStore`].
///
/// Matches are exact: `for_each_match` reports every held triple that
/// agrees with each position `pat` fixes, and only those, each once. The
/// datalog join plans rely on it — they never re-check a position their
/// lookup fixed — so an implementation must not over-approximate.
pub trait TripleSource {
    /// Invoke `f` for every triple matching `pat`, exactly (see the
    /// trait).
    fn for_each_match(&self, pat: TriplePattern, f: impl FnMut(Triple));

    /// Membership test.
    fn contains(&self, t: &Triple) -> bool;

    /// Number of distinct triples.
    fn len(&self) -> usize;

    /// `true` iff no triples are held.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Collect all matches of `pat` into a vector.
    fn matches(&self, pat: TriplePattern) -> Vec<Triple> {
        let mut out = Vec::new();
        self.for_each_match(pat, |t| out.push(t));
        out
    }
}

impl TripleSource for TripleStore {
    fn for_each_match(&self, pat: TriplePattern, f: impl FnMut(Triple)) {
        TripleStore::for_each_match(self, pat, f);
    }

    fn contains(&self, t: &Triple) -> bool {
        TripleStore::contains(self, t)
    }

    fn len(&self) -> usize {
        TripleStore::len(self)
    }
}

/// One sorted column family: the triples permuted into `(k0, k1, k2)`
/// order plus a CSR index over the distinct leading keys.
#[derive(Debug, Clone, Default)]
struct SortedIndex {
    /// Triples as `(k0, k1, k2)` key tuples, sorted lexicographically.
    rows: Vec<[NodeId; 3]>,
    /// Distinct leading keys, ascending.
    keys: Vec<NodeId>,
    /// `keys.len() + 1` offsets into `rows`: the triples whose leading
    /// key is `keys[i]` live in `rows[offs[i] .. offs[i + 1]]`.
    offs: Vec<u32>,
}

impl SortedIndex {
    /// Build from rows already sorted in `(k0, k1, k2)` order.
    fn from_sorted(rows: Vec<[NodeId; 3]>) -> Self {
        let mut keys = Vec::new();
        let mut offs = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            if keys.last() != Some(&row[0]) {
                keys.push(row[0]);
                offs.push(i as u32);
            }
        }
        offs.push(rows.len() as u32);
        SortedIndex { rows, keys, offs }
    }

    /// The contiguous row block for leading key `k0` (empty if absent).
    fn row(&self, k0: NodeId) -> &[[NodeId; 3]] {
        match self.keys.binary_search(&k0) {
            Ok(i) => {
                let a = self.offs[i] as usize;
                let b = self.offs[i + 1] as usize;
                &self.rows[a..b]
            }
            Err(_) => &[],
        }
    }

    /// The sub-block of `row(k0)` whose second component equals `k1`.
    fn row2(&self, k0: NodeId, k1: NodeId) -> &[[NodeId; 3]] {
        second_eq(self.row(k0), k1)
    }

    /// The row block of every leading key, in key order.
    fn blocks(&self) -> impl Iterator<Item = &[[NodeId; 3]]> {
        self.offs.windows(2).map(|w| &self.rows[w[0] as usize..w[1] as usize])
    }

    /// The zero- or one-row block holding exactly `key`.
    fn exact(&self, key: [NodeId; 3]) -> &[[NodeId; 3]] {
        let row = self.row(key[0]);
        match row.binary_search(&key) {
            Ok(i) => &row[i..=i],
            Err(_) => &[],
        }
    }

    /// Is the exact key tuple present?
    fn contains(&self, key: [NodeId; 3]) -> bool {
        !self.exact(key).is_empty()
    }
}

/// The sub-block of `row`, rows of one leading key, whose second
/// component equals `k1`.
fn second_eq(row: &[[NodeId; 3]], k1: NodeId) -> &[[NodeId; 3]] {
    let a = row.partition_point(|r| r[1] < k1);
    let b = row.partition_point(|r| r[1] <= k1);
    &row[a..b]
}

/// Which column family a block of rows came from, i.e. how a row's key
/// tuple maps back to `(s, p, o)`.
#[derive(Clone, Copy)]
enum Family {
    Spo,
    Pos,
}

/// Call `f` on every row of `rows`, un-permuted. The family is matched
/// once, outside the loop.
fn emit_rows(family: Family, rows: &[[NodeId; 3]], mut f: impl FnMut(Triple)) {
    match family {
        Family::Spo => rows.iter().for_each(|r| f(Triple::new(r[0], r[1], r[2]))),
        Family::Pos => rows.iter().for_each(|r| f(Triple::new(r[2], r[0], r[1]))),
    }
}

/// An immutable triple store: sorted flat columns + CSR offset indexes in
/// SPO and POS order. `Send + Sync`; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct FrozenStore {
    spo: SortedIndex,
    pos: SortedIndex,
}

fn spo_key(t: &Triple) -> [NodeId; 3] {
    [t.s, t.p, t.o]
}

fn pos_key(t: &Triple) -> [NodeId; 3] {
    [t.p, t.o, t.s]
}

/// Length of the prefix of sorted `run` that is `< bound`, found by
/// doubling steps and then a binary search inside the last step: O(log
/// of the answer), so a short prefix costs a comparison or two and a
/// long one is not walked row by row.
fn prefix_below<T: Ord>(run: &[T], bound: &T) -> usize {
    let mut hi = 1;
    while hi < run.len() && run[hi - 1] < *bound {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(run.len());
    lo + run[lo..hi].partition_point(|r| r < bound)
}

/// Merge two sorted, duplicate-free runs into one. Rows move in blocks:
/// a round's delta lands in a few places of a family (the class rows of
/// POS), and everything between them is one copy.
fn merge_sorted<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                let n = prefix_below(&a[i..], &b[j]);
                out.extend_from_slice(&a[i..i + n]);
                i += n;
            }
            std::cmp::Ordering::Greater => {
                let n = prefix_below(&b[j..], &a[i]);
                out.extend_from_slice(&b[j..j + n]);
                j += n;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// `true` iff `run` is SPO-sorted and duplicate-free.
pub fn is_sorted_run(run: &[Triple]) -> bool {
    run.windows(2).all(|w| w[0] < w[1])
}

/// K-way merge of SPO-sorted, duplicate-free runs into one such run:
/// every triple any run holds, once, in ascending order — a balanced tree
/// of two-way linear merges. This is how the distributed masters
/// aggregate their workers' outputs and the closure engine its shards':
/// a triple several of them derived is dropped here by one comparison
/// instead of being hashed once per copy.
pub fn merge_runs<R: AsRef<[Triple]>>(runs: &[R]) -> Vec<Triple> {
    merge_sorted_runs(runs)
}

/// [`merge_runs`] for rows of any one order.
fn merge_sorted_runs<T: Ord + Copy, R: AsRef<[T]>>(runs: &[R]) -> Vec<T> {
    let ascending = |run: &R| run.as_ref().windows(2).all(|w| w[0] < w[1]);
    match runs {
        [] => Vec::new(),
        [run] => {
            debug_assert!(ascending(run));
            run.as_ref().to_vec()
        }
        [a, b] => {
            debug_assert!(ascending(a) && ascending(b));
            merge_sorted(a.as_ref(), b.as_ref())
        }
        _ => {
            let (left, right) = runs.split_at(runs.len() / 2);
            merge_sorted(&merge_sorted_runs(left), &merge_sorted_runs(right))
        }
    }
}

impl FrozenStore {
    /// An empty frozen store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The contents of `store` as one frozen store. A compacted store
    /// already is one: its base columns are copied, not rebuilt (take
    /// [`TripleStore::frozen`] to share them instead); otherwise this is
    /// the base merged with the overlay.
    pub fn from_store(store: &TripleStore) -> Self {
        Arc::unwrap_or_clone(store.frozen())
    }

    /// `self` ∪ an overlay given as its two nested hash indexes
    /// (`(spo, pos)`, `triples` entries each, sharing no triple with
    /// `self`) — the compaction step of [`TripleStore`]. Each family of
    /// the overlay is emitted key-run by key-run, so only the (much
    /// smaller) key sets and the per-run posting lists get sorted, never
    /// the full triple set; the result is merged with `self`'s family in
    /// one linear pass. At most `threads` threads, the caller's included
    /// (`0`: whatever the machine has).
    pub(crate) fn fold_nested(&self, nested: [&Nested; 2], triples: usize, threads: usize) -> Self {
        let build = |nested: &Nested, family: &SortedIndex| {
            let mut k0s: Vec<NodeId> = nested.keys().copied().collect();
            k0s.sort_unstable();
            let mut rows: Vec<[NodeId; 3]> = Vec::with_capacity(triples);
            for k0 in k0s {
                let Some(inner) = nested.get(&k0) else { continue };
                let mut k1s: Vec<NodeId> = inner.keys().copied().collect();
                k1s.sort_unstable();
                for k1 in k1s {
                    let Some(k2s) = inner.get(&k1) else { continue };
                    let start = rows.len();
                    for &k2 in k2s {
                        rows.push([k0, k1, k2]);
                    }
                    // within a (k0, k1) run only k2 varies, and posting
                    // lists are duplicate-free by store invariant
                    rows[start..].sort_unstable();
                }
            }
            if !family.rows.is_empty() {
                rows = merge_sorted(&family.rows, &rows);
            }
            SortedIndex::from_sorted(rows)
        };
        let [spo_n, pos_n] = nested;
        Self::build_families(
            threads,
            self.len() + triples,
            || build(spo_n, &self.spo),
            || build(pos_n, &self.pos),
        )
    }

    /// Freeze an arbitrary collection of triples (duplicates tolerated).
    pub fn from_triples(triples: impl IntoIterator<Item = Triple>) -> Self {
        let triples: Vec<Triple> = triples.into_iter().collect();
        let build = |key: fn(&Triple) -> [NodeId; 3]| {
            let mut rows: Vec<[NodeId; 3]> = triples.iter().map(key).collect();
            rows.sort_unstable();
            rows.dedup();
            SortedIndex::from_sorted(rows)
        };
        Self::build_families(0, triples.len(), || build(spo_key), || build(pos_key))
    }

    /// Freeze a run that is already SPO-sorted and duplicate-free (a
    /// decoded triple block, a partition cut from a sorted KB): the run
    /// *is* the SPO family, and POS is sorted on its leading components
    /// only. Uses at most `threads` threads, the caller's
    /// included — `1` builds everything on the calling thread, `0` takes
    /// whatever the machine has. A run that turns out not to be strictly
    /// ascending is sorted and deduplicated like
    /// [`FrozenStore::from_triples`] would.
    pub fn from_sorted_run(run: &[Triple], threads: usize) -> Self {
        let ascending = is_sorted_run(run);
        // `finish` puts the rows of an ascending run in order by sorting
        // on the family's leading components alone, stably: the run is
        // (s, p, o)-ordered, so its POS rows `[p, o, s]` already ascend
        // in `s` within one `(p, o)`. Shorter comparisons, over input that
        // is long ascending stretches — a third of a full sort's time on
        // a closure round's delta.
        let build = |key: fn(&Triple) -> [NodeId; 3], finish: fn(&mut Vec<[NodeId; 3]>)| {
            let mut rows: Vec<[NodeId; 3]> = run.iter().map(key).collect();
            if ascending {
                finish(&mut rows);
            } else {
                rows.sort_unstable();
                rows.dedup();
            }
            SortedIndex::from_sorted(rows)
        };
        Self::build_families(
            threads,
            run.len(),
            || build(spo_key, |_| ()),
            || build(pos_key, |rows| rows.sort_by_key(|r| (r[0], r[1]))),
        )
    }

    /// Compaction: fold a batch of triples (any order, duplicates
    /// tolerated; an SPO-sorted, duplicate-free run saves a sort) into a
    /// new frozen store. Each column family is a linear merge of two
    /// sorted runs — O(n + |delta| log |delta|), not a full rebuild's
    /// O(n log n).
    pub fn merge_triples(&self, delta: &[Triple]) -> FrozenStore {
        self.merge_triples_within(delta, 0)
    }

    /// [`FrozenStore::merge_triples`] on at most `threads` threads, the
    /// caller's included (`0`: whatever the machine has): index the
    /// batch, then [`merge_frozen`](FrozenStore::merge_frozen).
    pub fn merge_triples_within(&self, delta: &[Triple], threads: usize) -> FrozenStore {
        let delta = Self::from_sorted_run(delta, threads);
        if self.is_empty() {
            return delta;
        }
        self.merge_frozen(&delta, threads)
    }

    /// `self` ∪ `other` as a new frozen store: both sides are already
    /// sorted both ways, so each family is one linear merge and nothing
    /// is sorted. Uses at most `threads` threads, the caller's included
    /// (`0`: whatever the machine has).
    pub fn merge_frozen(&self, other: &FrozenStore, threads: usize) -> FrozenStore {
        self.merge_all(&[other], threads)
    }

    /// `self` ∪ every store of `others` as one new frozen store, on at
    /// most `threads` threads like [`merge_frozen`](FrozenStore::merge_frozen).
    /// Per family, `others` are merged with each other first and the
    /// result with `self` in one linear pass, so a large `self` beside
    /// small `others` has its rows copied once, whatever their number.
    pub fn merge_all(&self, others: &[&FrozenStore], threads: usize) -> FrozenStore {
        let family = |pick: fn(&FrozenStore) -> &SortedIndex| {
            let own = &pick(self).rows;
            let rows = match others {
                [other] => merge_sorted(own, &pick(other).rows),
                _ => {
                    let rest: Vec<&[[NodeId; 3]]> =
                        others.iter().map(|o| pick(o).rows.as_slice()).collect();
                    merge_sorted(own, &merge_sorted_runs(&rest))
                }
            };
            SortedIndex::from_sorted(rows)
        };
        let rows = self.len() + others.iter().map(|o| o.len()).sum::<usize>();
        Self::build_families(threads, rows, || family(|s| &s.spo), || family(|s| &s.pos))
    }

    /// The thread count of callers that state no budget: both families at
    /// once wherever there is a second core.
    fn unbudgeted() -> usize {
        std::thread::available_parallelism().map_or(1, |cores| usize::from(cores).min(2))
    }

    /// Build the two column families on at most `threads` threads (the
    /// calling one included; `0` is [`unbudgeted`](Self::unbudgeted))
    /// when the row count makes the sorts/merges worth a spawn. The
    /// families are independent, so this is the freeze path's free
    /// parallelism — but only a caller that owns the cores
    /// may take it: `k` distributed workers freezing at once each pass
    /// their own share of the machine.
    fn build_families(
        threads: usize,
        rows: usize,
        spo: impl FnOnce() -> SortedIndex + Send,
        pos: impl FnOnce() -> SortedIndex + Send,
    ) -> FrozenStore {
        /// Below this size, spawn overhead beats the sort work saved.
        const PARALLEL_BUILD_FLOOR: usize = 1 << 14;
        let threads = if threads == 0 {
            Self::unbudgeted()
        } else {
            threads
        };
        if rows < PARALLEL_BUILD_FLOOR || threads < 2 {
            return FrozenStore {
                spo: spo(),
                pos: pos(),
            };
        }
        std::thread::scope(|scope| {
            let pos = scope.spawn(pos);
            let spo = spo();
            match pos.join() {
                Ok(pos) => FrozenStore { spo, pos },
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })
    }

    /// Number of distinct triples.
    pub fn len(&self) -> usize {
        self.spo.rows.len()
    }

    /// `true` iff the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.rows.is_empty()
    }

    /// Membership test (binary search inside one CSR row).
    #[inline]
    pub fn contains(&self, t: &Triple) -> bool {
        self.spo.contains(spo_key(t))
    }

    /// Drop from `run`, an SPO-sorted, duplicate-free run, every triple
    /// this store holds: one walk of the run beside the SPO rows,
    /// galloping over the rows between one candidate and the next. Keeps
    /// what `run.retain(|t| !self.contains(t))` keeps, without a binary
    /// search per candidate.
    pub fn retain_absent(&self, run: &mut Vec<Triple>) {
        debug_assert!(is_sorted_run(run));
        let rows = &self.spo.rows;
        let mut at = 0;
        run.retain(|t| {
            let key = spo_key(t);
            at += prefix_below(&rows[at..], &key);
            rows.get(at) != Some(&key)
        });
    }

    /// Iterate all triples in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.spo.rows.iter().map(|r| Triple::new(r[0], r[1], r[2]))
    }

    /// All triples, sorted SPO (already the storage order).
    pub fn iter_sorted(&self) -> Vec<Triple> {
        self.iter().collect()
    }

    /// The SPO-sorted union of this store and `run`, an SPO-sorted,
    /// duplicate-free run: one linear merge.
    pub(crate) fn sorted_union(&self, run: &[Triple]) -> Vec<Triple> {
        debug_assert!(is_sorted_run(run));
        if run.is_empty() {
            return self.iter_sorted();
        }
        let run: Vec<[NodeId; 3]> = run.iter().map(spo_key).collect();
        merge_sorted(&self.spo.rows, &run)
            .into_iter()
            .map(|r| Triple::new(r[0], r[1], r[2]))
            .collect()
    }

    /// Distinct subjects, ascending.
    pub(crate) fn subjects(&self) -> &[NodeId] {
        &self.spo.keys
    }

    /// Distinct predicates, ascending.
    pub(crate) fn predicates(&self) -> &[NodeId] {
        &self.pos.keys
    }

    /// The object column of the POS rows, a repeat of the row before
    /// skipped: every object, once per predicate it occurs under.
    pub(crate) fn object_column(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.pos.rows.chunk_by(|a, b| a[1] == b[1]).map(|run| run[0][1])
    }

    /// `(predicate, triple count)` for every predicate, read off the POS
    /// offsets.
    pub(crate) fn predicate_counts(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.pos.keys.iter().copied().zip(self.pos.blocks().map(<[_]>::len))
    }

    /// Call `f` on every block of rows matching `pat`, in order, with the
    /// family it came from: one block found with at most one in-row
    /// binary search, except for the object-first shapes with an open
    /// predicate, which have no family of their own — `(s, ?, o)` is each
    /// row of SPO `row(s)` whose object is `o`, and `(?, ?, o)` is POS
    /// `row2(p, o)` for every predicate `p`.
    fn for_each_block(&self, pat: TriplePattern, mut f: impl FnMut(Family, &[[NodeId; 3]])) {
        match (pat.s, pat.p, pat.o) {
            (Some(s), Some(p), Some(o)) => f(Family::Spo, self.spo.exact([s, p, o])),
            (Some(s), Some(p), None) => f(Family::Spo, self.spo.row2(s, p)),
            (Some(s), None, None) => f(Family::Spo, self.spo.row(s)),
            (None, Some(p), Some(o)) => f(Family::Pos, self.pos.row2(p, o)),
            (None, Some(p), None) => f(Family::Pos, self.pos.row(p)),
            (Some(s), None, Some(o)) => {
                let rows = self.spo.row(s).iter().filter(|r| r[2] == o);
                rows.for_each(|r| f(Family::Spo, std::slice::from_ref(r)));
            }
            (None, None, Some(o)) => {
                self.pos.blocks().for_each(|rows| f(Family::Pos, second_eq(rows, o)));
            }
            (None, None, None) => f(Family::Spo, &self.spo.rows),
        }
    }

    /// Invoke `f` for every triple matching `pat`: a slice scan per
    /// block of matching rows; no locks, no hashing.
    pub fn for_each_match(&self, pat: TriplePattern, mut f: impl FnMut(Triple)) {
        self.for_each_block(pat, |family, rows| emit_rows(family, rows, &mut f));
    }

    /// [`for_each_match`](FrozenStore::for_each_match) over share `part`
    /// of `parts` of `pat`'s matches: the matching rows, taken block
    /// after block, are cut into `parts` near-equal consecutive pieces, so
    /// over `part` in `0..parts` every match is reported exactly once.
    /// This is how the shards of a closure round divide one shared delta
    /// index between them, whatever pattern a rule pivots on. `part` must
    /// be below `parts`.
    pub fn for_each_match_part(
        &self,
        pat: TriplePattern,
        part: usize,
        parts: usize,
        mut f: impl FnMut(Triple),
    ) {
        debug_assert!(part < parts);
        let total = self.count_matches(pat);
        let (lo, hi) = (total * part / parts, total * (part + 1) / parts);
        // `at`: how many matching rows the blocks before this one hold
        let mut at = 0;
        self.for_each_block(pat, |family, rows| {
            let end = at + rows.len();
            let (a, b) = (lo.clamp(at, end), hi.clamp(at, end));
            emit_rows(family, &rows[a - at..b - at], &mut f);
            at = end;
        });
    }

    /// Number of matches: index arithmetic per block, no triple built.
    pub fn count_matches(&self, pat: TriplePattern) -> usize {
        let mut n = 0;
        self.for_each_block(pat, |_, rows| n += rows.len());
        n
    }

    /// The largest id in any position of any triple, `None` when empty.
    /// A predicate's POS rows are sorted by `(o, s)`, so its last row
    /// holds its largest object.
    pub fn max_id(&self) -> Option<NodeId> {
        let objects = self.pos.blocks().filter_map(|rows| rows.last()).map(|r| r[1]);
        [&self.spo, &self.pos]
            .into_iter()
            .filter_map(|family| family.keys.last().copied())
            .chain(objects)
            .max()
    }
}

impl TripleSource for FrozenStore {
    fn for_each_match(&self, pat: TriplePattern, f: impl FnMut(Triple)) {
        FrozenStore::for_each_match(self, pat, f);
    }

    fn contains(&self, t: &Triple) -> bool {
        FrozenStore::contains(self, t)
    }

    fn len(&self) -> usize {
        FrozenStore::len(self)
    }
}

impl FromIterator<Triple> for FrozenStore {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        FrozenStore::from_triples(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    fn sample() -> Vec<Triple> {
        vec![t(0, 1, 2), t(0, 1, 3), t(0, 2, 2), t(4, 1, 2), t(4, 2, 0), t(7, 9, 7)]
    }

    fn pat(s: Option<u32>, p: Option<u32>, o: Option<u32>) -> TriplePattern {
        TriplePattern::new(s.map(NodeId), p.map(NodeId), o.map(NodeId))
    }

    /// Every pattern over every sample subset must agree with a linear
    /// scan of the frozen contents.
    fn assert_matches_scan(fs: &FrozenStore, all: &[Triple], p: TriplePattern) {
        let mut via_index = fs.matches(p);
        via_index.sort_unstable();
        let mut via_scan: Vec<Triple> = all.iter().copied().filter(|t| p.matches(t)).collect();
        via_scan.sort_unstable();
        assert_eq!(via_index, via_scan, "pattern {p:?}");
        assert_eq!(fs.count_matches(p), via_scan.len(), "count for {p:?}");
    }

    #[test]
    fn all_eight_shapes_agree_with_scan() {
        let all = sample();
        let fs: FrozenStore = all.iter().copied().collect();
        let opts = [None, Some(0), Some(1), Some(2), Some(4), Some(7), Some(9)];
        for s in opts {
            for p in opts {
                for o in opts {
                    assert_matches_scan(&fs, &all, pat(s, p, o));
                }
            }
        }
    }

    #[test]
    fn dedup_on_construction() {
        let fs = FrozenStore::from_triples(vec![t(1, 2, 3), t(1, 2, 3), t(1, 2, 4)]);
        assert_eq!(fs.len(), 2);
        assert!(fs.contains(&t(1, 2, 3)));
        assert!(!fs.contains(&t(1, 2, 5)));
    }

    #[test]
    fn roundtrips_through_mutable_store() {
        let all = sample();
        let ts: TripleStore = all.iter().copied().collect();
        let fs = FrozenStore::from_store(&ts);
        assert_eq!(fs.iter_sorted(), ts.iter_sorted());
        let mut thawed = TripleStore::new();
        thawed.adopt(fs);
        assert_eq!(thawed.iter_sorted(), ts.iter_sorted());
    }

    #[test]
    fn merge_equals_rebuild() {
        let base: FrozenStore = sample().into_iter().collect();
        let delta = [t(9, 9, 9), t(0, 1, 2), t(5, 5, 5)];
        let merged = base.merge_triples(&delta);
        let mut expect: Vec<Triple> = sample();
        expect.extend([t(9, 9, 9), t(5, 5, 5)]);
        expect.sort_unstable();
        assert_eq!(merged.iter_sorted(), expect);
        // merged store still answers every pattern correctly
        assert_matches_scan(&merged, &expect, pat(Some(9), None, None));
        assert_matches_scan(&merged, &expect, pat(None, Some(1), None));
        assert_matches_scan(&merged, &expect, pat(None, None, None));
    }

    /// A run big enough to cross the parallel-build floor, so budgets
    /// from 2 up really take their helper thread.
    fn big_run() -> Vec<Triple> {
        let mut v: Vec<Triple> = (0..40_000u32)
            .map(|i| t(i % 997, 1000 + i % 13, (i * 7919) % 4001))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn sorted_run_constructor_equals_from_triples_at_every_budget() {
        for all in [sample(), big_run()] {
            let want = FrozenStore::from_triples(all.iter().copied());
            let probes: Vec<Triple> = all.iter().copied().step_by(all.len() / 5 + 1).collect();
            for threads in [1, 2, 3] {
                let fs = FrozenStore::from_sorted_run(&all, threads);
                assert_eq!(fs.iter_sorted(), want.iter_sorted(), "threads={threads}");
                for probe in &probes {
                    for mask in 0..8u8 {
                        let p = TriplePattern::new(
                            (mask & 4 != 0).then_some(probe.s),
                            (mask & 2 != 0).then_some(probe.p),
                            (mask & 1 != 0).then_some(probe.o),
                        );
                        let (mut got, mut expect) = (fs.matches(p), want.matches(p));
                        got.sort_unstable();
                        expect.sort_unstable();
                        assert_eq!(got, expect, "threads={threads} pattern {p:?}");
                        assert_eq!(fs.count_matches(p), expect.len());
                    }
                }
            }
        }
    }

    #[test]
    fn sorted_run_constructor_falls_back_on_unsorted_input() {
        let mut scrambled = sample();
        scrambled.reverse();
        scrambled.push(t(0, 1, 2)); // and a duplicate
        let fs = FrozenStore::from_sorted_run(&scrambled, 1);
        let want: FrozenStore = sample().into_iter().collect();
        assert_eq!(fs.iter_sorted(), want.iter_sorted());
        assert!(fs.contains(&t(7, 9, 7)));
        assert_matches_scan(&fs, &sample(), pat(None, Some(1), Some(2)));
        assert_matches_scan(&fs, &sample(), pat(Some(0), None, Some(2)));
    }

    #[test]
    fn budgeted_merge_equals_unbudgeted() {
        let all = big_run();
        let (delta, rest): (Vec<Triple>, Vec<Triple>) =
            all.iter().partition(|t| t.o.0 % 10 == 0);
        let base = FrozenStore::from_sorted_run(&rest, 1);
        let want = base.merge_triples(&delta).iter_sorted();
        assert_eq!(want, all);
        for threads in [1, 2, 3] {
            assert_eq!(base.merge_triples_within(&delta, threads).iter_sorted(), want);
        }
    }

    #[test]
    fn merge_all_is_the_frozen_union() {
        let all = big_run();
        let slices: Vec<FrozenStore> = (0..4u32)
            .map(|k| FrozenStore::from_triples(all.iter().copied().filter(|t| t.s.0 % 4 == k)))
            .collect();
        let [base, rest @ ..] = slices.as_slice() else { unreachable!() };
        for n in 0..=rest.len() {
            let others: Vec<&FrozenStore> = rest[..n].iter().collect();
            let mut want: Vec<Triple> = base.iter().chain(others.iter().flat_map(|o| o.iter())).collect();
            want.sort_unstable();
            for threads in [1, 3] {
                let merged = base.merge_all(&others, threads);
                assert_eq!(merged.iter_sorted(), want, "{n} others, threads={threads}");
                assert_matches_scan(&merged, &want, pat(None, Some(1003), None));
                assert_matches_scan(&merged, &want, pat(None, None, Some(7)));
            }
        }
    }

    #[test]
    fn merge_runs_is_the_sorted_union() {
        let a = vec![t(0, 1, 2), t(0, 1, 3), t(4, 1, 2)];
        let b = vec![t(0, 1, 3), t(2, 2, 2), t(9, 9, 9)];
        let c: Vec<Triple> = Vec::new();
        let d = vec![t(0, 0, 0), t(9, 9, 9)];
        let merged = merge_runs(&[&a, &b, &c, &d]);
        let mut want: Vec<Triple> = a.iter().chain(&b).chain(&d).copied().collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(merged, want);
        assert!(is_sorted_run(&merged));
        assert!(merge_runs::<Vec<Triple>>(&[]).is_empty());
        assert_eq!(merge_runs(&[&a]), a);
    }

    /// The merge walk keeps what a `contains` probe per candidate keeps.
    fn assert_walk_is_the_probe(store: &FrozenStore, run: &[Triple]) {
        let mut run: Vec<Triple> = run.to_vec();
        run.sort_unstable();
        run.dedup();
        let mut want = run.clone();
        want.retain(|t| !store.contains(t));
        store.retain_absent(&mut run);
        assert_eq!(run, want);
    }

    #[test]
    fn retain_absent_is_the_probe_filter_at_the_edges() {
        let store: FrozenStore = (10..20u32).map(|i| t(i, 1, i)).collect();
        let below: Vec<Triple> = (0..5u32).map(|i| t(i, 1, i)).collect();
        let above: Vec<Triple> = (30..40u32).map(|i| t(i, 1, i)).collect();
        let interleaved: Vec<Triple> = (0..40u32).map(|i| t(i / 2 + 5, 1, i / 2 + 5 + i % 2)).collect();
        for run in [&[][..], &below, &above, &interleaved, &store.iter_sorted()] {
            assert_walk_is_the_probe(&store, run);
            assert_walk_is_the_probe(&FrozenStore::new(), run);
        }
        let mut all = store.iter_sorted();
        store.retain_absent(&mut all);
        assert!(all.is_empty(), "a run the store holds entirely goes");
    }

    mod walk {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn retain_absent_is_the_probe_filter(
                held in prop::collection::vec((0u32..12, 0u32..3, 0u32..12), 0..120),
                run in prop::collection::vec((0u32..14, 0u32..4, 0u32..14), 0..120),
            ) {
                let store: FrozenStore = held.iter().map(|&(s, p, o)| t(s, p, o)).collect();
                let run: Vec<Triple> = run.iter().map(|&(s, p, o)| t(s, p, o)).collect();
                assert_walk_is_the_probe(&store, &run);
            }
        }
    }

    #[test]
    fn empty_store_is_well_behaved() {
        let fs = FrozenStore::new();
        assert!(fs.is_empty());
        assert_eq!(fs.count_matches(TriplePattern::any()), 0);
        assert!(fs.matches(pat(Some(1), None, None)).is_empty());
        assert!(!fs.contains(&t(1, 2, 3)));
        let merged = fs.merge_triples(&[t(1, 2, 3)]);
        assert_eq!(merged.len(), 1);
    }

    #[test]
    fn concurrent_reads_are_consistent() {
        let all: Vec<Triple> = (0..200u32).map(|i| t(i % 17, i % 5, i % 23)).collect();
        let fs: FrozenStore = all.iter().copied().collect();
        let expect = fs.count_matches(pat(None, Some(1), None));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        assert_eq!(fs.count_matches(pat(None, Some(1), None)), expect);
                    }
                });
            }
        });
    }
}
