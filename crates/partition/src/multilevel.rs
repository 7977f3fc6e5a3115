//! A from-scratch multilevel k-way graph partitioner (the role METIS plays
//! in the paper).
//!
//! Classic three-phase scheme (Karypis & Kumar):
//!
//! 1. **Coarsening** — heavy-edge matching, then two-hop matching of what
//!    it left over (leaves of one hub, twins, relatives), contracts the
//!    graph until it is small. No coarse vertex may outweigh
//!    1.5 × total / `coarsen_until`, so the coarsest graph can still be
//!    split evenly;
//! 2. **Initial partitioning** — greedy graph growing by cut gain bisects
//!    the coarsest graph;
//! 3. **Uncoarsening** — the partition is projected back level by level
//!    and improved with boundary Fiduccia–Mattheyses (FM) passes.
//!
//! k-way partitions are produced by recursive bisection with proportional
//! weight targets, so non-power-of-two k works. The objective matches the
//! paper's §III-A-1: equal vertex weight per part, minimum edge-cut.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BinaryHeap;

/// Compressed-sparse-row undirected graph with vertex and edge weights.
///
/// Invariants: `xadj.len() == n+1`; every edge appears in both endpoint
/// adjacency lists with the same weight; no self-loops.
#[derive(Debug, Clone, Default)]
pub struct CsrGraph {
    /// Index of each vertex's adjacency slice in `adjncy`/`adjwgt`.
    pub xadj: Vec<usize>,
    /// Flattened neighbor lists.
    pub adjncy: Vec<u32>,
    /// Edge weights, parallel to `adjncy`.
    pub adjwgt: Vec<u64>,
    /// Vertex weights.
    pub vwgt: Vec<u64>,
}

impl CsrGraph {
    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Total vertex weight.
    pub fn total_vwgt(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// Number of neighbors of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Neighbors of `v` with edge weights.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (u32, u64)> + '_ {
        let r = self.xadj[v]..self.xadj[v + 1];
        self.adjncy[r.clone()]
            .iter()
            .copied()
            .zip(self.adjwgt[r].iter().copied())
    }

    /// Build from an undirected weighted edge list over `n` vertices with
    /// unit vertex weights. Parallel edges are merged (weights summed),
    /// self-loops dropped.
    pub fn from_edges(n: usize, edges: &[(usize, usize, u64)]) -> CsrGraph {
        Self::from_edges_vwgt(n, edges, vec![1; n])
    }

    /// [`CsrGraph::from_edges`] with explicit vertex weights.
    ///
    /// A counting sort by endpoint scatters both directions of every edge
    /// into its source's row; contracting that multigraph onto itself
    /// then merges the parallel edges. A row lists its neighbors in the
    /// order the edge list first mentions them.
    pub fn from_edges_vwgt(n: usize, edges: &[(usize, usize, u64)], vwgt: Vec<u64>) -> CsrGraph {
        assert_eq!(vwgt.len(), n);
        let mut xadj = vec![0usize; n + 1];
        for &(a, b, _) in edges {
            xadj[a + 1] += 1;
            xadj[b + 1] += 1;
        }
        for v in 0..n {
            xadj[v + 1] += xadj[v];
        }
        let mut adjncy = vec![0u32; xadj[n]];
        let mut adjwgt = vec![0u64; xadj[n]];
        let mut cursor = xadj.clone();
        for &(a, b, w) in edges {
            for (from, to) in [(a, b), (b, a)] {
                adjncy[cursor[from]] = to as u32;
                adjwgt[cursor[from]] = w;
                cursor[from] += 1;
            }
        }
        let multigraph = CsrGraph {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        };
        let alone: Vec<u32> = (0..n as u32).collect();
        multigraph.contract(&alone).0
    }

    /// Contract a matching: `mate[v]` is `v`'s partner, or `v` itself when
    /// it stays alone. Returns the coarse graph and the fine→coarse vertex
    /// map; coarse vertices are numbered by their smallest fine member.
    /// Vertex weights add up, edges that end up parallel are merged
    /// (weights summed), and edges inside a pair — self-loops included —
    /// disappear.
    pub fn contract(&self, mate: &[u32]) -> (CsrGraph, Vec<u32>) {
        contract(self, mate, &mut Vec::new())
    }

    /// Edge-cut of a partition assignment.
    pub fn edge_cut(&self, part: &[u32]) -> u64 {
        let mut cut = 0;
        for v in 0..self.n() {
            for (u, w) in self.neighbors(v) {
                if part[v] != part[u as usize] {
                    cut += w;
                }
            }
        }
        cut / 2
    }

    /// Per-part vertex weight sums for a k-way assignment.
    pub fn part_weights(&self, part: &[u32], k: usize) -> Vec<u64> {
        let mut w = vec![0u64; k];
        for v in 0..self.n() {
            w[part[v] as usize] += self.vwgt[v];
        }
        w
    }
}

/// Partitioner options.
#[derive(Debug, Clone, Copy)]
pub struct PartitionOptions {
    /// Allowed imbalance: a part may weigh up to `(1+epsilon) * target`.
    pub epsilon: f64,
    /// Run FM refinement during uncoarsening (ablation switch).
    pub refine: bool,
    /// Stop coarsening when the graph has at most this many vertices.
    pub coarsen_until: usize,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions {
            epsilon: 0.05,
            refine: true,
            coarsen_until: 128,
            seed: 0x5eed,
        }
    }
}

/// Partition `graph` into `k` parts. Returns the part id of every vertex.
pub fn partition_kway(graph: &CsrGraph, k: usize, opts: &PartitionOptions) -> Vec<u32> {
    assert!(k >= 1, "k must be positive");
    let mut part = vec![0u32; graph.n()];
    if k == 1 || graph.n() == 0 {
        return part;
    }
    let vertices: Vec<usize> = (0..graph.n()).collect();
    Run::new(opts).recurse(graph, &vertices, k, 0, &mut part);
    part
}

/// `(n, m)` of every graph the root bisection of [`partition_kway`] works
/// on under `opts`: the input first, then each coarser level.
pub fn coarsening_profile(graph: &CsrGraph, opts: &PartitionOptions) -> Vec<(usize, usize)> {
    let levels = Run::new(opts).coarsen(graph);
    std::iter::once(graph)
        .chain(levels.iter().map(|l| &l.graph))
        .map(|g| (g.n(), g.m()))
        .collect()
}

/// One coarsening step: the contracted graph and the map onto it from the
/// vertices of the next finer graph.
struct Level {
    graph: CsrGraph,
    map: Vec<u32>,
}

/// What one [`partition_kway`] call carries from bisection to bisection
/// and from level to level.
struct Run<'a> {
    opts: &'a PartitionOptions,
    rng: StdRng,
    /// [`contract`]'s table.
    marker: Vec<usize>,
}

impl<'a> Run<'a> {
    fn new(opts: &'a PartitionOptions) -> Self {
        Run {
            opts,
            rng: StdRng::seed_from_u64(opts.seed),
            marker: Vec::new(),
        }
    }

    /// Recursive bisection: split `vertices` of `graph` into k parts
    /// labelled `base..base+k` in `part`.
    fn recurse(
        &mut self,
        graph: &CsrGraph,
        vertices: &[usize],
        k: usize,
        base: u32,
        part: &mut [u32],
    ) {
        if k == 1 {
            for &v in vertices {
                part[v] = base;
            }
            return;
        }
        let k_left = k / 2 + k % 2; // ceil
        let k_right = k / 2;
        let ratio = k_left as f64 / k as f64;

        // At the root `vertices` is `0..n`: the induced subgraph would be
        // the graph itself, rebuilt edge by edge.
        let side = if vertices.len() == graph.n() {
            self.bisect(graph, ratio)
        } else {
            self.bisect(&induce(graph, vertices), ratio)
        };

        let mut left: Vec<usize> = Vec::new();
        let mut right: Vec<usize> = Vec::new();
        for (local, &global) in vertices.iter().enumerate() {
            if side[local] == 0 {
                left.push(global);
            } else {
                right.push(global);
            }
        }
        self.recurse(graph, &left, k_left, base, part);
        self.recurse(graph, &right, k_right, base + k_left as u32, part);
    }

    /// Multilevel bisection of `graph`: coarsen, bisect, project + refine.
    /// Returns 0/1 per vertex; side 0 targets `ratio` of the total weight.
    fn bisect(&mut self, graph: &CsrGraph, ratio: f64) -> Vec<u32> {
        let levels = self.coarsen(graph);
        let coarsest = levels.last().map_or(graph, |l| &l.graph);
        let mut side = best_direct_bisect(coarsest, ratio, self.opts, &mut self.rng);
        for (i, level) in levels.iter().enumerate().rev() {
            let finer = if i == 0 { graph } else { &levels[i - 1].graph };
            side = level.map.iter().map(|&c| side[c as usize]).collect();
            if self.opts.refine {
                fm_refine(finer, &mut side, ratio, self.opts.epsilon);
            }
        }
        side
    }

    /// Coarsen until at most `coarsen_until` vertices are left, or a step
    /// removes less than a twentieth of them (the stalled step is dropped).
    fn coarsen(&mut self, graph: &CsrGraph) -> Vec<Level> {
        let cap = weight_cap(graph, self.opts);
        let mut levels: Vec<Level> = Vec::new();
        loop {
            let fine = levels.last().map_or(graph, |l| &l.graph);
            if fine.n() <= self.opts.coarsen_until {
                break;
            }
            let mate = matching(fine, cap, &mut self.rng);
            let (coarse, map) = contract(fine, &mate, &mut self.marker);
            if coarse.n() as f64 > fine.n() as f64 * 0.95 {
                break;
            }
            levels.push(Level { graph: coarse, map });
        }
        levels
    }
}

/// Induced subgraph on `vertices` (local vertex `i` is `vertices[i]`).
fn induce(graph: &CsrGraph, vertices: &[usize]) -> CsrGraph {
    let mut global_to_local = vec![u32::MAX; graph.n()];
    for (local, &v) in vertices.iter().enumerate() {
        global_to_local[v] = local as u32;
    }
    let mut sub = CsrGraph {
        xadj: Vec::with_capacity(vertices.len() + 1),
        ..CsrGraph::default()
    };
    sub.xadj.push(0);
    for &v in vertices {
        sub.vwgt.push(graph.vwgt[v]);
        for (u, w) in graph.neighbors(v) {
            let local = global_to_local[u as usize];
            if local != u32::MAX {
                sub.adjncy.push(local);
                sub.adjwgt.push(w);
            }
        }
        sub.xadj.push(sub.adjncy.len());
    }
    sub
}

/// Heaviest coarse vertex coarsening may create. At `coarsen_until`
/// vertices the average weighs total / `coarsen_until`; half as much again
/// leaves greedy growing and FM room to hit the bisection target.
fn weight_cap(graph: &CsrGraph, opts: &PartitionOptions) -> u64 {
    (1.5 * graph.total_vwgt() as f64 / opts.coarsen_until.max(1) as f64).ceil() as u64
}

const UNMATCHED: u32 = u32::MAX;

/// Heavy-edge matching in random order, then — when that leaves more than
/// a tenth of the vertices alone, as it does on hub-and-leaf graphs where
/// a hub can take only one of its leaves — two-hop matching of the rest.
/// No pair may outweigh `cap`. Returns each vertex's partner (itself if
/// none).
fn matching(graph: &CsrGraph, cap: u64, rng: &mut StdRng) -> Vec<u32> {
    let n = graph.n();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut mate = vec![UNMATCHED; n];
    let mut matched = 0;
    for &v in &order {
        let v = v as usize;
        if mate[v] != UNMATCHED {
            continue;
        }
        let mut best: Option<(u32, u64)> = None;
        for (u, w) in graph.neighbors(v) {
            if mate[u as usize] == UNMATCHED
                && best.is_none_or(|(_, bw)| w > bw)
                && graph.vwgt[v] + graph.vwgt[u as usize] <= cap
            {
                best = Some((u, w));
            }
        }
        if let Some((u, _)) = best {
            mate[v] = u;
            mate[u as usize] = v as u32;
            matched += 2;
        }
    }
    if (n - matched) * 10 > n {
        match_two_hop(graph, &mut mate, cap);
    }
    for (v, m) in mate.iter_mut().enumerate() {
        if *m == UNMATCHED {
            *m = v as u32;
        }
    }
    mate
}

/// Pair unmatched vertices that share a neighbor: leaves of one hub first,
/// then relatives of degree 2, 3 and finally any, stopping once fewer than
/// a tenth of the vertices are left alone. `waiting[h]` is an unmatched
/// vertex adjacent to `h` that found no partner yet; the next one to come
/// by `h` takes it. Whoever is left keeps waiting into the next round, so
/// a hub's odd leaf can still go to a better connected relative.
fn match_two_hop(graph: &CsrGraph, mate: &mut [u32], cap: u64) {
    let n = graph.n();
    let hubs = |v: usize| graph.neighbors(v).map(|(h, _)| h as usize);
    let mut alone: Vec<u32> = (0..n as u32)
        .filter(|&v| mate[v as usize] == UNMATCHED)
        .collect();
    let mut waiting = vec![UNMATCHED; n];
    for max_degree in [1, 2, 3, usize::MAX] {
        if alone.len() * 10 <= n {
            break;
        }
        for &v in &alone {
            let v = v as usize;
            if mate[v] != UNMATCHED || graph.degree(v) > max_degree {
                continue;
            }
            let free = |w: u32| w != UNMATCHED && mate[w as usize] == UNMATCHED;
            let partner = hubs(v).map(|h| waiting[h]).find(|&w| {
                free(w) && w as usize != v && graph.vwgt[v] + graph.vwgt[w as usize] <= cap
            });
            if let Some(w) = partner {
                mate[v] = w;
                mate[w as usize] = v as u32;
                continue;
            }
            for h in hubs(v) {
                // too heavy for whoever waits here: the lighter one stays
                let w = waiting[h];
                if !free(w) || graph.vwgt[v] < graph.vwgt[w as usize] {
                    waiting[h] = v as u32;
                }
            }
        }
        alone.retain(|&v| mate[v as usize] == UNMATCHED);
    }
}

/// Sort-free contraction (see [`CsrGraph::contract`]): the coarse CSR is
/// written row by row, and `marker[c]` remembers where in the current row
/// coarse neighbor `c` sits, so a parallel edge adds to that slot. An
/// entry is believed only if it points into the current row at a slot
/// holding `c`, which is why the table needs no clearing between rows,
/// levels or graphs.
fn contract(graph: &CsrGraph, mate: &[u32], marker: &mut Vec<usize>) -> (CsrGraph, Vec<u32>) {
    let n = graph.n();
    assert_eq!(mate.len(), n);
    let mut map = vec![0u32; n];
    let mut coarse_n = 0u32;
    for v in 0..n {
        let m = mate[v] as usize;
        assert!(m < n && mate[m] as usize == v, "mate is not a matching");
        if m >= v {
            map[v] = coarse_n;
            map[m] = coarse_n;
            coarse_n += 1;
        }
    }
    if marker.len() < coarse_n as usize {
        marker.resize(coarse_n as usize, usize::MAX);
    }
    let mut coarse = CsrGraph {
        xadj: Vec::with_capacity(coarse_n as usize + 1),
        adjncy: Vec::with_capacity(graph.adjncy.len()),
        adjwgt: Vec::with_capacity(graph.adjncy.len()),
        vwgt: Vec::with_capacity(coarse_n as usize),
    };
    coarse.xadj.push(0);
    for v in 0..n {
        let m = mate[v] as usize;
        if m < v {
            continue;
        }
        let row = coarse.adjncy.len();
        let pair = [v, m];
        let members = &pair[..if m == v { 1 } else { 2 }];
        for &member in members {
            for (u, w) in graph.neighbors(member) {
                let c = map[u as usize];
                if c == map[v] {
                    continue;
                }
                let slot = marker[c as usize];
                if slot >= row && coarse.adjncy.get(slot) == Some(&c) {
                    coarse.adjwgt[slot] += w;
                } else {
                    marker[c as usize] = coarse.adjncy.len();
                    coarse.adjncy.push(c);
                    coarse.adjwgt.push(w);
                }
            }
        }
        coarse.xadj.push(coarse.adjncy.len());
        coarse
            .vwgt
            .push(members.iter().map(|&x| graph.vwgt[x]).sum());
    }
    // every level stays alive until uncoarsening has passed it
    coarse.adjncy.shrink_to_fit();
    coarse.adjwgt.shrink_to_fit();
    (coarse, map)
}

/// Number of random restarts for the coarsest-level initial bisection
/// (METIS similarly derives several initial partitions and keeps the best).
const INITIAL_TRIES: usize = 4;

/// Run greedy growing + FM several times and keep the lowest-cut result.
fn best_direct_bisect(
    graph: &CsrGraph,
    ratio: f64,
    opts: &PartitionOptions,
    rng: &mut StdRng,
) -> Vec<u32> {
    let one_try = |rng: &mut StdRng| {
        let mut side = greedy_grow_bisect(graph, ratio, rng);
        if opts.refine {
            fm_refine(graph, &mut side, ratio, opts.epsilon);
        }
        let cut = graph.edge_cut(&side);
        (cut, side)
    };
    let mut best = one_try(rng);
    for _ in 1..INITIAL_TRIES {
        let (cut, side) = one_try(rng);
        if cut < best.0 {
            best = (cut, side);
        }
    }
    best.1
}

/// Greedy graph-growing bisection: grow side 0 from a random seed, taking
/// next the frontier vertex whose move into the region shrinks the cut
/// most — edge weight into the region minus edge weight out of it — until
/// side 0 reaches `ratio` of the total weight. Disconnected graphs are
/// handled by reseeding.
///
/// Gain, not connection to the region alone: that leaves most of a
/// sparse graph's frontier tied, ties go to the highest vertex id, and
/// under creation-order numbering (a parent before its descendants) that
/// is the deepest descendant — a hierarchy is grown depth-first into a
/// stringy region FM cannot repair. Ranked by gain, a leaf or the rest
/// of a chain goes in before growth crosses a branching vertex, so the
/// region closes subtrees whatever the numbering.
fn greedy_grow_bisect(graph: &CsrGraph, ratio: f64, rng: &mut StdRng) -> Vec<u32> {
    let n = graph.n();
    let total: u64 = graph.total_vwgt();
    let target = (total as f64 * ratio).round() as u64;
    let mut side = vec![1u32; n];
    if n == 0 || target == 0 {
        return side;
    }
    let mut grown: u64 = 0;
    let mut in_region = vec![false; n];
    // (gain, vertex); lazy heap, stale entries skipped
    let mut frontier: BinaryHeap<(i64, usize)> = BinaryHeap::new();
    // edge weight into the region minus edge weight out of it
    let mut gain: Vec<i64> = (0..n)
        .map(|v| -(graph.neighbors(v).map(|(_, w)| w).sum::<u64>() as i64))
        .collect();

    while grown < target {
        let v = match frontier.pop() {
            Some((g, v)) if !in_region[v] && g == gain[v] => v,
            Some(_) => continue,
            None => {
                // reseed in an untouched component
                let candidates: Vec<usize> = (0..n).filter(|&v| !in_region[v]).collect();
                if candidates.is_empty() {
                    break;
                }
                candidates[rng.gen_range(0..candidates.len())]
            }
        };
        in_region[v] = true;
        side[v] = 0;
        grown += graph.vwgt[v];
        for (u, w) in graph.neighbors(v) {
            let u = u as usize;
            if !in_region[u] {
                gain[u] += 2 * w as i64;
                frontier.push((gain[u], u));
            }
        }
    }
    side
}

/// Boundary FM refinement with rollback to the best observed prefix. A
/// pass seeds the move queues — one per side — with the vertices that have
/// a neighbor across the cut; interior vertices enter when a move puts one
/// of their neighbors on the other side. The best head whose move keeps
/// `weight(side) <= (1+eps) * its target` goes next, so a vertex the
/// balance holds back waits in its queue until moves the other way have
/// made room for it.
fn fm_refine(graph: &CsrGraph, side: &mut [u32], ratio: f64, epsilon: f64) {
    let n = graph.n();
    let total = graph.total_vwgt() as f64;
    let target = [total * ratio, total * (1.0 - ratio)];
    // Allow eps slack but never less than the integral ceiling of the
    // target, and never so much that a side can be emptied.
    let bound = |t: f64| ((t * (1.0 + epsilon)).floor() as u64).max(t.ceil() as u64);
    let max_w = [bound(target[0]), bound(target[1])];

    const MAX_PASSES: usize = 4;
    const STALL_LIMIT: usize = 256;

    // One scan of the graph; every move and every rolled-back move then
    // keeps these exact, so later passes start from them.
    let mut state = Cut {
        gain: vec![0; n],
        external: vec![0; n],
        weights: [0; 2],
    };
    for v in 0..n {
        state.weights[side[v] as usize] += graph.vwgt[v];
        for (u, w) in graph.neighbors(v) {
            if side[v] == side[u as usize] {
                state.gain[v] -= w as i64;
            } else {
                state.gain[v] += w as i64;
                state.external[v] += w;
            }
        }
    }
    let mut locked = vec![false; n];
    let mut moves: Vec<usize> = Vec::new();
    for _pass in 0..MAX_PASSES {
        let mut queues: [BinaryHeap<(i64, usize)>; 2] = Default::default();
        for v in (0..n).filter(|&v| state.external[v] > 0) {
            queues[side[v] as usize].push((state.gain[v], v));
        }
        locked.fill(false);
        moves.clear();
        let mut cum_gain: i64 = 0;
        let mut best_gain: i64 = 0;
        let mut best_len: usize = 0;
        let mut stall = 0usize;

        loop {
            let mut heads = [None; 2];
            for (queue, head) in queues.iter_mut().zip(&mut heads) {
                while let Some(&(g, v)) = queue.peek() {
                    if !locked[v] && g == state.gain[v] {
                        *head = Some((g, v));
                        break;
                    }
                    queue.pop(); // stale entry
                }
            }
            let Some(best) = heads.iter().flatten().max() else {
                break;
            };
            // the move must neither break the balance nor empty a side
            let fits = |&&(_, v): &&(i64, usize)| {
                let from = side[v] as usize;
                state.weights[1 - from] + graph.vwgt[v] <= max_w[1 - from]
                    && state.weights[from] > graph.vwgt[v]
            };
            let Some(&(g, v)) = heads.iter().flatten().filter(fits).max() else {
                queues[side[best.1] as usize].pop(); // neither head can move
                continue;
            };
            queues[side[v] as usize].pop();
            locked[v] = true;
            state.flip(graph, side, v);
            cum_gain += g;
            moves.push(v);
            if cum_gain > best_gain {
                best_gain = cum_gain;
                best_len = moves.len();
                stall = 0;
            } else {
                stall += 1;
                if stall > STALL_LIMIT {
                    break;
                }
            }
            for (u, _) in graph.neighbors(v) {
                let u = u as usize;
                if !locked[u] && state.external[u] > 0 {
                    queues[side[u] as usize].push((state.gain[u], u));
                }
            }
        }
        // rollback the non-improving suffix
        for &v in &moves[best_len..] {
            state.flip(graph, side, v);
        }
        if best_gain <= 0 {
            return; // pass produced no improvement
        }
    }
}

/// What FM tracks about a bisection, per vertex and per side.
struct Cut {
    /// External minus internal edge weight: what moving the vertex saves.
    gain: Vec<i64>,
    /// Edge weight to the other side; positive on the boundary.
    external: Vec<u64>,
    /// Vertex weight of each side.
    weights: [u64; 2],
}

impl Cut {
    /// Move `v` to the other side. Flipping twice restores everything.
    fn flip(&mut self, graph: &CsrGraph, side: &mut [u32], v: usize) {
        let to = 1 - side[v];
        side[v] = to;
        self.weights[1 - to as usize] -= graph.vwgt[v];
        self.weights[to as usize] += graph.vwgt[v];
        // v's internal edges are now its external ones
        self.external[v] = (self.external[v] as i64 - self.gain[v]) as u64;
        self.gain[v] = -self.gain[v];
        for (u, w) in graph.neighbors(v) {
            let u = u as usize;
            if side[u] == to {
                self.gain[u] -= 2 * w as i64;
                self.external[u] -= w;
            } else {
                self.gain[u] += 2 * w as i64;
                self.external[u] += w;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn opts(seed: u64) -> PartitionOptions {
        PartitionOptions {
            seed,
            ..PartitionOptions::default()
        }
    }

    /// Two K5 cliques joined by one light edge: the canonical easy cut.
    fn two_cliques() -> CsrGraph {
        let mut edges = Vec::new();
        for a in 0..5 {
            for b in (a + 1)..5 {
                edges.push((a, b, 10));
                edges.push((a + 5, b + 5, 10));
            }
        }
        edges.push((4, 5, 1)); // bridge
        CsrGraph::from_edges(10, &edges)
    }

    /// A ring of `n` vertices.
    fn ring(n: usize) -> CsrGraph {
        let edges: Vec<(usize, usize, u64)> = (0..n).map(|i| (i, (i + 1) % n, 1)).collect();
        CsrGraph::from_edges(n, &edges)
    }

    /// `c` disjoint cliques of size `s`.
    fn cliques(c: usize, s: usize) -> CsrGraph {
        let mut edges = Vec::new();
        for k in 0..c {
            for a in 0..s {
                for b in (a + 1)..s {
                    edges.push((k * s + a, k * s + b, 1));
                }
            }
        }
        CsrGraph::from_edges(c * s, &edges)
    }

    #[test]
    fn csr_construction_merges_parallel_edges() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 2), (1, 0, 3), (1, 2, 1), (2, 2, 9)]);
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2, "parallel merged, self-loop dropped");
        let w01: u64 = g
            .neighbors(0)
            .find(|&(u, _)| u == 1)
            .map(|(_, w)| w)
            .unwrap();
        assert_eq!(w01, 5);
    }

    #[test]
    fn csr_neighbors_symmetric() {
        let g = two_cliques();
        for v in 0..g.n() {
            for (u, w) in g.neighbors(v) {
                let back = g
                    .neighbors(u as usize)
                    .find(|&(x, _)| x as usize == v)
                    .expect("symmetric edge");
                assert_eq!(back.1, w);
            }
        }
    }

    #[test]
    fn bisection_of_two_cliques_cuts_the_bridge() {
        let g = two_cliques();
        let part = partition_kway(&g, 2, &opts(1));
        assert_eq!(g.edge_cut(&part), 1, "only the bridge is cut");
        let w = g.part_weights(&part, 2);
        assert_eq!(w, vec![5, 5]);
    }

    #[test]
    fn kway_partitions_are_complete_and_in_range() {
        let g = ring(100);
        for k in [1, 2, 3, 4, 7, 8] {
            let part = partition_kway(&g, k, &opts(7));
            assert_eq!(part.len(), 100);
            assert!(part.iter().all(|&p| (p as usize) < k), "k={k}");
            // every part non-empty for k << n
            for p in 0..k {
                assert!(part.iter().any(|&x| x as usize == p), "part {p} empty at k={k}");
            }
        }
    }

    #[test]
    fn ring_bisection_cuts_two_edges() {
        let g = ring(64);
        let part = partition_kway(&g, 2, &opts(3));
        assert_eq!(g.edge_cut(&part), 2);
    }

    #[test]
    fn balance_within_tolerance() {
        let g = ring(1000);
        for k in [2, 4, 8, 16] {
            let part = partition_kway(&g, k, &opts(11));
            let w = g.part_weights(&part, k);
            let target = 1000.0 / k as f64;
            for (p, &wp) in w.iter().enumerate() {
                assert!(
                    (wp as f64) <= target * 1.12 + 1.0,
                    "part {p} weight {wp} vs target {target} (k={k})"
                );
            }
        }
    }

    #[test]
    fn disjoint_cliques_partition_cleanly() {
        // 8 cliques of 16, k=4: perfect partition has zero cut
        let g = cliques(8, 16);
        let part = partition_kway(&g, 4, &opts(5));
        assert_eq!(g.edge_cut(&part), 0, "disjoint components need no cut");
        let w = g.part_weights(&part, 4);
        assert!(w.iter().all(|&x| x == 32), "w={w:?}");
    }

    #[test]
    fn refinement_improves_or_matches_no_refinement() {
        let g = ring(512);
        let cut = |k, seed, refine| {
            let opts = PartitionOptions {
                refine,
                ..opts(seed)
            };
            g.edge_cut(&partition_kway(&g, k, &opts))
        };
        for k in [2, 4, 8] {
            for seed in 0..20 {
                let (with, without) = (cut(k, seed, true), cut(k, seed, false));
                assert!(
                    with <= without,
                    "k {k} seed {seed}: refined {with} > unrefined {without}"
                );
            }
        }
    }

    #[test]
    fn fm_slides_a_middle_segment_to_the_end_of_a_path() {
        // side 0 grown from a seed in the middle of a path cuts it twice;
        // getting to one cut takes a run of zero-gain moves in which each
        // side in turn waits for the other to make room
        let edges: Vec<(usize, usize, u64)> = (0..99).map(|i| (i, i + 1, 1)).collect();
        let g = CsrGraph::from_edges(100, &edges);
        for start in [1, 20, 49] {
            let mut side: Vec<u32> = (0..100)
                .map(|v| u32::from(!(start..start + 50).contains(&v)))
                .collect();
            assert_eq!(g.edge_cut(&side), 2);
            fm_refine(&g, &mut side, 0.5, 0.05);
            assert_eq!(g.edge_cut(&side), 1, "start {start}");
            let w = g.part_weights(&side, 2);
            assert!(w.iter().all(|&x| x <= 52), "start {start}: {w:?}");
        }
    }

    #[test]
    fn creation_order_numbering_does_not_cost_cut() {
        // A field, its three wells in a pipeline, and under each well a
        // chain of three devices each carrying sensor - reading - value,
        // numbered the way a generator creates them (a parent before its
        // descendants, so a deeper vertex has a higher id). Two edges
        // separate 20 | 20: one well's device subtree (12) and another
        // well's last two devices (8). Growing by connection weight, ties
        // to the highest id, cut 4 at every seed.
        let mut edges: Vec<(usize, usize, u64)> = Vec::new();
        let mut next = 1;
        let mut wells = Vec::new();
        for _ in 0..3 {
            let well = next;
            edges.push((well, 0, 1));
            if let Some(&previous) = wells.last() {
                edges.push((previous, well, 1));
            }
            wells.push(well);
            next += 1;
            let mut parent = well;
            for _ in 0..3 {
                let device = next;
                edges.push((device, parent, 1));
                edges.push((device + 1, device, 2)); // sensor: two triples
                edges.push((device + 2, device + 1, 1));
                edges.push((device + 3, device + 2, 1));
                parent = device;
                next += 4;
            }
        }
        let g = CsrGraph::from_edges(next, &edges);
        assert_eq!(g.n(), 40);
        for seed in 0..16 {
            let part = partition_kway(&g, 2, &opts(seed));
            assert_eq!(g.part_weights(&part, 2), [20, 20], "seed {seed}");
            assert_eq!(g.edge_cut(&part), 2, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = two_cliques();
        let a = partition_kway(&g, 2, &opts(42));
        let b = partition_kway(&g, 2, &opts(42));
        assert_eq!(a, b);
    }

    #[test]
    fn large_graph_partitions_quickly_with_low_cut() {
        // 4 communities of 500 vertices, dense inside, sparse between.
        let mut edges = Vec::new();
        let mut rng = StdRng::seed_from_u64(9);
        let n_comm = 4;
        let sz = 500;
        for c in 0..n_comm {
            for _ in 0..sz * 8 {
                let a = c * sz + rng.gen_range(0..sz);
                let b = c * sz + rng.gen_range(0..sz);
                if a != b {
                    edges.push((a, b, 1));
                }
            }
        }
        for _ in 0..40 {
            let a = rng.gen_range(0..n_comm * sz);
            let b = rng.gen_range(0..n_comm * sz);
            if a != b {
                edges.push((a, b, 1));
            }
        }
        let g = CsrGraph::from_edges(n_comm * sz, &edges);
        let part = partition_kway(&g, 4, &opts(13));
        let cut = g.edge_cut(&part);
        assert!(cut < 200, "community structure should be found, cut={cut}");
        let w = g.part_weights(&part, 4);
        for &wp in &w {
            assert!((wp as i64 - 500).unsigned_abs() < 80, "w={w:?}");
        }
    }

    #[test]
    fn k_equal_n_gives_singletons() {
        let g = ring(8);
        let part = partition_kway(&g, 8, &opts(2));
        let mut seen = vec![0; 8];
        for &p in &part {
            seen[p as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn empty_and_single_vertex_graphs() {
        let g = CsrGraph::from_edges(0, &[]);
        assert!(partition_kway(&g, 4, &opts(1)).is_empty());
        let g1 = CsrGraph::from_edges(1, &[]);
        assert_eq!(partition_kway(&g1, 1, &opts(1)), vec![0]);
    }

    /// One hub and `leaves` leaves: heavy-edge matching alone pairs the
    /// hub with one leaf and stalls.
    fn star(leaves: usize) -> CsrGraph {
        let edges: Vec<(usize, usize, u64)> = (1..=leaves).map(|i| (0, i, 1)).collect();
        CsrGraph::from_edges(leaves + 1, &edges)
    }

    /// A ring of `hubs` hubs, each with `leaves` leaves of its own.
    fn hubs_and_leaves(hubs: usize, leaves: usize) -> CsrGraph {
        let mut edges = Vec::new();
        for h in 0..hubs {
            edges.push((h, (h + 1) % hubs, 1));
            for l in 0..leaves {
                edges.push((h, hubs + h * leaves + l, 1));
            }
        }
        CsrGraph::from_edges(hubs * (1 + leaves), &edges)
    }

    #[test]
    fn star_graph_partitions_into_nonempty_parts() {
        let g = star(1999);
        let part = partition_kway(&g, 4, &opts(17));
        assert_eq!(part.len(), 2000);
        let w = g.part_weights(&part, 4);
        assert!(w.iter().all(|&x| x > 0));
    }

    #[test]
    fn hub_and_leaf_graphs_coarsen_all_the_way() {
        let o = opts(17);
        for (name, g) in [("star", star(2000)), ("hubs", hubs_and_leaves(50, 40))] {
            let profile = coarsening_profile(&g, &o);
            assert_eq!(profile[0], (g.n(), g.m()), "{name}");
            let coarsest = profile[profile.len() - 1].0;
            assert!(coarsest <= o.coarsen_until, "{name}: {profile:?}");
            // every step pairs nearly everything
            assert!(profile.len() - 1 <= 6, "{name}: {profile:?}");
        }
    }

    #[test]
    fn no_coarse_vertex_outweighs_the_cap() {
        let mut vwgt = vec![1u64; 2001];
        vwgt[7] = 40; // heavier than the cap: must stay alone
        let weighted_star = CsrGraph { vwgt, ..star(2000) };
        for g in [weighted_star, hubs_and_leaves(50, 40), ring(1000)] {
            let o = opts(5);
            let cap = weight_cap(&g, &o);
            let heaviest = g.vwgt.iter().copied().max().unwrap();
            let levels = Run::new(&o).coarsen(&g);
            assert!(!levels.is_empty());
            for level in &levels {
                assert_eq!(level.graph.total_vwgt(), g.total_vwgt());
                for &w in &level.graph.vwgt {
                    assert!(w <= cap.max(heaviest), "{w} > cap {cap}");
                }
            }
        }
    }

    #[test]
    fn two_hop_pairs_leaves_of_one_hub_before_relatives() {
        // hub 0 with leaves 1..=4; hub 5 with leaves 6, 7; 8 hangs off both
        let edges = [
            (0, 1, 1),
            (0, 2, 1),
            (0, 3, 1),
            (0, 4, 1),
            (5, 6, 1),
            (5, 7, 1),
            (0, 8, 1),
            (5, 8, 1),
            (0, 5, 1),
        ];
        let g = CsrGraph::from_edges(9, &edges);
        let mut mate = vec![UNMATCHED; 9];
        (mate[0], mate[5]) = (5, 0); // what heavy-edge matching would do
        match_two_hop(&g, &mut mate, 100);
        assert_eq!(mate[1..5], [2, 1, 4, 3]);
        assert_eq!(mate[6..8], [7, 6]);
        assert_eq!(mate[8], UNMATCHED, "no partner left for the relative");
    }

    #[test]
    fn fm_lets_a_move_expose_interior_vertices() {
        // a path 0-1-…-9 split 3 | 7 with the heavy edge right at the cut:
        // 3 must cross, then 4 is exposed and the light edge 4-5 is cut
        let mut edges: Vec<(usize, usize, u64)> = (0..9).map(|i| (i, i + 1, 2)).collect();
        edges[3].2 = 9;
        edges[4].2 = 1;
        let g = CsrGraph::from_edges(10, &edges);
        let mut side: Vec<u32> = (0..10).map(|v| u32::from(v > 2)).collect();
        assert_eq!(g.edge_cut(&side), 2);
        fm_refine(&g, &mut side, 0.5, 0.05);
        let expect: Vec<u32> = (0..10).map(|v| u32::from(v > 4)).collect();
        assert_eq!(side, expect);
    }

    #[test]
    fn weighted_vertices_balance_by_weight() {
        // vertex 0 weighs as much as all the rest together
        let n = 9;
        let mut vwgt = vec![1u64; n];
        vwgt[0] = 8;
        let edges: Vec<(usize, usize, u64)> = (0..n - 1).map(|i| (i, i + 1, 1)).collect();
        let g = CsrGraph::from_edges_vwgt(n, &edges, vwgt);
        let part = partition_kway(&g, 2, &opts(3));
        let w = g.part_weights(&part, 2);
        // 16 total, target 8/8
        assert!(w.iter().all(|&x| (6..=10).contains(&x)), "w={w:?}");
    }
}
