//! A from-scratch multilevel k-way graph partitioner (the role METIS plays
//! in the paper).
//!
//! Classic three-phase scheme (Karypis & Kumar):
//!
//! 1. **Coarsening** — heavy-edge matching contracts the graph until it is
//!    small;
//! 2. **Initial partitioning** — greedy graph growing bisects the coarsest
//!    graph;
//! 3. **Uncoarsening** — the partition is projected back level by level
//!    and improved with a Fiduccia–Mattheyses (FM) pass over every
//!    vertex.
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
    pub fn from_edges_vwgt(
        n: usize,
        edges: &[(usize, usize, u64)],
        vwgt: Vec<u64>,
    ) -> CsrGraph {
        assert_eq!(vwgt.len(), n);
        // merge parallel edges
        let mut canon: Vec<(usize, usize, u64)> = edges
            .iter()
            .filter(|&&(a, b, _)| a != b)
            .map(|&(a, b, w)| (a.min(b), a.max(b), w))
            .collect();
        canon.sort_unstable_by_key(|&(a, b, _)| (a, b));
        let mut merged: Vec<(usize, usize, u64)> = Vec::with_capacity(canon.len());
        for (a, b, w) in canon {
            match merged.last_mut() {
                Some(last) if last.0 == a && last.1 == b => last.2 += w,
                _ => merged.push((a, b, w)),
            }
        }
        let mut deg = vec![0usize; n];
        for &(a, b, _) in &merged {
            deg[a] += 1;
            deg[b] += 1;
        }
        let mut xadj = vec![0usize; n + 1];
        for v in 0..n {
            xadj[v + 1] = xadj[v] + deg[v];
        }
        let mut adjncy = vec![0u32; xadj[n]];
        let mut adjwgt = vec![0u64; xadj[n]];
        let mut cursor = xadj.clone();
        for &(a, b, w) in &merged {
            adjncy[cursor[a]] = b as u32;
            adjwgt[cursor[a]] = w;
            cursor[a] += 1;
            adjncy[cursor[b]] = a as u32;
            adjwgt[cursor[b]] = w;
            cursor[b] += 1;
        }
        CsrGraph {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        }
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
    let mut rng = StdRng::seed_from_u64(opts.seed);
    recurse(graph, &vertices, k, 0, &mut part, opts, &mut rng);
    part
}

/// Recursive bisection: split `vertices` of `graph` into k parts labelled
/// `base..base+k` in `part`.
fn recurse(
    graph: &CsrGraph,
    vertices: &[usize],
    k: usize,
    base: u32,
    part: &mut [u32],
    opts: &PartitionOptions,
    rng: &mut StdRng,
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

    // At the root `vertices` is `0..n`: the induced subgraph would be the
    // graph itself, rebuilt edge by edge.
    let side = if vertices.len() == graph.n() {
        multilevel_bisect(graph, ratio, opts, rng)
    } else {
        multilevel_bisect(&induce(graph, vertices), ratio, opts, rng)
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
    recurse(graph, &left, k_left, base, part, opts, rng);
    recurse(graph, &right, k_right, base + k_left as u32, part, opts, rng);
}

/// Induced subgraph on `vertices` (local vertex `i` is `vertices[i]`).
fn induce(graph: &CsrGraph, vertices: &[usize]) -> CsrGraph {
    let mut global_to_local = vec![usize::MAX; graph.n()];
    for (local, &v) in vertices.iter().enumerate() {
        global_to_local[v] = local;
    }
    let mut edges: Vec<(usize, usize, u64)> = Vec::new();
    let mut vwgt = Vec::with_capacity(vertices.len());
    for (local, &v) in vertices.iter().enumerate() {
        vwgt.push(graph.vwgt[v]);
        for (u, w) in graph.neighbors(v) {
            let lu = global_to_local[u as usize];
            if lu != usize::MAX && lu > local {
                edges.push((local, lu, w));
            }
        }
    }
    CsrGraph::from_edges_vwgt(vertices.len(), &edges, vwgt)
}

/// Multilevel bisection of `graph`: coarsen, bisect, project + refine.
/// Returns 0/1 per vertex; side 0 targets `ratio` of the total weight.
fn multilevel_bisect(
    graph: &CsrGraph,
    ratio: f64,
    opts: &PartitionOptions,
    rng: &mut StdRng,
) -> Vec<u32> {
    if graph.n() <= opts.coarsen_until {
        return best_direct_bisect(graph, ratio, opts, rng);
    }
    let (coarse, map) = coarsen(graph, rng);
    // If matching stalled (e.g. star graphs), fall back to direct bisection.
    if coarse.n() as f64 > graph.n() as f64 * 0.95 {
        return best_direct_bisect(graph, ratio, opts, rng);
    }
    let coarse_side = multilevel_bisect(&coarse, ratio, opts, rng);
    let mut side: Vec<u32> = (0..graph.n()).map(|v| coarse_side[map[v]]).collect();
    if opts.refine {
        fm_refine(graph, &mut side, ratio, opts.epsilon, rng);
    }
    side
}

/// Heavy-edge matching contraction. Returns the coarse graph and the
/// fine→coarse vertex map.
fn coarsen(graph: &CsrGraph, rng: &mut StdRng) -> (CsrGraph, Vec<usize>) {
    let n = graph.n();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut coarse_count = 0usize;
    let mut map = vec![usize::MAX; n];
    for &v in &order {
        if map[v] != usize::MAX {
            continue;
        }
        // pick the heaviest unmatched neighbor
        let mut best: Option<(u32, u64)> = None;
        for (u, w) in graph.neighbors(v) {
            if map[u as usize] == usize::MAX
                && best.is_none_or(|(_, bw)| w > bw)
            {
                best = Some((u, w));
            }
        }
        map[v] = coarse_count;
        if let Some((u, _)) = best {
            map[u as usize] = coarse_count;
        }
        coarse_count += 1;
    }
    let mut vwgt = vec![0u64; coarse_count];
    for v in 0..n {
        vwgt[map[v]] += graph.vwgt[v];
    }
    let mut edges: Vec<(usize, usize, u64)> = Vec::new();
    for v in 0..n {
        for (u, w) in graph.neighbors(v) {
            let (cv, cu) = (map[v], map[u as usize]);
            if cv < cu {
                edges.push((cv, cu, w));
            }
        }
    }
    (
        CsrGraph::from_edges_vwgt(coarse_count, &edges, vwgt),
        map,
    )
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
            fm_refine(graph, &mut side, ratio, opts.epsilon, rng);
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

/// Greedy graph-growing bisection: BFS-grow side 0 from a random seed,
/// preferring frontier vertices with the strongest connection to the
/// region, until side 0 reaches `ratio` of the total weight. Disconnected
/// graphs are handled by reseeding.
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
    // (connection weight, vertex); lazy heap, stale entries skipped
    let mut frontier: BinaryHeap<(u64, usize)> = BinaryHeap::new();
    let mut conn = vec![0u64; n];

    while grown < target {
        let v = match frontier.pop() {
            Some((w, v)) if !in_region[v] && w == conn[v] => v,
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
                conn[u] += w;
                frontier.push((conn[u], u));
            }
        }
    }
    side
}

/// FM refinement with rollback to the best observed prefix. The move
/// heap is seeded with every vertex, interior ones included (their
/// negative gains sort them behind the boundary).
/// Respects the balance constraint `weight(side) <= (1+eps) * its target`.
fn fm_refine(graph: &CsrGraph, side: &mut [u32], ratio: f64, epsilon: f64, _rng: &mut StdRng) {
    let n = graph.n();
    let total = graph.total_vwgt() as f64;
    let target = [total * ratio, total * (1.0 - ratio)];
    // Allow eps slack but never less than the integral ceiling of the
    // target, and never so much that a side can be emptied.
    let bound = |t: f64| ((t * (1.0 + epsilon)).floor() as u64).max(t.ceil() as u64);
    let max_w = [bound(target[0]), bound(target[1])];

    const MAX_PASSES: usize = 4;
    const STALL_LIMIT: usize = 256;

    for _pass in 0..MAX_PASSES {
        let mut weights = [0u64; 2];
        for v in 0..n {
            weights[side[v] as usize] += graph.vwgt[v];
        }
        // gain[v] = external - internal edge weight
        let mut gain = vec![0i64; n];
        for v in 0..n {
            for (u, w) in graph.neighbors(v) {
                if side[v] == side[u as usize] {
                    gain[v] -= w as i64;
                } else {
                    gain[v] += w as i64;
                }
            }
        }
        let mut heap: BinaryHeap<(i64, usize)> = (0..n).map(|v| (gain[v], v)).collect();
        let mut locked = vec![false; n];
        let mut moves: Vec<usize> = Vec::new();
        let mut cum_gain: i64 = 0;
        let mut best_gain: i64 = 0;
        let mut best_len: usize = 0;
        let mut stall = 0usize;

        while let Some((g, v)) = heap.pop() {
            if locked[v] || g != gain[v] {
                continue; // stale entry
            }
            let from = side[v] as usize;
            let to = 1 - from;
            if weights[to] + graph.vwgt[v] > max_w[to] || weights[from] == graph.vwgt[v] {
                continue; // would break balance or empty a side
            }
            // execute the move
            locked[v] = true;
            side[v] = to as u32;
            weights[from] -= graph.vwgt[v];
            weights[to] += graph.vwgt[v];
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
            // update neighbor gains
            for (u, w) in graph.neighbors(v) {
                let u = u as usize;
                if locked[u] {
                    continue;
                }
                // v moved to `to`; recompute u's delta for this edge
                if side[u] as usize == to {
                    gain[u] -= 2 * w as i64;
                } else {
                    gain[u] += 2 * w as i64;
                }
                heap.push((gain[u], u));
            }
        }
        // rollback the non-improving suffix
        for &v in &moves[best_len..] {
            side[v] = 1 - side[v];
        }
        if best_gain <= 0 {
            return; // pass produced no improvement
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
        for seed in 0..5 {
            let with = partition_kway(
                &g,
                4,
                &PartitionOptions {
                    refine: true,
                    ..opts(seed)
                },
            );
            let without = partition_kway(
                &g,
                4,
                &PartitionOptions {
                    refine: false,
                    ..opts(seed)
                },
            );
            assert!(
                g.edge_cut(&with) <= g.edge_cut(&without),
                "seed {seed}: refined {} > unrefined {}",
                g.edge_cut(&with),
                g.edge_cut(&without)
            );
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

    #[test]
    fn star_graph_does_not_hang() {
        // pathological for matching: one hub connected to all leaves
        let edges: Vec<(usize, usize, u64)> = (1..2000).map(|i| (0, i, 1)).collect();
        let g = CsrGraph::from_edges(2000, &edges);
        let part = partition_kway(&g, 4, &opts(17));
        assert_eq!(part.len(), 2000);
        let w = g.part_weights(&part, 4);
        assert!(w.iter().all(|&x| x > 0));
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
