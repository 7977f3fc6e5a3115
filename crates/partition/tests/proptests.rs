//! Property tests for the multilevel partitioner: on arbitrary graphs the
//! result must be a complete, in-range, balanced assignment, and
//! refinement must never worsen the cut. The CSR builder and contraction
//! are checked against a sort-and-merge reference on random multigraphs.

use owlpar_partition::multilevel::{partition_kway, CsrGraph, PartitionOptions};
use proptest::prelude::*;

fn graph_strategy() -> impl Strategy<Value = CsrGraph> {
    (2usize..200, prop::collection::vec((any::<u32>(), any::<u32>(), 1u64..5), 0..400))
        .prop_map(|(n, raw)| {
            let edges: Vec<(usize, usize, u64)> = raw
                .into_iter()
                .map(|(a, b, w)| (a as usize % n, b as usize % n, w))
                .collect();
            CsrGraph::from_edges(n, &edges)
        })
}

type Edge = (usize, usize, u64);

/// A multigraph: parallel edges in both orientations and self-loops.
fn multigraph_strategy() -> impl Strategy<Value = (usize, Vec<Edge>)> {
    (
        2usize..60,
        prop::collection::vec((any::<u32>(), any::<u32>(), 1u64..5), 0..300),
    )
        .prop_map(|(n, raw)| {
            let edges = raw
                .into_iter()
                .map(|(a, b, w)| (a as usize % n, b as usize % n, w))
                .collect();
            (n, edges)
        })
}

/// A random matching over `0..n`, pairs not necessarily adjacent: walk a
/// permutation drawn from `picks` and pair every other couple.
fn matching_from(n: usize, picks: &[u32]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    for (i, &p) in picks.iter().enumerate().take(n) {
        order.swap(i, i + p as usize % (n - i));
    }
    let mut mate: Vec<u32> = (0..n as u32).collect();
    for (i, pair) in order.chunks_exact(2).enumerate() {
        if i % 3 != 2 {
            mate[pair[0] as usize] = pair[1];
            mate[pair[1] as usize] = pair[0];
        }
    }
    mate
}

/// The reference: orient, sort, merge runs, drop loops.
fn sort_and_merge(edges: impl Iterator<Item = Edge>) -> Vec<Edge> {
    let mut canon: Vec<Edge> = edges
        .filter(|&(a, b, _)| a != b)
        .map(|(a, b, w)| (a.min(b), a.max(b), w))
        .collect();
    canon.sort_unstable();
    let mut merged: Vec<Edge> = Vec::new();
    for (a, b, w) in canon {
        match merged.last_mut() {
            Some(last) if (last.0, last.1) == (a, b) => last.2 += w,
            _ => merged.push((a, b, w)),
        }
    }
    merged
}

/// Every adjacency entry of `g`, sorted; an undirected edge shows up once
/// per direction.
fn entries(g: &CsrGraph) -> Vec<Edge> {
    let mut all: Vec<Edge> = (0..g.n())
        .flat_map(|v| g.neighbors(v).map(move |(u, w)| (v, u as usize, w)))
        .collect();
    all.sort_unstable();
    all
}

fn both_directions(merged: &[Edge]) -> Vec<Edge> {
    let mut all: Vec<Edge> = merged
        .iter()
        .flat_map(|&(a, b, w)| [(a, b, w), (b, a, w)])
        .collect();
    all.sort_unstable();
    all
}

fn total_edge_weight(g: &CsrGraph) -> u64 {
    g.adjwgt.iter().sum::<u64>() / 2
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn builder_equals_sort_and_merge(multigraph in multigraph_strategy()) {
        let (n, edges) = multigraph;
        let g = CsrGraph::from_edges(n, &edges);
        prop_assert_eq!(g.xadj.len(), n + 1);
        prop_assert_eq!(entries(&g), both_directions(&sort_and_merge(edges.into_iter())));
    }

    #[test]
    fn contraction_equals_sort_and_merge(
        multigraph in multigraph_strategy(),
        picks in prop::collection::vec(any::<u32>(), 60..61),
        weights in prop::collection::vec(1u64..9, 60..61),
    ) {
        let (n, edges) = multigraph;
        let g = CsrGraph::from_edges_vwgt(n, &edges, weights[..n].to_vec());
        let mate = matching_from(n, &picks);
        let (coarse, map) = g.contract(&mate);

        // coarse vertices are numbered by their smallest fine member
        let mut want_map = vec![u32::MAX; n];
        let mut want_vwgt: Vec<u64> = Vec::new();
        for v in 0..n {
            if want_map[v] == u32::MAX {
                want_map[v] = want_vwgt.len() as u32;
                want_map[mate[v] as usize] = want_vwgt.len() as u32;
                want_vwgt.push(if mate[v] as usize == v { g.vwgt[v] } else { g.vwgt[v] + g.vwgt[mate[v] as usize] });
            }
        }
        prop_assert_eq!(&map, &want_map);
        prop_assert_eq!(&coarse.vwgt, &want_vwgt);
        let mapped = edges.iter().map(|&(a, b, w)| (map[a] as usize, map[b] as usize, w));
        prop_assert_eq!(entries(&coarse), both_directions(&sort_and_merge(mapped)));
    }

    #[test]
    fn contraction_conserves_weight(
        g in graph_strategy(),
        picks in prop::collection::vec(any::<u32>(), 200..201),
    ) {
        let mate = matching_from(g.n(), &picks);
        let (coarse, _) = g.contract(&mate);
        prop_assert_eq!(coarse.total_vwgt(), g.total_vwgt());
        let inside_pairs: u64 = entries(&g)
            .iter()
            .filter(|&&(v, u, _)| mate[v] as usize == u)
            .map(|&(_, _, w)| w)
            .sum::<u64>() / 2;
        prop_assert_eq!(total_edge_weight(&coarse), total_edge_weight(&g) - inside_pairs);
    }

    #[test]
    fn assignment_is_complete_and_in_range(g in graph_strategy(), k in 1usize..8, seed in 0u64..50) {
        let opts = PartitionOptions { seed, ..PartitionOptions::default() };
        let part = partition_kway(&g, k, &opts);
        prop_assert_eq!(part.len(), g.n());
        prop_assert!(part.iter().all(|&p| (p as usize) < k));
    }

    #[test]
    fn parts_reasonably_balanced(g in graph_strategy(), k in 2usize..6, seed in 0u64..50) {
        let opts = PartitionOptions { seed, ..PartitionOptions::default() };
        let part = partition_kway(&g, k, &opts);
        let w = g.part_weights(&part, k);
        let total: u64 = w.iter().sum();
        let target = total as f64 / k as f64;
        for &wp in &w {
            // recursive bisection compounds epsilon per level (log2 k
            // levels); allow that plus integrality slack
            let levels = (k as f64).log2().ceil();
            let bound = target * (1.0 + 0.06 * levels) + levels + 1.0;
            prop_assert!(
                (wp as f64) <= bound,
                "weights {w:?} vs target {target} (k={k})"
            );
        }
    }

    #[test]
    fn refinement_never_worsens_cut(g in graph_strategy(), seed in 0u64..30) {
        let refined = partition_kway(&g, 2, &PartitionOptions {
            seed, refine: true, ..PartitionOptions::default()
        });
        let unrefined = partition_kway(&g, 2, &PartitionOptions {
            seed, refine: false, ..PartitionOptions::default()
        });
        prop_assert!(g.edge_cut(&refined) <= g.edge_cut(&unrefined));
    }

    #[test]
    fn edge_cut_bounded_by_total_weight(g in graph_strategy(), k in 2usize..6) {
        let part = partition_kway(&g, k, &PartitionOptions::default());
        let total_edge_weight: u64 = (0..g.n())
            .flat_map(|v| g.neighbors(v).map(|(_, w)| w))
            .sum::<u64>() / 2;
        prop_assert!(g.edge_cut(&part) <= total_edge_weight);
    }

    #[test]
    fn deterministic_per_seed(g in graph_strategy(), k in 1usize..6, seed in 0u64..20) {
        let opts = PartitionOptions { seed, ..PartitionOptions::default() };
        prop_assert_eq!(partition_kway(&g, k, &opts), partition_kway(&g, k, &opts));
    }
}
