//! Algorithm 2: rule-base partitioning.
//!
//! ```text
//! Input:  Rule-base created from an ontology
//! Output: Partition of the rule-base
//! 1: Create rule dependency graph: vertex per rule, edge when the head
//!    of a rule contains a clause that is in the body of another rule.
//! 2: Partition the rule-dep graph to minimize edge cut, balance number
//!    of rules in each partition (standard graph partitioning).
//! ```
//!
//! The dependency graph comes from `owlpar-datalog`'s analysis module;
//! edges may be weighted by a predicate histogram ("a priori knowledge
//! about the distribution of different predicates in the dataset can be
//! used to weigh the edges").
//!
//! At run time (Algorithm 3, rule-partitioning flavor) every newly derived
//! triple is matched against the body atoms of the *other* partitions'
//! rules to decide where to send it. That match is compiled once from
//! the assignment made here, as `owlpar_datalog::analysis::ConsumerIndex`,
//! which the runtime routes by and the plan analyzer prices with.

use crate::multilevel::{partition_kway, CsrGraph, PartitionOptions};
use owlpar_datalog::analysis::weighted_dependency_graph;
use owlpar_datalog::Rule;
use owlpar_rdf::fx::FxHashMap;
use owlpar_rdf::NodeId;
use std::time::{Duration, Instant};

/// Result of Algorithm 2.
#[derive(Debug, Clone)]
pub struct RulePartitions {
    /// Number of partitions.
    pub k: usize,
    /// Partition id per rule index.
    pub assignment: Vec<u32>,
    /// Rule indices per partition.
    pub parts: Vec<Vec<usize>>,
    /// Edge-cut of the dependency graph under this assignment.
    pub edge_cut: u64,
    /// Wall-clock partitioning time.
    pub partition_time: Duration,
}

impl RulePartitions {
    /// Materialize partition `p`'s rule subset.
    pub fn rules_for<'r>(&self, rules: &'r [Rule], p: usize) -> Vec<&'r Rule> {
        self.parts[p].iter().map(|&i| &rules[i]).collect()
    }
}

/// Run Algorithm 2: partition `rules` into `k` balanced sets minimizing
/// dependency edge-cut. `predicate_counts`, when supplied, weighs edges
/// by expected triple production.
pub fn partition_rules(
    rules: &[Rule],
    k: usize,
    predicate_counts: Option<&FxHashMap<NodeId, usize>>,
    opts: &PartitionOptions,
) -> RulePartitions {
    assert!(k >= 1);
    let start = Instant::now();
    let empty = FxHashMap::default();
    let dep = weighted_dependency_graph(rules, predicate_counts.unwrap_or(&empty), 1);
    let und = dep.undirected_edges();
    let graph = CsrGraph::from_edges(rules.len(), &und);
    let assignment = partition_kway(&graph, k.min(rules.len().max(1)), opts);
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &p) in assignment.iter().enumerate() {
        parts[p as usize].push(i);
    }
    RulePartitions {
        k,
        edge_cut: graph.edge_cut(&assignment),
        assignment,
        parts,
        partition_time: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use owlpar_datalog::ast::build::*;

    fn nid(i: u32) -> NodeId {
        NodeId(i)
    }

    fn promote(name: &str, from: u32, to: u32) -> Rule {
        Rule::new(
            name,
            atom(v(0), c(nid(to)), v(1)),
            vec![atom(v(0), c(nid(from)), v(1))],
        )
        .unwrap()
    }

    fn trans(name: &str, p: u32) -> Rule {
        Rule::new(
            name,
            atom(v(0), c(nid(p)), v(2)),
            vec![atom(v(0), c(nid(p)), v(1)), atom(v(1), c(nid(p)), v(2))],
        )
        .unwrap()
    }

    /// Two independent rule "families": chain a→b→c and chain x→y→z.
    fn two_families() -> Vec<Rule> {
        vec![
            promote("ab", 1, 2),
            promote("bc", 2, 3),
            trans("c", 3),
            promote("xy", 11, 12),
            promote("yz", 12, 13),
            trans("z", 13),
        ]
    }

    #[test]
    fn balanced_assignment_covering_all_rules() {
        let rules = two_families();
        let rp = partition_rules(&rules, 2, None, &PartitionOptions::default());
        assert_eq!(rp.assignment.len(), 6);
        let sizes: Vec<usize> = rp.parts.iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 6);
        assert_eq!(sizes, vec![3, 3]);
    }

    #[test]
    fn independent_families_are_not_cut() {
        let rules = two_families();
        let rp = partition_rules(&rules, 2, None, &PartitionOptions::default());
        assert_eq!(rp.edge_cut, 0, "families are independent");
        // family 1 = rules 0..3, family 2 = rules 3..6: each stays whole
        assert_eq!(rp.assignment[0], rp.assignment[1]);
        assert_eq!(rp.assignment[1], rp.assignment[2]);
        assert_eq!(rp.assignment[3], rp.assignment[4]);
        assert_eq!(rp.assignment[4], rp.assignment[5]);
        assert_ne!(rp.assignment[0], rp.assignment[3]);
    }

    #[test]
    fn weighted_edges_bias_the_cut() {
        // chain: r0 -(heavy)- r1 -(light)- r2, plus isolated r3.
        // heavy edge: r0 produces predicate 2 (many triples) consumed by r1
        // light edge: r1 produces predicate 3 (few triples) consumed by r2
        let rules = vec![
            promote("r0", 1, 2),
            promote("r1", 2, 3),
            promote("r2", 3, 4),
            promote("r3", 21, 22),
        ];
        let mut counts: FxHashMap<NodeId, usize> = FxHashMap::default();
        counts.insert(nid(2), 10_000);
        counts.insert(nid(3), 1);
        let rp = partition_rules(&rules, 2, Some(&counts), &PartitionOptions::default());
        // r0 and r1 must be co-located (the heavy edge survives)
        assert_eq!(rp.assignment[0], rp.assignment[1]);
    }

    #[test]
    fn rules_for_materializes_subsets() {
        let rules = two_families();
        let rp = partition_rules(&rules, 3, None, &PartitionOptions::default());
        let mut seen = 0;
        for p in 0..3 {
            seen += rp.rules_for(&rules, p).len();
        }
        assert_eq!(seen, rules.len());
    }

    #[test]
    fn k_larger_than_rule_count() {
        let rules = vec![promote("only", 1, 2)];
        let rp = partition_rules(&rules, 4, None, &PartitionOptions::default());
        assert_eq!(rp.parts.iter().map(Vec::len).sum::<usize>(), 1);
        assert_eq!(rp.parts.len(), 4);
    }

    #[test]
    fn partition_time_populated() {
        let rules = two_families();
        let rp = partition_rules(&rules, 2, None, &PartitionOptions::default());
        assert!(rp.partition_time < Duration::from_secs(5));
    }
}
