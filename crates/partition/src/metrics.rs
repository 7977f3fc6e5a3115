//! The paper's partitioning-quality metrics (§III-A, Table I).
//!
//! * **bal** — standard deviation of the number of nodes per partition
//!   ("the computational time of the reasoning is directly proportional
//!   to the number of nodes in the RDF graph");
//! * **IR** (input replication) — Σ nodes-per-partition / distinct nodes
//!   in the input; the diagnostic proxy for communication volume;
//! * **OR** (output replication) — Σ result-tuples-per-partition /
//!   distinct tuples in the unioned output; the efficiency metric proper;
//! * **partition time** — carried on
//!   [`crate::data::DataPartitions::partition_time`].

use owlpar_rdf::{NodeId, Triple};

/// Quality of a data partitioning, before any reasoning runs.
#[derive(Debug, Clone)]
pub struct PartitionQuality {
    /// Distinct resource nodes present per partition (replicas counted in
    /// every partition they appear in).
    pub node_counts: Vec<usize>,
    /// Distinct nodes in the whole input.
    pub total_nodes: usize,
    /// Standard deviation of `node_counts`.
    pub bal: f64,
    /// Input replication `Σ node_counts / total_nodes`. 1.0 = no
    /// replication; the paper reports e.g. 0.07 as *excess* replication
    /// (IR − 1), which [`PartitionQuality::ir_excess`] provides.
    pub ir: f64,
    /// Triples per partition.
    pub triple_counts: Vec<usize>,
}

impl PartitionQuality {
    /// Replication overhead above the unavoidable 1.0 (the paper's Table I
    /// convention: "for 4 partitions ... the duplication (IR) is nearly
    /// 10%" means `ir_excess ≈ 0.1`).
    pub fn ir_excess(&self) -> f64 {
        (self.ir - 1.0).max(0.0)
    }
}

/// Population standard deviation.
pub fn stddev(xs: &[usize]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<usize>() as f64 / n;
    let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
    var.sqrt()
}

/// Compute [`PartitionQuality`] for a set of partitions. A node is a
/// subject, or an object other than an `rdf_type` object, mirroring the
/// ownership-graph construction. Dictionary ids are dense, so distinct
/// nodes are counted with one table indexed by [`NodeId`] holding the
/// last partition that counted each node.
pub fn quality(parts: &[Vec<Triple>], rdf_type: Option<NodeId>) -> PartitionQuality {
    let nodes = parts
        .iter()
        .flatten()
        .map(|t| t.s.index().max(t.o.index()) + 1)
        .max()
        .unwrap_or(0);
    const UNSEEN: u32 = u32::MAX;
    let mut last_part = vec![UNSEEN; nodes];
    let mut total_nodes = 0usize;
    let mut node_counts = vec![0usize; parts.len()];
    for (i, part) in parts.iter().enumerate() {
        let mut count = |n: NodeId| {
            let slot = &mut last_part[n.index()];
            if *slot != i as u32 {
                total_nodes += usize::from(*slot == UNSEEN);
                *slot = i as u32;
                node_counts[i] += 1;
            }
        };
        for t in part {
            count(t.s);
            if Some(t.p) != rdf_type {
                count(t.o);
            }
        }
    }
    let ir = if total_nodes == 0 {
        1.0
    } else {
        node_counts.iter().sum::<usize>() as f64 / total_nodes as f64
    };
    PartitionQuality {
        bal: stddev(&node_counts),
        node_counts,
        total_nodes,
        ir,
        triple_counts: parts.iter().map(Vec::len).collect(),
    }
}

/// Output replication: Σ per-partition result sizes over the distinct
/// union size. 1.0 = every inference derived exactly once. The paper
/// reports the excess (`OR ≈ 0.1`); use [`or_excess`] for that convention.
pub fn output_replication(per_partition_outputs: &[usize], union_size: usize) -> f64 {
    if union_size == 0 {
        return 1.0;
    }
    per_partition_outputs.iter().sum::<usize>() as f64 / union_size as f64
}

/// Output replication excess above 1.0.
pub fn or_excess(per_partition_outputs: &[usize], union_size: usize) -> f64 {
    (output_replication(per_partition_outputs, union_size) - 1.0).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    #[test]
    fn stddev_basics() {
        assert_eq!(stddev(&[]), 0.0);
        assert_eq!(stddev(&[5, 5, 5]), 0.0);
        assert!((stddev(&[2, 4]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quality_no_replication() {
        // two disjoint partitions
        let parts = vec![vec![t(0, 9, 1)], vec![t(2, 9, 3)]];
        let q = quality(&parts, None);
        assert_eq!(q.node_counts, vec![2, 2]);
        assert_eq!(q.total_nodes, 4);
        assert!((q.ir - 1.0).abs() < 1e-12);
        assert_eq!(q.ir_excess(), 0.0);
        assert_eq!(q.bal, 0.0);
    }

    #[test]
    fn quality_with_replication() {
        // node 1 appears in both partitions
        let parts = vec![vec![t(0, 9, 1)], vec![t(1, 9, 2)]];
        let q = quality(&parts, None);
        assert_eq!(q.total_nodes, 3);
        assert!((q.ir - 4.0 / 3.0).abs() < 1e-12);
        assert!((q.ir_excess() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn type_objects_not_counted() {
        const TYPE: u32 = 7;
        let parts = vec![vec![t(0, TYPE, 100), t(0, 9, 1)]];
        let q = quality(&parts, Some(NodeId(TYPE)));
        assert_eq!(q.node_counts, vec![2]); // 0 and 1, not class 100
    }

    #[test]
    fn or_conventions() {
        assert!((output_replication(&[50, 60], 100) - 1.1).abs() < 1e-12);
        assert!((or_excess(&[50, 60], 100) - 0.1).abs() < 1e-12);
        assert_eq!(output_replication(&[], 0), 1.0);
        assert_eq!(or_excess(&[5], 5), 0.0);
    }

    proptest::proptest! {
        /// The dense-table count is the hash-set count it replaced, bit
        /// for bit in `bal` and `IR`.
        #[test]
        fn quality_equals_the_hash_set_count(
            parts in proptest::collection::vec(
                proptest::collection::vec((0u32..40, 6u32..9, 0u32..40), 0..30),
                1..5,
            ),
        ) {
            use owlpar_rdf::fx::FxHashSet;
            const TYPE: u32 = 7;
            let parts: Vec<Vec<Triple>> = parts
                .iter()
                .map(|p| p.iter().map(|&(s, p, o)| t(s, p, o)).collect())
                .collect();
            let sets: Vec<FxHashSet<NodeId>> = parts
                .iter()
                .map(|p| {
                    p.iter()
                        .flat_map(|t| [Some(t.s), (t.p != NodeId(TYPE)).then_some(t.o)])
                        .flatten()
                        .collect()
                })
                .collect();
            let counts: Vec<usize> = sets.iter().map(FxHashSet::len).collect();
            let total = sets.iter().flatten().collect::<FxHashSet<_>>().len();
            let q = quality(&parts, Some(NodeId(TYPE)));
            proptest::prop_assert_eq!(&q.node_counts, &counts);
            proptest::prop_assert_eq!(q.total_nodes, total);
            proptest::prop_assert_eq!(q.bal.to_bits(), stddev(&counts).to_bits());
            let ir = if total == 0 {
                1.0
            } else {
                counts.iter().sum::<usize>() as f64 / total as f64
            };
            proptest::prop_assert_eq!(q.ir.to_bits(), ir.to_bits());
        }
    }

    #[test]
    fn empty_partitions_ok() {
        let parts = vec![Vec::new(), vec![t(0, 9, 1)]];
        let q = quality(&parts, None);
        assert_eq!(q.node_counts, vec![0, 2]);
        assert_eq!(q.triple_counts, vec![0, 1]);
        assert_eq!(q.bal, 1.0);
    }
}
