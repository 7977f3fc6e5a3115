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

use owlpar_rdf::fx::FxHashSet;
use owlpar_rdf::{NodeId, Triple};
use rayon::prelude::*;

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

/// Distinct resource nodes in a triple list. `rdf_type` objects are not
/// counted as nodes, mirroring the ownership-graph construction.
fn distinct_nodes(triples: &[Triple], rdf_type: Option<NodeId>) -> FxHashSet<NodeId> {
    let mut set = FxHashSet::default();
    for t in triples {
        set.insert(t.s);
        if Some(t.p) != rdf_type {
            set.insert(t.o);
        }
    }
    set
}

/// Compute [`PartitionQuality`] for a set of partitions.
pub fn quality(parts: &[Vec<Triple>], rdf_type: Option<NodeId>) -> PartitionQuality {
    let node_sets: Vec<FxHashSet<NodeId>> = parts
        .par_iter()
        .map(|p| distinct_nodes(p, rdf_type))
        .collect();
    let node_counts: Vec<usize> = node_sets.iter().map(FxHashSet::len).collect();
    let mut union: FxHashSet<NodeId> = FxHashSet::default();
    for s in &node_sets {
        union.extend(s.iter().copied());
    }
    let total_nodes = union.len();
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

    #[test]
    fn empty_partitions_ok() {
        let parts = vec![Vec::new(), vec![t(0, 9, 1)]];
        let q = quality(&parts, None);
        assert_eq!(q.node_counts, vec![0, 2]);
        assert_eq!(q.triple_counts, vec![0, 1]);
        assert_eq!(q.bal, 1.0);
    }
}
