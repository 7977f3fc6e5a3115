//! Algorithm 1: data partitioning.
//!
//! ```text
//! Input:  Initial tuples
//! Output: Set of partitions of original tuples, partition table
//! 1: Remove all the tuples involving the schema elements.
//! 2: Partition the resulting graph based on the partitioning policy.
//! 3: for all tuples: assign the tuple to the partition owning its
//!    subject and the partition owning its object.
//! ```
//!
//! Step 1 (the schema/instance split) happens in `owlpar-horst`; this
//! module receives instance triples only. Step 3 means a triple crossing
//! an ownership boundary is **replicated** on both owners ("a triple from
//! the dataset can be present in at most two processors"), which is what
//! guarantees every single-join rule can fire locally.

use crate::domain::{authority_key, domain_owners, KeyFn};
use crate::hash::hash_owner;
use crate::multilevel::{partition_kway, PartitionOptions};
use crate::rdfgraph::ownership_graph_and_table;
use owlpar_rdf::fx::FxHashMap;
use owlpar_rdf::{Dictionary, NodeId, Triple};
use std::time::{Duration, Instant};

/// The ownership policy of Algorithm 1 step 2.
pub enum OwnershipPolicy<'a> {
    /// Multilevel min-edge-cut graph partitioning (METIS role).
    Graph(PartitionOptions),
    /// Streaming hash ownership.
    Hash {
        /// Hash-function seed.
        seed: u64,
    },
    /// Domain-specific grouping; `None` uses [`authority_key`].
    Domain(Option<KeyFn<'a>>),
    /// Linear Deterministic Greedy streaming (one pass, edge-cut aware —
    /// the middle ground between hash and graph partitioning).
    Streaming,
}

impl std::fmt::Debug for OwnershipPolicy<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OwnershipPolicy::Graph(o) => write!(f, "Graph({o:?})"),
            OwnershipPolicy::Hash { seed } => write!(f, "Hash{{seed:{seed}}}"),
            OwnershipPolicy::Domain(_) => write!(f, "Domain"),
            OwnershipPolicy::Streaming => write!(f, "Streaming"),
        }
    }
}

/// Result of Algorithm 1.
#[derive(Debug, Clone)]
pub struct DataPartitions {
    /// Number of partitions.
    pub k: usize,
    /// The partition table: resource → owning partition. Shipped to every
    /// worker so it can route derived triples.
    pub owner: FxHashMap<NodeId, u32>,
    /// Instance triples per partition (with boundary replication).
    pub parts: Vec<Vec<Triple>>,
    /// Wall-clock time of the partitioning itself (Table I column).
    pub partition_time: Duration,
    /// Edge-cut of the ownership graph (graph policy only).
    pub edge_cut: Option<u64>,
}

impl DataPartitions {
    /// Owner of a resource, if it is ownable (i.e. was a graph vertex).
    pub fn owner_of(&self, node: NodeId) -> Option<u32> {
        self.owner.get(&node).copied()
    }

    /// The (one or two) partitions a triple belongs on: owner of the
    /// subject plus owner of the object when those differ. Non-ownable
    /// endpoints (class objects) impose no constraint.
    pub fn destinations(&self, t: &Triple) -> Destinations {
        Destinations::of(self.owner_of(t.s), self.owner_of(t.o))
    }
}

/// Up to two destination partitions for one triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Destinations {
    /// Neither endpoint is ownable (cannot happen for instance triples
    /// produced by our pipeline; present for API totality).
    None,
    /// Both endpoints owned by the same partition.
    One(u32),
    /// Endpoints owned by different partitions — replicate.
    Two(u32, u32),
}

impl Destinations {
    /// Where a triple goes, given the owners of its subject and object.
    fn of(subject: Option<u32>, object: Option<u32>) -> Destinations {
        match (subject, object) {
            (Some(x), Some(y)) if x != y => Destinations::Two(x, y),
            (Some(x), _) => Destinations::One(x),
            (None, Some(y)) => Destinations::One(y),
            (None, None) => Destinations::None,
        }
    }

    /// Iterate the destinations.
    pub fn iter(&self) -> impl Iterator<Item = u32> {
        let (a, b) = match *self {
            Destinations::None => (None, None),
            Destinations::One(x) => (Some(x), None),
            Destinations::Two(x, y) => (Some(x), Some(y)),
        };
        a.into_iter().chain(b)
    }
}

/// Run Algorithm 1 over `instance` triples.
///
/// `rdf_type` (when known) keeps class objects out of the ownership graph;
/// `dict` is needed by the domain policy to read IRIs.
pub fn partition_data(
    instance: &[Triple],
    dict: &Dictionary,
    rdf_type: Option<NodeId>,
    k: usize,
    policy: &OwnershipPolicy<'_>,
) -> DataPartitions {
    partition_data_ordered(instance, instance, dict, rdf_type, k, policy)
}

/// [`partition_data`] with the two roles of the input order separated:
/// ownership (step 2) is decided from `instance` as given — vertex
/// numbering follows first appearance, so that order fixes every
/// assignment — while the parts (step 3) are cut by walking `cut_order`,
/// the same triples in whatever order the caller wants each part born
/// in. The distributed masters pass the SPO-sorted KB there, so every
/// partition is a sorted run from the start.
pub fn partition_data_ordered(
    instance: &[Triple],
    cut_order: &[Triple],
    dict: &Dictionary,
    rdf_type: Option<NodeId>,
    k: usize,
    policy: &OwnershipPolicy<'_>,
) -> DataPartitions {
    assert!(k >= 1);
    debug_assert_eq!(instance.len(), cut_order.len());
    let start = Instant::now();
    let (og, node_to_vertex) = ownership_graph_and_table(instance, rdf_type);

    let (owners_by_vertex, edge_cut): (Vec<u32>, Option<u64>) = match policy {
        OwnershipPolicy::Graph(opts) => {
            let part = partition_kway(&og.graph, k, opts);
            let cut = og.graph.edge_cut(&part);
            (part, Some(cut))
        }
        OwnershipPolicy::Hash { seed } => (
            og.vertex_to_node
                .iter()
                .map(|&n| hash_owner(n, k, *seed))
                .collect(),
            None,
        ),
        OwnershipPolicy::Domain(key) => (
            domain_owners(&og.vertex_to_node, dict, k, key.unwrap_or(&authority_key)),
            None,
        ),
        OwnershipPolicy::Streaming => {
            let table = crate::streaming::ldg_owners(instance, rdf_type, k);
            (
                og.vertex_to_node
                    .iter()
                    .map(|n| table.get(n).copied().unwrap_or(0))
                    .collect(),
                None,
            )
        }
    };

    // Step 3 reads owners through the graph builder's node → vertex
    // table; the public partition table is the same content as a map.
    let owner: FxHashMap<NodeId, u32> = og
        .vertex_to_node
        .iter()
        .copied()
        .zip(owners_by_vertex.iter().copied())
        .collect();
    let lookup = |n: NodeId| {
        let v = node_to_vertex.get(n.index()).copied()?;
        owners_by_vertex.get(v as usize).copied() // none at u32::MAX
    };
    let mut parts: Vec<Vec<Triple>> = vec![Vec::new(); k];
    for t in cut_order {
        for d in Destinations::of(lookup(t.s), lookup(t.o)).iter() {
            parts[d as usize].push(*t);
        }
    }
    DataPartitions {
        k,
        owner,
        parts,
        partition_time: start.elapsed(),
        edge_cut,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use owlpar_rdf::Graph;

    const P: u32 = 1000;
    const TYPE: u32 = 1001;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    /// Two clusters {0..4} and {10..14}, chained internally, one bridge.
    fn clustered() -> Vec<Triple> {
        let mut v = Vec::new();
        for base in [0, 10] {
            for i in 0..4 {
                v.push(t(base + i, P, base + i + 1));
            }
        }
        v.push(t(4, P, 10)); // bridge
        v
    }

    fn graph_policy() -> OwnershipPolicy<'static> {
        OwnershipPolicy::Graph(PartitionOptions {
            seed: 1,
            ..PartitionOptions::default()
        })
    }

    #[test]
    fn every_triple_lands_on_owner_of_both_endpoints() {
        let triples = clustered();
        let d = Dictionary::new();
        for policy in [
            graph_policy(),
            OwnershipPolicy::Hash { seed: 2 },
            OwnershipPolicy::Streaming,
        ] {
            let dp = partition_data(&triples, &d, None, 3, &policy);
            for tr in &triples {
                for endpoint in [tr.s, tr.o] {
                    let owner = dp.owner_of(endpoint).expect("all endpoints ownable");
                    assert!(
                        dp.parts[owner as usize].contains(tr),
                        "{tr} missing from partition {owner} under {policy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn triple_present_in_at_most_two_partitions() {
        let triples = clustered();
        let d = Dictionary::new();
        let dp = partition_data(&triples, &d, None, 4, &OwnershipPolicy::Hash { seed: 7 });
        for tr in &triples {
            let copies = dp.parts.iter().filter(|p| p.contains(tr)).count();
            assert!((1..=2).contains(&copies), "{tr} in {copies} partitions");
        }
    }

    #[test]
    fn union_of_partitions_is_input() {
        let triples = clustered();
        let d = Dictionary::new();
        let dp = partition_data(&triples, &d, None, 3, &graph_policy());
        let mut union: Vec<Triple> = dp.parts.iter().flatten().copied().collect();
        union.sort_unstable();
        union.dedup();
        let mut input = triples.clone();
        input.sort_unstable();
        assert_eq!(union, input);
    }

    #[test]
    fn graph_policy_cuts_only_the_bridge() {
        let triples = clustered();
        let d = Dictionary::new();
        let dp = partition_data(&triples, &d, None, 2, &graph_policy());
        assert_eq!(dp.edge_cut, Some(1));
        // only the bridge triple is replicated
        let replicated: Vec<&Triple> = triples
            .iter()
            .filter(|tr| matches!(dp.destinations(tr), Destinations::Two(_, _)))
            .collect();
        assert_eq!(replicated, vec![&t(4, P, 10)]);
    }

    #[test]
    fn type_triples_follow_subject_owner_only() {
        let mut triples = clustered();
        triples.push(t(0, TYPE, 9999)); // class 9999 not ownable
        let d = Dictionary::new();
        let dp = partition_data(&triples, &d, Some(NodeId(TYPE)), 2, &graph_policy());
        assert_eq!(dp.owner_of(NodeId(9999)), None);
        let tt = t(0, TYPE, 9999);
        assert_eq!(
            dp.destinations(&tt),
            Destinations::One(dp.owner_of(NodeId(0)).unwrap())
        );
        let copies = dp.parts.iter().filter(|p| p.contains(&tt)).count();
        assert_eq!(copies, 1);
    }

    #[test]
    fn domain_policy_groups_by_authority() {
        let mut g = Graph::new();
        let mut triples = Vec::new();
        let p = g.intern_iri("http://ont/p");
        for u in 0..4 {
            let mut prev = g.intern_iri(format!("http://www.univ{u}.edu/n0"));
            for i in 1..10 {
                let cur = g.intern_iri(format!("http://www.univ{u}.edu/n{i}"));
                triples.push(Triple::new(prev, p, cur));
                prev = cur;
            }
        }
        let dp = partition_data(&triples, &g.dict, None, 2, &OwnershipPolicy::Domain(None));
        // no triple crosses partitions: all universities are intact
        for tr in &triples {
            assert!(matches!(dp.destinations(tr), Destinations::One(_)));
        }
        let sizes: Vec<usize> = dp.parts.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![18, 18]);
    }

    #[test]
    fn streaming_policy_keeps_clusters_mostly_intact() {
        let triples = clustered();
        let d = Dictionary::new();
        let dp = partition_data(&triples, &d, None, 2, &OwnershipPolicy::Streaming);
        // at most a couple of the 9 triples should be replicated
        let replicated = triples
            .iter()
            .filter(|tr| matches!(dp.destinations(tr), Destinations::Two(_, _)))
            .count();
        assert!(replicated <= 3, "LDG replicated {replicated}/9");
    }

    #[test]
    fn k_one_puts_everything_in_partition_zero() {
        let triples = clustered();
        let d = Dictionary::new();
        let dp = partition_data(&triples, &d, None, 1, &OwnershipPolicy::Hash { seed: 1 });
        assert_eq!(dp.parts.len(), 1);
        assert_eq!(dp.parts[0].len(), triples.len());
    }

    #[test]
    fn partition_time_recorded() {
        let triples = clustered();
        let d = Dictionary::new();
        let dp = partition_data(&triples, &d, None, 2, &graph_policy());
        // can't assert much portably, but it must be populated
        assert!(dp.partition_time <= Duration::from_secs(10));
    }

    #[test]
    fn destinations_iter_yields_each_once() {
        assert_eq!(Destinations::None.iter().count(), 0);
        assert_eq!(Destinations::One(3).iter().collect::<Vec<_>>(), vec![3]);
        assert_eq!(
            Destinations::Two(1, 2).iter().collect::<Vec<_>>(),
            vec![1, 2]
        );
    }
}
