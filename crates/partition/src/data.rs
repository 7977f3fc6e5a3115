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
//!
//! That guarantee needs only the positions some rule joins on. Under a
//! [`JoinMask`] step 3 places a triple on the owners of its *join*
//! positions, and a triple with none once, on the owner of its subject;
//! the runtime routes derived triples by the same answer
//! ([`Destinations::joining`]). [`partition_data`] is the paper's step 3
//! as written: every position joins ([`JoinMask::all`]).

use crate::domain::{authority_key, domain_owners};
use crate::hash::hash_owner;
use crate::multilevel::{partition_kway, PartitionOptions};
use crate::rdfgraph::ownership_graph_and_table;
use owlpar_datalog::analysis::JoinMask;
use owlpar_rdf::fx::FxHashMap;
use owlpar_rdf::{Dictionary, NodeId, Triple};
use std::time::{Duration, Instant};

/// The ownership policy of Algorithm 1 step 2.
#[derive(Debug, Clone, Copy)]
pub enum OwnershipPolicy {
    /// Multilevel min-edge-cut graph partitioning (METIS role).
    Graph(PartitionOptions),
    /// Streaming hash ownership.
    Hash {
        /// Hash-function seed.
        seed: u64,
    },
    /// Domain-specific grouping by IRI authority ([`authority_key`]).
    Domain,
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
    /// The join positions the parts were placed by.
    pub mask: JoinMask,
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

    /// The (one or two) partitions a triple was placed on: the owners of
    /// its join positions ([`Destinations::placing`]).
    pub fn destinations(&self, t: &Triple) -> Destinations {
        Destinations::placing(&self.mask, t, |n| self.owner_of(n))
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

    /// The owners a triple must reach so that every join it can take
    /// part in is evaluable there: the owner of each of its join
    /// positions under `mask`. Non-ownable values (class objects) impose
    /// no constraint, and a triple with no join position needs to be
    /// nowhere in particular — [`Destinations::None`]. This is the one
    /// answer to *where must this triple be?*: Algorithm 1 places base
    /// triples by it, the runtime routes derived triples by it, and the
    /// plan analyzer prices exchange by the mask it reads.
    pub fn joining(
        mask: &JoinMask,
        t: &Triple,
        owner: impl Fn(NodeId) -> Option<u32>,
    ) -> Destinations {
        let at = mask.positions(t.p);
        Destinations::of(
            at.subject().then(|| owner(t.s)).flatten(),
            at.object().then(|| owner(t.o)).flatten(),
        )
    }

    /// Where Algorithm 1 stores a base triple: [`Destinations::joining`],
    /// or — when that is nowhere — once, on the owner of its subject (of
    /// its object when the subject has none).
    pub fn placing(
        mask: &JoinMask,
        t: &Triple,
        owner: impl Fn(NodeId) -> Option<u32>,
    ) -> Destinations {
        match Destinations::joining(mask, t, &owner) {
            Destinations::None => Destinations::of(owner(t.s).or_else(|| owner(t.o)), None),
            d => d,
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

/// Run Algorithm 1 over `instance` triples as the paper states it: every
/// triple on the owners of both its endpoints, whatever the rule-base.
///
/// `rdf_type` (when known) keeps class objects out of the ownership graph;
/// `dict` is needed by the domain policy to read IRIs.
pub fn partition_data(
    instance: &[Triple],
    dict: &Dictionary,
    rdf_type: Option<NodeId>,
    k: usize,
    policy: &OwnershipPolicy,
) -> DataPartitions {
    partition_data_ordered(
        instance,
        instance,
        dict,
        rdf_type,
        k,
        policy,
        &JoinMask::all(),
    )
}

/// [`partition_data`] for the rule-base compiled into `mask`, with the
/// two roles of the input order separated: ownership (step 2) is decided
/// from `instance` as given — vertex numbering follows first appearance,
/// so that order fixes every assignment — while the parts (step 3) are
/// cut by walking `cut_order`, the same triples in whatever order the
/// caller wants each part born in. The distributed masters pass the
/// SPO-sorted KB there, so every partition is a sorted run from the
/// start.
pub fn partition_data_ordered(
    instance: &[Triple],
    cut_order: &[Triple],
    dict: &Dictionary,
    rdf_type: Option<NodeId>,
    k: usize,
    policy: &OwnershipPolicy,
    mask: &JoinMask,
) -> DataPartitions {
    assert!(k >= 1);
    debug_assert_eq!(instance.len(), cut_order.len());
    let start = Instant::now();
    let (og, node_to_vertex) = ownership_graph_and_table(instance, rdf_type, mask);

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
        OwnershipPolicy::Domain => (
            domain_owners(&og.vertex_to_node, dict, k, &authority_key),
            None,
        ),
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
        for d in Destinations::placing(mask, t, lookup).iter() {
            parts[d as usize].push(*t);
        }
    }
    DataPartitions {
        k,
        owner,
        parts,
        mask: mask.clone(),
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

    fn graph_policy() -> OwnershipPolicy {
        OwnershipPolicy::Graph(PartitionOptions {
            seed: 1,
            ..PartitionOptions::default()
        })
    }

    #[test]
    fn every_triple_lands_on_owner_of_both_endpoints() {
        let triples = clustered();
        let d = Dictionary::new();
        for policy in [graph_policy(), OwnershipPolicy::Hash { seed: 2 }] {
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
        let dp = partition_data(&triples, &g.dict, None, 2, &OwnershipPolicy::Domain);
        // no triple crosses partitions: all universities are intact
        for tr in &triples {
            assert!(matches!(dp.destinations(tr), Destinations::One(_)));
        }
        let sizes: Vec<usize> = dp.parts.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![18, 18]);
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
    fn masked_placement_replicates_only_joined_triples() {
        use owlpar_datalog::ast::build::{atom, c, v};
        use owlpar_datalog::Rule;
        const Q: u32 = 1002;
        // P is transitive; Q is joined nowhere
        let trans = Rule::new(
            "trans",
            atom(v(0), c(NodeId(P)), v(2)),
            vec![
                atom(v(0), c(NodeId(P)), v(1)),
                atom(v(1), c(NodeId(P)), v(2)),
            ],
        )
        .unwrap();
        let mask = JoinMask::of(&[trans]);
        let mut triples = clustered();
        triples.push(t(3, Q, 13));
        let d = Dictionary::new();
        let dp = partition_data_ordered(
            &triples,
            &triples,
            &d,
            None,
            2,
            &OwnershipPolicy::Hash { seed: 3 },
            &mask,
        );
        for tr in &triples {
            let copies = dp.parts.iter().filter(|p| p.contains(tr)).count();
            let owners = [dp.owner_of(tr.s).unwrap(), dp.owner_of(tr.o).unwrap()];
            if tr.p == NodeId(Q) {
                assert_eq!(copies, 1, "{tr} joins nowhere");
                assert!(
                    dp.parts[owners[0] as usize].contains(tr),
                    "{tr} at owner(s)"
                );
            } else {
                for o in owners {
                    assert!(dp.parts[o as usize].contains(tr), "{tr} missing from {o}");
                }
            }
            assert_eq!(dp.destinations(tr).iter().count(), copies);
        }
    }

    #[test]
    fn joining_sends_a_triple_joined_nowhere_nowhere() {
        let owner = |n: NodeId| Some(n.0 % 2);
        let none = JoinMask::default();
        assert_eq!(
            Destinations::joining(&none, &t(1, P, 2), owner),
            Destinations::None
        );
        assert_eq!(
            Destinations::placing(&none, &t(1, P, 2), owner),
            Destinations::One(1)
        );
        assert_eq!(
            Destinations::joining(&JoinMask::all(), &t(1, P, 2), owner),
            Destinations::Two(1, 0)
        );
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
