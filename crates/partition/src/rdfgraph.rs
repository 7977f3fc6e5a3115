//! Build the ownership graph from instance triples.
//!
//! "The input RDF graph, in which each triple is represented by two
//! vertices, one each for the subject and the object, and an edge
//! representing the property, is considered for partition. All the
//! vertices are uniformly weighted." (§III-A-1)
//!
//! One deviation, documented in DESIGN.md: objects of `rdf:type` triples
//! (classes) are **not** vertices. Compiled OWL-Horst rules never join on
//! a class position (classes are constants in the compiled rules), and
//! making classes vertices would star-connect every instance of a class,
//! destroying the community structure the partitioner exploits.

use crate::multilevel::CsrGraph;
use owlpar_rdf::{NodeId, Triple};

/// The ownership graph plus its vertex → node map.
#[derive(Debug, Clone)]
pub struct OwnershipGraph {
    /// The undirected graph handed to the partitioner.
    pub graph: CsrGraph,
    /// Vertex index → RDF node, in order of first appearance.
    pub vertex_to_node: Vec<NodeId>,
}

impl OwnershipGraph {
    /// Number of ownable resources.
    pub fn n(&self) -> usize {
        self.vertex_to_node.len()
    }
}

/// Build the ownership graph over `instance` triples. `rdf_type` (when
/// present in the dictionary) suppresses class-object vertices.
pub fn build_ownership_graph(instance: &[Triple], rdf_type: Option<NodeId>) -> OwnershipGraph {
    ownership_graph_and_table(instance, rdf_type).0
}

/// [`build_ownership_graph`] plus the table it numbered the vertices
/// with: indexed by [`NodeId`], covering every subject and object of
/// `instance`, `u32::MAX` where the node is no vertex. Dictionary ids are
/// dense, so this is a plain vector rather than a hash map.
pub(crate) fn ownership_graph_and_table(
    instance: &[Triple],
    rdf_type: Option<NodeId>,
) -> (OwnershipGraph, Vec<u32>) {
    let nodes = instance
        .iter()
        .map(|t| t.s.index().max(t.o.index()) + 1)
        .max()
        .unwrap_or(0);
    let mut node_to_vertex = vec![u32::MAX; nodes];
    let mut vertex_to_node: Vec<NodeId> = Vec::new();
    let mut vid = |n: NodeId| {
        let slot = &mut node_to_vertex[n.index()];
        if *slot == u32::MAX {
            *slot = vertex_to_node.len() as u32;
            vertex_to_node.push(n);
        }
        *slot as usize
    };
    let mut edges: Vec<(usize, usize, u64)> = Vec::with_capacity(instance.len());
    for t in instance {
        let s = vid(t.s);
        if Some(t.p) == rdf_type {
            continue; // subject becomes a vertex; class object does not
        }
        let o = vid(t.o);
        if s != o {
            edges.push((s, o, 1));
        }
    }
    let graph = CsrGraph::from_edges(vertex_to_node.len(), &edges);
    let og = OwnershipGraph {
        graph,
        vertex_to_node,
    };
    (og, node_to_vertex)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    #[test]
    fn builds_vertices_for_subjects_and_objects() {
        let g = build_ownership_graph(&[t(1, 50, 2), t(2, 50, 3)], None);
        assert_eq!(g.n(), 3);
        assert_eq!(g.graph.m(), 2);
        // predicates are not vertices
        assert_eq!(g.vertex_to_node, [NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn type_objects_are_not_vertices() {
        const TYPE: u32 = 9;
        let g = build_ownership_graph(&[t(1, TYPE, 100), t(1, 50, 2)], Some(NodeId(TYPE)));
        assert_eq!(g.vertex_to_node, [NodeId(1), NodeId(2)]);
    }

    #[test]
    fn parallel_triples_merge_into_weighted_edge() {
        let g = build_ownership_graph(&[t(1, 50, 2), t(1, 51, 2), t(2, 52, 1)], None);
        assert_eq!(g.graph.m(), 1);
        let w: u64 = g.graph.neighbors(0).map(|(_, w)| w).sum();
        assert_eq!(w, 3);
    }

    #[test]
    fn self_referencing_triple_is_vertex_without_edge() {
        let g = build_ownership_graph(&[t(1, 50, 1)], None);
        assert_eq!(g.n(), 1);
        assert_eq!(g.graph.m(), 0);
    }

    #[test]
    fn vertices_are_numbered_by_first_appearance() {
        let g = build_ownership_graph(&[t(7, 50, 2), t(3, 50, 7), t(2, 50, 9)], None);
        assert_eq!(g.vertex_to_node, [7, 2, 3, 9].map(NodeId));
        let neighbors = |v| g.graph.neighbors(v).map(|(u, _)| u).collect::<Vec<_>>();
        assert_eq!(neighbors(0), [1, 2]);
        assert_eq!(neighbors(1), [0, 3]);
    }

    #[test]
    fn empty_input() {
        let g = build_ownership_graph(&[], None);
        assert_eq!(g.n(), 0);
        assert_eq!(g.graph.m(), 0);
    }
}
