//! TBox (schema) extraction and schema/instance triple classification.
//!
//! Algorithm 1 of the paper begins with *"Remove all the tuples involving
//! the schema elements from the initial tuples"*: the ownership graph is
//! built over instance data only, while the schema (together with the
//! compiled rule-base) is replicated to every partition. [`TBox`] is both
//! the input to the rule compiler and the classifier that performs that
//! split.

use owlpar_rdf::fx::{FxHashMap, FxHashSet};
use owlpar_rdf::{vocab, Graph, NodeId, Triple, TriplePattern};

/// Whether a triple belongs to the ontology (schema) or the data (instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripleKind {
    /// Ontology definition: replicated to every partition.
    Schema,
    /// Instance data: partitioned.
    Instance,
}

/// Ids of the builtin vocabulary terms actually present in a graph's
/// dictionary. Missing entries mean the graph never mentions that term.
#[derive(Debug, Clone, Default)]
pub struct VocabIds {
    /// `rdf:type`
    pub rdf_type: Option<NodeId>,
    /// `owl:sameAs`
    pub same_as: Option<NodeId>,
    set: FxHashSet<NodeId>,
    meta_classes: FxHashSet<NodeId>,
}

impl VocabIds {
    fn collect(graph: &Graph) -> Self {
        let mut v = VocabIds::default();
        for (id, term) in graph.dict.iter() {
            let Some(iri) = term.as_iri() else { continue };
            if vocab::is_builtin(iri) {
                v.set.insert(id);
                match iri {
                    vocab::RDF_TYPE => v.rdf_type = Some(id),
                    vocab::OWL_SAME_AS => v.same_as = Some(id),
                    _ => {}
                }
                if matches!(
                    iri,
                    vocab::OWL_CLASS
                        | vocab::RDFS_CLASS
                        | vocab::OWL_OBJECT_PROPERTY
                        | vocab::OWL_DATATYPE_PROPERTY
                        | vocab::OWL_TRANSITIVE
                        | vocab::OWL_SYMMETRIC
                        | vocab::OWL_FUNCTIONAL
                        | vocab::OWL_INVERSE_FUNCTIONAL
                        | vocab::OWL_ONTOLOGY
                        | vocab::OWL_RESTRICTION
                        | vocab::RDF_PROPERTY
                ) {
                    v.meta_classes.insert(id);
                }
            }
        }
        v
    }

    /// Is `id` any builtin RDF/RDFS/OWL/XSD term?
    pub fn is_builtin(&self, id: NodeId) -> bool {
        self.set.contains(&id)
    }

    /// Is `id` a meta-class (`owl:Class`, `owl:TransitiveProperty`, ...)?
    pub fn is_meta_class(&self, id: NodeId) -> bool {
        self.meta_classes.contains(&id)
    }
}

/// The extracted schema of an OWL-Horst ontology.
#[derive(Debug, Clone, Default)]
pub struct TBox {
    /// `sub ⊑ sup` pairs, reflexive-transitively closed over
    /// `rdfs:subClassOf` and `owl:equivalentClass` (minus the identity
    /// pairs).
    pub sub_class_of: Vec<(NodeId, NodeId)>,
    /// `sub ⊑ sup` property pairs, closed like [`TBox::sub_class_of`].
    pub sub_property_of: Vec<(NodeId, NodeId)>,
    /// `rdfs:domain` assertions `(property, class)`.
    pub domain: Vec<(NodeId, NodeId)>,
    /// `rdfs:range` assertions `(property, class)`.
    pub range: Vec<(NodeId, NodeId)>,
    /// Properties declared `owl:TransitiveProperty`.
    pub transitive: Vec<NodeId>,
    /// Properties declared `owl:SymmetricProperty`.
    pub symmetric: Vec<NodeId>,
    /// Properties declared `owl:FunctionalProperty`.
    pub functional: Vec<NodeId>,
    /// Properties declared `owl:InverseFunctionalProperty`.
    pub inverse_functional: Vec<NodeId>,
    /// `owl:inverseOf` pairs (one direction; compiler emits both rules).
    pub inverse_of: Vec<(NodeId, NodeId)>,
    /// `owl:hasValue` restrictions: `(restriction_class, property, value)`.
    pub has_value: Vec<(NodeId, NodeId, NodeId)>,
    /// `owl:someValuesFrom` restrictions:
    /// `(restriction_class, property, filler_class)`.
    pub some_values_from: Vec<(NodeId, NodeId, NodeId)>,
    /// All class ids mentioned by the schema.
    pub classes: FxHashSet<NodeId>,
    /// All property ids mentioned by the schema.
    pub properties: FxHashSet<NodeId>,
    /// Builtin-vocabulary ids for classification.
    pub vocab: VocabIds,
}

impl TBox {
    /// Extract the TBox from a graph containing schema + instance triples.
    pub fn extract(graph: &Graph) -> TBox {
        let v = VocabIds::collect(graph);
        let id_of = |iri: &str| graph.dict.id(&owlpar_rdf::Term::iri(iri));

        let sub_class = id_of(vocab::RDFS_SUBCLASSOF);
        let sub_prop = id_of(vocab::RDFS_SUBPROPERTYOF);
        let domain_p = id_of(vocab::RDFS_DOMAIN);
        let range_p = id_of(vocab::RDFS_RANGE);
        let inverse_p = id_of(vocab::OWL_INVERSE_OF);
        let eq_class = id_of(vocab::OWL_EQUIVALENT_CLASS);
        let eq_prop = id_of(vocab::OWL_EQUIVALENT_PROPERTY);
        let on_prop = id_of(vocab::OWL_ON_PROPERTY);
        let some_values = id_of(vocab::OWL_SOME_VALUES_FROM);
        let has_value = id_of(vocab::OWL_HAS_VALUE);
        let trans_c = id_of(vocab::OWL_TRANSITIVE);
        let sym_c = id_of(vocab::OWL_SYMMETRIC);
        let fun_c = id_of(vocab::OWL_FUNCTIONAL);
        let ifun_c = id_of(vocab::OWL_INVERSE_FUNCTIONAL);

        // Each schema predicate's rows off the POS index, in the SPO order
        // a scan of the whole store would meet them.
        let rows = |p: Option<NodeId>, o: Option<NodeId>| {
            let mut rows: Vec<(NodeId, NodeId)> = Vec::new();
            if let Some(p) = p {
                graph
                    .store
                    .for_each_match(TriplePattern::new(None, Some(p), o), |t| {
                        rows.push((t.s, t.o));
                    });
            }
            rows.sort_unstable();
            rows
        };
        let rdf_type = v.rdf_type;
        let members = |class: Option<NodeId>| -> Vec<NodeId> {
            // no class, no rows: not every `rdf:type` row
            let p = class.and(rdf_type);
            rows(p, class).into_iter().map(|(s, _)| s).collect()
        };
        let both_ways = |p| rows(p, None).into_iter().flat_map(|(a, b)| [(a, b), (b, a)]);
        let sub_class_edges: Vec<(NodeId, NodeId)> =
            rows(sub_class, None).into_iter().chain(both_ways(eq_class)).collect();
        let sub_prop_edges: Vec<(NodeId, NodeId)> =
            rows(sub_prop, None).into_iter().chain(both_ways(eq_prop)).collect();
        let tbox = TBox {
            domain: rows(domain_p, None),
            range: rows(range_p, None),
            inverse_of: rows(inverse_p, None),
            transitive: members(trans_c),
            symmetric: members(sym_c),
            functional: members(fun_c),
            inverse_functional: members(ifun_c),
            vocab: v,
            ..TBox::default()
        };
        // Restrictions are assembled from their three constituent triples.
        let restrictions = [on_prop, some_values, has_value]
            .map(|p| rows(p, None).into_iter().collect::<FxHashMap<_, _>>());
        tbox.finish(&sub_class_edges, &sub_prop_edges, restrictions)
    }

    /// Close the class and property hierarchies over their edges, assemble
    /// the restrictions from their `onProperty`, `someValuesFrom` and
    /// `hasValue` maps (restriction → object), and collect the classes and
    /// properties every part mentions.
    fn finish(
        mut self,
        sub_class_edges: &[(NodeId, NodeId)],
        sub_prop_edges: &[(NodeId, NodeId)],
        [restr_on_prop, restr_some, restr_value]: [FxHashMap<NodeId, NodeId>; 3],
    ) -> TBox {
        for (r, prop) in &restr_on_prop {
            if let Some(&filler) = restr_some.get(r) {
                self.some_values_from.push((*r, *prop, filler));
            }
            if let Some(&value) = restr_value.get(r) {
                self.has_value.push((*r, *prop, value));
            }
        }
        self.some_values_from.sort_unstable();
        self.has_value.sort_unstable();

        self.sub_class_of = transitive_closure(sub_class_edges);
        self.sub_property_of = transitive_closure(sub_prop_edges);

        for &(a, b) in &self.sub_class_of {
            self.classes.insert(a);
            self.classes.insert(b);
        }
        for &(_, c) in self.domain.iter().chain(&self.range) {
            self.classes.insert(c);
        }
        for &(r, _, f) in &self.some_values_from {
            self.classes.insert(r);
            self.classes.insert(f);
        }
        for &(r, _, _) in &self.has_value {
            self.classes.insert(r);
        }
        for &(a, b) in &self.sub_property_of {
            self.properties.insert(a);
            self.properties.insert(b);
        }
        for &(p, _) in self.domain.iter().chain(&self.range) {
            self.properties.insert(p);
        }
        for &p in self
            .transitive
            .iter()
            .chain(&self.symmetric)
            .chain(&self.functional)
            .chain(&self.inverse_functional)
        {
            self.properties.insert(p);
        }
        for &(a, b) in &self.inverse_of {
            self.properties.insert(a);
            self.properties.insert(b);
        }
        for &(_, p, _) in self.some_values_from.iter().chain(&self.has_value) {
            self.properties.insert(p);
        }
        self
    }

    /// Classify one triple. A triple is **schema** when its predicate is a
    /// builtin schema predicate (anything in the RDF/RDFS/OWL namespaces
    /// except `rdf:type` and `owl:sameAs`), or when it types a resource
    /// with a builtin meta-class (`X rdf:type owl:Class`, ...).
    /// `rdf:type` to a user class and `owl:sameAs` between individuals are
    /// instance data.
    pub fn classify(&self, t: &Triple) -> TripleKind {
        if Some(t.p) == self.vocab.rdf_type {
            if self.vocab.is_meta_class(t.o) || self.vocab.is_builtin(t.o) {
                TripleKind::Schema
            } else {
                TripleKind::Instance
            }
        } else if Some(t.p) == self.vocab.same_as {
            TripleKind::Instance
        } else if self.vocab.is_builtin(t.p) {
            TripleKind::Schema
        } else {
            TripleKind::Instance
        }
    }

    /// Split a triple list into (schema, instance) per [`TBox::classify`].
    pub fn split(&self, triples: impl IntoIterator<Item = Triple>) -> (Vec<Triple>, Vec<Triple>) {
        let mut schema = Vec::new();
        let mut instance = Vec::new();
        for t in triples {
            match self.classify(&t) {
                TripleKind::Schema => schema.push(t),
                TripleKind::Instance => instance.push(t),
            }
        }
        (schema, instance)
    }
}

/// Transitive closure of a directed edge list (identity pairs excluded),
/// returned sorted and deduplicated. Schema graphs are tiny, so a simple
/// worklist is fine.
fn transitive_closure(edges: &[(NodeId, NodeId)]) -> Vec<(NodeId, NodeId)> {
    let mut succ: FxHashMap<NodeId, FxHashSet<NodeId>> = FxHashMap::default();
    for &(a, b) in edges {
        if a != b {
            succ.entry(a).or_default().insert(b);
        }
    }
    let keys: Vec<NodeId> = succ.keys().copied().collect();
    for &start in &keys {
        // BFS from each source
        let mut seen: FxHashSet<NodeId> = FxHashSet::default();
        let mut stack: Vec<NodeId> = succ[&start].iter().copied().collect();
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = succ.get(&n) {
                stack.extend(next.iter().copied());
            }
        }
        seen.remove(&start); // drop identity
        if let Some(entry) = succ.get_mut(&start) {
            entry.extend(seen);
            entry.remove(&start);
        }
    }
    let mut out: Vec<(NodeId, NodeId)> = succ
        .into_iter()
        .flat_map(|(a, bs)| bs.into_iter().map(move |b| (a, b)))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::compile::{compile_ontology, CompileOptions};
    use owlpar_rdf::vocab::*;
    use owlpar_rdf::Term;
    use proptest::prelude::*;

    fn uc(n: &str) -> String {
        format!("http://ex.org/ont#{n}")
    }

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        // class hierarchy: GradStudent < Student < Person; Person ≡ Human
        g.insert_iris(uc("GradStudent"), RDFS_SUBCLASSOF, uc("Student"));
        g.insert_iris(uc("Student"), RDFS_SUBCLASSOF, uc("Person"));
        g.insert_iris(uc("Person"), OWL_EQUIVALENT_CLASS, uc("Human"));
        // property hierarchy + characteristics
        g.insert_iris(uc("headOf"), RDFS_SUBPROPERTYOF, uc("worksFor"));
        g.insert_iris(uc("partOf"), RDF_TYPE, OWL_TRANSITIVE);
        g.insert_iris(uc("near"), RDF_TYPE, OWL_SYMMETRIC);
        g.insert_iris(uc("hasId"), RDF_TYPE, OWL_FUNCTIONAL);
        g.insert_iris(uc("email"), RDF_TYPE, OWL_INVERSE_FUNCTIONAL);
        g.insert_iris(uc("advises"), OWL_INVERSE_OF, uc("advisedBy"));
        g.insert_iris(uc("teaches"), RDFS_DOMAIN, uc("Professor"));
        g.insert_iris(uc("teaches"), RDFS_RANGE, uc("Course"));
        // a restriction: things with hasId "42" are TheAnswer
        g.insert_iris(uc("TheAnswer"), RDF_TYPE, OWL_RESTRICTION);
        g.insert_iris(uc("TheAnswer"), OWL_ON_PROPERTY, uc("hasId"));
        g.insert_terms(
            Term::iri(uc("TheAnswer")),
            Term::iri(OWL_HAS_VALUE),
            Term::literal("42"),
        );
        // instance data
        g.insert_iris("http://ex.org/u0/alice", RDF_TYPE, uc("GradStudent"));
        g.insert_iris("http://ex.org/u0/alice", uc("advisedBy"), "http://ex.org/u0/bob");
        g.insert_iris("http://ex.org/u0/alice", OWL_SAME_AS, "http://ex.org/u0/al");
        g
    }

    fn id(g: &Graph, iri: &str) -> NodeId {
        g.dict.id(&Term::iri(iri)).unwrap()
    }

    #[test]
    fn subclass_closure_includes_transitive_and_equivalent() {
        let g = sample_graph();
        let tb = TBox::extract(&g);
        let grad = id(&g, &uc("GradStudent"));
        let person = id(&g, &uc("Person"));
        let human = id(&g, &uc("Human"));
        assert!(tb.sub_class_of.contains(&(grad, person)));
        assert!(tb.sub_class_of.contains(&(grad, human)), "via equivalence");
        assert!(tb.sub_class_of.contains(&(person, human)));
        assert!(tb.sub_class_of.contains(&(human, person)), "equiv is bidirectional");
        assert!(!tb.sub_class_of.contains(&(person, person)), "no identity pairs");
    }

    #[test]
    fn property_characteristics_extracted() {
        let g = sample_graph();
        let tb = TBox::extract(&g);
        assert_eq!(tb.transitive, vec![id(&g, &uc("partOf"))]);
        assert_eq!(tb.symmetric, vec![id(&g, &uc("near"))]);
        assert_eq!(tb.functional, vec![id(&g, &uc("hasId"))]);
        assert_eq!(tb.inverse_functional, vec![id(&g, &uc("email"))]);
        assert_eq!(
            tb.inverse_of,
            vec![(id(&g, &uc("advises")), id(&g, &uc("advisedBy")))]
        );
    }

    #[test]
    fn domain_range_extracted() {
        let g = sample_graph();
        let tb = TBox::extract(&g);
        assert_eq!(
            tb.domain,
            vec![(id(&g, &uc("teaches")), id(&g, &uc("Professor")))]
        );
        assert_eq!(
            tb.range,
            vec![(id(&g, &uc("teaches")), id(&g, &uc("Course")))]
        );
    }

    #[test]
    fn has_value_restriction_assembled() {
        let g = sample_graph();
        let tb = TBox::extract(&g);
        assert_eq!(tb.has_value.len(), 1);
        let (r, p, v) = tb.has_value[0];
        assert_eq!(r, id(&g, &uc("TheAnswer")));
        assert_eq!(p, id(&g, &uc("hasId")));
        assert_eq!(v, g.dict.id(&Term::literal("42")).unwrap());
    }

    #[test]
    fn classification_schema_vs_instance() {
        let g = sample_graph();
        let tb = TBox::extract(&g);
        let rdf_type = id(&g, RDF_TYPE);
        let subclass = id(&g, RDFS_SUBCLASSOF);
        let same_as = id(&g, OWL_SAME_AS);
        let grad = id(&g, &uc("GradStudent"));
        let student = id(&g, &uc("Student"));
        let owl_trans = id(&g, OWL_TRANSITIVE);
        let part_of = id(&g, &uc("partOf"));
        let alice = id(&g, "http://ex.org/u0/alice");
        let al = id(&g, "http://ex.org/u0/al");

        // (GradStudent subClassOf Student): schema
        assert_eq!(
            tb.classify(&Triple::new(grad, subclass, student)),
            TripleKind::Schema
        );
        // (partOf type owl:TransitiveProperty): schema
        assert_eq!(
            tb.classify(&Triple::new(part_of, rdf_type, owl_trans)),
            TripleKind::Schema
        );
        // (alice type GradStudent): instance
        assert_eq!(
            tb.classify(&Triple::new(alice, rdf_type, grad)),
            TripleKind::Instance
        );
        // (alice sameAs al): instance
        assert_eq!(
            tb.classify(&Triple::new(alice, same_as, al)),
            TripleKind::Instance
        );
    }

    #[test]
    fn split_partitions_the_graph() {
        let g = sample_graph();
        let tb = TBox::extract(&g);
        let (schema, instance) = tb.split(g.store.iter());
        assert_eq!(schema.len() + instance.len(), g.len());
        assert_eq!(instance.len(), 3, "alice's three instance triples");
    }

    #[test]
    fn classes_and_properties_collected() {
        let g = sample_graph();
        let tb = TBox::extract(&g);
        assert!(tb.classes.contains(&id(&g, &uc("Person"))));
        assert!(tb.classes.contains(&id(&g, &uc("Course"))));
        assert!(tb.properties.contains(&id(&g, &uc("teaches"))));
        assert!(tb.properties.contains(&id(&g, &uc("partOf"))));
    }

    #[test]
    fn empty_graph_gives_empty_tbox() {
        let g = Graph::new();
        let tb = TBox::extract(&g);
        assert!(tb.sub_class_of.is_empty());
        assert!(tb.transitive.is_empty());
        assert!(tb.classes.is_empty());
    }

    #[test]
    fn subclass_cycle_closes_without_identity() {
        let mut g = Graph::new();
        g.insert_iris(uc("A"), RDFS_SUBCLASSOF, uc("B"));
        g.insert_iris(uc("B"), RDFS_SUBCLASSOF, uc("C"));
        g.insert_iris(uc("C"), RDFS_SUBCLASSOF, uc("A"));
        let tb = TBox::extract(&g);
        let a = id(&g, &uc("A"));
        let c = id(&g, &uc("C"));
        assert!(tb.sub_class_of.contains(&(a, c)));
        assert!(tb.sub_class_of.contains(&(c, a)));
        assert!(!tb.sub_class_of.contains(&(a, a)));
        assert_eq!(tb.sub_class_of.len(), 6);
    }

    /// The reference for reading the schema rows: every triple of the
    /// store scanned once, in store order, each pushed where its
    /// predicate says.
    fn extract_by_scan(graph: &Graph) -> TBox {
        let id_of = |iri: &str| graph.dict.id(&Term::iri(iri));
        let mut tbox = TBox {
            vocab: VocabIds::collect(graph),
            ..TBox::default()
        };
        let (mut sub_class_edges, mut sub_prop_edges) = (Vec::new(), Vec::new());
        let mut restrictions: [FxHashMap<NodeId, NodeId>; 3] = Default::default();
        for t in graph.store.iter() {
            let p = Some(t.p);
            if p == id_of(RDFS_SUBCLASSOF) {
                sub_class_edges.push((t.s, t.o));
            } else if p == id_of(OWL_EQUIVALENT_CLASS) {
                sub_class_edges.extend([(t.s, t.o), (t.o, t.s)]);
            } else if p == id_of(RDFS_SUBPROPERTYOF) {
                sub_prop_edges.push((t.s, t.o));
            } else if p == id_of(OWL_EQUIVALENT_PROPERTY) {
                sub_prop_edges.extend([(t.s, t.o), (t.o, t.s)]);
            } else if p == id_of(RDFS_DOMAIN) {
                tbox.domain.push((t.s, t.o));
            } else if p == id_of(RDFS_RANGE) {
                tbox.range.push((t.s, t.o));
            } else if p == id_of(OWL_INVERSE_OF) {
                tbox.inverse_of.push((t.s, t.o));
            } else if p == id_of(OWL_ON_PROPERTY) {
                restrictions[0].insert(t.s, t.o);
            } else if p == id_of(OWL_SOME_VALUES_FROM) {
                restrictions[1].insert(t.s, t.o);
            } else if p == id_of(OWL_HAS_VALUE) {
                restrictions[2].insert(t.s, t.o);
            } else if p == tbox.vocab.rdf_type {
                let o = Some(t.o);
                if o == id_of(OWL_TRANSITIVE) {
                    tbox.transitive.push(t.s);
                } else if o == id_of(OWL_SYMMETRIC) {
                    tbox.symmetric.push(t.s);
                } else if o == id_of(OWL_FUNCTIONAL) {
                    tbox.functional.push(t.s);
                } else if o == id_of(OWL_INVERSE_FUNCTIONAL) {
                    tbox.inverse_functional.push(t.s);
                }
            }
        }
        tbox.finish(&sub_class_edges, &sub_prop_edges, restrictions)
    }

    /// A graph of schema and instance triples over four names of each
    /// kind; `(kind, a, b)` picks one triple, and the order of `rows`
    /// decides which names get the lower ids.
    fn schema_graph(rows: &[(u8, u8, u8)]) -> Graph {
        const TYPES: [&str; 5] = [
            OWL_TRANSITIVE,
            OWL_SYMMETRIC,
            OWL_FUNCTIONAL,
            OWL_INVERSE_FUNCTIONAL,
            OWL_OBJECT_PROPERTY,
        ];
        let name = |kind: &str, i: u8| uc(&format!("{kind}{}", i % 4));
        let mut g = Graph::new();
        for &(kind, a, b) in rows {
            let (s, p, o) = match kind {
                0 => (name("C", a), RDFS_SUBCLASSOF.into(), name("C", b)),
                1 => (name("C", a), OWL_EQUIVALENT_CLASS.into(), name("C", b)),
                2 => (name("P", a), RDFS_SUBPROPERTYOF.into(), name("P", b)),
                3 => (name("P", a), OWL_EQUIVALENT_PROPERTY.into(), name("P", b)),
                4 => (name("P", a), RDFS_DOMAIN.into(), name("C", b)),
                5 => (name("P", a), RDFS_RANGE.into(), name("C", b)),
                6 => (name("P", a), OWL_INVERSE_OF.into(), name("P", b)),
                7 => (name("P", a), RDF_TYPE.into(), TYPES[b as usize % 5].into()),
                8 => (name("R", a), OWL_ON_PROPERTY.into(), name("P", b)),
                9 => (name("R", a), OWL_SOME_VALUES_FROM.into(), name("C", b)),
                10 => (name("R", a), OWL_HAS_VALUE.into(), name("I", b)),
                11 => (name("I", a), RDF_TYPE.into(), name("C", b)),
                _ => (name("I", a), name("P", b), name("I", a / 4)),
            };
            g.insert_iris(s, p, o);
        }
        g
    }

    fn assert_same_tbox(got: &TBox, want: &TBox) {
        assert_eq!(got.sub_class_of, want.sub_class_of);
        assert_eq!(got.sub_property_of, want.sub_property_of);
        assert_eq!(got.domain, want.domain);
        assert_eq!(got.range, want.range);
        assert_eq!(got.transitive, want.transitive);
        assert_eq!(got.symmetric, want.symmetric);
        assert_eq!(got.functional, want.functional);
        assert_eq!(got.inverse_functional, want.inverse_functional);
        assert_eq!(got.inverse_of, want.inverse_of);
        assert_eq!(got.has_value, want.has_value);
        assert_eq!(got.some_values_from, want.some_values_from);
        assert_eq!(got.classes, want.classes);
        assert_eq!(got.properties, want.properties);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Reading the schema predicates' rows finds the TBox a scan of
        /// the whole compacted store finds, in the same order, so the
        /// compiled rules come out in the same order too; and it finds
        /// the same TBox before the store is compacted.
        #[test]
        fn schema_rows_read_the_tbox_the_whole_scan_reads(
            rows in prop::collection::vec((0u8..13, 0u8..8, 0u8..8), 0..40),
        ) {
            let mut g = schema_graph(&rows);
            let loose = g.clone();
            g.store.compact();
            let (got, want) = (TBox::extract(&g), extract_by_scan(&g));
            assert_same_tbox(&got, &want);
            assert_same_tbox(&TBox::extract(&loose), &got);
            let compile = |tbox: &TBox| {
                compile_ontology(tbox, &mut g.dict.clone(), CompileOptions::default())
            };
            prop_assert_eq!(compile(&got), compile(&want));
        }
    }
}
