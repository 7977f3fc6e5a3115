//! [`HorstReasoner`]: the serial OWL-Horst materializer.
//!
//! Ties together TBox extraction, rule compilation and the datalog
//! engines. This is the component Algorithm 3 wraps: "it uses an existing
//! reasoner for creating additional tuples ... it can be built as a
//! wrapper over an existing reasoner."

use crate::compile::{compile_ontology, CompileOptions};
use crate::tbox::{TBox, TripleKind};
use owlpar_datalog::{MaterializationStrategy, Reasoner, Rule};
use owlpar_lint::{lint_rules, LintOptions, LintReport, PartitionContext};
use owlpar_rdf::fx::FxHashSet;
use owlpar_rdf::{Graph, NodeId, Triple, TripleStore};

/// What [`HorstReasoner::materialize_delta`] did with an insert batch.
///
/// The incremental path is only sound while the schema (and therefore the
/// compiled rule-base) is unchanged: rules are specialized to the TBox, so
/// a schema triple in the batch invalidates the compilation. The caller
/// must then recompile ([`HorstReasoner::from_graph`]) and re-close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOutcome {
    /// The batch was pure instance data; `derived` lists every new
    /// consequence (cascades included) that was inserted into the store.
    Incremental {
        /// Consequences derived from the batch, in derivation order.
        derived: Vec<Triple>,
    },
    /// The batch contains schema triples; nothing was inserted. The
    /// caller must recompile the ontology and re-materialize.
    SchemaChanged,
}

/// A compiled OWL-Horst reasoner for a specific ontology.
#[derive(Debug, Clone)]
pub struct HorstReasoner {
    /// The extracted schema.
    pub tbox: TBox,
    /// The schema triples (replicated to every partition by Algorithm 1).
    pub schema_triples: Vec<Triple>,
    /// The instance triples (the partitionable data).
    pub instance_triples: Vec<Triple>,
    /// The compiled single-join rule-base.
    pub reasoner: Reasoner,
    /// Static lint report over the compiled rule-base, checked against the
    /// data-partitioned deployment context (the strictest one). The master
    /// consults it before spawning workers; a deny finding means the
    /// rule-base is not safe to evaluate over partitioned data.
    pub lint: LintReport,
}

impl HorstReasoner {
    /// Extract the TBox of `graph`, compile it, and split the triples.
    /// `strategy` selects the closure engine.
    pub fn from_graph(graph: &mut Graph, strategy: MaterializationStrategy) -> Self {
        Self::with_options(graph, strategy, CompileOptions::default())
    }

    /// [`HorstReasoner::from_graph`] with explicit compiler options.
    pub fn with_options(
        graph: &mut Graph,
        strategy: MaterializationStrategy,
        opts: CompileOptions,
    ) -> Self {
        let tbox = TBox::extract(graph);
        let rules = compile_ontology(&tbox, &mut graph.dict, opts);
        let (schema_triples, instance_triples) = tbox.split(graph.store.iter());
        // Lint against the data the rule-base will meet: the predicate
        // histogram weights rule-partitioning edges, and the base
        // vocabulary enables dead-rule detection.
        let hist = graph.store.predicate_counts();
        let base: FxHashSet<NodeId> = hist.keys().copied().collect();
        let mut lint_opts = LintOptions::for_context(PartitionContext::DataPartitioned);
        lint_opts.predicate_counts = Some(hist);
        lint_opts.base_predicates = Some(base);
        let lint = lint_rules(&rules, &lint_opts);
        HorstReasoner {
            tbox,
            schema_triples,
            instance_triples,
            reasoner: Reasoner::new(rules, strategy),
            lint,
        }
    }

    /// The compiled rule-base.
    pub fn rules(&self) -> &[Rule] {
        &self.reasoner.rules
    }

    /// Materialize `graph` in place; returns the number of derived triples.
    pub fn materialize(&self, graph: &mut Graph) -> usize {
        self.reasoner.materialize(&mut graph.store)
    }

    /// Incrementally maintain a store that is already closed under this
    /// reasoner's rules: insert `batch` and derive only its consequences
    /// (semi-naive evaluation seeded with the batch — O(delta), not
    /// O(store)).
    ///
    /// Soundness: forward closure is monotonic and confluent, so seeding
    /// the semi-naive rounds with exactly the *new* triples over an
    /// already-closed store yields the same fixpoint as re-closing
    /// `store ∪ batch` from scratch — provided the rule-base itself still
    /// matches the schema. A batch containing schema triples therefore
    /// returns [`DeltaOutcome::SchemaChanged`] without touching the
    /// store; the caller recompiles and re-closes.
    pub fn materialize_delta(
        &self,
        store: &mut TripleStore,
        batch: &[Triple],
    ) -> DeltaOutcome {
        if batch
            .iter()
            .any(|t| self.tbox.classify(t) == TripleKind::Schema)
        {
            return DeltaOutcome::SchemaChanged;
        }
        let mut fresh = Vec::with_capacity(batch.len());
        for &t in batch {
            if store.insert(t) {
                fresh.push(t);
            }
        }
        let derived = self.reasoner.materialize_delta(store, fresh);
        DeltaOutcome::Incremental { derived }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use owlpar_datalog::backward::TableScope;
    use owlpar_rdf::vocab::*;
    use owlpar_rdf::Term;

    fn uc(n: &str) -> String {
        format!("http://ex.org/ont#{n}")
    }

    fn ud(n: &str) -> String {
        format!("http://ex.org/data/{n}")
    }

    fn workload() -> Graph {
        let mut g = Graph::new();
        g.insert_iris(uc("Student"), RDFS_SUBCLASSOF, uc("Person"));
        g.insert_iris(uc("partOf"), RDF_TYPE, OWL_TRANSITIVE);
        g.insert_iris(ud("alice"), RDF_TYPE, uc("Student"));
        g.insert_iris(ud("a"), uc("partOf"), ud("b"));
        g.insert_iris(ud("b"), uc("partOf"), ud("c"));
        g
    }

    #[test]
    fn from_graph_splits_and_compiles() {
        let mut g = workload();
        let hr = HorstReasoner::from_graph(&mut g, MaterializationStrategy::ForwardSemiNaive);
        assert_eq!(hr.schema_triples.len(), 2);
        assert_eq!(hr.instance_triples.len(), 3);
        assert_eq!(hr.rules().len(), 2); // one subclass + one transitive
    }

    #[test]
    fn materialize_forward() {
        let mut g = workload();
        let hr = HorstReasoner::from_graph(&mut g, MaterializationStrategy::ForwardSemiNaive);
        let n = hr.materialize(&mut g);
        assert_eq!(n, 2); // alice:Person and a partOf c
        assert!(g.contains_terms(
            &Term::iri(ud("alice")),
            &Term::iri(RDF_TYPE),
            &Term::iri(uc("Person"))
        ));
    }

    #[test]
    fn delta_matches_full_reclose() {
        let mut g = workload();
        let hr = HorstReasoner::from_graph(&mut g, MaterializationStrategy::ForwardSemiNaive);
        hr.materialize(&mut g);

        // bob shows up, and a new partOf edge extends the chain.
        let bob = g.intern(Term::iri(ud("bob")));
        let student = g.intern(Term::iri(uc("Student")));
        let rdf_type = g.intern(Term::iri(RDF_TYPE));
        let part_of = g.intern(Term::iri(uc("partOf")));
        let c = g.intern(Term::iri(ud("c")));
        let d = g.intern(Term::iri(ud("d")));
        let batch = vec![
            owlpar_rdf::Triple::new(bob, rdf_type, student),
            owlpar_rdf::Triple::new(c, part_of, d),
        ];

        let mut incremental = g.store.clone();
        let outcome = hr.materialize_delta(&mut incremental, &batch);
        let DeltaOutcome::Incremental { derived } = outcome else {
            panic!("pure instance batch must stay incremental");
        };
        // bob:Person plus a/b partOf d cascades.
        assert_eq!(derived.len(), 3);

        // Oracle: close base ∪ batch from scratch.
        let mut scratch = g.clone();
        for &t in &batch {
            scratch.store.insert(t);
        }
        let hr2 =
            HorstReasoner::from_graph(&mut scratch, MaterializationStrategy::ForwardSemiNaive);
        hr2.materialize(&mut scratch);
        assert_eq!(incremental.iter_sorted(), scratch.store.iter_sorted());
    }

    #[test]
    fn delta_with_schema_triple_reports_schema_changed() {
        let mut g = workload();
        let hr = HorstReasoner::from_graph(&mut g, MaterializationStrategy::ForwardSemiNaive);
        hr.materialize(&mut g);
        let person = g.intern(Term::iri(uc("Person")));
        let agent = g.intern(Term::iri(uc("Agent")));
        let subclass = g.intern(Term::iri(RDFS_SUBCLASSOF));
        let before = g.store.len();
        let outcome = hr.materialize_delta(
            &mut g.store,
            &[owlpar_rdf::Triple::new(person, subclass, agent)],
        );
        assert_eq!(outcome, DeltaOutcome::SchemaChanged);
        assert_eq!(g.store.len(), before, "store untouched on schema change");
    }

    #[test]
    fn delta_of_known_triples_is_empty() {
        let mut g = workload();
        let hr = HorstReasoner::from_graph(&mut g, MaterializationStrategy::ForwardSemiNaive);
        hr.materialize(&mut g);
        let existing: Vec<owlpar_rdf::Triple> = hr.instance_triples.clone();
        let outcome = hr.materialize_delta(&mut g.store, &existing);
        assert_eq!(
            outcome,
            DeltaOutcome::Incremental { derived: vec![] },
            "re-inserting closed triples derives nothing"
        );
    }

    #[test]
    fn forward_and_backward_agree() {
        let mut g1 = workload();
        let hr1 = HorstReasoner::from_graph(&mut g1, MaterializationStrategy::ForwardSemiNaive);
        hr1.materialize(&mut g1);

        let mut g2 = workload();
        let hr2 = HorstReasoner::from_graph(
            &mut g2,
            MaterializationStrategy::BackwardPerResource(TableScope::PerQuery),
        );
        hr2.materialize(&mut g2);

        assert_eq!(g1.term_fingerprint(), g2.term_fingerprint());
    }
}
