//! Property test: on random ontologies + random instance data, the
//! compiled (specialized) rule-base derives exactly the same
//! instance-level closure as the generic pD* rule set evaluated with the
//! schema present. This is the correctness contract of the ontology→rule
//! compiler.

use owlpar_datalog::forward::forward_closure;
use owlpar_horst::rules::pd_star_rules;
use owlpar_horst::{compile_ontology, CompileOptions, TBox};
use owlpar_rdf::vocab::*;
use owlpar_rdf::Graph;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Axiom {
    SubClass(u8, u8),
    EquivClass(u8, u8),
    SubProp(u8, u8),
    Domain(u8, u8),
    Range(u8, u8),
    Transitive(u8),
    Symmetric(u8),
    InverseOf(u8, u8),
    InverseFunctional(u8),
}

fn axiom_strategy() -> impl Strategy<Value = Axiom> {
    prop_oneof![
        (0u8..6, 0u8..6).prop_map(|(a, b)| Axiom::SubClass(a, b)),
        (0u8..6, 0u8..6).prop_map(|(a, b)| Axiom::EquivClass(a, b)),
        (0u8..5, 0u8..5).prop_map(|(a, b)| Axiom::SubProp(a, b)),
        (0u8..5, 0u8..6).prop_map(|(p, c)| Axiom::Domain(p, c)),
        (0u8..5, 0u8..6).prop_map(|(p, c)| Axiom::Range(p, c)),
        (0u8..5).prop_map(Axiom::Transitive),
        (0u8..5).prop_map(Axiom::Symmetric),
        (0u8..5, 0u8..5).prop_map(|(a, b)| Axiom::InverseOf(a, b)),
        (0u8..5).prop_map(Axiom::InverseFunctional),
    ]
}

fn class(i: u8) -> String {
    format!("http://ont.example.org/ont#C{i}")
}

fn prop_iri(i: u8) -> String {
    format!("http://ont.example.org/ont#p{i}")
}

fn inst(i: u8) -> String {
    format!("http://data.example.org/i{i}")
}

fn build_graph(axioms: &[Axiom], facts: &[(u8, u8, u8, bool)]) -> Graph {
    let mut g = Graph::new();
    for a in axioms {
        match *a {
            Axiom::SubClass(x, y) => {
                g.insert_iris(class(x), RDFS_SUBCLASSOF, class(y));
            }
            Axiom::EquivClass(x, y) => {
                g.insert_iris(class(x), OWL_EQUIVALENT_CLASS, class(y));
            }
            Axiom::SubProp(x, y) => {
                g.insert_iris(prop_iri(x), RDFS_SUBPROPERTYOF, prop_iri(y));
            }
            Axiom::Domain(p, c) => {
                g.insert_iris(prop_iri(p), RDFS_DOMAIN, class(c));
            }
            Axiom::Range(p, c) => {
                g.insert_iris(prop_iri(p), RDFS_RANGE, class(c));
            }
            Axiom::Transitive(p) => {
                g.insert_iris(prop_iri(p), RDF_TYPE, OWL_TRANSITIVE);
            }
            Axiom::Symmetric(p) => {
                g.insert_iris(prop_iri(p), RDF_TYPE, OWL_SYMMETRIC);
            }
            Axiom::InverseOf(p, q) => {
                g.insert_iris(prop_iri(p), OWL_INVERSE_OF, prop_iri(q));
            }
            Axiom::InverseFunctional(p) => {
                g.insert_iris(prop_iri(p), RDF_TYPE, OWL_INVERSE_FUNCTIONAL);
            }
        }
    }
    for &(s, p, o, is_type) in facts {
        if is_type {
            g.insert_iris(inst(s), RDF_TYPE, class(o % 6));
        } else {
            g.insert_iris(inst(s), prop_iri(p % 5), inst(o));
        }
    }
    g
}

/// Dictionary-independent schema/instance split: a triple is schema iff
/// its predicate is a builtin other than `rdf:type`/`owl:sameAs`, or it
/// types something with a builtin class.
fn is_instance(s: &owlpar_rdf::Term, p: &owlpar_rdf::Term, o: &owlpar_rdf::Term) -> bool {
    let _ = s;
    let Some(p_iri) = p.as_iri() else { return true };
    if p_iri == RDF_TYPE {
        return !o.as_iri().is_some_and(is_builtin);
    }
    if p_iri == OWL_SAME_AS {
        return true;
    }
    !is_builtin(p_iri)
}

type TermTriple = (owlpar_rdf::Term, owlpar_rdf::Term, owlpar_rdf::Term);

fn instance_closure(mut g: Graph, compiled: bool, tbox: &TBox) -> Vec<TermTriple> {
    let rules = if compiled {
        compile_ontology(tbox, &mut g.dict, CompileOptions::default())
    } else {
        pd_star_rules(&mut g.dict)
    };
    forward_closure(&mut g.store, &rules);
    let mut out: Vec<TermTriple> = g
        .store
        .iter()
        .map(|t| g.decode(t))
        .filter(|(s, p, o)| is_instance(s, p, o))
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compiled_rules_equal_generic_pd_star(
        axioms in prop::collection::vec(axiom_strategy(), 0..12),
        facts in prop::collection::vec((0u8..10, 0u8..5, 0u8..10, any::<bool>()), 1..25),
    ) {
        let g = build_graph(&axioms, &facts);
        // The generic rule set may extend the schema closure (rdfs5/11);
        // extract the TBox from the *schema-closed* graph so the compiled
        // side sees the same axioms the generic side can exploit.
        let mut schema_closed = g.clone();
        {
            let generic = pd_star_rules(&mut schema_closed.dict);
            forward_closure(&mut schema_closed.store, &generic);
        }
        let tbox = TBox::extract(&schema_closed);

        let generic = instance_closure(g.clone(), false, &tbox);
        let compiled = instance_closure(g, true, &tbox);
        prop_assert_eq!(generic, compiled);
    }

    #[test]
    fn compiled_rules_are_always_single_join(
        axioms in prop::collection::vec(axiom_strategy(), 0..16),
    ) {
        let mut g = build_graph(&axioms, &[]);
        let tbox = TBox::extract(&g);
        let rules = compile_ontology(&tbox, &mut g.dict, CompileOptions::default());
        let offenders = owlpar_horst::compile::verify_single_join(&rules);
        prop_assert!(offenders.is_empty(), "non-single-join: {offenders:?}");
    }
}
