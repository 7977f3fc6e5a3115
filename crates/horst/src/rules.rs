//! The *generic* OWL-Horst (pD\*) rule set, with schema atoms in rule
//! bodies.
//!
//! This is the textbook formulation (ter Horst 2005): rules like `rdfs9`
//! quantify over the schema (`(?c rdfs:subClassOf ?d) (?x rdf:type ?c) →
//! (?x rdf:type ?d)`). Production engines evaluate the *compiled* form
//! from [`crate::compile`] instead; we keep the generic set as an
//! independent oracle — tests check that
//! `generic rules + schema triples` and `compiled rules + instance
//! triples` produce the same instance-level closure.

use owlpar_datalog::parser::parse_rules;
use owlpar_datalog::Rule;
use owlpar_rdf::Dictionary;

/// Textual source of the generic pD\* rule set (subset exercised by the
/// benchmarks; `rdf:type`-propagating RDFS core plus the OWL property
/// rules).
pub const PD_STAR_RULES: &str = r#"
# --- RDFS core -------------------------------------------------------
# rdfs2: domain
[rdfs2: (?p rdfs:domain ?c) (?x ?p ?y) -> (?x rdf:type ?c)]
# rdfs3: range
[rdfs3: (?p rdfs:range ?c) (?x ?p ?y) -> (?y rdf:type ?c)]
# rdfs5: subPropertyOf transitivity
[rdfs5: (?p rdfs:subPropertyOf ?q) (?q rdfs:subPropertyOf ?r) -> (?p rdfs:subPropertyOf ?r)]
# rdfs7: subPropertyOf inheritance
[rdfs7: (?p rdfs:subPropertyOf ?q) (?x ?p ?y) -> (?x ?q ?y)]
# rdfs9: subClassOf inheritance
[rdfs9: (?c rdfs:subClassOf ?d) (?x rdf:type ?c) -> (?x rdf:type ?d)]
# rdfs11: subClassOf transitivity
[rdfs11: (?c rdfs:subClassOf ?d) (?d rdfs:subClassOf ?e) -> (?c rdfs:subClassOf ?e)]

# --- pD* property semantics -----------------------------------------
# rdfp1: functional property
[rdfp1: (?p rdf:type owl:FunctionalProperty) (?x ?p ?y) (?x ?p ?z) -> (?y owl:sameAs ?z)]
# rdfp2: inverse functional property
[rdfp2: (?p rdf:type owl:InverseFunctionalProperty) (?y ?p ?x) (?z ?p ?x) -> (?y owl:sameAs ?z)]
# rdfp3: symmetric property
[rdfp3: (?p rdf:type owl:SymmetricProperty) (?x ?p ?y) -> (?y ?p ?x)]
# rdfp4: transitive property
[rdfp4: (?p rdf:type owl:TransitiveProperty) (?x ?p ?y) (?y ?p ?z) -> (?x ?p ?z)]
# rdfp6: sameAs symmetry
[rdfp6: (?x owl:sameAs ?y) -> (?y owl:sameAs ?x)]
# rdfp7: sameAs transitivity
[rdfp7: (?x owl:sameAs ?y) (?y owl:sameAs ?z) -> (?x owl:sameAs ?z)]
# rdfp8a/b: inverseOf
[rdfp8a: (?p owl:inverseOf ?q) (?x ?p ?y) -> (?y ?q ?x)]
[rdfp8b: (?p owl:inverseOf ?q) (?x ?q ?y) -> (?y ?p ?x)]

# --- equivalence ------------------------------------------------------
# rdfp12a/b/c: equivalentClass
[rdfp12a: (?c owl:equivalentClass ?d) -> (?c rdfs:subClassOf ?d)]
[rdfp12b: (?c owl:equivalentClass ?d) -> (?d rdfs:subClassOf ?c)]
# rdfp13a/b: equivalentProperty
[rdfp13a: (?p owl:equivalentProperty ?q) -> (?p rdfs:subPropertyOf ?q)]
[rdfp13b: (?p owl:equivalentProperty ?q) -> (?q rdfs:subPropertyOf ?p)]

# --- restrictions -----------------------------------------------------
# rdfp14a: hasValue membership from value
[rdfp14a: (?r owl:hasValue ?v) (?r owl:onProperty ?p) (?x ?p ?v) -> (?x rdf:type ?r)]
# rdfp14b: value from hasValue membership
[rdfp14b: (?r owl:hasValue ?v) (?r owl:onProperty ?p) (?x rdf:type ?r) -> (?x ?p ?v)]
# rdfp15: someValuesFrom membership
[rdfp15: (?r owl:someValuesFrom ?c) (?r owl:onProperty ?p) (?x ?p ?y) (?y rdf:type ?c) -> (?x rdf:type ?r)]
"#;

/// Parse [`PD_STAR_RULES`] against `dict`.
// The rule text is a compile-time constant; the unit tests below parse it,
// so the expect can only fire if the constant itself is edited and broken.
#[allow(clippy::expect_used)]
pub fn pd_star_rules(dict: &mut Dictionary) -> Vec<Rule> {
    parse_rules(PD_STAR_RULES, dict).expect("builtin pD* rule set parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_ontology, CompileOptions};
    use crate::tbox::{TBox, TripleKind};
    use owlpar_datalog::analysis::{classify, JoinClass};
    use owlpar_datalog::forward::forward_closure;
    use owlpar_rdf::vocab::*;
    use owlpar_rdf::{Graph, Triple};

    #[test]
    fn rule_set_parses() {
        let mut d = Dictionary::new();
        let rules = pd_star_rules(&mut d);
        assert_eq!(rules.len(), 21);
    }

    #[test]
    fn generic_rules_are_mostly_single_join_after_schema_binding() {
        // The generic formulation has 3-atom rules (rdfp1/2, rdfp14, rdfp15)
        // whose first atom is a schema atom; after compilation those become
        // 1- or 2-atom rules. Here we just record the generic shape.
        let mut d = Dictionary::new();
        let rules = pd_star_rules(&mut d);
        let multi: Vec<&str> = rules
            .iter()
            .filter(|r| matches!(classify(r), JoinClass::MultiJoin))
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(
            multi,
            vec!["rdfp1", "rdfp2", "rdfp4", "rdfp14a", "rdfp14b", "rdfp15"]
        );
    }

    fn uc(n: &str) -> String {
        format!("http://ex.org/ont#{n}")
    }

    fn ud(n: &str) -> String {
        format!("http://ex.org/data/{n}")
    }

    /// Build a graph exercising most axiom types.
    fn workload() -> Graph {
        let mut g = Graph::new();
        g.insert_iris(uc("GradStudent"), RDFS_SUBCLASSOF, uc("Student"));
        g.insert_iris(uc("Student"), RDFS_SUBCLASSOF, uc("Person"));
        g.insert_iris(uc("Person"), OWL_EQUIVALENT_CLASS, uc("Human"));
        g.insert_iris(uc("headOf"), RDFS_SUBPROPERTYOF, uc("worksFor"));
        g.insert_iris(uc("partOf"), RDF_TYPE, OWL_TRANSITIVE);
        g.insert_iris(uc("near"), RDF_TYPE, OWL_SYMMETRIC);
        g.insert_iris(uc("advises"), OWL_INVERSE_OF, uc("advisedBy"));
        g.insert_iris(uc("teaches"), RDFS_DOMAIN, uc("Professor"));
        g.insert_iris(uc("teaches"), RDFS_RANGE, uc("Course"));
        g.insert_iris(uc("email"), RDF_TYPE, OWL_INVERSE_FUNCTIONAL);

        g.insert_iris(ud("alice"), RDF_TYPE, uc("GradStudent"));
        g.insert_iris(ud("bob"), uc("headOf"), ud("dept1"));
        g.insert_iris(ud("a"), uc("partOf"), ud("b"));
        g.insert_iris(ud("b"), uc("partOf"), ud("c"));
        g.insert_iris(ud("c"), uc("partOf"), ud("d"));
        g.insert_iris(ud("x"), uc("near"), ud("y"));
        g.insert_iris(ud("carol"), uc("advises"), ud("alice"));
        g.insert_iris(ud("prof"), uc("teaches"), ud("cs101"));
        g.insert_iris(ud("p1"), uc("email"), ud("e1"));
        g.insert_iris(ud("p2"), uc("email"), ud("e1"));
        g
    }

    #[test]
    fn compiled_closure_equals_generic_closure_on_instance_triples() {
        let g0 = workload();
        let tbox = TBox::extract(&g0);

        // Oracle: generic rules over schema + instance.
        let mut oracle = g0.clone();
        let generic = pd_star_rules(&mut oracle.dict);
        forward_closure(&mut oracle.store, &generic);

        // System under test: compiled rules over the same graph.
        let mut sut = g0.clone();
        let compiled = compile_ontology(&tbox, &mut sut.dict, CompileOptions::default());
        forward_closure(&mut sut.store, &compiled);

        // Compare the *instance-level* closures as term sets (dictionaries
        // may have diverged, so compare decoded terms via fingerprint of
        // instance triples only).
        let instance_fp = |g: &Graph| {
            let mut sub = Graph::new();
            for t in g.store.iter() {
                if tbox.classify(&to_local(g, &g0, t)) == TripleKind::Instance {
                    let (s, p, o) = g.decode(t);
                    sub.insert_terms(s, p, o);
                }
            }
            sub.term_fingerprint()
        };
        // classify() needs ids in g0's dictionary; remap by terms.
        fn to_local(g: &Graph, g0: &Graph, t: Triple) -> Triple {
            let (s, p, o) = g.decode(t);
            let gid = |term: &owlpar_rdf::Term| {
                g0.dict.id(term).unwrap_or(owlpar_rdf::NodeId(u32::MAX))
            };
            Triple::new(gid(&s), gid(&p), gid(&o))
        }

        assert_eq!(instance_fp(&oracle), instance_fp(&sut));
    }

    #[test]
    fn generic_rules_derive_schema_closure_too() {
        let mut g = workload();
        let rules = pd_star_rules(&mut g.dict);
        forward_closure(&mut g.store, &rules);
        // rdfs11 derived GradStudent subClassOf Person at the schema level
        assert!(g.contains_terms(
            &owlpar_rdf::Term::iri(uc("GradStudent")),
            &owlpar_rdf::Term::iri(RDFS_SUBCLASSOF),
            &owlpar_rdf::Term::iri(uc("Person"))
        ));
    }
}
