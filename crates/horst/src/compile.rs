//! The ontology → specialized-rule compiler.
//!
//! "In rule based reasoners, the OWL ontology definitions are first
//! compiled into a set of rules. This rule-set is then applied on the
//! presented data-set to create the new inferred triples." (§I)
//!
//! Every schema axiom becomes one (or two) datalog rules over instance
//! triples with the schema constants baked in. The compiler guarantees —
//! and [`verify_single_join`] checks — that every emitted rule is
//! **single-join** (§II: "only a small class of rules called single-join
//! rules can \[be\] used to represent all but one of the rules").

use crate::tbox::TBox;
use owlpar_datalog::ast::build::{atom, c, v};
use owlpar_datalog::Rule;
use owlpar_rdf::{vocab, Dictionary, NodeId, Term};

/// Compiler switches.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Emit `owl:sameAs` symmetry/transitivity rules when the data can
    /// contain `sameAs` (from functional/inverse-functional axioms or
    /// asserted identity).
    pub same_as_axioms: bool,
    /// Emit the `sameAs` *substitution* rules
    /// `(?x sameAs ?y)(?x ?p ?z) → (?y ?p ?z)` etc. These are single-join
    /// but highly productive; real systems (OWLIM) special-case identity,
    /// and the paper's benchmarks do not exercise them, so they default
    /// to off.
    pub same_as_substitution: bool,
    /// Compile `owl:hasValue` / `owl:someValuesFrom` restriction rules.
    pub restrictions: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            same_as_axioms: true,
            same_as_substitution: false,
            restrictions: true,
        }
    }
}

/// Compile the TBox into a specialized single-join rule-base.
///
/// `dict` must be the dictionary the TBox ids refer to; the compiler
/// interns `owl:sameAs` if identity rules are requested.
// Every rule below is built from constant atom shapes, so `Rule::new`
// cannot reject them; the expects are structural invariants, not error
// handling (and `owlpar-lint` re-verifies the output independently).
#[allow(clippy::expect_used)]
pub fn compile_ontology(tbox: &TBox, dict: &mut Dictionary, opts: CompileOptions) -> Vec<Rule> {
    let mut rules = Vec::new();
    let rdf_type = dict.intern(Term::iri(vocab::RDF_TYPE));
    let name_of = |dict: &Dictionary, id: NodeId| -> String {
        dict.term(id)
            .and_then(|t| t.local_name().map(str::to_owned))
            .unwrap_or_else(|| format!("{id}"))
    };

    // rdfs9 specialized: (?x type C) -> (?x type D) for every C ⊑ D.
    for &(sub, sup) in &tbox.sub_class_of {
        rules.push(
            Rule::new(
                format!("subClassOf:{}<{}", name_of(dict, sub), name_of(dict, sup)),
                atom(v(0), c(rdf_type), c(sup)),
                vec![atom(v(0), c(rdf_type), c(sub))],
            )
            .expect("subclass rule is well-formed"),
        );
    }

    // rdfs7 specialized: (?x p ?y) -> (?x q ?y) for every p ⊑ q.
    for &(sub, sup) in &tbox.sub_property_of {
        rules.push(
            Rule::new(
                format!("subPropertyOf:{}<{}", name_of(dict, sub), name_of(dict, sup)),
                atom(v(0), c(sup), v(1)),
                vec![atom(v(0), c(sub), v(1))],
            )
            .expect("subproperty rule is well-formed"),
        );
    }

    // rdfs2 specialized: (?x p ?y) -> (?x type C) for domain(p)=C.
    for &(p, cls) in &tbox.domain {
        rules.push(
            Rule::new(
                format!("domain:{}", name_of(dict, p)),
                atom(v(0), c(rdf_type), c(cls)),
                vec![atom(v(0), c(p), v(1))],
            )
            .expect("domain rule is well-formed"),
        );
    }

    // rdfs3 specialized: (?x p ?y) -> (?y type C) for range(p)=C.
    for &(p, cls) in &tbox.range {
        rules.push(
            Rule::new(
                format!("range:{}", name_of(dict, p)),
                atom(v(1), c(rdf_type), c(cls)),
                vec![atom(v(0), c(p), v(1))],
            )
            .expect("range rule is well-formed"),
        );
    }

    // rdfp4: transitivity — the canonical single-join rule.
    for &p in &tbox.transitive {
        rules.push(
            Rule::new(
                format!("transitive:{}", name_of(dict, p)),
                atom(v(0), c(p), v(2)),
                vec![atom(v(0), c(p), v(1)), atom(v(1), c(p), v(2))],
            )
            .expect("transitive rule is well-formed"),
        );
    }

    // rdfp3: symmetry.
    for &p in &tbox.symmetric {
        rules.push(
            Rule::new(
                format!("symmetric:{}", name_of(dict, p)),
                atom(v(1), c(p), v(0)),
                vec![atom(v(0), c(p), v(1))],
            )
            .expect("symmetric rule is well-formed"),
        );
    }

    // rdfp8a/b: inverses, both directions.
    for &(p, q) in &tbox.inverse_of {
        rules.push(
            Rule::new(
                format!("inverseOf:{}>{}", name_of(dict, p), name_of(dict, q)),
                atom(v(1), c(q), v(0)),
                vec![atom(v(0), c(p), v(1))],
            )
            .expect("inverse rule is well-formed"),
        );
        rules.push(
            Rule::new(
                format!("inverseOf:{}<{}", name_of(dict, p), name_of(dict, q)),
                atom(v(1), c(p), v(0)),
                vec![atom(v(0), c(q), v(1))],
            )
            .expect("inverse rule is well-formed"),
        );
    }

    let needs_same_as = !tbox.functional.is_empty() || !tbox.inverse_functional.is_empty();
    if opts.same_as_axioms && (needs_same_as || opts.same_as_substitution) {
        let same_as = dict.intern(Term::iri(vocab::OWL_SAME_AS));

        // rdfp1: functional — join on the shared subject.
        for &p in &tbox.functional {
            rules.push(
                Rule::new(
                    format!("functional:{}", name_of(dict, p)),
                    atom(v(1), c(same_as), v(2)),
                    vec![atom(v(0), c(p), v(1)), atom(v(0), c(p), v(2))],
                )
                .expect("functional rule is well-formed"),
            );
        }
        // rdfp2: inverse functional — join on the shared object.
        for &p in &tbox.inverse_functional {
            rules.push(
                Rule::new(
                    format!("invFunctional:{}", name_of(dict, p)),
                    atom(v(1), c(same_as), v(2)),
                    vec![atom(v(1), c(p), v(0)), atom(v(2), c(p), v(0))],
                )
                .expect("inverse-functional rule is well-formed"),
            );
        }
        // rdfp6/7: sameAs symmetry and transitivity.
        rules.push(
            Rule::new(
                "sameAs:sym",
                atom(v(1), c(same_as), v(0)),
                vec![atom(v(0), c(same_as), v(1))],
            )
            .expect("sameAs symmetry is well-formed"),
        );
        rules.push(
            Rule::new(
                "sameAs:trans",
                atom(v(0), c(same_as), v(2)),
                vec![atom(v(0), c(same_as), v(1)), atom(v(1), c(same_as), v(2))],
            )
            .expect("sameAs transitivity is well-formed"),
        );
        if opts.same_as_substitution {
            // rdfp11: substitute identity into subject and object position.
            rules.push(
                Rule::new(
                    "sameAs:substSubject",
                    atom(v(1), v(2), v(3)),
                    vec![atom(v(0), c(same_as), v(1)), atom(v(0), v(2), v(3))],
                )
                .expect("sameAs subject substitution is well-formed"),
            );
            rules.push(
                Rule::new(
                    "sameAs:substObject",
                    atom(v(2), v(3), v(1)),
                    vec![atom(v(0), c(same_as), v(1)), atom(v(2), v(3), v(0))],
                )
                .expect("sameAs object substitution is well-formed"),
            );
        }
    }

    if opts.restrictions {
        // rdfp14a/b: hasValue both ways.
        for &(r, p, val) in &tbox.has_value {
            rules.push(
                Rule::new(
                    format!("hasValue:in:{}", name_of(dict, r)),
                    atom(v(0), c(rdf_type), c(r)),
                    vec![atom(v(0), c(p), c(val))],
                )
                .expect("hasValue-in rule is well-formed"),
            );
            rules.push(
                Rule::new(
                    format!("hasValue:out:{}", name_of(dict, r)),
                    atom(v(0), c(p), c(val)),
                    vec![atom(v(0), c(rdf_type), c(r))],
                )
                .expect("hasValue-out rule is well-formed"),
            );
        }
        // rdfp15: someValuesFrom membership.
        for &(r, p, filler) in &tbox.some_values_from {
            rules.push(
                Rule::new(
                    format!("someValuesFrom:{}", name_of(dict, r)),
                    atom(v(0), c(rdf_type), c(r)),
                    vec![atom(v(0), c(p), v(1)), atom(v(1), c(rdf_type), c(filler))],
                )
                .expect("someValuesFrom rule is well-formed"),
            );
        }
    }

    rules
}

/// Assert the paper's key structural claim: every compiled rule is
/// single-join. Returns the offending rule names (empty = claim holds).
///
/// Delegates to the `owlpar-lint` partition-safety pass so there is one
/// source of truth for what "safe under data partitioning" means.
pub fn verify_single_join(rules: &[Rule]) -> Vec<String> {
    owlpar_lint::lint_rules(rules, &owlpar_lint::LintOptions::default()).unsafe_rule_names()
}

#[cfg(test)]
mod tests {
    use super::*;
    use owlpar_datalog::forward::forward_closure;
    use owlpar_rdf::vocab::*;
    use owlpar_rdf::{Graph, Triple, TriplePattern};

    fn uc(n: &str) -> String {
        format!("http://ex.org/ont#{n}")
    }

    fn ud(n: &str) -> String {
        format!("http://ex.org/data/{n}")
    }

    fn build() -> (Graph, Vec<Rule>) {
        let mut g = Graph::new();
        g.insert_iris(uc("GradStudent"), RDFS_SUBCLASSOF, uc("Student"));
        g.insert_iris(uc("Student"), RDFS_SUBCLASSOF, uc("Person"));
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
        g.insert_iris(ud("x"), uc("near"), ud("y"));
        g.insert_iris(ud("carol"), uc("advises"), ud("alice"));
        g.insert_iris(ud("prof"), uc("teaches"), ud("cs101"));
        g.insert_iris(ud("p1"), uc("email"), ud("e1"));
        g.insert_iris(ud("p2"), uc("email"), ud("e1"));

        let tbox = TBox::extract(&g);
        let rules = compile_ontology(&tbox, &mut g.dict, CompileOptions::default());
        (g, rules)
    }

    fn has(g: &Graph, s: &str, p: &str, o: &str) -> bool {
        g.contains_terms(&Term::iri(s), &Term::iri(p), &Term::iri(o))
    }

    #[test]
    fn all_compiled_rules_are_single_join() {
        let (_, rules) = build();
        assert!(verify_single_join(&rules).is_empty());
        assert!(!rules.is_empty());
    }

    #[test]
    fn closure_derives_expected_facts() {
        let (mut g, rules) = build();
        forward_closure(&mut g.store, &rules);

        // subclass chain: alice is Student and Person
        assert!(has(&g, &ud("alice"), RDF_TYPE, &uc("Student")));
        assert!(has(&g, &ud("alice"), RDF_TYPE, &uc("Person")));
        // subproperty: bob worksFor dept1
        assert!(has(&g, &ud("bob"), &uc("worksFor"), &ud("dept1")));
        // transitivity: a partOf c
        assert!(has(&g, &ud("a"), &uc("partOf"), &ud("c")));
        // symmetry: y near x
        assert!(has(&g, &ud("y"), &uc("near"), &ud("x")));
        // inverse: alice advisedBy carol
        assert!(has(&g, &ud("alice"), &uc("advisedBy"), &ud("carol")));
        // domain/range: prof is Professor, cs101 is Course
        assert!(has(&g, &ud("prof"), RDF_TYPE, &uc("Professor")));
        assert!(has(&g, &ud("cs101"), RDF_TYPE, &uc("Course")));
        // inverse functional: p1 sameAs p2 (and symmetric closure)
        assert!(has(&g, &ud("p1"), OWL_SAME_AS, &ud("p2")));
        assert!(has(&g, &ud("p2"), OWL_SAME_AS, &ud("p1")));
    }

    #[test]
    fn no_same_as_rules_without_functional_axioms() {
        let mut g = Graph::new();
        g.insert_iris(uc("A"), RDFS_SUBCLASSOF, uc("B"));
        let tbox = TBox::extract(&g);
        let rules = compile_ontology(&tbox, &mut g.dict, CompileOptions::default());
        assert!(rules.iter().all(|r| !r.name.starts_with("sameAs")));
    }

    #[test]
    fn substitution_rules_emitted_on_request() {
        let mut g = Graph::new();
        g.insert_iris(uc("hasId"), RDF_TYPE, OWL_FUNCTIONAL);
        let tbox = TBox::extract(&g);
        let opts = CompileOptions {
            same_as_substitution: true,
            ..CompileOptions::default()
        };
        let rules = compile_ontology(&tbox, &mut g.dict, opts);
        assert!(rules.iter().any(|r| r.name == "sameAs:substSubject"));
        assert!(rules.iter().any(|r| r.name == "sameAs:substObject"));
        assert!(verify_single_join(&rules).is_empty());
    }

    #[test]
    fn substitution_rules_substitute() {
        let mut g = Graph::new();
        g.insert_iris(uc("hasId"), RDF_TYPE, OWL_INVERSE_FUNCTIONAL);
        g.insert_iris(ud("a"), uc("hasId"), ud("i"));
        g.insert_iris(ud("b"), uc("hasId"), ud("i"));
        g.insert_iris(ud("a"), uc("likes"), ud("pizza"));
        let tbox = TBox::extract(&g);
        let opts = CompileOptions {
            same_as_substitution: true,
            ..CompileOptions::default()
        };
        let rules = compile_ontology(&tbox, &mut g.dict, opts);
        forward_closure(&mut g.store, &rules);
        // a sameAs b (functional on shared object i), so b likes pizza
        assert!(has(&g, &ud("b"), &uc("likes"), &ud("pizza")));
    }

    #[test]
    fn restriction_rules_fire_both_ways() {
        let mut g = Graph::new();
        g.insert_iris(uc("CsDept"), RDF_TYPE, OWL_RESTRICTION);
        g.insert_iris(uc("CsDept"), OWL_ON_PROPERTY, uc("fieldIs"));
        g.insert_iris(uc("CsDept"), OWL_HAS_VALUE, uc("CS"));
        g.insert_iris(ud("d1"), uc("fieldIs"), uc("CS"));
        g.insert_iris(ud("d2"), RDF_TYPE, uc("CsDept"));
        let tbox = TBox::extract(&g);
        let rules = compile_ontology(&tbox, &mut g.dict, CompileOptions::default());
        forward_closure(&mut g.store, &rules);
        assert!(has(&g, &ud("d1"), RDF_TYPE, &uc("CsDept")));
        assert!(has(&g, &ud("d2"), &uc("fieldIs"), &uc("CS")));
    }

    #[test]
    fn some_values_from_rule() {
        let mut g = Graph::new();
        g.insert_iris(uc("Advisor"), RDF_TYPE, OWL_RESTRICTION);
        g.insert_iris(uc("Advisor"), OWL_ON_PROPERTY, uc("advises"));
        g.insert_iris(uc("Advisor"), OWL_SOME_VALUES_FROM, uc("Student"));
        g.insert_iris(ud("carol"), uc("advises"), ud("dave"));
        g.insert_iris(ud("dave"), RDF_TYPE, uc("Student"));
        let tbox = TBox::extract(&g);
        let rules = compile_ontology(&tbox, &mut g.dict, CompileOptions::default());
        forward_closure(&mut g.store, &rules);
        assert!(has(&g, &ud("carol"), RDF_TYPE, &uc("Advisor")));
    }

    #[test]
    fn compiled_rule_count_matches_axioms() {
        let (_, rules) = build();
        // 3 subclass pairs (Grad<Student, Grad<Person, Student<Person),
        // 1 subproperty, 1 domain, 1 range, 1 transitive, 1 symmetric,
        // 2 inverse, 1 invFunctional, 2 sameAs axioms
        assert_eq!(rules.len(), 3 + 1 + 1 + 1 + 1 + 1 + 2 + 1 + 2);
    }

    #[test]
    fn closure_restricted_to_instance_data_only_mentions_instances() {
        let (mut g, rules) = build();
        let tbox = TBox::extract(&g);
        let before: Vec<Triple> = g.store.iter().collect();
        forward_closure(&mut g.store, &rules);
        let new: Vec<Triple> = g
            .store
            .matches(TriplePattern::any())
            .into_iter()
            .filter(|t| !before.contains(t))
            .collect();
        // every derived triple is instance-kind
        for t in new {
            assert_eq!(tbox.classify(&t), crate::tbox::TripleKind::Instance);
        }
    }
}
