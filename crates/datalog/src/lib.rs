//! A negation-free datalog engine over dictionary-encoded RDF triples.
//!
//! This crate replaces the role Jena's hybrid rule engine plays in the
//! paper. It provides:
//!
//! * a rule AST ([`ast::Rule`], [`ast::Atom`], [`ast::TermPat`]) where every
//!   rule has a single head atom and a conjunctive body (negation-free
//!   datalog, exactly the semantics the paper assumes, cf. Vianu 1997);
//! * a Jena-style textual rule [`parser`];
//! * a **semi-naive forward-chaining** evaluator ([`forward`]) — the
//!   efficient "bottom-up datalog evaluation" the paper mentions as an
//!   alternative strategy — that runs a rule set compiled into a
//!   [`program::Program`]: the one-atom rules closed under composition,
//!   the multi-atom rules, and an operator per transitive rule;
//! * a **tabled SLD backward-chaining** evaluator ([`backward`]) that
//!   emulates Jena's LP engine materializing the KB by issuing
//!   one query per resource; its per-resource cost profile is what gives
//!   the paper its super-linear speedups;
//! * rule [`analysis`]: the single-join classification underpinning the
//!   data-partitioning correctness argument, and the rule-dependency graph
//!   used by rule partitioning (Algorithm 2).
//!
//! ```
//! use owlpar_rdf::Graph;
//! use owlpar_datalog::{parser::parse_rules, forward::forward_closure, Program};
//!
//! let mut g = Graph::new();
//! g.insert_iris("http://x/a", "http://x/knows", "http://x/b");
//! g.insert_iris("http://x/b", "http://x/knows", "http://x/c");
//! let rules = parse_rules(
//!     "[trans: (?a <http://x/knows> ?b) (?b <http://x/knows> ?c) -> (?a <http://x/knows> ?c)]",
//!     &mut g.dict,
//! ).unwrap();
//! let derived = forward_closure(&mut g.store, &Program::compile(&rules));
//! assert_eq!(derived, 1); // a knows c
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod ast;
pub mod backward;
pub mod engine;
pub mod forward;
pub mod parallel;
pub mod parser;
mod plan;
pub mod program;

pub use ast::{Atom, Rule, TermPat};
pub use engine::{MaterializationStrategy, Reasoner};
pub use parallel::{
    closure_delta_within, closure_within, parallel_closure, parallel_closure_delta,
};
pub use parser::{parse_rules, parse_rules_annotated, ParsedRule};
pub use program::Program;
