//! RDF substrate for the owlpar parallel OWL reasoner.
//!
//! This crate provides the data-representation layer that the paper's
//! implementation obtained from Jena: an RDF term model, a dictionary
//! (string interner) that maps terms to dense integer ids, an indexed
//! in-memory triple store with pattern matching, N-Triples
//! parsing/serialization, and the one binary encoding of a triple set
//! (the *triple block*, [`triple`]) that snapshots, shared-file messages
//! and the cluster wire all carry.
//!
//! Everything downstream (the datalog engine, the partitioners, the
//! parallel reasoner) operates on dictionary-encoded [`Triple`]s — three
//! `u32` ids — which keeps the hot joins allocation-free and cache
//! friendly, per the hpc-parallel guides.
//!
//! # Quick example
//!
//! ```
//! use owlpar_rdf::{Graph, Term};
//!
//! let mut g = Graph::new();
//! let s = g.intern_iri("http://example.org/alice");
//! let p = g.intern_iri("http://example.org/knows");
//! let o = g.intern_iri("http://example.org/bob");
//! g.insert(s, p, o);
//! assert_eq!(g.len(), 1);
//! assert_eq!(g.term(s), Some(&Term::iri("http://example.org/alice")));
//! ```

#![forbid(unsafe_code)]

pub mod dictionary;
pub mod frozen;
pub mod fx;
pub mod graph;
pub mod ntriples;
pub mod snapshot;
pub mod store;
pub mod term;
pub mod triple;
pub mod vocab;

pub use dictionary::{Dictionary, NodeId};
pub use frozen::{is_sorted_run, merge_runs, FrozenStore, TripleSource};
pub use graph::Graph;
pub use ntriples::{parse_ntriples, write_ntriples, NtError};
pub use store::{TriplePattern, TripleStore};
pub use term::Term;
pub use triple::{decode_triple_block, encode_triple_block, Triple, TripleBlockError};
