//! Workload partitioning for parallel OWL inferencing.
//!
//! The paper's central contribution is two families of partitioning
//! schemes (§III), both implemented here:
//!
//! * **Data partitioning** (Algorithm 1, [`data`]): split the instance
//!   triples over k processors, each running the complete rule-base.
//!   Ownership of every graph resource is decided by a pluggable policy:
//!   * [`multilevel`] — a from-scratch METIS-style multilevel k-way
//!     partitioner (heavy-edge + two-hop matching coarsening, greedy
//!     graph-growing initial bisection, boundary Fiduccia–Mattheyses
//!     refinement) that minimizes edge-cut with balanced parts;
//!   * [`hash`] — streaming hash ownership (cheap, no edge-cut
//!     minimization — the paper's negative baseline);
//!   * [`domain`] — domain-specific grouping (e.g. LUBM's per-university
//!     clustering) balanced with a greedy bin-packer.
//! * **Rule partitioning** (Algorithm 2, [`rule`]): build the
//!   rule-dependency graph, weight edges by predicted triple production,
//!   and cut it with the same multilevel partitioner.
//!
//! [`metrics`] implements the paper's evaluation metrics: `bal`, input
//! replication `IR`, output replication `OR`, and partitioning time
//! (Table I).

#![forbid(unsafe_code)]

pub mod data;
pub mod domain;
pub mod hash;
pub mod metrics;
pub mod multilevel;
pub mod rdfgraph;
pub mod rule;
pub mod streaming;

pub use data::{partition_data, partition_data_ordered, DataPartitions, OwnershipPolicy};
pub use metrics::{output_replication, PartitionQuality};
pub use rule::{partition_rules, RulePartitions};
