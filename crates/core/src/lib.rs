//! The parallel OWL reasoner (Algorithm 3 of the paper).
//!
//! ```text
//! Input:  Initial base tuples, rule-base
//! Output: Base tuples and inferred tuples
//! 1: Partition the data or rule-base. Assign a partition to each node.
//! At each node:
//! 2: while !terminate:
//! 3:   Create all the new tuples for the given rule base and base tuples
//! 4:   Send newly generated tuples to other processors as necessary
//! 5:   Receive tuples from other processors, add them to the base tuples
//! ```
//!
//! The cluster of the paper (one partition per processor core, message
//! exchange over a shared filesystem) is reproduced as one OS thread per
//! partition with a private [`WorkerState`] (its triples held as sorted
//! runs: one store, a frozen base plus a small overlay); *all*
//! inter-partition traffic flows through an explicit [`comm`] backend —
//! crossbeam channels, or real files in a shared directory serialized as
//! N-Triples, matching the paper's transport. The loop at each node
//! exists once ([`worker::run_rounds`]): barrier-synchronized rounds that
//! terminate when a round moves no triples anywhere (the paper's
//! quiescence condition). It runs over two seams — a [`Transport`]
//! behind the endpoint carries a round's messages, a
//! [`worker::RoundVote`] reaches its verdict — which is how
//! `owlpar-net` plugs in its TCP mesh and a vote at the cluster master.
//!
//! The runtime is fault-tolerant end to end: transport operations return
//! typed [`error`]s instead of panicking, file writes are atomic with
//! retried transient failures, corrupted messages are skipped with a
//! report, worker panics are contained by the master ([`master`]), and a
//! seeded [`fault::FaultPlan`] can inject failures deterministically for
//! testing.
//!
//! Per-phase timers (reasoning / IO / synchronization / aggregation)
//! reproduce the Fig. 2 overhead breakdown; [`model`] provides the cubic
//! performance model of Fig. 4 and the theoretical-maximum speedup of
//! Fig. 3.
//!
//! ```no_run
//! use owlpar_core::{ParallelConfig, PartitioningStrategy, run_parallel};
//! use owlpar_datagen::{generate_lubm, LubmConfig};
//!
//! let mut graph = generate_lubm(&LubmConfig::mini(2));
//! let report = run_parallel(&mut graph, &ParallelConfig {
//!     k: 4,
//!     strategy: PartitioningStrategy::data_graph(),
//!     ..ParallelConfig::default()
//! }).expect("parallel run");
//! println!("derived {} triples in {} rounds (max over workers)",
//!          report.derived, report.max_rounds());
//! ```

// Runtime code must propagate failures as typed errors, never panic;
// the unwrap/expect/panic deny gates come from `[workspace.lints]` in the
// workspace manifest. The one deliberate panic (fault injection) carries
// its own narrow allow in `fault`.
//
// `deny` rather than `forbid`: the thread-CPU-time probe in [`cputime`]
// needs one scoped `#[allow(unsafe_code)]` for its libc syscall.
#![deny(unsafe_code)]

pub mod backoff;
pub mod barrier;
pub mod cli;
pub mod comm;
pub mod config;
pub mod cputime;
pub mod durable;
pub mod error;
pub mod fault;
pub mod frame;
pub mod master;
pub mod model;
pub mod plan;
pub mod state;
pub mod stats;
pub mod worker;

pub use backoff::Backoff;
pub use comm::{
    check_payload_bounds, CommMode, PayloadBoundsError, Transport, TransportFactory, WireFormat,
    MAX_PAYLOAD_BYTES,
};
pub use config::{FaultRecovery, ParallelConfig, PartitioningStrategy};
pub use durable::{atomic_write, atomic_write_synced, crc32, sync_dir, TMP_SUFFIX};
pub use error::{CommError, RunError, SkippedMessage, WorkerError};
pub use fault::{CrashPlan, CrashPoint, CrashState, FaultKind, FaultPlan};
pub use frame::{
    decode_triple_block, encode_triple_block, read_crc_frame, read_frame, write_crc_frame,
    write_frame, FrameError, TripleBlockError,
};
pub use master::{prepare_run, run_parallel, run_serial, RunPlan, RunReport};
pub use model::{fit_cubic, PolyModel};
pub use plan::{
    analyze_rules_only, analyze_run_plan, analyze_strategy, auto_candidates, select_auto,
    AutoSelection, PlanningBase,
};
pub use state::WorkerState;
pub use stats::{WireBytes, WirePhase, WireRound, WorkerStats};
