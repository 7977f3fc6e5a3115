//! The TCP cluster runtime — Algorithm 3 across real sockets.
//!
//! The paper ran its partitions as processes on a cluster, exchanging
//! tuples through a shared filesystem. `owlpar-core` reproduces that
//! in-process (threads + channels or shared-directory files); this crate
//! takes the remaining step to *actual* distribution, in two layers:
//!
//! * [`transport`] — the TCP mesh, one connection per worker pair,
//!   implementing the core's [`Transport`](owlpar_core::Transport)
//!   plug-in point: `run_parallel` can push every inter-partition triple
//!   through real loopback sockets ([`CommMode::Custom`](owlpar_core::CommMode))
//!   while keeping its threads, barriers and fault containment, and the
//!   cluster's workers exchange over the same mesh;
//! * [`cluster`] — a multi-process runtime: a master process partitions
//!   the KB with the same [`prepare_run`](owlpar_core::prepare_run) the
//!   in-process runtime uses, ships each worker process its partition,
//!   rule-base, routing table and the mesh peer table over a versioned
//!   bootstrap protocol, then only votes: workers trade triples peer to
//!   peer, and the master turns their per-round send counts into a stop
//!   verdict, with a deadline on every connection. A worker that dies
//!   mid-run (EOF, deadline, injected
//!   [`FaultKind::Disconnect`](owlpar_core::FaultKind)) flows into the
//!   same adopt-and-reclose recovery the in-process master uses.
//!
//! Every frame on every connection is length-prefixed and CRC-checked
//! through the shared `owlpar-core` frame codec; payload bounds are the
//! same [`MAX_PAYLOAD_BYTES`](owlpar_core::MAX_PAYLOAD_BYTES) every other
//! byte stream in the system enforces. The `owlpar-cluster` binary
//! (master / worker subcommands, `--spawn-local k`) fronts this crate.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod protocol;
pub mod transport;

pub use cluster::{
    run_cluster_master, run_cluster_worker, MasterOptions, WorkerOptions, WorkerSummary,
};
pub use protocol::{NetError, PROTOCOL_VERSION, WIRE_MAGIC};
pub use transport::{TcpFabricFactory, DEFAULT_CHUNK_TRIPLES};
