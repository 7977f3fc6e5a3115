//! The cluster bootstrap + round protocol: typed messages and their wire
//! codecs.
//!
//! Every message travels as one CRC frame (`owlpar_core::frame`:
//! `len | crc32 | body`), so torn or bit-flipped frames are rejected at
//! the framing layer before any of these decoders run. The body grammar
//! is a tag byte followed by little-endian fields; every length field is
//! bounds-checked against the remaining buffer *before* allocation, and
//! every triple id is validated against the run's dictionary size — a
//! frame that passes CRC but decodes to nonsense is a protocol violation
//! (the stream cannot be resynchronized), not a skippable message.
//!
//! ```text
//! worker → master:  Hello Ready | (TraceChunk? RoundDone)* | FinalChunk* Final
//! master → worker:  Welcome | Reject | Setup | Verdict*
//! ```
//!
//! **v5**: round triples travel worker to worker over the TCP mesh
//! (`transport`); on the master connection a round is only the vote,
//! `RoundDone` then `Verdict`.
//!
//! **v6**: every run ships every partition. `Setup` carries the
//! worker's partition inline, with no digests and no way to leave it
//! out, and the message after `Welcome` is `Ready`, which carries only
//! the worker's mesh port.
//!
//! **Wire format v2** (see `DESIGN.md §13`): triple payloads travel as
//! sort-order delta/varint blocks ([`owlpar_core::frame::encode_triple_block`])
//! instead of raw 12-byte records; ownership tables are delta/varint
//! encoded; and a large `Final` streams as a bounded chunk sequence
//! (`FinalChunk*` ending in the ordinary terminator), so a result of any
//! size moves without raising the per-frame payload cap.
//!
//! **v4** changes what the final stream *means*, not its grammar: a
//! worker's `FinalChunk* Final` sequence is one SPO-ascending,
//! duplicate-free run of only the triples it gained over the partition
//! it was shipped (the master still holds that partition), and
//! `WireStats::output_size` reports the full local size the run no
//! longer implies.
//!
//! The bootstrap handshake is versioned: `Hello` carries [`WIRE_MAGIC`]
//! and [`PROTOCOL_VERSION`]; a master that cannot serve that version
//! answers `Reject` and aborts the run before any partition ships. The
//! `Hello` byte layout is frozen across versions — a v1 peer and a v2
//! peer can always *parse* each other's opener, so a mismatch is a typed
//! `Reject` in both directions, never garbage.

use owlpar_core::frame::{get_varint32, put_varint32};
use owlpar_core::stats::WirePhase;
use owlpar_core::worker::Routing;
use owlpar_core::{
    decode_triple_block, encode_triple_block, FrameError, RunError, WorkerError, WorkerStats,
};
use owlpar_datalog::backward::TableScope;
use owlpar_datalog::{Atom, MaterializationStrategy, Rule, TermPat};
use owlpar_rdf::{NodeId, Triple};
use std::net::{IpAddr, Ipv6Addr, SocketAddr};
use std::time::Duration;

/// `"OWLP"` — first field of every `Hello`.
pub const WIRE_MAGIC: u32 = 0x4F57_4C50;

/// Version of the cluster wire protocol. Bumped on any incompatible
/// change to the message grammar; the handshake refuses mismatches.
/// v1: raw 12-byte triple records, monolithic `Setup`.
/// v2: delta/varint triple blocks, digest-keyed `Setup` payloads,
/// chunked `Final`/`Deliver` streaming.
/// v3: `trace` flag in `Welcome`, `TraceChunk` telemetry frames
/// (`owlpar_obs::wire` payloads), `skipped`/`io_retries` in the final
/// stats record.
/// v4: `FinalChunk*`/`Final` carry the worker's derived-only sorted run
/// instead of its whole store — same bytes on the wire, different
/// meaning, so a v3 peer must be refused. The `Hello` layout stays
/// frozen.
/// v5: no relay — rounds on the master connection are `RoundDone` and
/// `Verdict`; the triples cross the workers' mesh.
/// v6: no partition cache — `Setup` always carries the partition, with
/// no digests, and `Ready { mesh_port }` replaces the cache advert.
pub const PROTOCOL_VERSION: u32 = 6;

/// Anything that can go wrong running the cluster.
#[derive(Debug)]
pub enum NetError {
    /// Socket trouble (connect, accept, read, write).
    Io(std::io::Error),
    /// A frame violated the shared framing layer (bad length, bad CRC).
    Frame(FrameError),
    /// A CRC-valid frame decoded to something that is not a valid
    /// message (unknown tag, truncated field, out-of-dictionary id,
    /// wrong round number). The connection is unusable.
    Protocol {
        /// What was wrong.
        detail: String,
    },
    /// The bootstrap handshake failed: version mismatch, a rejected
    /// `Hello`, or the cluster never assembled within the deadline.
    Handshake {
        /// Why bootstrap was refused.
        detail: String,
    },
    /// The run itself failed with a structured core error (lint gate,
    /// bad config, unrecovered worker losses).
    Run(RunError),
    /// This worker's mesh endpoint failed: it could not join the mesh,
    /// a peer's stream was damaged, or a collect timed out.
    Worker(WorkerError),
    /// An injected fault ([`owlpar_core::FaultKind::Disconnect`] /
    /// `Panic`) killed this worker on schedule — the expected outcome of
    /// a chaos run, kept distinct from organic failures.
    Injected {
        /// Round at which the fault fired.
        round: usize,
        /// Which fault kind fired.
        kind: &'static str,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Frame(e) => write!(f, "bad frame: {e}"),
            NetError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            NetError::Handshake { detail } => write!(f, "handshake failed: {detail}"),
            NetError::Run(e) => write!(f, "run failed: {e}"),
            NetError::Worker(e) => write!(f, "mesh failed: {e}"),
            NetError::Injected { round, kind } => {
                write!(f, "injected {kind} fault fired at round {round}")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Frame(e) => Some(e),
            NetError::Run(e) => Some(e),
            NetError::Worker(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}

impl From<RunError> for NetError {
    fn from(e: RunError) -> Self {
        NetError::Run(e)
    }
}

impl From<WorkerError> for NetError {
    fn from(e: WorkerError) -> Self {
        NetError::Worker(e)
    }
}

impl NetError {
    pub(crate) fn protocol(detail: impl Into<String>) -> Self {
        NetError::Protocol {
            detail: detail.into(),
        }
    }
}

/// A fault the master ships to the worker it targets. Only the
/// worker-level kinds travel — transport-level IO/corruption injection
/// stays inside the in-process fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Panic at the start of the round (the worker process dies loudly).
    Panic,
    /// Close the master connection at the start of the round and exit.
    Disconnect,
    /// Sleep before the round's sends (a slow peer; exercises the
    /// master's deadline patience without killing anyone).
    Delay {
        /// Wall-clock delay in milliseconds.
        millis: u64,
    },
}

/// A routing table in shippable form — the wire image of
/// [`owlpar_core::worker::Routing`], minus the `Arc`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRouting {
    /// Data partitioning: the ownership table.
    Data {
        /// `(node, owning worker)` pairs.
        owner: Vec<(NodeId, u32)>,
    },
    /// Rule partitioning: the rule→partition assignment.
    Rule {
        /// Number of partitions.
        k: u32,
        /// Partition id per rule index (into the shipped `all_rules`).
        assignment: Vec<u32>,
    },
}

impl From<&Routing> for WireRouting {
    fn from(r: &Routing) -> Self {
        match r {
            Routing::Data { owner } => WireRouting::Data {
                owner: owner.iter().map(|(&n, &w)| (n, w)).collect(),
            },
            Routing::Rule { partitions, .. } => WireRouting::Rule {
                k: partitions.k as u32,
                assignment: partitions.assignment.clone(),
            },
        }
    }
}

/// Everything a worker needs before round 0 — the cluster image of the
/// master's [`owlpar_core::RunPlan`] slice for one worker, shipped whole
/// on every run.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Per-message read patience during rounds, in milliseconds.
    pub round_timeout_ms: u64,
    /// Injected faults for this worker, as `(round, fault)` pairs.
    pub faults: Vec<(u32, WireFault)>,
    /// The mesh peer table: `(worker id, mesh listener address)` for
    /// every worker of the run, this one included; checked against the
    /// cluster size by [`mesh_peers`].
    pub peers: Vec<(u32, SocketAddr)>,
    /// Size of the master's frozen dictionary; every triple id in every
    /// later frame must be below it.
    pub n_terms: u32,
    /// The resolved closure engine (no `threads: 0` auto value ships —
    /// the master resolves it so every process uses the same budget).
    pub materialization: MaterializationStrategy,
    /// Schema triples (replicated to every worker).
    pub schema: Vec<Triple>,
    /// This worker's base partition.
    pub base: Vec<Triple>,
    /// The complete effective rule-base (routing needs it even when this
    /// worker evaluates only a subset).
    pub all_rules: Vec<Rule>,
    /// The rules this worker evaluates.
    pub my_rules: Vec<Rule>,
    /// How this worker routes fresh derivations.
    pub routing: WireRouting,
}

/// Per-worker counters in shippable form; micros instead of `Duration`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Rounds the worker participated in.
    pub rounds: u64,
    /// Triples it derived.
    pub derived: u64,
    /// Triples it sent.
    pub sent: u64,
    /// Triples it received.
    pub received: u64,
    /// Reasoning CPU, microseconds.
    pub reason_micros: u64,
    /// IO (serialize/route/exchange) CPU, microseconds.
    pub io_micros: u64,
    /// Per-round CPU charges, microseconds.
    pub round_cpu_micros: Vec<u64>,
    /// Final size of the worker's full local store (shipped partition +
    /// everything gained) — not the length of the run it sends back.
    pub output_size: u64,
    /// What this worker's mesh endpoint wrote in each round (index =
    /// round): bytes (frame headers included), frames, triples.
    pub round_wire: Vec<WirePhase>,
    /// Bytes this worker wrote to its master connection (frame headers
    /// included) — the worker's own view of its wire footprint.
    pub wire_sent_bytes: u64,
    /// Bytes this worker read from its master connection.
    pub wire_recv_bytes: u64,
    /// Messages skipped with a report (v3; lost before then, which is
    /// why merged cluster summaries used to report zero).
    pub skipped: u64,
    /// Transient IO failures absorbed by retrying (v3).
    pub io_retries: u64,
}

impl WireStats {
    /// Rehydrate into the core's stats record for `RunReport` assembly.
    pub fn into_worker_stats(self, id: usize) -> WorkerStats {
        WorkerStats {
            id,
            reason_time: Duration::from_micros(self.reason_micros),
            io_time: Duration::from_micros(self.io_micros),
            round_cpu: self
                .round_cpu_micros
                .iter()
                .map(|&us| Duration::from_micros(us))
                .collect(),
            rounds: self.rounds as usize,
            derived: self.derived as usize,
            sent: self.sent as usize,
            received: self.received as usize,
            output_size: self.output_size as usize,
            skipped: self.skipped as usize,
            io_retries: self.io_retries as usize,
            ..WorkerStats::default()
        }
    }
}

/// Messages a worker sends to the master.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerMsg {
    /// Handshake opener. Byte layout frozen across protocol versions.
    Hello {
        /// Must be [`WIRE_MAGIC`].
        magic: u32,
        /// Must be [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Sent once right after `Welcome`: the port of this worker's mesh
    /// listener, on the address it reached the master from.
    Ready {
        /// Mesh listener port.
        mesh_port: u16,
    },
    /// This worker finished the round: its sends are out and its mesh
    /// collect has every live peer's end-of-round marker.
    RoundDone {
        /// The round just finished.
        round: u32,
        /// Triples this worker sent this round (termination detector).
        sent: u64,
    },
    /// One bounded chunk of the final run, streamed before `Final`.
    /// Chunks arrive in `seq` order starting at 0, and the run keeps
    /// ascending across every chunk seam.
    FinalChunk {
        /// Chunk sequence number.
        seq: u32,
        /// The chunk's triples.
        batch: Vec<Triple>,
    },
    /// Sent once after a stopping `Verdict`: counters + the tail of the
    /// final run (everything not already streamed as `FinalChunk`s). The
    /// run is the SPO-sorted set of triples this worker derived or
    /// received — never the schema or base it was shipped.
    Final {
        /// The worker's counters.
        stats: WireStats,
        /// Tail of its derived-only run.
        run: Vec<Triple>,
    },
    /// One batch of telemetry events (an `owlpar_obs::wire` chunk:
    /// worker clock sample + span/counter events), sent only when the
    /// `Welcome` enabled tracing — immediately before each `RoundDone`
    /// and before `Final`, so the master can align the worker's clock
    /// (offset = min over chunks of receipt − `clock_us`) and merge the
    /// spans into one cluster timeline. Opaque at this layer: the codec
    /// ships bytes, `owlpar_obs::wire` owns the grammar.
    TraceChunk {
        /// An encoded `owlpar_obs::wire` trace chunk.
        payload: Vec<u8>,
    },
}

/// Messages the master sends a worker.
#[derive(Debug, Clone)]
pub enum MasterMsg {
    /// Handshake accept: identity and cluster shape.
    Welcome {
        /// This worker's node id (= partition index).
        node_id: u32,
        /// Cluster size.
        k: u32,
        /// Run epoch — lets a late reconnect from a previous run be told
        /// apart from this run's workers.
        epoch: u64,
        /// True when the master runs with `--trace-out`: record spans
        /// and ship [`WorkerMsg::TraceChunk`] frames.
        trace: bool,
    },
    /// Handshake refusal (version mismatch, cluster already full).
    Reject {
        /// Why.
        reason: String,
    },
    /// The worker's partition of the run plan.
    Setup(Box<Setup>),
    /// The answer to every live worker's `RoundDone` for `round`.
    Verdict {
        /// The round this verdict closes.
        round: u32,
        /// True when the run is over (quiescence or a lost worker):
        /// absorb nothing, send `Final`.
        stop: bool,
    },
}

// ---------------------------------------------------------------------
// body grammar
// ---------------------------------------------------------------------

const TAG_HELLO: u8 = 1;
const TAG_WELCOME: u8 = 2;
const TAG_REJECT: u8 = 3;
const TAG_SETUP: u8 = 4;
const TAG_ROUND_DONE: u8 = 6;
const TAG_FINAL: u8 = 8;
const TAG_FINAL_CHUNK: u8 = 10;
const TAG_TRACE_CHUNK: u8 = 12;
const TAG_VERDICT: u8 = 13;
const TAG_READY: u8 = 14;

/// Largest encoded trace chunk the decoder accepts. Generous — a chunk
/// holds one round's spans for one worker, a few dozen events.
const MAX_TRACE_CHUNK: usize = 4 * 1024 * 1024;

/// Longest string field (rule name, reject reason) the decoder accepts.
const MAX_STRING: usize = 64 * 1024;
/// Most rules a setup may carry (far above any real rule-base).
const MAX_RULES: usize = 64 * 1024;

/// Bounds-checked little-endian reader over a message body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                NetError::protocol(format!(
                    "truncated message: wanted {n} more byte(s) at offset {}",
                    self.pos
                ))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, NetError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, NetError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// LEB128 varint (shared grammar with the triple-block codec).
    fn varint(&mut self) -> Result<u32, NetError> {
        let (v, next) = get_varint32(self.buf, self.pos).map_err(|e| {
            NetError::protocol(format!("bad varint at offset {}: {e}", self.pos))
        })?;
        self.pos = next;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, NetError> {
        let len = self.u32()? as usize;
        if len > MAX_STRING {
            return Err(NetError::protocol(format!(
                "string field of {len} bytes exceeds the {MAX_STRING}-byte bound"
            )));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| NetError::protocol("string field is not valid UTF-8"))
    }

    /// The decoder consumed the whole body — trailing bytes are a
    /// violation (they would mean sender and receiver disagree on the
    /// grammar).
    fn done(&self) -> Result<(), NetError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(NetError::protocol(format!(
                "{} trailing byte(s) after message body",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// `(worker id, address)` peer table: `count varint`, then per entry
/// `id varint | ip [u8; 16] | port u16`, an IPv4 address as its
/// IPv4-mapped IPv6 form — 19 bytes per worker, whatever its address.
fn put_peers(out: &mut Vec<u8>, peers: &[(u32, SocketAddr)]) {
    put_varint32(out, peers.len() as u32);
    for (id, addr) in peers {
        let ip = match addr.ip() {
            IpAddr::V4(ip) => ip.to_ipv6_mapped(),
            IpAddr::V6(ip) => ip,
        };
        put_varint32(out, *id);
        out.extend_from_slice(&ip.octets());
        out.extend_from_slice(&addr.port().to_le_bytes());
    }
}

fn get_peers(cur: &mut Cursor<'_>) -> Result<Vec<(u32, SocketAddr)>, NetError> {
    // No allocation up front: a count larger than the body runs out of
    // bytes (a typed truncation error) before the table grows past it.
    (0..cur.varint()?)
        .map(|_| {
            let id = cur.varint()?;
            let mut ip = [0u8; 16];
            ip.copy_from_slice(cur.take(16)?);
            let port = cur.take(2)?;
            let port = u16::from_le_bytes([port[0], port[1]]);
            Ok((id, SocketAddr::new(Ipv6Addr::from(ip).to_canonical(), port)))
        })
        .collect()
}

/// Check a shipped peer table against the cluster size `k` and index it
/// by worker id: exactly one entry for every id below `k`.
pub fn mesh_peers(table: &[(u32, SocketAddr)], k: u32) -> Result<Vec<SocketAddr>, NetError> {
    let bad = |what: String| NetError::protocol(format!("peer table {what} for a cluster of {k}"));
    if table.len() != k as usize {
        return Err(bad(format!("of {} entries", table.len())));
    }
    let mut addrs = vec![None; table.len()];
    for &(id, addr) in table {
        match addrs.get_mut(id as usize) {
            Some(slot @ None) => *slot = Some(addr),
            _ => return Err(bad(format!("names worker {id} twice or out of range"))),
        }
    }
    Ok(addrs.into_iter().flatten().collect())
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Append a compact delta/varint triple block (the v2 triple grammar;
/// see `owlpar_core::frame`). Sorts and dedups internally when needed —
/// every cluster data path has set semantics, so the canonical sorted
/// order is free to impose.
fn put_triples(out: &mut Vec<u8>, triples: &[Triple]) {
    out.extend_from_slice(&encode_triple_block(triples));
}

/// Read one compact triple block, validating every id against the
/// dictionary size. Returns the triples in canonical sorted order.
fn get_triples(cur: &mut Cursor<'_>, n_terms: u32) -> Result<Vec<Triple>, NetError> {
    let (triples, consumed) = decode_triple_block(&cur.buf[cur.pos..]).map_err(|e| {
        NetError::protocol(format!("bad triple block at offset {}: {e}", cur.pos))
    })?;
    cur.pos += consumed;
    for t in &triples {
        if t.s.0 >= n_terms || t.p.0 >= n_terms || t.o.0 >= n_terms {
            return Err(NetError::protocol(format!(
                "triple {t} has ids outside the {n_terms}-term dictionary"
            )));
        }
    }
    Ok(triples)
}

fn put_term_pat(out: &mut Vec<u8>, p: &TermPat) {
    match p {
        TermPat::Var(v) => {
            out.push(0);
            put_varint32(out, u32::from(*v));
        }
        TermPat::Const(c) => {
            out.push(1);
            put_varint32(out, c.0);
        }
    }
}

fn get_term_pat(cur: &mut Cursor<'_>, n_terms: u32) -> Result<TermPat, NetError> {
    match cur.u8()? {
        0 => {
            let v = cur.varint()?;
            u16::try_from(v)
                .map(TermPat::Var)
                .map_err(|_| NetError::protocol(format!("variable index {v} exceeds u16")))
        }
        1 => {
            let id = cur.varint()?;
            if id >= n_terms {
                return Err(NetError::protocol(format!(
                    "rule constant {id} outside the {n_terms}-term dictionary"
                )));
            }
            Ok(TermPat::Const(NodeId(id)))
        }
        other => Err(NetError::protocol(format!("unknown term-pattern tag {other}"))),
    }
}

fn put_atom(out: &mut Vec<u8>, a: &Atom) {
    put_term_pat(out, &a.s);
    put_term_pat(out, &a.p);
    put_term_pat(out, &a.o);
}

fn get_atom(cur: &mut Cursor<'_>, n_terms: u32) -> Result<Atom, NetError> {
    Ok(Atom {
        s: get_term_pat(cur, n_terms)?,
        p: get_term_pat(cur, n_terms)?,
        o: get_term_pat(cur, n_terms)?,
    })
}

fn put_rule(out: &mut Vec<u8>, r: &Rule) {
    put_varint32(out, r.name.len() as u32);
    out.extend_from_slice(r.name.as_bytes());
    put_atom(out, &r.head);
    put_varint32(out, r.body.len() as u32);
    for a in &r.body {
        put_atom(out, a);
    }
}

fn get_rule(cur: &mut Cursor<'_>, n_terms: u32) -> Result<Rule, NetError> {
    let name_len = cur.varint()? as usize;
    if name_len > MAX_STRING {
        return Err(NetError::protocol(format!(
            "rule name of {name_len} bytes exceeds the {MAX_STRING}-byte bound"
        )));
    }
    let name = String::from_utf8(cur.take(name_len)?.to_vec())
        .map_err(|_| NetError::protocol("rule name is not valid UTF-8"))?;
    let head = get_atom(cur, n_terms)?;
    let body_len = cur.varint()? as usize;
    if body_len > MAX_RULES {
        return Err(NetError::protocol(format!(
            "rule body of {body_len} atoms exceeds the {MAX_RULES} bound"
        )));
    }
    let mut body = Vec::with_capacity(body_len.min(1 << 10));
    for _ in 0..body_len {
        body.push(get_atom(cur, n_terms)?);
    }
    // Rule::new re-validates (non-empty body, dense variables,
    // range restriction) and recomputes var_count — a rule that was
    // valid at the master decodes to the same rule or not at all.
    Rule::new(name, head, body).map_err(NetError::protocol)
}

fn put_rules(out: &mut Vec<u8>, rules: &[Rule]) {
    put_varint32(out, rules.len() as u32);
    for r in rules {
        put_rule(out, r);
    }
}

fn get_rules(cur: &mut Cursor<'_>, n_terms: u32) -> Result<Vec<Rule>, NetError> {
    let count = cur.varint()? as usize;
    if count > MAX_RULES {
        return Err(NetError::protocol(format!(
            "rule count {count} exceeds the {MAX_RULES} bound"
        )));
    }
    let mut out = Vec::with_capacity(count.min(1 << 10));
    for _ in 0..count {
        out.push(get_rule(cur, n_terms)?);
    }
    Ok(out)
}

/// Encode a worker's rule subset against the full rule-base it rides
/// with: each rule that appears in `all` is written as a 1-biased
/// varint index into it (typically 1–2 bytes instead of tens), and a
/// rule that does not (marker `0`) is inlined verbatim. Under data
/// partitioning `my == all`, so this turns the second full rule-base
/// copy in every `Setup` into a run of small integers.
fn put_rule_refs(out: &mut Vec<u8>, all: &[Rule], my: &[Rule]) {
    put_varint32(out, my.len() as u32);
    for r in my {
        match all.iter().position(|a| a == r) {
            Some(i) => put_varint32(out, i as u32 + 1),
            None => {
                put_varint32(out, 0);
                put_rule(out, r);
            }
        }
    }
}

fn get_rule_refs(cur: &mut Cursor<'_>, all: &[Rule], n_terms: u32) -> Result<Vec<Rule>, NetError> {
    let count = cur.varint()? as usize;
    if count > MAX_RULES {
        return Err(NetError::protocol(format!(
            "rule count {count} exceeds the {MAX_RULES} bound"
        )));
    }
    let mut out = Vec::with_capacity(count.min(1 << 10));
    for _ in 0..count {
        match cur.varint()? as usize {
            0 => out.push(get_rule(cur, n_terms)?),
            i => {
                let rule = all.get(i - 1).ok_or_else(|| {
                    NetError::protocol(format!(
                        "rule reference {} outside the {}-rule base",
                        i - 1,
                        all.len()
                    ))
                })?;
                out.push(rule.clone());
            }
        }
    }
    Ok(out)
}

fn put_materialization(out: &mut Vec<u8>, m: &MaterializationStrategy) {
    let scope_byte = |s: &TableScope| match s {
        TableScope::PerQuery => 0u8,
        TableScope::PerSweep => 1,
        TableScope::None => 2,
    };
    match m {
        MaterializationStrategy::ForwardSemiNaive => {
            out.push(0);
            put_u32(out, 0);
        }
        MaterializationStrategy::ForwardParallel { threads } => {
            out.push(1);
            put_u32(out, *threads as u32);
        }
        MaterializationStrategy::BackwardPerResource(s) => {
            out.push(2);
            put_u32(out, u32::from(scope_byte(s)));
        }
        MaterializationStrategy::BackwardJena(s) => {
            out.push(3);
            put_u32(out, u32::from(scope_byte(s)));
        }
    }
}

fn get_materialization(cur: &mut Cursor<'_>) -> Result<MaterializationStrategy, NetError> {
    let tag = cur.u8()?;
    let param = cur.u32()?;
    let scope = |p: u32| match p {
        0 => Ok(TableScope::PerQuery),
        1 => Ok(TableScope::PerSweep),
        2 => Ok(TableScope::None),
        other => Err(NetError::protocol(format!("unknown table scope {other}"))),
    };
    match tag {
        0 => Ok(MaterializationStrategy::ForwardSemiNaive),
        1 => Ok(MaterializationStrategy::ForwardParallel {
            threads: param as usize,
        }),
        2 => Ok(MaterializationStrategy::BackwardPerResource(scope(param)?)),
        3 => Ok(MaterializationStrategy::BackwardJena(scope(param)?)),
        other => Err(NetError::protocol(format!(
            "unknown materialization tag {other}"
        ))),
    }
}

/// Delta/varint-encode an ownership table. Node ids are sorted (the
/// table is a map, so order carries no information) and stored as
/// first-absolute-then-`gap-1` varints — consecutive ids cost one byte
/// each instead of four; worker ids are varints (tiny in practice).
fn put_owner(out: &mut Vec<u8>, owner: &[(NodeId, u32)]) {
    let sorted: Vec<(NodeId, u32)>;
    let pairs: &[(NodeId, u32)] = if owner.windows(2).all(|w| w[0].0 < w[1].0) {
        owner
    } else {
        let mut v = owner.to_vec();
        v.sort_unstable_by_key(|p| p.0);
        // The table comes from a map, so duplicate nodes cannot carry
        // conflicting owners; collapse exact repeats defensively.
        v.dedup_by_key(|p| p.0);
        sorted = v;
        &sorted
    };
    put_varint32(out, pairs.len() as u32);
    let mut prev = 0u32;
    for (i, (node, w)) in pairs.iter().enumerate() {
        let delta = if i == 0 { node.0 } else { node.0 - prev - 1 };
        put_varint32(out, delta);
        put_varint32(out, *w);
        prev = node.0;
    }
}

fn get_owner(cur: &mut Cursor<'_>, n_terms: u32, k: u32) -> Result<Vec<(NodeId, u32)>, NetError> {
    let count = cur.varint()? as usize;
    // ≥ 2 bytes per pair must fit in what remains — refuse the count
    // before allocating for it.
    if count > cur.buf.len().saturating_sub(cur.pos) {
        return Err(NetError::protocol(format!(
            "ownership table claims {count} entries with {} byte(s) left",
            cur.buf.len() - cur.pos
        )));
    }
    let mut out = Vec::with_capacity(count.min(1 << 20));
    let mut prev = 0u32;
    for i in 0..count {
        let delta = cur.varint()?;
        let node = if i == 0 {
            delta
        } else {
            prev.checked_add(1)
                .and_then(|n| n.checked_add(delta))
                .ok_or_else(|| {
                    NetError::protocol(format!("ownership delta {delta} overflows past node {prev}"))
                })?
        };
        let w = cur.varint()?;
        if node >= n_terms {
            return Err(NetError::protocol(format!(
                "ownership entry for node {node} outside the {n_terms}-term dictionary"
            )));
        }
        if w >= k {
            return Err(NetError::protocol(format!(
                "ownership entry assigns node {node} to worker {w} of {k}"
            )));
        }
        out.push((NodeId(node), w));
        prev = node;
    }
    Ok(out)
}

fn put_assignment(out: &mut Vec<u8>, assignment: &[u32]) {
    put_varint32(out, assignment.len() as u32);
    for &a in assignment {
        put_varint32(out, a);
    }
}

fn get_assignment(cur: &mut Cursor<'_>, parts: u32) -> Result<Vec<u32>, NetError> {
    let count = cur.varint()? as usize;
    if count > MAX_RULES {
        return Err(NetError::protocol(format!(
            "assignment length {count} exceeds the {MAX_RULES} bound"
        )));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let a = cur.varint()?;
        if a >= parts {
            return Err(NetError::protocol(format!(
                "assignment entry {a} outside 0..{parts}"
            )));
        }
        out.push(a);
    }
    Ok(out)
}

fn put_routing(out: &mut Vec<u8>, r: &WireRouting) {
    match r {
        WireRouting::Data { owner } => {
            out.push(0);
            put_owner(out, owner);
        }
        WireRouting::Rule { k, assignment } => {
            out.push(1);
            put_u32(out, *k);
            put_assignment(out, assignment);
        }
    }
}

fn get_routing(cur: &mut Cursor<'_>, n_terms: u32, k: u32) -> Result<WireRouting, NetError> {
    match cur.u8()? {
        0 => Ok(WireRouting::Data {
            owner: get_owner(cur, n_terms, k)?,
        }),
        1 => {
            let parts = cur.u32()?;
            Ok(WireRouting::Rule {
                k: parts,
                assignment: get_assignment(cur, parts)?,
            })
        }
        other => Err(NetError::protocol(format!("unknown routing tag {other}"))),
    }
}

fn put_stats(out: &mut Vec<u8>, s: &WireStats) {
    put_u64(out, s.rounds);
    put_u64(out, s.derived);
    put_u64(out, s.sent);
    put_u64(out, s.received);
    put_u64(out, s.reason_micros);
    put_u64(out, s.io_micros);
    put_u32(out, s.round_cpu_micros.len() as u32);
    for &us in &s.round_cpu_micros {
        put_u64(out, us);
    }
    put_u32(out, s.round_wire.len() as u32);
    for w in &s.round_wire {
        put_u64(out, w.bytes);
        put_u64(out, w.frames);
        put_u64(out, w.triples);
    }
    put_u64(out, s.output_size);
    put_u64(out, s.wire_sent_bytes);
    put_u64(out, s.wire_recv_bytes);
    put_u64(out, s.skipped);
    put_u64(out, s.io_retries);
}

fn get_stats(cur: &mut Cursor<'_>) -> Result<WireStats, NetError> {
    let rounds = cur.u64()?;
    let derived = cur.u64()?;
    let sent = cur.u64()?;
    let received = cur.u64()?;
    let reason_micros = cur.u64()?;
    let io_micros = cur.u64()?;
    let n = cur.u32()? as usize;
    if n > 1 << 20 {
        return Err(NetError::protocol(format!("round_cpu list of {n} entries")));
    }
    let mut round_cpu_micros = Vec::with_capacity(n);
    for _ in 0..n {
        round_cpu_micros.push(cur.u64()?);
    }
    let n = cur.u32()? as usize;
    if n > 1 << 20 {
        return Err(NetError::protocol(format!(
            "round_wire list of {n} entries"
        )));
    }
    let mut round_wire = Vec::with_capacity(n);
    for _ in 0..n {
        round_wire.push(WirePhase {
            bytes: cur.u64()?,
            frames: cur.u64()?,
            triples: cur.u64()?,
        });
    }
    Ok(WireStats {
        rounds,
        derived,
        sent,
        received,
        reason_micros,
        io_micros,
        round_cpu_micros,
        round_wire,
        output_size: cur.u64()?,
        wire_sent_bytes: cur.u64()?,
        wire_recv_bytes: cur.u64()?,
        skipped: cur.u64()?,
        io_retries: cur.u64()?,
    })
}

/// Encode a worker→master message body.
pub fn encode_worker_msg(m: &WorkerMsg) -> Vec<u8> {
    let mut out = Vec::new();
    match m {
        WorkerMsg::Hello { magic, version } => {
            out.push(TAG_HELLO);
            put_u32(&mut out, *magic);
            put_u32(&mut out, *version);
        }
        WorkerMsg::Ready { mesh_port } => {
            out.push(TAG_READY);
            out.extend_from_slice(&mesh_port.to_le_bytes());
        }
        WorkerMsg::RoundDone { round, sent } => {
            out.push(TAG_ROUND_DONE);
            put_u32(&mut out, *round);
            put_u64(&mut out, *sent);
        }
        WorkerMsg::FinalChunk { seq, batch } => {
            out.push(TAG_FINAL_CHUNK);
            put_u32(&mut out, *seq);
            put_triples(&mut out, batch);
        }
        WorkerMsg::Final { stats, run } => {
            out.push(TAG_FINAL);
            put_stats(&mut out, stats);
            put_triples(&mut out, run);
        }
        WorkerMsg::TraceChunk { payload } => {
            out.push(TAG_TRACE_CHUNK);
            put_u32(&mut out, payload.len() as u32);
            out.extend_from_slice(payload);
        }
    }
    out
}

/// Decode a worker→master message body. `n_terms` is the master's
/// dictionary size; every triple id is validated against it.
pub fn decode_worker_msg(body: &[u8], n_terms: u32) -> Result<WorkerMsg, NetError> {
    let mut cur = Cursor::new(body);
    let msg = match cur.u8()? {
        TAG_HELLO => WorkerMsg::Hello {
            magic: cur.u32()?,
            version: cur.u32()?,
        },
        TAG_READY => {
            let port = cur.take(2)?;
            WorkerMsg::Ready {
                mesh_port: u16::from_le_bytes([port[0], port[1]]),
            }
        }
        TAG_ROUND_DONE => WorkerMsg::RoundDone {
            round: cur.u32()?,
            sent: cur.u64()?,
        },
        TAG_FINAL_CHUNK => WorkerMsg::FinalChunk {
            seq: cur.u32()?,
            batch: get_triples(&mut cur, n_terms)?,
        },
        TAG_FINAL => WorkerMsg::Final {
            stats: get_stats(&mut cur)?,
            run: get_triples(&mut cur, n_terms)?,
        },
        TAG_TRACE_CHUNK => {
            let len = cur.u32()? as usize;
            if len > MAX_TRACE_CHUNK {
                return Err(NetError::protocol(format!(
                    "trace chunk of {len} bytes exceeds the {MAX_TRACE_CHUNK}-byte bound"
                )));
            }
            WorkerMsg::TraceChunk {
                payload: cur.take(len)?.to_vec(),
            }
        }
        other => return Err(NetError::protocol(format!("unknown worker message tag {other}"))),
    };
    cur.done()?;
    Ok(msg)
}

/// Encode a master→worker message body.
pub fn encode_master_msg(m: &MasterMsg) -> Vec<u8> {
    let mut out = Vec::new();
    match m {
        MasterMsg::Welcome {
            node_id,
            k,
            epoch,
            trace,
        } => {
            out.push(TAG_WELCOME);
            put_u32(&mut out, *node_id);
            put_u32(&mut out, *k);
            put_u64(&mut out, *epoch);
            out.push(u8::from(*trace));
        }
        MasterMsg::Reject { reason } => {
            out.push(TAG_REJECT);
            put_string(&mut out, reason);
        }
        MasterMsg::Setup(s) => {
            out.push(TAG_SETUP);
            put_u64(&mut out, s.round_timeout_ms);
            put_u32(&mut out, s.faults.len() as u32);
            for (round, fault) in &s.faults {
                put_u32(&mut out, *round);
                match fault {
                    WireFault::Panic => {
                        out.push(0);
                        put_u64(&mut out, 0);
                    }
                    WireFault::Disconnect => {
                        out.push(1);
                        put_u64(&mut out, 0);
                    }
                    WireFault::Delay { millis } => {
                        out.push(2);
                        put_u64(&mut out, *millis);
                    }
                }
            }
            put_peers(&mut out, &s.peers);
            // Triple blocks and the owner table are written sorted, so
            // equal setups encode to equal bytes.
            put_u32(&mut out, s.n_terms);
            put_materialization(&mut out, &s.materialization);
            put_triples(&mut out, &s.schema);
            put_triples(&mut out, &s.base);
            put_rules(&mut out, &s.all_rules);
            put_rule_refs(&mut out, &s.all_rules, &s.my_rules);
            put_routing(&mut out, &s.routing);
        }
        MasterMsg::Verdict { round, stop } => {
            out.push(TAG_VERDICT);
            put_u32(&mut out, *round);
            out.push(u8::from(*stop));
        }
    }
    out
}

/// Decode a master→worker message body. Only `Setup` carries triples,
/// and they are validated against the dictionary size it declares.
pub fn decode_master_msg(body: &[u8]) -> Result<MasterMsg, NetError> {
    let mut cur = Cursor::new(body);
    let msg = match cur.u8()? {
        TAG_WELCOME => MasterMsg::Welcome {
            node_id: cur.u32()?,
            k: cur.u32()?,
            epoch: cur.u64()?,
            trace: cur.u8()? != 0,
        },
        TAG_REJECT => MasterMsg::Reject {
            reason: cur.string()?,
        },
        TAG_SETUP => {
            let round_timeout_ms = cur.u64()?;
            let n_faults = cur.u32()? as usize;
            if n_faults > 1 << 16 {
                return Err(NetError::protocol(format!("{n_faults} fault entries")));
            }
            let mut faults = Vec::with_capacity(n_faults);
            for _ in 0..n_faults {
                let round = cur.u32()?;
                let tag = cur.u8()?;
                let param = cur.u64()?;
                let fault = match tag {
                    0 => WireFault::Panic,
                    1 => WireFault::Disconnect,
                    2 => WireFault::Delay { millis: param },
                    other => {
                        return Err(NetError::protocol(format!("unknown fault tag {other}")))
                    }
                };
                faults.push((round, fault));
            }
            let peers = get_peers(&mut cur)?;
            let n_terms = cur.u32()?;
            let materialization = get_materialization(&mut cur)?;
            let schema = get_triples(&mut cur, n_terms)?;
            let base = get_triples(&mut cur, n_terms)?;
            let all_rules = get_rules(&mut cur, n_terms)?;
            let my_rules = get_rule_refs(&mut cur, &all_rules, n_terms)?;
            let routing = get_routing(&mut cur, n_terms, u32::MAX)?;
            MasterMsg::Setup(Box::new(Setup {
                round_timeout_ms,
                faults,
                peers,
                n_terms,
                materialization,
                schema,
                base,
                all_rules,
                my_rules,
                routing,
            }))
        }
        TAG_VERDICT => MasterMsg::Verdict {
            round: cur.u32()?,
            stop: cur.u8()? != 0,
        },
        other => return Err(NetError::protocol(format!("unknown master message tag {other}"))),
    };
    cur.done()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use owlpar_datalog::ast::build::{atom, c, v};

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    fn rules() -> Vec<Rule> {
        vec![
            Rule::new(
                "p2q",
                atom(v(0), c(NodeId(9)), v(1)),
                vec![atom(v(0), c(NodeId(8)), v(1))],
            )
            .unwrap(),
            Rule::new(
                "join",
                atom(v(0), c(NodeId(7)), v(2)),
                vec![
                    atom(v(0), c(NodeId(8)), v(1)),
                    atom(v(1), c(NodeId(8)), v(2)),
                ],
            )
            .unwrap(),
        ]
    }

    fn setup() -> Setup {
        Setup {
            round_timeout_ms: 30_000,
            faults: vec![(1, WireFault::Disconnect), (2, WireFault::Delay { millis: 5 })],
            peers: peers(),
            n_terms: 10,
            materialization: MaterializationStrategy::ForwardSemiNaive,
            schema: vec![t(0, 1, 2)],
            base: vec![t(3, 4, 5), t(6, 7, 8)],
            all_rules: rules(),
            my_rules: rules()[..1].to_vec(),
            routing: WireRouting::Data {
                owner: vec![(NodeId(3), 0), (NodeId(6), 1)],
            },
        }
    }

    fn encode_setup(s: &Setup) -> Vec<u8> {
        encode_master_msg(&MasterMsg::Setup(Box::new(s.clone())))
    }

    fn decode_setup(body: &[u8]) -> Setup {
        match decode_master_msg(body).unwrap() {
            MasterMsg::Setup(s) => *s,
            other => panic!("expected Setup, got {other:?}"),
        }
    }

    /// A two-worker peer table, one address of each IP family.
    fn peers() -> Vec<(u32, SocketAddr)> {
        vec![
            (1, "[::1]:7001".parse().unwrap()),
            (0, "10.0.0.7:65535".parse().unwrap()),
        ]
    }

    #[test]
    fn worker_messages_roundtrip() {
        let msgs = [
            WorkerMsg::Hello {
                magic: WIRE_MAGIC,
                version: PROTOCOL_VERSION,
            },
            WorkerMsg::Ready { mesh_port: 40_123 },
            WorkerMsg::Ready { mesh_port: 0 },
            WorkerMsg::RoundDone { round: 7, sent: 99 },
            WorkerMsg::FinalChunk {
                seq: 2,
                batch: vec![t(0, 0, 1), t(0, 0, 2)],
            },
            WorkerMsg::Final {
                stats: WireStats {
                    rounds: 4,
                    derived: 100,
                    sent: 20,
                    received: 30,
                    reason_micros: 1234,
                    io_micros: 56,
                    round_cpu_micros: vec![10, 20, 30],
                    round_wire: vec![
                        WirePhase {
                            bytes: 90,
                            frames: 3,
                            triples: 12,
                        },
                        WirePhase::default(),
                    ],
                    output_size: 500,
                    wire_sent_bytes: 4096,
                    wire_recv_bytes: 8192,
                    skipped: 2,
                    io_retries: 5,
                },
                run: vec![t(0, 1, 2)],
            },
            WorkerMsg::TraceChunk {
                payload: vec![0x01, 0x02, 0x03],
            },
        ];
        for m in msgs {
            let body = encode_worker_msg(&m);
            assert_eq!(decode_worker_msg(&body, 10).unwrap(), m);
        }
    }

    #[test]
    fn setup_encoding_is_order_independent() {
        let mut shuffled = setup();
        shuffled.base.reverse();
        if let WireRouting::Data { owner } = &mut shuffled.routing {
            owner.reverse();
        }
        assert_eq!(encode_setup(&setup()), encode_setup(&shuffled));
    }

    #[test]
    fn my_rules_ship_as_references_not_copies() {
        // With `my == all` (data partitioning), the second rule list
        // must cost ~1 varint per rule, not a full re-encoding.
        let mut p = setup();
        p.my_rules = p.all_rules.clone();
        let with_refs = encode_setup(&p).len();
        p.my_rules = vec![];
        let without = encode_setup(&p).len();
        assert!(
            with_refs <= without + 2 * rules().len() + 1,
            "{} rules cost {} extra bytes",
            rules().len(),
            with_refs - without
        );
    }

    #[test]
    fn my_rule_outside_the_base_is_inlined_and_roundtrips() {
        let mut p = setup();
        p.my_rules = vec![Rule::new(
            "local-only",
            atom(v(0), c(NodeId(5)), v(1)),
            vec![atom(v(0), c(NodeId(4)), v(1))],
        )
        .unwrap()];
        assert!(!p.all_rules.contains(&p.my_rules[0]));
        let body = encode_setup(&p);
        let got = decode_setup(&body);
        assert_eq!(got.my_rules, p.my_rules);
        assert_eq!(encode_setup(&got), body);
    }

    #[test]
    fn rule_reference_outside_the_base_is_rejected() {
        let all = rules();
        let mut buf = Vec::new();
        put_varint32(&mut buf, 1); // one rule...
        put_varint32(&mut buf, all.len() as u32 + 1); // ...past the base
        let err = get_rule_refs(&mut Cursor::new(&buf), &all, 10).unwrap_err();
        assert!(err.to_string().contains("rule reference"), "{err}");
    }

    #[test]
    fn master_messages_roundtrip() {
        let p = setup();
        let body = encode_setup(&p);
        let got = decode_setup(&body);
        assert_eq!(got.round_timeout_ms, p.round_timeout_ms);
        assert_eq!(got.faults, p.faults);
        assert_eq!(got.peers, p.peers);
        assert_eq!(got.n_terms, p.n_terms);
        assert_eq!(got.schema, p.schema);
        assert_eq!(got.base, p.base);
        assert_eq!(got.all_rules, p.all_rules);
        assert_eq!(got.my_rules, p.my_rules);
        assert_eq!(got.routing, p.routing);
        // Canonical: re-encoding the decode reproduces the bytes.
        assert_eq!(encode_setup(&got), body);

        for stop in [false, true] {
            let body = encode_master_msg(&MasterMsg::Verdict { round: 3, stop });
            let MasterMsg::Verdict { round, stop: got } = decode_master_msg(&body).unwrap() else {
                panic!("wrong variant");
            };
            assert_eq!((round, got), (3, stop));
        }
    }

    /// The peer table names every worker of the cluster exactly once; a
    /// table of the wrong length, or naming a worker outside the
    /// cluster, is a typed protocol error.
    #[test]
    fn peer_tables_are_checked_against_the_cluster_size() {
        let table = peers();
        let addrs = mesh_peers(&table, 2).unwrap();
        assert_eq!(addrs, vec![table[1].1, table[0].1], "indexed by worker id");
        for (bad, k, why) in [
            (table.clone(), 3, "entries for a cluster of 3"),
            (table[..1].to_vec(), 2, "entries for a cluster of 2"),
            (
                vec![table[0], (2, table[1].1)],
                2,
                "worker 2 twice or out of range",
            ),
            (vec![table[0], table[0]], 2, "twice"),
        ] {
            let err = mesh_peers(&bad, k).unwrap_err();
            assert!(matches!(err, NetError::Protocol { .. }), "{err}");
            assert!(err.to_string().contains(why), "{err}");
        }
    }

    #[test]
    fn rule_routing_roundtrip() {
        let routing = WireRouting::Rule {
            k: 3,
            assignment: vec![0, 2, 1],
        };
        let mut out = Vec::new();
        put_routing(&mut out, &routing);
        let mut cur = Cursor::new(&out);
        assert_eq!(get_routing(&mut cur, 10, u32::MAX).unwrap(), routing);
        cur.done().unwrap();
    }

    #[test]
    fn owner_table_delta_encoding_sorts_and_compresses() {
        // Unsorted input encodes to the same bytes as sorted input...
        let sorted: Vec<(NodeId, u32)> = (0..1000u32).map(|n| (NodeId(n), n % 4)).collect();
        let mut reversed = sorted.clone();
        reversed.reverse();
        let mut a = Vec::new();
        let mut b = Vec::new();
        put_owner(&mut a, &sorted);
        put_owner(&mut b, &reversed);
        assert_eq!(a, b);
        // ...decodes back to the sorted table...
        let mut cur = Cursor::new(&a);
        assert_eq!(get_owner(&mut cur, 1000, 4).unwrap(), sorted);
        cur.done().unwrap();
        // ...and a dense table costs ~2 bytes/pair, not 8.
        assert!(
            a.len() < 3 * sorted.len(),
            "dense owner table took {} bytes for {} pairs",
            a.len(),
            sorted.len()
        );
    }

    #[test]
    fn owner_table_rejects_overflowing_delta() {
        let mut out = Vec::new();
        put_varint32(&mut out, 2); // two entries
        put_varint32(&mut out, u32::MAX - 1); // node u32::MAX - 1
        put_varint32(&mut out, 0); // worker 0
        put_varint32(&mut out, 1); // gap ⇒ node u32::MAX + 1: overflow
        put_varint32(&mut out, 0);
        let mut cur = Cursor::new(&out);
        let err = get_owner(&mut cur, u32::MAX, 4).unwrap_err();
        assert!(err.to_string().contains("overflow"), "got: {err}");
    }

    #[test]
    fn owner_table_count_is_bounds_checked_before_allocation() {
        let mut out = Vec::new();
        put_varint32(&mut out, u32::MAX); // claims 4G entries, no bytes follow
        let mut cur = Cursor::new(&out);
        let err = get_owner(&mut cur, 10, 2).unwrap_err();
        assert!(err.to_string().contains("claims"), "got: {err}");
    }

    #[test]
    fn out_of_dictionary_ids_are_protocol_violations() {
        let body = encode_worker_msg(&WorkerMsg::FinalChunk {
            seq: 0,
            batch: vec![t(1, 2, 999)],
        });
        let err = decode_worker_msg(&body, 10).unwrap_err();
        assert!(matches!(err, NetError::Protocol { .. }));
        assert!(err.to_string().contains("dictionary"));
    }

    #[test]
    fn truncation_at_every_cut_is_rejected_not_panicking() {
        let body = encode_setup(&Setup {
            materialization: MaterializationStrategy::ForwardParallel { threads: 2 },
            base: vec![t(3, 4, 5)],
            my_rules: rules(),
            routing: WireRouting::Rule {
                k: 2,
                assignment: vec![0, 1],
            },
            ..setup()
        });
        // The Setup carries the peer table (both address families) and
        // the partition; the Verdict closes every round.
        let verdict = encode_master_msg(&MasterMsg::Verdict {
            round: 9,
            stop: true,
        });
        for body in [body, verdict] {
            for cut in 0..body.len() {
                let err = decode_master_msg(&body[..cut]).unwrap_err();
                assert!(
                    matches!(err, NetError::Protocol { .. }),
                    "cut at {cut} must be a protocol error, got {err}"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut body = encode_worker_msg(&WorkerMsg::RoundDone { round: 0, sent: 0 });
        body.push(0xaa);
        let err = decode_worker_msg(&body, 10).unwrap_err();
        assert!(err.to_string().contains("trailing"));
        let mut body = encode_setup(&setup());
        body.push(0xaa);
        assert!(decode_master_msg(&body).unwrap_err().to_string().contains("trailing"));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(decode_worker_msg(&[0xfe], 10).is_err());
        assert!(decode_master_msg(&[0xfe]).is_err());
        assert!(decode_worker_msg(&[], 10).is_err(), "empty body");
        // Routing tag 2 is the rules × data grid an earlier version-5
        // master wrote (`shards | owner table | groups | assignment`). A
        // worker refuses it by its tag, whole or cut short, without
        // reading any of the body.
        let mut grid = vec![2u8];
        put_u32(&mut grid, 2);
        put_owner(&mut grid, &[(NodeId(1), 0)]);
        put_u32(&mut grid, 2);
        put_assignment(&mut grid, &[0, 1]);
        for cut in 1..=grid.len() {
            let err = get_routing(&mut Cursor::new(&grid[..cut]), 10, 4).unwrap_err();
            assert!(matches!(err, NetError::Protocol { .. }), "cut {cut}: {err}");
            assert!(err.to_string().contains("unknown routing tag 2"), "{err}");
        }
    }

    #[test]
    fn oversized_string_is_rejected_before_allocation() {
        let mut body = vec![TAG_REJECT];
        put_u32(&mut body, u32::MAX); // claims a 4 GiB reason
        let err = decode_master_msg(&body).unwrap_err();
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn ownership_bounds_are_validated() {
        // worker id out of range
        let mut out = vec![0u8]; // Data routing tag
        put_varint32(&mut out, 1); // one pair
        put_varint32(&mut out, 3); // node 3 (< n_terms)
        put_varint32(&mut out, 9); // worker 9 of k=2
        let mut cur = Cursor::new(&out);
        assert!(get_routing(&mut cur, 10, 2).is_err());
    }

    /// The `Hello` body (`tag | magic | version`) of every earlier
    /// version keeps decoding — a version mismatch has to surface as a
    /// typed `Reject`, which requires both sides to parse each other's
    /// opener. v4 is the last relaying version, v5 the last with a
    /// partition cache.
    #[test]
    fn older_hello_layouts_still_decode() {
        for old in [1, 4, 5] {
            let mut body = vec![TAG_HELLO];
            put_u32(&mut body, WIRE_MAGIC);
            put_u32(&mut body, old);
            let WorkerMsg::Hello { magic, version } = decode_worker_msg(&body, 0).unwrap() else {
                panic!("wrong variant");
            };
            assert_eq!((magic, version), (WIRE_MAGIC, old));
            assert_eq!(
                body,
                encode_worker_msg(&WorkerMsg::Hello { magic, version })
            );
        }
    }

    /// Compact triple blocks actually shrink a dense batch on the wire.
    #[test]
    fn triple_frames_are_compact_for_dense_batches() {
        let batch: Vec<Triple> = (0..2000u32).map(|i| t(i / 50, 3, 10 + i % 50)).collect();
        let body = encode_worker_msg(&WorkerMsg::FinalChunk {
            seq: 0,
            batch: batch.clone(),
        });
        assert!(
            body.len() * 3 < batch.len() * 12,
            "compact batch of {} triples took {} bytes (raw would be {})",
            batch.len(),
            body.len(),
            batch.len() * 12
        );
        let WorkerMsg::FinalChunk { batch: got, .. } = decode_worker_msg(&body, 4000).unwrap()
        else {
            panic!("wrong variant");
        };
        let mut sorted = batch;
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(got, sorted);
    }
}
