//! The multi-process star runtime: one master process, `k` worker
//! processes, all exchange through the master over TCP.
//!
//! The master runs the same pre-spawn half of Algorithm 3 the in-process
//! runtime uses — [`prepare_run`] compiles, lints and partitions — then
//! ships each worker its partition, rule subsets and routing table over
//! the versioned bootstrap protocol (`protocol`), and ends in the same
//! tail ([`finish_run`]: aggregate, recover, report). A worker runs the
//! one round loop there is ([`run_rounds`]) over its master connection
//! (`ClusterLink`, this runtime's [`RoundLink`]): it closes its local
//! partition, routes fresh derivations, sends them (as `Triples` frames
//! relayed through the master), announces `RoundDone`, and blocks until
//! the master's `Deliver` hands it the round verdict plus its inbound
//! triples. The verdict is the paper's termination test — a round in
//! which nobody sent anything — computed from the per-round send counts
//! every `RoundDone` carries, so it is reached by every worker in the
//! same round, just like the in-process cumulative-counter check.
//!
//! ## Star, not mesh
//!
//! Relaying rounds through the master costs each triple two hops but
//! buys the failure model: the master observes every worker through one
//! connection with a deadline, so a dead, hung or defecting worker is
//! detected at the next read and the run flows into the same
//! adopt-and-reclose recovery the in-process master uses ([`RunPlan`]'s
//! recoverability rule is shared). The peer-to-peer TCP path without a
//! coordinator is the in-process mesh (`transport`).
//!
//! ## Failure discipline
//!
//! Bootstrap failures are fatal — a cluster that cannot assemble its `k`
//! workers and ship every partition refuses to start, because a partial
//! start could silently compute a partial closure. Mid-run failures are
//! recoverable: survivors drain at the next verdict (any death forces
//! `stop`), their derived-only runs are merged into the master graph
//! (which still holds every base triple; each run is a subset of the
//! closure), and — for data partitioning under
//! [`FaultRecovery::AdoptAndReclose`] — a serial re-close reproduces
//! exactly the serial closure, monotonicity doing the proof.

use crate::cache::PartitionCache;
use crate::protocol::{
    decode_master_msg, decode_setup_payload, decode_worker_msg, encode_master_msg,
    encode_setup_payload, encode_worker_msg, CacheEntry, MasterMsg,
    NetError, Setup, SetupPayload, WireFault, WireRouting, WireStats, WorkerMsg, PROTOCOL_VERSION,
    WIRE_MAGIC,
};
use owlpar_core::config::RoundMode;
use owlpar_core::master::{finish_run, resolve_materialization};
use owlpar_core::stats::{WireBytes, WirePhase, WireRound};
use owlpar_core::worker::{run_rounds, RoundLink, Routing, WorkerCtx};
use owlpar_core::{
    digest128, prepare_run, read_crc_frame, write_crc_frame, Backoff, CommError, FaultKind,
    ParallelConfig, RunError, RunReport, WorkerError,
};
use owlpar_datalog::{Reasoner, Rule};
use owlpar_obs::json::obj;
use owlpar_obs::{wire as obs_wire, Metric, Phase, Recorder, Track, NO_ROUND};
use owlpar_partition::RulePartitions;
use owlpar_rdf::fx::FxHashMap;
use owlpar_rdf::{Graph, Triple};
use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Frame envelope cost of the shared codec (`len u32 | crc u32`).
const FRAME_OVERHEAD: u64 = 8;

/// Default chunk bound for streamed transfers (`Triples`, `FinalChunk`,
/// `DeliverChunk`), in triples. One chunk encodes well under the 64 MB
/// per-frame payload cap even at the raw-equivalent 12 bytes/triple;
/// transfers of any size stream as chunk sequences, so the cap no
/// longer limits result size. Tests lower it to force multi-chunk
/// streams on tiny KBs.
pub const DEFAULT_CHUNK_TRIPLES: usize = 1 << 20;

/// Master-side knobs (everything else comes from [`ParallelConfig`]).
#[derive(Debug, Clone)]
pub struct MasterOptions {
    /// Run epoch carried in every `Welcome` — lets a worker (and its
    /// logs) tell two runs on the same port apart.
    pub epoch: u64,
    /// How long the master waits for all `k` workers to dial in and
    /// complete their handshake before refusing to start.
    pub accept_timeout: Duration,
    /// Most triples per streamed chunk frame (`DeliverChunk` splitting).
    pub chunk_triples: usize,
    /// Telemetry sink. `Some(enabled recorder)` turns the `trace` flag
    /// on in every `Welcome`, making workers record phase spans and ship
    /// them back as `TraceChunk` frames; the master merges them into
    /// this recorder (clock-offset corrected) alongside its own relay
    /// lane. `None` (default) keeps the run telemetry-free — workers
    /// are told not to record and ship nothing.
    pub trace: Option<Recorder>,
}

impl Default for MasterOptions {
    fn default() -> Self {
        MasterOptions {
            epoch: 0,
            accept_timeout: Duration::from_secs(60),
            chunk_triples: DEFAULT_CHUNK_TRIPLES,
            trace: None,
        }
    }
}

/// Worker-side knobs.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// How long the worker keeps dialing (with capped exponential
    /// backoff) before giving up; also the handshake read patience.
    pub connect_timeout: Duration,
    /// Where to persist shipped partitions for digest-keyed reuse
    /// across runs; `None` disables the cache (every run ships full).
    pub cache_dir: Option<PathBuf>,
    /// Most triples per streamed chunk frame (`Triples`/`FinalChunk`
    /// splitting).
    pub chunk_triples: usize,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            connect_timeout: Duration::from_secs(30),
            cache_dir: None,
            chunk_triples: DEFAULT_CHUNK_TRIPLES,
        }
    }
}

// ---------------------------------------------------------------------
// wire accounting
// ---------------------------------------------------------------------

/// Master-side wire accounting, updated concurrently by the
/// per-connection handler threads. The star topology makes the master
/// the authoritative vantage point: every frame of the run crosses it
/// exactly once.
#[derive(Debug, Default)]
struct WireLedger {
    setup: PhaseCounters,
    rounds: PhaseCounters,
    finals: PhaseCounters,
    control_bytes: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Round-phase traffic broken out per round number:
    /// `round → (bytes, triples)`. Inbound `Triples` frames carry no
    /// round number, so each handler buffers them and flushes the
    /// accumulator when the worker's `RoundDone(r)` labels the batch;
    /// outbound `DeliverChunk`/`Deliver` are charged to their explicit
    /// round. A `BTreeMap` under a mutex — a handful of handler threads
    /// touching it once per frame burst, never on the triple hot path.
    per_round: Mutex<BTreeMap<u32, (u64, u64)>>,
}

/// One phase's `[bytes, frames, triples]`.
#[derive(Debug, Default)]
struct PhaseCounters([AtomicU64; 3]);

impl PhaseCounters {
    /// Charge one frame of `body_len` bytes carrying `triples` triples.
    fn add(&self, body_len: usize, triples: usize) {
        let [bytes, frames, n] = &self.0;
        bytes.fetch_add(body_len as u64 + FRAME_OVERHEAD, Ordering::Relaxed);
        frames.fetch_add(1, Ordering::Relaxed);
        n.fetch_add(triples as u64, Ordering::Relaxed);
    }

    fn load(&self) -> WirePhase {
        let [bytes, frames, triples] = self.0.each_ref().map(|c| c.load(Ordering::Relaxed));
        WirePhase {
            bytes,
            frames,
            triples,
        }
    }
}

impl WireLedger {
    fn control_frame(&self, body_len: usize) {
        self.control_bytes
            .fetch_add(body_len as u64 + FRAME_OVERHEAD, Ordering::Relaxed);
    }

    /// Charge `bytes`/`triples` of round-phase traffic to round `round`.
    fn round_traffic(&self, round: u32, bytes: u64, triples: u64) {
        if bytes == 0 && triples == 0 {
            return;
        }
        if let Ok(mut per_round) = self.per_round.lock() {
            let slot = per_round.entry(round).or_insert((0, 0));
            slot.0 += bytes;
            slot.1 += triples;
        }
    }

    fn cache_outcome(&self, hit: bool) {
        if hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> WireBytes {
        let per_round = self
            .per_round
            .lock()
            .map(|m| {
                m.iter()
                    .map(|(&round, &(bytes, triples))| WireRound {
                        round,
                        bytes,
                        triples,
                    })
                    .collect()
            })
            .unwrap_or_default();
        WireBytes {
            setup: self.setup.load(),
            rounds: self.rounds.load(),
            finals: self.finals.load(),
            control_bytes: self.control_bytes.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            per_round,
        }
    }
}

/// What a worker process reports when its run completed cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Identity the master assigned in `Welcome`.
    pub node_id: u32,
    /// Cluster size.
    pub k: u32,
    /// Run epoch.
    pub epoch: u64,
    /// Rounds participated in.
    pub rounds: usize,
    /// Triples derived locally.
    pub derived: usize,
    /// Final size of the full local store (shipped partition + gained).
    pub store_len: usize,
    /// Triples sent (with multiplicity).
    pub sent: u64,
}

fn handshake_err(detail: impl Into<String>) -> NetError {
    NetError::Handshake {
        detail: detail.into(),
    }
}

fn send_master(stream: &mut TcpStream, msg: &MasterMsg) -> Result<(), NetError> {
    write_crc_frame(stream, &encode_master_msg(msg)).map_err(NetError::from)
}

// ---------------------------------------------------------------------
// master
// ---------------------------------------------------------------------

/// What a connection-handler thread distills worker frames into.
enum Event {
    /// The worker routed a batch to worker `to`.
    Routed {
        from: usize,
        to: usize,
        batch: Vec<Triple>,
    },
    /// The worker finished a round's sends.
    Done {
        from: usize,
        round: usize,
        sent: u64,
    },
    /// The worker delivered its final counters and derived-only run.
    Final {
        from: usize,
        stats: WireStats,
        run: Vec<Triple>,
    },
    /// The connection is gone (EOF, deadline, CRC damage, bad grammar).
    Dead { from: usize, detail: String },
}

/// Per-connection pump: frames in → events out, `Deliver`s written back
/// when the coordinator releases the round. Exits on `Final`, on any
/// connection error, or when the coordinator drops the delivery sender
/// (the worker was declared dead).
///
/// Large deliveries are split here into `DeliverChunk* Deliver` at
/// `chunk` triples per frame; inbound `FinalChunk` sequences are
/// reassembled here (sequence numbers and ascent across chunk seams
/// checked), so the coordinator only ever sees whole sorted runs.
/// Every frame is charged to the shared [`WireLedger`].
///
/// When `trace` is set, inbound `TraceChunk` frames accumulate here and
/// are absorbed into the recorder (as `worker {id}`, pid `id + 1`) when
/// the pump exits — on `Final` and on death alike, so a crashed
/// worker's spans up to its last chunk still reach the merged timeline.
#[allow(clippy::too_many_arguments)] // internal pump; the master wires it up once
fn handle_worker(
    id: usize,
    stream: TcpStream,
    n_terms: u32,
    chunk: usize,
    ledger: &WireLedger,
    events: &mpsc::Sender<Event>,
    delivery: &mpsc::Receiver<MasterMsg>,
    trace: Option<&Recorder>,
) {
    let mut acc = TraceAcc::default();
    pump_worker(
        id, stream, n_terms, chunk, ledger, events, delivery, trace, &mut acc,
    );
    if let (Some(rec), false) = (trace, acc.events.is_empty()) {
        rec.absorb(
            &acc.events,
            &format!("worker {id}"),
            id as u32 + 1,
            acc.offset_us.unwrap_or(0),
        );
    }
}

/// Worker telemetry accumulated by one connection handler: decoded
/// events plus the best clock-offset estimate — the minimum of
/// `master receipt − worker clock` over all chunks, because the chunk
/// with the smallest transit delay bounds the offset tightest.
#[derive(Default)]
struct TraceAcc {
    events: Vec<owlpar_obs::Event>,
    offset_us: Option<i64>,
}

#[allow(clippy::too_many_arguments)] // split from handle_worker, same wiring
fn pump_worker(
    id: usize,
    mut stream: TcpStream,
    n_terms: u32,
    chunk: usize,
    ledger: &WireLedger,
    events: &mpsc::Sender<Event>,
    delivery: &mpsc::Receiver<MasterMsg>,
    trace: Option<&Recorder>,
    acc: &mut TraceAcc,
) {
    let dead = |detail: String| {
        let _ = events.send(Event::Dead { from: id, detail });
    };
    let chunk = chunk.max(1);
    let mut final_acc: Vec<Triple> = Vec::new();
    let mut next_seq = 0u32;
    // Each block decodes strictly ascending; the run must keep ascending
    // from one block to the next.
    let breaks_ascent = |acc: &[Triple], next: &[Triple]| match (acc.last(), next.first()) {
        (Some(last), Some(first)) => last >= first,
        _ => false,
    };
    // Inbound round traffic awaiting a round label (see
    // `WireLedger::per_round`): `(bytes, triples)`.
    let mut pending = (0u64, 0u64);
    loop {
        let body = match read_crc_frame(&mut stream) {
            Ok(b) => b,
            Err(e) => return dead(format!("reading from worker {id}: {e}")),
        };
        match decode_worker_msg(&body, n_terms) {
            Ok(WorkerMsg::Triples { to, batch }) => {
                ledger.rounds.add(body.len(), batch.len());
                pending.0 += body.len() as u64 + FRAME_OVERHEAD;
                pending.1 += batch.len() as u64;
                let routed = Event::Routed {
                    from: id,
                    to: to as usize,
                    batch,
                };
                if events.send(routed).is_err() {
                    return;
                }
            }
            Ok(WorkerMsg::RoundDone { round, sent }) => {
                ledger.control_frame(body.len());
                ledger.round_traffic(round, pending.0, pending.1);
                pending = (0, 0);
                let done = Event::Done {
                    from: id,
                    round: round as usize,
                    sent,
                };
                if events.send(done).is_err() {
                    return;
                }
                // Block until the coordinator releases the round for this
                // worker; a closed channel means we were declared dead.
                let Ok(msg) = delivery.recv() else { return };
                let MasterMsg::Deliver {
                    round,
                    stop,
                    mut triples,
                } = msg
                else {
                    return dead(format!("coordinator queued a non-Deliver for worker {id}"));
                };
                // Stream the bulk as bounded chunks; the verdict frame
                // carries the tail, so the worker needs no chunk count
                // up front and any inbox size fits under the frame cap.
                let mut offset = 0usize;
                while triples.len() - offset > chunk {
                    let part = MasterMsg::DeliverChunk {
                        round,
                        batch: triples[offset..offset + chunk].to_vec(),
                    };
                    let part_body = encode_master_msg(&part);
                    ledger.rounds.add(part_body.len(), chunk);
                    ledger.round_traffic(round, part_body.len() as u64 + FRAME_OVERHEAD, chunk as u64);
                    if let Err(e) = write_crc_frame(&mut stream, &part_body) {
                        return dead(format!("delivering round chunk to worker {id}: {e}"));
                    }
                    offset += chunk;
                }
                triples.drain(..offset);
                let tail = triples.len();
                let verdict = MasterMsg::Deliver {
                    round,
                    stop,
                    triples,
                };
                let verdict_body = encode_master_msg(&verdict);
                ledger.rounds.add(verdict_body.len(), tail);
                ledger.round_traffic(round, verdict_body.len() as u64 + FRAME_OVERHEAD, tail as u64);
                if let Err(e) = write_crc_frame(&mut stream, &verdict_body) {
                    return dead(format!("delivering round to worker {id}: {e}"));
                }
            }
            Ok(WorkerMsg::FinalChunk { seq, batch }) => {
                ledger.finals.add(body.len(), batch.len());
                if seq != next_seq {
                    return dead(format!(
                        "worker {id} sent final chunk {seq}, expected {next_seq}"
                    ));
                }
                if breaks_ascent(&final_acc, &batch) {
                    return dead(format!("worker {id}'s final chunk {seq} breaks the run's ascent"));
                }
                next_seq += 1;
                final_acc.extend(batch);
            }
            Ok(WorkerMsg::Final { stats, run }) => {
                ledger.finals.add(body.len(), run.len());
                if breaks_ascent(&final_acc, &run) {
                    return dead(format!("worker {id}'s Final breaks the run's ascent"));
                }
                final_acc.extend(run);
                let _ = events.send(Event::Final {
                    from: id,
                    stats,
                    run: final_acc,
                });
                return;
            }
            Ok(WorkerMsg::TraceChunk { payload }) => {
                ledger.control_frame(body.len());
                // Tolerated-but-dropped when tracing is off: the Welcome
                // told this worker not to send any, but a stray chunk is
                // not worth killing the run over.
                let Some(rec) = trace else { continue };
                let receipt = i64::try_from(rec.now_us()).unwrap_or(i64::MAX);
                match obs_wire::decode_trace_chunk(&payload) {
                    Ok(chunk) => {
                        let clock = i64::try_from(chunk.clock_us).unwrap_or(i64::MAX);
                        let offset = receipt.saturating_sub(clock);
                        acc.offset_us = Some(acc.offset_us.map_or(offset, |o| o.min(offset)));
                        acc.events.extend(chunk.events);
                    }
                    Err(e) => {
                        return dead(format!("undecodable trace chunk from worker {id}: {e}"))
                    }
                }
            }
            Ok(WorkerMsg::Hello { .. } | WorkerMsg::CacheAdvert { .. }) => {
                return dead(format!("worker {id} repeated the handshake mid-run"))
            }
            Err(e) => return dead(format!("undecodable message from worker {id}: {e}")),
        }
    }
}

/// The worker-level faults planned for worker `id` — transport-internal
/// kinds (IO flakes, corruption) stay in-process and do not ship.
fn wire_faults(cfg: &ParallelConfig, id: usize) -> Vec<(u32, WireFault)> {
    cfg.fault
        .iter()
        .flat_map(|p| p.events.iter())
        .filter(|e| e.worker == id)
        .filter_map(|e| {
            let fault = match e.kind {
                FaultKind::Panic => WireFault::Panic,
                FaultKind::Disconnect => WireFault::Disconnect,
                FaultKind::Delay { millis } => WireFault::Delay { millis },
                _ => return None,
            };
            Some((e.round as u32, fault))
        })
        .collect()
}

/// Accept one worker and run the versioned handshake
/// (`Hello → Welcome → CacheAdvert`). Returns the stream, ready for
/// `Setup`, plus the cache entries the worker advertised.
fn accept_worker(
    listener: &TcpListener,
    deadline: Instant,
    node_id: u32,
    k: u32,
    opts: &MasterOptions,
    ledger: &WireLedger,
) -> Result<(TcpStream, Vec<CacheEntry>), NetError> {
    // Poll the nonblocking listener with the shared backoff so a slow
    // cluster assembly neither busy-spins nor oversleeps the deadline.
    let mut backoff = Backoff::new(Duration::from_millis(1), Duration::from_millis(50));
    let mut stream = loop {
        match listener.accept() {
            Ok((s, _)) => break s,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(handshake_err(format!(
                        "worker {node_id}/{k} never connected within {:?}",
                        opts.accept_timeout
                    )));
                }
                backoff.sleep();
            }
            Err(e) => return Err(NetError::Io(e)),
        }
    };
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(opts.accept_timeout))?;
    stream.set_write_timeout(Some(opts.accept_timeout))?;

    let body = read_crc_frame(&mut stream)?;
    ledger.control_frame(body.len());
    // The dictionary bound is irrelevant during the handshake — Hello
    // carries no triples.
    match decode_worker_msg(&body, u32::MAX)? {
        WorkerMsg::Hello { magic, version }
            if magic == WIRE_MAGIC && version == PROTOCOL_VERSION =>
        {
            let welcome = encode_master_msg(&MasterMsg::Welcome {
                node_id,
                k,
                epoch: opts.epoch,
                trace: opts.trace.as_ref().is_some_and(Recorder::is_enabled),
            });
            ledger.control_frame(welcome.len());
            write_crc_frame(&mut stream, &welcome)?;
            // The advert follows immediately — an empty one when the
            // worker has no cache.
            let advert = read_crc_frame(&mut stream)?;
            ledger.control_frame(advert.len());
            match decode_worker_msg(&advert, u32::MAX)? {
                WorkerMsg::CacheAdvert { entries } => Ok((stream, entries)),
                other => Err(handshake_err(format!(
                    "expected CacheAdvert after Welcome, got {other:?}"
                ))),
            }
        }
        WorkerMsg::Hello { magic, version } => {
            let reason = format!(
                "incompatible hello: magic {magic:#010x} version {version}, \
                 this master speaks {WIRE_MAGIC:#010x} version {PROTOCOL_VERSION}"
            );
            let _ = send_master(&mut stream, &MasterMsg::Reject { reason: reason.clone() });
            Err(handshake_err(reason))
        }
        other => Err(handshake_err(format!(
            "expected Hello from connecting worker, got {other:?}"
        ))),
    }
}

/// Digest of the partitioning configuration — everything that changes
/// *which bytes* a worker's partition payload holds, beyond the input
/// KB itself. The payload digest is the actual correctness check; this
/// merely keys the cache so config changes don't thrash one entry.
fn config_digest(
    cfg: &ParallelConfig,
    k: usize,
    materialization: owlpar_datalog::MaterializationStrategy,
) -> [u8; 16] {
    let fp = format!(
        "k={k}|strategy={:?}|materialization={materialization:?}|extra_rules={}|unsafe_rules={:?}",
        cfg.strategy,
        cfg.extra_rules.len(),
        cfg.unsafe_rules,
    );
    digest128(fp.as_bytes())
}

/// Run a cluster master over `listener`: assemble `cfg.k` workers, ship
/// partitions, coordinate rounds to quiescence, aggregate the closure
/// into `graph`. The report is shaped exactly like
/// [`run_parallel`](owlpar_core::run_parallel)'s.
pub fn run_cluster_master(
    graph: &mut Graph,
    cfg: &ParallelConfig,
    listener: TcpListener,
    opts: &MasterOptions,
) -> Result<RunReport, NetError> {
    if matches!(cfg.rounds, RoundMode::Async) {
        return Err(NetError::Run(RunError::config(
            "the cluster runtime supports barrier rounds only",
        )));
    }
    let start_total = Instant::now();
    let before_len = graph.len();
    let mut plan = prepare_run(graph, cfg)?;
    // The cache key's input half: the KB as handed to us, digested from
    // the sorted order `prepare_run` put it in.
    let in_digest = plan.input_digest;
    let k = plan.k;
    // Telemetry: an enabled recorder in the options turns on worker-side
    // tracing (via the Welcome flag) and gives the master its own
    // "relay" lane. Predicted-vs-measured needs the analyzer's report —
    // Auto runs already carry one; otherwise a traced run has the
    // analyzer score the partition `plan` already holds.
    let trace = opts.trace.clone().filter(Recorder::is_enabled);
    let analysis = match (&trace, &plan.analysis) {
        (Some(_), None) => {
            let base = owlpar_core::PlanningBase::compile(graph, &cfg.extra_rules);
            owlpar_core::analyze_run_plan(&base, &plan).ok()
        }
        _ => plan.analysis.clone(),
    };
    let pred_round_bytes = analysis
        .as_ref()
        .map(|a| a.round_bytes / a.rounds.expected.max(1) as f64);
    let pred_skew = analysis.as_ref().map(|a| a.max_load_share * k as f64);
    let trace_rec = trace.clone().unwrap_or_default();
    let mut relay = trace_rec.track("relay");
    let n_terms = graph.dict.len() as u32;
    let materialization = resolve_materialization(cfg.materialization, k);
    let cfg_digest = config_digest(cfg, k, materialization);
    let ledger = Arc::new(WireLedger::default());

    // --- bootstrap: all-or-nothing -----------------------------------
    let setup_span = relay.begin(Phase::Setup, NO_ROUND);
    listener.set_nonblocking(true)?;
    let deadline = Instant::now() + opts.accept_timeout;
    let mut streams = Vec::with_capacity(k);
    let mut adverts = Vec::with_capacity(k);
    for id in 0..k {
        let (stream, advert) =
            accept_worker(&listener, deadline, id as u32, k as u32, opts, &ledger)?;
        streams.push(stream);
        adverts.push(advert);
    }
    let mut bases = std::mem::take(&mut plan.bases);
    for (id, stream) in streams.iter_mut().enumerate() {
        let payload = SetupPayload {
            n_terms,
            materialization,
            schema: plan.schema.clone(),
            base: std::mem::take(&mut bases[id]),
            all_rules: plan.all_rules.clone(),
            my_rules: plan.rules_per_worker[id].clone(),
            routing: WireRouting::from(&plan.routing[id]),
        };
        let payload_triples = payload.schema.len() + payload.base.len();
        let blob = encode_setup_payload(&payload);
        let payload_digest = digest128(&blob);
        // Digest-only ship iff the worker advertised this exact blob —
        // exact meaning the payload digest matches too, so a stale or
        // nondeterministically different partition degrades to a full
        // ship, never to a wrong one.
        let hit = adverts[id].iter().any(|e| {
            e.input == in_digest
                && e.config == cfg_digest
                && e.node == id as u32
                && e.payload == payload_digest
        });
        ledger.cache_outcome(hit);
        let setup = Setup {
            input_digest: in_digest,
            config_digest: cfg_digest,
            payload_digest,
            round_timeout_ms: cfg.round_timeout.as_millis() as u64,
            faults: wire_faults(cfg, id),
            payload: (!hit).then_some(blob),
        };
        let body = encode_master_msg(&MasterMsg::Setup(Box::new(setup)));
        ledger.setup.add(body.len(), if hit { 0 } else { payload_triples });
        write_crc_frame(stream, &body)?;
        // From here on the per-read patience is the round timeout: a
        // worker that produces nothing for that long is declared dead.
        stream.set_read_timeout(Some(cfg.round_timeout.saturating_mul(2)))?;
        stream.set_write_timeout(Some(cfg.round_timeout))?;
    }
    relay.end(setup_span);

    // --- rounds ------------------------------------------------------
    let t_par = Instant::now();
    let (events_tx, events) = mpsc::channel::<Event>();
    let mut delivery_txs: Vec<Option<mpsc::Sender<MasterMsg>>> = Vec::with_capacity(k);
    let mut worker_errors: Vec<WorkerError> = Vec::new();
    let mut finals: Vec<Option<(WireStats, Vec<Triple>)>> = (0..k).map(|_| None).collect();

    thread::scope(|scope| {
        for (id, stream) in streams.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel::<MasterMsg>();
            delivery_txs.push(Some(tx));
            let handler_tx = events_tx.clone();
            let handler_ledger = Arc::clone(&ledger);
            let handler_trace = trace.clone();
            let chunk = opts.chunk_triples;
            let builder = thread::Builder::new().name(format!("cluster-worker-{id}"));
            let spawned = builder.spawn_scoped(scope, move || {
                handle_worker(
                    id,
                    stream,
                    n_terms,
                    chunk,
                    &handler_ledger,
                    &handler_tx,
                    &rx,
                    handler_trace.as_ref(),
                );
            });
            if spawned.is_err() {
                let _ = events_tx.send(Event::Dead {
                    from: id,
                    detail: "could not spawn connection handler".to_string(),
                });
            }
        }
        drop(events_tx);

        let mut alive = vec![true; k];
        let mut inboxes: Vec<Vec<Triple>> = (0..k).map(|_| Vec::new()).collect();
        let kill = |id: usize,
                        err: WorkerError,
                        alive: &mut Vec<bool>,
                        delivery_txs: &mut Vec<Option<mpsc::Sender<MasterMsg>>>,
                        worker_errors: &mut Vec<WorkerError>| {
            if alive[id] {
                alive[id] = false;
                delivery_txs[id] = None; // unblocks the handler
                worker_errors.push(err);
            }
        };

        let mut round = 0usize;
        loop {
            let mut done = vec![false; k];
            let mut round_sent = 0u64;
            // Live skew: when each worker's RoundDone lands, measured
            // from the master's release of the previous round. The gap
            // between first and last arrival is the straggler tax the
            // analyzer's `skew_ratio` predicts.
            let round_t0 = Instant::now();
            let mut done_at_ms: Vec<f64> = Vec::with_capacity(k);
            let relay_bytes_before = ledger.rounds.load().bytes;
            let wait_span = relay.begin(Phase::BarrierWait, round as u32);
            while (0..k).any(|i| alive[i] && !done[i]) {
                match events.recv_timeout(cfg.round_timeout) {
                    Ok(Event::Routed { from, to, batch }) => {
                        if to < k {
                            inboxes[to].extend(batch);
                        } else {
                            kill(
                                from,
                                WorkerError::Comm {
                                    worker: from,
                                    source: CommError::Protocol {
                                        round,
                                        worker: from,
                                        peer: from,
                                        detail: format!("routed a batch to worker {to} of {k}"),
                                    },
                                },
                                &mut alive,
                                &mut delivery_txs,
                                &mut worker_errors,
                            );
                        }
                    }
                    Ok(Event::Done { from, round: r, sent }) => {
                        if r == round {
                            done[from] = true;
                            round_sent += sent;
                            done_at_ms.push(round_t0.elapsed().as_secs_f64() * 1e3);
                        } else {
                            kill(
                                from,
                                WorkerError::Comm {
                                    worker: from,
                                    source: CommError::Protocol {
                                        round,
                                        worker: from,
                                        peer: from,
                                        detail: format!("announced round {r} during round {round}"),
                                    },
                                },
                                &mut alive,
                                &mut delivery_txs,
                                &mut worker_errors,
                            );
                        }
                    }
                    Ok(Event::Dead { from, detail }) => {
                        kill(
                            from,
                            WorkerError::Comm {
                                worker: from,
                                source: CommError::Io {
                                    round,
                                    worker: from,
                                    path: None,
                                    kind: ErrorKind::ConnectionAborted,
                                    detail,
                                    attempts: 1,
                                },
                            },
                            &mut alive,
                            &mut delivery_txs,
                            &mut worker_errors,
                        );
                    }
                    Ok(Event::Final { from, .. }) => {
                        kill(
                            from,
                            WorkerError::Comm {
                                worker: from,
                                source: CommError::Protocol {
                                    round,
                                    worker: from,
                                    peer: from,
                                    detail: "sent Final before the stop verdict".to_string(),
                                },
                            },
                            &mut alive,
                            &mut delivery_txs,
                            &mut worker_errors,
                        );
                    }
                    Err(_) => {
                        // Nothing from anyone for a whole round timeout:
                        // declare every straggler dead.
                        for id in 0..k {
                            if alive[id] && !done[id] {
                                kill(
                                    id,
                                    WorkerError::BarrierTimeout {
                                        worker: id,
                                        round,
                                        waited: cfg.round_timeout,
                                    },
                                    &mut alive,
                                    &mut delivery_txs,
                                    &mut worker_errors,
                                );
                            }
                        }
                    }
                }
            }

            relay.end(wait_span);

            // The verdict: quiescence, or any loss so far drains the
            // survivors — same rule as the in-process RunFlags check.
            let stop = round_sent == 0 || !worker_errors.is_empty();
            for id in 0..k {
                if !alive[id] || !done[id] {
                    continue;
                }
                let deliver = MasterMsg::Deliver {
                    round: round as u32,
                    stop,
                    triples: std::mem::take(&mut inboxes[id]),
                };
                if let Some(tx) = &delivery_txs[id] {
                    if tx.send(deliver).is_err() {
                        kill(
                            id,
                            WorkerError::Comm {
                                worker: id,
                                source: CommError::Disconnected {
                                    round,
                                    from: id,
                                    to: id,
                                },
                            },
                            &mut alive,
                            &mut delivery_txs,
                            &mut worker_errors,
                        );
                    }
                }
            }
            // Relay traffic this round, measured at the master: inbound
            // Triples plus outbound Deliver(Chunk)s charged since the
            // loop top. (Deliveries of round N−1 written after that
            // snapshot smear into round N — a bounded, documented blur.)
            let relay_bytes = ledger.rounds.load().bytes.saturating_sub(relay_bytes_before);
            relay.count(Phase::Exchange, round as u32, Metric::Bytes, relay_bytes);
            if trace.is_some() && !done_at_ms.is_empty() {
                let max = done_at_ms.iter().copied().fold(f64::MIN, f64::max);
                let min = done_at_ms.iter().copied().fold(f64::MAX, f64::min);
                let mean = done_at_ms.iter().sum::<f64>() / done_at_ms.len() as f64;
                let skew_ratio = if mean > 0.0 { max / mean } else { 1.0 };
                let pred = match (pred_round_bytes, pred_skew) {
                    (Some(b), Some(s)) => {
                        format!(" pred_round_bytes={b:.0} pred_skew_ratio={s:.2}")
                    }
                    _ => String::new(),
                };
                eprintln!(
                    "[owlpar-cluster] RoundSummary round={round} workers={} \
                     sent={round_sent} max_ms={max:.1} min_ms={min:.1} \
                     skew_ms={:.1} skew_ratio={skew_ratio:.2} \
                     relay_bytes={relay_bytes}{pred}",
                    done_at_ms.len(),
                    max - min,
                );
            }
            if stop || !alive.iter().any(|&a| a) {
                break;
            }
            round += 1;
        }

        // --- finals --------------------------------------------------
        while (0..k).any(|i| alive[i] && finals[i].is_none()) {
            match events.recv_timeout(cfg.round_timeout) {
                Ok(Event::Final { from, stats, run }) => {
                    finals[from] = Some((stats, run));
                    delivery_txs[from] = None;
                }
                Ok(Event::Dead { from, detail }) => {
                    kill(
                        from,
                        WorkerError::Comm {
                            worker: from,
                            source: CommError::Io {
                                round,
                                worker: from,
                                path: None,
                                kind: ErrorKind::ConnectionAborted,
                                detail,
                                attempts: 1,
                            },
                        },
                        &mut alive,
                        &mut delivery_txs,
                        &mut worker_errors,
                    );
                }
                Ok(Event::Routed { .. }) => {} // late, harmless: run is over
                Ok(Event::Done { from, .. }) => {
                    kill(
                        from,
                        WorkerError::Comm {
                            worker: from,
                            source: CommError::Protocol {
                                round,
                                worker: from,
                                peer: from,
                                detail: "announced a round after the stop verdict".to_string(),
                            },
                        },
                        &mut alive,
                        &mut delivery_txs,
                        &mut worker_errors,
                    );
                }
                Err(_) => {
                    for id in 0..k {
                        if alive[id] && finals[id].is_none() {
                            kill(
                                id,
                                WorkerError::BarrierTimeout {
                                    worker: id,
                                    round,
                                    waited: cfg.round_timeout,
                                },
                                &mut alive,
                                &mut delivery_txs,
                                &mut worker_errors,
                            );
                        }
                    }
                }
            }
        }
        delivery_txs.clear(); // release any handler still blocked
    });
    let host_parallel_time = t_par.elapsed();

    // --- aggregate + recover: the in-process master's tail -------------
    // Lay the analyzer's predictions beside the measured trace — the
    // exact keys `owlpar trace summary` reads from the `"plan"` extra.
    if let Some(rec) = &trace {
        let plan_json = match &analysis {
            Some(a) => obj([
                ("strategy", a.strategy.as_str().into()),
                ("setup_bytes", a.setup_bytes.into()),
                ("round_bytes", a.round_bytes.into()),
                ("predicted_rounds", a.rounds.expected.into()),
                ("skew_ratio", (a.max_load_share * k as f64).into()),
            ]),
            None => obj([("strategy", plan.strategy.label().into())]),
        };
        rec.set_extra("plan", plan_json);
    }
    let outcomes = finals
        .into_iter()
        .enumerate()
        .map(|(id, f)| f.map(|(stats, run)| (run, stats.into_worker_stats(id))))
        .collect();
    let report = finish_run(
        graph,
        cfg,
        &plan,
        &mut relay,
        outcomes,
        worker_errors,
        (start_total, before_len, host_parallel_time),
        Some(ledger.snapshot()),
    )?;
    Ok(report)
}

// ---------------------------------------------------------------------
// worker
// ---------------------------------------------------------------------

/// Rule indices per partition, recovered from the shipped assignment.
fn parts_from_assignment(k: usize, assignment: &[u32]) -> Vec<Vec<usize>> {
    let mut parts = vec![Vec::new(); k];
    for (i, &p) in assignment.iter().enumerate() {
        parts[p as usize].push(i);
    }
    parts
}

/// Rebuild the in-process routing table from its wire image, validating
/// every destination it could ever produce against the cluster size.
fn rebuild_routing(w: WireRouting, k: u32, all_rules: &Arc<Vec<Rule>>) -> Result<Routing, NetError> {
    let check_rules_len = |len: usize| {
        if len == all_rules.len() {
            Ok(())
        } else {
            Err(NetError::protocol(format!(
                "rule assignment covers {len} rule(s), rule-base has {}",
                all_rules.len()
            )))
        }
    };
    match w {
        WireRouting::Data { owner } => {
            let mut map = FxHashMap::default();
            for (node, worker) in owner {
                if worker >= k {
                    return Err(NetError::protocol(format!(
                        "ownership table assigns {node:?} to worker {worker} of {k}"
                    )));
                }
                map.insert(node, worker);
            }
            Ok(Routing::Data {
                owner: Arc::new(map),
            })
        }
        WireRouting::Rule { k: parts, assignment } => {
            if parts != k {
                return Err(NetError::protocol(format!(
                    "rule routing built for {parts} partitions, cluster has {k}"
                )));
            }
            check_rules_len(assignment.len())?;
            let rebuilt = RulePartitions {
                k: parts as usize,
                parts: parts_from_assignment(parts as usize, &assignment),
                assignment,
                edge_cut: 0,
                partition_time: Duration::ZERO,
            };
            Ok(Routing::Rule {
                partitions: Arc::new(rebuilt),
                all_rules: Arc::clone(all_rules),
            })
        }
        WireRouting::Hybrid {
            owner,
            groups_k,
            groups_assignment,
            data_shards,
        } => {
            if groups_k.checked_mul(data_shards) != Some(k) {
                return Err(NetError::protocol(format!(
                    "hybrid routing {groups_k} group(s) × {data_shards} shard(s) ≠ cluster size {k}"
                )));
            }
            check_rules_len(groups_assignment.len())?;
            let mut map = FxHashMap::default();
            for (node, shard) in owner {
                map.insert(node, shard); // shard < data_shards checked at decode
            }
            let rebuilt = RulePartitions {
                k: groups_k as usize,
                parts: parts_from_assignment(groups_k as usize, &groups_assignment),
                assignment: groups_assignment,
                edge_cut: 0,
                partition_time: Duration::ZERO,
            };
            Ok(Routing::Hybrid {
                owner: Arc::new(map),
                groups: Arc::new(rebuilt),
                all_rules: Arc::clone(all_rules),
                data_shards,
            })
        }
    }
}

/// The worker's end of the master connection, with wire-byte accounting
/// (frame envelopes included).
struct MasterConn {
    stream: TcpStream,
    sent: u64,
    recv: u64,
}

impl MasterConn {
    fn send(&mut self, msg: &WorkerMsg) -> Result<(), NetError> {
        let body = encode_worker_msg(msg);
        self.sent += body.len() as u64 + FRAME_OVERHEAD;
        write_crc_frame(&mut self.stream, &body).map_err(NetError::from)
    }

    /// Read one master frame and decode it against `n_terms`.
    fn read(&mut self, n_terms: u32) -> Result<MasterMsg, NetError> {
        let body = read_crc_frame(&mut self.stream)?;
        self.recv += body.len() as u64 + FRAME_OVERHEAD;
        decode_master_msg(&body, n_terms)
    }
}

/// The master connection as the round loop sees it ([`RoundLink`]): a
/// round's batches leave as `Triples` frames, the send window closes
/// with `RoundDone`, and the master's `DeliverChunk* Deliver` stream is
/// barrier, inbox and verdict in one. What the master does between the
/// two — the star relay — is its side of the protocol and is unchanged.
struct ClusterLink {
    conn: MasterConn,
    /// Dictionary bound inbound triples are checked against.
    n_terms: u32,
    /// Most triples per `Triples` / `FinalChunk` frame.
    chunk: usize,
    /// The worker-level faults the master planned for this node.
    faults: Vec<(u32, WireFault)>,
    /// The worker's local recorder: enabled iff the master asked for
    /// telemetry, which then rides the connection as `TraceChunk`s.
    rec: Recorder,
}

impl ClusterLink {
    /// Ship the telemetry `lane` has buffered (nothing when untraced).
    /// The chunk's `clock_us` doubles as the clock-offset handshake: the
    /// master keeps the minimum-latency estimate over all chunks.
    fn ship_trace(&mut self, lane: &mut Track) -> Result<(), NetError> {
        if !self.rec.is_enabled() {
            return Ok(());
        }
        let payload = obs_wire::encode_trace_chunk(self.rec.now_us(), &lane.take_buffered());
        self.conn.send(&WorkerMsg::TraceChunk { payload })
    }
}

impl RoundLink for ClusterLink {
    type Error = NetError;

    fn begin_round(&mut self, round: usize) -> Result<(), NetError> {
        for &(r, fault) in &self.faults {
            if r as usize != round {
                continue;
            }
            let kind = match fault {
                WireFault::Delay { millis } => {
                    thread::sleep(Duration::from_millis(millis));
                    continue;
                }
                WireFault::Panic => "panic",
                WireFault::Disconnect => "disconnect",
            };
            let _ = self.conn.stream.shutdown(Shutdown::Both);
            return Err(NetError::Injected { round, kind });
        }
        Ok(())
    }

    fn send(&mut self, _round: usize, to: usize, batch: &[Triple]) -> Result<bool, NetError> {
        // Bounded frames regardless of batch size: a huge round splits
        // into several Triples frames the master unions.
        for part in batch.chunks(self.chunk) {
            self.conn.send(&WorkerMsg::Triples {
                to: to as u32,
                batch: part.to_vec(),
            })?;
        }
        Ok(true)
    }

    fn finish_round(
        &mut self,
        round: usize,
        sent: u64,
        lane: &mut Track,
    ) -> Result<(Vec<Triple>, bool), NetError> {
        // One trace chunk per round, before announcing it, keeps frames
        // small and gives the master a fresh clock sample every round.
        // Spans still open here (the Round span itself) ride a later
        // chunk.
        self.ship_trace(lane)?;
        self.conn.send(&WorkerMsg::RoundDone {
            round: round as u32,
            sent,
        })?;
        // The round's inbound stream: any number of DeliverChunk frames
        // then the Deliver verdict carrying the tail.
        let wait_span = lane.begin(Phase::BarrierWait, round as u32);
        let mut inbound: Vec<Triple> = Vec::new();
        let stop = loop {
            let (r, batch, verdict) = match self.conn.read(self.n_terms)? {
                MasterMsg::DeliverChunk { round, batch } => (round, batch, None),
                MasterMsg::Deliver {
                    round,
                    stop,
                    triples,
                } => (round, triples, Some(stop)),
                other => {
                    return Err(NetError::protocol(format!(
                        "expected Deliver, got {other:?}"
                    )))
                }
            };
            if r as usize != round {
                return Err(NetError::protocol(format!(
                    "master delivered round {r} during round {round}"
                )));
            }
            inbound.extend(batch);
            if let Some(stop) = verdict {
                break stop;
            }
        };
        lane.end(wait_span);
        Ok((inbound, stop))
    }
}

/// Run one worker process: dial the master, handshake, receive the
/// partition, run the round loop ([`run_rounds`]) over the master
/// connection to the stop verdict, ship back the sorted run of what it
/// gained.
pub fn run_cluster_worker(
    addr: impl ToSocketAddrs,
    opts: &WorkerOptions,
) -> Result<WorkerSummary, NetError> {
    // Dial with the shared capped backoff: the master may still be
    // partitioning when we start.
    let deadline = Instant::now() + opts.connect_timeout;
    let mut backoff = Backoff::new(Duration::from_millis(5), Duration::from_millis(250));
    let stream = loop {
        match TcpStream::connect(&addr) {
            Ok(s) => break s,
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(NetError::Io(e));
                }
                backoff.sleep();
            }
        }
    };
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(opts.connect_timeout))?;
    stream.set_write_timeout(Some(opts.connect_timeout))?;
    let mut conn = MasterConn {
        stream,
        sent: 0,
        recv: 0,
    };

    // --- handshake ---------------------------------------------------
    conn.send(&WorkerMsg::Hello {
        magic: WIRE_MAGIC,
        version: PROTOCOL_VERSION,
    })?;
    let (node_id, k, epoch, traced) = match conn.read(u32::MAX)? {
        MasterMsg::Welcome {
            node_id,
            k,
            epoch,
            trace,
        } => (node_id, k, epoch, trace),
        MasterMsg::Reject { reason } => return Err(handshake_err(reason)),
        other => {
            return Err(handshake_err(format!(
                "expected Welcome or Reject, got {other:?}"
            )))
        }
    };
    if k == 0 || node_id >= k {
        return Err(handshake_err(format!(
            "master assigned node id {node_id} in a cluster of {k}"
        )));
    }

    // Advertise whatever shipped partitions we hold (an empty advert
    // when uncached — the master always reads one).
    let cache = match &opts.cache_dir {
        Some(dir) => Some(PartitionCache::open(dir)?),
        None => None,
    };
    let entries = cache.as_ref().map(PartitionCache::scan).unwrap_or_default();
    conn.send(&WorkerMsg::CacheAdvert { entries })?;

    let setup = match conn.read(u32::MAX)? {
        MasterMsg::Setup(s) => *s,
        other => {
            return Err(handshake_err(format!(
                "expected Setup after Welcome, got {other:?}"
            )))
        }
    };
    // Resolve the payload blob: shipped on the wire (verify, then
    // persist for next time) or elided because the master matched our
    // advert (load and re-verify from disk). Either way the bytes are
    // checked against the header's digest before they are decoded.
    let blob = match setup.payload {
        Some(blob) => {
            if digest128(&blob) != setup.payload_digest {
                return Err(NetError::protocol(
                    "setup payload does not match its declared digest",
                ));
            }
            if let Some(c) = &cache {
                // A cache write failure costs the next run a re-ship,
                // not this run its result.
                let _ = c.store(&setup.input_digest, &setup.config_digest, node_id, &blob);
            }
            blob
        }
        None => cache
            .as_ref()
            .and_then(|c| {
                c.load(
                    &setup.input_digest,
                    &setup.config_digest,
                    node_id,
                    &setup.payload_digest,
                )
            })
            .ok_or_else(|| {
                handshake_err(
                    "master elided the setup payload but no matching cache entry exists",
                )
            })?,
    };
    let payload = decode_setup_payload(&blob)?;
    let round_timeout = Duration::from_millis(setup.round_timeout_ms.max(1000));
    // The master's Deliver can lag a full coordinator round behind our
    // sends; give reads twice its patience before declaring it gone.
    conn.stream
        .set_read_timeout(Some(round_timeout.saturating_mul(2)))?;
    conn.stream.set_write_timeout(Some(round_timeout))?;

    // --- rounds: the one loop, over the master connection --------------
    let all_rules = Arc::new(payload.all_rules);
    let ctx = WorkerCtx {
        id: node_id as usize,
        k: k as usize,
        routing: rebuild_routing(payload.routing, k, &all_rules)?,
        reasoner: Reasoner::new(payload.my_rules, payload.materialization),
        schema: Arc::new(payload.schema),
        base: payload.base,
    };
    // Telemetry: a LOCAL recorder, never the process global — worker
    // events reach the merged timeline only as `TraceChunk` frames, so
    // a loopback cluster (worker threads sharing one process in tests)
    // cannot double-count through an ambient recorder. The master's
    // Welcome flag decides; untraced runs carry a no-op recorder and
    // ship nothing.
    let rec = if traced {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let mut lane = rec.track("worker");
    let chunk = opts.chunk_triples.max(1);
    let mut link = ClusterLink {
        conn,
        n_terms: payload.n_terms,
        chunk,
        faults: setup.faults,
        rec,
    };
    let (full, stats) = run_rounds(ctx, &mut link, &mut lane)?;

    let summary = WorkerSummary {
        node_id,
        k,
        epoch,
        rounds: stats.rounds,
        derived: stats.derived,
        store_len: stats.output_size,
        sent: stats.sent as u64,
    };
    // Ship the run as a bounded chunk stream: FinalChunk* then the Final
    // terminator carrying the tail (and the counters), so a run of any
    // size fits under the per-frame cap. It is one ascending sequence —
    // each chunk a contiguous id range, which is both deterministic and
    // what the delta codec compresses best.
    let tail_start = full.len().saturating_sub(1) / chunk * chunk;
    for (seq, part) in full[..tail_start].chunks(chunk).enumerate() {
        link.conn.send(&WorkerMsg::FinalChunk {
            seq: seq as u32,
            batch: part.to_vec(),
        })?;
    }
    // Flush the telemetry stragglers (final Round span, last barrier
    // wait) just before the Final frame — the handler absorbs the
    // accumulated events when the pump exits.
    link.ship_trace(&mut lane)?;
    // The counters ride inside the Final frame, so they cannot include
    // it; the master-side ledger is the authoritative total.
    let micros = |d: Duration| d.as_micros() as u64;
    let stats = WireStats {
        rounds: stats.rounds as u64,
        derived: stats.derived as u64,
        sent: stats.sent as u64,
        received: stats.received as u64,
        reason_micros: micros(stats.reason_time),
        io_micros: micros(stats.io_time),
        round_cpu_micros: stats.round_cpu.iter().copied().map(micros).collect(),
        output_size: stats.output_size as u64,
        wire_sent_bytes: link.conn.sent,
        wire_recv_bytes: link.conn.recv,
        skipped: stats.skipped as u64,
        io_retries: stats.io_retries as u64,
    };
    link.conn
        .send(&WorkerMsg::Final {
            stats,
            run: full[tail_start..].to_vec(),
        })
        .map(|()| summary)
}
