//! The multi-process runtime: one master process, `k` worker processes.
//!
//! The master runs the same pre-spawn half of Algorithm 3 the in-process
//! runtime uses — [`prepare_run`] compiles, lints and partitions — then
//! ships each worker its partition, rule subsets, routing table and the
//! mesh peer table over the versioned bootstrap protocol (`protocol`),
//! and ends in the same tail ([`finish_run`]: aggregate, recover,
//! report). A worker joins the TCP mesh (`transport`) and runs the one
//! round loop there is ([`run_rounds`]) over a mesh [`WorkerComm`]:
//! batches go straight to their peers, and a vote closes the round
//! instead of a barrier — collect the round off the mesh,
//! announce `RoundDone` with the round's send count, block on the
//! master's `Verdict`. The verdict is the paper's termination test — a
//! round in which nobody sent anything — so every worker reaches it in
//! the same round, like the in-process cumulative-counter check.
//!
//! ## Failure discipline
//!
//! The master relays no data, but it keeps the failure model: it watches
//! every worker through one connection with a deadline, so a dead, hung
//! or defecting worker is detected at the next read. Bootstrap failures
//! are fatal — a cluster that cannot assemble its `k` workers and ship
//! every partition refuses to start, because a partial start could
//! silently compute a partial closure. A worker that cannot join the
//! mesh within its connect timeout returns a typed error and is lost in
//! round 0. Mid-run, any death forces `stop` at the next verdict (a mesh
//! peer at EOF is cleanly dead, so survivors' collects end without it);
//! survivors' derived-only runs are merged into the master graph (which
//! still holds every base triple; each run is a subset of the closure),
//! and — for data partitioning under `AdoptAndReclose` — a serial
//! re-close reproduces exactly the serial closure, monotonicity doing
//! the proof. A worker that stalls past the round timeout holds up its
//! peers' collects too, so the deadline finds every worker short of
//! `RoundDone` and the round is lost whole; the re-close is still exact.

use crate::protocol::{
    decode_master_msg, decode_worker_msg, encode_master_msg, encode_worker_msg, mesh_peers,
    MasterMsg, NetError, Setup, WireFault, WireRouting, WireStats, WorkerMsg, PROTOCOL_VERSION,
    WIRE_MAGIC,
};
use crate::transport::{
    accept_before, join_mesh, MeshTally, DEFAULT_CHUNK_TRIPLES, FRAME_OVERHEAD,
};
use owlpar_core::comm::WorkerComm;
use owlpar_core::master::{finish_run, resolve_materialization};
use owlpar_core::stats::{WireBytes, WirePhase, WireRound};
use owlpar_core::worker::{collect_round, run_rounds, RoundVote, Routing, WorkerCtx};
use owlpar_core::{
    prepare_run, read_crc_frame, write_crc_frame, Backoff, CommError, FaultKind,
    ParallelConfig, RunReport, WorkerError,
};
use owlpar_datalog::analysis::{ConsumerIndex, JoinMask};
use owlpar_datalog::{Reasoner, Rule};
use owlpar_obs::json::obj;
use owlpar_obs::{wire as obs_wire, Metric, Phase, Recorder, Track, NO_ROUND};
use owlpar_rdf::fx::FxHashMap;
use owlpar_rdf::vocab::RDF_TYPE;
use owlpar_rdf::{Graph, Term, Triple};
use std::io::ErrorKind;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Master-side knobs (everything else comes from [`ParallelConfig`]).
#[derive(Debug, Clone)]
pub struct MasterOptions {
    /// Run epoch carried in every `Welcome` — lets a worker (and its
    /// logs) tell two runs on the same port apart.
    pub epoch: u64,
    /// How long the master waits for all `k` workers to dial in and
    /// complete their handshake before refusing to start.
    pub accept_timeout: Duration,
    /// Telemetry sink. `Some(enabled recorder)` turns the `trace` flag
    /// on in every `Welcome`, making workers record phase spans and ship
    /// them back as `TraceChunk` frames; the master merges them into
    /// this recorder (clock-offset corrected) alongside its own `master`
    /// lane. `None` (default) keeps the run telemetry-free — workers
    /// are told not to record and ship nothing.
    pub trace: Option<Recorder>,
}

impl Default for MasterOptions {
    fn default() -> Self {
        MasterOptions {
            epoch: 0,
            accept_timeout: Duration::from_secs(60),
            trace: None,
        }
    }
}

/// Worker-side knobs.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// How long the worker keeps dialing (with capped exponential
    /// backoff) before giving up; also the handshake read patience and
    /// the deadline for joining the mesh.
    pub connect_timeout: Duration,
    /// Most triples per streamed chunk frame (mesh triple frames and
    /// `FinalChunk` splitting).
    pub chunk_triples: usize,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            connect_timeout: Duration::from_secs(30),
            chunk_triples: DEFAULT_CHUNK_TRIPLES,
        }
    }
}

// ---------------------------------------------------------------------
// wire accounting
// ---------------------------------------------------------------------

/// Master-side wire accounting, updated concurrently by the
/// per-connection handler threads: every frame on a master connection.
/// Round traffic does not cross the master; each worker tallies what its
/// mesh endpoint wrote and ships it in its `Final`.
#[derive(Debug, Default)]
struct WireLedger {
    setup: PhaseCounters,
    finals: PhaseCounters,
    control_bytes: AtomicU64,
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

    /// The run's wire report. Round traffic is the sum of what the
    /// workers' mesh endpoints wrote, read off their final `stats`; a
    /// worker lost before its `Final` leaves its share out.
    fn snapshot(&self, stats: &[&WireStats]) -> WireBytes {
        let mut per_round: Vec<WirePhase> = Vec::new();
        for s in stats {
            if per_round.len() < s.round_wire.len() {
                per_round.resize(s.round_wire.len(), WirePhase::default());
            }
            for (sum, &w) in per_round.iter_mut().zip(&s.round_wire) {
                *sum += w;
            }
        }
        let mut rounds = WirePhase::default();
        for &w in &per_round {
            rounds += w;
        }
        WireBytes {
            setup: self.setup.load(),
            rounds,
            finals: self.finals.load(),
            control_bytes: self.control_bytes.load(Ordering::Relaxed),
            per_round: (0..)
                .zip(&per_round)
                .map(|(round, w)| WireRound {
                    round,
                    bytes: w.bytes,
                    triples: w.triples,
                })
                .collect(),
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

// ---------------------------------------------------------------------
// master
// ---------------------------------------------------------------------

/// What a connection-handler thread distills worker frames into.
enum Event {
    /// The worker finished a round: collected, `sent` triples out.
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

/// Per-connection pump: frames in → events out. Exits on `Final` or on
/// any connection error — including the shutdown the coordinator sends
/// when it declares the worker dead.
///
/// Inbound `FinalChunk` sequences are reassembled here (sequence
/// numbers and ascent across chunk seams checked), so the coordinator
/// only ever sees whole sorted runs. Every frame is charged to the
/// shared [`WireLedger`].
///
/// When `trace` is set, inbound `TraceChunk` frames accumulate here and
/// are absorbed into the recorder (as `worker {id}`, pid `id + 1`) when
/// the pump exits — on `Final` and on death alike, so a crashed
/// worker's spans up to its last chunk still reach the merged timeline.
fn handle_worker(
    id: usize,
    stream: TcpStream,
    n_terms: u32,
    ledger: &WireLedger,
    events: &mpsc::Sender<Event>,
    trace: Option<&Recorder>,
) {
    let mut acc = TraceAcc::default();
    pump_worker(id, stream, n_terms, ledger, events, trace, &mut acc);
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

fn pump_worker(
    id: usize,
    mut stream: TcpStream,
    n_terms: u32,
    ledger: &WireLedger,
    events: &mpsc::Sender<Event>,
    trace: Option<&Recorder>,
    acc: &mut TraceAcc,
) {
    let dead = |detail: String| {
        let _ = events.send(Event::Dead { from: id, detail });
    };
    let mut final_acc: Vec<Triple> = Vec::new();
    let mut next_seq = 0u32;
    // Each block decodes strictly ascending; the run must keep ascending
    // from one block to the next.
    let breaks_ascent = |acc: &[Triple], next: &[Triple]| match (acc.last(), next.first()) {
        (Some(last), Some(first)) => last >= first,
        _ => false,
    };
    loop {
        let body = match read_crc_frame(&mut stream) {
            Ok(b) => b,
            Err(e) => return dead(format!("reading from worker {id}: {e}")),
        };
        match decode_worker_msg(&body, n_terms) {
            Ok(WorkerMsg::RoundDone { round, sent }) => {
                ledger.control_frame(body.len());
                let done = Event::Done {
                    from: id,
                    round: round as usize,
                    sent,
                };
                if events.send(done).is_err() {
                    return;
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
            Ok(WorkerMsg::Hello { .. } | WorkerMsg::Ready { .. }) => {
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
/// (`Hello → Welcome → Ready`). Returns the stream, ready for `Setup`,
/// and the worker's mesh address: its address as this connection sees
/// it, at the port it sent in `Ready`.
fn accept_worker(
    listener: &TcpListener,
    deadline: Instant,
    node_id: u32,
    k: u32,
    opts: &MasterOptions,
    ledger: &WireLedger,
) -> Result<(TcpStream, SocketAddr), NetError> {
    let mut stream = accept_before(listener, deadline).map_err(|e| match e.kind() {
        ErrorKind::TimedOut => handshake_err(format!(
            "worker {node_id}/{k} never connected within {:?}",
            opts.accept_timeout
        )),
        _ => NetError::Io(e),
    })?;
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
            let ready = read_crc_frame(&mut stream)?;
            ledger.control_frame(ready.len());
            match decode_worker_msg(&ready, u32::MAX)? {
                WorkerMsg::Ready { mesh_port } => {
                    let mesh = SocketAddr::new(stream.peer_addr()?.ip(), mesh_port);
                    Ok((stream, mesh))
                }
                other => Err(handshake_err(format!(
                    "expected Ready after Welcome, got {other:?}"
                ))),
            }
        }
        WorkerMsg::Hello { magic, version } => {
            let reason = format!(
                "incompatible hello: magic {magic:#010x} version {version}, \
                 this master speaks {WIRE_MAGIC:#010x} version {PROTOCOL_VERSION}"
            );
            let reject = MasterMsg::Reject {
                reason: reason.clone(),
            };
            let _ = write_crc_frame(&mut stream, &encode_master_msg(&reject));
            Err(handshake_err(reason))
        }
        other => Err(handshake_err(format!(
            "expected Hello from connecting worker, got {other:?}"
        ))),
    }
}

/// The coordinator's view of its workers during the rounds: who is
/// still in the run, the write half of each live connection (verdicts
/// leave through it), and why the others left.
struct Roster {
    alive: Vec<bool>,
    conns: Vec<Option<TcpStream>>,
    errors: Vec<WorkerError>,
}

impl Roster {
    /// Declare worker `id` lost for `err` (once), and shut its
    /// connection: its pump exits, and a worker that is only slow fails
    /// its next read and leaves the mesh.
    fn kill(&mut self, id: usize, err: WorkerError) {
        if self.alive[id] {
            self.alive[id] = false;
            if let Some(conn) = self.conns[id].take() {
                let _ = conn.shutdown(Shutdown::Both);
            }
            self.errors.push(err);
        }
    }

    fn live(&self) -> Vec<usize> {
        (0..self.alive.len()).filter(|&id| self.alive[id]).collect()
    }

    /// Nothing from anyone for a whole round timeout: declare every live
    /// worker still `pending` lost.
    fn time_out(&mut self, round: usize, waited: Duration, pending: impl Fn(usize) -> bool) {
        for worker in self.live() {
            if pending(worker) {
                self.kill(
                    worker,
                    WorkerError::BarrierTimeout {
                        worker,
                        round,
                        waited,
                    },
                );
            }
        }
    }
}

/// Worker `id` broke the round protocol in `round`.
fn protocol_loss(id: usize, round: usize, detail: impl Into<String>) -> WorkerError {
    WorkerError::Comm {
        worker: id,
        source: CommError::Protocol {
            round,
            worker: id,
            peer: id,
            detail: detail.into(),
        },
    }
}

/// Worker `id`'s connection died in `round`.
fn connection_loss(id: usize, round: usize, detail: String) -> WorkerError {
    WorkerError::Comm {
        worker: id,
        source: CommError::Io {
            round,
            worker: id,
            path: None,
            kind: ErrorKind::ConnectionAborted,
            detail,
            attempts: 1,
        },
    }
}

/// Run a cluster master over `listener`: assemble `cfg.k` workers, ship
/// partitions and the mesh peer table, vote rounds to quiescence,
/// aggregate the closure into `graph`. The report is shaped exactly like
/// [`run_parallel`](owlpar_core::run_parallel)'s.
pub fn run_cluster_master(
    graph: &mut Graph,
    cfg: &ParallelConfig,
    listener: TcpListener,
    opts: &MasterOptions,
) -> Result<RunReport, NetError> {
    let start_total = Instant::now();
    let before_len = graph.len();
    let mut plan = prepare_run(graph, cfg)?;
    let k = plan.k;
    // Telemetry: an enabled recorder in the options turns on worker-side
    // tracing (via the Welcome flag) and gives the master its own
    // "master" lane. Predicted-vs-measured needs the analyzer's report —
    // Auto runs already carry one; otherwise a traced run has the
    // analyzer score the partition `plan` already holds, from the
    // rule-base and runs `prepare_run` already compiled.
    let trace = opts.trace.clone().filter(Recorder::is_enabled);
    let analysis = match (&trace, &plan.analysis) {
        (Some(_), None) => {
            let rdf_type = graph.dict.id(&Term::iri(RDF_TYPE));
            let base = owlpar_core::PlanningBase::of_plan(&plan, rdf_type);
            owlpar_core::analyze_run_plan(&base, &plan).ok()
        }
        _ => plan.analysis.clone(),
    };
    let pred_round_bytes = analysis
        .as_ref()
        .map(|a| a.round_bytes / a.rounds.expected.max(1) as f64);
    let pred_skew = analysis.as_ref().map(|a| a.max_load_share * k as f64);
    let trace_rec = trace.clone().unwrap_or_default();
    let mut lane = trace_rec.track("master");
    let n_terms = graph.dict.len() as u32;
    let materialization = resolve_materialization(cfg.materialization, k);
    let ledger = WireLedger::default();

    // --- bootstrap: all-or-nothing -----------------------------------
    let setup_span = lane.begin(Phase::Setup, NO_ROUND);
    let deadline = Instant::now() + opts.accept_timeout;
    let mut streams = Vec::with_capacity(k);
    let mut peers = Vec::with_capacity(k);
    for id in 0..k {
        let (stream, mesh) =
            accept_worker(&listener, deadline, id as u32, k as u32, opts, &ledger)?;
        streams.push(stream);
        peers.push((id as u32, mesh));
    }
    let mut bases = std::mem::take(&mut plan.bases);
    let routing = WireRouting::from(&*plan.routing);
    for (id, stream) in streams.iter_mut().enumerate() {
        let setup = Setup {
            round_timeout_ms: cfg.round_timeout.as_millis() as u64,
            faults: wire_faults(cfg, id),
            peers: peers.clone(),
            n_terms,
            materialization,
            schema: plan.schema.clone(),
            base: std::mem::take(&mut bases[id]),
            all_rules: plan.all_rules.clone(),
            my_rules: plan.rules_per_worker[id].clone(),
            routing: routing.clone(),
        };
        let triples = setup.schema.len() + setup.base.len();
        let body = encode_master_msg(&MasterMsg::Setup(Box::new(setup)));
        ledger.setup.add(body.len(), triples);
        write_crc_frame(stream, &body)?;
        // From here on the per-read patience is the round timeout: a
        // worker that produces nothing for that long is declared dead.
        stream.set_read_timeout(Some(cfg.round_timeout.saturating_mul(2)))?;
        stream.set_write_timeout(Some(cfg.round_timeout))?;
    }
    lane.end(setup_span);

    // --- rounds: the vote ----------------------------------------------
    let t_par = Instant::now();
    let (events_tx, events) = mpsc::channel::<Event>();
    let mut roster = Roster {
        alive: vec![true; k],
        conns: Vec::with_capacity(k),
        errors: Vec::new(),
    };
    let mut finals: Vec<Option<(WireStats, Vec<Triple>)>> = (0..k).map(|_| None).collect();

    thread::scope(|scope| {
        for (id, stream) in streams.into_iter().enumerate() {
            roster.conns.push(stream.try_clone().ok());
            let handler_tx = events_tx.clone();
            let (ledger, trace) = (&ledger, trace.as_ref());
            let builder = thread::Builder::new().name(format!("cluster-worker-{id}"));
            let spawned = builder.spawn_scoped(scope, move || {
                handle_worker(id, stream, n_terms, ledger, &handler_tx, trace);
            });
            if spawned.is_err() {
                let _ = events_tx.send(Event::Dead {
                    from: id,
                    detail: "could not spawn connection handler".to_string(),
                });
            }
        }
        drop(events_tx);

        let mut round = 0usize;
        loop {
            let mut done = vec![false; k];
            let mut round_sent = 0u64;
            // Live skew: when each worker's RoundDone lands, measured
            // from the previous verdict. The gap between first and last
            // arrival is the straggler tax the analyzer's `skew_ratio`
            // predicts.
            let round_t0 = Instant::now();
            let mut done_at_ms: Vec<f64> = Vec::with_capacity(k);
            let wait_span = lane.begin(Phase::BarrierWait, round as u32);
            while (0..k).any(|i| roster.alive[i] && !done[i]) {
                match events.recv_timeout(cfg.round_timeout) {
                    Ok(Event::Done {
                        from,
                        round: r,
                        sent,
                    }) if r == round => {
                        done[from] = true;
                        round_sent += sent;
                        done_at_ms.push(round_t0.elapsed().as_secs_f64() * 1e3);
                    }
                    Ok(Event::Done { from, round: r, .. }) => {
                        let detail = format!("announced round {r} during round {round}");
                        roster.kill(from, protocol_loss(from, round, detail));
                    }
                    Ok(Event::Dead { from, detail }) => {
                        roster.kill(from, connection_loss(from, round, detail));
                    }
                    Ok(Event::Final { from, .. }) => roster.kill(
                        from,
                        protocol_loss(from, round, "sent Final before the stop verdict"),
                    ),
                    Err(_) => roster.time_out(round, cfg.round_timeout, |id| !done[id]),
                }
            }
            lane.end(wait_span);

            // The verdict: quiescence, or any loss so far drains the
            // survivors — same rule as the in-process RunFlags check.
            let stop = round_sent == 0 || !roster.errors.is_empty();
            let verdict = encode_master_msg(&MasterMsg::Verdict {
                round: round as u32,
                stop,
            });
            for id in roster.live() {
                ledger.control_frame(verdict.len());
                let written = roster.conns[id]
                    .as_mut()
                    .is_some_and(|conn| write_crc_frame(conn, &verdict).is_ok());
                if !written {
                    let gone = CommError::Disconnected {
                        round,
                        from: id,
                        to: id,
                    };
                    roster.kill(
                        id,
                        WorkerError::Comm {
                            worker: id,
                            source: gone,
                        },
                    );
                }
            }
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
                     skew_ms={:.1} skew_ratio={skew_ratio:.2}{pred}",
                    done_at_ms.len(),
                    max - min,
                );
            }
            if stop || roster.live().is_empty() {
                break;
            }
            round += 1;
        }

        // --- finals --------------------------------------------------
        while (0..k).any(|i| roster.alive[i] && finals[i].is_none()) {
            match events.recv_timeout(cfg.round_timeout) {
                Ok(Event::Final { from, stats, run }) => {
                    finals[from] = Some((stats, run));
                    roster.conns[from] = None;
                }
                Ok(Event::Dead { from, detail }) => {
                    roster.kill(from, connection_loss(from, round, detail));
                }
                Ok(Event::Done { from, .. }) => roster.kill(
                    from,
                    protocol_loss(from, round, "announced a round after the stop verdict"),
                ),
                Err(_) => roster.time_out(round, cfg.round_timeout, |id| finals[id].is_none()),
            }
        }
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
    let stats: Vec<&WireStats> = finals.iter().flatten().map(|(s, _)| s).collect();
    let wire = ledger.snapshot(&stats);
    let outcomes = finals
        .into_iter()
        .enumerate()
        .map(|(id, f)| f.map(|(stats, run)| (run, stats.into_worker_stats(id))))
        .collect();
    let report = finish_run(
        graph,
        cfg,
        &plan,
        &mut lane,
        outcomes,
        roster.errors,
        (start_total, before_len, host_parallel_time),
        Some(wire),
    )?;
    Ok(report)
}

// ---------------------------------------------------------------------
// worker
// ---------------------------------------------------------------------

/// Rebuild the in-process routing table from its wire image, validating
/// every destination it could ever produce against the cluster size.
fn rebuild_routing(w: WireRouting, k: u32, all_rules: &[Rule]) -> Result<Routing, NetError> {
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
            // The mask is not shipped: it is a function of the rule-base,
            // which is.
            Ok(Routing::Data {
                owner: map,
                mask: JoinMask::of(all_rules),
            })
        }
        WireRouting::Rule { k: parts, assignment } => {
            if parts != k {
                return Err(NetError::protocol(format!(
                    "rule routing built for {parts} partitions, cluster has {k}"
                )));
            }
            if assignment.len() != all_rules.len() {
                return Err(NetError::protocol(format!(
                    "rule assignment covers {} rule(s), rule-base has {}",
                    assignment.len(),
                    all_rules.len()
                )));
            }
            // The index is not shipped either: it is a function of the
            // rule-base and the assignment.
            Ok(Routing::Rule {
                consumers: ConsumerIndex::of(all_rules, &assignment, k as usize),
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

    /// Read and decode one master frame.
    fn read(&mut self) -> Result<MasterMsg, NetError> {
        let body = read_crc_frame(&mut self.stream)?;
        self.recv += body.len() as u64 + FRAME_OVERHEAD;
        decode_master_msg(&body)
    }
}

/// The cluster's [`RoundVote`]: the master connection. A round closes
/// when this worker's mesh collect has every live peer's end-of-round
/// marker; then `RoundDone` reports the round's send count and the
/// master's `Verdict` — sent once every live worker has reported —
/// decides whether the run goes on. No peer can send round `r + 1`
/// frames before every worker has collected round `r`.
struct MasterVote {
    conn: MasterConn,
    /// The worker-level faults the master planned for this node.
    faults: Vec<(u32, WireFault)>,
    /// The worker's local recorder: enabled iff the master asked for
    /// telemetry, which then rides the connection as `TraceChunk`s.
    rec: Recorder,
    /// What this worker's mesh endpoint wrote, per round.
    tally: MeshTally,
}

impl MasterVote {
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

impl RoundVote for MasterVote {
    type Error = NetError;

    fn begin_round(&mut self, round: usize, _comm: &WorkerComm) -> Result<(), NetError> {
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

    fn close_round(
        &mut self,
        round: usize,
        sent: u64,
        comm: &mut WorkerComm,
        lane: &mut Track,
    ) -> Result<(Vec<Triple>, bool), NetError> {
        let received = collect_round(comm, round, lane)?;
        let trace_round = round as u32;
        let wrote = self
            .tally
            .lock()
            .map_or(0, |r| r.get(round).map_or(0, |w| w.bytes));
        lane.count(Phase::Exchange, trace_round, Metric::Bytes, wrote);
        // One trace chunk per round, before announcing it, keeps frames
        // small and gives the master a fresh clock sample every round.
        // Spans still open here (the Round span itself) ride a later
        // chunk.
        self.ship_trace(lane)?;
        self.conn.send(&WorkerMsg::RoundDone {
            round: trace_round,
            sent,
        })?;
        let wait_span = lane.begin(Phase::BarrierWait, trace_round);
        let stop = match self.conn.read()? {
            MasterMsg::Verdict { round: r, stop } if r == trace_round => stop,
            other => {
                return Err(NetError::protocol(format!(
                    "expected the round-{round} Verdict, got {other:?}"
                )))
            }
        };
        lane.end(wait_span);
        Ok((received, stop))
    }
}

/// Run one worker process: bind a mesh listener, dial the master,
/// handshake, receive the partition and the peer table, join the mesh,
/// run the round loop ([`run_rounds`]) to the stop verdict, ship back the
/// sorted run of what it gained.
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
    // The mesh listener, on the address this host reaches the master
    // from — the one the master will see and hand to our peers.
    let mesh_listener = TcpListener::bind(SocketAddr::new(stream.local_addr()?.ip(), 0))?;
    let mesh_port = mesh_listener.local_addr()?.port();
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
    let (node_id, k, epoch, traced) = match conn.read()? {
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

    conn.send(&WorkerMsg::Ready { mesh_port })?;

    let setup = match conn.read()? {
        MasterMsg::Setup(s) => *s,
        other => {
            return Err(handshake_err(format!(
                "expected Setup after Welcome, got {other:?}"
            )))
        }
    };
    let peers = mesh_peers(&setup.peers, k)?;
    let round_timeout = Duration::from_millis(setup.round_timeout_ms.max(1000));
    // The master's Verdict waits for the slowest worker's collect; give
    // reads (and mesh collects) twice its patience before declaring a
    // peer gone.
    let patience = round_timeout.saturating_mul(2);
    conn.stream.set_read_timeout(Some(patience))?;
    conn.stream.set_write_timeout(Some(round_timeout))?;

    // --- the mesh ------------------------------------------------------
    let me = node_id as usize;
    let chunk = opts.chunk_triples.max(1);
    let mesh_deadline = Instant::now() + opts.connect_timeout;
    let endpoint = join_mesh(me, &mesh_listener, &peers, mesh_deadline, patience, chunk)
        .map_err(|source| WorkerError::Comm { worker: me, source })?;
    drop(mesh_listener);

    // --- rounds: the one loop, peer to peer, voted at the master --------
    let ctx = WorkerCtx {
        id: me,
        k: k as usize,
        routing: Arc::new(rebuild_routing(setup.routing, k, &setup.all_rules)?),
        reasoner: Reasoner::new(setup.my_rules, setup.materialization),
        schema: Arc::new(setup.schema),
        base: setup.base,
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
    let tally = Arc::clone(&endpoint.tally);
    let mut comm = WorkerComm::custom(me, Box::new(endpoint));
    let mut vote = MasterVote {
        conn,
        faults: setup.faults,
        rec,
        tally,
    };
    let (full, stats) = run_rounds(ctx, &mut comm, &mut vote, &mut lane)?;
    drop(comm); // leave the mesh

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
        vote.conn.send(&WorkerMsg::FinalChunk {
            seq: seq as u32,
            batch: part.to_vec(),
        })?;
    }
    // Flush the telemetry stragglers (final Round span, last verdict
    // wait) just before the Final frame — the handler absorbs the
    // accumulated events when the pump exits.
    vote.ship_trace(&mut lane)?;
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
        round_wire: vote.tally.lock().map(|r| r.clone()).unwrap_or_default(),
        output_size: stats.output_size as u64,
        wire_sent_bytes: vote.conn.sent,
        wire_recv_bytes: vote.conn.recv,
        skipped: stats.skipped as u64,
        io_retries: stats.io_retries as u64,
    };
    vote.conn
        .send(&WorkerMsg::Final {
            stats,
            run: full[tail_start..].to_vec(),
        })
        .map(|()| summary)
}
