//! The TCP server: accept loop + fixed thread pool + request dispatch.
//!
//! One acceptor thread hands connections to a fixed pool of worker
//! threads over a **bounded** channel: when `threads` workers are busy
//! and `max_pending` connections already wait, the acceptor answers
//! `BUSY` on the spot and closes — saturation is a typed wire response,
//! never an unbounded queue. Each worker speaks the framed protocol of
//! [`crate::wire`] until the peer hangs up, under per-connection
//! read/write socket deadlines so an idle or glacial peer cannot park a
//! worker thread forever (it is disconnected with a typed error).
//! Queries run entirely against an epoch snapshot
//! ([`ServingKb::snapshot`]) — they never touch the writer lock — so
//! any number of in-flight queries proceed while an insert is
//! recomputing the closure.
//!
//! Shutdown is graceful, typed, and durable: a SHUTDOWN request (or
//! [`ServerHandle::request_shutdown`]) raises a flag, wakes the
//! acceptor, rejects new INSERTs (they are *fully rejected*, never
//! half-applied), lets every worker finish its current request, and —
//! once all workers have drained — performs the final WAL fsync via
//! [`ServingKb::shutdown_flush`].

use crate::error::ServeError;
use crate::kb::ServingKb;
use crate::stats::{RunInfo, ServerStats};
use crate::wire::{Request, Response};
use owlpar_core::frame::{read_frame, write_frame};
use owlpar_core::RunReport;
use owlpar_obs::{Phase, Track, NO_ROUND};
use owlpar_query::exec::render_row;
use owlpar_query::{execute, parse_query_frozen};
use std::io::{BufReader, BufWriter, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (use port 0 for an ephemeral port).
    pub addr: String,
    /// Worker threads answering requests.
    pub threads: usize,
    /// Per-connection read deadline: a peer that does not deliver a
    /// complete frame within it is disconnected with a typed error
    /// instead of parking a worker. `None` = wait forever.
    pub read_timeout: Option<Duration>,
    /// Per-connection write deadline for slow consumers.
    pub write_timeout: Option<Duration>,
    /// Connections allowed to wait for a free worker beyond the
    /// `threads` being served; the acceptor answers `BUSY` past it.
    pub max_pending: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            max_pending: 64,
        }
    }
}

struct Inner {
    kb: ServingKb,
    stats: ServerStats,
    run: RunInfo,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

/// A running server; dropping the handle does *not* stop it — call
/// [`ServerHandle::request_shutdown`] + [`ServerHandle::join`].
pub struct ServerHandle {
    inner: Arc<Inner>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Current epoch of the served KB.
    pub fn epoch(&self) -> u64 {
        self.inner.kb.epoch()
    }

    /// Raise the shutdown flag and wake the acceptor.
    pub fn request_shutdown(&self) {
        initiate_shutdown(&self.inner);
    }

    /// Wait for the acceptor and all workers to drain and exit, then
    /// perform the final durability fsync. By this point every in-flight
    /// INSERT has either been fully applied and logged, or was rejected
    /// whole — shutdown never leaves a half-applied batch behind.
    pub fn join(mut self) -> Result<(), ServeError> {
        if let Some(a) = self.acceptor.take() {
            a.join()
                .map_err(|_| ServeError::Protocol("acceptor thread panicked".into()))?;
        }
        for w in self.workers.drain(..) {
            w.join()
                .map_err(|_| ServeError::Protocol("worker thread panicked".into()))?;
        }
        self.inner.kb.shutdown_flush()
    }
}

/// Derive the STATS run section from the materialization report.
pub fn run_info(report: &RunReport) -> RunInfo {
    RunInfo {
        workers: report.k,
        rounds: report.max_rounds(),
        derived: report.derived,
        skipped: report.total_skipped(),
        summary: report.summary(),
    }
}

/// Bind, spawn the acceptor + worker pool, and return immediately.
pub fn serve(kb: ServingKb, run: RunInfo, cfg: &ServeConfig) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let inner = Arc::new(Inner {
        kb,
        stats: ServerStats::default(),
        run,
        shutdown: AtomicBool::new(false),
        addr,
    });

    // Bounded handoff: `max_pending` waiting connections beyond the
    // `threads` currently served. A full queue is answered with BUSY by
    // the acceptor itself, so saturation is visible to clients instead
    // of accumulating in unbounded memory.
    let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) =
        sync_channel(cfg.max_pending.max(1));
    let rx = Arc::new(Mutex::new(rx));

    let timeouts = (cfg.read_timeout, cfg.write_timeout);
    let threads = cfg.threads.max(1);
    let mut workers = Vec::with_capacity(threads);
    for i in 0..threads {
        let rx = Arc::clone(&rx);
        let inner = Arc::clone(&inner);
        workers.push(
            std::thread::Builder::new()
                .name(format!("owlpar-serve-{i}"))
                .spawn(move || worker_loop(&rx, &inner, timeouts))?,
        );
    }

    let acceptor = {
        let inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("owlpar-serve-accept".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if inner.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let stream = match conn {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    match tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(stream)) => {
                            inner.stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
                            reject_busy(stream);
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
                // tx drops here; workers drain the queue and exit.
            })?
    };

    Ok(ServerHandle {
        inner,
        acceptor: Some(acceptor),
        workers,
    })
}

/// Tell a connection the pool is saturated and hang up. Best-effort —
/// the peer may already be gone — and briefly bounded so a slow client
/// cannot stall the acceptor.
fn reject_busy(stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut writer = BufWriter::new(stream);
    let _ = write_frame(&mut writer, &Response::Busy.encode());
}

fn worker_loop(
    rx: &Arc<Mutex<Receiver<TcpStream>>>,
    inner: &Arc<Inner>,
    timeouts: (Option<Duration>, Option<Duration>),
) {
    // One trace lane per pool thread, on the ambient recorder (disabled
    // unless the embedder installed one — e.g. `owlpar-serve run
    // --trace-out`). Named after the thread so the timeline shows which
    // pool slot served each request.
    let rec = owlpar_obs::global();
    let mut lane = rec.track(std::thread::current().name().unwrap_or("owlpar-serve"));
    loop {
        let next = {
            let guard = match rx.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.recv()
        };
        match next {
            Ok(stream) => {
                // Connection-level failures only affect that peer.
                let _ = handle_connection(stream, inner, timeouts, &mut lane);
            }
            Err(_) => return, // acceptor gone and queue drained
        }
    }
}

/// Whether an IO error is a socket deadline expiring. Timeouts surface
/// as `WouldBlock` on Unix and `TimedOut` on Windows.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

fn handle_connection(
    stream: TcpStream,
    inner: &Arc<Inner>,
    (read_timeout, write_timeout): (Option<Duration>, Option<Duration>),
    lane: &mut Track,
) -> Result<(), ServeError> {
    // A reply larger than the `BufWriter` goes out as two writes (length,
    // then body); with Nagle on, the second waits for the client's
    // delayed ACK of the first.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(read_timeout)?;
    stream.set_write_timeout(write_timeout)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        let body = match read_frame(&mut reader).map_err(ServeError::from) {
            Ok(b) => b,
            Err(ServeError::Io(e)) if e.kind() == ErrorKind::UnexpectedEof => {
                return Ok(()); // peer closed between requests
            }
            Err(ServeError::Io(e)) if is_timeout(&e) => {
                // Idle peer: say why we are hanging up (best-effort; the
                // write shares the deadline) and free the worker.
                inner.stats.idle_disconnects.fetch_add(1, Ordering::Relaxed);
                let bye = Response::Error(ServeError::IdleTimeout.to_string());
                let _ = write_frame(&mut writer, &bye.encode());
                return Err(ServeError::IdleTimeout);
            }
            Err(e) => {
                // Bad frame: report it if the socket still works, then
                // drop the connection — framing is unrecoverable.
                inner.stats.errors.fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(&mut writer, &Response::Error(e.to_string()).encode());
                return Err(e);
            }
        };
        let response = match Request::decode(&body) {
            Ok(req) => dispatch(req, inner, lane),
            Err(e) => {
                inner.stats.errors.fetch_add(1, Ordering::Relaxed);
                Response::Error(e.to_string())
            }
        };
        // Publish the request's spans before answering, so a STATS
        // scrape arriving next sees them in the phase totals.
        lane.flush();
        let closing = matches!(response, Response::ShuttingDown);
        match write_frame(&mut writer, &response.encode()).map_err(ServeError::from) {
            Ok(()) => {}
            Err(ServeError::Io(e)) if is_timeout(&e) => {
                // Slow consumer blew the write deadline: drop it.
                inner.stats.idle_disconnects.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::IdleTimeout);
            }
            Err(e) => return Err(e),
        }
        if closing {
            initiate_shutdown(inner);
            return Ok(());
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            // Shutdown raised while serving: finish this response, then
            // close so the pool can drain.
            return Ok(());
        }
    }
}

fn dispatch(req: Request, inner: &Arc<Inner>, lane: &mut Track) -> Response {
    match req {
        Request::Query(src) => {
            let span = lane.begin(Phase::Query, NO_ROUND);
            let started = Instant::now();
            // The whole query runs against one frozen snapshot: parsing
            // against its dictionary (read-only), executing against its
            // store. Updates published meanwhile are invisible — the
            // client learns which epoch answered via the response.
            let snapshot = inner.kb.snapshot();
            let response = match parse_query_frozen(&src, &snapshot.dict) {
                Ok(q) => {
                    let rows = execute(&snapshot.store, &q);
                    let columns: Vec<String> =
                        q.projected_names().iter().map(|s| s.to_string()).collect();
                    let rendered: Vec<Vec<String>> = rows
                        .iter()
                        .map(|r| render_row(&snapshot.dict, r))
                        .collect();
                    inner.stats.queries.fetch_add(1, Ordering::Relaxed);
                    inner.stats.query_latency.record(started.elapsed());
                    Response::Rows {
                        epoch: snapshot.epoch,
                        columns,
                        rows: rendered,
                    }
                }
                Err(e) => {
                    inner.stats.errors.fetch_add(1, Ordering::Relaxed);
                    Response::Error(ServeError::BadQuery(e.to_string()).to_string())
                }
            };
            lane.end(span);
            response
        }
        Request::Insert(nt) => {
            // Once shutdown has been requested, new INSERTs are rejected
            // whole — never started and half-applied. (An insert already
            // inside `insert_ntriples` completes and is logged normally.)
            if inner.shutdown.load(Ordering::SeqCst) {
                inner.stats.errors.fetch_add(1, Ordering::Relaxed);
                return Response::Error(
                    ServeError::Protocol("server is shutting down; insert rejected".into())
                        .to_string(),
                );
            }
            let span = lane.begin(Phase::Insert, NO_ROUND);
            let started = Instant::now();
            let response = match inner.kb.insert_ntriples(&nt) {
                Ok(out) => {
                    inner.stats.inserts.fetch_add(1, Ordering::Relaxed);
                    inner.stats.insert_latency.record(started.elapsed());
                    Response::Inserted {
                        epoch: out.epoch,
                        added: out.added as u32,
                        derived: out.derived as u32,
                        schema_changed: out.schema_changed,
                    }
                }
                Err(e) => {
                    inner.stats.errors.fetch_add(1, Ordering::Relaxed);
                    Response::Error(e.to_string())
                }
            };
            lane.end(span);
            response
        }
        Request::Stats => {
            let snapshot = inner.kb.snapshot();
            let durability = inner.kb.durability_status();
            let prom = inner.stats.prometheus(&owlpar_obs::global());
            Response::Stats(inner.stats.to_json(
                snapshot.epoch,
                snapshot.store.len(),
                snapshot.dict.len(),
                &inner.run,
                durability.as_deref(),
                &prom,
            ))
        }
        Request::Ping => Response::Pong,
        Request::Shutdown => Response::ShuttingDown,
    }
}

fn initiate_shutdown(inner: &Arc<Inner>) {
    if inner.shutdown.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    // Wake the acceptor, which is parked in accept(2).
    if let Ok(addrs) = inner.addr.to_socket_addrs() {
        for a in addrs {
            let _ = TcpStream::connect(a);
        }
    }
}
