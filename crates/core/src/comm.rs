//! Inter-partition communication backends.
//!
//! The paper's implementation exchanged tuples through files on a shared
//! filesystem ("we could not find an MPI package that works with the
//! version of Java we have used") and reports the resulting IO overhead
//! in Fig. 2, predicting that an in-memory transport (MPI) would shrink
//! it. We implement both ends of that comparison:
//!
//! * [`CommMode::Channel`] — crossbeam channels, the "MPI-like" zero-copy
//!   transport;
//! * [`CommMode::SharedFile`] — actual files in a shared directory, one
//!   per (round, sender, receiver): one CRC frame
//!   ([`crate::frame::write_crc_frame`]) whose body is N-Triples text
//!   (like the paper's Jena implementation) or a triple block
//!   ([`owlpar_rdf::triple`]).
//!
//! Both are round-synchronous: every `send` happens before the round
//! barrier, every `collect` after it, so `collect` sees exactly the
//! messages addressed to this worker this round.
//!
//! # Fault model
//!
//! Message exchange is treated as fallible by design:
//!
//! * every file write is **atomic** (temp file + rename), so a crashed
//!   writer never leaves a half-message where `collect` will find it;
//! * transient IO errors are retried with bounded exponential backoff
//!   ([`RETRY_ATTEMPTS`]/[`RETRY_BASE`]); only a *persistent* failure
//!   surfaces as [`CommError::Io`];
//! * corrupted, truncated, non-UTF-8 or otherwise undecodable messages
//!   are **skipped with a report** ([`SkippedMessage`]) instead of
//!   poisoning the round — one bad file must not take down the fabric.
//!   A message is all-or-nothing: its CRC frame either checks out whole
//!   or none of its triples are delivered, so a damaged message can
//!   never deliver a silent prefix;
//! * auto-created shared directories are removed when the last endpoint
//!   of the fabric drops;
//! * a seeded [`FaultPlan`] can inject IO errors, corruption, delays and
//!   panics at chosen (round, worker) coordinates for testing.

use crate::backoff::Backoff;
use crate::error::{CommError, SkippedMessage};
use crate::fault::{FaultPlan, FaultState};
use crate::frame::{read_crc_frame, write_crc_frame};
use crossbeam::channel::{unbounded, Receiver, Sender};
use owlpar_rdf::{
    decode_triple_block, encode_triple_block, parse_ntriples, Dictionary, Graph, Triple,
};
use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A pluggable round-synchronous transport endpoint — how an external
/// crate (`owlpar-net`'s TCP mesh) slots into the fabric without the
/// core knowing about sockets. The contract mirrors [`WorkerComm`]:
/// every `send` of a round happens before that round's `collect`, and
/// `collect(round)` must return exactly the batches peers sent for
/// `round` — transports that multiplex rounds over one stream (TCP) use
/// end-of-round markers to cut the boundaries.
pub trait Transport: Send {
    /// Send a non-empty batch to peer `to` in `round`. Returns the bytes
    /// put on the wire (for the endpoint's traffic accounting).
    fn send(&mut self, round: usize, to: usize, batch: &[Triple]) -> Result<u64, CommError>;

    /// Drain every message addressed to this endpoint in `round`.
    fn collect(&mut self, round: usize) -> Result<Vec<Triple>, CommError>;

    /// Non-blocking drain for the asynchronous mode. Round-structured
    /// transports reject this ([`CommError::Unsupported`]).
    fn try_collect(&mut self) -> Result<Vec<Triple>, CommError> {
        Err(CommError::Unsupported {
            detail: "asynchronous draining is not supported by this transport",
        })
    }

    /// Messages skipped-with-report since the last call (drained into the
    /// endpoint's report list after each collect).
    fn take_skipped(&mut self) -> Vec<SkippedMessage> {
        Vec::new()
    }
}

/// Builds the `k` endpoints of a custom transport fabric (one
/// [`Transport`] per worker, index = worker id).
pub trait TransportFactory: Send + Sync {
    /// Human-readable transport name for reports and errors.
    fn label(&self) -> &'static str;

    /// Build all `k` connected endpoints.
    fn build(&self, k: usize) -> Result<Vec<Box<dyn Transport>>, CommError>;
}

/// Transport selection.
#[derive(Clone, Default)]
pub enum CommMode {
    /// In-memory channels (the paper's hypothetical MPI transport).
    #[default]
    Channel,
    /// Files in a shared directory (the paper's actual transport).
    SharedFile {
        /// Directory to exchange through; `None` = fresh temp dir,
        /// removed again when the fabric's last endpoint drops.
        dir: Option<PathBuf>,
        /// On-disk message encoding.
        format: WireFormat,
    },
    /// A custom fabric supplied by another crate (e.g. `owlpar-net`'s
    /// loopback TCP mesh).
    Custom(Arc<dyn TransportFactory>),
}

impl std::fmt::Debug for CommMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommMode::Channel => write!(f, "Channel"),
            CommMode::SharedFile { dir, format } => f
                .debug_struct("SharedFile")
                .field("dir", dir)
                .field("format", format)
                .finish(),
            CommMode::Custom(factory) => write!(f, "Custom({})", factory.label()),
        }
    }
}

/// On-disk message encoding for [`CommMode::SharedFile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// N-Triples text — what a Jena-based implementation writes.
    #[default]
    NTriples,
    /// One triple block (dictionary ids, delta/varint encoded).
    Binary,
}

/// Upper bound on a single message or frame payload the runtime accepts.
/// Shared between the shared-file transport and the serving wire codec
/// (`owlpar-serve`), so every length-prefixed byte stream in the system
/// rejects the same degenerate inputs.
pub const MAX_PAYLOAD_BYTES: u64 = 64 * 1024 * 1024;

/// Why a payload length was rejected by [`check_payload_bounds`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadBoundsError {
    /// Zero-length payloads are never produced by a healthy peer — the
    /// transports skip empty batches at the sender.
    Empty,
    /// The payload exceeds [`MAX_PAYLOAD_BYTES`].
    Oversized {
        /// Claimed or observed length.
        len: u64,
        /// The bound that was exceeded.
        max: u64,
    },
}

impl std::fmt::Display for PayloadBoundsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PayloadBoundsError::Empty => write!(f, "zero-length payload"),
            PayloadBoundsError::Oversized { len, max } => {
                write!(f, "payload of {len} bytes exceeds the {max}-byte bound")
            }
        }
    }
}

impl std::error::Error for PayloadBoundsError {}

/// Validate a message/frame payload length *before* allocating or
/// decoding it. Both the shared-file decoder ([`WorkerComm::collect`])
/// and the `owlpar-serve` wire codec route their length fields through
/// this single check.
pub fn check_payload_bounds(len: u64) -> Result<(), PayloadBoundsError> {
    if len == 0 {
        Err(PayloadBoundsError::Empty)
    } else if len > MAX_PAYLOAD_BYTES {
        Err(PayloadBoundsError::Oversized {
            len,
            max: MAX_PAYLOAD_BYTES,
        })
    } else {
        Ok(())
    }
}

/// IO attempts per operation (first try + retries).
pub const RETRY_ATTEMPTS: u32 = 5;
/// Backoff before the second attempt; doubles per retry, capped at
/// [`RETRY_CAP`].
pub const RETRY_BASE: Duration = Duration::from_millis(1);
/// Upper bound on a single backoff sleep.
pub const RETRY_CAP: Duration = Duration::from_millis(50);

/// Is this IO error worth retrying?
fn transient(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
    )
}

/// Removes an auto-created shared directory when the last endpoint drops.
struct CommDirGuard {
    path: PathBuf,
}

impl Drop for CommDirGuard {
    fn drop(&mut self) {
        // Best-effort: a leftover dir is a leak, not a correctness issue.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// One worker's endpoint of the fabric.
pub struct WorkerComm {
    me: usize,
    round: usize,
    backend: Backend,
    faults: FaultState,
    skipped: Vec<SkippedMessage>,
    /// Bytes written by this worker (file mode) or triples moved
    /// (channel mode, 12 bytes each).
    pub bytes_sent: u64,
    /// Transient IO failures absorbed by retrying.
    pub io_retries: u64,
}

enum Backend {
    Channel {
        senders: Vec<Sender<Vec<Triple>>>,
        receiver: Receiver<Vec<Triple>>,
    },
    File {
        dir: PathBuf,
        dict: Arc<Dictionary>,
        format: WireFormat,
        /// Present iff the fabric auto-created the directory.
        _cleanup: Option<Arc<CommDirGuard>>,
    },
    Custom(Box<dyn Transport>),
}

/// Build the k-worker fabric for a mode. `dict` is the frozen global
/// dictionary (file mode decodes against it).
pub fn build_fabric(
    k: usize,
    mode: &CommMode,
    dict: Arc<Dictionary>,
) -> Result<Vec<WorkerComm>, CommError> {
    build_fabric_with_faults(k, mode, dict, None)
}

/// [`build_fabric`], with each endpoint additionally armed with its slice
/// of a fault-injection plan.
pub fn build_fabric_with_faults(
    k: usize,
    mode: &CommMode,
    dict: Arc<Dictionary>,
    plan: Option<&FaultPlan>,
) -> Result<Vec<WorkerComm>, CommError> {
    let fault_for = |me: usize| {
        plan.map(|p| p.for_worker(me)).unwrap_or_default()
    };
    match mode {
        CommMode::Channel => {
            let mut senders: Vec<Sender<Vec<Triple>>> = Vec::with_capacity(k);
            let mut receivers: Vec<Receiver<Vec<Triple>>> = Vec::with_capacity(k);
            for _ in 0..k {
                let (s, r) = unbounded();
                senders.push(s);
                receivers.push(r);
            }
            Ok(receivers
                .into_iter()
                .enumerate()
                .map(|(me, receiver)| {
                    let senders = senders.clone();
                    WorkerComm::new(me, Backend::Channel { senders, receiver }, fault_for(me))
                })
                .collect())
        }
        CommMode::SharedFile { dir, format } => {
            let (dir, cleanup) = match dir {
                Some(d) => (d.clone(), None),
                None => {
                    let mut d = std::env::temp_dir();
                    d.push(format!(
                        "owlpar-comm-{}-{:x}",
                        std::process::id(),
                        unique_nonce()
                    ));
                    let guard = Arc::new(CommDirGuard { path: d.clone() });
                    (d, Some(guard))
                }
            };
            std::fs::create_dir_all(&dir).map_err(|e| CommError::Io {
                round: 0,
                worker: 0,
                path: Some(dir.clone()),
                kind: e.kind(),
                detail: e.to_string(),
                attempts: 1,
            })?;
            Ok((0..k)
                .map(|me| {
                    let backend = Backend::File {
                        dir: dir.clone(),
                        dict: Arc::clone(&dict),
                        format: *format,
                        _cleanup: cleanup.clone(),
                    };
                    WorkerComm::new(me, backend, fault_for(me))
                })
                .collect())
        }
        CommMode::Custom(factory) => {
            let endpoints = factory.build(k)?;
            if endpoints.len() != k {
                return Err(CommError::Unsupported {
                    detail: "the transport factory did not build one endpoint per worker",
                });
            }
            Ok(endpoints
                .into_iter()
                .enumerate()
                .map(|(me, transport)| {
                    WorkerComm::new(me, Backend::Custom(transport), fault_for(me))
                })
                .collect())
        }
    }
}

/// Monotonic nonce for temp-dir names (avoids collisions between
/// concurrently running fabrics in one process, e.g. parallel tests).
pub(crate) fn unique_nonce() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NONCE: AtomicU64 = AtomicU64::new(1);
    NONCE.fetch_add(1, Ordering::Relaxed)
}

impl WorkerComm {
    fn new(me: usize, backend: Backend, faults: FaultState) -> Self {
        WorkerComm {
            me,
            round: 0,
            backend,
            faults,
            skipped: Vec::new(),
            bytes_sent: 0,
            io_retries: 0,
        }
    }

    /// Worker `me`'s endpoint over one [`Transport`] built outside a
    /// fabric (a cluster worker's mesh endpoint), with no faults armed.
    pub fn custom(me: usize, transport: Box<dyn Transport>) -> Self {
        WorkerComm::new(me, Backend::Custom(transport), FaultState::default())
    }

    /// This worker's index.
    pub fn me(&self) -> usize {
        self.me
    }

    /// Messages skipped with a report so far (corrupted/undecodable).
    pub fn skipped(&self) -> &[SkippedMessage] {
        &self.skipped
    }

    /// Fire the worker-level faults the plan pins to the start of
    /// `round` (the round is explicit because the async mode numbers
    /// bursts itself): a panic, which the master contains, or a
    /// wall-clock delay before the round's sends.
    pub fn fire_round_faults(&self, round: usize) {
        if self.faults.panic_scheduled(round) {
            self.faults.fire_panic(round, self.me);
        }
        if let Some(d) = self.faults.send_delay(round) {
            std::thread::sleep(d);
        }
    }

    /// Run `op` with bounded retry + exponential backoff on transient IO
    /// errors; consult the fault plan for injected failures first.
    fn retry_io<T>(
        faults: &mut FaultState,
        io_retries: &mut u64,
        round: usize,
        worker: usize,
        is_send: bool,
        path: Option<&PathBuf>,
        mut op: impl FnMut() -> std::io::Result<T>,
    ) -> Result<T, CommError> {
        // The same capped-exponential pacing the TCP transport uses for
        // its connect retries (`backoff`): one discipline, two fabrics.
        let mut backoff = Backoff::new(RETRY_BASE, RETRY_CAP);
        let mut last: Option<std::io::Error> = None;
        for attempt in 1..=RETRY_ATTEMPTS {
            let injected = if is_send {
                faults.take_send_io(round)
            } else {
                faults.take_collect_io(round)
            };
            let result = if injected {
                Err(std::io::Error::new(
                    ErrorKind::Interrupted,
                    "injected transient IO fault",
                ))
            } else {
                op()
            };
            match result {
                Ok(v) => return Ok(v),
                Err(e) if transient(e.kind()) && attempt < RETRY_ATTEMPTS => {
                    *io_retries += 1;
                    last = Some(e);
                    backoff.sleep();
                }
                Err(e) => {
                    return Err(CommError::Io {
                        round,
                        worker,
                        path: path.cloned(),
                        kind: e.kind(),
                        detail: e.to_string(),
                        attempts: attempt,
                    });
                }
            }
        }
        // All attempts were transient failures.
        let (kind, detail) = last
            .map(|e| (e.kind(), e.to_string()))
            .unwrap_or((ErrorKind::Other, "exhausted retries".to_string()));
        Err(CommError::Io {
            round,
            worker,
            path: path.cloned(),
            kind,
            detail,
            attempts: RETRY_ATTEMPTS,
        })
    }

    /// Send a batch to worker `to`. Must happen before the round barrier.
    ///
    /// File mode writes atomically (temp file + rename) and retries
    /// transient IO errors; a persistent failure comes back as
    /// [`CommError::Io`]. Channel mode reports a dead receiver as
    /// [`CommError::Disconnected`].
    pub fn send(&mut self, to: usize, batch: &[Triple]) -> Result<(), CommError> {
        if batch.is_empty() {
            return Ok(());
        }
        let round = self.round;
        let me = self.me;
        match &mut self.backend {
            Backend::Channel { senders, .. } => {
                // Injected transient faults exercise the same retry path
                // the file transport uses.
                Self::retry_io(
                    &mut self.faults,
                    &mut self.io_retries,
                    round,
                    me,
                    true,
                    None,
                    || Ok(()),
                )?;
                match senders.get(to) {
                    Some(s) if s.send(batch.to_vec()).is_ok() => {
                        self.bytes_sent += (batch.len() * 12) as u64;
                        Ok(())
                    }
                    _ => Err(CommError::Disconnected {
                        round,
                        from: me,
                        to,
                    }),
                }
            }
            Backend::Custom(transport) => {
                // Injected transient faults exercise the same retry path
                // the file transport uses; real wire failures are the
                // transport's own (it retries connects internally, but a
                // broken established stream is not retryable).
                Self::retry_io(
                    &mut self.faults,
                    &mut self.io_retries,
                    round,
                    me,
                    true,
                    None,
                    || Ok(()),
                )?;
                self.bytes_sent += transport.send(round, to, batch)?;
                Ok(())
            }
            Backend::File {
                dir, dict, format, ..
            } => {
                let path = dir.join(format!("r{}_f{}_t{}.msg", round, me, to));
                let body = match format {
                    WireFormat::Binary => encode_triple_block(batch),
                    WireFormat::NTriples => {
                        let mut text = String::new();
                        for t in batch {
                            match (dict.term(t.s), dict.term(t.p), dict.term(t.o)) {
                                (Some(s), Some(p), Some(o)) => {
                                    text.push_str(&format!("{s} {p} {o} .\n"));
                                }
                                _ => {
                                    // A triple whose id escaped the frozen
                                    // dictionary cannot be serialized;
                                    // skip it with a report rather than
                                    // poisoning the whole batch.
                                    self.skipped.push(SkippedMessage {
                                        round,
                                        worker: me,
                                        origin: format!("outbound to {to}"),
                                        reason: format!(
                                            "triple {t} has ids outside the frozen dictionary"
                                        ),
                                    });
                                }
                            }
                        }
                        text.into_bytes()
                    }
                };
                if body.is_empty() {
                    // Every triple of the batch was skipped during
                    // serialization; a healthy peer never writes an
                    // empty message (the frame codec rejects them).
                    return Ok(());
                }
                let mut bytes = Vec::with_capacity(8 + body.len());
                // Only an oversized body can fail to frame: a typed error
                // here, instead of a message every receiver would skip.
                write_crc_frame(&mut bytes, &body).map_err(|e| CommError::Io {
                    round,
                    worker: me,
                    path: Some(path.clone()),
                    kind: ErrorKind::InvalidInput,
                    detail: format!("framing message to {to}: {e}"),
                    attempts: 1,
                })?;
                if let Some(truncate_only) = self.faults.mangle(round, to) {
                    let half = bytes.len() / 2;
                    bytes.truncate(half.max(1));
                    if !truncate_only {
                        for b in &mut bytes {
                            *b ^= 0xa5;
                        }
                    }
                }
                self.bytes_sent += bytes.len() as u64;
                Self::retry_io(
                    &mut self.faults,
                    &mut self.io_retries,
                    round,
                    me,
                    true,
                    Some(&path),
                    // The shared temp+rename discipline (`durable`): a
                    // crashed sender leaves only `.tmp` debris, which
                    // `collect` never picks up.
                    || crate::durable::atomic_write(&path, &bytes),
                )
            }
        }
    }

    /// Non-blocking drain for the asynchronous mode (paper §VI-B: "by
    /// making a partition not wait till all other partitions finish, but
    /// rather start immediately using all the currently received tuples").
    /// Channel transport only — the file transport is inherently
    /// round-structured, and asking it to drain asynchronously is a
    /// configuration error ([`CommError::Unsupported`]).
    pub fn try_collect(&mut self) -> Result<Vec<Triple>, CommError> {
        match &mut self.backend {
            Backend::Channel { receiver, .. } => {
                let mut out = Vec::new();
                while let Ok(batch) = receiver.try_recv() {
                    out.extend(batch);
                }
                Ok(out)
            }
            Backend::File { .. } => Err(CommError::Unsupported {
                detail: "asynchronous draining requires the channel transport",
            }),
            Backend::Custom(transport) => transport.try_collect(),
        }
    }

    /// Drain every message addressed to this worker this round. Must be
    /// called after the round barrier. Advances to the next round.
    ///
    /// Corrupted, truncated or undecodable messages are skipped with a
    /// [`SkippedMessage`] report (see [`WorkerComm::skipped`]); only a
    /// persistent IO failure aborts the collect.
    pub fn collect(&mut self) -> Result<Vec<Triple>, CommError> {
        let round = self.round;
        let me = self.me;
        let out = match &mut self.backend {
            Backend::Channel { receiver, .. } => {
                let mut out = Vec::new();
                while let Ok(batch) = receiver.try_recv() {
                    out.extend(batch);
                }
                out
            }
            Backend::Custom(transport) => {
                let out = transport.collect(round)?;
                self.skipped.extend(transport.take_skipped());
                out
            }
            Backend::File {
                dir, dict, format, ..
            } => {
                let mut out = Vec::new();
                let prefix = format!("r{round}_");
                let suffix = format!("_t{me}.msg");
                let dir_path = dir.clone();
                let entries = Self::retry_io(
                    &mut self.faults,
                    &mut self.io_retries,
                    round,
                    me,
                    false,
                    Some(&dir_path),
                    || {
                        std::fs::read_dir(&dir_path)
                            .and_then(|rd| rd.collect::<std::io::Result<Vec<_>>>())
                    },
                )?;
                for entry in entries {
                    let name = entry.file_name();
                    let name = name.to_string_lossy().into_owned();
                    if !name.starts_with(&prefix) || !name.ends_with(&suffix) {
                        continue; // foreign file: not ours, not this round
                    }
                    let path = entry.path();
                    let mut skip = |reason: String| {
                        self.skipped.push(SkippedMessage {
                            round,
                            worker: me,
                            origin: name.clone(),
                            reason,
                        });
                    };
                    // Bounds-check the file length before reading: the
                    // same check the serving wire codec applies to its
                    // length prefix. A zero-length or oversized message
                    // is skipped with a report, not read into memory.
                    if let Ok(meta) = entry.metadata() {
                        if let Err(bounds) = check_payload_bounds(meta.len()) {
                            skip(bounds.to_string());
                            let _ = std::fs::remove_file(&path);
                            continue;
                        }
                    }
                    let read = Self::retry_io(
                        &mut self.faults,
                        &mut self.io_retries,
                        round,
                        me,
                        false,
                        Some(&path),
                        || std::fs::read(&path),
                    );
                    // Read or not, the message is consumed.
                    let _ = std::fs::remove_file(&path);
                    let bytes = match read {
                        Ok(b) => b,
                        Err(CommError::Io { kind, detail, .. }) => {
                            // One unreadable message file must not poison
                            // the round: skip it with a report.
                            skip(format!("unreadable after retries: {detail} ({kind:?})"));
                            continue;
                        }
                        Err(e) => return Err(e),
                    };
                    // One frame, all of it: a torn, damaged or padded
                    // message delivers nothing.
                    let mut rest = &bytes[..];
                    let body = match read_crc_frame(&mut rest) {
                        Ok(body) if rest.is_empty() => body,
                        Ok(_) => {
                            skip(format!("{} trailing byte(s) after the frame", rest.len()));
                            continue;
                        }
                        Err(e) => {
                            skip(format!("damaged message: {e}"));
                            continue;
                        }
                    };
                    match format {
                        WireFormat::Binary => match decode_triple_block(&body) {
                            Ok((triples, used)) if used == body.len() => {
                                let n_terms = dict.len() as u32;
                                for t in triples {
                                    if t.s.0 < n_terms && t.p.0 < n_terms && t.o.0 < n_terms {
                                        out.push(t);
                                    } else {
                                        skip(format!(
                                            "decoded triple {t} has ids outside the dictionary"
                                        ));
                                    }
                                }
                            }
                            Ok((_, used)) => skip(format!(
                                "{} trailing byte(s) after the triple block",
                                body.len() - used
                            )),
                            Err(e) => skip(format!("undecodable binary payload: {e}")),
                        },
                        WireFormat::NTriples => match String::from_utf8(body) {
                            Err(_) => skip("payload is not valid UTF-8".into()),
                            Ok(text) => {
                                let mut tmp = Graph::new();
                                match parse_ntriples(&text, &mut tmp) {
                                    Err(e) => skip(format!("malformed N-Triples: {e}")),
                                    Ok(_) => {
                                        for t in tmp.store.iter() {
                                            let (s, p, o) = tmp.decode(t);
                                            match (dict.id(&s), dict.id(&p), dict.id(&o)) {
                                                (Some(s), Some(p), Some(o)) => {
                                                    out.push(Triple::new(s, p, o));
                                                }
                                                _ => skip(format!(
                                                    "term of ({s} {p} {o}) not in the frozen dictionary"
                                                )),
                                            }
                                        }
                                    }
                                }
                            }
                        },
                    }
                }
                out
            }
        };
        self.round += 1;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::fault::FaultKind;
    use owlpar_rdf::NodeId;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    fn dict_with(n: u32) -> Arc<Dictionary> {
        let mut d = Dictionary::new();
        for i in 0..n {
            d.intern_iri(format!("http://x/n{i}"));
        }
        Arc::new(d)
    }

    /// A custom fabric is another crate's code: one that builds the wrong
    /// number of endpoints is refused before any worker is spawned on it.
    #[test]
    fn a_custom_fabric_of_the_wrong_size_is_refused() {
        struct Short;
        impl TransportFactory for Short {
            fn label(&self) -> &'static str {
                "short"
            }
            fn build(&self, _k: usize) -> Result<Vec<Box<dyn Transport>>, CommError> {
                Ok(Vec::new())
            }
        }
        let err = build_fabric(2, &CommMode::Custom(Arc::new(Short)), dict_with(1)).err();
        assert!(matches!(err, Some(CommError::Unsupported { .. })), "{err:?}");
    }

    #[test]
    fn channel_roundtrip() {
        let mut fabric = build_fabric(2, &CommMode::Channel, dict_with(10)).unwrap();
        let mut w1 = fabric.pop().unwrap();
        let mut w0 = fabric.pop().unwrap();
        w0.send(1, &[t(1, 2, 3), t(4, 5, 6)]).unwrap();
        w1.send(0, &[t(7, 8, 9)]).unwrap();
        assert_eq!(w1.collect().unwrap(), vec![t(1, 2, 3), t(4, 5, 6)]);
        assert_eq!(w0.collect().unwrap(), vec![t(7, 8, 9)]);
        // next round: nothing pending
        assert!(w0.collect().unwrap().is_empty());
    }

    #[test]
    fn channel_empty_batch_not_sent() {
        let mut fabric = build_fabric(2, &CommMode::Channel, dict_with(1)).unwrap();
        let mut w1 = fabric.pop().unwrap();
        let mut w0 = fabric.pop().unwrap();
        w0.send(1, &[]).unwrap();
        assert_eq!(w0.bytes_sent, 0);
        assert!(w1.collect().unwrap().is_empty());
    }

    #[test]
    fn channel_dead_receiver_is_disconnected_not_panic() {
        let mut fabric = build_fabric(2, &CommMode::Channel, dict_with(10)).unwrap();
        let w1 = fabric.pop().unwrap();
        let mut w0 = fabric.pop().unwrap();
        drop(w1); // worker 1 died
        let err = w0.send(1, &[t(1, 2, 3)]).unwrap_err();
        assert!(matches!(err, CommError::Disconnected { to: 1, .. }));
    }

    fn file_mode(format: WireFormat) -> CommMode {
        CommMode::SharedFile { dir: None, format }
    }

    /// A message file as a healthy sender writes it: one CRC frame.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_crc_frame(&mut bytes, body).unwrap();
        bytes
    }

    #[test]
    fn file_binary_roundtrip() {
        let mut fabric = build_fabric(3, &file_mode(WireFormat::Binary), dict_with(10)).unwrap();
        let mut w2 = fabric.pop().unwrap();
        let mut w1 = fabric.pop().unwrap();
        let mut w0 = fabric.pop().unwrap();
        w0.send(2, &[t(1, 2, 3)]).unwrap();
        w1.send(2, &[t(4, 5, 6)]).unwrap();
        let mut got = w2.collect().unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![t(1, 2, 3), t(4, 5, 6)]);
        assert!(w0.collect().unwrap().is_empty());
        assert!(w1.collect().unwrap().is_empty());
    }

    #[test]
    fn file_ntriples_roundtrip_via_dictionary() {
        let dict = dict_with(10);
        let mut fabric =
            build_fabric(2, &file_mode(WireFormat::NTriples), Arc::clone(&dict)).unwrap();
        let mut w1 = fabric.pop().unwrap();
        let mut w0 = fabric.pop().unwrap();
        w0.send(1, &[t(0, 1, 2), t(3, 4, 5)]).unwrap();
        assert!(w0.bytes_sent > 24, "text encoding is bigger than binary");
        let mut got = w1.collect().unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![t(0, 1, 2), t(3, 4, 5)]);
    }

    #[test]
    fn file_rounds_are_isolated() {
        let mut fabric = build_fabric(2, &file_mode(WireFormat::Binary), dict_with(4)).unwrap();
        let mut w1 = fabric.pop().unwrap();
        let mut w0 = fabric.pop().unwrap();
        // round 0
        w0.send(1, &[t(0, 1, 2)]).unwrap();
        assert_eq!(w1.collect().unwrap(), vec![t(0, 1, 2)]);
        let _ = w0.collect().unwrap();
        // round 1: a message from round 0 must not reappear
        w0.send(1, &[t(1, 2, 3)]).unwrap();
        assert_eq!(w1.collect().unwrap(), vec![t(1, 2, 3)]);
    }

    #[test]
    fn ntriples_mode_counts_more_bytes_than_binary() {
        let dict = dict_with(10);
        let batch = [t(0, 1, 2), t(3, 4, 5), t(6, 7, 8)];
        let mut nt = build_fabric(2, &file_mode(WireFormat::NTriples), Arc::clone(&dict)).unwrap();
        let mut bin = build_fabric(2, &file_mode(WireFormat::Binary), dict).unwrap();
        nt[0].send(1, &batch).unwrap();
        bin[0].send(1, &batch).unwrap();
        assert!(nt[0].bytes_sent > bin[0].bytes_sent * 3);
    }

    /// Shared dir for tests that need to reach into the directory
    /// themselves (cleaned up manually — explicit dirs are not
    /// auto-removed).
    fn explicit_dir() -> PathBuf {
        let mut d = std::env::temp_dir();
        d.push(format!(
            "owlpar-comm-test-{}-{:x}",
            std::process::id(),
            unique_nonce()
        ));
        d
    }

    #[test]
    fn auto_temp_dir_removed_when_last_endpoint_drops() {
        let dict = dict_with(4);
        let mut fabric = build_fabric(2, &file_mode(WireFormat::Binary), dict).unwrap();
        let dir = match &fabric[0].backend {
            Backend::File { dir, .. } => dir.clone(),
            _ => unreachable!(),
        };
        assert!(dir.exists(), "fabric created its temp dir");
        fabric[0].send(1, &[t(0, 1, 2)]).unwrap();
        let w1 = fabric.pop().unwrap();
        drop(w1);
        assert!(dir.exists(), "dir survives while an endpoint remains");
        drop(fabric);
        assert!(!dir.exists(), "last endpoint removes the dir");
    }

    #[test]
    fn explicit_dir_not_removed_on_drop() {
        let dir = explicit_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let mode = CommMode::SharedFile {
            dir: Some(dir.clone()),
            format: WireFormat::Binary,
        };
        let fabric = build_fabric(2, &mode, dict_with(4)).unwrap();
        drop(fabric);
        assert!(dir.exists(), "user-provided dirs are the user's to manage");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_file_dropped_mid_round_is_skipped_with_report() {
        // The satellite regression: a garbage file lands in the shared
        // dir mid-round. collect() must skip it with a report instead of
        // panicking, and still deliver the well-formed message.
        let dir = explicit_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let mode = CommMode::SharedFile {
            dir: Some(dir.clone()),
            format: WireFormat::NTriples,
        };
        let dict = dict_with(10);
        let mut fabric = build_fabric(2, &mode, dict).unwrap();
        let mut w1 = fabric.pop().unwrap();
        let mut w0 = fabric.pop().unwrap();
        w0.send(1, &[t(0, 1, 2)]).unwrap();
        // mid-round garbage addressed to worker 1, framed intact: invalid
        // UTF-8 bytes
        std::fs::write(dir.join("r0_f9_t1.msg"), framed(&[0xff, 0xfe, 0x00, 0x80])).unwrap();
        // and a syntactically broken N-Triples file
        std::fs::write(dir.join("r0_f8_t1.msg"), framed(b"<no closing bracket .\n")).unwrap();
        // and bytes that are not a frame at all
        std::fs::write(dir.join("r0_f7_t1.msg"), "<a> <b> <c> .\n").unwrap();
        // and a foreign file that matches no message pattern at all
        std::fs::write(dir.join("README.txt"), "not a message").unwrap();
        let got = w1.collect().unwrap();
        assert_eq!(got, vec![t(0, 1, 2)], "good message still delivered");
        assert_eq!(w1.skipped().len(), 3, "every garbage file reported");
        assert!(w1.skipped().iter().any(|s| s.reason.contains("UTF-8")));
        assert!(w1
            .skipped()
            .iter()
            .any(|s| s.reason.contains("malformed N-Triples")));
        assert!(w1.skipped().iter().any(|s| s.reason.contains("damaged")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_terms_in_ntriples_skipped_with_report() {
        let dir = explicit_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let mode = CommMode::SharedFile {
            dir: Some(dir.clone()),
            format: WireFormat::NTriples,
        };
        let mut fabric = build_fabric(2, &mode, dict_with(4)).unwrap();
        let mut w1 = fabric.pop().unwrap();
        // a well-formed message whose terms the frozen dictionary has
        // never seen
        std::fs::write(
            dir.join("r0_f0_t1.msg"),
            framed(b"<http://alien/a> <http://alien/b> <http://alien/c> .\n"),
        )
        .unwrap();
        let got = w1.collect().unwrap();
        assert!(got.is_empty());
        assert_eq!(w1.skipped().len(), 1);
        assert!(w1.skipped()[0].reason.contains("frozen dictionary"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A truncated message delivers nothing and is reported once. When
    /// binary messages were bare 12-byte triples, halving a 2-triple
    /// batch cut at a triple boundary and delivered the first triple with
    /// no report at all — a silent partial message. A message is one CRC
    /// frame now, all or nothing, like a frame on the TCP mesh.
    #[test]
    fn truncated_binary_message_is_skipped_whole_with_report() {
        let plan = FaultPlan::new().with(0, 0, FaultKind::Truncate { to: 1 });
        let mut fabric = build_fabric_with_faults(
            2,
            &file_mode(WireFormat::Binary),
            dict_with(10),
            Some(&plan),
        )
        .unwrap();
        let mut w1 = fabric.pop().unwrap();
        let mut w0 = fabric.pop().unwrap();
        w0.send(1, &[t(0, 1, 2), t(3, 4, 5)]).unwrap();
        assert!(w1.collect().unwrap().is_empty(), "no prefix delivered");
        assert_eq!(w1.skipped().len(), 1);
        assert!(w1.skipped()[0].reason.contains("damaged"));
    }

    #[test]
    fn binary_ids_outside_dictionary_skipped() {
        let dir = explicit_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let mode = CommMode::SharedFile {
            dir: Some(dir.clone()),
            format: WireFormat::Binary,
        };
        let mut fabric = build_fabric(2, &mode, dict_with(4)).unwrap();
        let mut w1 = fabric.pop().unwrap();
        let block = encode_triple_block(&[t(0, 1, 2), t(9999, 1, 2)]);
        std::fs::write(dir.join("r0_f0_t1.msg"), framed(&block)).unwrap();
        let got = w1.collect().unwrap();
        assert_eq!(got, vec![t(0, 1, 2)]);
        assert_eq!(w1.skipped().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_length_message_skipped_with_report() {
        let dir = explicit_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let mode = CommMode::SharedFile {
            dir: Some(dir.clone()),
            format: WireFormat::Binary,
        };
        let mut fabric = build_fabric(2, &mode, dict_with(10)).unwrap();
        let mut w1 = fabric.pop().unwrap();
        let mut w0 = fabric.pop().unwrap();
        w0.send(1, &[t(0, 1, 2)]).unwrap();
        std::fs::write(dir.join("r0_f9_t1.msg"), []).unwrap();
        let got = w1.collect().unwrap();
        assert_eq!(got, vec![t(0, 1, 2)], "good message still delivered");
        assert_eq!(w1.skipped().len(), 1);
        assert!(w1.skipped()[0].reason.contains("zero-length"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_message_skipped_without_reading_it() {
        let dir = explicit_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let mode = CommMode::SharedFile {
            dir: Some(dir.clone()),
            format: WireFormat::Binary,
        };
        let mut fabric = build_fabric(2, &mode, dict_with(10)).unwrap();
        let mut w1 = fabric.pop().unwrap();
        // A sparse file one byte over the bound — created instantly,
        // never read by collect.
        let f = std::fs::File::create(dir.join("r0_f0_t1.msg")).unwrap();
        f.set_len(MAX_PAYLOAD_BYTES + 1).unwrap();
        drop(f);
        let got = w1.collect().unwrap();
        assert!(got.is_empty());
        assert_eq!(w1.skipped().len(), 1);
        assert!(w1.skipped()[0].reason.contains("exceeds"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn payload_bounds_shared_check() {
        assert_eq!(check_payload_bounds(0), Err(PayloadBoundsError::Empty));
        assert!(check_payload_bounds(1).is_ok());
        assert!(check_payload_bounds(MAX_PAYLOAD_BYTES).is_ok());
        assert!(matches!(
            check_payload_bounds(MAX_PAYLOAD_BYTES + 1),
            Err(PayloadBoundsError::Oversized { .. })
        ));
    }

    #[test]
    fn injected_transient_send_faults_are_retried_through() {
        let plan = FaultPlan::new().with(0, 0, FaultKind::SendIo { failures: 2 });
        let dict = dict_with(10);
        let mut fabric = build_fabric_with_faults(
            2,
            &file_mode(WireFormat::Binary),
            dict,
            Some(&plan),
        )
        .unwrap();
        let mut w1 = fabric.pop().unwrap();
        let mut w0 = fabric.pop().unwrap();
        w0.send(1, &[t(1, 2, 3)]).unwrap();
        assert_eq!(w0.io_retries, 2, "two injected failures absorbed");
        assert_eq!(w1.collect().unwrap(), vec![t(1, 2, 3)]);
    }

    #[test]
    fn injected_persistent_send_fault_surfaces_typed_error() {
        let plan = FaultPlan::new().with(
            0,
            0,
            FaultKind::SendIo {
                failures: RETRY_ATTEMPTS,
            },
        );
        let dict = dict_with(10);
        let mut fabric = build_fabric_with_faults(
            2,
            &file_mode(WireFormat::Binary),
            dict,
            Some(&plan),
        )
        .unwrap();
        let mut w0 = fabric.swap_remove(0);
        let err = w0.send(1, &[t(1, 2, 3)]).unwrap_err();
        assert!(matches!(
            err,
            CommError::Io {
                round: 0,
                worker: 0,
                attempts: RETRY_ATTEMPTS,
                ..
            }
        ));
    }

    #[test]
    fn injected_corruption_is_skipped_with_report() {
        let plan = FaultPlan::new().with(0, 0, FaultKind::Corrupt { to: 1 });
        let dict = dict_with(10);
        let mut fabric = build_fabric_with_faults(
            2,
            &file_mode(WireFormat::NTriples),
            dict,
            Some(&plan),
        )
        .unwrap();
        let mut w1 = fabric.pop().unwrap();
        let mut w0 = fabric.pop().unwrap();
        w0.send(1, &[t(0, 1, 2)]).unwrap();
        let got = w1.collect().unwrap();
        assert!(got.is_empty(), "corrupted payload must not decode");
        assert_eq!(w1.skipped().len(), 1);
    }

    #[test]
    fn async_drain_on_file_transport_is_typed_error() {
        let mut fabric = build_fabric(2, &file_mode(WireFormat::Binary), dict_with(4)).unwrap();
        assert!(matches!(
            fabric[0].try_collect(),
            Err(CommError::Unsupported { .. })
        ));
    }
}
