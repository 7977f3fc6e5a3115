//! The TCP mesh: one connection per worker pair, every inter-partition
//! triple in a CRC frame, implementing the core's [`Transport`] plug-in.
//!
//! One builder, two users. An endpoint joins the mesh with `join_mesh`:
//! it dials every lower id and announces itself in a 4-byte id header,
//! and accepts every higher id and checks that header, all before a
//! deadline. [`TcpFabricFactory::build`] binds `k` loopback listeners
//! and joins ids `k − 1 … 0` on one thread (every dial completes through
//! the peer's listen backlog), then hands the endpoints to
//! `run_parallel` through [`CommMode::Custom`](owlpar_core::CommMode); a
//! cluster worker (`cluster`) joins once, from the peer table its
//! `Setup` carries. A batch leaves as frames of at most a chunk of
//! triples, so no round is too big for the codec's per-frame cap, and
//! every frame is tallied to its round.
//!
//! ## Deadlock freedom
//!
//! The classic mesh failure is two peers blocking on writes into each
//! other's full kernel buffers with neither reading. Each endpoint
//! therefore runs one detached *reader thread per peer* that does
//! nothing but pull frames off the socket and push parsed events into
//! the endpoint's inbox channel — kernel receive buffers are always
//! drained, so a blocking `send` always makes progress.
//!
//! ## Round framing
//!
//! A TCP stream multiplexes every round, so each frame carries its round
//! number and `collect(r)` first sends an end-of-round marker to every
//! peer, then drains its inbox until each live peer has delivered its
//! own round-`r` marker. The round's vote guarantees no honest peer can
//! be a full round ahead while we are still collecting `r`: in process
//! it cannot leave round `r`'s barrier before we reach it, and in a
//! cluster the master's round-`r` verdict waits for our `RoundDone`,
//! which we send only after this collect. So a frame with any other
//! round number is a protocol violation, not a buffering problem. A peer
//! whose socket reaches EOF is treated as cleanly dead — the runtime's
//! fault layer decides what that means — while CRC or grammar damage
//! poisons the collect with [`CommError::Protocol`], because a corrupted
//! length-prefixed stream cannot be resynchronized.

use owlpar_core::stats::WirePhase;
use owlpar_core::{
    decode_triple_block, encode_triple_block, read_crc_frame, write_crc_frame, Backoff, CommError,
    FrameError, Transport, TransportFactory,
};
use owlpar_rdf::Triple;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

const TAG_TRIPLES: u8 = 1;
const TAG_END_ROUND: u8 = 2;

/// Frame envelope cost of the shared codec (`len u32 | crc u32`).
pub(crate) const FRAME_OVERHEAD: u64 = 8;

/// Default chunk bound for streamed transfers (mesh triple frames,
/// `FinalChunk`), in triples. One chunk encodes well under the 64 MB
/// per-frame payload cap even at the raw-equivalent 12 bytes/triple;
/// transfers of any size stream as chunk sequences, so the cap never
/// limits a round or a result. Tests lower it to force multi-chunk
/// streams on tiny KBs.
pub const DEFAULT_CHUNK_TRIPLES: usize = 1 << 20;

/// How long `build` keeps retrying a refused loopback connect.
const CONNECT_DEADLINE: Duration = Duration::from_secs(10);

/// Builds loopback TCP mesh fabrics; plug into
/// [`ParallelConfig::comm`](owlpar_core::ParallelConfig) via
/// `CommMode::Custom(Arc::new(TcpFabricFactory::default()))`.
#[derive(Debug, Clone)]
pub struct TcpFabricFactory {
    /// Per-event patience while collecting a round (and the write
    /// timeout on every socket). An endpoint that waits longer than this
    /// for the *next* frame of a round fails the collect with
    /// [`CommError::Timeout`].
    pub io_timeout: Duration,
}

impl Default for TcpFabricFactory {
    fn default() -> Self {
        TcpFabricFactory {
            io_timeout: Duration::from_secs(30),
        }
    }
}

impl TransportFactory for TcpFabricFactory {
    fn label(&self) -> &'static str {
        "tcp-loopback-mesh"
    }

    /// `k` loopback listeners, then every endpoint's [`join_mesh`] from
    /// id `k − 1` down to 0 on this one thread: each dials only lower ids,
    /// whose listeners already exist, so every dial completes through the
    /// listen backlog before its peer accepts it.
    fn build(&self, k: usize) -> Result<Vec<Box<dyn Transport>>, CommError> {
        let bound = (0..k)
            .map(|_| {
                let listener = TcpListener::bind("127.0.0.1:0")?;
                Ok((listener.local_addr()?, listener))
            })
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| io_comm_error(0, &e, format!("binding mesh listeners: {e}")))?;
        let addrs: Vec<SocketAddr> = bound.iter().map(|(addr, _)| *addr).collect();
        let deadline = Instant::now() + CONNECT_DEADLINE;
        let mut endpoints: Vec<Box<dyn Transport>> = Vec::with_capacity(k);
        for (me, (_, listener)) in bound.iter().enumerate().rev() {
            let (patience, chunk) = (self.io_timeout, DEFAULT_CHUNK_TRIPLES);
            let endpoint = join_mesh(me, listener, &addrs, deadline, patience, chunk)?;
            endpoints.push(Box::new(endpoint));
        }
        endpoints.reverse();
        Ok(endpoints)
    }
}

/// What a reader thread distills each inbound frame into.
enum MeshEvent {
    /// A routed batch for `round`.
    Triples {
        from: usize,
        round: usize,
        batch: Vec<Triple>,
    },
    /// The peer finished sending for `round`.
    End { from: usize, round: usize },
    /// The peer's stream ended. `clean` for EOF/reset (the peer process
    /// or thread is simply gone); unclean for CRC or grammar damage.
    Dead {
        from: usize,
        clean: bool,
        detail: String,
    },
}

/// What one endpoint wrote to its peers, indexed by round: bytes
/// (envelopes included), frames, triples. Shared, so the owner of a
/// boxed endpoint can still read it.
pub(crate) type MeshTally = Arc<Mutex<Vec<WirePhase>>>;

/// One worker's endpoint of the mesh.
pub(crate) struct TcpTransport {
    me: usize,
    /// Write half per peer (`None` at `me` and for dead peers).
    peers: Vec<Option<TcpStream>>,
    /// Peers whose connection is gone (send attempts fail fast).
    dead: Vec<bool>,
    /// Inbox fed by this endpoint's reader threads.
    events: mpsc::Receiver<MeshEvent>,
    /// Kept so reader threads never observe a closed channel while the
    /// endpoint lives (they each hold a clone).
    _events_tx: mpsc::Sender<MeshEvent>,
    io_timeout: Duration,
    /// Most triples per triple frame.
    chunk: usize,
    pub(crate) tally: MeshTally,
}

fn io_comm_error(worker: usize, e: &std::io::Error, detail: String) -> CommError {
    CommError::Io {
        round: 0,
        worker,
        path: None,
        kind: e.kind(),
        detail,
        attempts: 1,
    }
}

/// Dial `addr` until it accepts or `deadline` passes, with the shared
/// capped exponential backoff between attempts; no attempt outlives the
/// deadline.
fn dial_before(addr: SocketAddr, deadline: Instant) -> std::io::Result<TcpStream> {
    let mut backoff = Backoff::new(Duration::from_millis(1), Duration::from_millis(50));
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match TcpStream::connect_timeout(&addr, left.max(Duration::from_millis(1))) {
            Err(_) if Instant::now() < deadline => backoff.sleep(),
            dialed => return dialed,
        }
    }
}

/// Accept one connection on `listener` before `deadline` (`TimedOut`
/// after it), polling with the shared backoff so a slow peer neither
/// busy-spins the caller nor makes it oversleep the deadline.
pub(crate) fn accept_before(
    listener: &TcpListener,
    deadline: Instant,
) -> std::io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    let mut backoff = Backoff::new(Duration::from_millis(1), Duration::from_millis(50));
    loop {
        match listener.accept() {
            Ok((s, _)) => {
                s.set_nonblocking(false)?;
                return Ok(s);
            }
            Err(e) if e.kind() != ErrorKind::WouldBlock => return Err(e),
            Err(_) if Instant::now() >= deadline => return Err(ErrorKind::TimedOut.into()),
            Err(_) => backoff.sleep(),
        }
    }
}

/// Join the mesh as endpoint `me` of `peers.len()`: dial every lower id
/// and announce `me` in a 4-byte id header, accept every higher id on
/// `listener` and check its header, all before `deadline`. Frames carry
/// at most `chunk` triples; `io_timeout` is the per-event patience of a
/// collect and the write timeout of every socket.
pub(crate) fn join_mesh(
    me: usize,
    listener: &TcpListener,
    peers: &[SocketAddr],
    deadline: Instant,
    io_timeout: Duration,
    chunk: usize,
) -> Result<TcpTransport, CommError> {
    let k = peers.len();
    let map_io =
        |what: &'static str| move |e: std::io::Error| io_comm_error(me, &e, format!("{what}: {e}"));
    let mut streams: Vec<Option<TcpStream>> = (0..k).map(|_| None).collect();
    for (peer, &addr) in peers.iter().enumerate().take(me) {
        let mut dial = dial_before(addr, deadline).map_err(|e| {
            let detail = format!("connecting mesh peer {peer} at {addr}: {e}");
            io_comm_error(me, &e, detail)
        })?;
        dial.write_all(&(me as u32).to_le_bytes())
            .map_err(map_io("writing mesh id header"))?;
        streams[peer] = Some(dial);
    }
    for _ in me + 1..k {
        let mut accepted =
            accept_before(listener, deadline).map_err(map_io("accepting mesh peer"))?;
        let patience = deadline.saturating_duration_since(Instant::now());
        accepted
            .set_read_timeout(Some(patience.max(Duration::from_millis(1))))
            .map_err(map_io("setting header timeout"))?;
        let mut id = [0u8; 4];
        accepted
            .read_exact(&mut id)
            .map_err(map_io("reading mesh id header"))?;
        accepted
            .set_read_timeout(None)
            .map_err(map_io("clearing header timeout"))?;
        let announced = u32::from_le_bytes(id) as usize;
        if announced <= me || announced >= k || streams[announced].is_some() {
            return Err(CommError::Protocol {
                round: 0,
                worker: me,
                peer: announced,
                detail: format!(
                    "mesh peer announced id {announced}; endpoint {me} of {k} expects \
                     each of {}..{k} once",
                    me + 1
                ),
            });
        }
        streams[announced] = Some(accepted);
    }

    let (tx, rx) = mpsc::channel();
    let mut write_halves: Vec<Option<TcpStream>> = Vec::with_capacity(k);
    for (peer, stream) in streams.into_iter().enumerate() {
        match stream {
            Some(s) => {
                s.set_nodelay(true).map_err(map_io("setting nodelay"))?;
                s.set_write_timeout(Some(io_timeout))
                    .map_err(map_io("setting write timeout"))?;
                let reader = s.try_clone().map_err(map_io("cloning mesh stream"))?;
                spawn_reader(me, peer, reader, tx.clone());
                write_halves.push(Some(s));
            }
            None => write_halves.push(None),
        }
    }
    Ok(TcpTransport {
        me,
        peers: write_halves,
        dead: vec![false; k],
        events: rx,
        _events_tx: tx,
        io_timeout,
        chunk: chunk.max(1),
        tally: MeshTally::default(),
    })
}

/// Decode a mesh frame body: `tag u8 | round u32 | payload`.
fn parse_frame(body: &[u8]) -> Result<(u8, usize, &[u8]), String> {
    if body.len() < 5 {
        return Err(format!("mesh frame of {} byte(s), need at least 5", body.len()));
    }
    let tag = body[0];
    let round = u32::from_le_bytes([body[1], body[2], body[3], body[4]]) as usize;
    Ok((tag, round, &body[5..]))
}

/// The per-peer reader: drain frames until the stream dies, pushing
/// events into the endpoint's inbox. Detached — unblocked at shutdown by
/// `TcpTransport::drop` closing the socket.
fn spawn_reader(me: usize, from: usize, mut stream: TcpStream, tx: mpsc::Sender<MeshEvent>) {
    let fallback_tx = tx.clone();
    thread::Builder::new()
        .name(format!("mesh-{me}-from-{from}"))
        .spawn(move || loop {
            let event = match read_crc_frame(&mut stream) {
                Ok(body) => match parse_frame(&body) {
                    // v2 mesh payloads are compact delta/varint triple
                    // blocks; a block that does not decode cleanly to
                    // exactly the payload is unclean death, same as any
                    // other grammar damage.
                    Ok((TAG_TRIPLES, round, payload)) => match decode_triple_block(payload) {
                        Ok((batch, consumed)) if consumed == payload.len() => {
                            MeshEvent::Triples { from, round, batch }
                        }
                        Ok((_, consumed)) => MeshEvent::Dead {
                            from,
                            clean: false,
                            detail: format!(
                                "mesh triple block left {} trailing byte(s)",
                                payload.len() - consumed
                            ),
                        },
                        Err(e) => MeshEvent::Dead {
                            from,
                            clean: false,
                            detail: format!("bad mesh triple block: {e}"),
                        },
                    },
                    Ok((TAG_END_ROUND, round, [])) => MeshEvent::End { from, round },
                    Ok((tag, _, payload)) => MeshEvent::Dead {
                        from,
                        clean: false,
                        detail: format!(
                            "malformed mesh frame: tag {tag}, {} payload byte(s)",
                            payload.len()
                        ),
                    },
                    Err(detail) => MeshEvent::Dead {
                        from,
                        clean: false,
                        detail,
                    },
                },
                // EOF / reset: the peer is gone — clean from the
                // transport's perspective. Anything else on the stream
                // is unrecoverable damage.
                Err(FrameError::Io(e)) => MeshEvent::Dead {
                    from,
                    clean: matches!(
                        e.kind(),
                        ErrorKind::UnexpectedEof
                            | ErrorKind::ConnectionReset
                            | ErrorKind::ConnectionAborted
                            | ErrorKind::BrokenPipe
                    ),
                    detail: format!("mesh stream from peer {from}: {e}"),
                },
                Err(e) => MeshEvent::Dead {
                    from,
                    clean: false,
                    detail: format!("mesh stream from peer {from}: {e}"),
                },
            };
            let fatal = matches!(event, MeshEvent::Dead { .. });
            if tx.send(event).is_err() || fatal {
                return;
            }
        })
        // Thread spawn can only fail on resource exhaustion; surface it
        // as a dead peer rather than killing the build.
        .map(|_| ())
        .unwrap_or_else(|e| {
            let _ = fallback_tx.send(MeshEvent::Dead {
                from,
                clean: false,
                detail: format!("could not spawn mesh reader: {e}"),
            });
        });
}

impl TcpTransport {
    /// Write one frame carrying `triples` triples to peer `to`.
    fn write_to(
        &mut self,
        round: usize,
        to: usize,
        body: &[u8],
        triples: usize,
    ) -> Result<(), CommError> {
        let disconnected = CommError::Disconnected {
            round,
            from: self.me,
            to,
        };
        let Some(stream) = self.peers.get_mut(to).and_then(Option::as_mut) else {
            return Err(disconnected);
        };
        if self.dead[to] {
            return Err(disconnected);
        }
        match write_crc_frame(stream, body) {
            Ok(()) => {
                if let Ok(mut rounds) = self.tally.lock() {
                    if rounds.len() <= round {
                        rounds.resize(round + 1, WirePhase::default());
                    }
                    let bytes = body.len() as u64 + FRAME_OVERHEAD;
                    rounds[round] += WirePhase {
                        bytes,
                        frames: 1,
                        triples: triples as u64,
                    };
                }
                Ok(())
            }
            Err(FrameError::Io(_)) => {
                // The peer's receive path is gone; fail this send fast
                // and every later one too.
                self.dead[to] = true;
                let _ = stream.shutdown(Shutdown::Both);
                Err(disconnected)
            }
            Err(e) => Err(CommError::Io {
                round,
                worker: self.me,
                path: None,
                kind: ErrorKind::InvalidInput,
                detail: format!("framing mesh message to {to}: {e}"),
                attempts: 1,
            }),
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, round: usize, to: usize, batch: &[Triple]) -> Result<u64, CommError> {
        // Bounded frames whatever the batch size: a frame body over the
        // codec's 64 MB cap would be refused, not sent.
        let mut wrote = 0;
        for part in batch.chunks(self.chunk) {
            let mut body = Vec::with_capacity(5 + part.len() * 4);
            body.push(TAG_TRIPLES);
            body.extend_from_slice(&(round as u32).to_le_bytes());
            body.extend_from_slice(&encode_triple_block(part));
            self.write_to(round, to, &body, part.len())?;
            wrote += FRAME_OVERHEAD + body.len() as u64;
        }
        Ok(wrote)
    }

    fn collect(&mut self, round: usize) -> Result<Vec<Triple>, CommError> {
        let k = self.dead.len();
        let mut marker = Vec::with_capacity(5);
        marker.push(TAG_END_ROUND);
        marker.extend_from_slice(&(round as u32).to_le_bytes());

        // Tell every live peer our sends for this round are complete. A
        // peer we cannot write to is dead; its reader will deliver the
        // matching Dead event (or already has).
        let mut pending = Vec::new();
        for peer in 0..k {
            if peer == self.me || self.dead[peer] {
                continue;
            }
            if self.write_to(round, peer, &marker, 0).is_ok() {
                pending.push(peer);
            }
        }

        let mut done = vec![false; k];
        let mut collected = Vec::new();
        let protocol = |peer: usize, detail: String| CommError::Protocol {
            round,
            worker: self.me,
            peer,
            detail,
        };
        while pending.iter().any(|&p| !done[p] && !self.dead[p]) {
            let event = self
                .events
                .recv_timeout(self.io_timeout)
                .map_err(|_| CommError::Timeout {
                    round,
                    worker: self.me,
                    waited: self.io_timeout,
                })?;
            match event {
                MeshEvent::Triples {
                    from,
                    round: r,
                    batch,
                } => {
                    if r != round {
                        return Err(protocol(
                            from,
                            format!("triples for round {r} while collecting round {round}"),
                        ));
                    }
                    collected.extend(batch);
                }
                MeshEvent::End { from, round: r } => {
                    if r != round {
                        return Err(protocol(
                            from,
                            format!("end-of-round {r} while collecting round {round}"),
                        ));
                    }
                    done[from] = true;
                }
                MeshEvent::Dead {
                    from,
                    clean,
                    detail,
                } => {
                    self.dead[from] = true;
                    if let Some(s) = self.peers.get_mut(from).and_then(Option::as_mut) {
                        let _ = s.shutdown(Shutdown::Both);
                    }
                    if !clean {
                        return Err(protocol(from, detail));
                    }
                    // Clean death: this round simply sees no more of its
                    // triples; the runtime's fault layer notices the
                    // worker itself is gone.
                }
            }
        }
        Ok(collected)
    }
}

impl Drop for TcpTransport {
    /// Close every peer socket so the detached reader threads unblock
    /// and exit (they share the fd via `try_clone`).
    fn drop(&mut self) {
        for stream in self.peers.iter().flatten() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use owlpar_rdf::NodeId;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    fn mesh(k: usize) -> Vec<Box<dyn Transport>> {
        let factory = TcpFabricFactory {
            io_timeout: Duration::from_secs(5),
        };
        factory.build(k).unwrap()
    }

    #[test]
    fn pairwise_exchange_over_real_sockets() {
        // 0 → 1, 1 → 2, 2 → 0, all in round 0 — each endpoint driven by
        // its own thread, as `run_parallel` would.
        let eps = mesh(3);
        // The runtime separates rounds with a barrier (collect happens
        // strictly between barriers A and B); without it, a fast worker's
        // round-1 markers could legally reach a peer still collecting
        // round 0 and trip the cross-round protocol check.
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(3));
        let handles: Vec<_> = eps
            .into_iter()
            .enumerate()
            .map(|(i, mut ep)| {
                let barrier = std::sync::Arc::clone(&barrier);
                thread::spawn(move || {
                    let (to, batch) = match i {
                        0 => (1, vec![t(1, 2, 3)]),
                        1 => (2, vec![t(4, 5, 6), t(7, 8, 9)]),
                        _ => (0, vec![t(10, 11, 12)]),
                    };
                    let sent = ep.send(0, to, &batch).unwrap();
                    assert!(sent > 12, "accounting covers frame overhead");
                    let got = ep.collect(0).unwrap();
                    barrier.wait();
                    // A quiet round still terminates (markers only).
                    assert!(ep.collect(1).unwrap().is_empty());
                    got
                })
            })
            .collect();
        let got: Vec<Vec<Triple>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(got[0], vec![t(10, 11, 12)]);
        assert_eq!(got[1], vec![t(1, 2, 3)]);
        assert_eq!(got[2], vec![t(4, 5, 6), t(7, 8, 9)]);
    }

    #[test]
    fn single_endpoint_mesh_is_trivial() {
        let mut eps = mesh(1);
        assert_eq!(eps.len(), 1);
        assert!(eps[0].collect(0).unwrap().is_empty());
        // Sending to self is a disconnect, not a loopback.
        assert!(matches!(
            eps[0].send(0, 0, &[t(1, 2, 3)]),
            Err(CommError::Disconnected { .. })
        ));
    }

    #[test]
    fn empty_batches_are_not_put_on_the_wire() {
        let eps = mesh(2);
        let handles: Vec<_> = eps
            .into_iter()
            .enumerate()
            .map(|(i, mut ep)| {
                thread::spawn(move || {
                    assert_eq!(ep.send(0, 1 - i, &[]).unwrap(), 0);
                    ep.collect(0).unwrap()
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap().is_empty());
        }
    }

    #[test]
    fn dropped_peer_reads_as_clean_death() {
        let mut eps = mesh(2);
        let mut survivor = eps.pop().unwrap(); // endpoint 1
        drop(eps); // endpoint 0's sockets close
        // Peer 0 is gone: collect terminates without it, send fails fast.
        assert!(survivor.collect(0).unwrap().is_empty());
        assert!(matches!(
            survivor.send(1, 0, &[t(1, 2, 3)]),
            Err(CommError::Disconnected { round: 1, from: 1, to: 0 })
        ));
    }

    #[test]
    fn cross_round_frames_are_protocol_violations() {
        let mut eps = mesh(2);
        eps[0].send(7, 1, &[t(1, 2, 3)]).unwrap();
        let err = eps[1].collect(0).unwrap_err();
        assert!(matches!(err, CommError::Protocol { peer: 0, .. }), "{err}");
    }

    /// A batch leaves as frames of at most `chunk` triples, every frame
    /// charged to the round it belongs to, end-of-round markers included.
    #[test]
    fn batches_split_at_the_chunk_bound_and_are_tallied_per_round() {
        // a two-endpoint mesh at a 2-triple chunk bound
        let listeners: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let deadline = Instant::now() + Duration::from_secs(5);
        let patience = Duration::from_secs(5);
        let join =
            |me: usize| join_mesh(me, &listeners[me], &addrs, deadline, patience, 2).unwrap();
        let mut eps = [join(1), join(0)];
        eps.reverse();
        let batch: Vec<Triple> = (0..5).map(|i| t(i, 1, 2)).collect();
        let wrote = eps[0].send(0, 1, &batch).unwrap();
        let tally = Arc::clone(&eps[0].tally);
        let round0 = tally.lock().unwrap()[0];
        assert_eq!((round0.frames, round0.triples, round0.bytes), (3, 5, wrote));
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| thread::spawn(move || ep.collect(0).unwrap()))
            .collect();
        let got: Vec<Vec<Triple>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(got[0].is_empty());
        assert_eq!(got[1], batch);
        // plus one 13-byte marker frame
        let rounds = tally.lock().unwrap().clone();
        assert_eq!(rounds.len(), 1);
        assert_eq!(
            (rounds[0].frames, rounds[0].bytes),
            (4, wrote + FRAME_OVERHEAD + 5)
        );
    }

    /// A join that cannot complete ends in a typed error at its deadline:
    /// the dialer of a closed port, and the endpoint nobody dials.
    #[test]
    fn a_mesh_that_cannot_form_fails_by_its_deadline() {
        let closed = TcpListener::bind("127.0.0.1:0").unwrap();
        let closed_addr = closed.local_addr().unwrap();
        drop(closed);
        let mine = TcpListener::bind("127.0.0.1:0").unwrap();
        let my_addr = mine.local_addr().unwrap();
        let patience = Duration::from_millis(300);
        for me in [1, 0] {
            let t0 = Instant::now();
            let err = join_mesh(
                me,
                &mine,
                &[closed_addr, my_addr],
                t0 + patience,
                patience,
                DEFAULT_CHUNK_TRIPLES,
            )
            .err()
            .unwrap_or_else(|| panic!("endpoint {me} joined a mesh with a dead peer"));
            assert!(
                matches!(err, CommError::Io { worker, .. } if worker == me),
                "{err}"
            );
            assert!(
                t0.elapsed() < patience * 4,
                "endpoint {me} overstayed its deadline"
            );
        }
    }

    #[test]
    fn factory_builds_through_the_trait() {
        let factory = TcpFabricFactory::default();
        assert_eq!(factory.label(), "tcp-loopback-mesh");
        let eps = factory.build(4).unwrap();
        assert_eq!(eps.len(), 4);
    }
}
