//! The length-prefixed wire protocol.
//!
//! Every message is one plain *frame* of [`owlpar_core::frame`]
//! (`write_frame` / `read_frame`, called directly by the client and the
//! server): a little-endian `u32` byte length followed by that many body
//! bytes. The length is validated through
//! [`owlpar_core::check_payload_bounds`] — the *same* check every other
//! length-prefixed stream and file in the system applies — before any
//! allocation happens, so a zero-length or absurd length is a typed
//! error ([`ServeError::Frame`] once converted), never an OOM or a
//! busy-loop.
//!
//! Body grammar (first byte tags the variant):
//!
//! ```text
//! request  := QUERY(1) sparql-utf8
//!           | INSERT(2) ntriples-utf8
//!           | STATS(3) | PING(4) | SHUTDOWN(5)
//! response := OK(0) payload | ERR(1) message-utf8
//! payload  := ROWS(1) epoch:u64 ncols:u32 nrows:u32 str{ncols} str{ncols*nrows}
//!           | INSERTED(2) epoch:u64 added:u32 derived:u32 schema_changed:u8
//!           | STATS(3) json-utf8
//!           | PONG(4)
//!           | BYE(5)
//!           | BUSY(6)
//! str      := len:u32 bytes{len}
//! ```
//!
//! All integers are little-endian. Decoders never index — every read
//! goes through a bounds-checked cursor and returns
//! [`ServeError::Protocol`] on truncation.

use crate::error::ServeError;

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Evaluate a SPARQL-lite query against the current snapshot.
    Query(String),
    /// Insert an N-Triples batch through the delta-closure path.
    Insert(String),
    /// Fetch server statistics as JSON.
    Stats,
    /// Liveness probe.
    Ping,
    /// Ask the server to stop accepting connections and drain.
    Shutdown,
}

const OP_QUERY: u8 = 1;
const OP_INSERT: u8 = 2;
const OP_STATS: u8 = 3;
const OP_PING: u8 = 4;
const OP_SHUTDOWN: u8 = 5;

impl Request {
    /// Encode to a frame body.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Query(q) => tagged(OP_QUERY, q.as_bytes()),
            Request::Insert(nt) => tagged(OP_INSERT, nt.as_bytes()),
            Request::Stats => vec![OP_STATS],
            Request::Ping => vec![OP_PING],
            Request::Shutdown => vec![OP_SHUTDOWN],
        }
    }

    /// Parse a frame body.
    pub fn decode(body: &[u8]) -> Result<Self, ServeError> {
        let mut c = Cursor::new(body);
        let op = c.u8()?;
        let req = match op {
            OP_QUERY => Request::Query(c.rest_utf8()?),
            OP_INSERT => Request::Insert(c.rest_utf8()?),
            OP_STATS => Request::Stats,
            OP_PING => Request::Ping,
            OP_SHUTDOWN => Request::Shutdown,
            other => {
                return Err(ServeError::Protocol(format!(
                    "unknown request opcode {other}"
                )))
            }
        };
        c.done()?;
        Ok(req)
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Query solutions, with the epoch of the snapshot they came from.
    Rows {
        /// Snapshot epoch the query ran against.
        epoch: u64,
        /// Projected variable names.
        columns: Vec<String>,
        /// Rendered result rows.
        rows: Vec<Vec<String>>,
    },
    /// Outcome of an insert.
    Inserted {
        /// Epoch the insert published.
        epoch: u64,
        /// Fresh base triples actually added.
        added: u32,
        /// Consequences derived from them.
        derived: u32,
        /// Whether the batch forced a schema recompilation + re-close.
        schema_changed: bool,
    },
    /// Server statistics as JSON text.
    Stats(String),
    /// Reply to [`Request::Ping`].
    Pong,
    /// Acknowledgement of [`Request::Shutdown`].
    ShuttingDown,
    /// The server is saturated: its connection cap is reached and the
    /// connection was refused instead of queued. Clients should back
    /// off and retry.
    Busy,
    /// The request failed server-side.
    Error(String),
}

/// Row cap for the degenerate all-constant `SELECT *` whose rows have no
/// columns (and therefore no bytes on the wire): without it a lying
/// header could demand billions of empty rows. Encoders truncate to it.
pub const MAX_ZERO_COLUMN_ROWS: usize = 4096;

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;
const PAY_ROWS: u8 = 1;
const PAY_INSERTED: u8 = 2;
const PAY_STATS: u8 = 3;
const PAY_PONG: u8 = 4;
const PAY_BYE: u8 = 5;
const PAY_BUSY: u8 = 6;

impl Response {
    /// Encode to a frame body.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Rows {
                epoch,
                columns,
                rows,
            } => {
                let nrows = if columns.is_empty() {
                    rows.len().min(MAX_ZERO_COLUMN_ROWS)
                } else {
                    rows.len()
                };
                let mut b = vec![STATUS_OK, PAY_ROWS];
                b.extend_from_slice(&epoch.to_le_bytes());
                b.extend_from_slice(&(columns.len() as u32).to_le_bytes());
                b.extend_from_slice(&(nrows as u32).to_le_bytes());
                for c in columns {
                    put_str(&mut b, c);
                }
                for row in rows.iter().take(nrows) {
                    for cell in row {
                        put_str(&mut b, cell);
                    }
                }
                b
            }
            Response::Inserted {
                epoch,
                added,
                derived,
                schema_changed,
            } => {
                let mut b = vec![STATUS_OK, PAY_INSERTED];
                b.extend_from_slice(&epoch.to_le_bytes());
                b.extend_from_slice(&added.to_le_bytes());
                b.extend_from_slice(&derived.to_le_bytes());
                b.push(u8::from(*schema_changed));
                b
            }
            Response::Stats(json) => {
                let mut b = vec![STATUS_OK, PAY_STATS];
                b.extend_from_slice(json.as_bytes());
                b
            }
            Response::Pong => vec![STATUS_OK, PAY_PONG],
            Response::ShuttingDown => vec![STATUS_OK, PAY_BYE],
            Response::Busy => vec![STATUS_OK, PAY_BUSY],
            Response::Error(m) => tagged(STATUS_ERR, m.as_bytes()),
        }
    }

    /// Parse a frame body.
    pub fn decode(body: &[u8]) -> Result<Self, ServeError> {
        let mut c = Cursor::new(body);
        match c.u8()? {
            STATUS_ERR => return Ok(Response::Error(c.rest_utf8()?)),
            STATUS_OK => {}
            other => {
                return Err(ServeError::Protocol(format!(
                    "unknown response status {other}"
                )))
            }
        }
        let resp = match c.u8()? {
            PAY_ROWS => {
                let epoch = c.u64()?;
                let ncols = c.u32()? as usize;
                let nrows = c.u32()? as usize;
                // Cap decode-side allocation by what the frame can
                // actually hold (each string costs ≥4 bytes), so a lying
                // header cannot force a huge allocation. Zero-column rows
                // carry no bytes at all, so they get an explicit cap.
                let remaining = c.remaining();
                let min_bytes = ncols
                    .checked_add(ncols.saturating_mul(nrows))
                    .and_then(|strings| strings.checked_mul(4));
                if min_bytes.is_none_or(|min| min > remaining)
                    || (ncols == 0 && nrows > MAX_ZERO_COLUMN_ROWS)
                {
                    return Err(ServeError::Protocol(format!(
                        "rows header claims {ncols}x{nrows} strings in a \
                         {remaining}-byte body"
                    )));
                }
                let mut columns = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    columns.push(c.str()?);
                }
                let mut rows = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    let mut row = Vec::with_capacity(ncols);
                    for _ in 0..ncols {
                        row.push(c.str()?);
                    }
                    rows.push(row);
                }
                Response::Rows {
                    epoch,
                    columns,
                    rows,
                }
            }
            PAY_INSERTED => Response::Inserted {
                epoch: c.u64()?,
                added: c.u32()?,
                derived: c.u32()?,
                schema_changed: c.u8()? != 0,
            },
            PAY_STATS => Response::Stats(c.rest_utf8()?),
            PAY_PONG => Response::Pong,
            PAY_BYE => Response::ShuttingDown,
            PAY_BUSY => Response::Busy,
            other => {
                return Err(ServeError::Protocol(format!(
                    "unknown payload kind {other}"
                )))
            }
        };
        c.done()?;
        Ok(resp)
    }
}

fn tagged(tag: u8, bytes: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(1 + bytes.len());
    b.push(tag);
    b.extend_from_slice(bytes);
    b
}

fn put_str(b: &mut Vec<u8>, s: &str) {
    b.extend_from_slice(&(s.len() as u32).to_le_bytes());
    b.extend_from_slice(s.as_bytes());
}

/// Bounds-checked reader over a frame body. Never panics: truncated or
/// malformed input surfaces as [`ServeError::Protocol`].
struct Cursor<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(body: &'a [u8]) -> Self {
        Cursor { body, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.body.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.body.len())
            .ok_or_else(|| {
                ServeError::Protocol(format!(
                    "truncated frame: wanted {n} more bytes, {} left",
                    self.remaining()
                ))
            })?;
        let s = &self.body[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ServeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn str(&mut self) -> Result<String, ServeError> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec())
            .map_err(|_| ServeError::Protocol("non-UTF-8 string".into()))
    }

    fn rest_utf8(&mut self) -> Result<String, ServeError> {
        let b = self.take(self.remaining())?;
        String::from_utf8(b.to_vec())
            .map_err(|_| ServeError::Protocol("non-UTF-8 text".into()))
    }

    fn done(&self) -> Result<(), ServeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ServeError::Protocol(format!(
                "{} trailing byte(s) after message",
                self.remaining()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use owlpar_core::frame::{read_frame, write_frame};
    use owlpar_core::MAX_PAYLOAD_BYTES;

    #[test]
    fn request_roundtrip() {
        for req in [
            Request::Query("SELECT ?s WHERE { ?s ?p ?o }".into()),
            Request::Insert("<a> <b> <c> .".into()),
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
        ] {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip() {
        for resp in [
            Response::Rows {
                epoch: 7,
                columns: vec!["s".into(), "o".into()],
                rows: vec![
                    vec!["<a>".into(), "<b>".into()],
                    vec!["<c>".into(), "\"lit\"".into()],
                ],
            },
            Response::Inserted {
                epoch: 8,
                added: 3,
                derived: 5,
                schema_changed: true,
            },
            Response::Stats("{\"epoch\":8}".into()),
            Response::Pong,
            Response::ShuttingDown,
            Response::Busy,
            Response::Error("boom".into()),
        ] {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn zero_length_frame_rejected_on_both_sides() {
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame(&mut sink, &[]).map_err(ServeError::from),
            Err(ServeError::Frame(_))
        ));
        let wire = 0u32.to_le_bytes();
        assert!(matches!(
            read_frame(&mut &wire[..]).map_err(ServeError::from),
            Err(ServeError::Frame(_))
        ));
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.push(0xff); // body much shorter than claimed
        let err = ServeError::from(read_frame(&mut &wire[..]).unwrap_err());
        assert!(matches!(err, ServeError::Frame(_)), "{err}");
        assert!(u64::from(u32::MAX) > MAX_PAYLOAD_BYTES, "test premise");
    }

    /// Fuzz-style: no random byte soup may panic the decoders; they must
    /// return either a valid message or a typed error.
    #[test]
    fn decoders_never_panic_on_garbage() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..2000 {
            let len = (next() % 64) as usize;
            let body: Vec<u8> = (0..len).map(|_| (next() & 0xff) as u8).collect();
            let _ = Request::decode(&body);
            let _ = Response::decode(&body);
            let _ = trial;
        }
    }

    /// Fuzz-style: bit-flipped valid encodings decode or fail cleanly.
    #[test]
    fn decoders_survive_bit_flips() {
        let valid = Response::Rows {
            epoch: 3,
            columns: vec!["x".into()],
            rows: vec![vec!["<http://x/a>".into()]],
        }
        .encode();
        for byte in 0..valid.len() {
            for bit in 0..8 {
                let mut mutated = valid.clone();
                mutated[byte] ^= 1 << bit;
                let _ = Response::decode(&mutated); // must not panic
            }
        }
    }

    #[test]
    fn trailing_bytes_are_a_protocol_error() {
        let mut body = Request::Ping.encode();
        body.push(0);
        assert!(matches!(
            Request::decode(&body),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn lying_rows_header_is_rejected() {
        let mut b = vec![0u8, 1u8]; // OK, ROWS
        b.extend_from_slice(&0u64.to_le_bytes());
        b.extend_from_slice(&u32::MAX.to_le_bytes()); // ncols
        b.extend_from_slice(&u32::MAX.to_le_bytes()); // nrows
        let err = Response::decode(&b).unwrap_err();
        assert!(matches!(err, ServeError::Protocol(_)), "{err}");
    }
}
