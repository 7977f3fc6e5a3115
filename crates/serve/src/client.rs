//! A minimal blocking client for the framed protocol — used by the CLI,
//! the load generator, and the end-to-end tests.

use crate::error::ServeError;
use crate::wire::{Request, Response};
use owlpar_core::frame::{read_frame, write_frame};
use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};

/// Decoded result of a QUERY request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
    /// Projected variable names.
    pub columns: Vec<String>,
    /// Rendered rows.
    pub rows: Vec<Vec<String>>,
}

/// Decoded result of an INSERT request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertResult {
    /// Epoch the insert published.
    pub epoch: u64,
    /// Fresh base triples added.
    pub added: u32,
    /// Consequences derived.
    pub derived: u32,
    /// Whether the schema changed (recompile + full re-close).
    pub schema_changed: bool,
}

/// One connection to an `owlpar-serve` server. Requests are pipelined
/// one at a time (send frame, read frame).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    fn round_trip(&mut self, req: &Request) -> Result<Response, ServeError> {
        write_frame(&mut self.writer, &req.encode())?;
        let body = read_frame(&mut self.reader)?;
        match Response::decode(&body)? {
            Response::Error(m) => Err(ServeError::Remote(m)),
            Response::Busy => Err(ServeError::Busy),
            other => Ok(other),
        }
    }

    /// Evaluate a SPARQL-lite query.
    pub fn query(&mut self, sparql: &str) -> Result<QueryResult, ServeError> {
        match self.round_trip(&Request::Query(sparql.to_string()))? {
            Response::Rows {
                epoch,
                columns,
                rows,
            } => Ok(QueryResult {
                epoch,
                columns,
                rows,
            }),
            other => Err(unexpected("rows", &other)),
        }
    }

    /// Insert an N-Triples batch.
    pub fn insert(&mut self, ntriples: &str) -> Result<InsertResult, ServeError> {
        match self.round_trip(&Request::Insert(ntriples.to_string()))? {
            Response::Inserted {
                epoch,
                added,
                derived,
                schema_changed,
            } => Ok(InsertResult {
                epoch,
                added,
                derived,
                schema_changed,
            }),
            other => Err(unexpected("inserted", &other)),
        }
    }

    /// Fetch the stats JSON.
    pub fn stats(&mut self) -> Result<String, ServeError> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats(json) => Ok(json),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        match self.round_trip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Ask the server to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.round_trip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("shutdown ack", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ServeError {
    ServeError::Protocol(format!("expected {wanted}, got {got:?}"))
}
