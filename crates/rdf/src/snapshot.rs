//! Binary knowledge-base snapshots.
//!
//! A materialized KB exists to be loaded again and queried; this module
//! gives the repository a real persistence story: a compact binary format
//! holding the dictionary followed by the 12-byte encoded triples.
//! Loading restores exact ids, so snapshots taken before/after
//! materialization stay comparable.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "OWLPAR1\n" | u32 term_count | terms... | u64 triple_count | triples...
//! term := tag u8 (0 iri, 1 blank, 2 literal, 3 lang literal, 4 typed literal)
//!         + (u32 len + utf8)×(1 or 2 strings)
//! triple := 3 × u32 (s, p, o)
//! ```

use crate::graph::Graph;
use crate::term::Term;
use crate::triple::Triple;
use crate::NodeId;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"OWLPAR1\n";

/// Snapshot load error.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the bytes.
    Format(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Format(m) => write!(f, "snapshot format error: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn format_err(m: impl Into<String>) -> SnapshotError {
    SnapshotError::Format(m.into())
}

/// Write `graph` as a snapshot.
pub fn save(graph: &Graph, w: &mut impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(graph.dict.len() as u32).to_le_bytes())?;
    for (_, term) in graph.dict.iter() {
        match term {
            Term::Iri(s) => {
                w.write_all(&[0])?;
                write_str(w, s)?;
            }
            Term::Blank(s) => {
                w.write_all(&[1])?;
                write_str(w, s)?;
            }
            Term::Literal {
                lexical,
                lang: None,
                datatype: None,
            } => {
                w.write_all(&[2])?;
                write_str(w, lexical)?;
            }
            Term::Literal {
                lexical,
                lang: Some(lang),
                ..
            } => {
                w.write_all(&[3])?;
                write_str(w, lexical)?;
                write_str(w, lang)?;
            }
            Term::Literal {
                lexical,
                datatype: Some(dt),
                ..
            } => {
                w.write_all(&[4])?;
                write_str(w, lexical)?;
                write_str(w, dt)?;
            }
        }
    }
    let triples = graph.store.iter_sorted();
    w.write_all(&(triples.len() as u64).to_le_bytes())?;
    for t in triples {
        w.write_all(&t.s.0.to_le_bytes())?;
        w.write_all(&t.p.0.to_le_bytes())?;
        w.write_all(&t.o.0.to_le_bytes())?;
    }
    Ok(())
}

/// Read a snapshot back into a fresh graph.
pub fn load(r: &mut impl Read) -> Result<Graph, SnapshotError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(format_err("bad magic (not an owlpar snapshot)"));
    }
    let term_count = read_u32(r)? as usize;
    let mut graph = Graph::new();
    for i in 0..term_count {
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        let term = match tag[0] {
            0 => Term::iri(read_str(r)?),
            1 => Term::blank(read_str(r)?),
            2 => Term::literal(read_str(r)?),
            3 => {
                let lex = read_str(r)?;
                let lang = read_str(r)?;
                Term::lang_literal(lex, lang)
            }
            4 => {
                let lex = read_str(r)?;
                let dt = read_str(r)?;
                Term::typed_literal(lex, dt)
            }
            t => return Err(format_err(format!("unknown term tag {t}"))),
        };
        let id = graph.intern(term);
        if id.index() != i {
            return Err(format_err("duplicate term in snapshot dictionary"));
        }
    }
    // A bulk load, written in SPO order: one merge into the store's base,
    // no per-triple hashing.
    let triple_count = read_u64(r)?;
    let mut triples: Vec<Triple> = Vec::new();
    for _ in 0..triple_count {
        let s = read_u32(r)?;
        let p = read_u32(r)?;
        let o = read_u32(r)?;
        for id in [s, p, o] {
            if id as usize >= term_count {
                return Err(format_err(format!("triple id {id} out of range")));
            }
        }
        triples.push(Triple::new(NodeId(s), NodeId(p), NodeId(o)));
    }
    graph.store.merge_run(&triples);
    Ok(graph)
}

/// Serialize `graph` into an in-memory snapshot image — the payload the
/// serve-layer checkpoint format wraps with a checksum.
pub fn save_to_vec(graph: &Graph) -> Result<Vec<u8>, SnapshotError> {
    let mut buf = Vec::new();
    save(graph, &mut buf)?;
    Ok(buf)
}

/// Load a snapshot from an in-memory image, rejecting trailing bytes
/// (a length mismatch means the container that carried the image lied).
pub fn load_from_slice(bytes: &[u8]) -> Result<Graph, SnapshotError> {
    let mut r = bytes;
    let g = load(&mut r)?;
    if !r.is_empty() {
        return Err(format_err(format!(
            "{} trailing byte(s) after snapshot",
            r.len()
        )));
    }
    Ok(g)
}

fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    w.write_all(&(s.len() as u32).to_le_bytes())?;
    w.write_all(s.as_bytes())
}

fn read_u32(r: &mut impl Read) -> Result<u32, SnapshotError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> Result<u64, SnapshotError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_str(r: &mut impl Read) -> Result<String, SnapshotError> {
    let len = read_u32(r)? as usize;
    if len > 64 * 1024 * 1024 {
        return Err(format_err("unreasonable string length"));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| format_err("invalid UTF-8 in snapshot string"))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.insert_iris("http://x/a", "http://x/p", "http://x/b");
        g.insert_terms(
            Term::iri("http://x/a"),
            Term::iri("http://x/name"),
            Term::lang_literal("Ada", "en"),
        );
        g.insert_terms(
            Term::blank("b0"),
            Term::iri("http://x/age"),
            Term::typed_literal("42", "http://www.w3.org/2001/XMLSchema#integer"),
        );
        g.insert_terms(
            Term::iri("http://x/a"),
            Term::iri("http://x/note"),
            Term::literal("plain"),
        );
        g
    }

    fn roundtrip(g: &Graph) -> Graph {
        let mut buf = Vec::new();
        save(g, &mut buf).unwrap();
        load(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = sample();
        let back = roundtrip(&g);
        assert_eq!(back.len(), g.len());
        assert_eq!(back.dict.len(), g.dict.len());
        assert_eq!(back.term_fingerprint(), g.term_fingerprint());
        // exact id preservation
        for (id, term) in g.dict.iter() {
            assert_eq!(back.dict.term(id), Some(term));
        }
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = Graph::new();
        let back = roundtrip(&g);
        assert!(back.is_empty());
        assert!(back.dict.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        save(&sample(), &mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            load(&mut buf.as_slice()),
            Err(SnapshotError::Format(_))
        ));
    }

    #[test]
    fn truncation_rejected() {
        let mut buf = Vec::new();
        save(&sample(), &mut buf).unwrap();
        for cut in [4, buf.len() / 2, buf.len() - 3] {
            assert!(
                load(&mut &buf[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn out_of_range_triple_id_rejected() {
        let mut g = Graph::new();
        g.insert_iris("http://x/a", "http://x/p", "http://x/b");
        let mut buf = Vec::new();
        save(&g, &mut buf).unwrap();
        // corrupt the last triple's object id to a huge value
        let n = buf.len();
        buf[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            load(&mut buf.as_slice()),
            Err(SnapshotError::Format(m)) if m.contains("out of range")
        ));
    }

    #[test]
    fn vec_roundtrip_and_trailing_bytes_rejected() {
        let g = sample();
        let img = save_to_vec(&g).unwrap();
        let back = load_from_slice(&img).unwrap();
        assert_eq!(back.term_fingerprint(), g.term_fingerprint());
        let mut padded = img.clone();
        padded.push(0);
        assert!(matches!(
            load_from_slice(&padded),
            Err(SnapshotError::Format(m)) if m.contains("trailing")
        ));
    }

    #[test]
    fn snapshot_is_compact() {
        let g = sample();
        let mut bin = Vec::new();
        save(&g, &mut bin).unwrap();
        let text = crate::ntriples::write_ntriples(&g);
        assert!(
            bin.len() < text.len() * 2,
            "binary ({}) should be in the same ballpark or smaller than text ({})",
            bin.len(),
            text.len()
        );
    }
}
