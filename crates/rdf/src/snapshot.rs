//! Binary knowledge-base snapshots.
//!
//! A materialized KB exists to be loaded again and queried; this module
//! gives the repository a real persistence story: a compact binary image
//! holding the dictionary followed by the triples as one triple block
//! ([`crate::triple`], the codec the cluster wire and the shared-file
//! messages carry too). Loading restores exact ids, so snapshots taken
//! before/after materialization stay comparable.
//!
//! Layout (integers little-endian):
//!
//! ```text
//! snapshot := magic "OWLPAR2\n" | term_count:u32 | term{term_count} | block
//! term     := tag:u8 (0 iri, 1 blank, 2 literal, 3 lang literal, 4 typed literal)
//!             + (len:u32 + utf8)×(1 or 2 strings)
//! block    := the SPO-sorted triples as one triple block
//! ```
//!
//! An image is built and parsed in one piece: [`save`] writes it with one
//! call, [`load`] reads the whole input and parses it as a slice, every
//! id in the block is checked against `term_count`, and bytes after the
//! block are an error. A snapshot of the previous format (version digit
//! 1, 12 bytes per triple) is refused by its magic, not misread.

use crate::graph::Graph;
use crate::term::Term;
use crate::triple::{decode_triple_block, encode_triple_block};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"OWLPAR2\n";

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
pub fn save(graph: &Graph, w: &mut impl Write) -> Result<(), SnapshotError> {
    w.write_all(&save_to_vec(graph)?)?;
    Ok(())
}

/// Read a snapshot back into a fresh graph.
pub fn load(r: &mut impl Read) -> Result<Graph, SnapshotError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    load_from_slice(&bytes)
}

/// Encode `graph` into an in-memory snapshot image — what [`save`]
/// writes and the serve-layer checkpoint frames.
pub fn save_to_vec(graph: &Graph) -> Result<Vec<u8>, SnapshotError> {
    let term_count = u32::try_from(graph.dict.len())
        .map_err(|_| format_err("more terms than a u32 can count"))?;
    let triples = graph.store.iter_sorted();
    if u32::try_from(triples.len()).is_err() {
        return Err(format_err("more triples than a u32 can count"));
    }
    let block = encode_triple_block(&triples);
    let mut out = Vec::with_capacity(MAGIC.len() + 4 + graph.dict.len() * 32 + block.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&term_count.to_le_bytes());
    for (_, term) in graph.dict.iter() {
        let (tag, text, second) = match term {
            Term::Iri(s) => (0, s, None),
            Term::Blank(s) => (1, s, None),
            Term::Literal {
                lexical,
                lang: Some(lang),
                ..
            } => (3, lexical, Some(lang)),
            Term::Literal {
                lexical,
                datatype: Some(dt),
                ..
            } => (4, lexical, Some(dt)),
            Term::Literal { lexical, .. } => (2, lexical, None),
        };
        out.push(tag);
        put_str(&mut out, text);
        if let Some(s) = second {
            put_str(&mut out, s);
        }
    }
    out.extend_from_slice(&block);
    Ok(out)
}

/// Load a snapshot from an in-memory image, rejecting trailing bytes
/// (a length mismatch means the container that carried the image lied).
pub fn load_from_slice(bytes: &[u8]) -> Result<Graph, SnapshotError> {
    let mut r = Cursor { bytes, pos: 0 };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(format_err("bad magic (not an OWLPAR2 snapshot)"));
    }
    let term_count = r.u32()? as usize;
    let mut graph = Graph::new();
    for i in 0..term_count {
        let term = match r.take(1)?[0] {
            0 => Term::iri(r.str()?),
            1 => Term::blank(r.str()?),
            2 => Term::literal(r.str()?),
            3 => {
                let lex = r.str()?;
                Term::lang_literal(lex, r.str()?)
            }
            4 => {
                let lex = r.str()?;
                Term::typed_literal(lex, r.str()?)
            }
            t => return Err(format_err(format!("unknown term tag {t}"))),
        };
        if graph.intern(term).index() != i {
            return Err(format_err("duplicate term in snapshot dictionary"));
        }
    }
    let rest = &bytes[r.pos..];
    let (triples, used) = decode_triple_block(rest)
        .map_err(|e| format_err(format!("triple section at byte {}: {e}", r.pos)))?;
    if used != rest.len() {
        return Err(format_err(format!(
            "{} trailing byte(s) after snapshot",
            rest.len() - used
        )));
    }
    if let Some(t) = triples
        .iter()
        .find(|t| t.as_array().iter().any(|id| id.index() >= term_count))
    {
        return Err(format_err(format!(
            "triple {t} has an id out of range of {term_count} terms"
        )));
    }
    // A bulk load of an SPO-sorted run: one merge into the store's base,
    // no per-triple hashing.
    graph.store.merge_run(&triples);
    Ok(graph)
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked reader over an image: running out of bytes is a
/// [`SnapshotError::Format`] naming the offset, never a panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| format_err(format!("truncated at byte {}", self.bytes.len())))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn str(&mut self) -> Result<&'a str, SnapshotError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| format_err("invalid UTF-8 in snapshot string"))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::{NodeId, Triple};

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
        // A snapshot of the previous format is refused by its magic.
        buf[..8].copy_from_slice(MAGIC);
        buf[6] = b'1'; // the previous format's version digit
        assert!(matches!(
            load_from_slice(&buf),
            Err(SnapshotError::Format(m)) if m.contains("magic")
        ));
    }

    #[test]
    fn truncation_at_every_offset_is_a_typed_error() {
        let img = save_to_vec(&sample()).unwrap();
        for cut in 0..img.len() {
            assert!(
                matches!(load_from_slice(&img[..cut]), Err(SnapshotError::Format(_))),
                "truncation at {cut} must fail typed"
            );
        }
    }

    /// Replace the triple section of `g`'s image with `triples`' block.
    fn with_block(g: &Graph, triples: &[Triple]) -> Vec<u8> {
        let mut img = save_to_vec(g).unwrap();
        let own = encode_triple_block(&g.store.iter_sorted()).len();
        img.truncate(img.len() - own);
        img.extend_from_slice(&encode_triple_block(triples));
        img
    }

    #[test]
    fn out_of_range_triple_id_rejected() {
        let mut g = Graph::new();
        g.insert_iris("http://x/a", "http://x/p", "http://x/b");
        let t = |s, p, o| Triple::new(NodeId(s), NodeId(p), NodeId(o));
        assert!(load_from_slice(&with_block(&g, &[t(0, 1, 2)])).is_ok());
        for bad in [t(0, 1, 3), t(3, 1, 2), t(0, u32::MAX, 2)] {
            assert!(matches!(
                load_from_slice(&with_block(&g, &[t(0, 1, 2), bad])),
                Err(SnapshotError::Format(m)) if m.contains("out of range")
            ));
        }
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
        assert!(load(&mut padded.as_slice()).is_err(), "load reads it all");
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
