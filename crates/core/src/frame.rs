//! The length-prefixed frame codec shared by every byte stream in the
//! system.
//!
//! A *frame* is a little-endian `u32` byte length followed by that many
//! body bytes; the CRC variant inserts a CRC-32 (IEEE) of the body
//! between the length and the body:
//!
//! ```text
//! frame     := len:u32 body{len}
//! crc_frame := len:u32 crc32(body):u32 body{len}
//! ```
//!
//! Every length field is validated through [`check_payload_bounds`] —
//! the same check the shared-file transport applies to its message files
//! — *before* any allocation happens, so a zero-length or absurd length
//! is a typed [`FrameError`], never an OOM or a busy-loop, and the
//! decoder never panics on any input.
//!
//! Consumers:
//!
//! * `owlpar-serve` — plain frames on its client protocol (the body
//!   grammar lives in `serve::wire`);
//! * `owlpar-net` — CRC frames on the cluster transport, where a triple
//!   batch crossing a real network deserves end-to-end corruption
//!   detection (TCP's 16-bit checksum is famously leaky at scale).
//!
//! # Compact triple blocks
//!
//! This module also owns the *compact triple block* — the wire encoding
//! of a triple **set** used by every cluster frame that moves bulk data
//! (`Setup`, `Triples`, `Deliver`, `Final` and their chunked variants).
//! Triples are sorted SPO (the stores already iterate in sorted order),
//! then delta-encoded with LEB128 varints:
//!
//! ```text
//! block      := count:varint [triple0 delta*]        (count triples)
//! triple0    := s:varint p:varint o:varint           (absolute)
//! delta      := ds:varint rest
//! rest       := p:varint o:varint                    (ds > 0: absolute)
//!             | dp:varint o:varint                   (ds = 0, dp > 0)
//!             | 0:varint  do:varint                  (ds = dp = 0, do ≥ 1)
//! ```
//!
//! Sorted real-world id streams make the deltas tiny — 12 bytes per raw
//! triple shrink to ~3–4 — and the format is **canonical**: strictly
//! ascending by construction, so a block with a zero final delta (a
//! duplicate) or an id overflow is a typed [`TripleBlockError`], never a
//! silently different set. Deltas are non-negative by construction, so a
//! *descending* sequence is unrepresentable — the decoder enforces
//! strict ascent as a grammar property, not a runtime scan. Truncation
//! at any byte offset is likewise a typed error: the count prefix is
//! bounds-checked against the minimum bytes-per-triple before any
//! allocation, and every varint read is bounds-checked against the
//! buffer.

use crate::comm::{check_payload_bounds, PayloadBoundsError};
use crate::durable::crc32;
use owlpar_rdf::{is_sorted_run, NodeId, Triple};
use std::io::{Read, Write};

/// Why a frame could not be written or read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The claimed or actual body length is outside the shared payload
    /// bounds.
    Bounds(PayloadBoundsError),
    /// The body's CRC-32 does not match the header (CRC frames only):
    /// the bytes were damaged in flight and the stream can no longer be
    /// trusted.
    Checksum {
        /// CRC carried by the header.
        expected: u32,
        /// CRC of the body actually received.
        actual: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame IO error: {e}"),
            FrameError::Bounds(b) => write!(f, "frame length rejected: {b}"),
            FrameError::Checksum { expected, actual } => write!(
                f,
                "frame checksum mismatch: header says {expected:#010x}, body is {actual:#010x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            FrameError::Bounds(b) => Some(b),
            FrameError::Checksum { .. } => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<PayloadBoundsError> for FrameError {
    fn from(e: PayloadBoundsError) -> Self {
        FrameError::Bounds(e)
    }
}

/// Write one plain frame (`len | body`).
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), FrameError> {
    check_payload_bounds(body.len() as u64)?;
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// Read one plain frame, validating the claimed length before allocating.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as u64;
    check_payload_bounds(len)?;
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Write one CRC frame (`len | crc32(body) | body`).
pub fn write_crc_frame(w: &mut impl Write, body: &[u8]) -> Result<(), FrameError> {
    check_payload_bounds(body.len() as u64)?;
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(&crc32(body).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// Read one CRC frame, validating the claimed length before allocating
/// and the checksum after reading. A mismatch means the stream carried
/// damaged bytes — the caller must treat the connection as dead, because
/// there is no way to resynchronize a corrupted length-prefixed stream.
pub fn read_crc_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as u64;
    let expected = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    check_payload_bounds(len)?;
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let actual = crc32(&body);
    if actual != expected {
        return Err(FrameError::Checksum { expected, actual });
    }
    Ok(body)
}

// ---------------------------------------------------------------------
// compact triple blocks
// ---------------------------------------------------------------------

/// Why a compact triple block could not be decoded. Every variant names
/// the byte offset (or triple index) where the grammar broke, so a
/// protocol layer can report *where* a stream went bad.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripleBlockError {
    /// The buffer ended before the block did (includes a count prefix
    /// that claims more triples than the remaining bytes could encode).
    Truncated {
        /// Byte offset at which more input was needed.
        offset: usize,
    },
    /// A varint ran past 5 bytes or past the 32-bit range, or a delta
    /// pushed an id beyond `u32::MAX`.
    Overflow {
        /// Byte offset of the offending varint.
        offset: usize,
    },
    /// The block encodes a duplicate triple (an all-zero delta). The
    /// format cannot express a descent, so this is the only way a block
    /// can fail to be strictly ascending.
    NonMonotone {
        /// Index of the offending triple within the block.
        index: usize,
    },
}

impl std::fmt::Display for TripleBlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TripleBlockError::Truncated { offset } => {
                write!(f, "triple block truncated at byte {offset}")
            }
            TripleBlockError::Overflow { offset } => {
                write!(f, "triple block varint overflow at byte {offset}")
            }
            TripleBlockError::NonMonotone { index } => {
                write!(f, "triple block repeats triple {index} (zero delta)")
            }
        }
    }
}

impl std::error::Error for TripleBlockError {}

/// Append `v` as a LEB128 varint (1–5 bytes for a `u32`).
pub fn put_varint32(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read one LEB128 varint from `buf` at `pos`. Returns the value and the
/// new position.
pub fn get_varint32(buf: &[u8], pos: usize) -> Result<(u32, usize), TripleBlockError> {
    let mut v: u32 = 0;
    let mut shift = 0u32;
    let mut at = pos;
    loop {
        let &byte = buf
            .get(at)
            .ok_or(TripleBlockError::Truncated { offset: at })?;
        let payload = u32::from(byte & 0x7f);
        // The 5th byte of a u32 varint may only carry 4 bits.
        if shift == 28 && payload > 0x0f {
            return Err(TripleBlockError::Overflow { offset: pos });
        }
        v |= payload << shift;
        at += 1;
        if byte & 0x80 == 0 {
            return Ok((v, at));
        }
        shift += 7;
        if shift > 28 {
            return Err(TripleBlockError::Overflow { offset: pos });
        }
    }
}

/// Cheapest possible encoding of one triple: three 1-byte varints.
const MIN_BYTES_PER_TRIPLE: u64 = 3;

/// Encode a set of triples as a compact block. The input is treated as a
/// **set**: it is sorted (SPO) and deduplicated if it is not already
/// strictly ascending, and [`decode_triple_block`] returns the sorted
/// sequence. Callers that pass pre-sorted data (store iterators, chunk
/// slices of a sorted store) pay no copy.
pub fn encode_triple_block(triples: &[Triple]) -> Vec<u8> {
    let mut owned;
    let sorted: &[Triple] = if is_sorted_run(triples) {
        triples
    } else {
        owned = triples.to_vec();
        owned.sort_unstable();
        owned.dedup();
        &owned
    };
    let mut out = Vec::with_capacity(5 + sorted.len() * 4);
    put_varint32(&mut out, sorted.len() as u32);
    let mut prev: Option<Triple> = None;
    for t in sorted {
        match prev {
            None => {
                put_varint32(&mut out, t.s.0);
                put_varint32(&mut out, t.p.0);
                put_varint32(&mut out, t.o.0);
            }
            Some(p) => {
                let ds = t.s.0 - p.s.0;
                put_varint32(&mut out, ds);
                if ds > 0 {
                    put_varint32(&mut out, t.p.0);
                    put_varint32(&mut out, t.o.0);
                } else {
                    let dp = t.p.0 - p.p.0;
                    put_varint32(&mut out, dp);
                    if dp > 0 {
                        put_varint32(&mut out, t.o.0);
                    } else {
                        put_varint32(&mut out, t.o.0 - p.o.0);
                    }
                }
            }
        }
        prev = Some(*t);
    }
    out
}

/// Decode a compact triple block from the front of `bytes`. Returns the
/// strictly ascending triples and the number of bytes consumed (blocks
/// are self-delimiting, so callers can embed them mid-message). The
/// claimed count is validated against the minimum encodable size
/// *before* any allocation.
pub fn decode_triple_block(bytes: &[u8]) -> Result<(Vec<Triple>, usize), TripleBlockError> {
    let (count, mut pos) = get_varint32(bytes, 0)?;
    let count = count as usize;
    let remaining = (bytes.len() - pos) as u64;
    if (count as u64).saturating_mul(MIN_BYTES_PER_TRIPLE) > remaining {
        return Err(TripleBlockError::Truncated { offset: bytes.len() });
    }
    // Cap the up-front reservation: a crafted count can claim at most
    // remaining/3 triples (checked above), but growing past 1M lazily
    // keeps the allocation proportional to bytes actually decoded.
    let mut out: Vec<Triple> = Vec::with_capacity(count.min(1 << 20));
    let overflow = |offset: usize| TripleBlockError::Overflow { offset };
    for index in 0..count {
        let t = match out.last() {
            None => {
                let (s, p1) = get_varint32(bytes, pos)?;
                let (p, p2) = get_varint32(bytes, p1)?;
                let (o, p3) = get_varint32(bytes, p2)?;
                pos = p3;
                Triple::new(NodeId(s), NodeId(p), NodeId(o))
            }
            Some(prev) => {
                let at = pos;
                let (ds, p1) = get_varint32(bytes, pos)?;
                let s = prev.s.0.checked_add(ds).ok_or_else(|| overflow(at))?;
                if ds > 0 {
                    let (p, p2) = get_varint32(bytes, p1)?;
                    let (o, p3) = get_varint32(bytes, p2)?;
                    pos = p3;
                    Triple::new(NodeId(s), NodeId(p), NodeId(o))
                } else {
                    let (dp, p2) = get_varint32(bytes, p1)?;
                    let p = prev.p.0.checked_add(dp).ok_or_else(|| overflow(p1))?;
                    if dp > 0 {
                        let (o, p3) = get_varint32(bytes, p2)?;
                        pos = p3;
                        Triple::new(NodeId(s), NodeId(p), NodeId(o))
                    } else {
                        let (dd, p3) = get_varint32(bytes, p2)?;
                        if dd == 0 {
                            return Err(TripleBlockError::NonMonotone { index });
                        }
                        let o = prev.o.0.checked_add(dd).ok_or_else(|| overflow(p2))?;
                        pos = p3;
                        Triple::new(NodeId(s), NodeId(p), NodeId(o))
                    }
                }
            }
        };
        out.push(t);
    }
    Ok((out, pos))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::comm::MAX_PAYLOAD_BYTES;

    #[test]
    fn plain_roundtrip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"world!").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"world!");
    }

    #[test]
    fn crc_roundtrip_over_a_buffer() {
        let mut wire = Vec::new();
        write_crc_frame(&mut wire, b"twelve bytes").unwrap();
        write_crc_frame(&mut wire, &[0u8; 64]).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_crc_frame(&mut r).unwrap(), b"twelve bytes");
        assert_eq!(read_crc_frame(&mut r).unwrap(), vec![0u8; 64]);
    }

    #[test]
    fn zero_length_rejected_on_both_sides() {
        for writer in [write_frame, write_crc_frame] {
            let mut sink = Vec::new();
            assert!(matches!(
                writer(&mut sink, &[]),
                Err(FrameError::Bounds(PayloadBoundsError::Empty))
            ));
        }
        let wire = 0u32.to_le_bytes();
        assert!(matches!(
            read_frame(&mut &wire[..]),
            Err(FrameError::Bounds(_))
        ));
        let wire = [0u8; 8]; // len 0, crc 0
        assert!(matches!(
            read_crc_frame(&mut &wire[..]),
            Err(FrameError::Bounds(_))
        ));
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[0xff; 8]);
        assert!(matches!(
            read_frame(&mut &wire.clone()[..]),
            Err(FrameError::Bounds(PayloadBoundsError::Oversized { .. }))
        ));
        assert!(matches!(
            read_crc_frame(&mut &wire[..]),
            Err(FrameError::Bounds(PayloadBoundsError::Oversized { .. }))
        ));
        assert!(u64::from(u32::MAX) > MAX_PAYLOAD_BYTES, "test premise");
    }

    #[test]
    fn torn_frame_is_io_error_not_panic() {
        // A frame whose stream ends mid-body: the torn tail a crashed
        // peer leaves behind.
        let mut wire = Vec::new();
        write_crc_frame(&mut wire, b"whole frame body").unwrap();
        for cut in 1..wire.len() {
            let torn = &wire[..cut];
            match read_crc_frame(&mut &torn[..]) {
                Err(FrameError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}");
                }
                other => panic!("cut at {cut}: expected EOF error, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_body_bit_flip_is_caught_by_the_crc() {
        let body = b"the quick brown fox".to_vec();
        let mut wire = Vec::new();
        write_crc_frame(&mut wire, &body).unwrap();
        for byte in 8..wire.len() {
            for bit in 0..8 {
                let mut mutated = wire.clone();
                mutated[byte] ^= 1 << bit;
                assert!(
                    matches!(
                        read_crc_frame(&mut &mutated[..]),
                        Err(FrameError::Checksum { .. })
                    ),
                    "body flip at {byte}.{bit} undetected"
                );
            }
        }
    }

    #[test]
    fn crc_header_flips_fail_typed() {
        // Flips in the length or CRC header must also surface as typed
        // errors (bounds, checksum, or EOF) — never a panic or a hang on
        // this finite input.
        let mut wire = Vec::new();
        write_crc_frame(&mut wire, b"abc").unwrap();
        for byte in 0..8 {
            for bit in 0..8 {
                let mut mutated = wire.clone();
                mutated[byte] ^= 1 << bit;
                assert!(read_crc_frame(&mut &mutated[..]).is_err(), "flip at {byte}.{bit}");
            }
        }
    }

    // --- compact triple blocks ---------------------------------------

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    /// Deterministic xorshift so the property sweep needs no external
    /// crates and reproduces bit-for-bit.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_set(seed: u64, n: usize, id_space: u32) -> Vec<Triple> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut v: Vec<Triple> = (0..n)
            .map(|_| {
                t(
                    (xorshift(&mut state) % u64::from(id_space)) as u32,
                    (xorshift(&mut state) % u64::from(id_space.min(64))) as u32,
                    (xorshift(&mut state) % u64::from(id_space)) as u32,
                )
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn varint_roundtrip_and_bounds() {
        for v in [0u32, 1, 127, 128, 16383, 16384, 1 << 21, u32::MAX - 1, u32::MAX] {
            let mut buf = Vec::new();
            put_varint32(&mut buf, v);
            assert!(buf.len() <= 5);
            assert_eq!(get_varint32(&buf, 0).unwrap(), (v, buf.len()), "{v}");
        }
        // A 5th byte carrying more than 4 payload bits overflows u32.
        let too_big = [0xff, 0xff, 0xff, 0xff, 0x10];
        assert!(matches!(
            get_varint32(&too_big, 0),
            Err(TripleBlockError::Overflow { .. })
        ));
        // All-continuation bytes never terminate: overflow, not a hang.
        let runaway = [0x80; 6];
        assert!(matches!(
            get_varint32(&runaway, 0),
            Err(TripleBlockError::Overflow { .. })
        ));
        assert!(matches!(
            get_varint32(&[], 0),
            Err(TripleBlockError::Truncated { offset: 0 })
        ));
    }

    #[test]
    fn compact_block_roundtrips_across_seeds_and_matches_raw() {
        for seed in 0..40u64 {
            let n = (seed as usize % 97) * 7; // includes 0
            let set = random_set(seed, n, 10_000);
            let block = encode_triple_block(&set);
            let (back, used) = decode_triple_block(&block).unwrap();
            assert_eq!(used, block.len(), "seed {seed}: block is self-delimiting");
            assert_eq!(back, set, "seed {seed}: lossless");
            // The raw encoding of the same set is 12 bytes/triple; the
            // compact block must never exceed raw + its count prefix,
            // and beats it soundly on clustered ids.
            assert!(
                block.len() <= 5 + set.len() * 12,
                "seed {seed}: {} compact vs {} raw",
                block.len(),
                set.len() * 12
            );
        }
    }

    #[test]
    fn compact_block_sorts_and_dedups_unsorted_input() {
        let messy = vec![t(9, 1, 1), t(3, 2, 2), t(9, 1, 1), t(3, 2, 1)];
        let (back, _) = decode_triple_block(&encode_triple_block(&messy)).unwrap();
        assert_eq!(back, vec![t(3, 2, 1), t(3, 2, 2), t(9, 1, 1)]);
    }

    #[test]
    fn compact_block_dense_run_is_near_one_byte_per_triple() {
        // A store-like sorted run with tiny deltas: the case the cluster
        // ships constantly. 3 bytes/triple is the format's floor.
        let run: Vec<Triple> = (0..10_000u32).map(|i| t(i / 8, i % 4, i)).collect();
        let mut sorted = run.clone();
        sorted.sort_unstable();
        let block = encode_triple_block(&sorted);
        assert!(
            block.len() < sorted.len() * 4,
            "{} bytes for {} triples",
            block.len(),
            sorted.len()
        );
    }

    #[test]
    fn compact_block_truncation_at_every_offset_is_typed() {
        let set = random_set(7, 50, 1 << 20);
        let block = encode_triple_block(&set);
        for cut in 0..block.len() {
            match decode_triple_block(&block[..cut]) {
                Err(TripleBlockError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn compact_block_duplicate_is_rejected() {
        // Hand-craft a block whose second triple repeats the first: the
        // only non-monotone sequence the grammar can express.
        let mut block = Vec::new();
        put_varint32(&mut block, 2); // two triples
        put_varint32(&mut block, 5); // (5, 6, 7)
        put_varint32(&mut block, 6);
        put_varint32(&mut block, 7);
        put_varint32(&mut block, 0); // ds = dp = do = 0 → duplicate
        put_varint32(&mut block, 0);
        put_varint32(&mut block, 0);
        assert_eq!(
            decode_triple_block(&block),
            Err(TripleBlockError::NonMonotone { index: 1 })
        );
    }

    #[test]
    fn compact_block_id_overflow_is_rejected() {
        // First triple at the top of the id space, then a delta that
        // would wrap s past u32::MAX.
        let mut block = Vec::new();
        put_varint32(&mut block, 2);
        put_varint32(&mut block, u32::MAX);
        put_varint32(&mut block, 0);
        put_varint32(&mut block, 0);
        put_varint32(&mut block, 1); // ds = 1 wraps
        put_varint32(&mut block, 0);
        put_varint32(&mut block, 0);
        assert!(matches!(
            decode_triple_block(&block),
            Err(TripleBlockError::Overflow { .. })
        ));
    }

    #[test]
    fn compact_block_overlong_count_is_truncation_before_allocation() {
        let mut block = Vec::new();
        put_varint32(&mut block, u32::MAX); // claims 4G triples
        block.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            decode_triple_block(&block),
            Err(TripleBlockError::Truncated { .. })
        ));
    }

    #[test]
    fn empty_block_is_one_byte() {
        let block = encode_triple_block(&[]);
        assert_eq!(block, vec![0]);
        assert_eq!(decode_triple_block(&block).unwrap(), (Vec::new(), 1));
    }

    #[test]
    fn plain_and_crc_frames_are_not_interchangeable() {
        // A CRC frame read as a plain frame yields a different body; a
        // plain frame read as a CRC frame fails its checksum (or EOF) —
        // the two stream dialects cannot be silently confused.
        let mut wire = Vec::new();
        write_crc_frame(&mut wire, b"payload").unwrap();
        let as_plain = read_frame(&mut &wire[..]).unwrap();
        assert_ne!(as_plain, b"payload");
        let mut wire2 = Vec::new();
        write_frame(&mut wire2, b"payload").unwrap();
        assert!(read_crc_frame(&mut &wire2[..]).is_err());
    }
}
