//! Dictionary-encoded triples and their one byte encoding, the *triple
//! block*: every triple **set** at rest or in flight — a snapshot's (and
//! so a checkpoint's) triple section, a shared-file message, every
//! cluster frame that moves bulk data. Triples are sorted SPO (the
//! stores already iterate in sorted order), then delta-encoded with
//! LEB128 varints:
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
//! buffer. The CRC frame around a block (`owlpar_core::frame`) checks it.

use crate::dictionary::NodeId;
use crate::frozen::is_sorted_run;

/// A dictionary-encoded RDF triple: subject, predicate, object ids.
///
/// 12 bytes, `Copy`, hashable — the unit of work everywhere in the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Subject id.
    pub s: NodeId,
    /// Predicate id.
    pub p: NodeId,
    /// Object id.
    pub o: NodeId,
}

impl Triple {
    /// Construct from the three ids.
    #[inline]
    pub fn new(s: NodeId, p: NodeId, o: NodeId) -> Self {
        Triple { s, p, o }
    }

    /// The triple's components as an array `[s, p, o]`.
    #[inline]
    pub fn as_array(&self) -> [NodeId; 3] {
        [self.s, self.p, self.o]
    }
}

impl From<(NodeId, NodeId, NodeId)> for Triple {
    fn from((s, p, o): (NodeId, NodeId, NodeId)) -> Self {
        Triple { s, p, o }
    }
}

impl std::fmt::Display for Triple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({} {} {})", self.s, self.p, self.o)
    }
}

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

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    #[test]
    fn size_is_12_bytes() {
        assert_eq!(std::mem::size_of::<Triple>(), 12);
    }

    #[test]
    fn tuple_conversion_and_array() {
        let tr: Triple = (NodeId(1), NodeId(2), NodeId(3)).into();
        assert_eq!(tr.as_array(), [NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn ordering_is_spo_lexicographic() {
        assert!(t(0, 9, 9) < t(1, 0, 0));
        assert!(t(1, 0, 9) < t(1, 1, 0));
        assert!(t(1, 1, 0) < t(1, 1, 1));
    }

    // --- triple blocks -----------------------------------------------

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
}
