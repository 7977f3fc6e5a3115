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
//!   detection (TCP's 16-bit checksum is famously leaky at scale);
//! * every checksummed file: CRC frames, after its format's header:
//!
//! ```text
//! message    := crc_frame(triple block | N-Triples text)   (crate::comm)
//! wal        := "OWLWAL1\n" seq:u64 crc_frame(N-Triples batch)*
//! checkpoint := "OWLCKPT2" seq:u64 crc_frame(snapshot image chunk)+
//! cache      := magic:u32 version:u32 key[36] digest[16] crc_frame(Setup payload)
//! ```
//!
//! A frame that carries a triple set carries one triple block, the codec
//! beside `Triple` in [`owlpar_rdf::triple`], re-exported here.

use crate::comm::{check_payload_bounds, PayloadBoundsError};
use crate::durable::crc32;
pub use owlpar_rdf::triple::{
    decode_triple_block, encode_triple_block, get_varint32, put_varint32, TripleBlockError,
};
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
