//! The write-ahead log: durable, checksummed record of accepted INSERT
//! batches.
//!
//! Only **base** triples are logged — the raw N-Triples text of each
//! accepted batch, exactly as the client sent it. Derived facts are
//! never logged: recovery recomputes them with the same semi-naive
//! delta closure the live insert path uses, which keeps the log
//! proportional to the ingress stream, not the closure.
//!
//! One *segment* file covers the interval between two checkpoints and
//! is named `wal-<seq>.log`, where `seq` is the checkpoint it follows
//! (see [`crate::checkpoint`]). Layout:
//!
//! ```text
//! segment := magic "OWLWAL1\n" | seq:u64 | record*
//! record  := crc_frame(payload)   (= len:u32 | crc32:u32 | payload{len})
//! ```
//!
//! All integers little-endian. A record is exactly one CRC frame of
//! [`owlpar_core::frame`], written by `write_crc_frame` and read back by
//! `read_crc_frame`, so its length passes the same
//! [`owlpar_core::check_payload_bounds`] as every other length-prefixed
//! stream in the system and its checksum is the shared CRC-32.
//!
//! The append path is write-ahead in the strict sense: a batch is
//! appended **and fsynced** before it is applied to the in-memory
//! store, so an acknowledged insert is always on disk. A crash between
//! the write and the fsync can leave a *torn* final record; replay
//! tolerates exactly that — it stops at the first record that is not a
//! whole, valid frame (short, out of bounds, or failing its CRC), reports
//! the tear, and recovery truncates the segment back to its valid prefix
//! before appending again.

use crate::error::ServeError;
use owlpar_core::frame::{read_crc_frame, write_crc_frame};
use std::io::Write;
use std::path::{Path, PathBuf};

const WAL_MAGIC: &[u8; 8] = b"OWLWAL1\n";
const HEADER_LEN: u64 = 16; // magic + seq

/// Name of the segment that follows checkpoint `seq`.
pub fn segment_name(seq: u64) -> String {
    format!("wal-{seq:016}.log")
}

/// Parse a segment filename back to its sequence number.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?.strip_suffix(".log")?.parse().ok()
}

fn io_err(what: &str, e: &std::io::Error) -> ServeError {
    ServeError::Durability(format!("{what}: {e}"))
}

/// Append handle for one WAL segment.
#[derive(Debug)]
pub struct WalWriter {
    path: PathBuf,
    file: std::fs::File,
    /// Bytes in the segment (header + records) — the checkpoint trigger.
    bytes: u64,
    records: u64,
}

impl WalWriter {
    /// Create segment `seq` in `dir` (fails if it already exists with
    /// content — segments are created exactly once, at rotation).
    pub fn create(dir: &Path, seq: u64) -> Result<Self, ServeError> {
        let path = dir.join(segment_name(seq));
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("creating WAL segment", &e))?;
        let len = file
            .metadata()
            .map_err(|e| io_err("statting WAL segment", &e))?
            .len();
        if len == 0 {
            let mut header = Vec::with_capacity(HEADER_LEN as usize);
            header.extend_from_slice(WAL_MAGIC);
            header.extend_from_slice(&seq.to_le_bytes());
            file.write_all(&header)
                .and_then(|()| file.sync_all())
                .map_err(|e| io_err("writing WAL header", &e))?;
        }
        let bytes = file
            .metadata()
            .map_err(|e| io_err("statting WAL segment", &e))?
            .len();
        Ok(WalWriter {
            path,
            file,
            bytes,
            records: 0,
        })
    }

    /// Reopen an existing segment for appending, first truncating it to
    /// `valid_len` — the valid prefix replay established — so a torn
    /// tail can never shadow a future record.
    pub fn reopen(dir: &Path, seq: u64, valid_len: u64) -> Result<Self, ServeError> {
        let path = dir.join(segment_name(seq));
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| io_err("reopening WAL segment", &e))?;
        let actual = file
            .metadata()
            .map_err(|e| io_err("statting WAL segment", &e))?
            .len();
        if actual > valid_len {
            file.set_len(valid_len)
                .and_then(|()| file.sync_all())
                .map_err(|e| io_err("truncating torn WAL tail", &e))?;
        }
        drop(file);
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io_err("reopening WAL segment", &e))?;
        Ok(WalWriter {
            path,
            file,
            bytes: valid_len.min(actual.max(HEADER_LEN)),
            records: 0,
        })
    }

    /// Segment size in bytes (header + records).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records appended through this handle.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Path of the live segment.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stage one record **without** fsyncing: its CRC frame, in one
    /// `write(2)`. Callers must follow with [`WalWriter::sync`] before
    /// acknowledging the batch. Split so the crash-injection point
    /// *between* write and fsync is a real program point, not a
    /// simulation fiction.
    pub fn append_record(&mut self, payload: &[u8]) -> Result<(), ServeError> {
        let rec = frame_record(payload)?;
        self.file
            .write_all(&rec)
            .map_err(|e| io_err("appending WAL record", &e))?;
        self.bytes += rec.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Write a deliberately torn half-record: the simulation of a crash
    /// that died mid-append. Used by the fault-injection tests; the
    /// record is *not* counted as appended.
    pub fn append_torn_record(&mut self, payload: &[u8]) -> Result<(), ServeError> {
        let mut rec = frame_record(payload)?;
        rec.truncate((rec.len() / 2).max(1));
        self.file
            .write_all(&rec)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io_err("appending torn WAL record", &e))?;
        self.bytes += rec.len() as u64;
        Ok(())
    }

    /// Force everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<(), ServeError> {
        self.file
            .sync_data()
            .map_err(|e| io_err("fsyncing WAL", &e))
    }
}

/// One record's bytes: the CRC frame of `payload`.
fn frame_record(payload: &[u8]) -> Result<Vec<u8>, ServeError> {
    let mut rec = Vec::with_capacity(8 + payload.len());
    write_crc_frame(&mut rec, payload)
        .map_err(|e| ServeError::Durability(format!("WAL record: {e}")))?;
    Ok(rec)
}

/// What replaying one segment found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentReplay {
    /// The segment's sequence number (from its header).
    pub seq: u64,
    /// Every valid record payload, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte length of the valid prefix (where appends may resume).
    pub valid_len: u64,
    /// `true` when a torn/corrupt record terminated the scan early.
    pub torn: bool,
}

/// Replay one segment file, stopping at the first torn or corrupt
/// record (truncate-at-first-bad-CRC semantics). A completely missing
/// or header-corrupt file is an error; a torn *tail* is not.
pub fn replay_segment(path: &Path) -> Result<SegmentReplay, ServeError> {
    let bytes = std::fs::read(path).map_err(|e| io_err("reading WAL segment", &e))?;
    let Some((header, mut rest)) = bytes.split_at_checked(HEADER_LEN as usize) else {
        return Err(ServeError::Durability(format!(
            "{}: truncated WAL header",
            path.display()
        )));
    };
    if &header[..8] != WAL_MAGIC {
        return Err(ServeError::Durability(format!(
            "{}: bad WAL magic",
            path.display()
        )));
    }
    let seq = u64::from_le_bytes([
        header[8], header[9], header[10], header[11], header[12], header[13], header[14],
        header[15],
    ]);
    let mut records = Vec::new();
    let mut valid_len = HEADER_LEN;
    // A short read, a nonsense length and a bad CRC all end the scan the
    // same way: whatever follows the last whole frame is a tear.
    while !rest.is_empty() {
        let before = rest.len();
        match read_crc_frame(&mut rest) {
            Ok(payload) => {
                valid_len += (before - rest.len()) as u64;
                records.push(payload);
            }
            Err(_) => break,
        }
    }
    Ok(SegmentReplay {
        seq,
        records,
        valid_len,
        torn: valid_len != bytes.len() as u64,
    })
}

/// All WAL segments in `dir`, sorted ascending by sequence number.
/// `*.tmp` staging debris and foreign files are ignored.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, ServeError> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("listing data dir", &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("listing data dir", &e))?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_name) {
            out.push((seq, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("owlpar-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_sync_replay_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let mut w = WalWriter::create(&dir, 3).unwrap();
        w.append_record(b"<a> <p> <b> .\n").unwrap();
        w.append_record(b"<c> <p> <d> .\n").unwrap();
        w.sync().unwrap();
        let r = replay_segment(&dir.join(segment_name(3))).unwrap();
        assert_eq!(r.seq, 3);
        assert!(!r.torn);
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.records[0], b"<a> <p> <b> .\n");
        assert_eq!(r.valid_len, w.bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_record_is_tolerated_and_truncatable() {
        let dir = tmp_dir("torn");
        let mut w = WalWriter::create(&dir, 0).unwrap();
        w.append_record(b"<a> <p> <b> .\n").unwrap();
        w.append_torn_record(b"<never> <acked> <batch> .\n").unwrap();
        let path = dir.join(segment_name(0));
        let r = replay_segment(&path).unwrap();
        assert!(r.torn, "tear must be reported");
        assert_eq!(r.records.len(), 1, "only the intact record survives");
        // Reopen truncates; a fresh append lands cleanly after it.
        let mut w2 = WalWriter::reopen(&dir, 0, r.valid_len).unwrap();
        w2.append_record(b"<c> <p> <d> .\n").unwrap();
        w2.sync().unwrap();
        let r2 = replay_segment(&path).unwrap();
        assert!(!r2.torn);
        assert_eq!(r2.records.len(), 2);
        assert_eq!(r2.records[1], b"<c> <p> <d> .\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_mid_record_truncates_at_first_bad_crc() {
        let dir = tmp_dir("corrupt");
        let mut w = WalWriter::create(&dir, 0).unwrap();
        for i in 0..5 {
            w.append_record(format!("<s{i}> <p> <o{i}> .\n").as_bytes()).unwrap();
        }
        w.sync().unwrap();
        let path = dir.join(segment_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of the third record's body.
        let target = bytes.len() / 2;
        bytes[target] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let r = replay_segment(&path).unwrap();
        assert!(r.torn);
        assert!(r.records.len() < 5, "records after the corruption are dropped");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncation_offset_is_tolerated() {
        let dir = tmp_dir("alltrunc");
        let mut w = WalWriter::create(&dir, 0).unwrap();
        w.append_record(b"<a> <p> <b> .\n").unwrap();
        w.append_record(b"<c> <p> <d> .\n").unwrap();
        w.sync().unwrap();
        let path = dir.join(segment_name(0));
        let full = std::fs::read(&path).unwrap();
        for cut in (HEADER_LEN as usize)..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let r = replay_segment(&path).unwrap();
            assert!(r.records.len() <= 2);
            assert!(
                r.valid_len <= cut as u64,
                "valid prefix cannot exceed the file"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_and_oversized_lengths_stop_the_scan_not_the_process() {
        let dir = tmp_dir("badlen");
        let mut w = WalWriter::create(&dir, 0).unwrap();
        w.append_record(b"<a> <p> <b> .\n").unwrap();
        w.sync().unwrap();
        let path = dir.join(segment_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&0u32.to_le_bytes()); // zero length
        bytes.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let r = replay_segment(&path).unwrap();
        assert!(r.torn);
        assert_eq!(r.records.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A two-record `OWLWAL1` segment, pinned byte for byte: a segment
    /// any earlier build wrote must replay unchanged.
    const GOLDEN_SEGMENT: &[u8] = b"OWLWAL1\n\x07\0\0\0\0\0\0\0\x0e\0\0\0C\xd6\xcev<a> <p> <b> .\n\x0e\0\0\0\xa8\x96\xd2\x99<c> <p> <d> .\n";

    #[test]
    fn two_record_segment_matches_golden_bytes() {
        let dir = tmp_dir("golden");
        let mut w = WalWriter::create(&dir, 7).unwrap();
        w.append_record(b"<a> <p> <b> .\n").unwrap();
        w.append_record(b"<c> <p> <d> .\n").unwrap();
        w.sync().unwrap();
        let path = dir.join(segment_name(7));
        assert_eq!(std::fs::read(&path).unwrap(), GOLDEN_SEGMENT);
        std::fs::write(&path, GOLDEN_SEGMENT).unwrap();
        let r = replay_segment(&path).unwrap();
        assert_eq!((r.seq, r.torn), (7, false));
        assert_eq!(
            r.records,
            vec![b"<a> <p> <b> .\n".to_vec(), b"<c> <p> <d> .\n".to_vec()]
        );
        assert_eq!(r.valid_len, GOLDEN_SEGMENT.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_names_roundtrip_and_sort() {
        assert_eq!(parse_segment_name(&segment_name(42)), Some(42));
        assert_eq!(parse_segment_name("wal-x.log"), None);
        assert_eq!(parse_segment_name("ckpt-1.owlckpt"), None);
        assert!(segment_name(2) < segment_name(10), "zero-padded ordering");
    }
}
