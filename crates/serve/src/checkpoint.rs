//! Atomic, checksummed checkpoints of the serving KB.
//!
//! A checkpoint is the full closed graph — dictionary plus triple block,
//! the binary snapshot image of [`owlpar_rdf::snapshot`] — cut into CRC
//! frames ([`owlpar_core::frame`]) behind a magic and its sequence
//! number, and written with the crash-safe temp+rename+fsync discipline
//! ([`owlpar_core::atomic_write_synced`]):
//!
//! ```text
//! checkpoint := magic "OWLCKPT2" | seq:u64 | crc_frame(chunk)+
//! chunk      := the next ≤ MAX_PAYLOAD_BYTES of the snapshot image
//! ```
//!
//! Chunking keeps every frame inside the shared payload bound, so a KB
//! whose image outgrows one frame still checkpoints. A checkpoint of the
//! previous, unframed format (version digit 1) is refused by its magic,
//! never misread, and recovery falls back as for any invalid checkpoint.
//!
//! A crash mid-write leaves only `*.tmp` staging debris (ignored by the
//! scan); a crash after the rename leaves a complete, verifiable file.
//! Recovery keeps the **two** most recent checkpoints on disk so a
//! latest checkpoint that fails verification (bit rot, torn rename on
//! a non-atomic filesystem) falls back to its predecessor — together
//! with the retained WAL segments that is always sufficient to rebuild
//! (see [`crate::recovery`]).

use crate::error::ServeError;
use owlpar_core::frame::{read_crc_frame, write_crc_frame, FrameError};
use owlpar_core::{atomic_write_synced, MAX_PAYLOAD_BYTES};
use owlpar_rdf::{snapshot, Graph};
use std::path::{Path, PathBuf};

const CKPT_MAGIC: &[u8; 8] = b"OWLCKPT2";
const CKPT_HEADER: usize = 8 + 8;

/// Name of checkpoint `seq`.
pub fn checkpoint_name(seq: u64) -> String {
    format!("ckpt-{seq:016}.owlckpt")
}

/// Parse a checkpoint filename back to its sequence number.
pub fn parse_checkpoint_name(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".owlckpt")?
        .parse()
        .ok()
}

/// Encode `graph` into the checkpoint container for `seq`.
pub fn encode(seq: u64, graph: &Graph) -> Result<Vec<u8>, ServeError> {
    let image = snapshot::save_to_vec(graph)
        .map_err(|e| ServeError::Durability(format!("serializing checkpoint: {e}")))?;
    frame_image(seq, &image, MAX_PAYLOAD_BYTES as usize)
}

/// The container for `seq` around `image`, one CRC frame per `chunk`
/// bytes of it.
fn frame_image(seq: u64, image: &[u8], chunk: usize) -> Result<Vec<u8>, ServeError> {
    let frames = image.len().div_ceil(chunk);
    let mut out = Vec::with_capacity(CKPT_HEADER + 8 * frames + image.len());
    out.extend_from_slice(CKPT_MAGIC);
    out.extend_from_slice(&seq.to_le_bytes());
    for piece in image.chunks(chunk) {
        write_crc_frame(&mut out, piece)
            .map_err(|e| ServeError::Durability(format!("framing checkpoint {seq}: {e}")))?;
    }
    Ok(out)
}

/// Write checkpoint `seq` of `graph` into `dir`, atomically and
/// durably. Returns the final path.
pub fn write(dir: &Path, seq: u64, graph: &Graph) -> Result<PathBuf, ServeError> {
    let bytes = encode(seq, graph)?;
    let path = dir.join(checkpoint_name(seq));
    atomic_write_synced(&path, &bytes)
        .map_err(|e| ServeError::Durability(format!("writing checkpoint {seq}: {e}")))?;
    Ok(path)
}

/// Read and fully verify one checkpoint file: magic, every frame's
/// length and CRC, and the snapshot decode of what they carry.
pub fn read(path: &Path) -> Result<(u64, Graph), ServeError> {
    let bad = |what: String| ServeError::Durability(format!("{}: {what}", path.display()));
    let bytes = std::fs::read(path)
        .map_err(|e| ServeError::Durability(format!("reading checkpoint: {e}")))?;
    let Some((header, mut rest)) = bytes.split_at_checked(CKPT_HEADER) else {
        return Err(bad("not a checkpoint (truncated header)".into()));
    };
    if &header[..8] != CKPT_MAGIC {
        return Err(bad("not an OWLCKPT2 checkpoint (bad magic)".into()));
    }
    let seq = u64::from_le_bytes([
        header[8], header[9], header[10], header[11], header[12], header[13], header[14],
        header[15],
    ]);
    let damaged = |e: FrameError| bad(e.to_string());
    let mut image = read_crc_frame(&mut rest).map_err(damaged)?;
    while !rest.is_empty() {
        image.extend_from_slice(&read_crc_frame(&mut rest).map_err(damaged)?);
    }
    // A cut on a frame boundary leaves whole frames and a short image,
    // which the snapshot decoder refuses as truncated.
    let graph = snapshot::load_from_slice(&image).map_err(|e| bad(e.to_string()))?;
    Ok((seq, graph))
}

/// All checkpoint files in `dir`, sorted ascending by sequence number.
/// `*.tmp` staging debris and foreign files are ignored.
pub fn list(dir: &Path) -> Result<Vec<(u64, PathBuf)>, ServeError> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir)
        .map_err(|e| ServeError::Durability(format!("listing data dir: {e}")))?;
    for entry in entries {
        let entry =
            entry.map_err(|e| ServeError::Durability(format!("listing data dir: {e}")))?;
        if let Some(seq) = entry
            .file_name()
            .to_str()
            .and_then(parse_checkpoint_name)
        {
            out.push((seq, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// The newest checkpoint in `dir` that passes full verification,
/// together with how many newer ones had to be skipped as invalid.
/// `Ok(None)` when the directory holds no checkpoint files at all.
pub fn latest_valid(dir: &Path) -> Result<Option<(u64, Graph, usize)>, ServeError> {
    let mut skipped = 0;
    for (seq, path) in list(dir)?.into_iter().rev() {
        match read(&path) {
            Ok((file_seq, graph)) if file_seq == seq => {
                return Ok(Some((seq, graph, skipped)));
            }
            Ok(_) | Err(_) => skipped += 1,
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("owlpar-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.insert_iris("http://x/a", "http://x/p", "http://x/b");
        g.insert_iris("http://x/b", "http://x/p", "http://x/c");
        g
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let g = sample();
        let path = write(&dir, 7, &g).unwrap();
        let (seq, back) = read(&path).unwrap();
        assert_eq!(seq, 7);
        assert_eq!(back.term_fingerprint(), g.term_fingerprint());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_is_a_typed_error_and_fallback_finds_previous() {
        let dir = tmp_dir("fallback");
        let g1 = sample();
        let mut g2 = sample();
        g2.insert_iris("http://x/c", "http://x/p", "http://x/d");
        write(&dir, 1, &g1).unwrap();
        let p2 = write(&dir, 2, &g2).unwrap();
        // Corrupt the newer checkpoint's body.
        let mut bytes = std::fs::read(&p2).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&p2, &bytes).unwrap();
        assert!(matches!(read(&p2), Err(ServeError::Durability(_))));
        // A newer one of the previous format is refused by its magic.
        let p3 = write(&dir, 3, &g2).unwrap();
        let mut bytes = std::fs::read(&p3).unwrap();
        bytes[7] = b'1'; // the previous format's version digit
        std::fs::write(&p3, &bytes).unwrap();
        assert!(matches!(read(&p3), Err(ServeError::Durability(m)) if m.contains("magic")));
        let (seq, graph, skipped) = latest_valid(&dir).unwrap().unwrap();
        assert_eq!(seq, 1, "falls back to the previous checkpoint");
        assert_eq!(skipped, 2);
        assert_eq!(graph.term_fingerprint(), g1.term_fingerprint());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_checkpoint_never_panics() {
        let dir = tmp_dir("trunc");
        let path = write(&dir, 0, &sample()).unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(read(&path).is_err(), "truncation at {cut} must fail cleanly");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn image_split_over_many_frames_roundtrips_and_every_cut_fails_typed() {
        let dir = tmp_dir("chunks");
        let g = sample();
        let image = snapshot::save_to_vec(&g).unwrap();
        let bytes = frame_image(5, &image, 16).unwrap();
        assert!(image.len() > 2 * 16, "test premise: three frames or more");
        let path = dir.join(checkpoint_name(5));
        std::fs::write(&path, &bytes).unwrap();
        let (seq, back) = read(&path).unwrap();
        assert_eq!(seq, 5);
        assert_eq!(back.term_fingerprint(), g.term_fingerprint());
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                matches!(read(&path), Err(ServeError::Durability(_))),
                "cut at {cut} must fail typed"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tmp_debris_is_invisible_to_the_scan() {
        let dir = tmp_dir("debris");
        write(&dir, 3, &sample()).unwrap();
        std::fs::write(dir.join("ckpt-0000000000000004.owlckpt.tmp"), b"partial").unwrap();
        let listed = list(&dir).unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].0, 3);
        let (seq, _, skipped) = latest_valid(&dir).unwrap().unwrap();
        assert_eq!((seq, skipped), (3, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_has_no_checkpoint() {
        let dir = tmp_dir("empty");
        assert!(latest_valid(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn names_roundtrip_and_sort() {
        assert_eq!(parse_checkpoint_name(&checkpoint_name(9)), Some(9));
        assert_eq!(parse_checkpoint_name("wal-1.log"), None);
        assert!(checkpoint_name(9) < checkpoint_name(10));
    }
}
