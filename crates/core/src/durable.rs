//! Shared durability primitives: CRC-32 checksums and crash-safe file
//! writes.
//!
//! Two consumers share this module so the whole system applies one write
//! discipline:
//!
//! * the shared-file transport ([`crate::comm`]) — its message files are
//!   written with [`atomic_write`], so a crashed sender never leaves a
//!   half-message where `collect` will find it;
//! * the `owlpar-serve` durability layer — its write-ahead-log records
//!   are checksummed with [`crc32`] and its checkpoints are written with
//!   [`atomic_write_synced`], which additionally forces the bytes (and
//!   the directory entry) to stable storage before returning.
//!
//! The atomicity argument is the classic temp-file + `rename(2)` one: a
//! crash before the rename leaves only a `*.tmp` file that readers
//! ignore; a crash after the rename leaves the complete new file. POSIX
//! renames within one directory are atomic with respect to concurrent
//! observers.

use std::io::{self, Write};
use std::path::Path;

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) lookup table, built at
/// compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`. Detects the corruptions that matter for a
/// log on a local filesystem: torn writes, bit rot, and truncation.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = (c >> 8) ^ CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize];
    }
    !c
}

/// Suffix appended to a destination filename while its contents are
/// staged. Readers (checkpoint scans, WAL replay) must skip files with
/// this suffix: they are the debris of a crashed writer.
pub const TMP_SUFFIX: &str = ".tmp";

fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(TMP_SUFFIX);
    std::path::PathBuf::from(name)
}

/// Write `bytes` to `path` atomically (temp file + rename): concurrent
/// or post-crash readers see either the old file or the complete new
/// one, never a prefix. Does **not** fsync — use
/// [`atomic_write_synced`] when the bytes must survive power loss.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// [`atomic_write`] plus durability: the file's bytes are flushed to
/// stable storage before the rename, and the parent directory entry is
/// flushed after it, so the new file survives a crash of the whole
/// machine — the discipline checkpoints need.
pub fn atomic_write_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        sync_dir(parent)?;
    }
    Ok(())
}

/// Flush a directory's entry table to stable storage (no-op where the
/// platform does not support opening directories).
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    match std::fs::File::open(dir) {
        Ok(d) => d.sync_all(),
        // Non-unix platforms refuse to open directories; the rename is
        // still atomic, only the directory-entry durability is weaker.
        Err(e) if e.kind() == io::ErrorKind::PermissionDenied => Ok(()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    /// Reference values from the ubiquitous CRC-32 (IEEE) everyone else
    /// computes — interoperability anchor for the on-disk format.
    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"hello, write-ahead log".to_vec();
        let good = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut mutated = data.clone();
                mutated[byte] ^= 1 << bit;
                assert_ne!(crc32(&mutated), good, "flip at {byte}.{bit} undetected");
            }
        }
    }

    #[test]
    fn atomic_write_replaces_content_and_removes_tmp() {
        let dir = std::env::temp_dir().join(format!("owlpar-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("value.bin");
        atomic_write(&path, b"one").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"one");
        atomic_write_synced(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        assert!(
            !tmp_path(&path).exists(),
            "temp staging file must not survive a successful write"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
