//! The shipped-partition cache: workers persist the [`SetupPayload`]
//! blobs the master ships them, keyed by
//! `(input digest, partitioning config digest, node id)`, so a repeat
//! run over the same KB and config ships a 16-byte digest instead of
//! the partition.
//!
//! ## Correctness model
//!
//! The cache can only ever *miss*, never corrupt: the master compares
//! the worker's advertised `payload` digest against the digest of the
//! payload it just built for this run, and only elides the transfer on
//! an exact match. A nondeterministic partitioner, a stale entry, or a
//! flipped bit on disk all degrade to a full ship. On the worker side a
//! loaded blob is re-verified (CRC and digest) before it is decoded,
//! and decoding applies the same full validation as the wire path
//! ([`decode_setup_payload`](crate::protocol::decode_setup_payload)).
//!
//! ## On-disk format
//!
//! One file per entry, named
//! `part-<input hex32>-<config hex32>-<node>.owlpart`, written with
//! [`atomic_write`] so a crashed worker never leaves a torn entry:
//!
//! ```text
//! entry := magic u32 | version u32 | input [16] | config [16] | node u32 |
//!          payload_digest [16] | crc_frame(payload)
//! ```
//!
//! The tail is one CRC frame of [`owlpar_core::frame`]
//! (`payload_len u32 | payload_crc u32 | payload`).
//!
//! Files that fail any check are ignored by [`PartitionCache::scan`]
//! and deleted lazily by [`PartitionCache::load`].

use crate::protocol::{CacheEntry, MAX_CACHE_ADVERT};
use owlpar_core::frame::{read_crc_frame, write_crc_frame};
use owlpar_core::{atomic_write, digest128, hex128, TMP_SUFFIX};
use std::io;
use std::path::{Path, PathBuf};

/// `"OWCP"` — first field of every cache file.
const CACHE_MAGIC: u32 = 0x4F57_4350;

/// Cache format version; bumped with the wire format, because the
/// cached bytes *are* wire bytes ([`crate::protocol::PROTOCOL_VERSION`]
/// 2's `SetupPayload` grammar).
const CACHE_VERSION: u32 = 2;

/// Fixed header ahead of the payload's CRC frame: magic, version, key,
/// digest.
const HEADER_LEN: usize = 4 + 4 + 16 + 16 + 4 + 16;

/// File extension for cache entries.
const EXT: &str = "owlpart";

/// Default retention: newest entries kept per node id by
/// [`PartitionCache::store`] — one per `(input, config)` the node has
/// recently run, so a worker cycling through KBs and partitioning
/// configs keeps its working set without growing the directory without
/// bound.
pub const DEFAULT_RETAIN_PER_NODE: usize = 8;

/// A directory of shipped-partition entries.
#[derive(Debug, Clone)]
pub struct PartitionCache {
    dir: PathBuf,
    retain_per_node: usize,
}

fn entry_name(input: &[u8; 16], config: &[u8; 16], node: u32) -> String {
    format!("part-{}-{}-{node}.{EXT}", hex128(input), hex128(config))
}

fn digest_at(buf: &[u8], at: usize) -> Option<[u8; 16]> {
    buf.get(at..at + 16)?.try_into().ok()
}

fn u32_at(buf: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(buf.get(at..at + 4)?.try_into().ok()?))
}

/// Parse a cache file's bytes into `(entry, payload)`. `None` on any
/// header mismatch, length mismatch, CRC failure or digest failure —
/// a bad file is a miss, never an error.
fn parse_entry(bytes: &[u8]) -> Option<(CacheEntry, Vec<u8>)> {
    if u32_at(bytes, 0)? != CACHE_MAGIC || u32_at(bytes, 4)? != CACHE_VERSION {
        return None;
    }
    let input = digest_at(bytes, 8)?;
    let config = digest_at(bytes, 24)?;
    let node = u32_at(bytes, 40)?;
    let payload_digest = digest_at(bytes, 44)?;
    let mut rest = bytes.get(HEADER_LEN..)?;
    let payload = read_crc_frame(&mut rest).ok()?;
    if !rest.is_empty() || digest128(&payload) != payload_digest {
        return None;
    }
    Some((
        CacheEntry {
            input,
            config,
            node,
            payload: payload_digest,
        },
        payload,
    ))
}

impl PartitionCache {
    /// Open (creating if needed) a cache directory with the default
    /// per-node retention ([`DEFAULT_RETAIN_PER_NODE`]).
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(PartitionCache {
            dir,
            retain_per_node: DEFAULT_RETAIN_PER_NODE,
        })
    }

    /// Override the per-node retention (floored at 1: the entry just
    /// stored always survives its own store).
    pub fn with_retention(mut self, retain_per_node: usize) -> Self {
        self.retain_per_node = retain_per_node.max(1);
        self
    }

    fn path_for(&self, input: &[u8; 16], config: &[u8; 16], node: u32) -> PathBuf {
        self.dir.join(entry_name(input, config, node))
    }

    /// Enumerate the valid entries on disk (full verification: CRC and
    /// payload digest), capped at [`MAX_CACHE_ADVERT`] — exactly what a
    /// worker advertises after its handshake.
    pub fn scan(&self) -> Vec<CacheEntry> {
        let mut entries = Vec::new();
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return entries;
        };
        for item in dir.flatten() {
            let path = item.path();
            if !is_entry_path(&path) {
                continue;
            }
            let Ok(bytes) = std::fs::read(&path) else {
                continue;
            };
            if let Some((entry, _)) = parse_entry(&bytes) {
                entries.push(entry);
                if entries.len() >= MAX_CACHE_ADVERT {
                    break;
                }
            }
        }
        // Deterministic advert order (read_dir order is arbitrary).
        entries.sort_by(|a, b| {
            (a.input, a.config, a.node).cmp(&(b.input, b.config, b.node))
        });
        entries
    }

    /// Load the payload for a key, verifying the file *and* that its
    /// payload digests to `expect` (the digest the master's `Setup`
    /// header demands). Any mismatch deletes the bad file and reports a
    /// miss.
    pub fn load(
        &self,
        input: &[u8; 16],
        config: &[u8; 16],
        node: u32,
        expect: &[u8; 16],
    ) -> Option<Vec<u8>> {
        let path = self.path_for(input, config, node);
        let bytes = std::fs::read(&path).ok()?;
        match parse_entry(&bytes) {
            Some((entry, payload)) if entry.payload == *expect => Some(payload),
            _ => {
                // Stale or damaged: evict so the next run re-ships.
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Persist a payload under its key, atomically. The entry self
    /// describes: its digest is recomputed, not trusted from callers.
    pub fn store(
        &self,
        input: &[u8; 16],
        config: &[u8; 16],
        node: u32,
        payload: &[u8],
    ) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(HEADER_LEN + 8 + payload.len());
        bytes.extend_from_slice(&CACHE_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&CACHE_VERSION.to_le_bytes());
        bytes.extend_from_slice(input);
        bytes.extend_from_slice(config);
        bytes.extend_from_slice(&node.to_le_bytes());
        bytes.extend_from_slice(&digest128(payload));
        write_crc_frame(&mut bytes, payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let path = self.path_for(input, config, node);
        atomic_write(&path, &bytes)?;
        self.evict_stale(node, &path);
        Ok(())
    }

    /// Enforce retention for `node`: keep the newest
    /// `retain_per_node` entries by file modification time (the one at
    /// `keep` — just written — always survives), delete the rest.
    /// Eviction is advisory: an unreadable directory or a failed remove
    /// leaves extra entries behind, which only costs disk, never
    /// correctness (every load re-verifies).
    fn evict_stale(&self, node: u32, keep: &Path) {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let mut aged: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
        for item in dir.flatten() {
            let path = item.path();
            if !is_entry_path(&path) || node_of_path(&path) != Some(node) || path == keep {
                continue;
            }
            let mtime = item
                .metadata()
                .and_then(|m| m.modified())
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            aged.push((mtime, path));
        }
        if aged.len() < self.retain_per_node {
            return;
        }
        // Oldest first; tie-break on the name so eviction order is
        // deterministic under coarse mtime granularity.
        aged.sort();
        let excess = aged.len() + 1 - self.retain_per_node;
        for (_, path) in aged.into_iter().take(excess) {
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Node id embedded in an entry file name
/// (`part-<input>-<config>-<node>.owlpart`).
fn node_of_path(path: &Path) -> Option<u32> {
    let name = path.file_name()?.to_str()?;
    let stem = name.strip_suffix(&format!(".{EXT}"))?;
    stem.rsplit('-').next()?.parse().ok()
}

fn is_entry_path(path: &Path) -> bool {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    name.starts_with("part-") && name.ends_with(&format!(".{EXT}")) && !name.ends_with(TMP_SUFFIX)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn tmp_cache(tag: &str) -> PartitionCache {
        let dir = std::env::temp_dir().join(format!(
            "owlpar-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        PartitionCache::open(dir).unwrap()
    }

    #[test]
    fn store_scan_load_roundtrip() {
        let cache = tmp_cache("roundtrip");
        let input = digest128(b"kb");
        let config = digest128(b"cfg");
        let payload = b"the shipped partition blob".to_vec();
        cache.store(&input, &config, 3, &payload).unwrap();

        let entries = cache.scan();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].input, input);
        assert_eq!(entries[0].config, config);
        assert_eq!(entries[0].node, 3);
        assert_eq!(entries[0].payload, digest128(&payload));

        let got = cache.load(&input, &config, 3, &digest128(&payload)).unwrap();
        assert_eq!(got, payload);
        let _ = std::fs::remove_dir_all(&cache.dir);
    }

    /// A version-2 cache entry, pinned byte for byte: an entry any
    /// earlier build wrote must still load.
    const GOLDEN_ENTRY: &[u8] = b"PCWO\x02\0\0\0]\xa4t\xb2\x8f4\x18\xc8\xcc,\xd9\x1c=\xef\xce\x81XN\x8dY\xc5\xe5&\xbfq&D\x12\xdd\x96F#\x03\0\0\0n\0\x81 \xde#\x8b\xf5k-\xa4}\xb0\xca\xbb\x0c\x1a\0\0\0\xef\xc5\xe7\x8ethe shipped partition blob";

    #[test]
    fn entry_matches_golden_bytes() {
        let cache = tmp_cache("golden");
        let (input, config) = (digest128(b"kb"), digest128(b"cfg"));
        let payload = b"the shipped partition blob";
        cache.store(&input, &config, 3, payload).unwrap();
        let path = cache.path_for(&input, &config, 3);
        assert_eq!(std::fs::read(&path).unwrap(), GOLDEN_ENTRY);
        std::fs::write(&path, GOLDEN_ENTRY).unwrap();
        assert_eq!(
            cache.load(&input, &config, 3, &digest128(payload)).unwrap(),
            payload
        );
        let _ = std::fs::remove_dir_all(&cache.dir);
    }

    #[test]
    fn digest_mismatch_is_a_miss_and_evicts() {
        let cache = tmp_cache("mismatch");
        let input = digest128(b"kb");
        let config = digest128(b"cfg");
        cache.store(&input, &config, 0, b"old partition").unwrap();
        // The master demands a different payload this run.
        assert!(cache.load(&input, &config, 0, &digest128(b"new partition")).is_none());
        // The stale entry was evicted entirely.
        assert!(cache.scan().is_empty());
        let _ = std::fs::remove_dir_all(&cache.dir);
    }

    #[test]
    fn corrupt_files_are_invisible() {
        let cache = tmp_cache("corrupt");
        let input = digest128(b"kb");
        let config = digest128(b"cfg");
        cache.store(&input, &config, 1, b"partition bytes").unwrap();
        // Flip one payload byte on disk.
        let path = cache.path_for(&input, &config, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.scan().is_empty());
        assert!(cache.load(&input, &config, 1, &digest128(b"partition bytes")).is_none());
        // Truncations at every offset are equally invisible.
        let full = {
            cache.store(&input, &config, 1, b"partition bytes").unwrap();
            std::fs::read(&path).unwrap()
        };
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(cache.scan().is_empty(), "cut at {cut} accepted");
        }
        let _ = std::fs::remove_dir_all(&cache.dir);
    }

    #[test]
    fn retention_keeps_newest_n_per_node() {
        let cache = tmp_cache("retention").with_retention(3);
        let config = digest128(b"cfg");
        // Six entries for node 0, each backdated so entry i is strictly
        // older than entry i+1 regardless of filesystem granularity.
        let now = std::time::SystemTime::now();
        for i in 0u8..6 {
            let input = digest128(&[b'k', i]);
            cache.store(&input, &config, 0, &[i; 32]).unwrap();
            let f = std::fs::File::options()
                .append(true)
                .open(cache.path_for(&input, &config, 0))
                .unwrap();
            f.set_modified(now - std::time::Duration::from_secs(100 - i as u64))
                .unwrap();
        }
        // Another node's entry is untouched by node 0's retention.
        cache.store(&digest128(b"other"), &config, 1, b"n1").unwrap();

        let entries = cache.scan();
        let node0: Vec<_> = entries.iter().filter(|e| e.node == 0).collect();
        assert_eq!(node0.len(), 3, "newest 3 of 6 survive");
        assert_eq!(entries.iter().filter(|e| e.node == 1).count(), 1);
        // Exactly the newest three (inputs 3, 4, 5) remain loadable.
        for i in 0u8..6 {
            let input = digest128(&[b'k', i]);
            let hit = cache
                .load(&input, &config, 0, &digest128(&[i; 32]))
                .is_some();
            assert_eq!(hit, i >= 3, "entry {i} retention");
        }
        let _ = std::fs::remove_dir_all(&cache.dir);
    }

    #[test]
    fn scan_ignores_foreign_files() {
        let cache = tmp_cache("foreign");
        std::fs::write(cache.dir.join("notes.txt"), b"hello").unwrap();
        std::fs::write(cache.dir.join(format!("part-x.{EXT}{TMP_SUFFIX}")), b"torn").unwrap();
        assert!(cache.scan().is_empty());
        let _ = std::fs::remove_dir_all(&cache.dir);
    }
}
