//! Crash recovery: the durability handle the write path drives, and the
//! startup path that rebuilds a [`owlpar_rdf::Graph`] from a data
//! directory.
//!
//! # Data directory layout
//!
//! ```text
//! <data-dir>/ckpt-<seq>.owlckpt   checksummed snapshot of the closed graph
//! <data-dir>/wal-<seq>.log        batches accepted after checkpoint <seq>
//! ```
//!
//! # Invariants
//!
//! 1. **Write-ahead**: a batch is appended to `wal-<live>` and fsynced
//!    before it mutates the in-memory store; an acknowledged INSERT is
//!    therefore always on disk.
//! 2. **Checkpoint coverage**: checkpoint `n` contains exactly the
//!    closure of (checkpoint `n-1` ∪ the batches of `wal-<n-1>`), and is
//!    written atomically (temp + rename + fsync) before `wal-<n>` opens.
//! 3. **Retention**: the two newest checkpoints and every WAL segment
//!    `>= newest-1` are kept, so a corrupted newest checkpoint still
//!    leaves a valid base plus a complete log suffix.
//! 4. **Idempotent replay**: closure is monotonic and replay re-derives
//!    into a set, so replaying a batch that a checkpoint already folded
//!    in changes nothing — recovery may safely over-replay.
//!
//! Recovery therefore: picks the newest checkpoint that passes CRC +
//! decode verification (falling back past corrupt ones), replays every
//! retained WAL segment from that sequence upward — truncating at the
//! first bad CRC in the final, possibly-torn segment — and re-closes
//! each batch with the same semi-naive delta path the live server uses.
//! The result provably equals the no-crash closure over the acknowledged
//! batches (plus, possibly, one final logged-but-unacknowledged batch).

use crate::checkpoint;
use crate::error::ServeError;
use crate::wal::{self, WalWriter};
use owlpar_core::{CrashPlan, CrashPoint, CrashState};
use owlpar_datalog::MaterializationStrategy;
use owlpar_horst::{DeltaOutcome, HorstReasoner};
use owlpar_rdf::{parse_ntriples, Graph, Triple};
use std::path::{Path, PathBuf};

/// What an injected [`CrashPoint`] does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashAction {
    /// Abort the process (`kill -9` semantics) — the CLI's `--crash-at`
    /// mode, exercised by the CI smoke job.
    #[default]
    Abort,
    /// Simulate: stop persisting, surface [`ServeError::Crashed`], and
    /// leave the on-disk state exactly as a dead process would — the
    /// property-test mode, which then recovers from the files alone.
    Simulate,
}

/// Tunables for the durability layer.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Data directory (created if absent).
    pub dir: PathBuf,
    /// Take a checkpoint once the live WAL segment exceeds this many
    /// bytes. (A checkpoint is also taken whenever the serving KB folds
    /// its overlay into the frozen base — the merge-compaction point.)
    pub checkpoint_bytes: u64,
    /// Deterministic process-crash schedule (empty = never).
    pub crash: CrashPlan,
    /// What a scheduled crash does.
    pub crash_action: CrashAction,
}

impl DurabilityConfig {
    /// Defaults: 1 MiB WAL trigger, no injected crashes.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            checkpoint_bytes: 1 << 20,
            crash: CrashPlan::new(),
            crash_action: CrashAction::Abort,
        }
    }
}

/// The live durability handle: owns the WAL append handle and the
/// checkpoint cursor. Driven by the serving KB's writer path (under the
/// writer mutex, so appends are naturally serialized).
#[derive(Debug)]
pub struct Durability {
    cfg: DurabilityConfig,
    wal: WalWriter,
    /// Sequence of the live WAL segment == the checkpoint it follows.
    seq: u64,
    crash: CrashState,
    /// Set once persistence has failed (IO error or simulated crash);
    /// every later operation is refused so the server can never
    /// acknowledge a batch it did not log.
    poisoned: bool,
}

impl Durability {
    /// Initialize a fresh data directory from an already-closed graph:
    /// write checkpoint 0 and open `wal-0`.
    pub fn init(cfg: DurabilityConfig, graph: &Graph) -> Result<Self, ServeError> {
        std::fs::create_dir_all(&cfg.dir)
            .map_err(|e| ServeError::Durability(format!("creating data dir: {e}")))?;
        checkpoint::write(&cfg.dir, 0, graph)?;
        let wal = WalWriter::create(&cfg.dir, 0)?;
        let crash = cfg.crash.state();
        Ok(Durability {
            cfg,
            wal,
            seq: 0,
            crash,
            poisoned: false,
        })
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }

    /// Sequence of the live WAL segment.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// `true` once persistence has failed; the writer refuses further
    /// batches rather than acknowledging unlogged state.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    fn guard(&self) -> Result<(), ServeError> {
        if self.poisoned {
            return Err(ServeError::Durability(
                "durability layer is poisoned by an earlier failure; restart to recover".into(),
            ));
        }
        Ok(())
    }

    /// Durably log one accepted batch (the raw N-Triples text). Returns
    /// only after the record is on stable storage — the write-ahead
    /// contract. On any failure nothing may be acknowledged.
    pub fn log_batch(&mut self, nt: &str) -> Result<(), ServeError> {
        self.guard()?;
        let crash_here = self.crash.should_crash(CrashPoint::BeforeWalFsync);
        if crash_here && self.cfg.crash_action == CrashAction::Simulate {
            // Die mid-append: leave a torn half-record, exactly what a
            // real crash between write(2) and fsync(2) can leave.
            self.poisoned = true;
            self.wal.append_torn_record(nt.as_bytes())?;
            return Err(ServeError::Crashed(CrashPoint::BeforeWalFsync));
        }
        let append = self.wal.append_record(nt.as_bytes());
        if let Err(e) = append {
            self.poisoned = true;
            return Err(e);
        }
        if crash_here {
            std::process::abort();
        }
        if let Err(e) = self.wal.sync() {
            self.poisoned = true;
            return Err(e);
        }
        Ok(())
    }

    /// Should the writer take a checkpoint now? (WAL-size trigger; the
    /// caller additionally checkpoints at merge-compaction.)
    pub fn wal_over_threshold(&self) -> bool {
        self.wal.bytes() >= self.cfg.checkpoint_bytes
    }

    /// Take checkpoint `seq+1` of `graph` (which must be the closed,
    /// authoritative store including everything logged so far), rotate
    /// the WAL, and prune state older than the retention window.
    pub fn take_checkpoint(&mut self, graph: &Graph) -> Result<(), ServeError> {
        self.guard()?;
        if self.crash.should_crash(CrashPoint::AfterWalBeforeCheckpoint) {
            match self.cfg.crash_action {
                CrashAction::Abort => std::process::abort(),
                CrashAction::Simulate => {
                    self.poisoned = true;
                    return Err(ServeError::Crashed(CrashPoint::AfterWalBeforeCheckpoint));
                }
            }
        }
        let next = self.seq + 1;
        if self.crash.should_crash(CrashPoint::MidCheckpoint) {
            // Die half-way through writing the checkpoint: only `.tmp`
            // staging debris exists, the rename never happened.
            let bytes = checkpoint::encode(next, graph)?;
            let debris = self
                .cfg
                .dir
                .join(format!("{}{}", checkpoint::checkpoint_name(next), owlpar_core::TMP_SUFFIX));
            let half = &bytes[..bytes.len() / 2];
            std::fs::write(&debris, half)
                .map_err(|e| ServeError::Durability(format!("writing staging debris: {e}")))?;
            match self.cfg.crash_action {
                CrashAction::Abort => std::process::abort(),
                CrashAction::Simulate => {
                    self.poisoned = true;
                    return Err(ServeError::Crashed(CrashPoint::MidCheckpoint));
                }
            }
        }
        if let Err(e) = checkpoint::write(&self.cfg.dir, next, graph) {
            self.poisoned = true;
            return Err(e);
        }
        match WalWriter::create(&self.cfg.dir, next) {
            Ok(w) => self.wal = w,
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
        }
        self.seq = next;
        self.prune();
        Ok(())
    }

    /// Drop checkpoints older than the two newest and WAL segments below
    /// the older retained checkpoint. Best-effort: leftover files are
    /// harmless (the scan ignores anything it does not need) and must
    /// never fail a checkpoint that already succeeded.
    fn prune(&self) {
        let keep_from = self.seq.saturating_sub(1);
        if let Ok(ckpts) = checkpoint::list(&self.cfg.dir) {
            for (seq, path) in ckpts {
                if seq < keep_from {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
        if let Ok(segments) = wal::list_segments(&self.cfg.dir) {
            for (seq, path) in segments {
                if seq < keep_from {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
    }

    /// Final fsync at graceful shutdown, after every worker has drained.
    /// Every acknowledged batch is already durable (per-append fsync);
    /// this closes the window for any bytes the OS may still buffer.
    pub fn final_sync(&mut self) -> Result<(), ServeError> {
        if self.poisoned {
            return Ok(()); // nothing further may be persisted
        }
        self.wal.sync()
    }
}

/// What recovery did, for operator-facing reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence of the checkpoint recovery started from.
    pub checkpoint_seq: u64,
    /// Newer checkpoints skipped because they failed verification.
    pub checkpoints_skipped: usize,
    /// WAL segments replayed (including empty ones).
    pub segments_replayed: usize,
    /// Batches re-applied from the WAL.
    pub batches_replayed: usize,
    /// Consequences re-derived while replaying.
    pub rederived: usize,
    /// Batches that forced a schema recompile during replay.
    pub schema_recompiles: usize,
    /// Whether a torn/corrupt record terminated a segment scan early
    /// (the torn tail was truncated before the WAL reopened).
    pub torn_tail: bool,
}

impl RecoveryReport {
    /// One-line operator summary.
    pub fn summary(&self) -> String {
        format!(
            "recovered from checkpoint {} ({} newer skipped), replayed {} batch(es) \
             across {} segment(s), {} rederived, {} schema recompile(s){}",
            self.checkpoint_seq,
            self.checkpoints_skipped,
            self.batches_replayed,
            self.segments_replayed,
            self.rederived,
            self.schema_recompiles,
            if self.torn_tail {
                "; torn WAL tail truncated"
            } else {
                ""
            }
        )
    }
}

/// Does `dir` hold recoverable state (any checkpoint or WAL file)?
pub fn has_state(dir: &Path) -> bool {
    checkpoint::list(dir).map(|c| !c.is_empty()).unwrap_or(false)
        || wal::list_segments(dir).map(|s| !s.is_empty()).unwrap_or(false)
}

/// Re-apply one logged batch to a recovered graph — the same semantics
/// as the live insert path: semi-naive delta closure, full recompile +
/// re-close when the batch carries schema triples.
fn apply_batch(
    graph: &mut Graph,
    reasoner: &mut HorstReasoner,
    nt: &str,
    report: &mut RecoveryReport,
) -> Result<(), ServeError> {
    let mut scratch = Graph::new();
    parse_ntriples(nt, &mut scratch)
        .map_err(|e| ServeError::Recovery(format!("WAL batch failed to parse: {e}")))?;
    let batch: Vec<Triple> = scratch
        .store
        .iter()
        .map(|t| {
            let (s, p, o) = scratch.decode(t);
            Triple::new(graph.intern(s), graph.intern(p), graph.intern(o))
        })
        .collect();
    match reasoner.materialize_delta(&mut graph.store, &batch) {
        DeltaOutcome::Incremental { derived } => {
            report.rederived += derived.len();
        }
        DeltaOutcome::SchemaChanged => {
            for &t in &batch {
                graph.store.insert(t);
            }
            *reasoner =
                HorstReasoner::from_graph(graph, MaterializationStrategy::ForwardSemiNaive);
            report.rederived += reasoner.materialize(graph);
            report.schema_recompiles += 1;
        }
    }
    report.batches_replayed += 1;
    Ok(())
}

/// Rebuild the closed graph from `cfg.dir` and resume the durability
/// layer on the recovered tail.
///
/// Fails with [`ServeError::Recovery`] (CLI exit code 3) only when the
/// directory is truly unrecoverable: no checkpoint passes verification,
/// or a WAL segment below the torn tail cannot be read at all.
pub fn recover(cfg: DurabilityConfig) -> Result<(Graph, Durability, RecoveryReport), ServeError> {
    let dir = cfg.dir.clone();
    let (ckpt_seq, mut graph, skipped) = match checkpoint::latest_valid(&dir)? {
        Some(found) => found,
        None => {
            return Err(ServeError::Recovery(format!(
                "{}: no checkpoint passed verification",
                dir.display()
            )))
        }
    };
    let mut report = RecoveryReport {
        checkpoint_seq: ckpt_seq,
        checkpoints_skipped: skipped,
        ..RecoveryReport::default()
    };

    let mut reasoner =
        HorstReasoner::from_graph(&mut graph, MaterializationStrategy::ForwardSemiNaive);

    // Replay every retained segment from the recovery base upward.
    let segments: Vec<(u64, PathBuf)> = wal::list_segments(&dir)?
        .into_iter()
        .filter(|&(seq, _)| seq >= ckpt_seq)
        .collect();
    let mut live: Option<(u64, u64)> = None; // (seq, valid_len) of last segment
    for (seq, path) in &segments {
        let replay = wal::replay_segment(path)?;
        if replay.seq != *seq {
            return Err(ServeError::Recovery(format!(
                "{}: header sequence {} does not match its filename",
                path.display(),
                replay.seq
            )));
        }
        report.torn_tail |= replay.torn;
        for record in &replay.records {
            let nt = std::str::from_utf8(record).map_err(|_| {
                ServeError::Recovery(format!("{}: non-UTF-8 WAL record", path.display()))
            })?;
            apply_batch(&mut graph, &mut reasoner, nt, &mut report)?;
        }
        report.segments_replayed += 1;
        live = Some((*seq, replay.valid_len));
    }

    // Resume appending where the valid prefix of the newest segment
    // ends; create wal-<ckpt_seq> if (unusually) no segment survived.
    let wal = match live {
        Some((seq, valid_len)) => WalWriter::reopen(&dir, seq, valid_len)?,
        None => WalWriter::create(&dir, ckpt_seq)?,
    };
    let seq = wal
        .path()
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(wal::parse_segment_name)
        .unwrap_or(ckpt_seq);
    let crash = cfg.crash.state();
    let durability = Durability {
        cfg,
        wal,
        seq,
        crash,
        poisoned: false,
    };
    Ok((graph, durability, report))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use owlpar_rdf::vocab::{RDFS_SUBCLASSOF, RDF_TYPE};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("owlpar-recovery-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn closed_base() -> (Graph, HorstReasoner) {
        let mut g = Graph::new();
        g.insert_iris("http://x/Student", RDFS_SUBCLASSOF, "http://x/Person");
        g.insert_iris("http://x/alice", RDF_TYPE, "http://x/Student");
        let hr = HorstReasoner::from_graph(&mut g, MaterializationStrategy::ForwardSemiNaive);
        hr.materialize(&mut g);
        (g, hr)
    }

    #[test]
    fn init_log_recover_equals_oracle() {
        let dir = tmp_dir("basic");
        let (g, hr) = closed_base();
        let mut d = Durability::init(DurabilityConfig::new(&dir), &g).unwrap();
        let batch = "<http://x/bob> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
                     <http://x/Student> .\n";
        d.log_batch(batch).unwrap();

        // Oracle: apply the batch to the live graph too.
        let mut oracle = g;
        let mut r = RecoveryReport::default();
        let mut hr = hr;
        apply_batch(&mut oracle, &mut hr, batch, &mut r).unwrap();

        let (recovered, d2, report) = recover(DurabilityConfig::new(&dir)).unwrap();
        assert_eq!(report.checkpoint_seq, 0);
        assert_eq!(report.batches_replayed, 1);
        assert!(!report.torn_tail);
        assert_eq!(recovered.term_fingerprint(), oracle.term_fingerprint());
        assert_eq!(d2.seq(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_rotates_and_prunes() {
        let dir = tmp_dir("rotate");
        let (mut g, hr) = closed_base();
        let mut d = Durability::init(DurabilityConfig::new(&dir), &g).unwrap();
        for i in 0..3 {
            let nt = format!(
                "<http://x/s{i}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
                 <http://x/Student> .\n"
            );
            d.log_batch(&nt).unwrap();
            let mut scratch = Graph::new();
            parse_ntriples(&nt, &mut scratch).unwrap();
            let batch: Vec<Triple> = scratch
                .store
                .iter()
                .map(|t| {
                    let (s, p, o) = scratch.decode(t);
                    Triple::new(g.intern(s), g.intern(p), g.intern(o))
                })
                .collect();
            hr.materialize_delta(&mut g.store, &batch);
            d.take_checkpoint(&g).unwrap();
        }
        assert_eq!(d.seq(), 3);
        let ckpts = checkpoint::list(&dir).unwrap();
        assert_eq!(
            ckpts.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![2, 3],
            "retention keeps the two newest checkpoints"
        );
        let segs = wal::list_segments(&dir).unwrap();
        assert_eq!(
            segs.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![2, 3],
            "WAL segments below the retention window are pruned"
        );
        // Recovery from the rotated state still works (empty tail).
        let (recovered, _, report) = recover(DurabilityConfig::new(&dir)).unwrap();
        assert_eq!(report.checkpoint_seq, 3);
        assert_eq!(recovered.term_fingerprint(), g.term_fingerprint());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn simulated_crash_before_wal_fsync_loses_only_that_batch() {
        let dir = tmp_dir("crash-wal");
        let (g, _) = closed_base();
        let cfg = DurabilityConfig {
            crash: CrashPlan::new().with(CrashPoint::BeforeWalFsync, 1),
            crash_action: CrashAction::Simulate,
            ..DurabilityConfig::new(&dir)
        };
        let mut d = Durability::init(cfg, &g).unwrap();
        let b0 = "<http://x/bob> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
                  <http://x/Student> .\n";
        let b1 = "<http://x/carol> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
                  <http://x/Student> .\n";
        d.log_batch(b0).unwrap();
        let err = d.log_batch(b1).unwrap_err();
        assert!(matches!(err, ServeError::Crashed(CrashPoint::BeforeWalFsync)));
        assert!(d.poisoned());
        assert!(d.log_batch(b0).is_err(), "poisoned layer refuses everything");

        let (recovered, _, report) = recover(DurabilityConfig::new(&dir)).unwrap();
        assert!(report.torn_tail, "the half-record tear is detected");
        assert_eq!(report.batches_replayed, 1, "only the acked batch survives");
        let bob = recovered.contains_terms(
            &owlpar_rdf::Term::iri("http://x/bob"),
            &owlpar_rdf::Term::iri(RDF_TYPE),
            &owlpar_rdf::Term::iri("http://x/Person"),
        );
        assert!(bob, "recovered closure re-derives bob:Person");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn simulated_crash_mid_checkpoint_leaves_recoverable_state() {
        let dir = tmp_dir("crash-ckpt");
        let (mut g, hr) = closed_base();
        let cfg = DurabilityConfig {
            crash: CrashPlan::new().with(CrashPoint::MidCheckpoint, 0),
            crash_action: CrashAction::Simulate,
            ..DurabilityConfig::new(&dir)
        };
        let mut d = Durability::init(cfg, &g).unwrap();
        let nt = "<http://x/bob> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
                  <http://x/Student> .\n";
        d.log_batch(nt).unwrap();
        let mut scratch = Graph::new();
        parse_ntriples(nt, &mut scratch).unwrap();
        let batch: Vec<Triple> = scratch
            .store
            .iter()
            .map(|t| {
                let (s, p, o) = scratch.decode(t);
                Triple::new(g.intern(s), g.intern(p), g.intern(o))
            })
            .collect();
        hr.materialize_delta(&mut g.store, &batch);
        let err = d.take_checkpoint(&g).unwrap_err();
        assert!(matches!(err, ServeError::Crashed(CrashPoint::MidCheckpoint)));

        // Only checkpoint 0 exists; the WAL has the acked batch; the
        // staging debris is ignored.
        let (recovered, _, report) = recover(DurabilityConfig::new(&dir)).unwrap();
        assert_eq!(report.checkpoint_seq, 0);
        assert_eq!(report.batches_replayed, 1);
        assert_eq!(recovered.term_fingerprint(), g.term_fingerprint());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_is_unrecoverable_with_typed_error() {
        let dir = tmp_dir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(!has_state(&dir));
        let err = recover(DurabilityConfig::new(&dir)).unwrap_err();
        assert!(matches!(err, ServeError::Recovery(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_batch_in_wal_recompiles_on_replay() {
        let dir = tmp_dir("schema");
        let (g, _) = closed_base();
        let mut d = Durability::init(DurabilityConfig::new(&dir), &g).unwrap();
        d.log_batch(
            "<http://x/Person> <http://www.w3.org/2000/01/rdf-schema#subClassOf> \
             <http://x/Agent> .\n",
        )
        .unwrap();
        let (recovered, _, report) = recover(DurabilityConfig::new(&dir)).unwrap();
        assert_eq!(report.schema_recompiles, 1);
        assert!(recovered.contains_terms(
            &owlpar_rdf::Term::iri("http://x/alice"),
            &owlpar_rdf::Term::iri(RDF_TYPE),
            &owlpar_rdf::Term::iri("http://x/Agent"),
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
