//! Per-worker and per-run instrumentation.
//!
//! The Fig. 2 experiment decomposes the parallel run into *reasoning*,
//! *IO* (inter-process communication), *synchronization* (waiting at the
//! round barrier) and *aggregation* (the master merging the outputs).
//! Workers accumulate the first three; the master records the fourth.

use owlpar_obs::json::{obj, Value};
use std::time::Duration;

/// Timing and volume counters for one worker.
///
/// `reason_time` and `io_time` are **thread CPU time** — what a dedicated
/// processor would spend — so the numbers stay meaningful when more
/// workers than cores share the host (see `crate::cputime`).
/// `sync_time` is *simulated*: per round, the gap between this worker's
/// CPU use and the slowest worker's (the barrier wait on a real cluster);
/// the master fills it in after the run.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Worker index.
    pub id: usize,
    /// CPU time spent inside the wrapped reasoner.
    pub reason_time: Duration,
    /// CPU time spent serializing/writing/reading/deserializing messages.
    pub io_time: Duration,
    /// Simulated barrier-wait time (filled by the master).
    pub sync_time: Duration,
    /// CPU time (reason + io) charged to each round, in round order.
    pub round_cpu: Vec<Duration>,
    /// Rounds executed (including the final empty round).
    pub rounds: usize,
    /// Triples this worker derived itself.
    pub derived: usize,
    /// Triples sent to other workers (with multiplicity).
    pub sent: usize,
    /// Triples received from other workers (pre-dedup).
    pub received: usize,
    /// Messages skipped with a report (corrupted/truncated/undecodable;
    /// see `owlpar_core::error::SkippedMessage`).
    pub skipped: usize,
    /// Transient IO failures absorbed by retrying.
    pub io_retries: usize,
    /// Final size of the worker's full local store (schema + base +
    /// derived + received) — not of the derived-only run it hands back.
    pub output_size: usize,
}

impl WorkerStats {
    /// Total accounted time of this worker (CPU + simulated waits).
    pub fn total(&self) -> Duration {
        self.reason_time + self.io_time + self.sync_time
    }
}

/// Byte/frame/triple counters for one phase of a distributed run's wire
/// traffic (setup shipping, round exchange, final collection).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WirePhase {
    /// Bytes that crossed the wire (frame headers included).
    pub bytes: u64,
    /// Frames exchanged.
    pub frames: u64,
    /// Triples carried inside those frames.
    pub triples: u64,
}

impl std::ops::AddAssign for WirePhase {
    fn add_assign(&mut self, other: WirePhase) {
        self.bytes += other.bytes;
        self.frames += other.frames;
        self.triples += other.triples;
    }
}

/// One round's slice of the round traffic: what every worker's mesh
/// endpoint wrote in that round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireRound {
    /// Round number (0-based, same numbering as `RoundDone`).
    pub round: u32,
    /// Exchange bytes written in this round, frame envelopes and
    /// end-of-round markers included.
    pub bytes: u64,
    /// Triples sent in this round (each once: one hop, sender to
    /// receiver).
    pub triples: u64,
}

/// Wire-traffic accounting for a whole cluster run, split by phase.
/// Setup, final and control traffic is what crossed the master's
/// connections; round traffic crosses the workers' mesh and is the sum
/// of what their endpoints wrote. Filled by the `owlpar-net` cluster
/// master; `None` on in-process runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireBytes {
    /// Bootstrap shipping: `Setup` frames (partition + rules + routing).
    pub setup: WirePhase,
    /// Round exchange: mesh triple frames and end-of-round markers.
    pub rounds: WirePhase,
    /// Final collection: `FinalChunk`/`Final` frames in (the workers'
    /// derived-only runs).
    pub finals: WirePhase,
    /// Handshake and control traffic (`Hello`, `Welcome`, `Ready`,
    /// `RoundDone`, `Verdict`, `TraceChunk`, rejects).
    pub control_bytes: u64,
    /// Per-round mesh traffic. [`WireBytes::to_json`] sorts by round,
    /// so a producer need not push them in order.
    pub per_round: Vec<WireRound>,
}

impl WireBytes {
    /// Every byte the run put on the wire.
    pub fn total_bytes(&self) -> u64 {
        self.setup.bytes + self.rounds.bytes + self.finals.bytes + self.control_bytes
    }

    /// One-line human summary for CLI output.
    pub fn summary(&self) -> String {
        format!(
            "wire: {} B total ({} setup, {} rounds, {} final, {} control), \
             {} triple(s) moved",
            self.total_bytes(),
            self.setup.bytes,
            self.rounds.bytes,
            self.finals.bytes,
            self.control_bytes,
            self.setup.triples + self.rounds.triples + self.finals.triples,
        )
    }

    /// Flat JSON object. `per_round` entries are emitted **sorted by
    /// round number** regardless of the order the concurrent handler
    /// threads pushed them in.
    pub fn to_json(&self) -> Value {
        let mut per_round = self.per_round.clone();
        per_round.sort_unstable_by_key(|r| r.round);
        let per_round: Vec<Value> = per_round
            .iter()
            .map(|r| {
                obj([
                    ("round", u64::from(r.round).into()),
                    ("bytes", r.bytes.into()),
                    ("triples", r.triples.into()),
                ])
            })
            .collect();
        obj([
            ("setup_bytes", self.setup.bytes.into()),
            ("setup_frames", self.setup.frames.into()),
            ("setup_triples", self.setup.triples.into()),
            ("rounds_bytes", self.rounds.bytes.into()),
            ("rounds_frames", self.rounds.frames.into()),
            ("rounds_triples", self.rounds.triples.into()),
            ("final_bytes", self.finals.bytes.into()),
            ("final_frames", self.finals.frames.into()),
            ("final_triples", self.finals.triples.into()),
            ("control_bytes", self.control_bytes.into()),
            ("total_bytes", self.total_bytes().into()),
            ("per_round", per_round.into()),
        ])
    }
}

/// Reconstruct the synchronous cluster's wall-clock from per-round,
/// per-worker CPU charges: each round lasts as long as its slowest
/// worker; a worker's sync time is the sum of its per-round slacks.
/// Returns (simulated makespan, per-worker sync).
pub fn simulate_rounds(workers: &[WorkerStats]) -> (Duration, Vec<Duration>) {
    let rounds = workers.iter().map(|w| w.round_cpu.len()).max().unwrap_or(0);
    let mut makespan = Duration::ZERO;
    let mut sync = vec![Duration::ZERO; workers.len()];
    for r in 0..rounds {
        let slowest = workers
            .iter()
            .map(|w| w.round_cpu.get(r).copied().unwrap_or_default())
            .max()
            .unwrap_or_default();
        makespan += slowest;
        for (i, w) in workers.iter().enumerate() {
            sync[i] += slowest - w.round_cpu.get(r).copied().unwrap_or_default();
        }
    }
    (makespan, sync)
}

/// Maximum per-phase durations across workers — the Fig. 2 convention
/// ("the figure shows the maximum values over the partitions").
#[derive(Debug, Clone, Default)]
pub struct PhaseBreakdown {
    /// Max reasoning time over workers.
    pub reason: Duration,
    /// Max IO time over workers.
    pub io: Duration,
    /// Max synchronization time over workers.
    pub sync: Duration,
    /// Master-side aggregation time.
    pub aggregation: Duration,
}

impl PhaseBreakdown {
    /// Fold worker stats into the max-per-phase view.
    pub fn from_workers(workers: &[WorkerStats], aggregation: Duration) -> Self {
        PhaseBreakdown {
            reason: workers.iter().map(|w| w.reason_time).max().unwrap_or_default(),
            io: workers.iter().map(|w| w.io_time).max().unwrap_or_default(),
            sync: workers.iter().map(|w| w.sync_time).max().unwrap_or_default(),
            aggregation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_phases() {
        let w = WorkerStats {
            reason_time: Duration::from_millis(10),
            io_time: Duration::from_millis(5),
            sync_time: Duration::from_millis(1),
            ..WorkerStats::default()
        };
        assert_eq!(w.total(), Duration::from_millis(16));
    }

    #[test]
    fn breakdown_takes_maxima() {
        let workers = vec![
            WorkerStats {
                reason_time: Duration::from_millis(10),
                io_time: Duration::from_millis(1),
                ..WorkerStats::default()
            },
            WorkerStats {
                reason_time: Duration::from_millis(3),
                io_time: Duration::from_millis(9),
                ..WorkerStats::default()
            },
        ];
        let b = PhaseBreakdown::from_workers(&workers, Duration::from_millis(2));
        assert_eq!(b.reason, Duration::from_millis(10));
        assert_eq!(b.io, Duration::from_millis(9));
        assert_eq!(b.aggregation, Duration::from_millis(2));
    }

    #[test]
    fn empty_worker_list() {
        let b = PhaseBreakdown::from_workers(&[], Duration::ZERO);
        assert_eq!(b.reason, Duration::ZERO);
        let (makespan, sync) = simulate_rounds(&[]);
        assert_eq!(makespan, Duration::ZERO);
        assert!(sync.is_empty());
    }

    #[test]
    fn simulate_rounds_takes_per_round_maxima() {
        let w = |cpu: &[u64]| WorkerStats {
            round_cpu: cpu.iter().map(|&ms| Duration::from_millis(ms)).collect(),
            ..WorkerStats::default()
        };
        // round 0: max 10; round 1: max 8 → makespan 18
        let workers = vec![w(&[10, 3]), w(&[4, 8])];
        let (makespan, sync) = simulate_rounds(&workers);
        assert_eq!(makespan, Duration::from_millis(18));
        // worker 0 waits 0 + 5; worker 1 waits 6 + 0
        assert_eq!(sync[0], Duration::from_millis(5));
        assert_eq!(sync[1], Duration::from_millis(6));
    }

    #[test]
    fn wire_bytes_json_emits_per_round_entries_in_round_order() {
        // Handler threads push round entries concurrently, so the vector
        // can arrive in any order; the JSON must still be round-sorted.
        let wire = WireBytes {
            per_round: vec![
                WireRound { round: 2, bytes: 30, triples: 3 },
                WireRound { round: 0, bytes: 10, triples: 1 },
                WireRound { round: 1, bytes: 20, triples: 2 },
            ],
            ..WireBytes::default()
        };
        let json = wire.to_json().to_string();
        let expect = "\"per_round\":[{\"bytes\":10,\"round\":0,\"triples\":1},\
                      {\"bytes\":20,\"round\":1,\"triples\":2},\
                      {\"bytes\":30,\"round\":2,\"triples\":3}]"
            .replace(char::is_whitespace, "");
        assert!(
            json.contains(&expect),
            "per_round not emitted in round order: {json}"
        );
        // An empty per_round still emits the (empty) key, keeping the
        // object schema stable for downstream parsers.
        assert!(WireBytes::default()
            .to_json()
            .to_string()
            .contains("\"per_round\":[]"));
    }

    #[test]
    fn simulate_rounds_handles_uneven_round_counts() {
        let w = |cpu: &[u64]| WorkerStats {
            round_cpu: cpu.iter().map(|&ms| Duration::from_millis(ms)).collect(),
            ..WorkerStats::default()
        };
        let workers = vec![w(&[10]), w(&[4, 8])];
        let (makespan, sync) = simulate_rounds(&workers);
        assert_eq!(makespan, Duration::from_millis(18));
        assert_eq!(sync[0], Duration::from_millis(8));
    }
}
