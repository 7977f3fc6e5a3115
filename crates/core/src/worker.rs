//! The per-node loop of Algorithm 3, once.
//!
//! Each worker wraps a serial reasoner over its private partition (a
//! [`WorkerState`]: sorted runs end to end) and runs rounds: close the
//! local partition, route new derivations to the partitions that may
//! need them, exchange, repeat. [`run_rounds`] is that loop — the only
//! one: it owns the statistics, the CPU accounting and the span
//! vocabulary, and runs over two seams. The triples travel peer to peer
//! through a [`WorkerComm`] endpoint (channels, shared files, or any
//! [`Transport`](crate::comm::Transport) behind [`WorkerComm::custom`],
//! such as `owlpar-net`'s TCP mesh); a [`RoundVote`] closes each round
//! and decides whether the run goes on. Termination is the paper's: a
//! round in which *no* worker sent anything, so every worker reaches the
//! same verdict in the same round. Two votes: [`BarrierVote`] reads a
//! shared cumulative send counter between two crossings of the shared
//! [`RoundBarrier`] (in-process); the cluster runtime's vote
//! (`owlpar-net`) reports the round's send count to the master after the
//! mesh collect and waits for its verdict.
//!
//! # Fault containment
//!
//! The loop returns `Result` instead of panicking: a failure — a
//! persistent IO error, a barrier timeout — comes back as the vote's
//! error type.
//! Leaving the run is the in-process master's job (`master::run_parallel`
//! wraps every worker): whatever the outcome it defects from the
//! [`RoundBarrier`] on the worker's behalf, and on an error or a
//! contained panic it first marks the shared [`RunFlags`] as failed, so
//! by the time the barrier membership shrinks the failure is already
//! visible, and survivors drain with their (monotonically correct,
//! partial) stores intact for the master's recovery pass. Sends to an
//! already-dead peer are dropped — the run's outcome is decided by the
//! dead worker's own structured error, not by a cascade.
//!
//! The failure flag is racy by nature: it can be raised between a
//! barrier's release and a survivor's flag check, so two survivors may
//! observe it one round apart (one stops now, the other only after
//! another barrier crossing). The liveness rule that makes this safe is
//! that **every** exit from the round loop — failure drain, normal
//! quiescence, or structured error — ends in that defection, so a
//! worker that leaves can never strand a slower peer mid-round; the
//! peer's next barrier releases against the shrunken membership and its
//! own flag check ends its loop.

use crate::barrier::RoundBarrier;
use crate::comm::WorkerComm;
use crate::cputime::CpuTimer;
use crate::error::{CommError, WorkerError};
use crate::state::WorkerState;
use crate::stats::WorkerStats;
use owlpar_datalog::analysis::{ConsumerIndex, JoinMask};
use owlpar_datalog::{Atom, Reasoner};
use owlpar_obs::{Metric, Phase, Track, NO_ROUND};
use owlpar_partition::data::Destinations;
use owlpar_rdf::fx::FxHashMap;
use owlpar_rdf::{NodeId, Triple};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How a worker decides where a freshly derived triple must travel: one
/// table per run, shared by every worker (and priced by the plan
/// analyzer, `crate::plan`).
pub enum Routing {
    /// Data partitioning: a derived triple travels to the owners of its
    /// join positions (the partition table of Algorithm 1 read through
    /// the rule-base's [`JoinMask`]); one with no join position stays
    /// where it was derived until the final merge.
    Data {
        /// The partition table.
        owner: FxHashMap<NodeId, u32>,
        /// The join positions of the effective rule-base.
        mask: JoinMask,
    },
    /// Rule partitioning: a derived triple travels to every partition
    /// holding a rule whose body might consume it.
    Rule {
        /// The rule-base split of Algorithm 2, indexed by what its bodies
        /// can match.
        consumers: ConsumerIndex,
    },
}

impl Routing {
    /// Destinations of `t` other than `me` (public so out-of-process
    /// worker loops — the `owlpar-net` cluster runtime — route exactly
    /// like the in-process loop).
    pub fn destinations(&self, t: &Triple, me: u32, out: &mut Vec<u32>) {
        match self {
            Routing::Data { owner, mask } => {
                out.clear();
                let to = Destinations::joining(mask, t, |n| owner.get(&n).copied());
                out.extend(to.iter().filter(|&d| d != me));
            }
            Routing::Rule { consumers } => {
                consumers.consumers(&Atom::ground(t), out);
                out.retain(|&d| d != me);
            }
        }
    }
}

/// Run-wide failure flag shared by all workers and the master.
///
/// Set on a failing worker's behalf *before* its defection from the
/// barrier, so the barrier's release order guarantees every survivor
/// observes it at the same round's exit check.
#[derive(Default)]
pub struct RunFlags {
    failed: AtomicBool,
}

impl RunFlags {
    /// Fresh, un-failed flags.
    pub fn new() -> Self {
        RunFlags::default()
    }

    /// Mark the run as having lost a worker.
    pub fn fail(&self) {
        self.failed.store(true, Ordering::SeqCst);
    }

    /// Has any worker been lost?
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }
}

/// What a worker is given: its identity, its partition and how to route.
pub struct WorkerCtx {
    /// Worker index (== partition id).
    pub id: usize,
    /// Total number of workers.
    pub k: usize,
    /// Schema triples, an SPO-sorted run shared by every worker.
    pub schema: Arc<Vec<Triple>>,
    /// This partition's base tuples, an SPO-sorted run.
    pub base: Vec<Triple>,
    /// The wrapped serial reasoner (complete rule-base for data
    /// partitioning; this partition's subset for rule partitioning).
    pub reasoner: Reasoner,
    /// The run's triple routing, shared by every worker.
    pub routing: Arc<Routing>,
}

/// Run the worker to quiescence, exchanging over `comm` and closing each
/// round with `vote`, recording on `lane`. Returns the sorted run of
/// everything this worker gained over the partition it was given (see
/// [`WorkerState::finish`]) and its stats, or the vote's error if this
/// worker dropped out of the run.
///
/// `reason_time` and `io_time` are thread CPU time. Each round's charge
/// (`round_cpu`) is closed when its sends are out, so the master can
/// replay the synchronous schedule; what a round receives is charged to
/// the next one.
pub fn run_rounds<V: RoundVote>(
    ctx: WorkerCtx,
    comm: &mut WorkerComm,
    vote: &mut V,
    lane: &mut Track,
) -> Result<(Vec<Triple>, WorkerStats), V::Error> {
    let WorkerCtx {
        id,
        k,
        schema,
        base,
        reasoner,
        routing,
    } = ctx;
    let mut stats = WorkerStats {
        id,
        ..WorkerStats::default()
    };
    let me = id as u32;

    // Freeze the shipped partition and close it, charging both to
    // reasoning: a dedicated processor would spend them before its first
    // exchange.
    let t = CpuTimer::start();
    let span = lane.begin(Phase::Freeze, NO_ROUND);
    let mut state = WorkerState::load(&schema, &base, reasoner);
    drop((schema, base));
    lane.end(span);
    let span = lane.begin(Phase::Join, NO_ROUND);
    let mut derived = state.close();
    lane.end(span);
    let mut round_cpu = t.elapsed();
    stats.reason_time += round_cpu;
    stats.derived += derived.len();

    let mut dests: Vec<u32> = Vec::with_capacity(2);
    for round in 0.. {
        stats.rounds += 1;
        let trace_round = span_round(round);
        let round_span = lane.begin(Phase::Round, trace_round);
        vote.begin_round(round, comm)?;

        // route + send
        let span = lane.begin(Phase::Exchange, trace_round);
        let t = CpuTimer::start();
        let mut outbox: Vec<Vec<Triple>> = vec![Vec::new(); k];
        for tr in &derived {
            routing.destinations(tr, me, &mut dests);
            for &d in &dests {
                outbox[d as usize].push(*tr);
            }
        }
        let mut sent_now = 0u64;
        for (to, batch) in outbox.iter().enumerate() {
            match comm.send(to, batch) {
                Ok(()) => sent_now += batch.len() as u64,
                // The peer is already gone and the batch is dropped: its
                // own error decides the run, and recovery re-closes from
                // the surviving stores.
                Err(CommError::Disconnected { .. }) => {}
                Err(source) => return Err(comm_failed(id)(source).into()),
            }
        }
        stats.sent += sent_now as usize;
        let dt = t.elapsed();
        lane.end(span);
        lane.count(Phase::Exchange, trace_round, Metric::Sent, sent_now);
        stats.io_time += dt;
        stats.round_cpu.push(round_cpu + dt);

        // the send window closes; what arrives is the next round's work
        let t = CpuTimer::start();
        let (received, stop) = vote.close_round(round, sent_now, comm, lane)?;
        stats.received += received.len();
        lane.count(
            Phase::Collect,
            trace_round,
            Metric::Received,
            received.len() as u64,
        );
        round_cpu = t.elapsed();
        stats.io_time += round_cpu;
        if stop {
            lane.end(round_span);
            break;
        }

        // absorb + incremental closure
        let span = lane.begin(Phase::Join, trace_round);
        let t = CpuTimer::start();
        derived = state.absorb(received);
        let dt = t.elapsed();
        lane.end(span);
        stats.reason_time += dt;
        round_cpu += dt;
        stats.derived += derived.len();
        lane.end(round_span);
    }
    if round_cpu > Duration::ZERO {
        stats.round_cpu.push(round_cpu); // the last round's receive
    }

    stats.skipped = comm.skipped().len();
    stats.io_retries = comm.io_retries as usize;
    let (run, local_len) = state.finish();
    stats.output_size = local_len;
    Ok((run, stats))
}

/// The round tag of a span (rounds past `u32` go untagged).
fn span_round(round: usize) -> u32 {
    u32::try_from(round).unwrap_or(NO_ROUND)
}

/// `worker`'s endpoint failed for good.
fn comm_failed(worker: usize) -> impl FnOnce(CommError) -> WorkerError {
    move |source| WorkerError::Comm { worker, source }
}

/// Drain round `round`'s inbound triples from `comm` under a `Collect`
/// span — the one collect every [`RoundVote`] performs.
pub fn collect_round(
    comm: &mut WorkerComm,
    round: usize,
    lane: &mut Track,
) -> Result<Vec<Triple>, WorkerError> {
    let span = lane.begin(Phase::Collect, span_round(round));
    let received = comm.collect().map_err(comm_failed(comm.me()));
    lane.end(span);
    received
}

/// How [`run_rounds`] decides that a round is over and whether the run
/// is: the termination state behind the peer-to-peer exchange.
pub trait RoundVote {
    /// How this vote reports a failure (a failed collect arrives as a
    /// [`WorkerError`]).
    type Error: From<WorkerError>;

    /// Round `round` begins: fire whatever faults are pinned to it.
    fn begin_round(&mut self, round: usize, comm: &WorkerComm) -> Result<(), Self::Error>;

    /// Close round `round` (`sent` triples left this worker in it):
    /// collect its inbound triples with [`collect_round`] and reach the
    /// verdict — `true` stops the loop.
    fn close_round(
        &mut self,
        round: usize,
        sent: u64,
        comm: &mut WorkerComm,
        lane: &mut Track,
    ) -> Result<(Vec<Triple>, bool), Self::Error>;
}

/// The in-process vote: barrier A closes the send window, the collect
/// drains the round's messages, the verdict is read inside the `[A, B]`
/// window, barrier B releases the round.
pub(crate) struct BarrierVote {
    /// Round barrier shared by all workers (timeout- and
    /// defection-aware).
    pub barrier: Arc<RoundBarrier>,
    /// Cumulative count of triples sent by anyone (termination detector).
    pub total_sent: Arc<AtomicU64>,
    /// `total_sent` as of the previous verdict.
    pub last_total: u64,
    /// Run-wide failure flag.
    pub flags: Arc<RunFlags>,
    /// Patience at each barrier crossing.
    pub round_timeout: Duration,
    /// Last round this worker entered — read by the master's panic
    /// containment to report *where* a worker died.
    pub progress: Arc<AtomicUsize>,
}

impl BarrierVote {
    /// Cross the barrier or fail with a structured timeout.
    fn cross(&self, worker: usize, round: usize, lane: &mut Track) -> Result<(), WorkerError> {
        let span = lane.begin(Phase::BarrierWait, span_round(round));
        let crossed = self.barrier.wait(self.round_timeout);
        lane.end(span);
        crossed.map_err(|t| WorkerError::BarrierTimeout {
            worker,
            round,
            waited: t.waited,
        })
    }
}

impl RoundVote for BarrierVote {
    type Error = WorkerError;

    fn begin_round(&mut self, round: usize, comm: &WorkerComm) -> Result<(), WorkerError> {
        self.progress.store(round, Ordering::Relaxed);
        comm.fire_round_faults(round);
        Ok(())
    }

    fn close_round(
        &mut self,
        round: usize,
        sent: u64,
        comm: &mut WorkerComm,
        lane: &mut Track,
    ) -> Result<(Vec<Triple>, bool), WorkerError> {
        self.total_sent.fetch_add(sent, Ordering::SeqCst);
        self.cross(comm.me(), round, lane)?;
        let received = collect_round(comm, round, lane)?;
        let now_total = self.total_sent.load(Ordering::SeqCst);
        self.cross(comm.me(), round, lane)?;
        // A lost worker drains every survivor in the same round (see the
        // module docs); otherwise stop when nobody moved a triple.
        let stop = self.flags.failed() || now_total == self.last_total;
        self.last_total = now_total;
        Ok((received, stop))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use owlpar_datalog::ast::build::*;
    use owlpar_datalog::Rule;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    fn data_routing(owners: &[(u32, u32)], mask: JoinMask) -> Routing {
        Routing::Data {
            owner: owners.iter().map(|&(n, w)| (NodeId(n), w)).collect(),
            mask,
        }
    }

    #[test]
    fn data_routing_dedupes_same_owner() {
        let r = data_routing(&[(1, 2), (2, 2)], JoinMask::all());
        let mut out = Vec::new();
        r.destinations(&t(1, 9, 2), 0, &mut out);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn data_routing_skips_self() {
        let r = data_routing(&[(1, 0), (2, 1)], JoinMask::all());
        let mut out = Vec::new();
        r.destinations(&t(1, 9, 2), 0, &mut out);
        assert_eq!(out, vec![1]);
        r.destinations(&t(1, 9, 2), 1, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn data_routing_ignores_unowned_endpoints() {
        let r = data_routing(&[(1, 1)], JoinMask::all());
        let mut out = Vec::new();
        // object 999 (a class) has no owner
        r.destinations(&t(1, 9, 999), 0, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn data_routing_sends_a_triple_no_rule_joins_nowhere() {
        // predicate 9 is transitive, predicate 8 joined nowhere
        let trans = Rule::new(
            "trans",
            atom(v(0), c(NodeId(9)), v(2)),
            vec![
                atom(v(0), c(NodeId(9)), v(1)),
                atom(v(1), c(NodeId(9)), v(2)),
            ],
        )
        .unwrap();
        let r = data_routing(&[(1, 1), (2, 2)], JoinMask::of(&[trans]));
        let mut out = vec![7];
        r.destinations(&t(1, 8, 2), 0, &mut out);
        assert!(out.is_empty(), "{out:?}");
        r.destinations(&t(1, 9, 2), 0, &mut out);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn rule_routing_matches_consumer_partitions() {
        use owlpar_partition::multilevel::PartitionOptions;
        let rules = vec![
            Rule::new(
                "p2q",
                atom(v(0), c(NodeId(20)), v(1)),
                vec![atom(v(0), c(NodeId(10)), v(1))],
            )
            .unwrap(),
            Rule::new(
                "q2r",
                atom(v(0), c(NodeId(30)), v(1)),
                vec![atom(v(0), c(NodeId(20)), v(1))],
            )
            .unwrap(),
        ];
        let parts =
            owlpar_partition::partition_rules(&rules, 2, None, &PartitionOptions::default());
        let routing = Routing::Rule {
            consumers: ConsumerIndex::of(&rules, &parts.assignment, parts.k),
        };
        let mut out = Vec::new();
        // a predicate-20 triple interests the partition holding rule q2r
        let q_home = parts.assignment[1];
        routing.destinations(&t(5, 20, 6), 1 - q_home, &mut out);
        assert_eq!(out, vec![q_home]);
        // ... and nobody else once it is already there
        routing.destinations(&t(5, 20, 6), q_home, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn run_flags_latch() {
        let f = RunFlags::new();
        assert!(!f.failed());
        f.fail();
        assert!(f.failed());
        f.fail();
        assert!(f.failed());
    }
}
