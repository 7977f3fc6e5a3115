//! The per-node loop of Algorithm 3, once.
//!
//! Each worker wraps a serial reasoner over its private partition (a
//! [`WorkerState`]: sorted runs end to end) and runs rounds: close the
//! local partition, route new derivations to the partitions that may
//! need them, exchange, repeat. [`run_rounds`] is that loop — the only
//! one: it owns the statistics, the CPU accounting and the span
//! vocabulary, and is written against [`RoundLink`], the seam that hides
//! what carries the messages and who detects termination:
//!
//! * [`BarrierLink`] — a [`WorkerComm`] endpoint between two crossings
//!   of the shared [`RoundBarrier`]. Termination: a round in which *no*
//!   worker sent anything, detected via a shared cumulative send counter
//!   read between the two crossings, so every worker reaches the same
//!   verdict in the same round.
//! * [`AsyncLink`] — the §VI-B variant over the same endpoint: no
//!   barrier, a worker absorbs whatever has arrived. Termination: every
//!   worker idle ∧ every sent triple processed ([`AsyncControl`]).
//! * the cluster runtime's link (`owlpar-net`) — frames to and from the
//!   master over one TCP connection; the master's `Deliver` is barrier,
//!   verdict and inbox in one.
//!
//! # Fault containment
//!
//! The loop returns `Result` instead of panicking, and a link reports a
//! failure — persistent IO error, barrier timeout — as its error type.
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

use crate::backoff::Backoff;
use crate::barrier::RoundBarrier;
use crate::comm::WorkerComm;
use crate::cputime::CpuTimer;
use crate::error::{CommError, WorkerError};
use crate::state::WorkerState;
use crate::stats::WorkerStats;
use owlpar_datalog::{Reasoner, Rule};
use owlpar_obs::{Metric, Phase, Track, NO_ROUND};
use owlpar_partition::RulePartitions;
use owlpar_rdf::fx::FxHashMap;
use owlpar_rdf::{NodeId, Triple};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How a worker decides where a freshly derived triple must travel.
pub enum Routing {
    /// Data partitioning: a derived triple belongs on the owner of its
    /// subject and the owner of its object (the partition table of
    /// Algorithm 1).
    Data {
        /// The partition table.
        owner: Arc<FxHashMap<NodeId, u32>>,
    },
    /// Rule partitioning: a derived triple travels to every partition
    /// holding a rule whose body might consume it.
    Rule {
        /// The rule-base split of Algorithm 2.
        partitions: Arc<RulePartitions>,
        /// The complete rule-base (for body matching).
        all_rules: Arc<Vec<Rule>>,
    },
    /// Hybrid partitioning (the paper's §VII future work, after Shao et
    /// al.): rules split into groups, data split into shards; worker
    /// `g·d + j` holds rule group `g` over data shard `j`. A derived
    /// triple goes to every interested rule group × both owner shards.
    Hybrid {
        /// Data-ownership table (shard ids `0..d`).
        owner: Arc<FxHashMap<NodeId, u32>>,
        /// Rule grouping (group ids `0..g`).
        groups: Arc<RulePartitions>,
        /// The complete rule-base.
        all_rules: Arc<Vec<Rule>>,
        /// Number of data shards (`d`).
        data_shards: u32,
    },
}

impl Routing {
    /// Destinations of `t` other than `me` (public so out-of-process
    /// worker loops — the `owlpar-net` cluster runtime — route exactly
    /// like the in-process loop).
    pub fn destinations(&self, t: &Triple, me: u32, out: &mut Vec<u32>) {
        out.clear();
        match self {
            Routing::Data { owner } => {
                let a = owner.get(&t.s).copied();
                let b = owner.get(&t.o).copied();
                if let Some(x) = a {
                    if x != me {
                        out.push(x);
                    }
                }
                if let Some(y) = b {
                    if y != me && a != Some(y) {
                        out.push(y);
                    }
                }
            }
            Routing::Rule {
                partitions,
                all_rules,
            } => {
                out.extend(partitions.consumers(all_rules, t, me));
            }
            Routing::Hybrid {
                owner,
                groups,
                all_rules,
                data_shards,
            } => {
                let a = owner.get(&t.s).copied();
                let b = owner.get(&t.o).copied();
                for g in groups.interested_groups(all_rules, t) {
                    for shard in [a, b].into_iter().flatten() {
                        let widx = g * data_shards + shard;
                        if widx != me && !out.contains(&widx) {
                            out.push(widx);
                        }
                    }
                }
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

/// Shared state for distributed termination detection in the
/// asynchronous mode: exit when every worker is idle and every sent
/// triple has been processed.
#[derive(Default)]
pub struct AsyncControl {
    /// Cumulative triples sent (incremented *before* the send).
    pub total_sent: AtomicU64,
    /// Cumulative received triples fully processed.
    pub total_done: AtomicU64,
    /// Workers currently idle (inbox empty, nothing to derive).
    pub idle: AtomicUsize,
    /// Latched once global quiescence is observed (or a worker is lost —
    /// the async mode has no barrier, so the exit flag doubles as its
    /// failure broadcast).
    pub exit: AtomicBool,
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
    /// Triple routing policy.
    pub routing: Routing,
}

/// What differs between the runtimes that run Algorithm 3: how a round's
/// batches leave, how the round is declared over, and how its inbound
/// triples and the stop verdict arrive. Everything else is
/// [`run_rounds`].
pub trait RoundLink {
    /// How this link reports a failed exchange.
    type Error;

    /// Round `round` begins: fire whatever faults are pinned to it.
    fn begin_round(&mut self, round: usize) -> Result<(), Self::Error>;

    /// Send a non-empty `batch` to worker `to`. `Ok(false)`: the peer is
    /// already gone and the batch was dropped — its own error decides
    /// the run, and recovery re-closes from the surviving stores.
    fn send(&mut self, round: usize, to: usize, batch: &[Triple]) -> Result<bool, Self::Error>;

    /// Close the round's send window (`sent` triples left this worker in
    /// it), wait for the verdict and hand over the triples addressed to
    /// this worker. `true` stops the loop: global quiescence, or a lost
    /// worker. The link records its own waiting on `lane`.
    fn finish_round(
        &mut self,
        round: usize,
        sent: u64,
        lane: &mut Track,
    ) -> Result<(Vec<Triple>, bool), Self::Error>;

    /// The `received` triples of the last [`finish_round`] have been
    /// absorbed and their consequences are about to be sent (links that
    /// count in-flight triples need to know).
    ///
    /// [`finish_round`]: RoundLink::finish_round
    fn absorbed(&mut self, _received: usize) {}

    /// `(messages skipped with a report, transient IO failures absorbed
    /// by retrying)` so far.
    fn transport_trouble(&self) -> (usize, usize) {
        (0, 0)
    }
}

/// Run the worker to quiescence over `link`, recording on `lane`.
/// Returns the sorted run of everything this worker gained over the
/// partition it was given (see [`WorkerState::finish`]) and its stats,
/// or the link's error if this worker dropped out of the run.
///
/// `reason_time` and `io_time` are thread CPU time. Each round's charge
/// (`round_cpu`) is closed when its sends are out, so the master can
/// replay the synchronous schedule; what a round receives is charged to
/// the next one.
pub fn run_rounds<L: RoundLink>(
    ctx: WorkerCtx,
    link: &mut L,
    lane: &mut Track,
) -> Result<(Vec<Triple>, WorkerStats), L::Error> {
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
        link.begin_round(round)?;

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
            if !batch.is_empty() && link.send(round, to, batch)? {
                sent_now += batch.len() as u64;
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
        let (received, stop) = link.finish_round(round, sent_now, lane)?;
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
        let n_received = received.len();
        derived = state.absorb(received);
        link.absorbed(n_received);
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

    (stats.skipped, stats.io_retries) = link.transport_trouble();
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

/// Send on an in-process endpoint; a hung-up peer is `Ok(false)`.
fn send_on(comm: &mut WorkerComm, to: usize, batch: &[Triple]) -> Result<bool, WorkerError> {
    match comm.send(to, batch) {
        Ok(()) => Ok(true),
        Err(CommError::Disconnected { .. }) => Ok(false),
        Err(source) => Err(comm_failed(comm.me())(source)),
    }
}

/// Barrier-synchronized rounds over a [`WorkerComm`]: barrier A closes
/// the send window, the collect drains the round's messages, the verdict
/// is read inside the `[A, B]` window, barrier B releases the round.
pub(crate) struct BarrierLink {
    /// Communication endpoint.
    pub comm: WorkerComm,
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

impl BarrierLink {
    /// Cross the barrier or fail with a structured timeout.
    fn cross(&self, round: usize, lane: &mut Track) -> Result<(), WorkerError> {
        let span = lane.begin(Phase::BarrierWait, span_round(round));
        let crossed = self.barrier.wait(self.round_timeout);
        lane.end(span);
        crossed.map_err(|t| WorkerError::BarrierTimeout {
            worker: self.comm.me(),
            round,
            waited: t.waited,
        })
    }
}

impl RoundLink for BarrierLink {
    type Error = WorkerError;

    fn begin_round(&mut self, round: usize) -> Result<(), WorkerError> {
        self.progress.store(round, Ordering::Relaxed);
        self.comm.fire_round_faults(round);
        Ok(())
    }

    fn send(&mut self, _round: usize, to: usize, batch: &[Triple]) -> Result<bool, WorkerError> {
        send_on(&mut self.comm, to, batch)
    }

    fn finish_round(
        &mut self,
        round: usize,
        sent: u64,
        lane: &mut Track,
    ) -> Result<(Vec<Triple>, bool), WorkerError> {
        self.total_sent.fetch_add(sent, Ordering::SeqCst);
        self.cross(round, lane)?;
        let span = lane.begin(Phase::Collect, span_round(round));
        let received = self.comm.collect().map_err(comm_failed(self.comm.me()))?;
        lane.end(span);
        let now_total = self.total_sent.load(Ordering::SeqCst);
        self.cross(round, lane)?;
        // A lost worker drains every survivor in the same round (see the
        // module docs); otherwise stop when nobody moved a triple.
        let stop = self.flags.failed() || now_total == self.last_total;
        self.last_total = now_total;
        Ok((received, stop))
    }

    fn transport_trouble(&self) -> (usize, usize) {
        (self.comm.skipped().len(), self.comm.io_retries as usize)
    }
}

/// The asynchronous variant of Algorithm 3 proposed in §VI-B: no round
/// barrier — a worker consumes whatever has arrived and keeps deriving;
/// one burst is one "round". Requires the channel transport.
///
/// With no barrier to defect from, a lost worker is broadcast through
/// [`AsyncControl::exit`] instead (by the master, on its behalf), so no
/// survivor waits forever for a quiescence that can no longer be
/// reached.
pub(crate) struct AsyncLink {
    /// Communication endpoint.
    pub comm: WorkerComm,
    /// Total number of workers.
    pub k: usize,
    /// The run's idle / in-flight counters.
    pub control: Arc<AsyncControl>,
    /// Last burst this worker entered (see [`BarrierLink::progress`]).
    pub progress: Arc<AtomicUsize>,
}

impl AsyncLink {
    fn try_collect(&mut self) -> Result<Vec<Triple>, WorkerError> {
        self.comm.try_collect().map_err(comm_failed(self.comm.me()))
    }
}

impl RoundLink for AsyncLink {
    type Error = WorkerError;

    fn begin_round(&mut self, round: usize) -> Result<(), WorkerError> {
        self.progress.store(round, Ordering::Relaxed);
        self.comm.fire_round_faults(round);
        Ok(())
    }

    fn send(&mut self, _round: usize, to: usize, batch: &[Triple]) -> Result<bool, WorkerError> {
        let n = batch.len() as u64;
        self.control.total_sent.fetch_add(n, Ordering::SeqCst);
        let delivered = send_on(&mut self.comm, to, batch)?;
        if !delivered {
            // dead peer; account its share as done so the in-flight
            // counter can still reach quiescence
            self.control.total_done.fetch_add(n, Ordering::SeqCst);
        }
        Ok(delivered)
    }

    fn finish_round(
        &mut self,
        round: usize,
        _sent: u64,
        lane: &mut Track,
    ) -> Result<(Vec<Triple>, bool), WorkerError> {
        use Ordering::SeqCst;
        // grab whatever has arrived; if nothing, go idle and watch for
        // quiescence
        let received = self.try_collect()?;
        if !received.is_empty() {
            return Ok((received, false));
        }
        let control = Arc::clone(&self.control);
        let span = lane.begin(Phase::BarrierWait, span_round(round));
        control.idle.fetch_add(1, SeqCst);
        // Poll asleep, not spinning: the wait is charged as CPU time to
        // nobody, and a host with fewer cores than workers keeps them for
        // the workers that still derive.
        let mut backoff = Backoff::new(Duration::from_micros(10), Duration::from_micros(500));
        let outcome = loop {
            if control.exit.load(SeqCst) {
                break Ok((Vec::new(), true));
            }
            match self.try_collect() {
                Ok(received) if received.is_empty() => {}
                Ok(received) => {
                    control.idle.fetch_sub(1, SeqCst);
                    break Ok((received, false));
                }
                Err(e) => break Err(e),
            }
            // all idle and nothing in flight ⇒ latch the exit flag
            if control.idle.load(SeqCst) == self.k
                && control.total_sent.load(SeqCst) == control.total_done.load(SeqCst)
            {
                control.exit.store(true, SeqCst);
                break Ok((Vec::new(), true));
            }
            backoff.sleep();
        };
        lane.end(span);
        outcome
    }

    fn absorbed(&mut self, received: usize) {
        self.control
            .total_done
            .fetch_add(received as u64, Ordering::SeqCst);
    }

    fn transport_trouble(&self) -> (usize, usize) {
        (self.comm.skipped().len(), self.comm.io_retries as usize)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use owlpar_datalog::ast::build::*;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    #[test]
    fn data_routing_dedupes_same_owner() {
        let mut owner = FxHashMap::default();
        owner.insert(NodeId(1), 2u32);
        owner.insert(NodeId(2), 2u32);
        let r = Routing::Data {
            owner: Arc::new(owner),
        };
        let mut out = Vec::new();
        r.destinations(&t(1, 9, 2), 0, &mut out);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn data_routing_skips_self() {
        let mut owner = FxHashMap::default();
        owner.insert(NodeId(1), 0u32);
        owner.insert(NodeId(2), 1u32);
        let r = Routing::Data {
            owner: Arc::new(owner),
        };
        let mut out = Vec::new();
        r.destinations(&t(1, 9, 2), 0, &mut out);
        assert_eq!(out, vec![1]);
        r.destinations(&t(1, 9, 2), 1, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn data_routing_ignores_unowned_endpoints() {
        let mut owner = FxHashMap::default();
        owner.insert(NodeId(1), 1u32);
        let r = Routing::Data {
            owner: Arc::new(owner),
        };
        let mut out = Vec::new();
        // object 999 (a class) has no owner
        r.destinations(&t(1, 9, 999), 0, &mut out);
        assert_eq!(out, vec![1]);
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
        let all = Arc::new(rules);
        let routing = Routing::Rule {
            partitions: Arc::new(parts.clone()),
            all_rules: Arc::clone(&all),
        };
        let mut out = Vec::new();
        // a predicate-20 triple interests the partition holding rule q2r
        let q_home = parts.assignment[1];
        routing.destinations(&t(5, 20, 6), 1 - q_home, &mut out);
        assert_eq!(out, vec![q_home]);
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
