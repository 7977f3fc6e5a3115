//! The per-node loop of Algorithm 3.
//!
//! Each worker wraps a serial reasoner over its private partition (a
//! [`WorkerState`]: sorted runs end to end) and runs barrier-synchronized
//! rounds: close the local partition, route new derivations to the
//! partitions that may need them, exchange, repeat.
//! Termination: a round in which *no* worker sent anything (detected via
//! a shared cumulative send counter read between the two round barriers,
//! so every worker reaches the same verdict in the same round).
//!
//! # Fault containment
//!
//! The loop returns `Result` instead of panicking. A worker that fails —
//! persistent IO error, barrier timeout, contained panic — marks the
//! shared [`RunFlags`] as failed **before** defecting from the
//! [`RoundBarrier`], so by the time the barrier membership shrinks the
//! failure is already visible, and survivors drain with their
//! (monotonically correct, partial) stores intact for the master's
//! recovery pass. Sends to an already-dead peer come back `Disconnected`
//! and are skipped — the run's outcome is decided by the dead worker's
//! own structured error, not by a cascade.
//!
//! The failure flag is racy by nature: it can be raised between a
//! barrier's release and a survivor's flag check, so two survivors may
//! observe it one round apart (one breaks now, the other only after
//! another barrier crossing). The liveness rule that makes this safe is
//! that **every** exit from the round loop — failure drain, normal
//! quiescence, or structured error — defects from the barrier, so a
//! worker that leaves can never strand a slower peer mid-round; the
//! peer's next barrier releases against the shrunken membership and its
//! own flag check ends its loop.

use crate::barrier::RoundBarrier;
use crate::comm::WorkerComm;
use crate::cputime::CpuTimer;
use crate::error::{CommError, WorkerError};
use crate::state::WorkerState;
use crate::stats::WorkerStats;
use owlpar_datalog::{Reasoner, Rule};
use owlpar_obs::{Metric, Phase};
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
/// Set by a failing worker *before* it defects from the barrier, so the
/// barrier's release order guarantees every survivor observes it at the
/// same round's exit check.
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
pub struct AsyncControl {
    /// Cumulative triples sent (incremented *before* the send).
    pub total_sent: AtomicU64,
    /// Cumulative received triples fully processed.
    pub total_done: AtomicU64,
    /// Workers currently idle (inbox empty, nothing to derive).
    pub idle: std::sync::atomic::AtomicUsize,
    /// Latched once global quiescence is observed (or a worker is lost —
    /// the async mode has no barrier, so the exit flag doubles as its
    /// failure broadcast).
    pub exit: std::sync::atomic::AtomicBool,
}

impl Default for AsyncControl {
    fn default() -> Self {
        AsyncControl {
            total_sent: AtomicU64::new(0),
            total_done: AtomicU64::new(0),
            idle: std::sync::atomic::AtomicUsize::new(0),
            exit: std::sync::atomic::AtomicBool::new(false),
        }
    }
}

/// Everything a worker thread needs.
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
    /// Communication endpoint.
    pub comm: WorkerComm,
    /// Round barrier shared by all workers (timeout- and
    /// defection-aware).
    pub barrier: Arc<RoundBarrier>,
    /// Cumulative count of triples sent by anyone (termination detector).
    pub total_sent: Arc<AtomicU64>,
    /// Run-wide failure flag.
    pub flags: Arc<RunFlags>,
    /// Patience at each barrier crossing.
    pub round_timeout: Duration,
    /// Last round this worker entered — read by the master's panic
    /// containment to report *where* a worker died.
    pub progress: Arc<AtomicUsize>,
}

/// Record the failure, leave the barrier, and hand back the error.
/// The flag **must** be set before the defection — see the module docs.
fn abort(flags: &RunFlags, barrier: &RoundBarrier, err: WorkerError) -> WorkerError {
    flags.fail();
    barrier.defect();
    err
}

/// Cross the barrier or fail with a structured timeout.
fn cross_barrier(
    worker: usize,
    flags: &RunFlags,
    barrier: &RoundBarrier,
    patience: Duration,
    round: usize,
) -> Result<(), WorkerError> {
    match barrier.wait(patience) {
        Ok(()) => Ok(()),
        Err(t) => Err(abort(
            flags,
            barrier,
            WorkerError::BarrierTimeout {
                worker,
                round,
                waited: t.waited,
            },
        )),
    }
}

/// Freeze the shipped partition and close it (round 0), charging both to
/// reasoning: a dedicated processor would spend them before its first
/// exchange.
fn load_and_close(
    schema: &[Triple],
    base: Vec<Triple>,
    reasoner: Reasoner,
    lane: &mut owlpar_obs::Track,
    stats: &mut WorkerStats,
) -> (WorkerState, Vec<Triple>, Duration) {
    let t = CpuTimer::start();
    let span = lane.begin(Phase::Freeze, owlpar_obs::NO_ROUND);
    let mut state = WorkerState::load(schema, &base, reasoner);
    lane.end(span);
    // Round 0 closes the base tuples; later rounds close received deltas.
    let span = lane.begin(Phase::Join, owlpar_obs::NO_ROUND);
    let derived = state.close();
    lane.end(span);
    let dt = t.elapsed();
    stats.reason_time += dt;
    stats.derived += derived.len();
    (state, derived, dt)
}

/// Run the worker to quiescence. Returns the sorted run of everything
/// this worker gained over the partition it was given (see
/// [`WorkerState::finish`]) and its stats, or a structured error if this
/// worker dropped out of the run.
pub fn run_worker(mut ctx: WorkerCtx) -> Result<(Vec<Triple>, WorkerStats), WorkerError> {
    let mut stats = WorkerStats {
        id: ctx.id,
        ..WorkerStats::default()
    };
    let me = ctx.id as u32;
    // Ambient tracing lane for this worker (one branch per span when the
    // recorder is disabled; flushed on drop, including error exits).
    let rec = owlpar_obs::global();
    let mut lane = rec.track(&format!("worker {}", ctx.id));
    // CPU charged to the round in progress (reason + io); pushed at each
    // barrier so the master can replay the synchronous schedule.
    let (mut state, mut derived, mut round_cpu) =
        load_and_close(&ctx.schema, ctx.base, ctx.reasoner, &mut lane, &mut stats);

    let mut last_total = 0u64;
    let mut dests: Vec<u32> = Vec::with_capacity(2);
    loop {
        stats.rounds += 1;
        let round = ctx.comm.round();
        ctx.progress.store(round, Ordering::Relaxed);
        let trace_round = u32::try_from(round).unwrap_or(owlpar_obs::NO_ROUND);
        let round_span = lane.begin(Phase::Round, trace_round);

        // injected faults pinned to the start of this round
        if ctx.comm.panic_scheduled(round) {
            ctx.comm.fire_scheduled_panic(round); // contained by the master
        }
        if let Some(d) = ctx.comm.scheduled_delay(round) {
            std::thread::sleep(d);
        }

        // route + send
        let span = lane.begin(Phase::Exchange, trace_round);
        let t = CpuTimer::start();
        let mut outbox: Vec<Vec<Triple>> = vec![Vec::new(); ctx.k];
        for tr in &derived {
            ctx.routing.destinations(tr, me, &mut dests);
            for &d in &dests {
                outbox[d as usize].push(*tr);
            }
        }
        let mut sent_now = 0u64;
        for (to, batch) in outbox.iter().enumerate() {
            match ctx.comm.send(to, batch) {
                Ok(()) => sent_now += batch.len() as u64,
                // A hung-up peer is already dead; its own structured
                // error decides the run. Dropping the message is safe:
                // recovery re-closes from the surviving stores.
                Err(CommError::Disconnected { .. }) => {}
                Err(source) => {
                    return Err(abort(
                        &ctx.flags,
                        &ctx.barrier,
                        WorkerError::Comm {
                            worker: ctx.id,
                            source,
                        },
                    ));
                }
            }
        }
        stats.sent += sent_now as usize;
        ctx.total_sent.fetch_add(sent_now, Ordering::SeqCst);
        let dt = t.elapsed();
        lane.end(span);
        lane.count(Phase::Exchange, trace_round, Metric::Sent, sent_now);
        stats.io_time += dt;
        round_cpu += dt;

        // barrier A closes the round's send window — and the round's CPU
        // account (sync time is reconstructed by the master afterwards)
        stats.round_cpu.push(round_cpu);
        round_cpu = Duration::ZERO;
        let span = lane.begin(Phase::BarrierWait, trace_round);
        cross_barrier(ctx.id, &ctx.flags, &ctx.barrier, ctx.round_timeout, round)?;
        lane.end(span);

        // receive (charged to the next round)
        let span = lane.begin(Phase::Collect, trace_round);
        let t = CpuTimer::start();
        let received = match ctx.comm.collect() {
            Ok(r) => r,
            Err(source) => {
                return Err(abort(
                    &ctx.flags,
                    &ctx.barrier,
                    WorkerError::Comm {
                        worker: ctx.id,
                        source,
                    },
                ));
            }
        };
        stats.received += received.len();
        let dt = t.elapsed();
        lane.end(span);
        stats.io_time += dt;
        round_cpu += dt;

        // read the verdict inside the [A, B] window, then barrier B
        let now_total = ctx.total_sent.load(Ordering::SeqCst);
        let span = lane.begin(Phase::BarrierWait, trace_round);
        cross_barrier(ctx.id, &ctx.flags, &ctx.barrier, ctx.round_timeout, round)?;
        lane.end(span);
        if ctx.flags.failed() {
            lane.end(round_span);
            break; // a worker was lost: drain cleanly, in the same round
                   // as every other survivor (see module docs)
        }
        if now_total == last_total {
            lane.end(round_span);
            break; // nobody moved a triple this round: global quiescence
        }
        last_total = now_total;

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
    // Leaving the run — on drain *or* quiescence — must shrink the
    // barrier membership: a peer that raced past our flag check may
    // already be waiting on the next barrier, and without this defection
    // it would stall there until its round timeout (see module docs).
    ctx.barrier.defect();
    if round_cpu > Duration::ZERO {
        stats.round_cpu.push(round_cpu); // trailing collect work
    }

    stats.skipped = ctx.comm.skipped().len();
    stats.io_retries = ctx.comm.io_retries as usize;
    let (run, local_len) = state.finish();
    stats.output_size = local_len;
    Ok((run, stats))
}

/// The asynchronous variant of Algorithm 3 proposed in §VI-B: no round
/// barrier — a worker consumes whatever has arrived and keeps deriving.
/// Termination: every worker idle ∧ every sent triple processed
/// (`AsyncControl`). Requires the channel transport.
///
/// With no barrier to defect from, a failing worker broadcasts through
/// `AsyncControl::exit` instead, so no survivor spins forever waiting
/// for a quiescence that can no longer be reached.
pub fn run_worker_async(
    mut ctx: WorkerCtx,
    control: Arc<AsyncControl>,
) -> Result<(Vec<Triple>, WorkerStats), WorkerError> {
    use std::sync::atomic::Ordering::SeqCst;
    let mut stats = WorkerStats {
        id: ctx.id,
        ..WorkerStats::default()
    };
    let me = ctx.id as u32;
    let mut lane = owlpar_obs::global().track(&format!("worker {}", ctx.id));
    let (mut state, mut derived, mut burst_cpu) =
        load_and_close(&ctx.schema, ctx.base, ctx.reasoner, &mut lane, &mut stats);

    let mut dests: Vec<u32> = Vec::with_capacity(2);
    'outer: loop {
        stats.rounds += 1; // one burst = one "round" for accounting
        let burst = stats.rounds - 1;
        ctx.progress.store(burst, Ordering::Relaxed);
        if ctx.comm.panic_scheduled(burst) {
            ctx.comm.fire_scheduled_panic(burst); // contained by the master
        }
        if let Some(d) = ctx.comm.scheduled_delay(burst) {
            std::thread::sleep(d);
        }

        // route + send whatever the last burst derived
        let t = CpuTimer::start();
        let mut outbox: Vec<Vec<Triple>> = vec![Vec::new(); ctx.k];
        for tr in &derived {
            ctx.routing.destinations(tr, me, &mut dests);
            for &d in &dests {
                outbox[d as usize].push(*tr);
            }
        }
        let sent_now: u64 = outbox.iter().map(|b| b.len() as u64).sum();
        control.total_sent.fetch_add(sent_now, SeqCst);
        for (to, batch) in outbox.iter().enumerate() {
            match ctx.comm.send(to, batch) {
                Ok(()) => {}
                Err(CommError::Disconnected { .. }) => {
                    // dead peer; account its share as done so the in-flight
                    // counter can still reach quiescence
                    control.total_done.fetch_add(batch.len() as u64, SeqCst);
                }
                Err(source) => {
                    ctx.flags.fail();
                    control.exit.store(true, SeqCst);
                    return Err(WorkerError::Comm {
                        worker: ctx.id,
                        source,
                    });
                }
            }
        }
        stats.sent += sent_now as usize;
        let dt = t.elapsed();
        stats.io_time += dt;
        burst_cpu += dt;
        stats.round_cpu.push(burst_cpu);
        burst_cpu = Duration::ZERO;

        // grab whatever has arrived; if nothing, go idle and watch for
        // quiescence
        let t = CpuTimer::start();
        let mut received = match ctx.comm.try_collect() {
            Ok(r) => r,
            Err(source) => {
                ctx.flags.fail();
                control.exit.store(true, SeqCst);
                return Err(WorkerError::Comm {
                    worker: ctx.id,
                    source,
                });
            }
        };
        let dt = t.elapsed();
        stats.io_time += dt;
        burst_cpu += dt;
        if received.is_empty() {
            control.idle.fetch_add(1, SeqCst);
            loop {
                if control.exit.load(SeqCst) {
                    break 'outer;
                }
                received = match ctx.comm.try_collect() {
                    Ok(r) => r,
                    Err(source) => {
                        ctx.flags.fail();
                        control.exit.store(true, SeqCst);
                        return Err(WorkerError::Comm {
                            worker: ctx.id,
                            source,
                        });
                    }
                };
                if !received.is_empty() {
                    control.idle.fetch_sub(1, SeqCst);
                    break;
                }
                // all idle and nothing in flight ⇒ latch the exit flag
                if control.idle.load(SeqCst) == ctx.k
                    && control.total_sent.load(SeqCst) == control.total_done.load(SeqCst)
                {
                    control.exit.store(true, SeqCst);
                    break 'outer;
                }
                std::thread::yield_now();
            }
        }

        // absorb + incremental closure
        let t = CpuTimer::start();
        let n_received = received.len() as u64;
        stats.received += received.len();
        derived = state.absorb(received);
        control.total_done.fetch_add(n_received, SeqCst);
        let dt = t.elapsed();
        stats.reason_time += dt;
        burst_cpu += dt;
        stats.derived += derived.len();
    }
    if burst_cpu > Duration::ZERO {
        stats.round_cpu.push(burst_cpu);
    }

    stats.skipped = ctx.comm.skipped().len();
    stats.io_retries = ctx.comm.io_retries as usize;
    let (run, local_len) = state.finish();
    stats.output_size = local_len;
    Ok((run, stats))
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
        let parts = owlpar_partition::partition_rules(
            &rules,
            2,
            None,
            &PartitionOptions::default(),
        );
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
