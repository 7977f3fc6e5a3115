//! The round loop alone: [`run_rounds`] driven over its two seams — a
//! scripted [`Transport`] behind [`WorkerComm::custom`] with canned
//! inbound batches, and a scripted [`RoundVote`] — with no threads and no
//! fabric, from outside the crate, the way another runtime (the cluster
//! in `owlpar-net`) plugs into them.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_core::comm::WorkerComm;
use owlpar_core::worker::{collect_round, run_rounds, RoundVote, Routing, WorkerCtx};
use owlpar_core::{CommError, SkippedMessage, Transport, WorkerError};
use owlpar_datalog::analysis::JoinMask;
use owlpar_datalog::ast::build::*;
use owlpar_datalog::{Reasoner, Rule};
use owlpar_obs::{Metric, Phase, Track};
use owlpar_rdf::fx::FxHashMap;
use owlpar_rdf::{NodeId, Triple};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn t(s: u32, p: u32, o: u32) -> Triple {
    Triple::new(NodeId(s), NodeId(p), NodeId(o))
}

const P: u32 = 500;

/// What the transport was handed: `(round, to, batch)`.
type SentLog = Arc<Mutex<Vec<(usize, usize, Vec<Triple>)>>>;

/// A fabric with no peers behind it: each collect hands out the next
/// canned batch, every send is written down, batches to a `gone` peer
/// bounce as a hang-up, and the first collect reports `skips` damaged
/// messages.
#[derive(Default)]
struct ScriptedTransport {
    inbound: VecDeque<Vec<Triple>>,
    gone: Vec<usize>,
    skips: usize,
    sent: SentLog,
}

impl Transport for ScriptedTransport {
    fn send(&mut self, round: usize, to: usize, batch: &[Triple]) -> Result<u64, CommError> {
        assert!(!batch.is_empty(), "empty batches never reach the transport");
        self.sent.lock().unwrap().push((round, to, batch.to_vec()));
        if self.gone.contains(&to) {
            return Err(CommError::Disconnected { round, from: 0, to });
        }
        Ok(12 * batch.len() as u64)
    }

    fn collect(&mut self, _round: usize) -> Result<Vec<Triple>, CommError> {
        Ok(self.inbound.pop_front().unwrap_or_default())
    }

    fn take_skipped(&mut self) -> Vec<SkippedMessage> {
        (0..std::mem::take(&mut self.skips))
            .map(|i| SkippedMessage {
                round: 0,
                worker: 0,
                origin: format!("scripted {i}"),
                reason: "damaged on purpose".to_string(),
            })
            .collect()
    }
}

/// A vote with no peers to ask: it collects each round off the endpoint,
/// stops after `last_round`, fails where it is told to, and writes down
/// what it saw.
#[derive(Default)]
struct ScriptedVote {
    last_round: usize,
    fail_at: Option<usize>,
    begun: Vec<usize>,
    finished: Vec<(usize, u64)>,
}

/// The scripted vote's error: a message.
#[derive(Debug)]
struct Failed(String);

impl From<WorkerError> for Failed {
    fn from(e: WorkerError) -> Self {
        Failed(e.to_string())
    }
}

impl RoundVote for ScriptedVote {
    type Error = Failed;

    fn begin_round(&mut self, round: usize, _comm: &WorkerComm) -> Result<(), Failed> {
        self.begun.push(round);
        match self.fail_at {
            Some(r) if r == round => Err(Failed(format!("scripted failure at round {round}"))),
            _ => Ok(()),
        }
    }

    fn close_round(
        &mut self,
        round: usize,
        sent: u64,
        comm: &mut WorkerComm,
        lane: &mut Track,
    ) -> Result<(Vec<Triple>, bool), Failed> {
        self.finished.push((round, sent));
        let received = collect_round(comm, round, lane)?;
        Ok((received, round == self.last_round))
    }
}

/// Worker 0's endpoint over `transport`; returns the log of its sends.
fn endpoint(transport: ScriptedTransport) -> (WorkerComm, SentLog) {
    let sent = Arc::clone(&transport.sent);
    (WorkerComm::custom(0, Box::new(transport)), sent)
}

/// Worker 0 of 3 over a transitive predicate: nodes 0 and 1 are its
/// own, 2 and 3 are worker 1's, 4 is worker 2's.
fn chain_ctx() -> WorkerCtx {
    let owner: FxHashMap<NodeId, u32> = [(0, 0), (1, 0), (2, 1), (3, 1), (4, 2)]
        .into_iter()
        .map(|(n, w)| (NodeId(n), w))
        .collect();
    let trans = Rule::new(
        "trans",
        atom(v(0), c(NodeId(P)), v(2)),
        vec![
            atom(v(0), c(NodeId(P)), v(1)),
            atom(v(1), c(NodeId(P)), v(2)),
        ],
    )
    .unwrap();
    WorkerCtx {
        id: 0,
        k: 3,
        schema: Arc::new(vec![t(P, 9, P)]),
        base: vec![t(0, P, 1), t(1, P, 2)],
        routing: Arc::new(Routing::Data {
            owner,
            mask: JoinMask::of(std::slice::from_ref(&trans)),
        }),
        reasoner: Reasoner::forward(vec![trans]),
    }
}

/// The loop alone, no threads and no fabric: what it sends, counts
/// and hands back over a scripted transport and vote is the serial
/// delta closure of everything it was shipped and delivered.
#[test]
fn run_rounds_over_a_scripted_transport_and_vote_is_the_serial_delta_closure() {
    let (mut comm, sent) = endpoint(ScriptedTransport {
        inbound: [
            // round 0: one new link of the chain, one triple it has
            vec![t(2, P, 3), t(0, P, 1)],
            // round 1: nothing for this worker, but the run goes on
            vec![],
            // round 2: a link to worker 2's node
            vec![t(3, P, 4)],
        ]
        .into(),
        skips: 7,
        ..ScriptedTransport::default()
    });
    // as if nine transient IO failures had been retried through
    comm.io_retries = 9;
    let mut vote = ScriptedVote {
        last_round: 3,
        ..ScriptedVote::default()
    };
    let rec = owlpar_obs::Recorder::enabled();
    let mut lane = rec.track("worker 0");
    let ctx = chain_ctx();
    let (schema, base) = (ctx.schema.to_vec(), ctx.base.clone());
    let (run, stats) = run_rounds(ctx, &mut comm, &mut vote, &mut lane).unwrap();
    drop(lane);

    // round 0 routes the closure of the base, each later round what
    // the previous delivery derived, to the owner of the far end
    assert_eq!(vote.begun, vec![0, 1, 2, 3]);
    let mut sent = sent.lock().unwrap().clone();
    sent.iter_mut()
        .for_each(|(_, _, batch)| batch.sort_unstable());
    assert_eq!(
        sent,
        vec![
            (0, 1, vec![t(0, P, 2)]),
            (1, 1, vec![t(0, P, 3), t(1, P, 3)]),
            // (2, P, 4) starts at worker 1's node and ends at worker 2's
            (3, 1, vec![t(2, P, 4)]),
            (3, 2, vec![t(0, P, 4), t(1, P, 4), t(2, P, 4)]),
        ]
    );
    assert_eq!(vote.finished, vec![(0, 1), (1, 2), (2, 0), (3, 4)]);

    assert_eq!(stats.id, 0);
    assert_eq!(stats.rounds, 4);
    assert_eq!(stats.sent, 7);
    assert_eq!(stats.received, 3, "pre-dedup: the known triple counts");
    assert_eq!(stats.derived, 1 + 2 + 3);
    assert_eq!((stats.skipped, stats.io_retries), (7, 9));
    // one charge per round, plus the last round's receive if the
    // clock saw it
    assert!(
        stats.round_cpu.len() == 4 || stats.round_cpu.len() == 5,
        "{:?}",
        stats.round_cpu
    );
    assert_eq!(
        stats.round_cpu.iter().sum::<Duration>(),
        stats.reason_time + stats.io_time
    );

    let mut oracle: owlpar_rdf::TripleStore = schema.iter().chain(&base).copied().collect();
    let shipped = oracle.clone();
    oracle.extend([t(2, P, 3), t(3, P, 4)]);
    owlpar_datalog::forward::forward_closure(&mut oracle, chain_ctx().reasoner.program());
    let want: Vec<Triple> = oracle
        .iter_sorted()
        .into_iter()
        .filter(|t| !shipped.contains(t))
        .collect();
    assert_eq!(run, want);
    assert_eq!(stats.output_size, oracle.len());

    // one span vocabulary, whatever the transport and the vote
    let book = rec.drain();
    let count = |phase: Phase| {
        book.events
            .iter()
            .filter(|e| matches!(e, owlpar_obs::Event::Span { phase: p, .. } if *p == phase))
            .count()
    };
    assert_eq!(count(Phase::Freeze), 1);
    assert_eq!(count(Phase::Round), 4);
    assert_eq!(count(Phase::Exchange), 4);
    assert_eq!(count(Phase::Collect), 4);
    assert_eq!(count(Phase::Join), 4, "the close, then one per absorb");
    let total = |metric: Metric| -> u64 {
        book.events
            .iter()
            .filter_map(|e| match e {
                owlpar_obs::Event::Count {
                    metric: m, value, ..
                } if *m == metric => Some(*value),
                _ => None,
            })
            .sum()
    };
    assert_eq!(total(Metric::Sent), 7);
    assert_eq!(total(Metric::Received), 3);
}

#[test]
fn a_dropped_batch_is_not_counted_and_a_vote_error_ends_the_loop() {
    // worker 1 is gone: its batches are offered, dropped, not counted
    let (mut comm, sent) = endpoint(ScriptedTransport {
        inbound: [vec![t(2, P, 3)]].into(),
        gone: vec![1],
        ..ScriptedTransport::default()
    });
    let mut vote = ScriptedVote {
        last_round: 1,
        ..ScriptedVote::default()
    };
    let mut lane = owlpar_obs::Recorder::disabled().track("w");
    let (_, stats) = run_rounds(chain_ctx(), &mut comm, &mut vote, &mut lane).unwrap();
    assert_eq!(sent.lock().unwrap().len(), 2);
    assert_eq!(stats.sent, 0);
    assert_eq!(vote.finished, vec![(0, 0), (1, 0)]);

    // the vote's error is the loop's, at the round it was raised
    let (mut comm, _) = endpoint(ScriptedTransport {
        inbound: [vec![t(2, P, 3)], vec![]].into(),
        ..ScriptedTransport::default()
    });
    let mut vote = ScriptedVote {
        last_round: 2,
        fail_at: Some(1),
        ..ScriptedVote::default()
    };
    let err = run_rounds(chain_ctx(), &mut comm, &mut vote, &mut lane).err();
    assert_eq!(
        err.map(|Failed(e)| e).as_deref(),
        Some("scripted failure at round 1")
    );
    assert_eq!(vote.begun, vec![0, 1]);
    assert_eq!(vote.finished.len(), 1);
}
