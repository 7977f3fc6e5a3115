//! The round loop alone: [`run_rounds`] driven through a scripted
//! [`RoundLink`] — canned inbound batches, no threads, no fabric — from
//! outside the crate, the way another runtime (the cluster link in
//! `owlpar-net`) plugs into the seam.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_core::worker::{run_rounds, RoundLink, Routing, WorkerCtx};
use owlpar_datalog::ast::build::*;
use owlpar_datalog::{Reasoner, Rule};
use owlpar_obs::{Metric, Phase, Track};
use owlpar_rdf::fx::FxHashMap;
use owlpar_rdf::{NodeId, Triple};
use std::sync::Arc;
use std::time::Duration;

fn t(s: u32, p: u32, o: u32) -> Triple {
    Triple::new(NodeId(s), NodeId(p), NodeId(o))
}

const P: u32 = 500;

/// A link with no fabric behind it: it hands out canned inbound
/// batches, stops when they run out, and writes down what it saw.
#[derive(Default)]
struct Scripted {
    inbound: std::collections::VecDeque<Vec<Triple>>,
    /// Peers whose batches are dropped (`send` answers `Ok(false)`).
    gone: Vec<usize>,
    fail_at: Option<usize>,
    begun: Vec<usize>,
    sent: Vec<(usize, usize, Vec<Triple>)>,
    finished: Vec<(usize, u64)>,
    absorbed: Vec<usize>,
}

impl RoundLink for Scripted {
    type Error = String;

    fn begin_round(&mut self, round: usize) -> Result<(), String> {
        self.begun.push(round);
        match self.fail_at {
            Some(r) if r == round => Err(format!("scripted failure at round {round}")),
            _ => Ok(()),
        }
    }

    fn send(&mut self, round: usize, to: usize, batch: &[Triple]) -> Result<bool, String> {
        assert!(!batch.is_empty(), "empty batches never reach the link");
        self.sent.push((round, to, batch.to_vec()));
        Ok(!self.gone.contains(&to))
    }

    fn finish_round(
        &mut self,
        round: usize,
        sent: u64,
        _lane: &mut Track,
    ) -> Result<(Vec<Triple>, bool), String> {
        self.finished.push((round, sent));
        Ok(match self.inbound.pop_front() {
            Some(batch) => (batch, false),
            None => (Vec::new(), true),
        })
    }

    fn absorbed(&mut self, received: usize) {
        self.absorbed.push(received);
    }

    fn transport_trouble(&self) -> (usize, usize) {
        (7, 9)
    }
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
        reasoner: Reasoner::forward(vec![trans]),
        routing: Routing::Data {
            owner: Arc::new(owner),
        },
    }
}

/// The loop alone, no threads and no fabric: what it sends, counts
/// and hands back over a scripted link is the serial delta closure
/// of everything it was shipped and delivered.
#[test]
fn run_rounds_over_a_scripted_link_is_the_serial_delta_closure() {
    let mut link = Scripted {
        inbound: [
            // round 0: one new link of the chain, one triple it has
            vec![t(2, P, 3), t(0, P, 1)],
            // round 1: nothing for this worker, but the run goes on
            vec![],
            // round 2: a link to worker 2's node
            vec![t(3, P, 4)],
        ]
        .into(),
        ..Scripted::default()
    };
    let rec = owlpar_obs::Recorder::enabled();
    let mut lane = rec.track("worker 0");
    let ctx = chain_ctx();
    let (schema, base) = (ctx.schema.to_vec(), ctx.base.clone());
    let (run, stats) = run_rounds(ctx, &mut link, &mut lane).unwrap();
    drop(lane);

    // round 0 routes the closure of the base, each later round what
    // the previous delivery derived, to the owner of the far end
    assert_eq!(link.begun, vec![0, 1, 2, 3]);
    let mut sent = link.sent.clone();
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
    assert_eq!(link.finished, vec![(0, 1), (1, 2), (2, 0), (3, 4)]);
    assert_eq!(
        link.absorbed,
        vec![2, 0, 1],
        "one acknowledgement per absorb"
    );

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
    owlpar_datalog::forward::forward_closure(&mut oracle, &chain_ctx().reasoner.rules);
    let want: Vec<Triple> = oracle
        .iter_sorted()
        .into_iter()
        .filter(|t| !shipped.contains(t))
        .collect();
    assert_eq!(run, want);
    assert_eq!(stats.output_size, oracle.len());

    // one span vocabulary, whatever the link
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
fn a_dropped_batch_is_not_counted_and_a_link_error_ends_the_loop() {
    // worker 1 is gone: its batches are offered, dropped, not counted
    let mut link = Scripted {
        inbound: [vec![t(2, P, 3)]].into(),
        gone: vec![1],
        ..Scripted::default()
    };
    let mut lane = owlpar_obs::Recorder::disabled().track("w");
    let (_, stats) = run_rounds(chain_ctx(), &mut link, &mut lane).unwrap();
    assert_eq!(link.sent.len(), 2);
    assert_eq!(stats.sent, 0);
    assert_eq!(link.finished, vec![(0, 0), (1, 0)]);

    // the link's error is the loop's, at the round it was raised
    let mut link = Scripted {
        inbound: [vec![t(2, P, 3)], vec![]].into(),
        fail_at: Some(1),
        ..Scripted::default()
    };
    let err = run_rounds(chain_ctx(), &mut link, &mut lane).err();
    assert_eq!(err.as_deref(), Some("scripted failure at round 1"));
    assert_eq!(link.begun, vec![0, 1]);
    assert_eq!(link.finished.len(), 1);
}
