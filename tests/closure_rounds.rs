//! How many rounds a closure takes. The one-atom rules are composed once
//! and applied to every product as it is emitted, and each transitive
//! property is closed by an operator, so a generated LUBM or UOBM KB
//! closes in round 0, plus one round that derives nothing. (One test: it
//! installs the process-wide recorder.)

// Tests assert on infallible setup; unwrap/expect failures are test failures.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar::datagen::{generate_uobm, UobmConfig};
use owlpar::datalog::parallel_closure;
use owlpar::obs::{self, Event, Metric, Phase, Recorder, NO_ROUND};
use owlpar::prelude::*;

/// The `Round` spans and the per-round `Derived` counts one
/// `parallel_closure` of `graph` records, and what it derived.
fn traced_rounds(mut graph: Graph) -> (Vec<u32>, Vec<u64>, usize) {
    let hr = HorstReasoner::from_graph(&mut graph, MaterializationStrategy::ForwardSemiNaive);
    let rec = Recorder::enabled();
    obs::install_global(rec.clone());
    let derived = parallel_closure(&mut graph.store, hr.reasoner.program(), 2);
    obs::install_global(Recorder::disabled());
    let book = rec.drain();
    let mut rounds: Vec<u32> = book
        .events
        .iter()
        .filter_map(|e| match *e {
            Event::Span {
                phase: Phase::Round,
                round,
                ..
            } if round != NO_ROUND => Some(round),
            _ => None,
        })
        .collect();
    rounds.sort_unstable();
    let per_round = book
        .events
        .iter()
        .filter_map(|e| match *e {
            Event::Count {
                metric: Metric::Derived,
                value,
                ..
            } => Some(value),
            _ => None,
        })
        .collect();
    (rounds, per_round, derived)
}

#[test]
fn lubm_and_uobm_close_in_round_0_and_one_round_that_finds_nothing() {
    let lubm = generate_lubm(&LubmConfig {
        universities: 3,
        ..LubmConfig::default()
    });
    let uobm = generate_uobm(&UobmConfig {
        lubm: LubmConfig {
            universities: 2,
            ..LubmConfig::default()
        },
        ..UobmConfig::default()
    });
    for (name, graph) in [("lubm", lubm), ("uobm", uobm)] {
        let (rounds, per_round, derived) = traced_rounds(graph);
        assert!(derived > 0, "{name}");
        assert_eq!(rounds, vec![0, 1], "{name}: round spans");
        assert_eq!(per_round.len(), 2, "{name}: {per_round:?}");
        assert_eq!(per_round[1], 0, "{name}: round 1 derives nothing");
        assert_eq!(per_round.iter().sum::<u64>(), derived as u64, "{name}");
    }
}
