//! The trace accounts for a whole in-node closure: on a KB big enough for
//! the parallel engine, the phases one `parallel_closure` records — the
//! store's compaction and the rounds — cover its wall time, and
//! `owlpar trace summary` prints them. (One test: it installs the
//! process-wide recorder.)

// Tests assert on infallible setup; unwrap/expect failures are test failures.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar::datalog::parallel_closure;
use owlpar::obs::{self, Event, Metric, Phase, Recorder, NO_ROUND};
use owlpar::prelude::*;
use std::process::Command;
use std::time::Instant;

#[test]
fn recorded_phases_cover_a_parallel_closure() {
    // Every triple starts in the hash overlay (a layout only inserts
    // produce, so built here), so the closure opens with a compaction.
    let mut graph = generate_lubm(&LubmConfig {
        universities: 3,
        ..LubmConfig::default()
    });
    graph.store = graph.store.iter().collect();
    assert!(graph.len() >= 100_000, "KB has {} triples", graph.len());
    let hr = HorstReasoner::from_graph(&mut graph, MaterializationStrategy::ForwardSemiNaive);

    let base_len = graph.len() as u64;
    let rec = Recorder::enabled();
    obs::install_global(rec.clone());
    let t0 = Instant::now();
    let derived = parallel_closure(&mut graph.store, hr.reasoner.program(), 2);
    let wall_us = t0.elapsed().as_micros() as u64;
    obs::install_global(Recorder::disabled());
    assert!(derived > 0);

    // Top-level spans only: rounds contain their joins, dedups and merges.
    let book = rec.drain();
    let covered_us: u64 = book
        .events
        .iter()
        .map(|e| match *e {
            Event::Span {
                phase: Phase::Round,
                dur_us,
                ..
            } => dur_us,
            Event::Span {
                phase: Phase::Freeze,
                round: NO_ROUND,
                dur_us,
                ..
            } => dur_us,
            _ => 0,
        })
        .sum();
    assert!(
        covered_us * 10 >= wall_us * 9,
        "phases cover {covered_us} of {wall_us} us"
    );

    // One delta index, one merge: a round that added triples has exactly
    // one freeze span, and only the last round — which finds the fixpoint
    // — may have none.
    let spans_of = |want: Phase| -> Vec<u32> {
        book.events
            .iter()
            .filter_map(|e| match *e {
                Event::Span { phase, round, .. } if phase == want && round != NO_ROUND => {
                    Some(round)
                }
                _ => None,
            })
            .collect()
    };
    let mut rounds = spans_of(Phase::Round);
    rounds.sort_unstable();
    assert!(rounds.len() >= 2, "rounds {rounds:?}");
    assert_eq!(rounds, (0..rounds.len() as u32).collect::<Vec<_>>());
    let freezes = spans_of(Phase::Freeze);
    for &round in &rounds {
        let n = freezes.iter().filter(|&&r| r == round).count();
        if round + 1 < rounds.len() as u32 {
            assert_eq!(n, 1, "round {round} of {rounds:?} froze {n} times");
        } else {
            assert!(n <= 1, "last round froze {n} times");
        }
    }
    // The base is merged once: exactly one freeze counts a merge of at
    // least the whole base. The per-round counters add up to the closure.
    let counted = |want: Metric| -> Vec<(Phase, u64)> {
        book.events
            .iter()
            .filter_map(|e| match *e {
                Event::Count {
                    phase,
                    metric,
                    value,
                    ..
                } if metric == want => Some((phase, value)),
                _ => None,
            })
            .collect()
    };
    let merges = counted(Metric::Triples);
    let base_merges = merges
        .iter()
        .filter(|&&(phase, rows)| phase == Phase::Freeze && rows >= base_len)
        .count();
    assert_eq!(base_merges, 1, "{merges:?}");
    let derived_counted: u64 = counted(Metric::Derived).iter().map(|&(_, n)| n).sum();
    assert_eq!(derived_counted, derived as u64);

    // two shards joined and filtered in round 0, beside the coordinator's merge
    assert_eq!(spans_of(Phase::Join).iter().filter(|&&r| r == 0).count(), 2);
    assert_eq!(
        spans_of(Phase::Dedup).iter().filter(|&&r| r == 0).count(),
        3
    );

    let path =
        std::env::temp_dir().join(format!("owlpar-trace-closure-{}.json", std::process::id()));
    std::fs::write(&path, obs::chrome::to_chrome_json(&book)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_owlpar"))
        .args(["trace", "summary"])
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for phase in ["freeze", "round", "join", "dedup"] {
        assert!(
            text.lines().any(|l| l.starts_with(phase)),
            "no {phase} row in:\n{text}"
        );
    }
}
