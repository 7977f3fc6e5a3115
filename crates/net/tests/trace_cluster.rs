//! Cluster telemetry merge, end to end over loopback TCP: a traced
//! 2-worker run must produce one merged lane per worker (spans shipped
//! as `TraceChunk` frames, clock-offset corrected) plus the master's
//! lane, without perturbing the closure. Also pins the per-round wire
//! ledger the same runs feed into `WireBytes::per_round`.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_core::{run_serial, ParallelConfig, PartitioningStrategy};
use owlpar_datagen::{generate_lubm, LubmConfig};
use owlpar_datalog::MaterializationStrategy;
use owlpar_net::{run_cluster_master, run_cluster_worker, MasterOptions, WorkerOptions};
use owlpar_obs::{chrome, Event, Metric, Phase, Recorder, TrackMeta};
use std::net::TcpListener;
use std::thread;

fn span_count(book_events: &[Event], track: u32, phase: Phase) -> usize {
    book_events
        .iter()
        .filter(|e| matches!(e, Event::Span { track: t, phase: p, .. } if *t == track && *p == phase))
        .count()
}

#[test]
fn traced_loopback_cluster_merges_worker_spans() {
    let g0 = generate_lubm(&LubmConfig::mini(2));
    let mut serial = g0.clone();
    run_serial(&mut serial, MaterializationStrategy::ForwardSemiNaive);

    let rec = Recorder::enabled();
    let master_opts = MasterOptions {
        trace: Some(rec.clone()),
        ..MasterOptions::default()
    };
    let cfg = ParallelConfig {
        k: 2,
        strategy: PartitioningStrategy::data_graph(),
        ..ParallelConfig::default()
    }
    .forward();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut g = g0.clone();
    let (report, summaries) = thread::scope(|s| {
        let workers: Vec<_> = (0..cfg.k)
            .map(|_| s.spawn(move || run_cluster_worker(addr, &WorkerOptions::default())))
            .collect();
        let report = run_cluster_master(&mut g, &cfg, listener, &master_opts).unwrap();
        let sums: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().unwrap().unwrap())
            .collect();
        (report, sums)
    });

    // Tracing must not perturb the run: the closure still equals serial.
    assert_eq!(g.len(), serial.len());
    assert_eq!(g.term_fingerprint(), serial.term_fingerprint());
    assert!(report.worker_errors.is_empty());

    let book = rec.drain();

    // The master's lane (pid 0) plus one merged lane per worker process
    // (pid = node_id + 1).
    let master: &TrackMeta = book
        .tracks
        .iter()
        .find(|t| t.name == "master")
        .expect("master lane");
    assert_eq!(master.pid, 0);
    assert!(span_count(&book.events, master.id, Phase::Setup) >= 1);
    assert!(span_count(&book.events, master.id, Phase::BarrierWait) >= 1);
    assert!(span_count(&book.events, master.id, Phase::Aggregate) >= 1);
    // Round traffic is a per-round byte counter on each worker's lane —
    // what its mesh endpoint wrote — and none on the master's.
    let byte_counts = |track: u32| {
        book.events
            .iter()
            .filter(|e| {
                matches!(e, Event::Count { track: t, phase: Phase::Exchange, metric: Metric::Bytes, .. }
                         if *t == track)
            })
            .count()
    };
    assert_eq!(byte_counts(master.id), 0, "the master moves no round bytes");

    for w in &summaries {
        let lane = book
            .tracks
            .iter()
            .find(|t| t.pid == w.node_id + 1)
            .unwrap_or_else(|| panic!("no merged lane for worker {}", w.node_id));
        assert!(
            lane.name.starts_with(&format!("worker {}", w.node_id)),
            "lane {:?} for worker {}",
            lane.name,
            w.node_id
        );
        // Every round the worker announced (one RoundDone each) must
        // appear as exactly one Round span in the merged timeline.
        assert_eq!(
            span_count(&book.events, lane.id, Phase::Round),
            w.rounds,
            "worker {} round spans",
            w.node_id
        );
        // Barrier-wait and exchange are distinguishable phases, one each
        // per round.
        assert_eq!(span_count(&book.events, lane.id, Phase::BarrierWait), w.rounds);
        assert_eq!(span_count(&book.events, lane.id, Phase::Exchange), w.rounds);
        // The initial close plus one join per non-final round.
        assert_eq!(span_count(&book.events, lane.id, Phase::Join), w.rounds);
        assert_eq!(
            byte_counts(lane.id),
            w.rounds,
            "worker {} Exchange/Bytes",
            w.node_id
        );
    }

    // Predictions ride the book for `owlpar trace summary`.
    assert!(
        book.extra_json.iter().any(|(k, _)| k == "plan"),
        "plan extra missing"
    );

    // The Chrome export is self-contained and carries the plan extra.
    let json = chrome::to_chrome_json(&book);
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"plan\""));

    // Per-round wire ledger: ascending rounds, totals consistent with
    // the aggregate round phase.
    let wire = report.wire.expect("cluster run has a wire report");
    assert!(!wire.per_round.is_empty());
    assert!(wire.per_round.windows(2).all(|w| w[0].round < w[1].round));
    let (bytes, triples) = wire
        .per_round
        .iter()
        .fold((0u64, 0u64), |(b, t), r| (b + r.bytes, t + r.triples));
    assert_eq!(bytes, wire.rounds.bytes, "per-round bytes cover the phase");
    assert_eq!(triples, wire.rounds.triples);
}

/// An untraced cluster run ships no telemetry and records nothing, and
/// its closure is identical to the traced one's — the recorder is inert
/// by default.
#[test]
fn untraced_cluster_records_nothing() {
    let g0 = generate_lubm(&LubmConfig::mini(1));
    let rec = Recorder::disabled();
    let master_opts = MasterOptions {
        trace: Some(rec.clone()),
        ..MasterOptions::default()
    };
    let cfg = ParallelConfig {
        k: 2,
        strategy: PartitioningStrategy::data_graph(),
        ..ParallelConfig::default()
    }
    .forward();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut g = g0.clone();
    let report = thread::scope(|s| {
        let workers: Vec<_> = (0..cfg.k)
            .map(|_| s.spawn(move || run_cluster_worker(addr, &WorkerOptions::default())))
            .collect();
        let report = run_cluster_master(&mut g, &cfg, listener, &master_opts).unwrap();
        for w in workers {
            w.join().unwrap().unwrap();
        }
        report
    });
    assert!(report.worker_errors.is_empty());
    let book = rec.drain();
    assert!(book.events.is_empty());
    assert!(book.tracks.is_empty());

    let mut serial = g0.clone();
    run_serial(&mut serial, MaterializationStrategy::ForwardSemiNaive);
    assert_eq!(g.term_fingerprint(), serial.term_fingerprint());
}
