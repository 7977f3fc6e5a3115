//! One round loop under every fabric and vote: barrier rounds over the
//! channel, the shared-file and the TCP-mesh fabrics, and the cluster
//! runtime over loopback TCP all reach the serial closure, and every
//! worker's lane tells the same story in the same words — one `Round`,
//! one `Exchange` and one `Join` span per round it reports, and `Sent` /
//! `Received` counters that add up to its statistics. One `#[test]`: the
//! in-process runs record on the ambient recorder, which is
//! process-global.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_core::{
    run_parallel, run_serial, CommMode, ParallelConfig, PartitioningStrategy, RunReport, WireFormat,
};
use owlpar_datagen::{generate_mdc, MdcConfig};
use owlpar_datalog::MaterializationStrategy;
use owlpar_net::{
    run_cluster_master, run_cluster_worker, MasterOptions, TcpFabricFactory, WorkerOptions,
};
use owlpar_obs::{Event, Metric, Phase, Recorder, TraceBook};
use owlpar_rdf::Graph;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread;

const K: usize = 3;

fn spans(book: &TraceBook, track: u32, phase: Phase) -> usize {
    book.events
        .iter()
        .filter(
            |e| matches!(e, Event::Span { track: t, phase: p, .. } if *t == track && *p == phase),
        )
        .count()
}

fn counted(book: &TraceBook, track: u32, metric: Metric) -> u64 {
    book.events
        .iter()
        .filter_map(|e| match e {
            Event::Count {
                track: t,
                metric: m,
                value,
                ..
            } if *t == track && *m == metric => Some(*value),
            _ => None,
        })
        .sum()
}

/// Worker `id`'s lane in `book`: the ambient recorder names it, the
/// cluster master files it under pid `id + 1`.
fn lane_of(book: &TraceBook, id: usize, by_pid: bool) -> u32 {
    book.tracks
        .iter()
        .find(|t| {
            if by_pid {
                t.pid == id as u32 + 1
            } else {
                t.name == format!("worker {id}")
            }
        })
        .unwrap_or_else(|| panic!("no lane for worker {id}"))
        .id
}

fn check(
    label: &str,
    g: &Graph,
    serial: &Graph,
    report: &RunReport,
    book: &TraceBook,
    by_pid: bool,
) {
    assert_eq!(g.len(), serial.len(), "{label}: closure size");
    assert_eq!(
        g.term_fingerprint(),
        serial.term_fingerprint(),
        "{label}: closure"
    );
    assert!(report.worker_errors.is_empty(), "{label}");
    assert!(
        report.max_rounds() >= 2,
        "{label}: the KB must need an exchange"
    );
    for w in &report.workers {
        let lane = lane_of(book, w.id, by_pid);
        for phase in [Phase::Round, Phase::Exchange, Phase::Join] {
            assert_eq!(
                spans(book, lane, phase),
                w.rounds,
                "{label}: worker {} {phase:?} spans",
                w.id
            );
        }
        assert_eq!(
            spans(book, lane, Phase::Freeze),
            1,
            "{label}: worker {}",
            w.id
        );
        assert_eq!(
            counted(book, lane, Metric::Sent),
            w.sent as u64,
            "{label}: Σ Sent"
        );
        assert_eq!(
            counted(book, lane, Metric::Received),
            w.received as u64,
            "{label}: Σ Received"
        );
    }
    let moved: usize = report.workers.iter().map(|w| w.sent).sum();
    assert!(moved > 0, "{label}");
    assert_eq!(
        moved,
        report.workers.iter().map(|w| w.received).sum::<usize>(),
        "{label}: every triple sent was received"
    );
}

#[test]
fn every_link_reaches_the_serial_closure_and_tells_it_in_the_same_spans() {
    let g0 = generate_mdc(&MdcConfig::mini());
    let mut serial = g0.clone();
    run_serial(&mut serial, MaterializationStrategy::ForwardSemiNaive);
    let cfg = |comm: CommMode| {
        ParallelConfig {
            k: K,
            strategy: PartitioningStrategy::data_graph(),
            comm,
            ..ParallelConfig::default()
        }
        .forward()
    };

    // every in-process fabric
    let in_process = [
        ("barrier/channel", cfg(CommMode::Channel)),
        (
            "barrier/shared-file",
            cfg(CommMode::SharedFile {
                dir: None,
                format: WireFormat::Binary,
            }),
        ),
        (
            "barrier/tcp-mesh",
            cfg(CommMode::Custom(Arc::new(TcpFabricFactory::default()))),
        ),
    ];
    for (label, cfg) in &in_process {
        owlpar_obs::install_global(Recorder::enabled());
        let mut g = g0.clone();
        let report = run_parallel(&mut g, cfg);
        let book = owlpar_obs::global().drain();
        owlpar_obs::install_global(Recorder::disabled());
        let report = report.unwrap_or_else(|e| panic!("{label}: {e}"));
        check(label, &g, &serial, &report, &book, false);
    }

    // the cluster runtime: worker lanes arrive as TraceChunk frames
    let rec = Recorder::enabled();
    let master_opts = MasterOptions {
        trace: Some(rec.clone()),
        ..MasterOptions::default()
    };
    let cluster_cfg = cfg(CommMode::Channel);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut g = g0.clone();
    let report = thread::scope(|s| {
        let workers: Vec<_> = (0..K)
            .map(|_| s.spawn(move || run_cluster_worker(addr, &WorkerOptions::default())))
            .collect();
        let report = run_cluster_master(&mut g, &cluster_cfg, listener, &master_opts).unwrap();
        for w in workers {
            w.join().unwrap().unwrap();
        }
        report
    });
    let book = rec.drain();
    check("cluster", &g, &serial, &report, &book, true);
    // Round traffic is what the workers' mesh endpoints wrote: their
    // lanes' per-round byte counters add up to the wire report's.
    let lane_bytes: u64 = report
        .workers
        .iter()
        .map(|w| counted(&book, lane_of(&book, w.id, true), Metric::Bytes))
        .sum();
    let wire = report.wire.expect("cluster runs report wire stats");
    assert_eq!(lane_bytes, wire.rounds.bytes, "cluster: Σ Exchange/Bytes");
}
