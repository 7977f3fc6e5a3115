//! Predicted-vs-measured wire accounting: the static plan analyzer's
//! setup and round byte estimates must land within a factor of two of
//! the `WireLedger`'s measurements — both ways — for every auto
//! candidate strategy on the bench KB at k ∈ {2, 4}. This is the test
//! that keeps the cost model (`owlpar_core::plan` +
//! `owlpar_lint::WireCostModel`) calibrated against the actual cluster
//! wire format as either evolves.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_core::{
    analyze_strategy, auto_candidates, ParallelConfig, PartitioningStrategy, PlanningBase,
    WireBytes,
};
use owlpar_datagen::{generate_lubm, LubmConfig};
use owlpar_lint::{check_skew_tolerance, LintCode, Severity};
use owlpar_net::{run_cluster_master, run_cluster_worker, MasterOptions, WorkerOptions};
use owlpar_obs::{Event, Phase, Recorder};
use owlpar_rdf::Graph;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::thread;

/// LUBM grown to at least 3000 base triples: small enough for a debug
/// test, big enough that frame overheads do not drown the predictions.
fn bench_kb() -> Graph {
    let mut unis = 1;
    let mut g = generate_lubm(&LubmConfig::mini(unis));
    while g.len() < 3000 {
        unis += 1;
        g = generate_lubm(&LubmConfig::mini(unis));
    }
    g
}

/// One in-process loopback cluster run; returns the master's ledger.
fn measure(g0: &Graph, k: usize, strategy: PartitioningStrategy) -> WireBytes {
    let cfg = ParallelConfig {
        k,
        strategy,
        ..ParallelConfig::default()
    }
    .forward();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut g = g0.clone();
    let report = thread::scope(|s| {
        let workers: Vec<_> = (0..k)
            .map(|_| s.spawn(move || run_cluster_worker(addr, &WorkerOptions::default())))
            .collect();
        let report =
            run_cluster_master(&mut g, &cfg, listener, &MasterOptions::default()).unwrap();
        for w in workers {
            w.join().unwrap().unwrap();
        }
        report
    });
    report.wire.expect("cluster runs report wire stats")
}

fn assert_within_2x(what: &str, predicted: f64, measured: f64) {
    assert!(
        predicted > 0.0 && measured > 0.0,
        "{what}: degenerate comparison (predicted {predicted}, measured {measured})"
    );
    let ratio = measured / predicted;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "{what}: measured {measured:.0} B vs predicted {predicted:.0} B \
         (ratio {ratio:.2} outside [0.5, 2])"
    );
}

#[test]
fn predictions_within_2x_of_measurements() {
    let g0 = bench_kb();
    let (base, dict) = {
        let mut g = g0.clone();
        let base = PlanningBase::compile(&mut g, &[]);
        (base, g.dict)
    };
    for k in [2usize, 4] {
        for strategy in auto_candidates(k) {
            // A deny-level *skew* diagnostic (e.g. rule partitioning's
            // load imbalance at small k) only gates `--strategy auto`;
            // the plan still runs when requested explicitly, so its
            // estimates must still be calibrated. Only infeasibility
            // (no estimates at all) would make the comparison moot.
            let predicted = analyze_strategy(&base, &dict, k, &strategy).expect("analyzable");
            assert!(
                predicted.feasible,
                "k={k} {}: bench plan unexpectedly infeasible",
                predicted.strategy
            );
            let wire = measure(&g0, k, strategy);
            let tag = format!("k={k} {} setup", predicted.strategy);
            assert_within_2x(&tag, predicted.setup_bytes as f64, wire.setup.bytes as f64);
            let tag = format!("k={k} {} rounds", predicted.strategy);
            assert_within_2x(&tag, predicted.round_bytes, wire.rounds.bytes as f64);
        }
    }
}

/// OWL017 against a real traced run: per-round skew ratios measured
/// from the merged cluster trace (max/mean of the worker `Round` span
/// durations) feed [`check_skew_tolerance`] next to the analyzer's
/// predicted ratio. Wall-clock skew on a loaded host is arbitrarily
/// noisy, so the test pins the check's *behavior* on real measurements
/// — an unreachable bound never fires, a bound strictly below the worst
/// measurement fires a warn-level OWL017 — not a timing threshold.
#[test]
fn owl017_checks_measured_skew_against_prediction() {
    let g0 = bench_kb();
    let k = 2usize;
    let strategy = PartitioningStrategy::data_graph();
    let predicted = {
        let mut g = g0.clone();
        let base = PlanningBase::compile(&mut g, &[]);
        analyze_strategy(&base, &g.dict, k, &strategy).expect("analyzable")
    };
    let pred_skew = predicted.max_load_share * k as f64;
    assert!(pred_skew >= 1.0, "skew ratio is max/mean, never below 1");

    let rec = Recorder::enabled();
    let cfg = ParallelConfig {
        k,
        strategy,
        ..ParallelConfig::default()
    }
    .forward();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut g = g0.clone();
    let opts = MasterOptions {
        trace: Some(rec.clone()),
        ..MasterOptions::default()
    };
    thread::scope(|s| {
        let workers: Vec<_> = (0..k)
            .map(|_| s.spawn(move || run_cluster_worker(addr, &WorkerOptions::default())))
            .collect();
        run_cluster_master(&mut g, &cfg, listener, &opts).unwrap();
        for w in workers {
            w.join().unwrap().unwrap();
        }
    });

    let book = rec.drain();
    let mut per_round: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for e in &book.events {
        if let Event::Span {
            phase: Phase::Round,
            round,
            dur_us,
            ..
        } = e
        {
            per_round.entry(*round).or_default().push((*dur_us).max(1));
        }
    }
    assert!(!per_round.is_empty(), "traced run produced no Round spans");
    let measured: Vec<f64> = per_round
        .values()
        .map(|durs| {
            let max = durs.iter().copied().max().unwrap_or(1) as f64;
            let mean = durs.iter().sum::<u64>() as f64 / durs.len() as f64;
            max / mean
        })
        .collect();
    let worst = measured.iter().copied().fold(f64::MIN, f64::max);
    assert!(worst >= 1.0);

    // Unreachable bound: never fires, however noisy the host was.
    assert!(check_skew_tolerance(&measured, pred_skew, 1e9).is_none());
    // Bound strictly below the worst measurement: always fires, as a
    // warn, carrying the OWL017 identity.
    let d = check_skew_tolerance(&measured, worst / 2.0, 1.0).expect("bound below worst fires");
    assert_eq!(d.code, LintCode::SkewExceedsPredicted);
    assert_eq!(d.code.id(), "OWL017");
    assert_eq!(d.severity, Severity::Warn);
    assert!(!d.suppressed);
}
