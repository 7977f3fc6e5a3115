//! Robustness suite: the parallel runtime under deterministic injected
//! faults.
//!
//! Invariants exercised here:
//!
//! * **transient faults are absorbed** — injected retryable IO errors and
//!   delivery delays/reorderings leave the closure bit-for-bit equal to
//!   the serial closure, on both transports;
//! * **worker loss is contained** — a panic at round r ≥ 1 ends the run
//!   with either a structured `RunError` (rule partitioning, or recovery
//!   disabled) or a *recovered* run whose closure equals the serial
//!   closure (data partitioning with `AdoptAndReclose`); never a hang,
//!   never a poisoned panic;
//! * **corruption is skipped with a report**, not a crash.
//!
//! Every test body runs under a wall-clock guard so a termination bug
//! fails the test instead of hanging the suite.

// Tests assert on infallible setup; unwrap/expect failures are test failures.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar::prelude::*;
use owlpar::core::WorkerError;
use std::time::Duration;

/// Run `f` on a helper thread; panic if it does not finish in time.
/// A hang is exactly the failure mode a broken barrier/termination
/// protocol produces, so the guard converts it into a test failure.
fn with_timeout<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    use std::sync::mpsc::RecvTimeoutError;
    let (tx, rx) = std::sync::mpsc::channel();
    let h = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(v) => {
            let _ = h.join();
            v
        }
        // Sender dropped without sending: the body panicked — re-raise
        // its payload so the test reports the real assertion failure.
        Err(RecvTimeoutError::Disconnected) => match h.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => panic!("test body exited without producing a result"),
        },
        Err(RecvTimeoutError::Timeout) => {
            panic!("test body exceeded the 120s timeout guard (hang?)")
        }
    }
}

fn serial_closure(mut g: Graph) -> (u64, usize) {
    run_serial(&mut g, MaterializationStrategy::ForwardSemiNaive);
    (g.term_fingerprint(), g.len())
}

fn base_cfg(k: usize) -> ParallelConfig {
    ParallelConfig {
        k,
        ..ParallelConfig::default()
    }
    .forward()
    // Longer than any legitimate wait under test-suite contention, but
    // below the 120s guard: a stranded worker surfaces as a structured
    // BarrierTimeout in the report rather than a guard panic.
    .with_round_timeout(Duration::from_secs(60))
}

/// Closure preserved under transient send/collect IO faults, file
/// transport: every injected failure is below the retry budget, so the
/// run must absorb them all and report the retries in the stats.
#[test]
fn transient_io_faults_preserve_closure_shared_file() {
    with_timeout(|| {
        let g0 = generate_lubm(&LubmConfig::mini(2));
        let (want_fp, want_len) = serial_closure(g0.clone());
        let plan = FaultPlan::new()
            .with(0, 0, FaultKind::SendIo { failures: 2 })
            .with(0, 2, FaultKind::CollectIo { failures: 2 })
            .with(1, 1, FaultKind::SendIo { failures: 3 })
            .with(1, 0, FaultKind::CollectIo { failures: 1 });
        let cfg = ParallelConfig {
            comm: CommMode::SharedFile {
                dir: None,
                format: WireFormat::NTriples,
            },
            ..base_cfg(3)
        }
        .with_faults(plan);
        let mut g = g0.clone();
        let report = run_parallel(&mut g, &cfg).expect("transient faults absorbed");
        assert_eq!(g.len(), want_len, "closure size preserved");
        assert_eq!(g.term_fingerprint(), want_fp, "closure content preserved");
        assert!(report.worker_errors.is_empty());
        assert!(!report.recovered);
        let retries: usize = report.workers.iter().map(|w| w.io_retries).sum();
        assert!(retries >= 1, "injected failures went through the retry path");
    });
}

/// Same invariant on the channel transport (retry path is shared).
#[test]
fn transient_io_faults_preserve_closure_channel() {
    with_timeout(|| {
        let g0 = generate_lubm(&LubmConfig::mini(2));
        let (want_fp, want_len) = serial_closure(g0.clone());
        let plan = FaultPlan::new()
            .with(0, 0, FaultKind::SendIo { failures: 2 })
            .with(1, 1, FaultKind::SendIo { failures: 2 });
        let cfg = base_cfg(3).with_faults(plan);
        let mut g = g0.clone();
        let report = run_parallel(&mut g, &cfg).expect("transient faults absorbed");
        assert_eq!(g.len(), want_len);
        assert_eq!(g.term_fingerprint(), want_fp);
        assert!(report.worker_errors.is_empty());
    });
}

/// Delivery delays (and therefore reordering of arrivals across workers)
/// must not change the closure — the barrier protocol serializes rounds.
#[test]
fn delayed_and_reordered_delivery_preserves_closure() {
    with_timeout(|| {
        let g0 = generate_mdc(&MdcConfig::mini());
        let (want_fp, want_len) = serial_closure(g0.clone());
        let plan = FaultPlan::new()
            .with(0, 1, FaultKind::Delay { millis: 40 })
            .with(1, 3, FaultKind::Delay { millis: 25 })
            .with(2, 0, FaultKind::Delay { millis: 10 });
        let cfg = base_cfg(4).with_faults(plan);
        let mut g = g0.clone();
        let report = run_parallel(&mut g, &cfg).expect("delays are not failures");
        assert_eq!(g.len(), want_len);
        assert_eq!(g.term_fingerprint(), want_fp);
        assert!(report.worker_errors.is_empty());
    });
}

/// A scattered (seeded) plan of retryable faults across many coordinates:
/// deterministic, and still closure-preserving.
#[test]
fn scattered_transient_plan_preserves_closure() {
    with_timeout(|| {
        let g0 = generate_lubm(&LubmConfig::mini(2));
        let (want_fp, want_len) = serial_closure(g0.clone());
        let kinds = [
            FaultKind::SendIo { failures: 1 },
            FaultKind::CollectIo { failures: 1 },
            FaultKind::Delay { millis: 5 },
        ];
        let plan = FaultPlan::scattered(0xdecaf, 4, 3, &kinds, 9);
        let cfg = ParallelConfig {
            comm: CommMode::SharedFile {
                dir: None,
                format: WireFormat::Binary,
            },
            ..base_cfg(4)
        }
        .with_faults(plan);
        let mut g = g0.clone();
        run_parallel(&mut g, &cfg).expect("scattered transient faults absorbed");
        assert_eq!(g.len(), want_len);
        assert_eq!(g.term_fingerprint(), want_fp);
    });
}

/// Tentpole guarantee: a worker panicking at round r ≥ 1 under data
/// partitioning yields a *recovered* run whose closure equals the serial
/// closure — the master adopts the dead worker's partition (still held in
/// the input graph) and re-closes.
#[test]
fn worker_panic_round1_data_recovers_exact_closure() {
    with_timeout(|| {
        let g0 = generate_mdc(&MdcConfig::mini());
        let (want_fp, want_len) = serial_closure(g0.clone());
        let cfg = base_cfg(4).with_faults(FaultPlan::new().with(1, 2, FaultKind::Panic));
        let mut g = g0.clone();
        let report = run_parallel(&mut g, &cfg).expect("data partitioning recovers");
        assert!(report.recovered, "the panic must actually fire at round 1");
        assert!(report.worker_errors.iter().any(|e| matches!(
            e,
            WorkerError::Panicked { worker: 2, round: 1, .. }
        )));
        assert_eq!(report.workers.len(), 4, "lost worker keeps its stats slot");
        assert_eq!(g.len(), want_len, "recovered closure == serial closure");
        assert_eq!(g.term_fingerprint(), want_fp);
    });
}

/// Same crash over the file transport: survivors must not trip over the
/// dead worker's leftover message files.
#[test]
fn worker_panic_over_file_transport_recovers() {
    with_timeout(|| {
        let g0 = generate_mdc(&MdcConfig::mini());
        let (want_fp, want_len) = serial_closure(g0.clone());
        let cfg = ParallelConfig {
            comm: CommMode::SharedFile {
                dir: None,
                format: WireFormat::Binary,
            },
            ..base_cfg(4)
        }
        .with_faults(FaultPlan::new().with(1, 0, FaultKind::Panic));
        let mut g = g0.clone();
        let report = run_parallel(&mut g, &cfg).expect("data partitioning recovers");
        assert!(report.recovered);
        assert_eq!(g.len(), want_len);
        assert_eq!(g.term_fingerprint(), want_fp);
    });
}

/// Rule partitioning cannot adopt a lost rule partition (no surviving
/// worker runs those rules), so a panic must surface as a structured
/// `RunError::Workers` — not a hang, not a poisoned panic.
#[test]
fn worker_panic_rule_strategy_is_structured_error() {
    with_timeout(|| {
        let mut g = generate_lubm(&LubmConfig::mini(2));
        let cfg = ParallelConfig {
            strategy: PartitioningStrategy::rule(),
            ..base_cfg(3)
        }
        // round 0 always runs, independent of how fast rule mode quiesces
        .with_faults(FaultPlan::new().with(0, 1, FaultKind::Panic));
        let err = run_parallel(&mut g, &cfg).expect_err("rule strategy cannot recover");
        match err {
            RunError::Workers { errors } => {
                assert!(errors.iter().any(|e| matches!(
                    e,
                    WorkerError::Panicked { worker: 1, round: 0, .. }
                )));
            }
            other => panic!("expected Workers error, got: {other}"),
        }
    });
}

/// With recovery disabled the same data-partitioned crash is reported
/// instead of repaired.
#[test]
fn recovery_disabled_reports_structured_error() {
    with_timeout(|| {
        let mut g = generate_mdc(&MdcConfig::mini());
        let cfg = base_cfg(4)
            .with_recovery(FaultRecovery::Fail)
            .with_faults(FaultPlan::new().with(1, 3, FaultKind::Panic));
        let err = run_parallel(&mut g, &cfg).expect_err("recovery disabled");
        assert!(matches!(err, RunError::Workers { .. }));
        assert!(err.to_string().contains("worker 3"));
    });
}

/// Corrupted payloads are skipped with a report; the run completes and
/// surfaces the skip counts instead of crashing on a decode error — in
/// both message encodings, since both travel as one CRC frame.
#[test]
fn corruption_is_skipped_and_reported() {
    with_timeout(|| {
        // Both mangled messages must exist: round 0 has to send worker 1
        // something from workers 0 and 2. Rounds carry only triples a
        // rule joins, so LUBM (which joins only `subOrganizationOf`) may
        // send worker 1 nothing; MDC's transitive chains under hash
        // ownership send it triples from both in round 0.
        let g0 = generate_mdc(&MdcConfig::mini());
        for format in [WireFormat::NTriples, WireFormat::Binary] {
            let plan = FaultPlan::new()
                .with(0, 0, FaultKind::Corrupt { to: 1 })
                .with(0, 2, FaultKind::Truncate { to: 1 });
            let cfg = ParallelConfig {
                comm: CommMode::SharedFile { dir: None, format },
                strategy: PartitioningStrategy::data_hash(),
                ..base_cfg(3)
            }
            .with_faults(plan);
            let mut g = g0.clone();
            let report = run_parallel(&mut g, &cfg).expect("corruption does not kill the run");
            assert!(
                report.worker_errors.is_empty(),
                "{format:?}: no worker died"
            );
            // One report per mangled message: neither may deliver a
            // silent prefix.
            assert_eq!(
                report.total_skipped(),
                2,
                "{format:?}: dropped messages must be reported, not silent"
            );
        }
    });
}

/// One fault hook, at the start of a round: a panic or a delay pinned to
/// (round 1, worker 1) fires as that worker enters its second round, and
/// ends in exactly that typed error and the recovered closure, or in no
/// error at all.
#[test]
fn round_one_faults_fire_as_the_round_begins() {
    with_timeout(|| {
        let g0 = generate_mdc(&MdcConfig::mini());
        let (want_fp, want_len) = serial_closure(g0.clone());
        for kind in [FaultKind::Panic, FaultKind::Delay { millis: 30 }] {
            let cfg = base_cfg(4).with_faults(FaultPlan::new().with(1, 1, kind));
            let mut g = g0.clone();
            let report = run_parallel(&mut g, &cfg).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(g.len(), want_len, "{kind:?}");
            assert_eq!(g.term_fingerprint(), want_fp, "{kind:?}");
            assert_eq!(report.workers.len(), 4);
            if matches!(kind, FaultKind::Panic) {
                assert!(report.recovered, "the panic fires at round 1");
                assert!(
                    matches!(
                        report.worker_errors[..],
                        [WorkerError::Panicked {
                            worker: 1,
                            round: 1,
                            ..
                        }]
                    ),
                    "{:?}",
                    report.worker_errors
                );
                assert_eq!(
                    report.workers[1].rounds, 0,
                    "the lost worker's slot is blank"
                );
            } else {
                assert!(!report.recovered && report.worker_errors.is_empty());
                assert!(report.workers[1].rounds >= 2, "round 1 was entered");
            }
        }
    });
}

/// Determinism of the harness itself: the same seeded plan produces the
/// same outcome twice (same closure, same skip/retry profile).
#[test]
fn seeded_plans_are_reproducible() {
    with_timeout(|| {
        let g0 = generate_lubm(&LubmConfig::mini(2));
        let run = |g0: &Graph| {
            let plan = FaultPlan::scattered(
                7,
                3,
                2,
                &[FaultKind::SendIo { failures: 1 }, FaultKind::Delay { millis: 3 }],
                6,
            );
            let mut g = g0.clone();
            let report = run_parallel(&mut g, &base_cfg(3).with_faults(plan))
                .expect("transient plan");
            let retries: usize = report.workers.iter().map(|w| w.io_retries).sum();
            (g.term_fingerprint(), g.len(), retries)
        };
        let a = run(&g0);
        let b = run(&g0);
        assert_eq!(a, b, "same seed, same plan, same outcome");
    });
}
