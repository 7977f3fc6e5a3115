//! End-to-end tests for the TCP cluster runtime: closure equivalence
//! (TCP mesh ≡ channel transport ≡ serial) across generators and cluster
//! sizes, the bootstrap handshake's rejection paths, and mid-run
//! worker-loss recovery over real sockets.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_core::config::RoundMode;
use owlpar_core::master::resolve_materialization;
use owlpar_core::{
    digest128, prepare_run, read_crc_frame, run_parallel, run_serial, write_crc_frame, CommMode,
    FaultKind, FaultPlan, ParallelConfig, PartitioningStrategy, RunReport,
};
use owlpar_datagen::{generate_lubm, generate_mdc, LubmConfig, MdcConfig};
use owlpar_datalog::backward::TableScope;
use owlpar_datalog::MaterializationStrategy;
use owlpar_net::protocol::{
    decode_master_msg, decode_worker_msg, encode_master_msg, encode_setup_payload,
    encode_worker_msg, MasterMsg, Setup, SetupPayload, WireRouting, WireStats, WorkerMsg,
};
use owlpar_net::{
    run_cluster_master, run_cluster_worker, MasterOptions, NetError, TcpFabricFactory,
    WorkerOptions, WorkerSummary, PROTOCOL_VERSION, WIRE_MAGIC,
};
use owlpar_rdf::{is_sorted_run, Graph, Triple, TripleStore};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn serial_closure(mut g: Graph) -> (u64, usize) {
    run_serial(&mut g, MaterializationStrategy::ForwardSemiNaive);
    (g.term_fingerprint(), g.len())
}

fn forward_cfg(k: usize, strategy: PartitioningStrategy) -> ParallelConfig {
    ParallelConfig {
        k,
        strategy,
        ..ParallelConfig::default()
    }
    .forward()
}

/// The equivalence matrix as labelled configs: every partitioning
/// strategy (at the cluster size it runs at) × one engine of each kind a
/// worker can hold its partition for — serial forward (frozen, budget
/// 1), sharded forward (frozen, budget 2) and backward (thawed hash
/// store).
fn matrix() -> Vec<(String, ParallelConfig)> {
    let strategies = [
        ("data_graph", 2, PartitioningStrategy::data_graph()),
        ("hash", 3, PartitioningStrategy::data_hash()),
        ("rule", 2, PartitioningStrategy::rule()),
        ("hybrid", 4, PartitioningStrategy::Hybrid { rule_groups: 2 }),
    ];
    let engines = [
        ("semi-naive", MaterializationStrategy::ForwardSemiNaive),
        ("parallel", MaterializationStrategy::ForwardParallel { threads: 2 }),
        (
            "backward",
            MaterializationStrategy::BackwardPerResource(TableScope::PerQuery),
        ),
    ];
    let mut out = Vec::new();
    for (sname, k, strategy) in &strategies {
        for (ename, engine) in engines {
            let cfg = ParallelConfig {
                k: *k,
                strategy: strategy.clone(),
                materialization: engine,
                ..ParallelConfig::default()
            };
            out.push((format!("{sname}/{ename}"), cfg));
        }
    }
    out
}

/// Run a whole cluster inside this process: the master on the calling
/// thread with a bound listener, `k` workers on their own threads dialing
/// it over real loopback TCP — the same code paths the multi-process
/// binary exercises, minus `fork`.
fn run_cluster(
    g0: &Graph,
    cfg: &ParallelConfig,
) -> (
    Result<RunReport, NetError>,
    Graph,
    Vec<Result<WorkerSummary, NetError>>,
) {
    run_cluster_opts(g0, cfg, &MasterOptions::default(), &WorkerOptions::default())
}

fn run_cluster_opts(
    g0: &Graph,
    cfg: &ParallelConfig,
    master_opts: &MasterOptions,
    worker_opts: &WorkerOptions,
) -> (
    Result<RunReport, NetError>,
    Graph,
    Vec<Result<WorkerSummary, NetError>>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut g = g0.clone();
    let mut worker_results = Vec::new();
    let report = thread::scope(|s| {
        let workers: Vec<_> = (0..cfg.k)
            .map(|_| {
                let opts = worker_opts.clone();
                s.spawn(move || run_cluster_worker(addr, &opts))
            })
            .collect();
        let report = run_cluster_master(&mut g, cfg, listener, master_opts);
        for w in workers {
            worker_results.push(w.join().unwrap());
        }
        report
    });
    (report, g, worker_results)
}

/// The N-seed property: for every seed KB and every cluster size, the
/// closure computed through the in-process channel transport and through
/// the loopback TCP mesh both equal the serial closure, term for term.
#[test]
fn closure_equivalence_across_transports_and_seeds() {
    let seeds: Vec<(&str, Graph)> = vec![
        ("lubm-1", generate_lubm(&LubmConfig::mini(1))),
        ("lubm-2", generate_lubm(&LubmConfig::mini(2))),
        ("mdc", generate_mdc(&MdcConfig::mini())),
    ];
    for (name, g0) in seeds {
        let (want_fp, want_len) = serial_closure(g0.clone());
        for k in [2, 4] {
            for tcp in [false, true] {
                let mut cfg = forward_cfg(k, PartitioningStrategy::data_graph());
                if tcp {
                    cfg.comm = CommMode::Custom(Arc::new(TcpFabricFactory::default()));
                }
                let mut g = g0.clone();
                let report = run_parallel(&mut g, &cfg)
                    .unwrap_or_else(|e| panic!("{name} k={k} tcp={tcp}: {e}"));
                assert!(!report.recovered);
                assert_eq!(g.len(), want_len, "{name} k={k} tcp={tcp}");
                assert_eq!(g.term_fingerprint(), want_fp, "{name} k={k} tcp={tcp}");
            }
        }
    }
}

#[test]
fn cluster_processes_match_serial_data_graph() {
    let g0 = generate_lubm(&LubmConfig::mini(1));
    let (want_fp, want_len) = serial_closure(g0.clone());
    for k in [2, 4] {
        let cfg = forward_cfg(k, PartitioningStrategy::data_graph());
        let (report, g, workers) = run_cluster(&g0, &cfg);
        let report = report.unwrap_or_else(|e| panic!("k={k}: {e}"));
        assert!(!report.recovered);
        assert_eq!(report.k, k);
        assert_eq!(g.len(), want_len, "k={k}");
        assert_eq!(g.term_fingerprint(), want_fp, "k={k}");
        let mut ids: Vec<u32> = workers
            .iter()
            .map(|w| w.as_ref().unwrap().node_id)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..k as u32).collect::<Vec<_>>());
        for w in &workers {
            let w = w.as_ref().unwrap();
            assert_eq!(w.k as usize, k);
            assert!(w.rounds >= 1);
        }
    }
}

/// The fingerprint suite over the whole matrix: every strategy × every
/// engine, through the channel transport (barrier and async rounds), the
/// in-process TCP mesh and the multi-process star — each must land on
/// the serial closure, term for term. (Rule and hybrid partitioning ship
/// very different routing tables — consumer sets and group × shard grids
/// — and both must rebuild faithfully on the worker side.)
#[test]
fn tcp_channel_and_serial_agree_over_strategies_engines_and_round_modes() {
    let g0 = generate_lubm(&LubmConfig::mini(1));
    let (want_fp, want_len) = serial_closure(g0.clone());
    for (label, cfg) in matrix() {
        let check = |g: &Graph, how: &str| {
            assert_eq!(g.len(), want_len, "{label} {how}");
            assert_eq!(g.term_fingerprint(), want_fp, "{label} {how}");
        };
        for rounds in [RoundMode::Barrier, RoundMode::Async] {
            let mut g = g0.clone();
            let cfg = ParallelConfig { rounds, ..cfg.clone() };
            run_parallel(&mut g, &cfg).unwrap_or_else(|e| panic!("{label} {rounds:?}: {e}"));
            check(&g, &format!("channel {rounds:?}"));
        }
        let mut g = g0.clone();
        let mesh = ParallelConfig {
            comm: CommMode::Custom(Arc::new(TcpFabricFactory::default())),
            ..cfg.clone()
        };
        run_parallel(&mut g, &mesh).unwrap_or_else(|e| panic!("{label} mesh: {e}"));
        check(&g, "tcp mesh");
        let (report, g, workers) = run_cluster(&g0, &cfg);
        let report = report.unwrap_or_else(|e| panic!("{label} cluster: {e}"));
        assert!(!report.recovered, "{label}");
        check(&g, "cluster");
        for w in workers {
            w.unwrap_or_else(|e| panic!("{label} worker: {e}"));
        }
    }
}

/// What one worker of a hand-driven run was shipped and sent back.
struct HandDriven {
    /// Schema ∪ base partition, as shipped in `Setup`.
    shipped: Vec<Triple>,
    /// The reassembled `FinalChunk* Final` stream, in arrival order.
    run: Vec<Triple>,
    /// Triples per final frame, in arrival order (the last is `Final`).
    frame_triples: Vec<usize>,
    stats: WireStats,
}

/// A master written out by hand: it plans with [`prepare_run`] like the
/// real one, then speaks the protocol frame by frame to real
/// [`run_cluster_worker`]s and hands every worker's final stream back
/// undigested, so the tests can look at exactly what crossed the wire.
/// Returns the master graph with the runs added, and the per-worker
/// record.
fn hand_driven_cluster(g0: &Graph, cfg: &ParallelConfig, chunk_triples: usize) -> (Graph, Vec<HandDriven>) {
    let mut g = g0.clone();
    let plan = prepare_run(&mut g, cfg).expect("plan");
    let k = plan.k;
    let n_terms = g.dict.len() as u32;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let worker_opts = WorkerOptions {
        chunk_triples,
        ..WorkerOptions::default()
    };
    let mut records = Vec::new();
    thread::scope(|s| {
        let workers: Vec<_> = (0..k)
            .map(|_| {
                let opts = worker_opts.clone();
                s.spawn(move || run_cluster_worker(addr, &opts))
            })
            .collect();

        // handshake + setup
        let mut streams = Vec::new();
        for id in 0..k {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
            let hello = decode_worker_msg(&read_crc_frame(&mut stream).unwrap(), u32::MAX).unwrap();
            assert_eq!(
                hello,
                WorkerMsg::Hello {
                    magic: WIRE_MAGIC,
                    version: PROTOCOL_VERSION
                }
            );
            let welcome = MasterMsg::Welcome {
                node_id: id as u32,
                k: k as u32,
                epoch: 7,
                trace: false,
            };
            write_crc_frame(&mut stream, &encode_master_msg(&welcome)).unwrap();
            let advert = decode_worker_msg(&read_crc_frame(&mut stream).unwrap(), u32::MAX).unwrap();
            assert!(matches!(advert, WorkerMsg::CacheAdvert { .. }));
            let payload = SetupPayload {
                n_terms,
                materialization: resolve_materialization(cfg.materialization, k),
                schema: plan.schema.clone(),
                base: plan.bases[id].clone(),
                all_rules: plan.all_rules.clone(),
                my_rules: plan.rules_per_worker[id].clone(),
                routing: WireRouting::from(&plan.routing[id]),
            };
            let blob = encode_setup_payload(&payload);
            let setup = Setup {
                input_digest: plan.input_digest,
                config_digest: [0; 16],
                payload_digest: digest128(&blob),
                round_timeout_ms: 120_000,
                faults: Vec::new(),
                payload: Some(blob),
            };
            write_crc_frame(&mut stream, &encode_master_msg(&MasterMsg::Setup(Box::new(setup)))).unwrap();
            streams.push(stream);
        }

        // rounds: relay until a round in which nobody sent anything
        let mut round = 0u32;
        loop {
            let mut inboxes: Vec<Vec<Triple>> = vec![Vec::new(); k];
            let mut round_sent = 0u64;
            for stream in &mut streams {
                loop {
                    match decode_worker_msg(&read_crc_frame(stream).unwrap(), n_terms).unwrap() {
                        WorkerMsg::Triples { to, batch } => inboxes[to as usize].extend(batch),
                        WorkerMsg::RoundDone { round: r, sent } => {
                            assert_eq!(r, round);
                            round_sent += sent;
                            break;
                        }
                        other => panic!("unexpected frame in round {round}: {other:?}"),
                    }
                }
            }
            let stop = round_sent == 0;
            for (stream, inbox) in streams.iter_mut().zip(inboxes) {
                let deliver = MasterMsg::Deliver {
                    round,
                    stop,
                    triples: inbox,
                };
                write_crc_frame(stream, &encode_master_msg(&deliver)).unwrap();
            }
            if stop {
                break;
            }
            round += 1;
        }

        // finals
        for (id, stream) in streams.iter_mut().enumerate() {
            let mut run = Vec::new();
            let mut frame_triples = Vec::new();
            let mut next_seq = 0;
            let stats = loop {
                match decode_worker_msg(&read_crc_frame(stream).unwrap(), n_terms).unwrap() {
                    WorkerMsg::FinalChunk { seq, batch } => {
                        assert_eq!(seq, next_seq, "worker {id}");
                        next_seq += 1;
                        frame_triples.push(batch.len());
                        run.extend(batch);
                    }
                    WorkerMsg::Final { stats, run: tail } => {
                        frame_triples.push(tail.len());
                        run.extend(tail);
                        break stats;
                    }
                    other => panic!("unexpected frame after stop: {other:?}"),
                }
            };
            let mut shipped = plan.schema.clone();
            shipped.extend_from_slice(&plan.bases[id]);
            records.push(HandDriven {
                shipped,
                run,
                frame_triples,
                stats,
            });
        }
        for w in workers {
            let summary = w.join().unwrap().expect("worker finishes cleanly");
            let rec = &records[summary.node_id as usize];
            assert_eq!(summary.store_len as u64, rec.stats.output_size);
            assert_eq!(summary.epoch, 7);
        }
    });
    for rec in &records {
        g.store.extend(rec.run.iter().copied());
    }
    (g, records)
}

/// What crosses the wire at the end of a run, frame by frame, for every
/// strategy × engine: each worker's `FinalChunk* Final` stream is one
/// strictly SPO-ascending run (across the seams of 5-triple chunks),
/// shares nothing with the partition that worker was shipped, accounts
/// exactly for the growth of its store, and the master graph plus the
/// runs is the serial closure.
#[test]
fn final_streams_are_sorted_derived_only_and_complete() {
    let g0 = generate_lubm(&LubmConfig::mini(1));
    let (want_fp, want_len) = serial_closure(g0.clone());
    for (label, cfg) in matrix() {
        let (g, records) = hand_driven_cluster(&g0, &cfg, 5);
        assert_eq!(records.len(), cfg.k);
        let mut chunked = false;
        for (id, rec) in records.iter().enumerate() {
            assert!(is_sorted_run(&rec.run), "{label} worker {id}: run not ascending");
            assert!(rec.frame_triples.iter().all(|&n| n <= 5), "{label}");
            chunked |= rec.frame_triples.len() > 1;
            let shipped: TripleStore = rec.shipped.iter().copied().collect();
            assert_eq!(shipped.len(), rec.shipped.len(), "schema and base are disjoint");
            assert!(
                rec.run.iter().all(|t| !shipped.contains(t)),
                "{label} worker {id}: run re-ships its partition"
            );
            assert_eq!(
                rec.stats.output_size as usize,
                rec.shipped.len() + rec.run.len(),
                "{label} worker {id}"
            );
        }
        assert!(chunked, "{label}: 5-triple chunks must split some final stream");
        assert_eq!(g.len(), want_len, "{label}");
        assert_eq!(g.term_fingerprint(), want_fp, "{label}");
    }
}

/// A worker with nothing to derive and nothing delivered sends a
/// zero-triple `Final` (no chunks), reports its store as exactly what it
/// was shipped, and the run still aggregates to the serial closure.
#[test]
fn worker_with_nothing_to_add_sends_an_empty_final() {
    let mut g0 = Graph::new();
    g0.insert_iris("http://x/a", "http://x/p", "http://x/b");
    g0.insert_iris("http://x/c", "http://x/p", "http://x/d");
    let (want_fp, want_len) = serial_closure(g0.clone());
    assert_eq!(want_len, g0.len(), "nothing is derivable from this KB");
    let cfg = forward_cfg(3, PartitioningStrategy::data_hash());
    let (g, records) = hand_driven_cluster(&g0, &cfg, 5);
    for rec in &records {
        assert!(rec.run.is_empty());
        assert_eq!(rec.frame_triples, [0], "one Final frame, no chunks");
        assert_eq!(rec.stats.output_size as usize, rec.shipped.len());
    }
    assert_eq!((g.term_fingerprint(), g.len()), (want_fp, want_len));
    // and through the real master
    let (report, g, _) = run_cluster(&g0, &cfg);
    let report = report.expect("run");
    assert_eq!(report.derived, 0);
    assert_eq!(report.wire.expect("wire").finals.triples, 0);
    assert_eq!((g.term_fingerprint(), g.len()), (want_fp, want_len));
}

/// Many rounds: hash ownership scatters MDC's transitive containment
/// chains over four workers, so closing them takes a relay of deliveries
/// — every worker absorbs round after round into its overlay, and at
/// this size the overlays outgrow the fold bound and are merged into the
/// frozen base mid-run. In-process (barrier and async) and over TCP.
#[test]
fn many_round_transitive_chains_absorb_and_fold() {
    let g0 = generate_mdc(&MdcConfig {
        fields: 2,
        wells_per_field: 6,
        equipment_chain: 40,
        sensors_per_equipment: 1,
        measurements_per_sensor: 1,
        ..MdcConfig::default()
    });
    let (want_fp, want_len) = serial_closure(g0.clone());
    let cfg = forward_cfg(4, PartitioningStrategy::data_hash());
    for rounds in [RoundMode::Barrier, RoundMode::Async] {
        let mut g = g0.clone();
        let cfg = ParallelConfig { rounds, ..cfg.clone() };
        let report = run_parallel(&mut g, &cfg).expect("in-process run");
        if rounds == RoundMode::Barrier {
            assert!(report.max_rounds() >= 4, "only {} rounds", report.max_rounds());
            let received = report.workers.iter().map(|w| w.received).max().unwrap();
            // deliveries land in the overlay, which folds past
            // max(4096, base / 4); bases here are under 14 000 triples
            assert!(received > 2 * 4096, "at most {received} delivered to a worker: no folds");
        }
        assert_eq!((g.term_fingerprint(), g.len()), (want_fp, want_len), "{rounds:?}");
    }
    let (report, g, workers) = run_cluster(&g0, &cfg);
    let report = report.expect("cluster run");
    assert!(report.max_rounds() >= 4);
    assert_eq!((g.term_fingerprint(), g.len()), (want_fp, want_len));
    for w in workers {
        w.expect("worker");
    }
}

/// A worker executing an injected `Disconnect` mid-run must surface as a
/// typed error on its side, and the master must detect the loss, drain
/// the survivors, and re-close to the exact serial closure.
#[test]
fn mid_run_disconnect_recovers_to_serial_closure() {
    let g0 = generate_mdc(&MdcConfig::mini());
    let (want_fp, want_len) = serial_closure(g0.clone());
    let cfg = forward_cfg(4, PartitioningStrategy::data_graph())
        .with_round_timeout(Duration::from_secs(120))
        .with_faults(FaultPlan::new().with(1, 2, FaultKind::Disconnect));
    let (report, g, workers) = run_cluster(&g0, &cfg);
    let report = report.expect("master recovers from the lost worker");
    assert!(report.recovered, "disconnect at round 1 triggers recovery");
    assert_eq!(report.worker_errors.len(), 1);
    assert_eq!(report.workers.len(), 4, "dead worker keeps its stats slot");
    assert_eq!(g.len(), want_len);
    assert_eq!(g.term_fingerprint(), want_fp);
    let injected: Vec<_> = workers
        .iter()
        .filter(|w| matches!(w, Err(NetError::Injected { round: 1, kind: "disconnect" })))
        .collect();
    assert_eq!(injected.len(), 1, "exactly the faulted worker errors");
    assert_eq!(
        workers.iter().filter(|w| w.is_ok()).count(),
        3,
        "survivors finish cleanly"
    );
}

/// The cluster link's fault hook, every kind it ships: a worker that
/// panics or disconnects at round 1 reports the typed injected error, the
/// master sees a dead connection and recovers the exact closure; a
/// delayed worker loses nothing.
#[test]
fn round_one_faults_through_the_cluster_link() {
    let g0 = generate_mdc(&MdcConfig::mini());
    let (want_fp, want_len) = serial_closure(g0.clone());
    for (kind, name) in [
        (FaultKind::Panic, Some("panic")),
        (FaultKind::Disconnect, Some("disconnect")),
        (FaultKind::Delay { millis: 30 }, None),
    ] {
        let cfg = forward_cfg(4, PartitioningStrategy::data_graph())
            .with_round_timeout(Duration::from_secs(120))
            .with_faults(FaultPlan::new().with(1, 1, kind));
        let (report, g, workers) = run_cluster(&g0, &cfg);
        let report = report.unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert_eq!(g.len(), want_len, "{kind:?}");
        assert_eq!(g.term_fingerprint(), want_fp, "{kind:?}");
        assert_eq!(report.workers.len(), 4);
        let injected = workers
            .iter()
            .filter(
                |w| matches!(w, Err(NetError::Injected { round: 1, kind: k }) if Some(*k) == name),
            )
            .count();
        match name {
            Some(_) => {
                assert!(report.recovered, "{kind:?} at round 1 triggers recovery");
                assert!(
                    matches!(
                        report.worker_errors[..],
                        [owlpar_core::WorkerError::Comm { worker: 1, .. }]
                    ),
                    "{kind:?}: {:?}",
                    report.worker_errors
                );
                assert_eq!(injected, 1, "{kind:?}: exactly the faulted worker errors");
                assert_eq!(workers.iter().filter(|w| w.is_ok()).count(), 3);
            }
            None => {
                assert!(!report.recovered && report.worker_errors.is_empty());
                assert!(workers.iter().all(Result::is_ok));
            }
        }
    }
}

/// A worker speaking the wrong protocol version is told why (Reject) and
/// the master refuses to start — bootstrap is all-or-nothing.
#[test]
fn handshake_version_mismatch_is_rejected() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut g = generate_lubm(&LubmConfig::mini(1));
    let cfg = forward_cfg(1, PartitioningStrategy::data_graph());
    let master = thread::spawn(move || {
        run_cluster_master(&mut g, &cfg, listener, &MasterOptions::default())
    });

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let hello = encode_worker_msg(&WorkerMsg::Hello {
        magic: WIRE_MAGIC,
        version: PROTOCOL_VERSION + 99,
    });
    owlpar_core::write_crc_frame(&mut stream, &hello).unwrap();
    let body = read_crc_frame(&mut stream).unwrap();
    match decode_master_msg(&body, u32::MAX).unwrap() {
        MasterMsg::Reject { reason } => {
            assert!(reason.contains("version"), "{reason}");
        }
        other => panic!("expected Reject, got {other:?}"),
    }
    let err = master.join().unwrap().unwrap_err();
    assert!(matches!(err, NetError::Handshake { .. }), "{err}");
}

/// A torn frame (payload bytes flipped under the CRC) is detected before
/// any of it is interpreted; the master refuses the worker.
#[test]
fn torn_handshake_frame_is_rejected() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut g = generate_lubm(&LubmConfig::mini(1));
    let cfg = forward_cfg(1, PartitioningStrategy::data_graph());
    let master = thread::spawn(move || {
        run_cluster_master(&mut g, &cfg, listener, &MasterOptions::default())
    });

    let mut stream = TcpStream::connect(addr).unwrap();
    let hello = encode_worker_msg(&WorkerMsg::Hello {
        magic: WIRE_MAGIC,
        version: PROTOCOL_VERSION,
    });
    let mut framed = Vec::new();
    owlpar_core::write_crc_frame(&mut framed, &hello).unwrap();
    let last = framed.len() - 1;
    framed[last] ^= 0xFF; // tear the payload under the checksum
    stream.write_all(&framed).unwrap();
    stream.flush().unwrap();

    let err = master.join().unwrap().unwrap_err();
    assert!(
        matches!(err, NetError::Frame(_)),
        "CRC damage surfaces as a frame error, got: {err}"
    );
}

/// End-to-end partition caching: the first run over a KB ships every
/// worker its full `SetupPayload` (all misses); a second run against the
/// same cache directory ships digests only (all hits), spending less
/// than 1% of the cold run's setup bytes — and both closures equal the
/// serial oracle exactly.
#[test]
fn second_run_ships_digest_only_setups() {
    let g0 = generate_lubm(&LubmConfig::mini(22));
    let (want_fp, want_len) = serial_closure(g0.clone());
    let cache_dir = std::env::temp_dir().join(format!(
        "owlpar-cluster-test-cache-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let worker_opts = WorkerOptions {
        cache_dir: Some(cache_dir.clone()),
        ..WorkerOptions::default()
    };
    let k = 2;
    let cfg = forward_cfg(k, PartitioningStrategy::data_graph());

    let (cold, g_cold, _) =
        run_cluster_opts(&g0, &cfg, &MasterOptions::default(), &worker_opts);
    let cold = cold.expect("cold run").wire.expect("wire stats");
    assert_eq!(cold.cache_misses, k as u64, "first run misses everywhere");
    assert_eq!(cold.cache_hits, 0);
    assert_eq!((g_cold.term_fingerprint(), g_cold.len()), (want_fp, want_len));

    let (warm, g_warm, _) =
        run_cluster_opts(&g0, &cfg, &MasterOptions::default(), &worker_opts);
    let warm = warm.expect("warm run").wire.expect("wire stats");
    assert_eq!(warm.cache_hits, k as u64, "second run hits everywhere");
    assert_eq!(warm.cache_misses, 0);
    assert_eq!((g_warm.term_fingerprint(), g_warm.len()), (want_fp, want_len));
    assert!(
        warm.setup.bytes * 100 < cold.setup.bytes,
        "digest-only setups ({} B) must be <1% of full setups ({} B)",
        warm.setup.bytes,
        cold.setup.bytes
    );
    assert!(warm.setup.triples == 0, "no partition triples re-shipped");
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// With the chunk cap lowered to a test-size 16 triples, `Final` stores
/// and round deliveries stream as many bounded frames instead of one
/// huge frame each — the mechanism that lifts the 64 MB payload cap —
/// and the closure is byte-identical to serial.
#[test]
fn chunked_streaming_at_tiny_cap_preserves_closure() {
    let g0 = generate_lubm(&LubmConfig::mini(2));
    let (want_fp, want_len) = serial_closure(g0.clone());
    let k = 2;
    let cfg = forward_cfg(k, PartitioningStrategy::data_graph());
    let master_opts = MasterOptions {
        chunk_triples: 16,
        ..MasterOptions::default()
    };
    let worker_opts = WorkerOptions {
        chunk_triples: 16,
        ..WorkerOptions::default()
    };
    let (report, g, workers) = run_cluster_opts(&g0, &cfg, &master_opts, &worker_opts);
    let report = report.expect("chunked run");
    assert!(!report.recovered);
    assert_eq!(g.len(), want_len);
    assert_eq!(g.term_fingerprint(), want_fp);
    for w in workers {
        w.expect("worker");
    }
    let wire = report.wire.expect("wire stats");
    assert!(
        wire.finals.frames > 2 * k as u64,
        "final stores of {} triples at a 16-triple cap must stream as \
         chunk sequences, saw {} frame(s)",
        wire.finals.triples,
        wire.finals.frames
    );
}

/// Version skew, new-worker direction: a v3 master answers this worker's
/// (v4) `Hello` with a `Reject` naming both versions. That must surface
/// worker-side as a typed handshake error carrying the reason — not a
/// decode failure or a hang — and the worker must send nothing more: the
/// master's next read is the end of the stream.
#[test]
fn worker_surfaces_reject_as_typed_handshake_error_and_goes_quiet() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stub = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let hello = decode_worker_msg(&read_crc_frame(&mut stream).unwrap(), u32::MAX).unwrap();
        let WorkerMsg::Hello { magic, version } = hello else {
            panic!("expected Hello, got {hello:?}");
        };
        assert_eq!((magic, version), (WIRE_MAGIC, PROTOCOL_VERSION));
        // what a v3 master's accept path says to a version it cannot serve
        let reject = encode_master_msg(&MasterMsg::Reject {
            reason: format!(
                "incompatible hello: magic {magic:#010x} version {version}, \
                 this master speaks {WIRE_MAGIC:#010x} version 3"
            ),
        });
        write_crc_frame(&mut stream, &reject).unwrap();
        // no CacheAdvert, no second Hello: the worker hung up
        read_crc_frame(&mut stream).is_err()
    });
    let err = run_cluster_worker(addr, &WorkerOptions::default()).unwrap_err();
    assert!(stub.join().unwrap(), "the worker kept talking after the Reject");
    match err {
        NetError::Handshake { detail } => {
            assert!(
                detail.contains(&format!("version {PROTOCOL_VERSION}")) && detail.contains("version 3"),
                "{detail}"
            );
        }
        other => panic!("expected a typed handshake error, got {other}"),
    }
}

/// Version skew, old-worker direction: a peer that opens with an older
/// `Hello` (same frozen byte layout; v1, and v3 — the last version whose
/// `Final` meant "my whole store") gets a typed `Reject` naming both
/// versions and then nothing: no `Welcome`, no `Setup`, just the end of
/// the stream. The master's graph is left untouched.
#[test]
fn stale_hello_gets_typed_reject_then_silence_and_graph_is_unchanged() {
    for stale in [1, 3] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let g0 = generate_lubm(&LubmConfig::mini(1));
        let mut g = g0.clone();
        let cfg = forward_cfg(1, PartitioningStrategy::data_graph());
        let master = thread::spawn(move || {
            let r = run_cluster_master(&mut g, &cfg, listener, &MasterOptions::default());
            (r, g)
        });

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let hello = encode_worker_msg(&WorkerMsg::Hello {
            magic: WIRE_MAGIC,
            version: stale,
        });
        write_crc_frame(&mut stream, &hello).unwrap();
        let body = read_crc_frame(&mut stream).unwrap();
        match decode_master_msg(&body, u32::MAX).unwrap() {
            MasterMsg::Reject { reason } => {
                assert!(
                    reason.contains(&format!("version {stale},"))
                        && reason.contains(&format!("version {PROTOCOL_VERSION}")),
                    "{reason}"
                );
            }
            other => panic!("expected Reject, got {other:?}"),
        }
        let (result, g) = master.join().unwrap();
        assert!(matches!(result, Err(NetError::Handshake { .. })));
        assert!(
            read_crc_frame(&mut stream).is_err(),
            "v{stale}: the master sent something after its Reject"
        );
        assert_eq!(g.len(), g0.len(), "no partial partitions applied");
        assert_eq!(g.term_fingerprint(), g0.term_fingerprint());
    }
}

/// The rejected run must leave the master's graph untouched (no partial
/// partitions applied) — callers can retry with a fixed worker fleet.
#[test]
fn failed_bootstrap_leaves_graph_unchanged() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let g0 = generate_lubm(&LubmConfig::mini(1));
    let mut g = g0.clone();
    let cfg = forward_cfg(1, PartitioningStrategy::data_graph());
    let master = thread::spawn({
        let opts = MasterOptions::default();
        move || {
            let r = run_cluster_master(&mut g, &cfg, listener, &opts);
            (r, g)
        }
    });
    // Dial and vanish without a Hello: the master sees EOF mid-handshake.
    drop(TcpStream::connect(addr).unwrap());
    let (result, g) = master.join().unwrap();
    assert!(result.is_err());
    assert_eq!(g.len(), g0.len());
    assert_eq!(g.term_fingerprint(), g0.term_fingerprint());
}
