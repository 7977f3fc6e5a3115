//! End-to-end tests for the TCP cluster runtime: closure equivalence
//! (TCP mesh ≡ channel transport ≡ serial) across generators and cluster
//! sizes, deterministic `Setup` bytes, the bootstrap handshake's
//! rejection paths, a damaged `Setup`, a mesh that cannot form, and
//! mid-run worker-loss recovery over real sockets.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_core::master::resolve_materialization;
use owlpar_core::{
    encode_triple_block, prepare_run, read_crc_frame, run_parallel, run_serial, write_crc_frame,
    CommMode, FaultKind, FaultPlan, FrameError, ParallelConfig, PartitioningStrategy, RunPlan,
    RunReport,
};
use owlpar_datagen::{
    generate_lubm, generate_mdc, generate_uobm, LubmConfig, MdcConfig, UobmConfig,
};
use owlpar_datalog::backward::TableScope;
use owlpar_datalog::MaterializationStrategy;
use owlpar_net::protocol::{
    decode_master_msg, decode_worker_msg, encode_master_msg, encode_worker_msg, MasterMsg, Setup,
    WireRouting, WireStats, WorkerMsg,
};
use owlpar_net::{
    run_cluster_master, run_cluster_worker, MasterOptions, NetError, TcpFabricFactory,
    WorkerOptions, WorkerSummary, PROTOCOL_VERSION, WIRE_MAGIC,
};
use owlpar_rdf::{is_sorted_run, Graph, Triple, TripleStore};
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

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
/// engine, through the channel transport, the in-process TCP mesh and
/// the multi-process cluster — each must land on the serial closure,
/// term for term. (Data and rule partitioning ship very different
/// routing tables — an ownership map and a rule assignment — and both
/// must rebuild faithfully on the worker side.)
#[test]
fn tcp_channel_and_serial_agree_over_strategies_and_engines() {
    let g0 = generate_lubm(&LubmConfig::mini(1));
    let (want_fp, want_len) = serial_closure(g0.clone());
    for (label, cfg) in matrix() {
        let check = |g: &Graph, how: &str| {
            assert_eq!(g.len(), want_len, "{label} {how}");
            assert_eq!(g.term_fingerprint(), want_fp, "{label} {how}");
        };
        let mut g = g0.clone();
        run_parallel(&mut g, &cfg).unwrap_or_else(|e| panic!("{label} channel: {e}"));
        check(&g, "channel");
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

/// Worker `id`'s `Setup` for `plan`, as the master builds it.
fn setup_for(
    g: &Graph,
    cfg: &ParallelConfig,
    plan: &RunPlan,
    id: usize,
    peers: Vec<(u32, SocketAddr)>,
) -> Setup {
    Setup {
        round_timeout_ms: 120_000,
        faults: Vec::new(),
        peers,
        n_terms: g.dict.len() as u32,
        materialization: resolve_materialization(cfg.materialization, plan.k),
        schema: plan.schema.clone(),
        base: plan.bases[id].clone(),
        all_rules: plan.all_rules.clone(),
        my_rules: plan.rules_per_worker[id].clone(),
        routing: WireRouting::from(&*plan.routing),
    }
}

/// Read a worker's `Hello`, answer `Welcome` naming it `node_id` of `k`,
/// and return the mesh port its `Ready` carries.
fn hand_handshake(stream: &mut TcpStream, node_id: u32, k: u32) -> u16 {
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let hello = decode_worker_msg(&read_crc_frame(stream).unwrap(), u32::MAX).unwrap();
    assert_eq!(
        hello,
        WorkerMsg::Hello {
            magic: WIRE_MAGIC,
            version: PROTOCOL_VERSION
        }
    );
    let welcome = MasterMsg::Welcome {
        node_id,
        k,
        epoch: 7,
        trace: false,
    };
    write_crc_frame(stream, &encode_master_msg(&welcome)).unwrap();
    match decode_worker_msg(&read_crc_frame(stream).unwrap(), u32::MAX).unwrap() {
        WorkerMsg::Ready { mesh_port } => mesh_port,
        other => panic!("expected Ready, got {other:?}"),
    }
}

/// Accept `plan.k` workers and speak the bootstrap to each by hand:
/// `Hello → Welcome → Ready`, then — once every mesh port is in —
/// a `Setup` with the worker's partition and the peer table, built from
/// each connection's address and advertised port and passed through
/// `edit_peers(id, table)` on its way to worker `id`.
fn hand_bootstrap(
    listener: &TcpListener,
    g: &Graph,
    cfg: &ParallelConfig,
    plan: &RunPlan,
    edit_peers: impl Fn(usize, &mut [(u32, SocketAddr)]),
) -> Vec<TcpStream> {
    let k = plan.k;
    let mut streams = Vec::new();
    let mut peers = Vec::new();
    for id in 0..k {
        let (mut stream, _) = listener.accept().unwrap();
        let mesh_port = hand_handshake(&mut stream, id as u32, k as u32);
        let ip = stream.peer_addr().unwrap().ip();
        peers.push((id as u32, SocketAddr::new(ip, mesh_port)));
        streams.push(stream);
    }
    for (id, stream) in streams.iter_mut().enumerate() {
        let mut table = peers.clone();
        edit_peers(id, &mut table);
        let setup = setup_for(g, cfg, plan, id, table);
        write_crc_frame(
            stream,
            &encode_master_msg(&MasterMsg::Setup(Box::new(setup))),
        )
        .unwrap();
    }
    streams
}

/// A master written out by hand: it plans with [`prepare_run`] like the
/// real one, then speaks the protocol frame by frame to real
/// [`run_cluster_worker`]s — answering each round's `RoundDone`s with a
/// `Verdict` while the triples move over the workers' mesh — and hands
/// every worker's final stream back undigested, so the tests can look at
/// exactly what crossed the wire. Returns the master graph with the runs
/// added, and the per-worker record.
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
        let mut streams = hand_bootstrap(&listener, &g, cfg, &plan, |_, _| {});

        // rounds: vote until a round in which nobody sent anything
        let mut round = 0u32;
        loop {
            let mut round_sent = 0u64;
            for stream in &mut streams {
                match decode_worker_msg(&read_crc_frame(stream).unwrap(), n_terms).unwrap() {
                    WorkerMsg::RoundDone { round: r, sent } => {
                        assert_eq!(r, round);
                        round_sent += sent;
                    }
                    other => panic!("unexpected frame in round {round}: {other:?}"),
                }
            }
            let stop = round_sent == 0;
            for stream in &mut streams {
                let verdict = MasterMsg::Verdict { round, stop };
                write_crc_frame(stream, &encode_master_msg(&verdict)).unwrap();
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

/// A worker told a closed port for its peer cannot join the mesh, and
/// neither can the peer waiting for it: both end in a typed mesh error
/// within their connect timeout instead of hanging in round 0.
#[test]
fn a_peer_at_a_closed_port_fails_both_ends_within_the_connect_timeout() {
    let g0 = generate_lubm(&LubmConfig::mini(1));
    let cfg = forward_cfg(2, PartitioningStrategy::data_graph());
    let mut g = g0.clone();
    let plan = prepare_run(&mut g, &cfg).expect("plan");
    let closed = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let patience = Duration::from_secs(2);
    let opts = WorkerOptions {
        connect_timeout: patience,
        ..WorkerOptions::default()
    };
    thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let opts = opts.clone();
                s.spawn(move || {
                    let t0 = Instant::now();
                    (run_cluster_worker(addr, &opts), t0.elapsed())
                })
            })
            .collect();
        // worker 1 is told worker 0 listens at the closed port
        let _streams = hand_bootstrap(&listener, &g, &cfg, &plan, |id, table| {
            if id == 1 {
                table
                    .iter_mut()
                    .filter(|(w, _)| *w == 0)
                    .for_each(|e| e.1 = closed);
            }
        });
        for w in workers {
            let (result, took) = w.join().unwrap();
            let err = result.expect_err("a worker joined a mesh that cannot form");
            assert!(matches!(err, NetError::Worker(_)), "{err}");
            assert!(took < patience * 3, "gave up after {took:?}");
        }
    });
}

/// Many rounds: hash ownership scatters MDC's transitive containment
/// chains over four workers, so closing them takes round after round of
/// exchange — every worker absorbs them into its overlay, and at
/// this size the overlays outgrow the fold bound and are merged into the
/// frozen base mid-run. In-process and over TCP.
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
    let mut g = g0.clone();
    let report = run_parallel(&mut g, &cfg).expect("in-process run");
    assert!(report.max_rounds() >= 4, "only {} rounds", report.max_rounds());
    let received = report.workers.iter().map(|w| w.received).max().unwrap();
    // deliveries land in the overlay, which folds past
    // max(4096, base / 4); bases here are under 14 000 triples
    assert!(received > 2 * 4096, "at most {received} delivered to a worker: no folds");
    assert_eq!((g.term_fingerprint(), g.len()), (want_fp, want_len));
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
    match decode_master_msg(&body).unwrap() {
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

/// Partitioning is deterministic: two plans of the same KB under the
/// same config ship every worker byte-identical `Setup` frames, for every
/// strategy name at k ∈ {2, 4}.
#[test]
fn two_plans_of_one_kb_ship_byte_identical_setups() {
    let g0 = generate_lubm(&LubmConfig::mini(2));
    for name in ["graph", "hash", "domain", "rule", "auto"] {
        for k in [2, 4] {
            let cfg = forward_cfg(k, PartitioningStrategy::from_name(name).unwrap());
            let peers: Vec<(u32, SocketAddr)> = (0..k as u32)
                .map(|id| (id, SocketAddr::from(([127, 0, 0, 1], 7000 + id as u16))))
                .collect();
            let [first, second] = [0, 1].map(|_| {
                let mut g = g0.clone();
                let plan =
                    prepare_run(&mut g, &cfg).unwrap_or_else(|e| panic!("{name} k={k}: {e}"));
                (0..k)
                    .map(|id| {
                        let setup = setup_for(&g, &cfg, &plan, id, peers.clone());
                        encode_master_msg(&MasterMsg::Setup(Box::new(setup)))
                    })
                    .collect::<Vec<_>>()
            });
            for (id, (a, b)) in first.iter().zip(&second).enumerate() {
                assert!(
                    a == b,
                    "{name} k={k}: worker {id}'s Setup differs between two plans"
                );
            }
        }
    }
}

/// A `Setup` damaged in flight is refused by the frame's CRC alone, and
/// one cut short by the end of the stream: either way the worker returns
/// a typed frame error within its connect timeout and never dials the
/// mesh peer the table names.
#[test]
fn damaged_setup_is_refused_before_the_worker_dials_a_peer() {
    let g0 = generate_lubm(&LubmConfig::mini(1));
    let cfg = forward_cfg(2, PartitioningStrategy::data_graph());
    let mut g = g0.clone();
    let plan = prepare_run(&mut g, &cfg).expect("plan");
    let patience = Duration::from_secs(5);
    let opts = WorkerOptions {
        connect_timeout: patience,
        ..WorkerOptions::default()
    };
    for cut_short in [false, true] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Worker 0's mesh listener: worker 1 would dial it to join.
        let peer0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let worker = thread::spawn({
            let opts = opts.clone();
            move || {
                let t0 = Instant::now();
                (run_cluster_worker(addr, &opts), t0.elapsed())
            }
        });
        let (mut stream, _) = listener.accept().unwrap();
        let mesh_port = hand_handshake(&mut stream, 1, 2);
        let ip = stream.peer_addr().unwrap().ip();
        let peers = vec![
            (0, peer0.local_addr().unwrap()),
            (1, SocketAddr::new(ip, mesh_port)),
        ];
        let setup = setup_for(&g, &cfg, &plan, 1, peers);
        let block = encode_triple_block(&setup.base);
        let body = encode_master_msg(&MasterMsg::Setup(Box::new(setup)));
        let mut frame = Vec::new();
        write_crc_frame(&mut frame, &body).unwrap();
        // 8 header bytes, then the body; aim at the middle of the base
        // partition's triple block.
        let at = 8
            + body
                .windows(block.len())
                .position(|w| w == block)
                .expect("the base block is in the Setup body")
            + block.len() / 2;
        if cut_short {
            frame.truncate(at);
        } else {
            frame[at] ^= 0x10;
        }
        stream.write_all(&frame).unwrap();
        if cut_short {
            stream.shutdown(Shutdown::Write).unwrap();
        }
        let (result, took) = worker.join().unwrap();
        let err = result.expect_err("a damaged Setup was accepted");
        match (&err, cut_short) {
            (NetError::Frame(FrameError::Checksum { .. }), false) => {}
            (NetError::Frame(FrameError::Io(e)), true) if e.kind() == ErrorKind::UnexpectedEof => {}
            _ => panic!("cut_short={cut_short}: expected a typed frame error, got {err}"),
        }
        assert!(took < patience, "gave up after {took:?}");
        peer0.set_nonblocking(true).unwrap();
        assert!(
            matches!(peer0.accept(), Err(e) if e.kind() == ErrorKind::WouldBlock),
            "cut_short={cut_short}: the worker dialed a mesh peer"
        );
    }
}

/// With the chunk cap lowered to a test-size 16 triples, `Final` stores
/// and round batches stream as many bounded frames instead of one huge
/// frame each — the mechanism that lifts the 64 MB payload cap — and the
/// closure is byte-identical to serial.
#[test]
fn chunked_streaming_at_tiny_cap_preserves_closure() {
    // UOBM under hash ownership, not LUBM: rounds carry only triples a
    // rule joins, LUBM joins only `subOrganizationOf` and its cut keeps
    // each organisation tree on one worker, so a LUBM round has no
    // triple frame to split. UOBM's transitive and symmetric links cross
    // hash owners every round; mini(6) makes batches of more than 16.
    let g0 = generate_uobm(&UobmConfig::mini(6));
    let (want_fp, want_len) = serial_closure(g0.clone());
    let k = 2;
    let cfg = forward_cfg(k, PartitioningStrategy::data_hash());
    let master_opts = MasterOptions::default();
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
    // Round frames split too: at most 16 triples per triple frame, so
    // there are more frames than the unsplit run's batches and markers.
    let (unsplit, _, _) = run_cluster(&g0, &cfg);
    let unsplit = unsplit.expect("unchunked run").wire.expect("wire stats");
    assert_eq!(wire.rounds.triples, unsplit.rounds.triples);
    assert!(
        wire.rounds.frames > unsplit.rounds.frames,
        "{} round triples at a 16-triple cap took {} frame(s), {} uncapped",
        wire.rounds.triples,
        wire.rounds.frames,
        unsplit.rounds.frames
    );
}

/// Version skew, new-worker direction: a v4 master (the last one that
/// relayed rounds) answers this worker's `Hello` with a `Reject` naming
/// both versions. That must surface
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
        // what a v4 master's accept path says to a version it cannot serve
        let reject = encode_master_msg(&MasterMsg::Reject {
            reason: format!(
                "incompatible hello: magic {magic:#010x} version {version}, \
                 this master speaks {WIRE_MAGIC:#010x} version 4"
            ),
        });
        write_crc_frame(&mut stream, &reject).unwrap();
        // no Ready, no second Hello: the worker hung up
        read_crc_frame(&mut stream).is_err()
    });
    let err = run_cluster_worker(addr, &WorkerOptions::default()).unwrap_err();
    assert!(stub.join().unwrap(), "the worker kept talking after the Reject");
    match err {
        NetError::Handshake { detail } => {
            assert!(
                detail.contains(&format!("version {PROTOCOL_VERSION}"))
                    && detail.contains("version 4"),
                "{detail}"
            );
        }
        other => panic!("expected a typed handshake error, got {other}"),
    }
}

/// Version skew, old-worker direction: a peer that opens with an older
/// `Hello` (same frozen byte layout; v1, v3 — the last version whose
/// `Final` meant "my whole store" — v4, the last that sent its triples
/// through the master, and v5, the last that advertised a partition
/// cache) gets a typed `Reject` naming both
/// versions and then nothing: no `Welcome`, no `Setup`, just the end of
/// the stream. The master's graph is left untouched.
#[test]
fn stale_hello_gets_typed_reject_then_silence_and_graph_is_unchanged() {
    for stale in [1, 3, 4, 5] {
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
        match decode_master_msg(&body).unwrap() {
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

/// `owlpar-cluster` refuses a flag its usage line does not name — a
/// misspelling, or the retired `--cache-dir` — and a flag missing its
/// value, with exit 1 and an error naming the flag, before it reads a
/// file or dials anyone.
#[test]
fn cli_refuses_unknown_and_valueless_flags() {
    for (args, why) in [
        (
            &["master", "kb.nt", "--k", "2", "--stratgy", "rule"][..],
            "unknown flag --stratgy",
        ),
        (&["master", "kb.nt", "--k"][..], "--k needs a value"),
        (
            &[
                "worker",
                "127.0.0.1:1",
                "--connect-timeout",
                "1",
                "--cache-dir",
                "d",
            ][..],
            "unknown flag --cache-dir",
        ),
    ] {
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_owlpar-cluster"))
            .args(args)
            .output()
            .expect("owlpar-cluster runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
    }
}

/// The `--wire-stats` documents of rule-partitioned cluster runs on
/// UOBM `mini(2)`, recorded from the per-body-scan routing that
/// `ConsumerIndex` replaced. At k = 2 Algorithm 2's cut separates no
/// producer from a consumer, so only the k = 4 run moves round triples.
const PINNED_RULE_WIRE: [(usize, &str); 2] = [
    (
        2,
        r#"{"control_bytes":178,"final_bytes":805,"final_frames":2,"final_triples":171,"per_round":[{"bytes":26,"round":0,"triples":0}],"rounds_bytes":26,"rounds_frames":2,"rounds_triples":0,"setup_bytes":7398,"setup_frames":2,"setup_triples":578,"total_bytes":8407}"#,
    ),
    (
        4,
        r#"{"control_bytes":496,"final_bytes":1303,"final_frames":4,"final_triples":197,"per_round":[{"bytes":194,"round":0,"triples":8},{"bytes":156,"round":1,"triples":0}],"rounds_bytes":350,"rounds_frames":25,"rounds_triples":8,"setup_bytes":14886,"setup_frames":4,"setup_triples":1156,"total_bytes":17035}"#,
    ),
];

/// A rule-partitioned cluster run routes each derived triple to the
/// partitions whose rule bodies can match it. Routing the same triples
/// to the same partitions moves the same bytes: the wire ledger is
/// pinned byte for byte, and the k = 4 run must move round triples for
/// the pin to say anything about routing.
#[test]
fn rule_partitioned_wire_stats_are_pinned() {
    let g0 = generate_uobm(&UobmConfig::mini(2));
    let (want_fp, want_len) = serial_closure(g0.clone());
    for (k, want) in PINNED_RULE_WIRE {
        let cfg = forward_cfg(k, PartitioningStrategy::rule());
        let (report, g, workers) = run_cluster(&g0, &cfg);
        let wire = report.expect("rule run").wire.expect("wire stats");
        for w in workers {
            w.expect("worker");
        }
        assert_eq!(
            (g.term_fingerprint(), g.len()),
            (want_fp, want_len),
            "k={k}"
        );
        assert!(
            k < 4 || wire.rounds.triples > 0,
            "k={k}: rounds moved no triple"
        );
        assert_eq!(wire.to_json().to_string(), want, "k={k}");
    }
}
