//! End-to-end tests: a real server on a real socket, exercised through
//! the client — including the headline concurrency property: readers
//! never block on writers and always see a consistent epoch.

// Tests assert on infallible setup; unwrap/expect failures are test failures.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_datalog::MaterializationStrategy;
use owlpar_horst::HorstReasoner;
use owlpar_rdf::Graph;
use owlpar_serve::{serve, Client, RunInfo, ServeConfig, ServeError, ServerHandle, ServingKb};
use std::time::{Duration, Instant};

fn campus_kb() -> ServingKb {
    let mut g = Graph::new();
    g.insert_iris(
        "http://x/Student",
        owlpar_rdf::vocab::RDFS_SUBCLASSOF,
        "http://x/Person",
    );
    g.insert_iris(
        "http://x/alice",
        owlpar_rdf::vocab::RDF_TYPE,
        "http://x/Student",
    );
    let hr = HorstReasoner::from_graph(&mut g, MaterializationStrategy::ForwardSemiNaive);
    hr.materialize(&mut g);
    ServingKb::from_closed(g, hr)
}

fn start(kb: ServingKb, threads: usize) -> ServerHandle {
    serve(
        kb,
        RunInfo::default(),
        &ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads,
            ..ServeConfig::default()
        },
    )
    .expect("bind server")
}

const PERSONS: &str = "SELECT ?s WHERE { ?s a <http://x/Person> }";

#[test]
fn query_insert_query_sees_consequence() {
    let handle = start(campus_kb(), 2);
    let mut c = Client::connect(handle.addr()).unwrap();

    let r1 = c.query(PERSONS).unwrap();
    assert_eq!(r1.epoch, 0);
    assert_eq!(r1.columns, vec!["s"]);
    assert_eq!(r1.rows, vec![vec!["<http://x/alice>".to_string()]]);

    let ins = c
        .insert(
            "<http://x/bob> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
             <http://x/Student> .\n",
        )
        .unwrap();
    assert_eq!(ins.epoch, 1);
    assert_eq!(ins.added, 1);
    assert_eq!(ins.derived, 1, "bob:Person must be derived");
    assert!(!ins.schema_changed);

    let r2 = c.query(PERSONS).unwrap();
    assert_eq!(r2.epoch, 1, "query runs on the inserted epoch");
    let mut subjects: Vec<String> = r2.rows.into_iter().map(|mut r| r.remove(0)).collect();
    subjects.sort();
    assert_eq!(subjects, vec!["<http://x/alice>", "<http://x/bob>"]);

    c.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn epochs_increment_per_insert_and_stats_report_them() {
    let handle = start(campus_kb(), 2);
    let mut c = Client::connect(handle.addr()).unwrap();
    for (i, who) in ["carol", "dan", "erin"].iter().enumerate() {
        let out = c
            .insert(&format!(
                "<http://x/{who}> \
                 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
                 <http://x/Student> .\n"
            ))
            .unwrap();
        assert_eq!(out.epoch, i as u64 + 1);
    }
    c.query(PERSONS).unwrap();
    let json = c.stats().unwrap();
    for key in [
        "\"epoch\":3",
        "\"inserts\":3",
        "\"queries\":1",
        "\"errors\":0",
        "\"query_p50_us\":",
        "\"insert_p99_us\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    c.shutdown().unwrap();
    handle.join().unwrap();
}

/// The acceptance-criterion test: with a writer that is deliberately
/// slowed between *building* and *publishing* its snapshot, a concurrent
/// query must complete promptly against the pre-swap epoch — readers
/// never wait for writers, and the epoch they see is consistent.
#[test]
fn readers_never_block_on_a_slow_writer() {
    const DELAY: Duration = Duration::from_millis(800);
    let kb = campus_kb().with_debug_publish_delay(DELAY);
    let handle = start(kb, 4);
    let addr = handle.addr();

    let writer = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let started = Instant::now();
        let out = c
            .insert(
                "<http://x/bob> \
                 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
                 <http://x/Student> .\n",
            )
            .unwrap();
        (out, started.elapsed())
    });

    // Let the insert reach the delayed-publish window, then query.
    std::thread::sleep(DELAY / 4);
    let mut c = Client::connect(addr).unwrap();
    let started = Instant::now();
    let r = c.query(PERSONS).unwrap();
    let latency = started.elapsed();

    let (ins, insert_elapsed) = writer.join().unwrap();
    assert!(
        insert_elapsed >= DELAY,
        "test premise: the writer was actually delayed ({insert_elapsed:?})"
    );
    assert_eq!(
        r.epoch, 0,
        "mid-update query sees the consistent pre-swap epoch"
    );
    assert_eq!(r.rows.len(), 1, "pre-insert state: alice only");
    assert!(
        latency < DELAY / 2,
        "reader waited on the writer: query took {latency:?} against a \
         {DELAY:?} publish delay"
    );
    assert_eq!(ins.epoch, 1);

    // After the writer finishes, readers move to the new epoch.
    let r2 = c.query(PERSONS).unwrap();
    assert_eq!(r2.epoch, 1);
    assert_eq!(r2.rows.len(), 2);

    c.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn concurrent_clients_on_all_threads() {
    let handle = start(campus_kb(), 4);
    let addr = handle.addr();
    let mut clients = Vec::new();
    for _ in 0..8 {
        clients.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            for _ in 0..25 {
                let r = c.query(PERSONS).unwrap();
                assert!(!r.rows.is_empty());
            }
        }));
    }
    for c in clients {
        c.join().unwrap();
    }
    handle.request_shutdown();
    handle.join().unwrap();
}

#[test]
fn bad_query_and_bad_batch_are_remote_errors_not_disconnects() {
    let handle = start(campus_kb(), 2);
    let mut c = Client::connect(handle.addr()).unwrap();

    let err = c.query("SELECT ?x WHERE { }").unwrap_err();
    assert!(matches!(err, ServeError::Remote(_)), "{err}");
    let err = c.query("SELECT ?ghost WHERE { ?s ?p ?o }").unwrap_err();
    assert!(matches!(err, ServeError::Remote(_)), "{err}");
    let err = c.insert("not ntriples at all").unwrap_err();
    assert!(matches!(err, ServeError::Remote(_)), "{err}");

    // The connection survives all three failures.
    c.ping().unwrap();
    let r = c.query(PERSONS).unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.epoch, 0, "failed requests publish nothing");

    let json = c.stats().unwrap();
    assert!(json.contains("\"errors\":3"), "{json}");

    c.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn schema_insert_recompiles_and_serves_new_consequences() {
    let handle = start(campus_kb(), 2);
    let mut c = Client::connect(handle.addr()).unwrap();
    let out = c
        .insert(
            "<http://x/Person> \
             <http://www.w3.org/2000/01/rdf-schema#subClassOf> \
             <http://x/Agent> .\n",
        )
        .unwrap();
    assert!(out.schema_changed);
    let r = c
        .query("SELECT ?s WHERE { ?s a <http://x/Agent> }")
        .unwrap();
    assert_eq!(r.rows, vec![vec!["<http://x/alice>".to_string()]]);
    c.shutdown().unwrap();
    handle.join().unwrap();
}

/// With one worker (held by a parked connection) and a one-slot queue
/// (filled by a second), a third connection must be answered `BUSY` by
/// the acceptor itself — typed saturation, not an unbounded queue.
#[test]
fn saturated_server_answers_busy() {
    let handle = serve(
        campus_kb(),
        RunInfo::default(),
        &ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            max_pending: 1,
            ..ServeConfig::default()
        },
    )
    .expect("bind server");
    let addr = handle.addr();

    let mut held = Client::connect(addr).unwrap();
    held.ping().unwrap(); // the only worker is now parked on this peer
    let queued = Client::connect(addr).unwrap(); // fills the queue slot

    let mut overflow = Client::connect(addr).unwrap();
    let err = overflow.ping().unwrap_err();
    assert!(matches!(err, ServeError::Busy), "expected BUSY, got {err}");

    // Free the worker; the queued connection gets served, and the BUSY
    // rejection shows up in the stats. Until the worker has taken the
    // queued connection out of its slot, a newcomer is itself turned away.
    drop(held);
    drop(queued);
    let deadline = Instant::now() + Duration::from_secs(2);
    let (mut c, json) = loop {
        let mut c = Client::connect(addr).unwrap();
        match c.stats() {
            Ok(json) => break (c, json),
            Err(ServeError::Busy) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("no STATS once the queue drained: {e}"),
        }
    };
    // at least one: each of our own turned-away retries counts too
    assert!(json.contains("\"busy_rejections\":"), "{json}");
    assert!(!json.contains("\"busy_rejections\":0"), "{json}");
    c.shutdown().unwrap();
    handle.join().unwrap();
}

/// A reply too large for the server's write buffer leaves as two writes
/// (length, then body). Accepted sockets run without Nagle, so the body
/// does not sit out the client's delayed ACK of the length (≈ 40 ms).
#[test]
fn large_reply_is_not_held_back_by_nagle() {
    let mut g = Graph::new();
    for i in 0..500 {
        g.insert_iris(
            format!("http://x/person{i:04}"),
            owlpar_rdf::vocab::RDF_TYPE,
            "http://x/Person",
        );
    }
    let hr = HorstReasoner::from_graph(&mut g, MaterializationStrategy::ForwardSemiNaive);
    hr.materialize(&mut g);
    let handle = start(ServingKb::from_closed(g, hr), 1);
    let mut c = Client::connect(handle.addr()).unwrap();
    let query = format!("{PERSONS} LIMIT 400");
    let mut took: Vec<Duration> = (0..10)
        .map(|_| {
            let t0 = Instant::now();
            let reply = c.query(&query).unwrap();
            assert_eq!(reply.rows.len(), 400);
            t0.elapsed()
        })
        .collect();
    took.sort_unstable();
    assert!(took[5] < Duration::from_millis(15), "{took:?}");
    c.shutdown().unwrap();
    handle.join().unwrap();
}

/// An idle peer is disconnected once the read deadline passes — with a
/// typed error frame, a stats count, and without wedging the worker.
#[test]
fn idle_client_is_disconnected_with_typed_error() {
    let handle = serve(
        campus_kb(),
        RunInfo::default(),
        &ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            read_timeout: Some(Duration::from_millis(150)),
            ..ServeConfig::default()
        },
    )
    .expect("bind server");
    let addr = handle.addr();

    let mut idle = Client::connect(addr).unwrap();
    idle.ping().unwrap();
    std::thread::sleep(Duration::from_millis(600));
    match idle.ping().unwrap_err() {
        // Usual case: we read the server's goodbye error frame.
        ServeError::Remote(m) => assert!(m.contains("idle"), "{m}"),
        // Or the socket is already torn down on our side.
        ServeError::Io(_) => {}
        other => panic!("unexpected error kind: {other}"),
    }

    // The worker is free again and the disconnect was counted.
    let mut c = Client::connect(addr).unwrap();
    let json = c.stats().unwrap();
    assert!(json.contains("\"idle_disconnects\":1"), "{json}");
    c.shutdown().unwrap();
    handle.join().unwrap();
}

/// Once shutdown is requested, an in-flight connection's next INSERT is
/// rejected whole — the shutdown ordering guarantee: batches are fully
/// applied+logged or fully rejected, never half-done.
#[test]
fn insert_after_shutdown_request_is_rejected_whole() {
    let handle = start(campus_kb(), 2);
    let mut c = Client::connect(handle.addr()).unwrap();
    c.ping().unwrap();
    handle.request_shutdown();
    let err = c
        .insert(
            "<http://x/zed> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
             <http://x/Student> .\n",
        )
        .unwrap_err();
    assert!(
        matches!(&err, ServeError::Remote(m) if m.contains("shutting down")),
        "expected a typed shutdown rejection, got {err}"
    );
    handle.join().unwrap();
}

#[test]
fn shutdown_stops_accepting_but_drains_cleanly() {
    let handle = start(campus_kb(), 2);
    let addr = handle.addr();
    let mut c = Client::connect(addr).unwrap();
    c.ping().unwrap();
    c.shutdown().unwrap();
    handle.join().unwrap();
    // The listener is gone: either connect fails or the socket is dead.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c2) => assert!(c2.ping().is_err(), "server still answering after shutdown"),
    }
}
