//! Golden JSON documents: what the hand-formatted and derive-based
//! writers printed before every report moved onto `owlpar_obs::json`.
//! Each document the writer produces now must parse to the same value as
//! its golden, minus the keys that priced the retired v1 wire format and
//! the keys that counted the retired partition cache; only key order and
//! float spelling may differ.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar::core::{WireBytes, WirePhase, WireRound};
use owlpar::obs::json::{parse, Value};
use owlpar::serve::stats::{RunInfo, ServerStats};
use std::process::Command;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// `WireBytes::to_json` for the ledger built in
/// `wire_bytes_document_is_unchanged_but_for_v1`.
const WIRE_GOLDEN: &str = r#"{"setup_bytes":1000,"setup_frames":2,"setup_triples":300,"setup_v1_bytes":4000,"rounds_bytes":500,"rounds_frames":6,"rounds_triples":120,"rounds_v1_bytes":1440,"final_bytes":200,"final_frames":3,"final_triples":60,"final_v1_bytes":2400,"control_bytes":90,"total_bytes":1790,"raw_triple_bytes":5760,"v1_total_bytes":7930,"compression_ratio":4.4302,"cache_hits":1,"cache_misses":1,"per_round":[{"round":0,"bytes":300,"triples":80},{"round":1,"bytes":200,"triples":40}]}"#;

/// The STATS document for the counters built in
/// `stats_document_is_unchanged`.
const STATS_GOLDEN: &str = r#"{"epoch":7,"triples":100,"terms":40,"queries":3,"inserts":2,"errors":1,"busy_rejections":4,"idle_disconnects":5,"durability":"ok","query_p50_us":128,"query_p99_us":128,"insert_p50_us":4096,"insert_p99_us":4096,"prom":"owlpar_server_queries_total 3\n","run":{"workers":4,"rounds":3,"derived":17,"skipped":1,"summary":"4 worker(s), \"quoted\"\nsecond line"}}"#;

/// `owlpar lint tests/fixtures/multijoin.rules --json`.
const LINT_MULTIJOIN_GOLDEN: &str = r#"{"context":"data-partitioned","summary":{"rules":3,"deny":2,"warn":0,"ok":false},"rules":[{"name":"knows_sym","join_class":"single-atom","witness":null,"weight":1,"scc":2},{"name":"triangle","join_class":"multi-join","witness":null,"weight":1,"scc":0},{"name":"lonely","join_class":"cross-product","witness":null,"weight":1,"scc":1}],"diagnostics":[{"code":"OWL001","title":"non-single-join rule","severity":"deny","context":"data-partitioned","rule":"triangle","rule_index":1,"message":"body has 3 atoms (single-join allows at most 2): intermediate join results are not anchored to any single owner, so a distributed run can silently miss derivations","violation":"multi-join","witness":"multi-join","suppressed":false},{"code":"OWL002","title":"cross-product rule body","severity":"deny","context":"data-partitioned","rule":"lonely","rule_index":2,"message":"body atoms share no variable (cross product): the operands can live on different owners, so the join is not locally evaluable under data partitioning","violation":"cross-product","witness":"cross-product","suppressed":false}]}"#;

/// The keys the wire document carried only to price the v1 format.
const V1_KEYS: [&str; 6] = [
    "setup_v1_bytes",
    "rounds_v1_bytes",
    "final_v1_bytes",
    "raw_triple_bytes",
    "v1_total_bytes",
    "compression_ratio",
];

/// The keys the wire document carried to count partition-cache hits and
/// misses; the cache is gone, every run ships every partition.
const CACHE_KEYS: [&str; 2] = ["cache_hits", "cache_misses"];

#[test]
fn wire_bytes_document_is_unchanged_but_for_v1() {
    let mut want = parse(WIRE_GOLDEN).unwrap();
    let Value::Obj(fields) = &mut want else {
        panic!("golden is not an object")
    };
    for key in V1_KEYS.iter().chain(&CACHE_KEYS) {
        assert!(fields.remove(*key).is_some(), "{key}");
    }
    let phase = |bytes, frames, triples| WirePhase {
        bytes,
        frames,
        triples,
    };
    let round = |round, bytes, triples| WireRound {
        round,
        bytes,
        triples,
    };
    let wire = WireBytes {
        setup: phase(1000, 2, 300),
        rounds: phase(500, 6, 120),
        finals: phase(200, 3, 60),
        control_bytes: 90,
        // Out of order, as concurrent handler threads push them.
        per_round: vec![round(1, 200, 40), round(0, 300, 80)],
    };
    let doc = wire.to_json().to_string();
    assert_eq!(parse(&doc).unwrap(), want, "{doc}");
}

#[test]
fn stats_document_is_unchanged() {
    let s = ServerStats::default();
    s.queries.fetch_add(3, Ordering::Relaxed);
    s.inserts.fetch_add(2, Ordering::Relaxed);
    s.errors.fetch_add(1, Ordering::Relaxed);
    s.busy_rejections.fetch_add(4, Ordering::Relaxed);
    s.idle_disconnects.fetch_add(5, Ordering::Relaxed);
    s.query_latency.record(Duration::from_micros(100));
    s.insert_latency.record(Duration::from_micros(3000));
    let run = RunInfo {
        workers: 4,
        rounds: 3,
        derived: 17,
        skipped: 1,
        summary: "4 worker(s), \"quoted\"\nsecond line".into(),
    };
    let prom = "owlpar_server_queries_total 3\n";
    let doc = s.to_json(7, 100, 40, &run, Some("ok"), prom);
    assert!(doc.contains(r#""durability":"ok""#), "{doc}");
    assert_eq!(parse(&doc).unwrap(), parse(STATS_GOLDEN).unwrap(), "{doc}");
}

#[test]
fn lint_document_is_unchanged() {
    let out = Command::new(env!("CARGO_BIN_EXE_owlpar"))
        .args([
            "lint",
            &format!(
                "{}/tests/fixtures/multijoin.rules",
                env!("CARGO_MANIFEST_DIR")
            ),
            "--json",
        ])
        .output()
        .expect("owlpar runs");
    assert_eq!(
        out.status.code(),
        Some(3),
        "multi-join fixture must be denied"
    );
    let doc = String::from_utf8(out.stdout).unwrap();
    // What CI greps for: compact, no space after the colon.
    assert!(doc.contains(r#""code":"OWL001""#), "{doc}");
    assert!(doc.contains(r#""severity":"deny""#), "{doc}");
    assert_eq!(
        parse(&doc).unwrap(),
        parse(LINT_MULTIJOIN_GOLDEN).unwrap(),
        "{doc}"
    );
}
