//! Pinned partitioner assignments and run-report size statistics: changes
//! that are meant to leave them alone must reproduce them bit for bit.
//!
//! The assignment hashes and edge-cuts were re-recorded from the finished
//! tree of the PR that made the generators emit sorted runs, for two
//! reasons. Ownership vertices are numbered by first appearance in the
//! instance triples, and a generated graph now iterates in SPO order like
//! a loaded one (it was a hash set's order), so every fixture is a
//! differently numbered graph. And that numbering — creation order, a
//! parent before its descendants — exposed a weakness the hash order had
//! hidden: greedy growing ranked frontier vertices by connection weight,
//! ties to the highest id, and on MDC's 80-vertex ownership graph
//! (bisected directly) k = 4 cut 8 at every seed 0..32 where the hash
//! order cut 4. It now ranks them by cut gain (see `greedy_grow_bisect`),
//! which cuts 4 at every seed in either order. Over the twelve LUBM rows
//! the cuts sum to 2 804 (the previous pins: 2 790, on hash-ordered
//! fixtures; growth by connection weight on these SPO-ordered ones:
//! 2 864). The edge-cuts of the partitioner before the coarsening
//! rebuild stay beside them as the quality reference. The
//! graph-partitioned size statistics were re-recorded with them (the
//! relations between them are what the test is for); the
//! hash-partitioned MDC ones are older and did not move.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar::core::{run_parallel, ParallelConfig, PartitioningStrategy};
use owlpar::datagen::{generate_lubm, generate_mdc, LubmConfig, MdcConfig};
use owlpar::datalog::MaterializationStrategy;
use owlpar::horst::HorstReasoner;
use owlpar::net::{run_cluster_master, run_cluster_worker, MasterOptions, WorkerOptions};
use owlpar::partition::multilevel::{
    coarsening_profile, partition_kway, CsrGraph, PartitionOptions,
};
use owlpar::partition::rdfgraph::build_ownership_graph;
use owlpar::rdf::vocab::RDF_TYPE;
use owlpar::rdf::{Graph, Term};
use std::net::TcpListener;

fn fnv(part: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &p in part {
        for b in p.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(graph, k, seed, FNV-1a of the assignment vector, edge-cut, edge-cut
/// of the previous partitioner)`. The two LUBM graphs (1 582 and 797
/// ownership vertices) go through several coarsening levels and FM
/// passes; MDC (80) bisects directly.
const ASSIGNMENTS: &[(&str, usize, u64, u64, u64, u64)] = &[
    ("lubm1x0.4", 2, 0x5eed, 0xdfff5d5df01db1f4, 240, 236),
    ("lubm1x0.4", 2, 0x7, 0x5d04095509c06645, 238, 239),
    ("lubm1x0.4", 3, 0x5eed, 0x6edb3ece619dfa46, 328, 374),
    ("lubm1x0.4", 3, 0x7, 0xd84004430fff6e96, 339, 345),
    ("lubm1x0.4", 4, 0x5eed, 0x426ba33e6c6062c6, 430, 482),
    ("lubm1x0.4", 4, 0x7, 0x5417efa174171c74, 427, 497),
    ("lubm3x0.2", 2, 0x5eed, 0x4d0414e621094f95, 97, 164),
    ("lubm3x0.2", 2, 0x7, 0x68d171e606aa25c4, 105, 109),
    ("lubm3x0.2", 3, 0x5eed, 0x2d7b41d2a178fbb6, 141, 192),
    ("lubm3x0.2", 3, 0x7, 0xd5d7f3e9b3fc89f4, 134, 242),
    ("lubm3x0.2", 4, 0x5eed, 0xd84ca755107cbf85, 160, 256),
    ("lubm3x0.2", 4, 0x7, 0x7d983c8e77d3cb87, 165, 223),
    ("mdc", 2, 0x5eed, 0x56a8e343d41f90e5, 0, 0),
    ("mdc", 3, 0x7, 0xd878cb9ed9ed9595, 3, 4),
    ("mdc", 4, 0x5eed, 0x17a9764c3912b165, 4, 6),
    ("mdc", 4, 0x7, 0xcfb508fccb72c365, 4, 4),
];

/// The ownership graphs behind [`ASSIGNMENTS`].
fn ownership_graphs() -> Vec<(&'static str, CsrGraph)> {
    let graphs: Vec<(&str, Graph)> = vec![
        (
            "lubm1x0.4",
            generate_lubm(&LubmConfig {
                universities: 1,
                scale: 0.4,
                ..LubmConfig::default()
            }),
        ),
        (
            "lubm3x0.2",
            generate_lubm(&LubmConfig {
                universities: 3,
                scale: 0.2,
                seed: 9,
            }),
        ),
        ("mdc", generate_mdc(&MdcConfig::mini())),
    ];
    graphs
        .into_iter()
        .map(|(name, mut g)| {
            let hr = HorstReasoner::from_graph(&mut g, MaterializationStrategy::ForwardSemiNaive);
            let rdf_type = g.dict.id(&Term::iri(RDF_TYPE));
            (
                name,
                build_ownership_graph(&hr.instance_triples, rdf_type).graph,
            )
        })
        .collect()
}

#[test]
fn partitioner_assignments_are_bit_identical() {
    for (name, graph) in ownership_graphs() {
        for &(_, k, seed, want_hash, want_cut, _) in ASSIGNMENTS.iter().filter(|p| p.0 == name) {
            let opts = PartitionOptions {
                seed,
                ..PartitionOptions::default()
            };
            let part = partition_kway(&graph, k, &opts);
            assert_eq!(
                (fnv(&part), graph.edge_cut(&part)),
                (want_hash, want_cut),
                "{name} k={k} seed={seed:#x}"
            );
            assert_eq!(
                part,
                partition_kway(&graph, k, &opts),
                "same seed, same answer"
            );
        }
    }
}

/// Whoever re-records [`ASSIGNMENTS`] must not record a worse partitioner:
/// over the LUBM rows the cuts sum to no more than the previous
/// partitioner's 3 359 and no row is more than a tenth above it; MDC,
/// bisected directly, never cuts more.
#[test]
fn recorded_cuts_hold_the_previous_quality() {
    let lubm = || ASSIGNMENTS.iter().filter(|p| p.0 != "mdc");
    assert_eq!(lubm().map(|p| p.5).sum::<u64>(), 3359);
    assert!(lubm().map(|p| p.4).sum::<u64>() <= 3359);
    for &(name, k, seed, _, cut, old) in ASSIGNMENTS {
        let allowed = if name == "mdc" { old } else { old + old / 10 };
        assert!(
            cut <= allowed,
            "{name} k={k} seed={seed:#x}: {cut} vs {old}"
        );
    }
}

/// Coarsening takes O(log n) levels on LUBM's hub-and-leaf ownership
/// graphs: at least a third of the vertices go per level, plus two levels
/// of slack. (Heavy-edge matching alone removed 5–18 % per level.)
#[test]
fn lubm_ownership_graphs_coarsen_in_logarithmic_levels() {
    let opts = PartitionOptions::default();
    for (name, graph) in ownership_graphs() {
        if name == "mdc" {
            continue; // 80 vertices: below `coarsen_until`, never coarsened
        }
        let profile = coarsening_profile(&graph, &opts);
        let levels = profile.len() - 1;
        let shrink = graph.n() as f64 / opts.coarsen_until as f64;
        let allowed = (shrink.ln() / 1.5f64.ln()).ceil() as usize + 2;
        assert!(
            levels <= allowed,
            "{name}: {levels} > {allowed}, {profile:?}"
        );
        assert!(
            profile[levels].0 <= opts.coarsen_until,
            "{name}: {profile:?}"
        );
    }
}

/// `WorkerStats.output_size`, `WorkerSummary.store_len` and
/// `RunReport.output_replication` are defined over each worker's *full*
/// local store (schema + partition + everything derived or received),
/// whatever the workers ship back.
#[test]
fn size_statistics_stay_defined_over_the_full_local_store() {
    let g0 = generate_lubm(&LubmConfig::mini(2));
    let cfg = ParallelConfig {
        k: 2,
        strategy: PartitioningStrategy::data_graph(),
        ..ParallelConfig::default()
    }
    .forward();
    // recorded values: they move with the assignment. Re-recorded when
    // placement and routing began to follow the rule-base's join
    // positions (was [205, 218], OR 0x3fcddaaea5b0e2e8 ≈ 0.233): LUBM
    // joins only `subOrganizationOf`, so the ownership graph lost every
    // other edge, its vertices are dealt to the lighter worker rather
    // than cut, and a triple joined nowhere is stored once — 7 fewer
    // base copies. A consequence no rule joins now stays where it was
    // derived, so both workers may hold it until the master's merge:
    // OR ≈ 0.271. The closure (343) does not move.
    const SIZES: [usize; 2] = [197, 239];
    const OR_BITS: u64 = 0x3fd15a4f1d1b9d7c;

    let mut g = g0.clone();
    let r = run_parallel(&mut g, &cfg).unwrap();
    let sizes: Vec<usize> = r.workers.iter().map(|w| w.output_size).collect();
    assert_eq!(sizes, SIZES);
    assert_eq!(r.output_replication.to_bits(), OR_BITS);
    assert_eq!(r.closure_size, 343);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut g = g0.clone();
    let (r, summaries) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| s.spawn(move || run_cluster_worker(addr, &WorkerOptions::default())))
            .collect();
        let r = run_cluster_master(&mut g, &cfg, listener, &MasterOptions::default()).unwrap();
        let mut summaries: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().unwrap().unwrap())
            .collect();
        summaries.sort_by_key(|s| s.node_id);
        (r, summaries)
    });
    let sizes: Vec<usize> = r.workers.iter().map(|w| w.output_size).collect();
    assert_eq!(sizes, SIZES);
    let store_lens: Vec<usize> = summaries.iter().map(|s| s.store_len).collect();
    assert_eq!(store_lens, sizes, "output_size == store_len");
    assert_eq!(r.output_replication.to_bits(), OR_BITS);
    // `store_len` rides the `Final` frame only for `output_size` (the OR
    // metric above); the wire ledger no longer prices the finals at what
    // the retired v1 format shipped, so there is no v1 byte count to pin.
    let wire = r.wire.unwrap();
    // Setup grew by the mesh peer table (39 B per worker at k = 2). The
    // rounds went from (244, 52) to one hop: each triple is written once,
    // sender to receiver, instead of into and out of the master, and the
    // per-worker `Deliver` frames became 13-byte end-of-round markers.
    // Setup then shrank by 53 B per worker (6481 → 6375): the three
    // 16-byte digests and the payload's presence byte and length prefix
    // went with the partition cache.
    // Join-position placement then left the 7 copies above out of the
    // Setups (6375 B / 303 → 6354 B / 296), and the rounds carry no
    // triple at all: the 26 triples exchanged before were consequences
    // no rule joins, so only the two end-of-round markers remain.
    assert_eq!((wire.setup.bytes, wire.setup.triples), (6354, 296));
    assert_eq!((wire.rounds.bytes, wire.rounds.triples), (26, 0));

    // Hash ownership over MDC's transitive chains: four rounds, k = 4.
    // Re-recorded with join-position placement (was [237, 202, 102, 219],
    // OR 0x3fefaa384b0ebe54 ≈ 0.99): MDC's chains still join, so the
    // rounds and the closure stay; the triples no rule joins are
    // stored once and no longer travel, so every worker holds less and
    // OR falls to ≈ 0.80.
    let mut g = generate_mdc(&MdcConfig::mini());
    let cfg = ParallelConfig {
        k: 4,
        strategy: PartitioningStrategy::data_hash(),
        ..ParallelConfig::default()
    }
    .forward();
    let r = run_parallel(&mut g, &cfg).unwrap();
    let sizes: Vec<usize> = r.workers.iter().map(|w| w.output_size).collect();
    assert_eq!(sizes, [213, 181, 96, 199]);
    assert_eq!(r.output_replication.to_bits(), 0x3fe9b79f7f547096);
    assert_eq!((r.closure_size, r.max_rounds()), (382, 4));
}
