//! Values recorded from the commit before the sorted-run data plane
//! (PR 11's HEAD) and pinned here: changes that are meant to leave the
//! partitioner's assignments and the run reports' size statistics alone
//! must reproduce them bit for bit.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar::core::{run_parallel, ParallelConfig, PartitioningStrategy};
use owlpar::datagen::{generate_lubm, generate_mdc, LubmConfig, MdcConfig};
use owlpar::datalog::MaterializationStrategy;
use owlpar::horst::HorstReasoner;
use owlpar::net::{run_cluster_master, run_cluster_worker, MasterOptions, WorkerOptions};
use owlpar::partition::multilevel::{partition_kway, PartitionOptions};
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

/// `(graph, k, seed, FNV-1a of the assignment vector, edge-cut)`. The two
/// LUBM graphs (1 582 and 797 ownership vertices) go through several
/// coarsening levels and FM passes; MDC (80) bisects directly.
const ASSIGNMENTS: &[(&str, usize, u64, u64, u64)] = &[
    ("lubm1x0.4", 2, 0x5eed, 0x1ddeb0a7de64b004, 236),
    ("lubm1x0.4", 2, 0x7, 0x738bd8629b7f9115, 239),
    ("lubm1x0.4", 3, 0x5eed, 0x75501e356cd07077, 374),
    ("lubm1x0.4", 3, 0x7, 0x634d0f7f6ba93977, 345),
    ("lubm1x0.4", 4, 0x5eed, 0x38fe0986a4f825a6, 482),
    ("lubm1x0.4", 4, 0x7, 0xfc12a520b759b814, 497),
    ("lubm3x0.2", 2, 0x5eed, 0xdc1fa7ff9dfad744, 164),
    ("lubm3x0.2", 2, 0x7, 0x3dd8d81095441514, 109),
    ("lubm3x0.2", 3, 0x5eed, 0xdfc9614ea21b57e4, 192),
    ("lubm3x0.2", 3, 0x7, 0xa11c5db14de046d4, 242),
    ("lubm3x0.2", 4, 0x5eed, 0xf2bac189e8d212e7, 256),
    ("lubm3x0.2", 4, 0x7, 0x8bf11e1f69e15e57, 223),
    ("mdc", 2, 0x5eed, 0x6a31b3bafe2f5b55, 0),
    ("mdc", 3, 0x7, 0x7c15fa2f015e0ea5, 4),
    ("mdc", 4, 0x5eed, 0x1449c6f9f451b9f5, 6),
    ("mdc", 4, 0x7, 0xfc958edde2286ec5, 4),
];

#[test]
fn partitioner_assignments_are_bit_identical() {
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
    for (name, mut g) in graphs {
        let hr = HorstReasoner::from_graph(&mut g, MaterializationStrategy::ForwardSemiNaive);
        let rdf_type = g.dict.id(&Term::iri(RDF_TYPE));
        let og = build_ownership_graph(&hr.instance_triples, rdf_type);
        for &(_, k, seed, want_hash, want_cut) in ASSIGNMENTS.iter().filter(|p| p.0 == name) {
            let opts = PartitionOptions {
                seed,
                ..PartitionOptions::default()
            };
            let part = partition_kway(&og.graph, k, &opts);
            assert_eq!(
                (fnv(&part), og.graph.edge_cut(&part)),
                (want_hash, want_cut),
                "{name} k={k} seed={seed:#x}"
            );
        }
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
    const OR_BITS: u64 = 0x3fce3a373af64c20;

    let mut g = g0.clone();
    let r = run_parallel(&mut g, &cfg).unwrap();
    let sizes: Vec<usize> = r.workers.iter().map(|w| w.output_size).collect();
    assert_eq!(sizes, [230, 194]);
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
    assert_eq!(sizes, [230, 194]);
    let store_lens: Vec<usize> = summaries.iter().map(|s| s.store_len).collect();
    assert_eq!(store_lens, [230, 194]);
    assert_eq!(r.output_replication.to_bits(), OR_BITS);
    // The v1 baseline still prices the finals at what v1 shipped — every
    // worker's whole store — and setup/round traffic did not move.
    let wire = r.wire.unwrap();
    assert_eq!(wire.finals.v1_bytes, 12 * (230 + 194));
    assert_eq!((wire.setup.bytes, wire.setup.triples), (6403, 303));
    assert_eq!((wire.rounds.bytes, wire.rounds.triples), (262, 58));

    // Hash ownership over MDC's transitive chains: four rounds, k = 4.
    let mut g = generate_mdc(&MdcConfig::mini());
    let cfg = ParallelConfig {
        k: 4,
        strategy: PartitioningStrategy::data_hash(),
        ..ParallelConfig::default()
    }
    .forward();
    let r = run_parallel(&mut g, &cfg).unwrap();
    let sizes: Vec<usize> = r.workers.iter().map(|w| w.output_size).collect();
    assert_eq!(sizes, [237, 202, 102, 219]);
    assert_eq!(r.output_replication.to_bits(), 0x3fefaa384b0ebe54);
    assert_eq!((r.closure_size, r.max_rounds()), (382, 4));
}
