//! The names of record: workloads and metrics, in output order.
//! `BENCHMARK.json` at the repository root must list exactly these; the
//! smoke test compares the two.

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

pub const WORKLOADS: [&str; 5] = [
    "closure.lubm",
    "closure.uobm",
    "cluster.lubm",
    "serve.read",
    "serve.write",
];

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("materialize_s", "s", false, 0.20),
    e2e("peak_rss_mb", "MB", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("query_p50_us", "us", false, 0.15),
    e2e("insert_p50_us", "us", false, 0.25),
];

/// One layer each (the module name is the prefix). A workload that does
/// not exercise a layer reports 0 for it.
pub const PER_LAYER: [MetricDef; 48] = [
    layer("datagen.generate_s", "s", false),
    layer("datagen.triples", "count", true),
    layer("rdf.parse_triples_per_s", "1/s", true),
    layer("rdf.freeze_s", "s", false),
    layer("rdf.scan_ns_per_triple", "ns", false),
    layer("rdf.merge_s", "s", false),
    layer("rdf.snapshot_bytes_per_triple", "B", false),
    layer("horst.compile_s", "s", false),
    layer("horst.rules", "count", false),
    layer("horst.delta_us", "us", false),
    layer("datalog.closure_s", "s", false),
    layer("datalog.derived", "count", true),
    layer("datalog.derived_per_s", "1/s", true),
    layer("datalog.derived_per_base", "ratio", false),
    layer("partition.partition_s", "s", false),
    layer("partition.edge_cut", "count", false),
    layer("partition.balance", "ratio", false),
    layer("partition.replication", "ratio", false),
    layer("lint.plan_s", "s", false),
    layer("core.prepare_s", "s", false),
    layer("core.codec_encode_mb_per_s", "MB/s", true),
    layer("core.codec_decode_mb_per_s", "MB/s", true),
    layer("core.codec_bytes_per_triple", "B", false),
    layer("net.cluster_s", "s", false),
    layer("net.rounds", "count", false),
    layer("net.setup_bytes", "B", false),
    layer("net.round_bytes", "B", false),
    layer("net.final_bytes", "B", false),
    layer("net.frames", "count", false),
    layer("net.worker_reason_s", "s", false),
    layer("net.worker_io_s", "s", false),
    layer("net.worker_sync_s", "s", false),
    layer("query.parse_us", "us", false),
    layer("query.exec_us.lookup", "us", false),
    layer("query.exec_us.scan", "us", false),
    layer("query.exec_us.join", "us", false),
    layer("query.rows_per_result", "count", false),
    layer("serve.materialize_s", "s", false),
    layer("serve.rtt_us", "us", false),
    layer("serve.large_reply_us", "us", false),
    layer("serve.query_p99_us", "us", false),
    layer("serve.insert_p99_us", "us", false),
    layer("serve.recover_s", "s", false),
    layer("serve.wal_bytes_per_insert_byte", "ratio", false),
    layer("serve.checkpoints", "count", false),
    layer("serve.epochs", "count", true),
    layer("serve.busy_rejections", "count", false),
    layer("obs.trace_overhead", "ratio", false),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}
