//! Per-layer measurements of the traced run: each times calls into one
//! layer's public functions from outside, under a harness span.

use crate::batch::{cluster_config, CLUSTER_K};
use crate::common::Ctx;
use crate::Res;
use owlpar_core::{
    analyze_strategy, decode_triple_block, encode_triple_block, prepare_run, PartitioningStrategy,
    PlanningBase, RunReport,
};
use owlpar_datalog::MaterializationStrategy;
use owlpar_horst::HorstReasoner;
use owlpar_obs::{Phase, Recorder, TraceBook};
use owlpar_partition::multilevel::PartitionOptions;
use owlpar_partition::{partition_data, OwnershipPolicy};
use owlpar_rdf::vocab::RDF_TYPE;
use owlpar_rdf::{snapshot, FrozenStore, Graph, Term, Triple, TriplePattern, TripleSource};
use std::hint::black_box;
use std::time::Instant;

/// The `owlpar_obs` recorder's view of one traced repetition, kept for
/// the Chrome trace written at exit.
#[derive(Default)]
pub struct ObsCapture {
    pub book: TraceBook,
    pub totals: Vec<(Phase, u64, u64)>,
    /// Add to the recorder's timestamps to get harness time.
    pub offset_us: f64,
}

pub fn keep_obs_trace(ctx: &mut Ctx, rec: &Recorder) {
    let offset_us = ctx.spans.now_us() - rec.now_us() as f64;
    let totals = rec.phase_totals();
    ctx.obs = Some(ObsCapture {
        book: rec.drain(),
        totals,
        offset_us,
    });
}

/// `for_each_match` over all eight pattern shapes: each shape with a
/// bound position is probed with constants from a sample of stored
/// triples until it has visited one store's worth (a bare predicate gets
/// there in a few probes, a full triple never does); the unbound shape is
/// one full scan. Nanoseconds per triple visited.
pub fn scan_ns_per_triple<S: TripleSource>(store: &S, sample: &[Triple]) -> f64 {
    let mut visited = 0usize;
    let t0 = Instant::now();
    for mask in 0..8u8 {
        let mut seen = 0usize;
        for t in sample {
            let pat = TriplePattern::new(
                (mask & 4 != 0).then_some(t.s),
                (mask & 2 != 0).then_some(t.p),
                (mask & 1 != 0).then_some(t.o),
            );
            store.for_each_match(pat, |m| {
                seen += 1;
                black_box(m);
            });
            if seen >= store.len() {
                break;
            }
        }
        visited += seen;
    }
    t0.elapsed().as_secs_f64() * 1e9 / visited.max(1) as f64
}

/// Every `step`-th triple of a sorted list.
fn every(sorted: &[Triple], step: usize) -> Vec<Triple> {
    sorted.iter().copied().step_by(step.max(1)).collect()
}

/// The `rdf` layer on a closed graph: freeze, scan, merge, snapshot.
pub fn rdf_layer(ctx: &mut Ctx, closed: &Graph) -> Res<()> {
    let (frozen, freeze_s) = ctx
        .spans
        .time("rdf.freeze", || FrozenStore::from_store(&closed.store));
    ctx.set("rdf.freeze_s", freeze_s);

    let sorted = frozen.iter_sorted();
    let sample = every(&sorted, sorted.len() / 512);
    let (ns, _) = ctx
        .spans
        .time("rdf.scan", || scan_ns_per_triple(&frozen, &sample));
    ctx.set("rdf.scan_ns_per_triple", ns);

    // A sorted 1 % delta merged back into the other 99 %.
    let delta = every(&sorted, 100);
    let rest = FrozenStore::from_triples(
        sorted
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 100 != 0)
            .map(|(_, t)| *t),
    );
    let (merged, merge_s) = ctx.spans.time("rdf.merge", || rest.merge_triples(&delta));
    if merged.len() != sorted.len() {
        return Err(format!("merge gave {} of {} triples", merged.len(), sorted.len()).into());
    }
    ctx.set("rdf.merge_s", merge_s);

    let (bytes, _) = ctx
        .spans
        .time("rdf.snapshot", || snapshot::save_to_vec(closed));
    let bytes = bytes.map_err(|e| format!("snapshot: {e}"))?;
    ctx.set(
        "rdf.snapshot_bytes_per_triple",
        bytes.len() as f64 / closed.len() as f64,
    );
    Ok(())
}

/// `partition`, `lint`, `core` and `net` on the cluster workload's KB.
pub fn cluster_layers(ctx: &mut Ctx, base: &Graph, closed: &Graph, report: &RunReport) -> Res<()> {
    let mut g = base.clone();
    let hr = HorstReasoner::from_graph(&mut g, MaterializationStrategy::ForwardSemiNaive);
    let rdf_type = g.dict.id(&Term::iri(RDF_TYPE));
    let policy = OwnershipPolicy::Graph(PartitionOptions::default());
    let (parts, partition_s) = ctx.spans.time("partition.partition_data", || {
        partition_data(&hr.instance_triples, &g.dict, rdf_type, CLUSTER_K, &policy)
    });
    ctx.set("partition.partition_s", partition_s);
    ctx.set("partition.edge_cut", parts.edge_cut.unwrap_or(0) as f64);
    let largest = parts.parts.iter().map(Vec::len).max().unwrap_or(0) as f64;
    let mean = parts.parts.iter().map(Vec::len).sum::<usize>() as f64 / CLUSTER_K as f64;
    ctx.set("partition.balance", largest / mean.max(1.0));
    ctx.set("partition.replication", report.output_replication);

    let planning = PlanningBase::compile(&mut base.clone(), &[]);
    let (plan, plan_s) = ctx.spans.time("lint.analyze_strategy", || {
        analyze_strategy(
            &planning,
            &g.dict,
            CLUSTER_K,
            &PartitioningStrategy::data_graph(),
        )
    });
    plan.map_err(|e| format!("plan analysis: {e}"))?;
    ctx.set("lint.plan_s", plan_s);

    let mut fresh = base.clone();
    let (plan, prepare_s) = ctx.spans.time("core.prepare_run", || {
        prepare_run(&mut fresh, &cluster_config())
    });
    plan.map_err(|e| format!("prepare_run: {e}"))?;
    ctx.set("core.prepare_s", prepare_s);

    let sorted = closed.store.iter_sorted();
    let (block, encode_s) = ctx
        .spans
        .time("core.codec_encode", || encode_triple_block(&sorted));
    let (decoded, decode_s) = ctx
        .spans
        .time("core.codec_decode", || decode_triple_block(&block));
    let (decoded, _) = decoded.map_err(|e| format!("codec: {e}"))?;
    if decoded != sorted {
        return Err("codec round trip changed the triples".into());
    }
    let mb = block.len() as f64 / 1e6;
    ctx.set("core.codec_encode_mb_per_s", mb / encode_s);
    ctx.set("core.codec_decode_mb_per_s", mb / decode_s);
    ctx.set(
        "core.codec_bytes_per_triple",
        block.len() as f64 / sorted.len() as f64,
    );

    let wire = report
        .wire
        .as_ref()
        .ok_or("cluster run reported no wire statistics")?;
    ctx.set("net.rounds", report.max_rounds() as f64);
    ctx.set("net.setup_bytes", wire.setup.bytes as f64);
    ctx.set("net.round_bytes", wire.rounds.bytes as f64);
    ctx.set("net.final_bytes", wire.finals.bytes as f64);
    ctx.set(
        "net.frames",
        (wire.setup.frames + wire.rounds.frames + wire.finals.frames) as f64,
    );
    let slowest = |f: fn(&owlpar_core::WorkerStats) -> std::time::Duration| {
        report
            .workers
            .iter()
            .map(|w| f(w).as_secs_f64())
            .fold(0.0, f64::max)
    };
    ctx.set("net.worker_reason_s", slowest(|w| w.reason_time));
    ctx.set("net.worker_io_s", slowest(|w| w.io_time));
    ctx.set("net.worker_sync_s", slowest(|w| w.sync_time));
    Ok(())
}
