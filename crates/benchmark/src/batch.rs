//! The batch workloads: `closure.lubm`, `closure.uobm` (single node) and
//! `cluster.lubm` (master + two workers over loopback TCP). They share one
//! life cycle — set up; for the timed region materialize again and again,
//! each time reading the result back and maintaining it incrementally in
//! process; then check every repetition against the serial oracle — and
//! differ in the KB and in how one materialization is run.

use crate::common::{load_kb, oracle_closure, peak_rss_mb, Ctx, InProcessOps};
use crate::inputs::{Catalog, KbKind, KbSpec};
use crate::layers;
use crate::stats::{median, summarize};
use crate::Res;
use owlpar_core::{ParallelConfig, PartitioningStrategy, RunReport};
use owlpar_datalog::MaterializationStrategy;
use owlpar_horst::HorstReasoner;
use owlpar_net::{run_cluster_master, run_cluster_worker, MasterOptions, WorkerOptions};
use owlpar_obs::Recorder;
use owlpar_rdf::Graph;
use std::net::TcpListener;
use std::time::Instant;

/// Workers (= partitions) of the cluster workload: one per core here.
pub const CLUSTER_K: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Closure,
    Cluster,
}

pub fn spec(workload: &str, tiny: bool) -> KbSpec {
    let lubm = |universities, triples| KbSpec {
        kind: KbKind::Lubm,
        universities,
        scale: 1.0,
        triples,
    };
    if tiny {
        return KbSpec {
            kind: if workload == "closure.uobm" {
                KbKind::Uobm
            } else {
                KbKind::Lubm
            },
            universities: 1,
            scale: 0.1,
            triples: 240,
        };
    }
    match workload {
        "closure.uobm" => KbSpec {
            kind: KbKind::Uobm,
            ..lubm(8, 240_000)
        },
        "cluster.lubm" => lubm(8, 200_000),
        _ => lubm(14, 400_000),
    }
}

/// What one materialization left behind.
struct Rep {
    graph: Graph,
    /// The reasoner compiled for `graph`, for the inserts that follow.
    hr: HorstReasoner,
    seconds: f64,
    compile_s: f64,
    closure_s: f64,
    derived: usize,
    rules: usize,
    report: Option<RunReport>,
}

fn closure_rep(ctx: &mut Ctx, base: &Graph) -> Res<Rep> {
    let mut graph = base.clone();
    let whole = ctx.spans.begin("materialize");
    let (hr, compile_s) = ctx.spans.time("horst.compile", || {
        HorstReasoner::from_graph(
            &mut graph,
            MaterializationStrategy::ForwardParallel { threads: 0 },
        )
    });
    let (derived, closure_s) = ctx
        .spans
        .time("datalog.closure", || hr.materialize(&mut graph));
    let seconds = ctx.spans.end(whole);
    Ok(Rep {
        graph,
        seconds,
        compile_s,
        closure_s,
        derived,
        rules: hr.rules().len(),
        hr,
        report: None,
    })
}

pub fn cluster_config() -> ParallelConfig {
    ParallelConfig {
        k: CLUSTER_K,
        strategy: PartitioningStrategy::data_graph(),
        ..ParallelConfig::default()
    }
    .forward()
}

/// Master plus [`CLUSTER_K`] worker threads over loopback TCP, no
/// partition cache (every run ships full partitions).
fn cluster_rep(ctx: &mut Ctx, base: &Graph, trace: Option<Recorder>) -> Res<Rep> {
    let mut graph = base.clone();
    let cfg = cluster_config();
    let whole = ctx.spans.begin("materialize");
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let worker_opts = WorkerOptions::default();
    let master_opts = MasterOptions {
        trace,
        ..MasterOptions::default()
    };
    let cluster = ctx.spans.begin("net.cluster");
    let report = std::thread::scope(|s| -> Res<RunReport> {
        let workers: Vec<_> = (0..CLUSTER_K)
            .map(|_| s.spawn(|| run_cluster_worker(addr, &worker_opts)))
            .collect();
        let report = run_cluster_master(&mut graph, &cfg, listener, &master_opts);
        for w in workers {
            w.join()
                .map_err(|_| "cluster worker thread panicked")?
                .map_err(|e| format!("cluster worker: {e}"))?;
        }
        Ok(report.map_err(|e| format!("cluster master: {e}"))?)
    })?;
    let closure_s = ctx.spans.end(cluster);
    let seconds = ctx.spans.end(whole);
    let hr = HorstReasoner::from_graph(&mut graph, MaterializationStrategy::ForwardSemiNaive);
    Ok(Rep {
        graph,
        seconds,
        compile_s: 0.0,
        closure_s,
        derived: report.derived,
        rules: hr.rules().len(),
        hr,
        report: Some(report),
    })
}

pub fn run(ctx: &mut Ctx, kind: Kind) -> Res<()> {
    let spec = spec(ctx.workload, ctx.tiny);

    let t0 = Instant::now();
    let loaded = load_kb(&spec, ctx.seed, &mut ctx.spans)?;
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    let base = loaded.graph;
    let cat = Catalog::of(&base)?;
    ctx.note(format!(
        "kb: {} of {} generated triples kept",
        base.len(),
        loaded.generated
    ));

    // Timed region: materialize until the time is up, and after each
    // materialization read its result back and maintain it, in process.
    let (queries, inserts) = if ctx.tiny { (100, 20) } else { (600, 200) };
    let mut ops = InProcessOps::new(ctx.seed);
    let timed = Instant::now();
    let mut reps: Vec<(f64, usize, u64)> = Vec::new();
    let mut last: Option<Rep> = None;
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    while reps.len() < ctx.min_reps() || timed.elapsed().as_secs_f64() < ctx.seconds {
        ctx.spans.set_group(reps.len() as u64);
        // The traced run alternates repetitions with the `owlpar_obs`
        // recorder off and on; their ratio is the tracing overhead.
        let rec = (ctx.traced && reps.len() % 2 == 1).then(Recorder::enabled);
        if let Some(rec) = &rec {
            owlpar_obs::install_global(rec.clone());
        }
        drop(last.take());
        let mut rep = match kind {
            Kind::Closure => closure_rep(ctx, &base)?,
            Kind::Cluster => cluster_rep(ctx, &base, rec.clone())?,
        };
        if let Some(rec) = rec {
            owlpar_obs::install_global(Recorder::disabled());
            traced_s.push(rep.seconds);
            layers::keep_obs_trace(ctx, &rec);
        } else {
            plain_s.push(rep.seconds);
        }
        reps.push((rep.seconds, rep.graph.len(), rep.graph.term_fingerprint()));
        ops.slice(
            &mut ctx.spans,
            &mut rep.graph,
            &rep.hr,
            &cat,
            queries,
            inserts,
        )?;
        last = Some(rep);
    }
    let Some(mut last) = last else {
        return Err("no repetition ran".into());
    };
    let times: Vec<f64> = reps.iter().map(|r| r.0).collect();
    let s = summarize(&times);
    ctx.set("materialize_s", s.median);
    ctx.set("peak_rss_mb", peak_rss_mb()?);
    ctx.note(format!(
        "materialize_s: median {:.4} q1 {:.4} q3 {:.4} n {} ({} base -> {} closed triples)",
        s.median,
        s.q1,
        s.q3,
        s.n,
        base.len(),
        last.graph.len()
    ));

    // Oracle, after the timed region: the serial closure.
    let (mut oracle, oracle_hr) = oracle_closure(&base);
    let want = (oracle.len(), oracle.term_fingerprint());
    for (i, &(_, len, fp)) in reps.iter().enumerate() {
        ctx.check((len, fp) == want, || {
            format!(
                "repetition {i}: closure {len}/{fp:016x}, serial oracle {}/{:016x}",
                want.0, want.1
            )
        });
    }

    ops.check(ctx, &mut oracle, &oracle_hr)?;
    let ops = ops.samples;
    ctx.set("ops_per_s", ops.ops_per_s());
    ctx.set("query_p50_us", median(&ops.query_us));
    ctx.set("insert_p50_us", median(&ops.insert_us));

    for i in 1..ctx.setups() {
        ctx.spans.set_group(i as u64);
        let t0 = Instant::now();
        load_kb(&spec, ctx.seed, &mut ctx.spans)?;
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    ctx.set("setup_s", median(&setup_s));

    if ctx.traced {
        ctx.set("datagen.generate_s", loaded.generate_s);
        ctx.set("datagen.triples", base.len() as f64);
        ctx.set(
            "rdf.parse_triples_per_s",
            base.len() as f64 / loaded.parse_s,
        );
        ctx.set("obs.trace_overhead", median(&traced_s) / median(&plain_s));
        ops.report_query_layers(ctx);
        ctx.set("horst.delta_us", median(&ops.delta_us));
        match kind {
            Kind::Closure => {
                ctx.set("horst.compile_s", last.compile_s);
                ctx.set("horst.rules", last.rules as f64);
                ctx.set("datalog.closure_s", last.closure_s);
                ctx.set("datalog.derived", last.derived as f64);
                ctx.set(
                    "datalog.derived_per_s",
                    last.derived as f64 / last.closure_s,
                );
                ctx.set(
                    "datalog.derived_per_base",
                    last.derived as f64 / base.len() as f64,
                );
                layers::rdf_layer(ctx, &oracle)?;
            }
            Kind::Cluster => {
                let report = last.report.take().ok_or("cluster run left no report")?;
                ctx.set("net.cluster_s", last.closure_s);
                layers::cluster_layers(ctx, &base, &oracle, &report)?;
            }
        }
    }
    Ok(())
}
