//! The serving workloads: `serve.read` (no durability, two clients
//! querying) and `serve.write` (WAL + checkpoints, one client inserting
//! beside one querying). Closed loop: each of the two client connections
//! sends its next request when the previous reply has arrived.
//!
//! The server is started the way `owlpar-serve run` starts it —
//! `run_parallel`, `HorstReasoner::from_graph`, `ServingKb::from_closed`
//! (together: `ServingKb::materialize`), `Durability::init`, `serve` — and
//! is reached only through `owlpar_serve::Client`.

use crate::common::{
    apply_batch, intern_batch, load_kb, oracle_closure, peak_rss_mb, run_query, Ctx, OpSamples,
};
use crate::inputs::{
    insert_batch, mixed_class, query, Catalog, KbKind, KbSpec, QueryClass, Rng, QUERY_CLASSES,
};
use crate::layers;
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::Res;
use owlpar_core::{run_parallel, ParallelConfig, PartitioningStrategy};
use owlpar_datalog::MaterializationStrategy;
use owlpar_horst::HorstReasoner;
use owlpar_obs::Recorder;
use owlpar_query::{execute, parse_query_frozen, render_row};
use owlpar_rdf::Graph;
use owlpar_serve::{
    recover, run_info, serve, Client, Durability, DurabilityConfig, KbSnapshot, ServeConfig,
    ServerHandle, ServingKb,
};
use std::hash::BuildHasher;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections, one thread each: the machine has two cores.
const CLIENTS: u32 = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

pub fn spec(kind: Kind, tiny: bool) -> KbSpec {
    let (universities, scale, triples) = match (tiny, kind) {
        (true, _) => (1, 0.1, 240),
        (false, Kind::Read) => (8, 1.0, 200_000),
        (false, Kind::Write) => (2, 1.0, 30_000),
    };
    KbSpec {
        kind: KbKind::Lubm,
        universities,
        scale,
        triples,
    }
}

struct Served {
    handle: ServerHandle,
    addr: SocketAddr,
    /// The epoch-0 state, for the per-layer read path.
    snapshot: Arc<KbSnapshot>,
    /// Read from the loaded base, which is not kept: the oracle loads it
    /// again, after `peak_rss_mb` is read.
    cat: Catalog,
    base_triples: usize,
    data_dir: Option<PathBuf>,
    materialize_s: f64,
    generate_s: f64,
    parse_s: f64,
}

fn start(ctx: &mut Ctx, spec: &KbSpec, data_dir: Option<PathBuf>) -> Res<Served> {
    let loaded = load_kb(spec, ctx.seed, &mut ctx.spans)?;
    let cat = Catalog::of(&loaded.graph)?;
    let base_triples = loaded.graph.len();
    let mut graph = loaded.graph;
    let cfg = ParallelConfig {
        k: 2,
        strategy: PartitioningStrategy::data_graph(),
        ..ParallelConfig::default()
    }
    .forward();
    let span = ctx.spans.begin("serve.materialize");
    let report = run_parallel(&mut graph, &cfg).map_err(|e| format!("run_parallel: {e}"))?;
    let reasoner = HorstReasoner::from_graph(&mut graph, MaterializationStrategy::ForwardSemiNaive);
    let durability = match &data_dir {
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            // fsync-before-ack and the 1 MiB WAL checkpoint trigger: the
            // defaults `owlpar-serve run --data-dir` uses.
            let init = ctx.spans.begin("serve.durability_init");
            let d = Durability::init(DurabilityConfig::new(dir), &graph)
                .map_err(|e| format!("Durability::init: {e}"))?;
            ctx.spans.end(init);
            Some(d)
        }
        None => None,
    };
    let mut kb = ServingKb::from_closed(graph, reasoner);
    let materialize_s = ctx.spans.end(span);
    if let Some(d) = durability {
        kb = kb.with_durability(d);
    }
    let snapshot = kb.snapshot();
    let handle =
        serve(kb, run_info(&report), &ServeConfig::default()).map_err(|e| format!("serve: {e}"))?;
    let addr = handle.addr();
    Client::connect(addr)
        .and_then(|mut c| c.ping())
        .map_err(|e| format!("first ping: {e}"))?;
    Ok(Served {
        handle,
        addr,
        snapshot,
        cat,
        base_triples,
        data_dir,
        materialize_s,
        generate_s: loaded.generate_s,
        parse_s: loaded.parse_s,
    })
}

fn stop(handle: ServerHandle) -> Res<()> {
    Client::connect(handle.addr())
        .and_then(|mut c| c.shutdown())
        .map_err(|e| format!("shutdown: {e}"))?;
    handle.join().map_err(|e| format!("server drain: {e}"))?;
    Ok(())
}

/// A reply kept for the oracle.
struct Sampled {
    text: String,
    rows: usize,
    epoch: u64,
}

struct Inserted {
    nt: String,
    epoch: u64,
    added: usize,
    derived: usize,
}

#[derive(Default)]
struct ClientLog {
    query_us: Vec<f64>,
    insert_us: Vec<f64>,
    sampled: Vec<Sampled>,
    inserted: Vec<Inserted>,
    /// Error replies, BUSY and broken connections.
    errors: Vec<String>,
}

/// Closed-loop querying until `deadline`; `class` fixes the query class
/// (`None`: the 70/20/10 mix).
fn query_client(
    addr: SocketAddr,
    cat: &Catalog,
    seed: u64,
    class: Option<QueryClass>,
    deadline: Instant,
    spans: &mut Spans,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut rng = Rng::new(seed);
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.errors.push(format!("connect: {e}"));
            return log;
        }
    };
    let mut n = 0u64;
    while Instant::now() < deadline {
        let class = class.unwrap_or_else(|| mixed_class(&mut rng));
        let text = query(class, cat, &mut rng);
        spans.set_group(n);
        let span = spans.begin("client.query");
        let reply = client.query(&text);
        let us = spans.end(span) * 1e6;
        match reply {
            Ok(r) => {
                log.query_us.push(us);
                if n.is_multiple_of(100) {
                    log.sampled.push(Sampled {
                        text,
                        rows: r.rows.len(),
                        epoch: r.epoch,
                    });
                }
            }
            Err(e) => log.errors.push(format!("query: {e}")),
        }
        n += 1;
    }
    log
}

/// When a closed-loop insert stream ends.
#[derive(Clone, Copy)]
enum Until {
    Deadline(Instant),
    Count(usize),
}

/// Closed-loop inserting.
fn insert_client(
    addr: SocketAddr,
    cat: &Catalog,
    seed: u64,
    until: Until,
    spans: &mut Spans,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut rng = Rng::new(seed);
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.errors.push(format!("connect: {e}"));
            return log;
        }
    };
    let mut n = 0usize;
    while match until {
        Until::Deadline(d) => Instant::now() < d,
        Until::Count(count) => n < count,
    } {
        let nt = insert_batch("live", n, cat, &mut rng);
        spans.set_group(n as u64);
        let span = spans.begin("client.insert");
        let reply = client.insert(&nt);
        let us = spans.end(span) * 1e6;
        match reply {
            Ok(r) => {
                log.insert_us.push(us);
                log.inserted.push(Inserted {
                    nt,
                    epoch: r.epoch,
                    added: r.added as usize,
                    derived: r.derived as usize,
                });
            }
            Err(e) => log.errors.push(format!("insert: {e}")),
        }
        n += 1;
    }
    log
}

/// Order-independent fingerprint of a whole KB as the server renders it.
fn rendered_fingerprint(rows: impl Iterator<Item = Vec<String>>) -> (usize, u64) {
    let hasher = owlpar_rdf::fx::FxBuildHasher::default();
    let (mut n, mut acc) = (0usize, 0u64);
    for row in rows {
        acc ^= hasher.hash_one(&row);
        n += 1;
    }
    (n, acc)
}

/// The same fingerprint of an in-process graph.
fn graph_fingerprint(g: &Graph) -> Res<(usize, u64)> {
    // Parsed against `g`'s own dictionary: ids differ between graphs.
    let dump = parse_query_frozen(DUMP, &g.dict).map_err(|e| e.to_string())?;
    let rows = execute(&g.store, &dump);
    Ok(rendered_fingerprint(
        rows.iter().map(|r| render_row(&g.dict, r)),
    ))
}

const DUMP: &str = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }";
/// About 20 KB of rows.
const LARGE_REPLY: &str = "SELECT ?s WHERE { ?s ?p ?o } LIMIT 400";

/// Replay the acknowledged inserts on a mirror of the served KB (the
/// serial closure of the same base) and check every insert's counts and
/// every sampled query against the mirror at the reply's epoch.
fn check_against_mirror(
    ctx: &mut Ctx,
    base: &Graph,
    inserted: &[Inserted],
    mut sampled: Vec<Sampled>,
) -> Res<Graph> {
    let (mut mirror, hr) = oracle_closure(base);
    sampled.sort_by_key(|s| s.epoch);
    let mut sampled = sampled.into_iter().peekable();
    let mut check_epoch = |ctx: &mut Ctx, mirror: &Graph, epoch: u64| -> Res<()> {
        while let Some(s) = sampled.next_if(|s| s.epoch <= epoch) {
            let (want, _, _) = run_query(&mirror.store, &mirror.dict, &s.text)?;
            ctx.check(s.epoch == epoch && s.rows == want, || {
                format!(
                    "epoch {} reply had {} rows, oracle at epoch {epoch} {want}: {}",
                    s.epoch, s.rows, s.text
                )
            });
        }
        Ok(())
    };
    check_epoch(ctx, &mirror, 0)?;
    for (i, ins) in inserted.iter().enumerate() {
        let batch = intern_batch(&mut mirror, &ins.nt)?;
        let want = apply_batch(&mut mirror, &hr, &batch)?;
        let epoch = i as u64 + 1;
        ctx.check((ins.added, ins.derived) == want && ins.epoch == epoch, || {
            format!(
                "insert {i} acknowledged epoch {} added/derived {}/{}, oracle epoch {epoch} {want:?}",
                ins.epoch, ins.added, ins.derived
            )
        });
        check_epoch(ctx, &mirror, epoch)?;
    }
    // Replies from an epoch no acknowledged insert published.
    for s in sampled {
        ctx.check(false, || format!("reply from unknown epoch {}", s.epoch));
    }
    Ok(mirror)
}

/// Median latency in µs of `n` calls of `f`.
fn median_us(n: usize, mut f: impl FnMut() -> Res<()>) -> Res<f64> {
    let mut us = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        f()?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&us))
}

pub fn run(ctx: &mut Ctx, kind: Kind) -> Res<()> {
    let spec = spec(kind, ctx.tiny);
    let tmp = ctx.tmp.clone();
    let dir = |i: usize| (kind == Kind::Write).then(|| tmp.join(format!("data-{i}")));

    // The traced run serves with the `owlpar_obs` recorder on. Installed
    // before the KB is built: its writer lane and the pool threads bind to
    // the ambient recorder at construction.
    let rec = ctx.traced.then(Recorder::enabled);
    if let Some(rec) = &rec {
        owlpar_obs::install_global(rec.clone());
    }
    let t0 = Instant::now();
    let Served {
        handle,
        addr,
        snapshot,
        cat,
        base_triples,
        data_dir,
        materialize_s: first_materialize_s,
        generate_s,
        parse_s,
    } = start(ctx, &spec, dir(0))?;
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    let mut materialize_s = vec![first_materialize_s];

    // The wire's floor (PING) and a reply too large for the server's
    // write buffer, which the mix below never asks for.
    let (mut rtt_us, mut large_reply_us) = (0.0, 0.0);
    if ctx.traced {
        let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        rtt_us = median_us(200, || Ok(c.ping().map_err(|e| format!("ping: {e}"))?))?;
        large_reply_us = median_us(20, || {
            c.query(LARGE_REPLY)
                .map_err(|e| format!("large reply: {e}"))?;
            Ok(())
        })?;
    }

    // Timed region.
    let seed = ctx.seed;
    let mut lanes = [ctx.spans.lane(1), ctx.spans.lane(2)];
    let [lane_a, lane_b] = &mut lanes;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(ctx.seconds);
    let (log_a, log_b) = std::thread::scope(|s| {
        let cat = &cat;
        let a = s.spawn(move || match kind {
            Kind::Read => query_client(addr, cat, seed ^ 0xa, None, deadline, lane_a),
            Kind::Write => insert_client(addr, cat, seed ^ 0xa, Until::Deadline(deadline), lane_a),
        });
        let b = s.spawn(move || {
            let class = (kind == Kind::Write).then_some(QueryClass::Lookup);
            query_client(addr, cat, seed ^ 0xb, class, deadline, lane_b)
        });
        (a.join(), b.join())
    });
    let wall_s = started.elapsed().as_secs_f64();
    let log_a = log_a.map_err(|_| "client A panicked")?;
    let log_b = log_b.map_err(|_| "client B panicked")?;
    for lane in lanes {
        ctx.spans.absorb(lane);
    }
    ctx.set("peak_rss_mb", peak_rss_mb()?);

    // `serve.read` has no writes in its timed region; its insert latency
    // comes from a short in-memory insert stream after it.
    let log_w = match kind {
        Kind::Read => {
            let mut lane = ctx.spans.lane(1);
            let count = Until::Count(if ctx.tiny { 20 } else { 500 });
            let log = insert_client(addr, &cat, seed ^ 0xc, count, &mut lane);
            ctx.spans.absorb(lane);
            log
        }
        Kind::Write => ClientLog::default(),
    };

    let query_us: Vec<f64> = log_a
        .query_us
        .iter()
        .chain(&log_b.query_us)
        .copied()
        .collect();
    let insert_us = match kind {
        Kind::Read => &log_w.insert_us,
        Kind::Write => &log_a.insert_us,
    };
    let done = query_us.len() + log_a.insert_us.len();
    ctx.set("ops_per_s", done as f64 / wall_s);
    ctx.set("query_p50_us", median(&query_us));
    ctx.set("insert_p50_us", median(insert_us));
    ctx.note(format!(
        "{done} requests in {wall_s:.3} s from {CLIENTS} closed-loop clients: \
         {} queries (p50 {:.1} p90 {:.1} p99 {:.1} us), {} inserts",
        query_us.len(),
        percentile(&query_us, 0.5),
        percentile(&query_us, 0.9),
        percentile(&query_us, 0.99),
        log_a.insert_us.len()
    ));

    // The live KB before it goes away: its size, and for the durable
    // workload every triple as the server renders it.
    let mut control = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let stats = control.stats().map_err(|e| format!("stats: {e}"))?;
    let stats = owlpar_obs::json::parse(&stats).map_err(|e| format!("STATS: {e}"))?;
    let stat = |k: &str| stats.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
    let live_fp = match kind {
        Kind::Read => None,
        Kind::Write => {
            let live = control.query(DUMP).map_err(|e| format!("dump: {e}"))?;
            Some(rendered_fingerprint(live.rows.into_iter()))
        }
    };
    drop(control);
    stop(handle)?;
    if let Some(rec) = &rec {
        owlpar_obs::install_global(Recorder::disabled());
        layers::keep_obs_trace(ctx, rec);
    }

    // Oracles, on the same base loaded again.
    let base = load_kb(&spec, ctx.seed, &mut ctx.spans)?.graph;
    for log in [&log_a, &log_b, &log_w] {
        // Sampled queries and all inserts are counted when checked.
        ctx.attempted += (log.query_us.len() - log.sampled.len()) as u64;
        for e in &log.errors {
            ctx.check(false, || e.clone());
        }
    }
    let inserted = match kind {
        Kind::Read => log_w.inserted,
        Kind::Write => log_a.inserted,
    };
    let mut sampled = log_a.sampled;
    sampled.extend(log_b.sampled);
    let mirror = check_against_mirror(ctx, &base, &inserted, sampled)?;
    let live_triples = stat("triples") as usize;
    ctx.check(live_triples == mirror.len(), || {
        format!(
            "live KB holds {live_triples} triples, oracle {}",
            mirror.len()
        )
    });

    // Restart from what the run left on disk.
    let mut recovered = None;
    if let (Some(dir), Some(live_fp)) = (&data_dir, live_fp) {
        let mirror_fp = graph_fingerprint(&mirror)?;
        ctx.check(live_fp == mirror_fp, || {
            format!("live KB {live_fp:x?} differs from the oracle's {mirror_fp:x?}")
        });
        let (out, recover_s) = ctx
            .spans
            .time("serve.recover", || recover(DurabilityConfig::new(dir)));
        let (graph, durability, report) = out.map_err(|e| format!("recover: {e}"))?;
        let fp = graph_fingerprint(&graph)?;
        ctx.check(fp == live_fp, || {
            format!("recovered KB {fp:x?} differs from the live KB {live_fp:x?}")
        });
        ctx.note(format!("recover_s: {recover_s:.4} ({})", report.summary()));
        recovered = Some((recover_s, durability.seq()));
    }

    // The other set-ups (recorder off), for the medians; the traced run
    // makes one, for the tracing overhead.
    for i in 1..if ctx.traced { 2 } else { ctx.setups() } {
        ctx.spans.set_group(i as u64);
        let t0 = Instant::now();
        let again = start(ctx, &spec, dir(i))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        materialize_s.push(again.materialize_s);
        stop(again.handle)?;
    }
    ctx.set("setup_s", median(&setup_s));
    ctx.set("materialize_s", median(&materialize_s));

    if ctx.traced {
        ctx.set("datagen.generate_s", generate_s);
        ctx.set("datagen.triples", base_triples as f64);
        ctx.set("rdf.parse_triples_per_s", base_triples as f64 / parse_s);
        ctx.set("serve.materialize_s", first_materialize_s);
        ctx.set("obs.trace_overhead", materialize_s[0] / materialize_s[1]);
        ctx.set("serve.rtt_us", rtt_us);
        ctx.set("serve.large_reply_us", large_reply_us);
        ctx.set("serve.query_p99_us", percentile(&query_us, 0.99));
        ctx.set("serve.insert_p99_us", percentile(insert_us, 0.99));
        ctx.set("serve.epochs", stat("epoch"));
        ctx.set("serve.busy_rejections", stat("busy_rejections"));
        if let Some((recover_s, checkpoints)) = recovered {
            ctx.set("serve.recover_s", recover_s);
            ctx.set("serve.checkpoints", checkpoints as f64);
        }
        read_path_layers(ctx, &snapshot, &cat)?;
        if let Some(dir) = &data_dir {
            write_path_layers(ctx, &base, &cat, dir)?;
        }
    }
    Ok(())
}

/// `query` and `rdf` under the read path, on the snapshot the server
/// answered from and without the wire.
fn read_path_layers(ctx: &mut Ctx, snapshot: &KbSnapshot, cat: &Catalog) -> Res<()> {
    let mut rng = Rng::new(ctx.seed ^ 0x5eed_0002);
    let mut samples = OpSamples::default();
    for class in QUERY_CLASSES {
        let n = if class == QueryClass::Join { 100 } else { 500 };
        for _ in 0..n {
            let text = query(class, cat, &mut rng);
            let span = ctx.spans.begin("query.execute");
            let (rows, parse_us, exec_us) = run_query(&snapshot.store, &snapshot.dict, &text)?;
            ctx.spans.end(span);
            samples.parse_us.push(parse_us);
            samples.rows.push(rows as f64);
            samples
                .exec_us
                .entry(class.name())
                .or_default()
                .push(exec_us);
        }
    }
    samples.report_query_layers(ctx);
    let step = (snapshot.store.len() / 512).max(1);
    let sample: Vec<_> = snapshot.store.iter().step_by(step).collect();
    let (ns, _) = ctx.spans.time("rdf.scan", || {
        layers::scan_ns_per_triple(&snapshot.store, &sample)
    });
    ctx.set("rdf.scan_ns_per_triple", ns);
    Ok(())
}

/// `horst`, `rdf` and the WAL under the write path, without the wire.
fn write_path_layers(ctx: &mut Ctx, base: &Graph, cat: &Catalog, dir: &Path) -> Res<()> {
    let (mut closed, hr) = oracle_closure(base);
    let mut rng = Rng::new(ctx.seed ^ 0x5eed_0003);
    let wal_dir = dir.with_extension("wal-probe");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let mut durability =
        Durability::init(DurabilityConfig::new(&wal_dir), &closed).map_err(|e| e.to_string())?;
    let mut delta_us = Vec::new();
    let mut user_bytes = 0u64;
    for i in 0..300 {
        let nt = insert_batch("layer", i, cat, &mut rng);
        let batch = intern_batch(&mut closed, &nt)?;
        let (out, s) = ctx
            .spans
            .time("horst.delta", || apply_batch(&mut closed, &hr, &batch));
        out?;
        delta_us.push(s * 1e6);
        let (logged, _) = ctx
            .spans
            .time("serve.wal_append", || durability.log_batch(&nt));
        logged.map_err(|e| format!("log_batch: {e}"))?;
        user_bytes += nt.len() as u64;
    }
    let mut wal_bytes = 0u64;
    for entry in std::fs::read_dir(&wal_dir)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().starts_with("wal-") {
            wal_bytes += entry.metadata()?.len();
        }
    }
    ctx.set(
        "serve.wal_bytes_per_insert_byte",
        wal_bytes as f64 / user_bytes as f64,
    );
    ctx.set("horst.delta_us", median(&delta_us));
    layers::rdf_layer(ctx, &closed)
}
