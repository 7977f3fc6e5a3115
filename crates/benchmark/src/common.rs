//! What every workload shares: the run context, set-up (generate → text →
//! `parse_ntriples`), the in-process read/insert operations and their
//! oracle, and process-level measurements.

use crate::inputs::{
    generate_kb, insert_batch, mixed_class, query, Catalog, KbSpec, QueryClass, Rng,
};
use crate::spans::Spans;
use crate::stats::median;
use crate::Res;
use owlpar_datalog::MaterializationStrategy;
use owlpar_horst::{DeltaOutcome, HorstReasoner};
use owlpar_query::{execute, parse_query_frozen};
use owlpar_rdf::{parse_ntriples, Graph, Triple, TripleSource};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// One workload run's inputs and accumulating result.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    pub traced: bool,
    pub tiny: bool,
    /// Scratch directory inside the build directory (so inside the
    /// checkout, and ignored by git); removed when the run ends.
    pub tmp: PathBuf,
    pub spans: Spans,
    /// The `owlpar_obs` recorder's book of the last traced repetition.
    pub obs: Option<crate::layers::ObsCapture>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Ctx {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let line = format!("FAILED: {}", what());
            self.notes.push(line);
        }
    }

    /// Repetitions of set-up for the `setup_s` median. The first is the
    /// one the run uses; the others come after `peak_rss_mb` is read, so
    /// that what they leave in the allocator is not in it.
    pub fn setups(&self) -> usize {
        if self.tiny || self.traced {
            1
        } else {
            5
        }
    }

    /// The traced run alternates recorder off and on, so needs pairs.
    pub fn min_reps(&self) -> usize {
        match (self.tiny, self.traced) {
            (true, false) => 1,
            (true, true) => 2,
            (false, false) => 5,
            (false, true) => 6,
        }
    }
}

/// A KB loaded the way a user loads one: from N-Triples text.
pub struct Loaded {
    pub graph: Graph,
    /// Triples the generator produced before the cut.
    pub generated: usize,
    pub generate_s: f64,
    pub parse_s: f64,
}

/// Set-up common to all workloads; spans `datagen.generate`,
/// `harness.write_ntriples` (the cut included) and `rdf.parse`.
pub fn load_kb(spec: &KbSpec, seed: u64, spans: &mut Spans) -> Res<Loaded> {
    let whole = spans.begin("harness.load_kb");
    let kb = generate_kb(spec, seed, spans);
    let mut graph = Graph::new();
    let (parsed, parse_s) = spans.time("rdf.parse", || parse_ntriples(&kb.nt, &mut graph));
    let parsed = parsed.map_err(|e| format!("generated N-Triples did not parse: {e}"))?;
    spans.end(whole);
    if parsed != kb.triples {
        return Err(format!("parsed {parsed} triples from {} lines", kb.triples).into());
    }
    Ok(Loaded {
        graph,
        generated: kb.generated,
        generate_s: kb.generate_s,
        parse_s,
    })
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The serial reference closure of `base` and its compiled reasoner.
pub fn oracle_closure(base: &Graph) -> (Graph, HorstReasoner) {
    let mut g = base.clone();
    let hr = HorstReasoner::from_graph(&mut g, MaterializationStrategy::ForwardSemiNaive);
    hr.materialize(&mut g);
    (g, hr)
}

/// Latencies of the in-process operations a library user runs against a
/// closed graph, all in µs.
#[derive(Default)]
pub struct OpSamples {
    pub query_us: Vec<f64>,
    pub parse_us: Vec<f64>,
    pub exec_us: BTreeMap<&'static str, Vec<f64>>,
    pub rows: Vec<f64>,
    pub insert_us: Vec<f64>,
    pub delta_us: Vec<f64>,
}

impl OpSamples {
    /// Operations per second of the one thread that ran them (oracle
    /// work between operations is not counted).
    pub fn ops_per_s(&self) -> f64 {
        let busy_us: f64 = self.query_us.iter().chain(&self.insert_us).sum();
        (self.query_us.len() + self.insert_us.len()) as f64 / (busy_us / 1e6)
    }

    /// The `query` layer's metrics from these samples.
    pub fn report_query_layers(&self, ctx: &mut Ctx) {
        ctx.set("query.parse_us", median(&self.parse_us));
        for (name, class) in [
            ("query.exec_us.lookup", "lookup"),
            ("query.exec_us.scan", "scan"),
            ("query.exec_us.join", "join"),
        ] {
            ctx.set(name, self.exec_us.get(class).map_or(0.0, |v| median(v)));
        }
        let rows = self.rows.iter().sum::<f64>() / self.rows.len().max(1) as f64;
        ctx.set("query.rows_per_result", rows);
    }
}

/// One in-process query: parse against the frozen dictionary, execute,
/// count rows. Returns `(rows, parse µs, exec µs)`.
pub fn run_query<S: TripleSource>(
    store: &S,
    dict: &owlpar_rdf::Dictionary,
    text: &str,
) -> Res<(usize, f64, f64)> {
    let t0 = Instant::now();
    let q = parse_query_frozen(text, dict).map_err(|e| format!("{e}: {text}"))?;
    let parse_us = t0.elapsed().as_secs_f64() * 1e6;
    let t1 = Instant::now();
    let rows = execute(store, &q).len();
    Ok((rows, parse_us, t1.elapsed().as_secs_f64() * 1e6))
}

/// Re-intern an N-Triples batch against `graph`'s dictionary.
pub fn intern_batch(graph: &mut Graph, nt: &str) -> Res<Vec<Triple>> {
    let mut scratch = Graph::new();
    parse_ntriples(nt, &mut scratch).map_err(|e| format!("insert batch did not parse: {e}"))?;
    let batch = scratch
        .store
        .iter_sorted()
        .into_iter()
        .map(|t| {
            let (s, p, o) = scratch.decode(t);
            Triple::new(graph.intern(s), graph.intern(p), graph.intern(o))
        })
        .collect();
    Ok(batch)
}

/// Apply one batch through the delta closure; `(fresh, derived)` counts.
pub fn apply_batch(graph: &mut Graph, hr: &HorstReasoner, batch: &[Triple]) -> Res<(usize, usize)> {
    let before = graph.store.len();
    match hr.materialize_delta(&mut graph.store, batch) {
        DeltaOutcome::Incremental { derived } => {
            Ok((graph.store.len() - before - derived.len(), derived.len()))
        }
        DeltaOutcome::SchemaChanged => Err("insert batch carried schema triples".into()),
    }
}

/// The read-back and incremental-insert operations of the batch
/// workloads, single-threaded and in process: queries of the 70/20/10 mix
/// through `parse_query_frozen` + `execute`, INSERT batches through
/// `materialize_delta`. They run in slices, one per materialization and
/// on its result, so their medians are taken over as many heap layouts
/// as there are repetitions. The oracle's share is deferred to
/// [`InProcessOps::check`], after the timed region.
pub struct InProcessOps {
    rng: Rng,
    pub samples: OpSamples,
    /// One query in a hundred: `(text, rows)`.
    sampled: Vec<(String, usize)>,
    /// Every insert: `(batch, (added, derived))`.
    inserted: Vec<(String, (usize, usize))>,
}

impl InProcessOps {
    pub fn new(seed: u64) -> Self {
        InProcessOps {
            rng: Rng::new(seed ^ 0x5eed_0001),
            samples: OpSamples::default(),
            sampled: Vec::new(),
            inserted: Vec::new(),
        }
    }

    /// `queries` queries, then `inserts` batches, against a closed graph.
    pub fn slice(
        &mut self,
        spans: &mut Spans,
        graph: &mut Graph,
        hr: &HorstReasoner,
        cat: &Catalog,
        queries: usize,
        inserts: usize,
    ) -> Res<()> {
        let whole = spans.begin("harness.in_process_ops");
        for _ in 0..queries {
            let class = mixed_class(&mut self.rng);
            let text = query(class, cat, &mut self.rng);
            let n = self.samples.query_us.len();
            spans.set_group(n as u64);
            let span = spans.begin(match class {
                QueryClass::Lookup => "query.lookup",
                QueryClass::Scan => "query.scan",
                QueryClass::Join => "query.join",
            });
            let (rows, parse_us, exec_us) = run_query(&graph.store, &graph.dict, &text)?;
            self.samples.query_us.push(spans.end(span) * 1e6);
            self.samples.parse_us.push(parse_us);
            self.samples
                .exec_us
                .entry(class.name())
                .or_default()
                .push(exec_us);
            self.samples.rows.push(rows as f64);
            if n.is_multiple_of(100) {
                self.sampled.push((text, rows));
            }
        }
        for _ in 0..inserts {
            let n = self.inserted.len();
            let nt = insert_batch("probe", n, cat, &mut self.rng);
            spans.set_group(n as u64);
            let span = spans.begin("horst.insert");
            let batch = intern_batch(graph, &nt)?;
            let delta = spans.begin("horst.delta");
            let got = apply_batch(graph, hr, &batch)?;
            self.samples.delta_us.push(spans.end(delta) * 1e6);
            self.samples.insert_us.push(spans.end(span) * 1e6);
            self.inserted.push((nt, got));
        }
        spans.end(whole);
        Ok(())
    }

    /// Sampled queries must return the row count the oracle closure
    /// gives; every insert must add and derive what the same batch adds
    /// and derives on the oracle.
    pub fn check(&self, ctx: &mut Ctx, oracle: &mut Graph, oracle_hr: &HorstReasoner) -> Res<()> {
        ctx.attempted += (self.samples.query_us.len() - self.sampled.len()) as u64;
        for (text, rows) in &self.sampled {
            let (want, _, _) = run_query(&oracle.store, &oracle.dict, text)?;
            ctx.check(*rows == want, || {
                format!("query returned {rows} rows, oracle {want}: {text}")
            });
        }
        for (i, (nt, got)) in self.inserted.iter().enumerate() {
            let batch = intern_batch(oracle, nt)?;
            let want = apply_batch(oracle, oracle_hr, &batch)?;
            ctx.check(*got == want, || {
                format!("insert {i} added/derived {got:?}, oracle {want:?}")
            });
        }
        Ok(())
    }
}
