//! The `owlpar-cluster` command-line tool: run the multi-process
//! distributed reasoner — one master, `k` worker processes, TCP between.
//!
//! ```text
//! owlpar-cluster master <in.nt> [--k 4] [--listen 127.0.0.1:0] [--spawn-local]
//!                       [--strategy graph|hash|domain|rule|auto]
//!                       [--fault-plan 'disconnect@1.1,...'] [--round-timeout 30]
//!                       [--epoch 0] [--out FILE] [--check-serial]
//!                       [--cache-dir DIR] [--wire-stats FILE] [--trace-out FILE]
//! owlpar-cluster worker <master-addr> [--connect-timeout 30] [--cache-dir DIR]
//! ```
//!
//! `--spawn-local` forks `k` worker processes of this same binary against
//! the bound address — the one-command way to run a whole cluster on one
//! host. `--check-serial` recomputes the closure serially afterwards and
//! verifies the cluster result is identical (by term fingerprint).
//! `--cache-dir` lets workers persist shipped partitions keyed by
//! `(input digest, config digest, node)`; a repeat run over the same KB
//! and config ships 16-byte digests instead of partitions (with
//! `--spawn-local` the flag is forwarded to every spawned worker).
//! `--wire-stats` writes the master's per-phase wire accounting as JSON.
//! `--trace-out` records the whole run — the master lane plus every
//! worker's spans, shipped back as telemetry frames and clock-offset
//! merged — and writes a Chrome-trace JSON file (load it in
//! `chrome://tracing` / Perfetto, or feed it to `owlpar trace summary`).
//!
//! Exit codes: 0 success, 1 usage/IO error, 3 the run itself failed (a
//! handshake, protocol or worker failure without recovery — or an
//! injected fault, on the worker side).

use owlpar_core::{run_serial, FaultPlan, ParallelConfig, PartitioningStrategy};
use owlpar_net::{run_cluster_master, run_cluster_worker, MasterOptions, NetError, WorkerOptions};
use owlpar_rdf::{parse_ntriples, write_ntriples, Graph};
use std::net::TcpListener;
use std::process::{Child, Command, ExitCode};
use std::time::Duration;

/// What went wrong, split by exit code.
enum CliError {
    /// Bad arguments or IO trouble — exit code 1.
    Usage(String),
    /// The cluster run failed — exit code 3.
    Net(NetError),
    /// The `--check-serial` cross-check found a divergence — exit code 3.
    Check(String),
}

impl From<String> for CliError {
    fn from(s: String) -> Self {
        CliError::Usage(s)
    }
}

impl From<&str> for CliError {
    fn from(s: &str) -> Self {
        CliError::Usage(s.to_string())
    }
}

impl From<NetError> for CliError {
    fn from(e: NetError) -> Self {
        CliError::Net(e)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(e)) => {
            eprintln!("owlpar-cluster: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Net(e)) => {
            eprintln!("owlpar-cluster: run failed: {e}");
            ExitCode::from(3)
        }
        Err(CliError::Check(e)) => {
            eprintln!("owlpar-cluster: serial check FAILED: {e}");
            ExitCode::from(3)
        }
    }
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn run(args: Vec<String>) -> Result<(), CliError> {
    let cmd = args.first().cloned().unwrap_or_default();
    let rest = &args[args.len().min(1)..];
    match cmd.as_str() {
        "master" => master(rest),
        "worker" => worker(rest),
        _ => Err(CliError::Usage(format!(
            "usage: owlpar-cluster <master|worker> ... (got '{cmd}')"
        ))),
    }
}

fn load_graph(path: &str) -> Result<Graph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut g = Graph::new();
    parse_ntriples(&text, &mut g).map_err(|e| format!("parsing {path}: {e}"))?;
    Ok(g)
}

fn master(args: &[String]) -> Result<(), CliError> {
    let [input, ..] = args else {
        return Err("master needs <in.nt>".into());
    };
    let k: usize = flag_value(args, "--k")
        .map_or(Ok(4), |v| v.parse().map_err(|_| "--k".to_string()))?;
    let strategy = PartitioningStrategy::from_name(
        flag_value(args, "--strategy").as_deref().unwrap_or("graph"),
    )?;
    let mut cfg = ParallelConfig {
        k,
        strategy,
        ..ParallelConfig::default()
    }
    .forward();
    if let Some(secs) = flag_value(args, "--round-timeout") {
        let secs: u64 = secs.parse().map_err(|_| "--round-timeout".to_string())?;
        cfg = cfg.with_round_timeout(Duration::from_secs(secs));
    }
    if let Some(spec) = flag_value(args, "--fault-plan") {
        let plan = FaultPlan::parse(&spec).map_err(|e| format!("--fault-plan: {e}"))?;
        cfg = cfg.with_faults(plan);
    }
    let epoch: u64 = flag_value(args, "--epoch")
        .map_or(Ok(0), |v| v.parse().map_err(|_| "--epoch".to_string()))?;
    let trace_out = flag_value(args, "--trace-out");
    let recorder = trace_out.as_ref().map(|_| owlpar_obs::Recorder::enabled());
    let opts = MasterOptions {
        epoch,
        trace: recorder.clone(),
        ..MasterOptions::default()
    };

    let mut g = load_graph(input)?;
    let baseline = args
        .iter()
        .any(|a| a == "--check-serial")
        .then(|| g.clone());
    let before = g.len();

    let listen = flag_value(args, "--listen").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let listener = TcpListener::bind(&listen).map_err(|e| format!("binding {listen}: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("resolving bound address: {e}"))?;
    println!("master: listening on {addr}, waiting for {k} worker(s)");

    let cache_dir = flag_value(args, "--cache-dir");
    let mut children: Vec<Child> = Vec::new();
    if args.iter().any(|a| a == "--spawn-local") {
        let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
        for i in 0..k {
            let mut cmd = Command::new(&exe);
            cmd.arg("worker").arg(addr.to_string());
            if let Some(dir) = &cache_dir {
                cmd.arg("--cache-dir").arg(dir);
            }
            let child = cmd
                .spawn()
                .map_err(|e| format!("spawning local worker {i}: {e}"))?;
            children.push(child);
        }
    }

    let result = run_cluster_master(&mut g, &cfg, listener, &opts);
    // Reap local workers regardless of the outcome. A worker executing an
    // injected fault exits nonzero by design; the master's own verdict
    // (recovery or error) is what decides the exit code.
    for mut child in children {
        let _ = child.wait();
    }
    let report = result?;

    println!(
        "master: {before} base triples -> {} total: {}",
        g.len(),
        report.summary()
    );
    if let Some(wire) = &report.wire {
        println!("master: {}", wire.summary());
        if let Some(path) = flag_value(args, "--wire-stats") {
            std::fs::write(&path, wire.to_json().to_string())
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
    }
    if let (Some(path), Some(rec)) = (&trace_out, &recorder) {
        let book = rec.drain();
        std::fs::write(path, owlpar_obs::chrome::to_chrome_json(&book))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "master: trace written to {path} ({} event(s), {} lane(s))",
            book.events.len(),
            book.tracks.len()
        );
    }
    if report.recovered {
        for e in &report.worker_errors {
            eprintln!("owlpar-cluster: recovered from: {e}");
        }
        eprintln!(
            "owlpar-cluster: {} worker(s) lost; closure re-derived serially (still exact)",
            report.worker_errors.len()
        );
    }
    if let Some(out) = flag_value(args, "--out") {
        std::fs::write(&out, write_ntriples(&g)).map_err(|e| format!("writing {out}: {e}"))?;
    }
    if let Some(mut serial) = baseline {
        run_serial(&mut serial, cfg.materialization);
        if serial.term_fingerprint() == g.term_fingerprint() && serial.len() == g.len() {
            println!("serial check: OK ({} triples)", g.len());
        } else {
            return Err(CliError::Check(format!(
                "cluster closure has {} triples, serial has {}",
                g.len(),
                serial.len()
            )));
        }
    }
    Ok(())
}

fn worker(args: &[String]) -> Result<(), CliError> {
    let [addr, ..] = args else {
        return Err("worker needs <master-addr>".into());
    };
    let mut opts = WorkerOptions::default();
    if let Some(secs) = flag_value(args, "--connect-timeout") {
        let secs: u64 = secs.parse().map_err(|_| "--connect-timeout".to_string())?;
        opts.connect_timeout = Duration::from_secs(secs);
    }
    if let Some(dir) = flag_value(args, "--cache-dir") {
        opts.cache_dir = Some(dir.into());
    }
    let summary = run_cluster_worker(addr.as_str(), &opts)?;
    println!(
        "worker {}/{} (epoch {}): {} round(s), {} derived, {} sent, {} in local store",
        summary.node_id,
        summary.k,
        summary.epoch,
        summary.rounds,
        summary.derived,
        summary.sent,
        summary.store_len
    );
    Ok(())
}
