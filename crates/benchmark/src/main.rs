//! `owlbench`: the benchmark of record. See `README.md` beside this crate.
//!
//! ```text
//! owlbench bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--size full|tiny] [--trace-dir <dir>]
//! owlbench run   [--seed 42] [--runs 5] [--seconds 10] [--size full|tiny]
//!                [--workload <name>]... [--trace <dir>] [--out <file>]
//! owlbench compare <a.json> <b.json>
//! ```
//!
//! `bench` runs one workload in this process and prints its result object
//! as the last line of standard output; `run` runs every workload, each
//! repetition in a child `owlbench bench` process of its own, so that
//! `peak_rss_mb` and allocator state are per workload.

mod batch;
mod common;
mod inputs;
mod layers;
mod metrics;
mod report;
mod serving;
mod spans;
mod stats;

use common::Ctx;
use metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// `--name value` pairs after the subcommand; `--workload` may repeat.
pub struct Args(Vec<String>);

impl Args {
    pub fn all(&self, name: &str) -> Vec<&str> {
        self.0
            .windows(2)
            .filter(|w| w[0] == name)
            .map(|w| w[1].as_str())
            .collect()
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.all(name).pop()
    }

    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Res<T> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name}: cannot read '{v}'").into()),
        }
    }

    pub fn positional(&self) -> &[String] {
        &self.0
    }
}

/// A scratch directory inside the build directory: beside the running
/// executable, which Cargo puts under `CARGO_TARGET_DIR`.
fn scratch_dir() -> Res<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("owlbench-tmp")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn bench(args: &Args) -> Res<bool> {
    let name = args
        .get("--workload")
        .ok_or("bench needs --workload <name>")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| **w == name)
        .ok_or_else(|| format!("unknown workload '{name}' (one of {WORKLOADS:?})"))?;
    let traced = match args.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got '{other}'").into()),
    };
    let tiny = match args.get("--size").unwrap_or("full") {
        "full" => false,
        "tiny" => true,
        other => return Err(format!("--size wants full or tiny, got '{other}'").into()),
    };
    let tmp = scratch_dir()?;
    let mut ctx = Ctx {
        workload,
        seed: args.parsed("--seed", 42u64)?,
        seconds: args.parsed("--seconds", 10.0f64)?,
        traced,
        tiny,
        tmp: tmp.clone(),
        spans: spans::Spans::new(traced, Instant::now(), 0),
        obs: None,
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
        notes: Vec::new(),
    };
    let outcome = match workload {
        "closure.lubm" | "closure.uobm" => batch::run(&mut ctx, batch::Kind::Closure),
        "cluster.lubm" => batch::run(&mut ctx, batch::Kind::Cluster),
        "serve.read" => serving::run(&mut ctx, serving::Kind::Read),
        _ => serving::run(&mut ctx, serving::Kind::Write),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    outcome?;

    if let Some(dir) = args.get("--trace-dir") {
        if traced {
            std::fs::create_dir_all(dir)?;
            let path = PathBuf::from(dir).join(format!("{workload}.trace.json"));
            let empty = layers::ObsCapture::default();
            let obs = ctx.obs.as_ref().unwrap_or(&empty);
            std::fs::write(
                &path,
                ctx.spans
                    .to_chrome_json(workload, &obs.book, obs.offset_us, &obs.totals),
            )?;
            ctx.note(format!("trace: {}", path.display()));
        }
    }
    print_result(&ctx)
}

/// Every metric of the run by name with its unit, then the result object
/// as the last line.
fn print_result(ctx: &Ctx) -> Res<bool> {
    println!(
        "workload {} seed {} ({} s timed, {} core(s))",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    for line in &ctx.notes {
        println!("{line}");
    }
    if ctx.traced {
        for (name, (total, own, n)) in ctx.spans.totals() {
            println!("span {name}: total {total:.1} us, self {own:.1} us, n {n}");
        }
        if let Some(obs) = &ctx.obs {
            for (phase, us, n) in &obs.totals {
                println!("owlpar_obs phase {}: total {us} us, n {n}", phase.name());
            }
        }
    }
    let defs: &[MetricDef] = if ctx.traced { &PER_LAYER } else { &END_TO_END };
    let mut json = String::new();
    for (i, def) in defs.iter().enumerate() {
        let value = match ctx.metrics.get(def.name) {
            Some(v) => *v,
            // A layer the workload does not exercise.
            None if ctx.traced => 0.0,
            None => return Err(format!("workload did not measure {}", def.name).into()),
        };
        if !value.is_finite() {
            return Err(format!("{} measured as {value}", def.name).into());
        }
        println!("{} = {value} {}", def.name, def.unit);
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            def.name,
            def.unit
        );
    }
    let correct = ctx.failed == 0;
    println!(
        "failed_ops / attempted_ops = {} / {}",
        ctx.failed, ctx.attempted
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        ctx.attempted.max(1),
        ctx.failed
    );
    Ok(correct)
}

fn dispatch() -> Res<bool> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.first().is_some_and(|a| !a.starts_with("--")) {
        argv.remove(0)
    } else {
        "bench".to_string()
    };
    let args = Args(argv);
    match command.as_str() {
        "bench" => bench(&args),
        "run" => report::run(&args),
        "compare" => report::compare(&args),
        other => Err(format!("unknown command '{other}' (bench, run or compare)").into()),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("owlbench: {e}");
            ExitCode::FAILURE
        }
    }
}
