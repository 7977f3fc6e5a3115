//! The `owlpar` command-line tool: load, materialize (in parallel),
//! query, partition-inspect and snapshot OWL knowledge bases.
//!
//! ```text
//! owlpar materialize <in.nt> <out.nt> [--k 4] [--strategy graph|hash|domain|rule|auto]
//!                    [--fault-plan 'io@1.0:2,panic@1.2,...'] [--trace-out FILE]
//! owlpar query <kb.nt> '<SPARQL>'
//! owlpar lint <rules-file> [--context data|rule|replicated] [--json]
//! owlpar lint --compiled [<in.nt>] [--json]
//! owlpar plan <kb.nt|rules-file> [--strategy graph|hash|domain|rule|auto] [--k 4] [--json]
//! owlpar partition <in.nt> [--k 4]
//! owlpar snapshot <in.nt> <out.owlpar>
//! owlpar restore <in.owlpar> <out.nt>
//! owlpar gen <lubm|uobm|mdc> <out.nt> [--universities 2] [--scale 0.1]
//! owlpar trace summary <trace.json>
//! ```
//!
//! Any flag the usage line does not name, or a flag missing its value,
//! is a usage error.
//!
//! Exit codes: 0 success, 1 usage/IO error, 3 the parallel run itself
//! failed (a `RunError` — lost workers without recovery, bad config) or
//! the linted rule-base has deny-level findings.

use owlpar::core::cli::{flag_value, positionals};
use owlpar::core::{
    analyze_rules_only, analyze_strategy, auto_candidates, FaultPlan, PlanningBase, RunError,
};
use owlpar::datalog::{parse_rules_annotated, Rule};
use owlpar::horst::HorstReasoner;
use owlpar::lint::{
    lint_parsed, lint_rules, render_comparison, LintOptions, PartitionContext, PlanReport,
};
use owlpar::obs::json::{obj, Value};
use owlpar::partition::metrics::quality;
use owlpar::prelude::*;
use owlpar::query::exec::render_row;
use owlpar::rdf::snapshot;
use owlpar::rdf::vocab::RDF_TYPE;
use owlpar::rdf::Dictionary;
use std::process::ExitCode;

/// What went wrong, split by exit code.
enum CliError {
    /// Bad arguments or IO trouble — exit code 1.
    Usage(String),
    /// The parallel run failed with a structured error — exit code 3.
    Run(RunError),
    /// The linted rule-base has deny findings — exit code 3. The report
    /// itself was already printed to stdout.
    Lint {
        /// Number of deny findings.
        deny: usize,
    },
    /// The analyzed plan(s) have deny-level diagnostics (OWL011–OWL016)
    /// — exit code 3. The reports were already printed to stdout.
    Plan {
        /// Number of deny findings across the analyzed plans.
        deny: usize,
    },
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

impl From<RunError> for CliError {
    fn from(e: RunError) -> Self {
        CliError::Run(e)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(e)) => {
            eprintln!("owlpar: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Run(e)) => {
            eprintln!("owlpar: run failed: {e}");
            ExitCode::from(3)
        }
        Err(CliError::Lint { deny }) => {
            eprintln!("owlpar: lint failed with {deny} deny finding(s)");
            ExitCode::from(3)
        }
        Err(CliError::Plan { deny }) => {
            eprintln!("owlpar: plan analysis failed with {deny} deny finding(s)");
            ExitCode::from(3)
        }
    }
}

fn load_graph(path: &str) -> Result<Graph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut g = Graph::new();
    parse_ntriples(&text, &mut g).map_err(|e| format!("parsing {path}: {e}"))?;
    Ok(g)
}

fn save_graph(g: &Graph, path: &str) -> Result<(), String> {
    std::fs::write(path, write_ntriples(g)).map_err(|e| format!("writing {path}: {e}"))
}

fn run(args: Vec<String>) -> Result<(), CliError> {
    let cmd = args.first().cloned().unwrap_or_default();
    let rest = &args[args.len().min(1)..];
    match cmd.as_str() {
        "materialize" => materialize(rest),
        "query" => query(rest).map_err(CliError::Usage),
        "lint" => lint_cmd(rest),
        "plan" => plan_cmd(rest),
        "partition" => partition_info(rest).map_err(CliError::Usage),
        "snapshot" => snapshot_cmd(rest).map_err(CliError::Usage),
        "restore" => restore(rest).map_err(CliError::Usage),
        "gen" => gen(rest).map_err(CliError::Usage),
        "trace" => trace_cmd(rest).map_err(CliError::Usage),
        _ => Err(CliError::Usage(format!(
            "usage: owlpar <materialize|query|lint|plan|partition|snapshot|restore|gen|trace> ... (got '{cmd}')"
        ))),
    }
}

fn materialize(args: &[String]) -> Result<(), CliError> {
    let valued = ["--k", "--strategy", "--fault-plan", "--trace-out"];
    let [input, output, ..] = positionals(args, &valued, &[])?[..] else {
        return Err("materialize needs <in.nt> <out.nt>".into());
    };
    let k: usize = flag_value(args, "--k")
        .map_or(Ok(2), |v| v.parse().map_err(|_| "--k".to_string()))?;
    let strategy = PartitioningStrategy::from_name(
        flag_value(args, "--strategy").as_deref().unwrap_or("graph"),
    )?;
    let mut cfg = ParallelConfig {
        k,
        strategy,
        ..ParallelConfig::default()
    }
    .forward();
    if let Some(spec) = flag_value(args, "--fault-plan") {
        let plan = FaultPlan::parse(&spec).map_err(|e| format!("--fault-plan: {e}"))?;
        cfg = cfg.with_faults(plan);
    }
    // Tracing: install an enabled global recorder before the run so the
    // engine's ambient spans (partition, rounds, shard lanes, aggregate)
    // land in it; the Parse span covers the N-Triples load.
    let trace_out = flag_value(args, "--trace-out");
    let recorder = trace_out.as_ref().map(|_| {
        let rec = owlpar::obs::Recorder::enabled();
        owlpar::obs::install_global(rec.clone());
        rec
    });
    let rec = owlpar::obs::global();
    let mut lane = rec.track("cli");
    let parse_span = lane.begin(owlpar::obs::Phase::Parse, owlpar::obs::NO_ROUND);
    let mut g = load_graph(input)?;
    lane.end(parse_span);
    let before = g.len();
    let report = run_parallel(&mut g, &cfg)?;
    save_graph(&g, output)?;
    drop(lane);
    if let (Some(path), Some(rec)) = (&trace_out, &recorder) {
        let book = rec.drain();
        owlpar::obs::install_global(owlpar::obs::Recorder::disabled());
        std::fs::write(path, owlpar::obs::chrome::to_chrome_json(&book))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "trace written to {path} ({} event(s), {} lane(s))",
            book.events.len(),
            book.tracks.len()
        );
    }
    // The one-line run summary includes the skipped-message count, so a
    // lossy-but-recovered run is visible at a glance.
    println!("{before} base triples -> {} total: {}", g.len(), report.summary());
    if report.recovered {
        for e in &report.worker_errors {
            eprintln!("owlpar: recovered from: {e}");
        }
        eprintln!(
            "owlpar: {} worker(s) lost; closure re-derived serially (still exact)",
            report.worker_errors.len()
        );
    }
    if report.total_skipped() > 0 {
        eprintln!(
            "owlpar: {} corrupted/foreign message(s) skipped with a report",
            report.total_skipped()
        );
    }
    Ok(())
}

/// `owlpar lint` — run the static analyses over a rule file (with `#
/// lint: allow(...)` annotations honoured) or over the rule-base compiled
/// from an ontology (`--compiled [<in.nt>]`; no path lints the bundled
/// demo ontology exercising every rule template). Deny findings exit 3.
fn lint_cmd(args: &[String]) -> Result<(), CliError> {
    let positionals = positionals(args, &["--context"], &["--json", "--compiled"])?;
    let json = args.iter().any(|a| a == "--json");
    let context = match flag_value(args, "--context").as_deref() {
        None | Some("data") => PartitionContext::DataPartitioned,
        Some("rule") => PartitionContext::RulePartitioned,
        Some("replicated") => PartitionContext::Replicated,
        Some(other) => return Err(CliError::Usage(format!("unknown context '{other}'"))),
    };
    let report = if args.iter().any(|a| a == "--compiled") {
        let mut g = match positionals.first() {
            Some(path) => load_graph(path)?,
            None => demo_ontology(),
        };
        let hr = HorstReasoner::from_graph(&mut g, MaterializationStrategy::ForwardSemiNaive);
        if context == PartitionContext::DataPartitioned {
            // Already linted at construction, against the actual data
            // (histogram weights + dead-rule vocabulary).
            hr.lint.clone()
        } else {
            lint_rules(hr.rules(), &LintOptions::for_context(context))
        }
    } else {
        let Some(path) = positionals.first() else {
            return Err("lint needs <rules-file> or --compiled [<in.nt>]".into());
        };
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let mut dict = Dictionary::new();
        let parsed = parse_rules_annotated(&text, &mut dict)
            .map_err(|e| format!("parsing {path}: {e}"))?;
        lint_parsed(&parsed, LintOptions::for_context(context))
    };
    if json {
        println!("{}", report.to_json());
    } else {
        println!("{report}");
    }
    if report.has_deny() {
        Err(CliError::Lint {
            deny: report.deny_count(),
        })
    } else {
        Ok(())
    }
}

/// `owlpar plan` — analyze partition plans statically, before any worker
/// exists. Scores every `--strategy auto` candidate (or just the one
/// requested) against the KB — or, for a `.rules` file, runs the
/// structure-only analysis with uniform load shares and no byte
/// estimates — prints the comparison table (or `--json`), and exits 3
/// when no deny-free plan exists: the same non-overridable gate
/// `materialize --strategy auto` applies before spawning workers.
fn plan_cmd(args: &[String]) -> Result<(), CliError> {
    let positionals = positionals(args, &["--strategy", "--k"], &["--json"])?;
    let json = args.iter().any(|a| a == "--json");
    let k: usize = flag_value(args, "--k")
        .map_or(Ok(4), |v| v.parse().map_err(|_| "--k".to_string()))?;
    if k == 0 {
        return Err("--k must be >= 1".into());
    }
    let candidates = match PartitioningStrategy::from_name(
        flag_value(args, "--strategy").as_deref().unwrap_or("auto"),
    )? {
        PartitioningStrategy::Auto => auto_candidates(k),
        one => vec![one],
    };
    let Some(path) = positionals.first() else {
        return Err("plan needs <kb.nt|rules-file>".into());
    };
    let reports: Vec<PlanReport> = if path.ends_with(".rules") {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let mut dict = Dictionary::new();
        let parsed = parse_rules_annotated(&text, &mut dict)
            .map_err(|e| format!("parsing {path}: {e}"))?;
        let rules: Vec<Rule> = parsed.iter().map(|p| p.rule.clone()).collect();
        candidates
            .iter()
            .map(|c| analyze_rules_only(&rules, k, c))
            .collect::<Result<_, RunError>>()?
    } else {
        let mut g = load_graph(path)?;
        let base = PlanningBase::compile(&mut g, &[]);
        candidates
            .iter()
            .map(|c| analyze_strategy(&base, &g.dict, k, c))
            .collect::<Result<_, RunError>>()?
    };
    // The argmin-cost deny-free plan — exactly what `--strategy auto`
    // would run. With a single requested strategy this is just "is it
    // viable at all".
    let chosen = reports
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.has_deny())
        .min_by(|a, b| a.1.total_cost.total_cmp(&b.1.total_cost))
        .map(|(i, _)| i);
    if json {
        let strategies: Vec<Value> = reports.iter().map(PlanReport::to_json).collect();
        let doc = obj([
            ("k", k.into()),
            ("chosen", chosen.map(|i| reports[i].strategy.as_str()).into()),
            ("strategies", strategies.into()),
        ]);
        println!("{doc}");
    } else {
        println!("{}", render_comparison(&reports, chosen));
        for (i, r) in reports.iter().enumerate() {
            if chosen == Some(i) || r.has_deny() {
                println!("\n{}", r.render_human());
            }
        }
    }
    match chosen {
        Some(_) => Ok(()),
        None => Err(CliError::Plan {
            deny: reports.iter().map(PlanReport::deny_count).sum(),
        }),
    }
}

/// A small ontology exercising every rule template the compiler knows:
/// class/property hierarchies, transitive/symmetric/inverse(-functional)
/// characteristics, equivalence, domain/range and both restriction kinds —
/// what `owlpar lint --compiled` verifies when no ontology is given.
fn demo_ontology() -> Graph {
    use owlpar::rdf::vocab::{
        OWL_EQUIVALENT_CLASS, OWL_HAS_VALUE, OWL_INVERSE_FUNCTIONAL, OWL_INVERSE_OF,
        OWL_ON_PROPERTY, OWL_RESTRICTION, OWL_SOME_VALUES_FROM, OWL_SYMMETRIC, OWL_TRANSITIVE,
        RDFS_DOMAIN, RDFS_RANGE, RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF,
    };
    let u = |n: &str| format!("http://ex.org/ont#{n}");
    let d = |n: &str| format!("http://ex.org/d/{n}");
    let mut g = Graph::new();
    g.insert_iris(u("GradStudent"), RDFS_SUBCLASSOF, u("Student"));
    g.insert_iris(u("Student"), RDFS_SUBCLASSOF, u("Person"));
    g.insert_iris(u("Person"), OWL_EQUIVALENT_CLASS, u("Human"));
    g.insert_iris(u("headOf"), RDFS_SUBPROPERTYOF, u("worksFor"));
    g.insert_iris(u("partOf"), RDF_TYPE, OWL_TRANSITIVE);
    g.insert_iris(u("near"), RDF_TYPE, OWL_SYMMETRIC);
    g.insert_iris(u("advises"), OWL_INVERSE_OF, u("advisedBy"));
    g.insert_iris(u("teaches"), RDFS_DOMAIN, u("Professor"));
    g.insert_iris(u("teaches"), RDFS_RANGE, u("Course"));
    g.insert_iris(u("email"), RDF_TYPE, OWL_INVERSE_FUNCTIONAL);
    g.insert_iris(u("Grouped"), RDF_TYPE, OWL_RESTRICTION);
    g.insert_iris(u("Grouped"), OWL_ON_PROPERTY, u("memberOf"));
    g.insert_iris(u("Grouped"), OWL_SOME_VALUES_FROM, u("Group"));
    g.insert_iris(u("Answered"), RDF_TYPE, OWL_RESTRICTION);
    g.insert_iris(u("Answered"), OWL_ON_PROPERTY, u("hasId"));
    g.insert_terms(
        Term::iri(u("Answered")),
        Term::iri(OWL_HAS_VALUE),
        Term::literal("42"),
    );
    // A little instance data, so the production-weight histogram and the
    // dead-rule base vocabulary have something to look at.
    g.insert_iris(d("alice"), RDF_TYPE, u("GradStudent"));
    g.insert_iris(d("a"), u("partOf"), d("b"));
    g.insert_iris(d("b"), u("partOf"), d("c"));
    g.insert_iris(d("x"), u("near"), d("y"));
    g.insert_iris(d("bob"), u("headOf"), d("dept"));
    g.insert_iris(d("carol"), u("advises"), d("alice"));
    g.insert_iris(d("prof"), u("teaches"), d("cs101"));
    g.insert_iris(d("p1"), u("email"), d("e1"));
    g.insert_iris(d("gina"), u("memberOf"), d("g1"));
    g.insert_iris(d("g1"), RDF_TYPE, u("Group"));
    g
}

fn query(args: &[String]) -> Result<(), String> {
    let [input, sparql, ..] = positionals(args, &[], &[])?[..] else {
        return Err("query needs <kb.nt> '<SPARQL>'".into());
    };
    let mut g = load_graph(input)?;
    let q = parse_query(sparql, &mut g.dict).map_err(|e| e.to_string())?;
    let rows = execute(&g.store, &q);
    println!("{}", q.projected_names().join("\t"));
    for row in &rows {
        println!("{}", render_row(&g.dict, row).join("\t"));
    }
    eprintln!("{} row(s)", rows.len());
    Ok(())
}

fn partition_info(args: &[String]) -> Result<(), String> {
    let [input, ..] = positionals(args, &["--k"], &[])?[..] else {
        return Err("partition needs <in.nt>".into());
    };
    let k: usize = flag_value(args, "--k").map_or(Ok(4), |v| v.parse().map_err(|_| "--k"))?;
    let mut g = load_graph(input)?;
    let hr = HorstReasoner::from_graph(&mut g, MaterializationStrategy::ForwardSemiNaive);
    let rdf_type = g.dict.id(&Term::iri(RDF_TYPE));
    println!(
        "schema {} / instance {} triples, {} compiled rules",
        hr.schema_triples.len(),
        hr.instance_triples.len(),
        hr.rules().len()
    );
    // The policies `--strategy graph|domain|hash` run, with their options.
    for name in ["graph", "domain", "hash"] {
        let PartitioningStrategy::Data(policy) = PartitioningStrategy::from_name(name)? else {
            unreachable!("{name} names a data policy")
        };
        let dp = partition_data(&hr.instance_triples, &g.dict, rdf_type, k, &policy);
        let q = quality(&dp.parts, rdf_type);
        println!(
            "{name:>6}: bal {:>9.1}  IR {:.3}  cut {:?}  time {:.3}s",
            q.bal,
            q.ir_excess(),
            dp.edge_cut,
            dp.partition_time.as_secs_f64()
        );
    }
    Ok(())
}

fn snapshot_cmd(args: &[String]) -> Result<(), String> {
    let [input, output, ..] = positionals(args, &[], &[])?[..] else {
        return Err("snapshot needs <in.nt> <out.owlpar>".into());
    };
    let g = load_graph(input)?;
    let mut f = std::fs::File::create(output).map_err(|e| e.to_string())?;
    snapshot::save(&g, &mut f).map_err(|e| e.to_string())?;
    println!("wrote {} ({} triples, {} terms)", output, g.len(), g.dict.len());
    Ok(())
}

fn restore(args: &[String]) -> Result<(), String> {
    let [input, output, ..] = positionals(args, &[], &[])?[..] else {
        return Err("restore needs <in.owlpar> <out.nt>".into());
    };
    let mut f = std::fs::File::open(input).map_err(|e| e.to_string())?;
    let g = snapshot::load(&mut f).map_err(|e| e.to_string())?;
    save_graph(&g, output)?;
    println!("restored {} triples", g.len());
    Ok(())
}

fn gen(args: &[String]) -> Result<(), String> {
    let [which, output, ..] = positionals(args, &["--universities", "--scale"], &[])?[..] else {
        return Err("gen needs <lubm|uobm|mdc> <out.nt>".into());
    };
    let universities: usize =
        flag_value(args, "--universities").map_or(Ok(2), |v| v.parse().map_err(|_| "--universities"))?;
    let scale: f64 = flag_value(args, "--scale").map_or(Ok(0.1), |v| v.parse().map_err(|_| "--scale"))?;
    let g = match which {
        "lubm" => generate_lubm(&LubmConfig {
            universities,
            scale,
            seed: 42,
        }),
        "uobm" => generate_uobm(&UobmConfig {
            lubm: LubmConfig {
                universities,
                scale,
                seed: 42,
            },
            ..UobmConfig::default()
        }),
        "mdc" => generate_mdc(&MdcConfig::default()),
        other => return Err(format!("unknown generator '{other}'")),
    };
    save_graph(&g, output)?;
    println!("generated {} triples into {output}", g.len());
    Ok(())
}

/// `owlpar trace summary <trace.json>` — digest a Chrome-trace file
/// written by `--trace-out` (any of `owlpar materialize`,
/// `owlpar-cluster master`, `owlpar-serve run`) into a per-phase /
/// per-lane table: wall and span time per phase, per-worker round skew,
/// critical-path share, exchange bytes per round, and — when the file
/// embeds the analyzer's `"plan"` predictions — measured vs predicted.
fn trace_cmd(args: &[String]) -> Result<(), String> {
    let positionals = positionals(args, &[], &[])?;
    match positionals.first().copied() {
        Some("summary") => {
            let Some(path) = positionals.get(1) else {
                return Err("trace summary needs <trace.json>".into());
            };
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let rendered = owlpar::obs::summary::summarize_text(&text)
                .map_err(|e| format!("summarizing {path}: {e}"))?;
            println!("{rendered}");
            Ok(())
        }
        other => Err(format!(
            "usage: owlpar trace summary <trace.json> (got '{}')",
            other.unwrap_or_default()
        )),
    }
}
