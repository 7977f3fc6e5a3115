//! `owlpar trace summary` — per-phase / per-worker tables over a
//! previously written Chrome trace file.
//!
//! Reads back the JSON the [`chrome`](crate::chrome) exporter wrote
//! (via the dependency-free [`json`](crate::json) reader), groups round
//! spans by worker lane, and reports:
//!
//! * per-phase totals and the **critical-path share** — the fraction of
//!   the per-round slowest-worker time spent in each phase (the paper's
//!   barrier model: a round costs what its laggard costs);
//! * per-round worker skew (max − min round wall time across workers)
//!   next to the plan analyzer's predictions when the trace embeds a
//!   `"plan"` object (cluster runs with `--trace-out`).

use crate::json::{parse, Value};
use crate::Phase;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Totals for one phase across the whole trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// The phase.
    pub phase: Phase,
    /// Number of spans.
    pub count: u64,
    /// Sum of span durations, µs.
    pub total_us: u64,
    /// Time this phase contributes to the critical path (per round, the
    /// slowest worker's spans), µs. Zero for phases outside rounds.
    pub crit_us: u64,
}

/// One exchange round, across workers.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundStat {
    /// Round number.
    pub round: u32,
    /// Worker lanes that recorded a round span.
    pub workers: usize,
    /// Slowest worker's round wall time, µs.
    pub max_us: u64,
    /// Fastest worker's round wall time, µs.
    pub min_us: u64,
    /// Bytes put on the wire this round: the sum of the `exchange.bytes`
    /// counter samples tagged with the round over every lane (a cluster
    /// worker records what its mesh endpoint wrote), when recorded.
    pub bytes: Option<u64>,
}

impl RoundStat {
    /// max − min worker round time, µs.
    pub fn skew_us(&self) -> u64 {
        self.max_us.saturating_sub(self.min_us)
    }
}

/// Plan-analyzer predictions embedded in the trace (`"plan"` key).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanInfo {
    /// Strategy label.
    pub strategy: String,
    /// Predicted setup bytes.
    pub setup_bytes: Option<u64>,
    /// Predicted total round bytes.
    pub round_bytes: Option<f64>,
    /// Predicted round count (upper bound).
    pub predicted_rounds: Option<u64>,
    /// Predicted skew ratio: max worker load share × k (1.0 = perfectly
    /// even).
    pub skew_ratio: Option<f64>,
}

/// Everything the summary renderer needs.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    /// Trace wall time (max span end − min span start), µs.
    pub wall_us: u64,
    /// Phases seen, in [`Phase`] order.
    pub phases: Vec<PhaseStat>,
    /// Rounds seen, ascending.
    pub rounds: Vec<RoundStat>,
    /// Worker lane labels that carried round spans.
    pub workers: Vec<String>,
    /// Embedded plan predictions, when present.
    pub plan: Option<PlanInfo>,
    /// Number of events read.
    pub events: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Lane {
    pid: u64,
    tid: u64,
}

/// Compute summary statistics over a parsed Chrome trace document.
pub fn summarize(doc: &Value) -> Result<TraceStats, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("no traceEvents array — not a trace file?")?;

    let mut thread_names: BTreeMap<Lane, String> = BTreeMap::new();
    let mut process_names: BTreeMap<u64, String> = BTreeMap::new();
    // (lane, phase, round, start, dur) spans; per-(round, lane) totals.
    let mut spans: Vec<(Lane, Phase, Option<u32>, u64, u64)> = Vec::new();
    let mut round_bytes: BTreeMap<u32, u64> = BTreeMap::new();
    let mut n_events = 0usize;

    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).unwrap_or("");
        let pid = e.get("pid").and_then(Value::as_u64).unwrap_or(0);
        let tid = e.get("tid").and_then(Value::as_u64).unwrap_or(0);
        let lane = Lane { pid, tid };
        let name = e.get("name").and_then(Value::as_str).unwrap_or("");
        match ph {
            "M" => {
                let arg = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string();
                if name == "thread_name" {
                    thread_names.insert(lane, arg);
                } else if name == "process_name" {
                    process_names.insert(pid, arg);
                }
            }
            "X" => {
                n_events += 1;
                let Some(phase) = Phase::from_name(name) else {
                    continue;
                };
                let ts = e.get("ts").and_then(Value::as_u64).unwrap_or(0);
                let dur = e.get("dur").and_then(Value::as_u64).unwrap_or(0);
                let round = e
                    .get("args")
                    .and_then(|a| a.get("round"))
                    .and_then(Value::as_u64)
                    .and_then(|r| u32::try_from(r).ok());
                spans.push((lane, phase, round, ts, dur));
            }
            "C" => {
                n_events += 1;
                if name == "exchange.bytes" {
                    if let Some(args) = e.get("args") {
                        let round = args
                            .get("round")
                            .and_then(Value::as_u64)
                            .and_then(|r| u32::try_from(r).ok());
                        let value = args.get("bytes").and_then(Value::as_u64).unwrap_or(0);
                        if let Some(r) = round {
                            *round_bytes.entry(r).or_default() += value;
                        }
                    }
                }
            }
            _ => {}
        }
    }

    if spans.is_empty() {
        return Err("trace contains no owlpar spans".to_string());
    }

    let min_start = spans.iter().map(|s| s.3).min().unwrap_or(0);
    let max_end = spans.iter().map(|s| s.3 + s.4).max().unwrap_or(0);

    // Per-(round, lane) round wall time, and the per-round laggard.
    let mut round_lanes: BTreeMap<u32, BTreeMap<Lane, u64>> = BTreeMap::new();
    for &(lane, phase, round, _, dur) in &spans {
        if phase == Phase::Round {
            if let Some(r) = round {
                *round_lanes.entry(r).or_default().entry(lane).or_default() += dur;
            }
        }
    }
    let laggard: BTreeMap<u32, Lane> = round_lanes
        .iter()
        .filter_map(|(&r, lanes)| {
            lanes
                .iter()
                .max_by_key(|(_, &d)| d)
                .map(|(&lane, _)| (r, lane))
        })
        .collect();

    let mut phase_slots: BTreeMap<Phase, PhaseStat> = BTreeMap::new();
    for &(lane, phase, round, _, dur) in &spans {
        let slot = phase_slots.entry(phase).or_insert(PhaseStat {
            phase,
            count: 0,
            total_us: 0,
            crit_us: 0,
        });
        slot.count += 1;
        slot.total_us = slot.total_us.saturating_add(dur);
        // On the critical path: a non-round-phase span, or a span run by
        // the round's slowest worker.
        let on_crit = match round {
            None => phase != Phase::Round,
            Some(r) => laggard.get(&r) == Some(&lane),
        };
        if on_crit && phase != Phase::Round {
            slot.crit_us = slot.crit_us.saturating_add(dur);
        }
    }

    let rounds: Vec<RoundStat> = round_lanes
        .iter()
        .map(|(&round, lanes)| RoundStat {
            round,
            workers: lanes.len(),
            max_us: lanes.values().copied().max().unwrap_or(0),
            min_us: lanes.values().copied().min().unwrap_or(0),
            bytes: round_bytes.get(&round).copied(),
        })
        .collect();

    let mut worker_lanes: Vec<Lane> = round_lanes
        .values()
        .flat_map(|lanes| lanes.keys().copied())
        .collect();
    worker_lanes.sort_unstable();
    worker_lanes.dedup();
    let workers = worker_lanes
        .iter()
        .map(|l| {
            thread_names
                .get(l)
                .cloned()
                .or_else(|| process_names.get(&l.pid).cloned())
                .unwrap_or_else(|| format!("pid {} tid {}", l.pid, l.tid))
        })
        .collect();

    let plan = doc.get("plan").map(|p| PlanInfo {
        strategy: p
            .get("strategy")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string(),
        setup_bytes: p.get("setup_bytes").and_then(Value::as_u64),
        round_bytes: p.get("round_bytes").and_then(Value::as_f64),
        predicted_rounds: p.get("predicted_rounds").and_then(Value::as_u64),
        skew_ratio: p.get("skew_ratio").and_then(Value::as_f64),
    });

    Ok(TraceStats {
        wall_us: max_end.saturating_sub(min_start),
        phases: phase_slots.into_values().collect(),
        rounds,
        workers,
        plan,
        events: n_events,
    })
}

fn ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

/// Render the summary as the human table `owlpar trace summary` prints.
pub fn render(stats: &TraceStats) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} event(s), {:.3} ms wall, {} worker lane(s), {} round(s)",
        stats.events,
        ms(stats.wall_us),
        stats.workers.len(),
        stats.rounds.len()
    );
    if !stats.workers.is_empty() {
        let _ = writeln!(out, "workers: {}", stats.workers.join(", "));
    }

    let crit_total: u64 = stats.phases.iter().map(|p| p.crit_us).sum();
    let _ = writeln!(
        out,
        "\n{:<14} {:>7} {:>12} {:>8} {:>10}",
        "phase", "spans", "total ms", "% wall", "% crit"
    );
    for p in &stats.phases {
        let wall_pct = if stats.wall_us == 0 {
            0.0
        } else {
            100.0 * p.total_us as f64 / stats.wall_us as f64
        };
        let crit_pct = if crit_total == 0 {
            0.0
        } else {
            100.0 * p.crit_us as f64 / crit_total as f64
        };
        let _ = writeln!(
            out,
            "{:<14} {:>7} {:>12.3} {:>7.1}% {:>9.1}%",
            p.phase.name(),
            p.count,
            ms(p.total_us),
            wall_pct,
            crit_pct
        );
    }

    if !stats.rounds.is_empty() {
        let predicted_per_round = stats.plan.as_ref().and_then(|p| {
            let total = p.round_bytes?;
            let rounds = p.predicted_rounds.unwrap_or(stats.rounds.len() as u64);
            Some(total / rounds.max(1) as f64)
        });
        let _ = writeln!(
            out,
            "\n{:<6} {:>7} {:>10} {:>10} {:>10} {:>8} {:>12} {:>14}",
            "round", "workers", "max ms", "min ms", "skew ms", "skew x", "bytes", "pred. bytes"
        );
        for r in &stats.rounds {
            let mean = if r.workers == 0 {
                0.0
            } else {
                (r.max_us + r.min_us) as f64 / 2.0
            };
            let skew_ratio = if mean == 0.0 {
                1.0
            } else {
                r.max_us as f64 / mean
            };
            let bytes = r
                .bytes
                .map_or("-".to_string(), |b| b.to_string());
            let pred = predicted_per_round
                .map_or("-".to_string(), |p| format!("{p:.0}"));
            let _ = writeln!(
                out,
                "{:<6} {:>7} {:>10.3} {:>10.3} {:>10.3} {:>8.2} {:>12} {:>14}",
                r.round,
                r.workers,
                ms(r.max_us),
                ms(r.min_us),
                ms(r.skew_us()),
                skew_ratio,
                bytes,
                pred
            );
        }
    }

    if let Some(plan) = &stats.plan {
        let _ = write!(out, "\nplan ({})", plan.strategy);
        if let Some(s) = plan.setup_bytes {
            let _ = write!(out, ": predicted setup {s} B");
        }
        if let Some(r) = plan.round_bytes {
            let _ = write!(out, ", rounds {r:.0} B total");
        }
        if let Some(n) = plan.predicted_rounds {
            let _ = write!(out, ", ≤{n} round(s)");
        }
        if let Some(k) = plan.skew_ratio {
            let _ = write!(out, ", predicted skew ratio {k:.2}x");
        }
        out.push('\n');
        if let Some(pred) = plan.skew_ratio {
            let worst = stats
                .rounds
                .iter()
                .map(|r| {
                    let mean = (r.max_us + r.min_us) as f64 / 2.0;
                    if mean == 0.0 {
                        1.0
                    } else {
                        r.max_us as f64 / mean
                    }
                })
                .fold(1.0f64, f64::max);
            let _ = writeln!(
                out,
                "measured worst-round skew ratio {worst:.2}x vs predicted {pred:.2}x"
            );
        }
    }
    out
}

/// Convenience: parse a trace file's text and render its summary.
pub fn summarize_text(text: &str) -> Result<String, String> {
    let doc = parse(text)?;
    let stats = summarize(&doc)?;
    Ok(render(&stats))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::chrome::to_chrome_json;
    use crate::{Metric, Phase, Recorder, NO_ROUND};

    fn two_worker_book() -> crate::TraceBook {
        let rec = Recorder::enabled();
        let mut m = rec.track("master");
        m.span_at(Phase::Setup, NO_ROUND, 0, 500);
        m.flush();
        drop(m);
        for (w, (dur0, dur1)) in [(0u32, (900u64, 400u64)), (1, (700, 600))] {
            let mut t = rec.track_in(&format!("worker {w}"), w + 1);
            t.count(Phase::Exchange, 0, Metric::Bytes, 400 + 200 * u64::from(w));
            t.span_at(Phase::Round, 0, 600, dur0);
            t.span_at(Phase::Join, 0, 600, dur0 / 2);
            t.span_at(Phase::Round, 1, 1600, dur1);
            t.flush();
        }
        let mut book = rec.drain();
        let plan = "{\"strategy\":\"data\",\"setup_bytes\":123,\"round_bytes\":2000.0,\
                    \"predicted_rounds\":2,\"skew_ratio\":1.2}";
        book.extra_json
            .push(("plan".to_string(), parse(plan).unwrap()));
        book
    }

    #[test]
    fn summarizes_rounds_and_skew() {
        let json = to_chrome_json(&two_worker_book());
        let stats = summarize(&parse(&json).unwrap()).unwrap();
        assert_eq!(stats.rounds.len(), 2);
        let r0 = &stats.rounds[0];
        assert_eq!((r0.round, r0.workers), (0, 2));
        assert_eq!(r0.max_us, 900);
        assert_eq!(r0.min_us, 700);
        assert_eq!(r0.skew_us(), 200);
        assert_eq!(r0.bytes, Some(1000));
        assert_eq!(stats.rounds[1].bytes, None);
        assert_eq!(stats.workers, vec!["worker 0", "worker 1"]);
        let plan = stats.plan.as_ref().unwrap();
        assert_eq!(plan.setup_bytes, Some(123));
        assert_eq!(plan.skew_ratio, Some(1.2));
        // Join on the critical path: round 0's laggard is worker 0.
        let join = stats
            .phases
            .iter()
            .find(|p| p.phase == Phase::Join)
            .unwrap();
        assert_eq!(join.crit_us, 450);

        let table = render(&stats);
        assert!(table.contains("barrier") || table.contains("round"), "{table}");
        assert!(table.contains("predicted skew ratio 1.20x"), "{table}");
        assert!(table.contains("skew"), "{table}");
    }

    #[test]
    fn non_trace_json_is_a_typed_error() {
        assert!(summarize(&parse("{\"x\":1}").unwrap()).is_err());
        let doc = parse("{\"traceEvents\":[]}").unwrap();
        assert!(summarize(&doc).is_err());
    }
}
