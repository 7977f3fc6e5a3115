//! Chrome `trace_event` JSON export.
//!
//! Emits the JSON object format (`{"traceEvents":[...]}`) loadable by
//! `chrome://tracing` / Perfetto: complete (`"ph":"X"`) events for
//! spans, counter (`"ph":"C"`) events for samples, and metadata events
//! naming each process and thread lane. Extra top-level keys (the plan
//! predictions, run metadata) ride along — the Chrome viewer ignores
//! keys it does not know, and `owlpar trace summary` reads them back.
//!
//! A trace runs to megabytes, so events stream straight into one
//! `String` instead of going through a [`Value`](crate::json::Value)
//! tree; names pass through the same [`escape_into`] the writer uses.

use crate::json::escape_into;
use crate::{Event, TraceBook, NO_ROUND};
use std::fmt::Write as _;

/// Start the next event: a separating comma after the first, then a
/// newline so the file stays line-per-event.
fn next_event(out: &mut String, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push('\n');
}

/// A metadata event naming process `pid` (or its thread `tid`).
fn push_name(out: &mut String, first: &mut bool, kind: &str, pid: u32, tid: u32, name: &str) {
    next_event(out, first);
    let _ = write!(
        out,
        "{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\""
    );
    escape_into(out, name);
    out.push_str("\"}}");
}

/// Render a drained [`TraceBook`] as a Chrome trace JSON document.
pub fn to_chrome_json(book: &TraceBook) -> String {
    let mut out = String::with_capacity(book.events.len() * 96 + 1024);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;

    // Metadata: name each process and thread lane.
    let mut pids: Vec<u32> = book.tracks.iter().map(|t| t.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    for pid in pids {
        let name = if pid == 0 {
            "master".to_string()
        } else {
            format!("worker {}", pid - 1)
        };
        push_name(&mut out, &mut first, "process_name", pid, 0, &name);
    }
    for t in &book.tracks {
        push_name(&mut out, &mut first, "thread_name", t.pid, t.id, &t.name);
    }

    let pid_of = |track: u32| {
        book.tracks
            .iter()
            .find(|t| t.id == track)
            .map_or(0, |t| t.pid)
    };
    for e in &book.events {
        next_event(&mut out, &mut first);
        match *e {
            Event::Span {
                track,
                phase,
                round,
                start_us,
                dur_us,
            } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"owlpar\",\"ph\":\"X\",\
                     \"pid\":{},\"tid\":{track},\"ts\":{start_us},\"dur\":{dur_us}",
                    phase.name(),
                    pid_of(track),
                );
                if round != NO_ROUND {
                    let _ = write!(out, ",\"args\":{{\"round\":{round}}}");
                }
                out.push('}');
            }
            Event::Count {
                track,
                phase,
                round,
                at_us,
                metric,
                value,
            } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}.{}\",\"cat\":\"owlpar\",\"ph\":\"C\",\
                     \"pid\":{},\"tid\":{track},\"ts\":{at_us},\
                     \"args\":{{\"{}\":{value}",
                    phase.name(),
                    metric.name(),
                    pid_of(track),
                    metric.name(),
                );
                if round != NO_ROUND {
                    let _ = write!(out, ",\"round\":{round}");
                }
                out.push_str("}}");
            }
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"");
    for (key, value) in &book.extra_json {
        out.push_str(",\"");
        escape_into(&mut out, key);
        let _ = write!(out, "\":{value}");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::json::{obj, parse, Value};
    use crate::{Metric, Phase, Recorder};

    #[test]
    fn export_contains_spans_counters_and_lane_names() {
        let rec = Recorder::enabled();
        let mut t = rec.track("worker \"0\"\\");
        t.span_at(Phase::Join, 2, 100, 50);
        t.count(Phase::Exchange, 2, Metric::Bytes, 777);
        t.flush();
        let mut book = rec.drain();
        book.extra_json
            .push(("plan".to_string(), obj([("k", 4u64.into())])));
        let json = to_chrome_json(&book);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"join\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":50"));
        assert!(json.contains("\"args\":{\"round\":2}"));
        assert!(json.contains("\"name\":\"exchange.bytes\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"plan\":{\"k\":4}"));
        // The mini parser must accept its own exporter's output, lane
        // names escaped.
        let v = parse(&json).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let lane = Value::from("worker \"0\"\\");
        assert!(events
            .iter()
            .any(|e| e.get("args").and_then(|a| a.get("name")) == Some(&lane)));
    }
}
