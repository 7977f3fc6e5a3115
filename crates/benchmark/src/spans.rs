//! Harness-owned spans around each call into a layer's public API.
//!
//! Spans are kept in memory and written once, at exit, as a Chrome trace.
//! Every timing the harness reports is the duration `end` returns, so the
//! untraced run (which keeps nothing) and the traced run share one code
//! path and differ only in what they retain.

use owlpar_obs::{Event, Phase, TraceBook};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
    /// Index of the enclosing span on the same lane.
    pub parent: Option<usize>,
    /// Repetition or request number: spans of one unit of work share it.
    pub group: u64,
    /// Lane (harness thread) the span was recorded on.
    pub lane: u32,
}

/// An open span; close it with [`Spans::end`] in LIFO order.
#[must_use = "an open span measures nothing until Spans::end closes it"]
pub struct Open {
    slot: Option<usize>,
    started: Instant,
}

pub struct Spans {
    keep: bool,
    origin: Instant,
    lane: u32,
    group: u64,
    done: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(keep: bool, origin: Instant, lane: u32) -> Self {
        Spans {
            keep,
            origin,
            lane,
            group: 0,
            done: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another harness thread, on the same clock.
    pub fn lane(&self, lane: u32) -> Spans {
        Spans::new(self.keep, self.origin, lane)
    }

    /// Microseconds since the shared origin.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let slot = self.keep.then(|| {
            self.done.push(Span {
                name,
                start_us: started.duration_since(self.origin).as_secs_f64() * 1e6,
                dur_us: 0.0,
                parent: self.open.last().copied(),
                group: self.group,
                lane: self.lane,
            });
            self.open.push(self.done.len() - 1);
            self.done.len() - 1
        });
        Open { slot, started }
    }

    /// Close `open`; returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let secs = open.started.elapsed().as_secs_f64();
        if let Some(slot) = open.slot {
            self.done[slot].dur_us = secs * 1e6;
            self.open.retain(|&s| s != slot);
        }
        secs
    }

    /// Time one call: `(result, seconds)`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// Take over another lane's finished spans.
    pub fn absorb(&mut self, other: Spans) {
        let shift = self.done.len();
        self.done.extend(other.done.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    /// Per span, the µs its child spans cover.
    fn child_us(&self) -> Vec<f64> {
        let mut child_us = vec![0.0; self.done.len()];
        for s in &self.done {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us;
            }
        }
        child_us
    }

    /// Per span name: `(total µs, self µs, count)`, self time being the
    /// span minus the part its child spans cover.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, f64, u64)> {
        let child_us = self.child_us();
        let mut out: BTreeMap<&'static str, (f64, f64, u64)> = BTreeMap::new();
        for (s, covered) in self.done.iter().zip(child_us) {
            let e = out.entry(s.name).or_default();
            e.0 += s.dur_us;
            e.1 += (s.dur_us - covered).max(0.0);
            e.2 += 1;
        }
        out
    }

    /// Render the spans, and the `owlpar_obs` recorder's book beside them
    /// (`obs_offset_us` maps its clock onto ours), as one Chrome trace.
    pub fn to_chrome_json(
        &self,
        workload: &str,
        obs: &TraceBook,
        obs_offset_us: f64,
        obs_totals: &[(Phase, u64, u64)],
    ) -> String {
        // Process 0 is the harness; the recorder's processes follow.
        let mut out = String::with_capacity(self.done.len() * 128 + 1024);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"traceEvents\":[\n\
             {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{{\"name\":\"owlbench {workload}\"}}}}"
        );
        let totals = self.totals();
        let child_us = self.child_us();
        for (i, s) in self.done.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"owlbench\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"group\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.lane,
                s.start_us,
                s.dur_us,
                s.group,
                (s.dur_us - child_us[i]).max(0.0),
            );
        }
        for t in &obs.tracks {
            let _ = write!(
                out,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                t.pid + 1,
                t.id,
                t.name.replace(['"', '\\'], "_"),
            );
        }
        for e in &obs.events {
            if let Event::Span {
                track,
                phase,
                round,
                start_us,
                dur_us,
            } = *e
            {
                let pid = obs
                    .tracks
                    .iter()
                    .find(|t| t.id == track)
                    .map_or(0, |t| t.pid);
                let _ = write!(
                    out,
                    ",\n{{\"name\":\"{}\",\"cat\":\"owlpar_obs\",\"ph\":\"X\",\"pid\":{},\
                     \"tid\":{track},\"ts\":{:.3},\"dur\":{dur_us},\"args\":{{\"round\":{}}}}}",
                    phase.name(),
                    pid + 1,
                    start_us as f64 + obs_offset_us,
                    round as i64,
                );
            }
        }
        out.push_str("\n],\"span_totals\":{");
        for (i, (name, (total, self_us, n))) in totals.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{name}\":{{\"total_us\":{total:.3},\"self_us\":{self_us:.3},\"count\":{n}}}",
                if i == 0 { "" } else { "," }
            );
        }
        out.push_str("},\"obs_phase_totals\":{");
        for (i, (phase, dur_us, n)) in obs_totals.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\":{{\"total_us\":{dur_us},\"count\":{n}}}",
                if i == 0 { "" } else { "," },
                phase.name()
            );
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn self_time_excludes_children_and_trace_parses() {
        let mut s = Spans::new(true, Instant::now(), 0);
        let outer = s.begin("outer");
        let inner = s.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.end(inner);
        s.end(outer);
        let totals = s.totals();
        let (outer_total, outer_self, _) = totals["outer"];
        let (inner_total, inner_self, n) = totals["inner"];
        assert_eq!(n, 1);
        assert!(inner_total >= 2000.0 && inner_self == inner_total);
        assert!((outer_self - (outer_total - inner_total)).abs() < 1e-6);
        let json = s.to_chrome_json("w", &TraceBook::default(), 0.0, &[]);
        let doc = owlpar_obs::json::parse(&json).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn untraced_spans_keep_nothing_but_still_time() {
        let mut s = Spans::new(false, Instant::now(), 0);
        let ((), secs) = s.time("x", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(secs >= 0.001);
        assert!(s.totals().is_empty());
    }
}
