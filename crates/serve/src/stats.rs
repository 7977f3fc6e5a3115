//! Server-side instrumentation: request counters and latency
//! histograms, exported as an `owlpar_obs::json` document. The STATS
//! response also embeds a Prometheus text dump
//! ([`ServerStats::prometheus`]) so one scrape shows where server time
//! goes (query / insert / checkpoint / wal-fsync phase spans) next to
//! the request counters.

use owlpar_obs::json::{obj, Value};
use owlpar_obs::Recorder;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two latency buckets (covers 1µs .. ~584000 years).
const BUCKETS: usize = 64;

/// A lock-free log-scale latency histogram: bucket *i* counts
/// observations in `[2^(i-1), 2^i)` microseconds (bucket 0: `< 1µs`).
/// Quantiles report the upper bound of the bucket the quantile falls
/// into — exact enough for p50/p99 dashboards at ~2x resolution, and
/// recordable from any number of threads without coordination.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// Record one observation.
    pub fn record(&self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let idx = if us == 0 {
            0
        } else {
            (BUCKETS as u32 - us.leading_zeros()) as usize
        }
        .min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Upper bound (µs) of the bucket holding quantile `q` (0 < q ≤ 1).
    /// Zero when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return if i == 0 { 1 } else { 1u64 << i.min(63) };
            }
        }
        1u64 << (BUCKETS - 1)
    }
}

/// Counters for one running server.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Queries answered (successfully).
    pub queries: AtomicU64,
    /// Insert batches applied.
    pub inserts: AtomicU64,
    /// Requests answered with an error.
    pub errors: AtomicU64,
    /// Connections turned away with `BUSY` (worker pool saturated).
    pub busy_rejections: AtomicU64,
    /// Connections dropped for blowing a read/write deadline.
    pub idle_disconnects: AtomicU64,
    /// Query latency (parse + execute + render).
    pub query_latency: LatencyHistogram,
    /// Insert latency (parse + delta closure + publish).
    pub insert_latency: LatencyHistogram,
}

/// The numbers of the initial materialization run, frozen at startup
/// and reported by STATS alongside the live counters.
#[derive(Debug, Clone, Default)]
pub struct RunInfo {
    /// Workers of the materialization run.
    pub workers: usize,
    /// Rounds (max over workers).
    pub rounds: usize,
    /// Triples derived by the run.
    pub derived: usize,
    /// Messages skipped-with-report during the run.
    pub skipped: usize,
    /// `RunReport::summary()` of the run.
    pub summary: String,
}

impl ServerStats {
    /// The Prometheus text dump embedded in STATS: the recorder's
    /// per-phase span totals (empty when tracing is off) merged with the
    /// request counters and latency quantiles as extra samples.
    pub fn prometheus(&self, rec: &Recorder) -> String {
        let extras = [
            (
                "owlpar_server_queries_total",
                "",
                "",
                self.queries.load(Ordering::Relaxed) as f64,
            ),
            (
                "owlpar_server_inserts_total",
                "",
                "",
                self.inserts.load(Ordering::Relaxed) as f64,
            ),
            (
                "owlpar_server_errors_total",
                "",
                "",
                self.errors.load(Ordering::Relaxed) as f64,
            ),
            (
                "owlpar_server_busy_rejections_total",
                "",
                "",
                self.busy_rejections.load(Ordering::Relaxed) as f64,
            ),
            (
                "owlpar_server_idle_disconnects_total",
                "",
                "",
                self.idle_disconnects.load(Ordering::Relaxed) as f64,
            ),
            (
                "owlpar_server_query_latency_us",
                "quantile",
                "p50",
                self.query_latency.quantile_us(0.50) as f64,
            ),
            (
                "owlpar_server_query_latency_us",
                "quantile",
                "p99",
                self.query_latency.quantile_us(0.99) as f64,
            ),
            (
                "owlpar_server_insert_latency_us",
                "quantile",
                "p50",
                self.insert_latency.quantile_us(0.50) as f64,
            ),
            (
                "owlpar_server_insert_latency_us",
                "quantile",
                "p99",
                self.insert_latency.quantile_us(0.99) as f64,
            ),
        ];
        owlpar_obs::prom::render(&rec.phase_totals(), &extras)
    }

    /// Render the stats JSON the STATS request returns. `durability` is
    /// `None` when the server runs without a data dir, `Some("ok")`
    /// while the layer is healthy, and `Some(<error>)` once poisoned.
    /// `prom` is the Prometheus dump of [`ServerStats::prometheus`],
    /// embedded as an escaped string so a scraper can unwrap one field.
    pub fn to_json(
        &self,
        epoch: u64,
        triples: usize,
        terms: usize,
        run: &RunInfo,
        durability: Option<&str>,
        prom: &str,
    ) -> String {
        let count = |c: &AtomicU64| Value::from(c.load(Ordering::Relaxed));
        obj([
            ("epoch", epoch.into()),
            ("triples", triples.into()),
            ("terms", terms.into()),
            ("queries", count(&self.queries)),
            ("inserts", count(&self.inserts)),
            ("errors", count(&self.errors)),
            ("busy_rejections", count(&self.busy_rejections)),
            ("idle_disconnects", count(&self.idle_disconnects)),
            ("durability", durability.into()),
            ("query_p50_us", self.query_latency.quantile_us(0.50).into()),
            ("query_p99_us", self.query_latency.quantile_us(0.99).into()),
            ("insert_p50_us", self.insert_latency.quantile_us(0.50).into()),
            ("insert_p99_us", self.insert_latency.quantile_us(0.99).into()),
            ("prom", prom.into()),
            (
                "run",
                obj([
                    ("workers", run.workers.into()),
                    ("rounds", run.rounds.into()),
                    ("derived", run.derived.into()),
                    ("skipped", run.skipped.into()),
                    ("summary", run.summary.as_str().into()),
                ]),
            ),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_us(0.5), 0);
    }

    #[test]
    fn quantiles_bracket_observations() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(100)); // bucket [64,128)
        }
        h.record(Duration::from_millis(50)); // bucket [32768,65536)
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_us(0.50);
        assert!((100..=256).contains(&p50), "p50={p50}");
        let p99 = h.quantile_us(0.99);
        assert!(p99 <= 256, "99 of 100 samples are ~100us, p99={p99}");
        let p100 = h.quantile_us(1.0);
        assert!(p100 >= 50_000, "max sample is 50ms, p100={p100}");
    }

    #[test]
    fn sub_microsecond_and_huge_samples_stay_in_range() {
        let h = LatencyHistogram::default();
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(1 << 40));
        assert_eq!(h.count(), 2);
        assert!(h.quantile_us(0.1) >= 1);
    }

    #[test]
    fn stats_json_is_wellformed_enough() {
        let s = ServerStats::default();
        s.queries.fetch_add(3, Ordering::Relaxed);
        let j = s.to_json(
            2,
            100,
            40,
            &RunInfo {
                workers: 4,
                rounds: 3,
                derived: 17,
                skipped: 0,
                summary: "4 worker(s)".into(),
            },
            None,
            "owlpar_server_queries_total 3\n",
        );
        assert!(j.starts_with('{') && j.ends_with('}'));
        for key in [
            "\"epoch\":2",
            "\"triples\":100",
            "\"queries\":3",
            "\"busy_rejections\":0",
            "\"idle_disconnects\":0",
            "\"durability\":null",
            "\"query_p50_us\":",
            "\"prom\":\"owlpar_server_queries_total 3\\n\"",
            "\"workers\":4",
            "\"summary\":\"4 worker(s)\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn stats_json_reports_durability_state() {
        let s = ServerStats::default();
        let run = RunInfo::default();
        let ok = s.to_json(0, 0, 0, &run, Some("ok"), "");
        assert!(ok.contains("\"durability\":\"ok\""), "{ok}");
        let bad = s.to_json(0, 0, 0, &run, Some("wal: disk \"full\""), "");
        assert!(bad.contains("\"durability\":\"wal: disk \\\"full\\\"\""), "{bad}");
    }

    #[test]
    fn prometheus_dump_merges_counters_and_phase_totals() {
        use owlpar_obs::Phase;
        let s = ServerStats::default();
        s.queries.fetch_add(7, Ordering::Relaxed);
        s.query_latency.record(Duration::from_micros(100));

        // Untraced server: counters and quantiles, no phase lines.
        let text = s.prometheus(&Recorder::disabled());
        assert!(text.contains("owlpar_server_queries_total 7"), "{text}");
        assert!(
            text.contains("owlpar_server_query_latency_us{quantile=\"p50\"}"),
            "{text}"
        );
        assert!(!text.contains("owlpar_phase_seconds_total"), "{text}");

        // Traced server: flushed spans surface as phase counters.
        let rec = Recorder::enabled();
        let mut lane = rec.track("serve");
        let span = lane.begin(Phase::Query, owlpar_obs::NO_ROUND);
        lane.end(span);
        lane.flush();
        let text = s.prometheus(&rec);
        assert!(
            text.contains("owlpar_phase_seconds_total{phase=\"query\"}"),
            "{text}"
        );
        assert!(
            text.contains("owlpar_phase_spans_total{phase=\"query\"} 1"),
            "{text}"
        );
    }
}
