//! Speedup measurement shared by the figure binaries.

use owlpar_core::{run_parallel, run_serial, ParallelConfig, RunReport};
use owlpar_obs::json::{obj, Value};
use owlpar_rdf::Graph;
use std::path::PathBuf;
use std::time::Duration;

/// One (k, speedup) measurement.
#[derive(Debug, Clone)]
pub struct SpeedupPoint {
    /// Worker count.
    pub k: usize,
    /// Serial wall time (same materialization strategy), seconds.
    pub serial_secs: f64,
    /// Parallel wall time (spawn→join), seconds.
    pub parallel_secs: f64,
    /// Slowest worker's pure reasoning time, seconds (Fig. 3's "slowest
    /// partition" series).
    pub slowest_reason_secs: f64,
    /// serial / parallel.
    pub speedup: f64,
    /// serial / slowest-reasoning (comm-free speedup).
    pub reason_speedup: f64,
    /// Rounds to quiescence.
    pub rounds: usize,
    /// Input-replication excess, when the run partitioned data.
    pub ir_excess: Option<f64>,
    /// Output-replication excess.
    pub or_excess: f64,
}

impl SpeedupPoint {
    /// The point as a JSON object, one key per field.
    pub fn to_json(&self) -> Value {
        obj([
            ("k", self.k.into()),
            ("serial_secs", self.serial_secs.into()),
            ("parallel_secs", self.parallel_secs.into()),
            ("slowest_reason_secs", self.slowest_reason_secs.into()),
            ("speedup", self.speedup.into()),
            ("reason_speedup", self.reason_speedup.into()),
            ("rounds", self.rounds.into()),
            ("ir_excess", self.ir_excess.into()),
            ("or_excess", self.or_excess.into()),
        ])
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Run the serial baseline once and the parallel configuration at each
/// `k`, returning one point per `k`. The input graph is cloned per run so
/// measurements are independent.
pub fn speedup_series(graph: &Graph, base: &ParallelConfig, ks: &[usize]) -> Vec<SpeedupPoint> {
    let (_, serial_time) = run_serial(&mut graph.clone(), base.materialization);
    ks.iter()
        .map(|&k| {
            let mut g = graph.clone();
            let report =
                run_parallel(&mut g, &base.with_k(k)).expect("clean benchmark run");
            point_from_report(&report, serial_time)
        })
        .collect()
}

/// Build a [`SpeedupPoint`] from a run report and a serial baseline.
pub fn point_from_report(report: &RunReport, serial_time: Duration) -> SpeedupPoint {
    let slowest_reason = report
        .workers
        .iter()
        .map(|w| w.reason_time)
        .max()
        .unwrap_or_default();
    SpeedupPoint {
        k: report.k,
        serial_secs: secs(serial_time),
        parallel_secs: secs(report.parallel_time),
        slowest_reason_secs: secs(slowest_reason),
        speedup: secs(serial_time) / secs(report.parallel_time).max(1e-9),
        reason_speedup: secs(serial_time) / secs(slowest_reason).max(1e-9),
        rounds: report.max_rounds(),
        ir_excess: report.partition_quality.as_ref().map(|q| q.ir_excess()),
        or_excess: report.output_replication,
    }
}

/// Append JSON lines to `target/experiments/<name>.jsonl` so experiment
/// outputs survive as artifacts.
pub fn record_jsonl(name: &str, rows: &[Value]) -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.jsonl"));
    let mut text = String::new();
    for r in rows {
        text.push_str(&r.to_string());
        text.push('\n');
    }
    let _ = std::fs::write(&path, text);
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use owlpar_datagen::{generate_lubm, LubmConfig};

    #[test]
    fn series_produces_point_per_k() {
        let g = generate_lubm(&LubmConfig::mini(2));
        let cfg = ParallelConfig::default().forward();
        let pts = speedup_series(&g, &cfg, &[1, 2]);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].k, 1);
        assert!(pts[0].speedup > 0.0);
        assert!(pts[1].rounds >= 1);
    }

    #[test]
    fn record_jsonl_writes_rows() {
        let pts = vec![obj([("a", 1u64.into())]), obj([("a", 2u64.into())])];
        let path = record_jsonl("unit_test_rows", &pts);
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(text.lines().count(), 2);
    }
}
