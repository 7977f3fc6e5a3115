//! Typed errors for the parallel runtime.
//!
//! Algorithm 3 runs workers through barrier-synchronized rounds over a
//! transport that is fallible by design (the paper exchanged files on a
//! shared filesystem). Instead of panicking on the first IO hiccup and
//! poisoning the whole fabric, every failure is classified into one of
//! three layers and propagated to the master:
//!
//! * [`CommError`] — a single transport operation failed (persistent IO
//!   error after bounded retries, a hung-up channel peer, a timeout);
//! * [`WorkerError`] — one worker is out of the run (comm failure,
//!   contained panic, barrier timeout);
//! * [`RunError`] — the run as a whole could not produce a closure
//!   (invalid configuration, unrecovered worker losses).
//!
//! Corrupted or foreign *messages* are deliberately **not** errors: the
//! transport skips them and records a [`SkippedMessage`] report, because
//! one bad message must not take down a round that every other message
//! completed (see `comm`).

use owlpar_lint::LintReport;
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

/// A failed communication operation on one worker's endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// An IO operation kept failing after bounded retries with backoff.
    Io {
        /// Round in which the operation ran.
        round: usize,
        /// Worker whose endpoint failed.
        worker: usize,
        /// File involved, if the shared-file transport was active.
        path: Option<PathBuf>,
        /// Kind of the final IO error.
        kind: std::io::ErrorKind,
        /// Rendered message of the final IO error.
        detail: String,
        /// Number of attempts made (including the first).
        attempts: u32,
    },
    /// The channel peer hung up (its worker is gone).
    Disconnected {
        /// Round in which the send ran.
        round: usize,
        /// Sending worker.
        from: usize,
        /// Receiving worker whose endpoint is gone.
        to: usize,
    },
    /// A collect did not complete within the allotted time.
    Timeout {
        /// Round that timed out.
        round: usize,
        /// Worker that was waiting.
        worker: usize,
        /// How long it waited.
        waited: Duration,
    },
    /// The selected transport cannot serve the run (e.g. a custom fabric
    /// that built the wrong number of endpoints).
    Unsupported {
        /// What was attempted.
        detail: &'static str,
    },
    /// A peer violated the wire protocol (bad checksum, unknown message
    /// tag, wrong round marker). Unlike a skippable corrupt *message
    /// file*, a corrupted length-prefixed *stream* cannot be
    /// resynchronized, so the connection is dead.
    Protocol {
        /// Round in which the violation was observed.
        round: usize,
        /// Worker whose endpoint observed it.
        worker: usize,
        /// Peer that sent the offending bytes.
        peer: usize,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Io {
                round,
                worker,
                path,
                kind,
                detail,
                attempts,
            } => {
                write!(
                    f,
                    "worker {worker} round {round}: IO error after {attempts} attempt(s)"
                )?;
                if let Some(p) = path {
                    write!(f, " on {}", p.display())?;
                }
                write!(f, ": {detail} ({kind:?})")
            }
            CommError::Disconnected { round, from, to } => write!(
                f,
                "worker {from} round {round}: peer {to} disconnected"
            ),
            CommError::Timeout {
                round,
                worker,
                waited,
            } => write!(
                f,
                "worker {worker} round {round}: collect timed out after {waited:?}"
            ),
            CommError::Unsupported { detail } => {
                write!(f, "unsupported transport operation: {detail}")
            }
            CommError::Protocol {
                round,
                worker,
                peer,
                detail,
            } => write!(
                f,
                "worker {worker} round {round}: protocol violation from peer {peer}: {detail}"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// Why one worker dropped out of the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerError {
    /// The worker's transport endpoint failed permanently.
    Comm {
        /// Worker index.
        worker: usize,
        /// The transport failure.
        source: CommError,
    },
    /// The worker panicked; the panic was contained by the runtime.
    Panicked {
        /// Worker index.
        worker: usize,
        /// Last round the worker was known to have entered.
        round: usize,
        /// Rendered panic payload.
        message: String,
    },
    /// The worker gave up waiting at the round barrier.
    BarrierTimeout {
        /// Worker index.
        worker: usize,
        /// Round at which it was waiting.
        round: usize,
        /// Configured patience that ran out.
        waited: Duration,
    },
}

impl WorkerError {
    /// Index of the worker this error belongs to.
    pub fn worker(&self) -> usize {
        match self {
            WorkerError::Comm { worker, .. }
            | WorkerError::Panicked { worker, .. }
            | WorkerError::BarrierTimeout { worker, .. } => *worker,
        }
    }
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Comm { worker, source } => {
                write!(f, "worker {worker}: communication failed: {source}")
            }
            WorkerError::Panicked {
                worker,
                round,
                message,
            } => write!(f, "worker {worker} panicked in round {round}: {message}"),
            WorkerError::BarrierTimeout {
                worker,
                round,
                waited,
            } => write!(
                f,
                "worker {worker} timed out at the round-{round} barrier after {waited:?}"
            ),
        }
    }
}

impl std::error::Error for WorkerError {}

/// Why a parallel run produced no closure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The configuration is invalid (k = 0, an unresolved auto
    /// strategy, unparsable fault plan, ...).
    Config {
        /// What is wrong.
        detail: String,
    },
    /// Building the communication fabric failed before any worker ran.
    Fabric {
        /// The underlying transport failure.
        source: CommError,
    },
    /// The pre-spawn lint gate found deny-level problems in the effective
    /// rule-base (compiled + extra rules): running it under the configured
    /// partitioning could silently produce an incomplete closure, so the
    /// master refuses before any worker spawns.
    Lint {
        /// The full lint report (render or serialize it for the user).
        report: LintReport,
    },
    /// The static plan analyzer rejected every candidate plan with
    /// deny-level diagnostics (OWL011–OWL016): running any of them would
    /// degenerate (one worker owning the load, exchange dwarfing the
    /// base, a majority of workers idle). Raised by `--strategy auto`
    /// before any worker spawns; not overridable. Carries rendered text
    /// rather than the reports so `RunError` stays `Eq` (the reports
    /// hold floating-point estimates).
    Plan {
        /// Strategy labels that were considered.
        candidates: Vec<String>,
        /// Total deny-level findings across the candidates.
        deny: usize,
        /// Rendered per-candidate deny diagnostics.
        detail: String,
    },
    /// One or more workers were lost and the run could not recover
    /// (recovery is only guaranteed for data partitioning; see
    /// `FaultRecovery`).
    Workers {
        /// Every worker loss, in worker order.
        errors: Vec<WorkerError>,
    },
}

impl RunError {
    /// Convenience constructor for configuration errors.
    pub fn config(detail: impl Into<String>) -> Self {
        RunError::Config {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Config { detail } => write!(f, "invalid configuration: {detail}"),
            RunError::Fabric { source } => write!(f, "building comm fabric failed: {source}"),
            RunError::Lint { report } => write!(
                f,
                "rule-base rejected by the lint gate ({} deny finding(s)): {}",
                report.deny_count(),
                report
                    .deny_findings()
                    .map(|d| format!(
                        "{}{}: {}",
                        d.code.id(),
                        d.rule.as_deref().map(|r| format!(" [{r}]")).unwrap_or_default(),
                        d.message
                    ))
                    .collect::<Vec<_>>()
                    .join("; ")
            ),
            RunError::Plan {
                candidates,
                deny,
                detail,
            } => write!(
                f,
                "no viable partition plan: every candidate ({}) has deny-level plan \
                 diagnostics ({deny} finding(s)): {detail}",
                candidates.join(", ")
            ),
            RunError::Workers { errors } => {
                write!(f, "{} worker(s) lost without recovery: ", errors.len())?;
                for (i, e) in errors.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<WorkerError> for RunError {
    fn from(e: WorkerError) -> Self {
        RunError::Workers { errors: vec![e] }
    }
}

/// A message the transport dropped instead of delivering, with the reason.
/// Skipping is reported, never silent: the master surfaces the counts in
/// `WorkerStats::skipped` and the reports on the endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedMessage {
    /// Round in which the message was collected.
    pub round: usize,
    /// Worker that skipped it.
    pub worker: usize,
    /// File name (shared-file transport) or a synthetic label.
    pub origin: String,
    /// Why it was skipped.
    pub reason: String,
}

impl fmt::Display for SkippedMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker {} round {}: skipped {}: {}",
            self.worker, self.round, self.origin, self.reason
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_coordinates() {
        let e = CommError::Io {
            round: 3,
            worker: 1,
            path: Some(PathBuf::from("/tmp/x.msg")),
            kind: std::io::ErrorKind::Interrupted,
            detail: "interrupted".into(),
            attempts: 5,
        };
        let s = e.to_string();
        assert!(s.contains("round 3"));
        assert!(s.contains("worker 1"));
        assert!(s.contains("5 attempt"));
    }

    #[test]
    fn worker_error_exposes_worker() {
        let e = WorkerError::Panicked {
            worker: 7,
            round: 2,
            message: "boom".into(),
        };
        assert_eq!(e.worker(), 7);
        assert!(e.to_string().contains("worker 7"));
        assert!(e.to_string().contains("round 2"));
    }

    #[test]
    fn run_error_aggregates_workers() {
        let e = RunError::Workers {
            errors: vec![
                WorkerError::Panicked {
                    worker: 0,
                    round: 1,
                    message: "a".into(),
                },
                WorkerError::BarrierTimeout {
                    worker: 2,
                    round: 1,
                    waited: Duration::from_secs(30),
                },
            ],
        };
        let s = e.to_string();
        assert!(s.contains("2 worker(s)"));
        assert!(s.contains("worker 0"));
        assert!(s.contains("worker 2"));
    }
}
