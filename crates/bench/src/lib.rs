//! Shared infrastructure for the experiment binaries (one per table or
//! figure of the paper).
//!
//! Every binary accepts `--scale <f>` (entity-count multiplier),
//! `--universities <n>`, and prints a self-describing table to stdout; the
//! same rows are appended as JSON lines to `target/experiments/<exp>.jsonl`
//! so EXPERIMENTS.md can be regenerated from artifacts.

#![forbid(unsafe_code)]
// The experiment harness is operator-facing tooling, not library code: a
// failed run should abort loudly with context, so the workspace-level
// unwrap/expect/panic deny gates are relaxed for this crate only.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod datasets;
pub mod runner;
pub mod table;

pub use datasets::{Dataset, DatasetConfig};
pub use runner::{speedup_series, SpeedupPoint};
