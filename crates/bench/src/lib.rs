//! # spotcheck-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (and a set of ablations) from the reproduction's
//! models. Run via:
//!
//! ```text
//! cargo run -p spotcheck-bench --release --bin experiments            # everything
//! cargo run -p spotcheck-bench --release --bin experiments fig10 t3   # a subset
//! cargo run -p spotcheck-bench --release --bin experiments --list
//! ```
//!
//! Each experiment prints the same rows/series the paper reports, plus the
//! paper's published values where applicable, so shapes can be compared
//! directly. `EXPERIMENTS.md` records a paper-vs-measured index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod table;

pub use experiments::{all_ids, run, run_all, run_many, ExperimentResult, Scale};
pub use report::PerfReport;
