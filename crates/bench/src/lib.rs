//! # cpdb-bench — experiment harness shared by the `experiments` binary and
//! the `ledger` perf driver.
//!
//! The paper has no empirical section, so the "tables and figures" this
//! harness regenerates are (a) the two figures of the paper, reproduced
//! exactly, and (b) one validation + one scaling experiment per algorithmic
//! claim (E1–E13, listed in the `experiments` binary's docs).
//!
//! The experiment tables (E1–E13 validation and scaling) live in
//! [`experiments`]. The workload modules below are the suites of the
//! `ledger` binary, which times them with the one [`sample`] statistics type
//! and writes `BENCH_ledger.json`; its ungated `kernels` suite times the
//! library kernels that no scaling table covers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fault_recovery;
pub mod observability;
pub mod persistence;
pub mod query_throughput;
pub mod rank_artifacts;
pub mod replication;
pub mod sample;
pub mod table;
pub mod update_throughput;

pub use experiments::*;
pub use table::Table;
