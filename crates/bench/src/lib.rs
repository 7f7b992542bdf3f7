//! # cpdb-bench — experiment harness shared by the benches and the
//! `experiments` binary.
//!
//! The paper has no empirical section, so the "tables and figures" this
//! harness regenerates are (a) the two figures of the paper, reproduced
//! exactly, and (b) one validation + one scaling experiment per algorithmic
//! claim (E1–E13, listed in the `experiments` binary's docs).
//!
//! The heavy lifting lives here so that the Criterion benches and the
//! `experiments` binary print exactly the same numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fault_recovery;
pub mod observability;
pub mod persistence;
pub mod query_throughput;
pub mod rank_artifacts;
pub mod replication;
pub mod table;
pub mod update_throughput;

pub use experiments::*;
pub use table::Table;
