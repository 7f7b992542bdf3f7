//! # cpdb-rankagg — Top-k lists and their distances
//!
//! The paper frames consensus Top-k answers as an instance of the classic
//! *rank aggregation* problem: combine many (here: probability-weighted)
//! rankings into a single representative ranking. This crate holds the list
//! type every Top-k answer is given in and the distances the paper measures
//! it by:
//!
//! * [`lists`] — Top-k lists over item identifiers;
//! * [`metrics`] — the Top-k distance measures of Fagin, Kumar & Sivakumar
//!   (*Comparing top k lists*, SIAM J. Discrete Math 2003) used by the paper:
//!   normalised symmetric difference, the intersection metric, Spearman's
//!   footrule with location parameter, and Kendall's tau for Top-k lists.
//!
//! The aggregation algorithms themselves work on the and/xor tree in
//! `cpdb_consensus::topk`. The pivot (KwikSort) aggregation and the
//! exhaustive Kemeny optimum that E8 reports beside the served Kendall
//! answer are references in `cpdb_testkit::pivot`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod lists;
pub mod metrics;

pub use lists::{RankError, TopKList};
pub use metrics::{
    footrule_distance, intersection_metric, kendall_tau_topk, symmetric_difference_topk,
};
