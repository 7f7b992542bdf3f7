//! # cpdb-model — probabilistic relation models and possible-world semantics
//!
//! This crate implements the data-model substrate of Li & Deshpande's
//! *Consensus Answers for Queries over Probabilistic Databases* (PODS 2009,
//! §3.1): probabilistic relations `R^P(K; A)` with both tuple-level and
//! attribute-level uncertainty, their **possible-world semantics**, and the
//! standard representation systems the paper generalises:
//!
//! * [`TupleIndependentDb`] — every tuple present independently with its own
//!   probability (the model of Dalvi–Suciu safe plans);
//! * [`BidDb`] — the block-independent-disjoint scheme `R(K; A; Pr)`: the
//!   alternatives of one key are mutually exclusive, different keys are
//!   independent;
//! * [`XTupleDb`] — x-tuples/p-or-sets: mutually exclusive alternative sets,
//!   a thin layer over the BID semantics;
//! * explicit [`WorldSet`]s — an enumerated probability distribution over
//!   deterministic worlds, the ground-truth representation used by the
//!   brute-force oracles throughout this repository.
//!
//! It also contains a small select–project–join evaluator ([`spj`]) and the
//! MAX-2-SAT hardness gadget of §4.1 ([`hardness`]), which shows that finding
//! a *median* world is NP-hard under arbitrary correlations even when result
//! tuple probabilities are easy to compute.
//!
//! The richer **probabilistic and/xor tree** model lives in the companion
//! crate `cpdb-andxor`; conversions from each model here into and/xor trees
//! are provided there.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bid;
pub mod error;
pub mod hardness;
pub mod spj;
pub mod tuple;
pub mod tuple_independent;
pub mod world;
pub mod xtuple;

pub use bid::{BidBlock, BidDb};
pub use error::ModelError;
pub use tuple::{fold_marginals, Alternative, AttrValue, TupleKey};
pub use tuple_independent::TupleIndependentDb;
pub use world::{PossibleWorld, WorldModel, WorldSet};
pub use xtuple::{XTuple, XTupleDb};
