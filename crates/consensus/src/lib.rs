//! # cpdb-consensus — consensus answers for queries over probabilistic databases
//!
//! This crate implements the contribution of Li & Deshpande, *Consensus
//! Answers for Queries over Probabilistic Databases* (PODS 2009): given a
//! query over a probabilistic database, find the single deterministic answer
//! that minimises the **expected distance** to the (random) answer of the
//! possible worlds —
//!
//! ```text
//! τ* = argmin_{τ ∈ Ω}  E_pw [ d(τ, τ_pw) ]
//! ```
//!
//! The *mean* answer lets `Ω` be every syntactically valid answer; the
//! *median* answer restricts `Ω` to answers of possible worlds with non-zero
//! probability.
//!
//! The modules follow the paper's sections:
//!
//! | module | paper | problem |
//! |---|---|---|
//! | [`set_distance`] | §4.1, Thm 2, Cor 1 | mean/median world under symmetric difference |
//! | [`jaccard`] | §4.2, Lemmas 1–2 | mean/median world under Jaccard distance |
//! | [`topk`] | §5 | consensus Top-k answers under d∆, intersection, footrule, Kendall |
//! | [`aggregate`] | §6.1, Thm 5, Cor 2 | consensus group-by count vectors |
//! | [`clustering`] | §6.2 | consensus clustering |
//! | [`baselines`] | §2 / intro | previously proposed ranking semantics for comparison |
//!
//! All algorithms take a probabilistic and/xor tree (`cpdb-andxor`) — the
//! paper's correlation model — or, where the paper requires it, the simpler
//! tuple-independent / BID models from `cpdb-model`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod baselines;
pub mod clustering;
pub mod jaccard;
pub mod set_distance;
pub mod topk;

pub use cpdb_genfunc::harmonic;
pub use topk::context::TopKContext;
