//! # cpdb-engine — the unified consensus query engine
//!
//! The paper frames every result — set consensus (Theorem 2), Top-k under
//! four metrics (§5), aggregates (Theorem 5), clustering (§6.2) — as one
//! problem:
//!
//! ```text
//! τ* = argmin_{τ ∈ Ω}  E_pw [ d(τ, τ_pw) ]
//! ```
//!
//! This crate exposes it as one API. A [`ConsensusEngine`] is built from a
//! probabilistic and/xor tree via [`ConsensusEngineBuilder`] (seed, k-range,
//! thread count; one algorithm per metric); every consensus notion is a [`Query`]; and
//! [`ConsensusEngine::run`] returns a uniform [`Answer`] carrying the result,
//! its expected distance, and an [`Optimality`] tag (`Exact` /
//! `Approx { factor }` / `Heuristic`).
//!
//! The engine memoises the expensive shared artifacts — rank-probability PMFs
//! (one table at the largest `k` asked for), co-clustering weights,
//! marginal tables — in concurrency-safe interior-mutable slots, so every
//! entry point takes `&self`: one warm engine can be shared across threads
//! and serve queries concurrently, each artifact built exactly once.
//! [`ConsensusEngine::run_batch`] amortises the generating-function work
//! across queries: it answers duplicate queries once and fans the distinct
//! ones out across threads, each artifact built by the first query that
//! needs it. Randomised paths draw from an
//! owned seeded RNG with per-query stream derivation, so results are
//! deterministic and independent of batch order, thread count, and
//! interleaving — parallel batches are bit-identical to a serial loop.
//!
//! ## Quickstart
//!
//! ```
//! use cpdb_engine::{ConsensusEngineBuilder, Query, TopKMetric, Variant};
//! use cpdb_model::TupleIndependentDb;
//!
//! // A small probabilistic relation: four independent tuples with scores.
//! let db = TupleIndependentDb::from_triples(&[
//!     (1, 95.0, 0.4),   // (key, score, probability)
//!     (2, 90.0, 0.9),
//!     (3, 85.0, 0.7),
//!     (4, 80.0, 0.85),
//! ]).unwrap();
//! let tree = cpdb_andxor::convert::from_tuple_independent(&db).unwrap();
//!
//! let engine = ConsensusEngineBuilder::new(tree).seed(2009).build().unwrap();
//!
//! // One entry point for every consensus notion; a batch shares the cached
//! // rank-probability PMFs across all four metrics.
//! let queries: Vec<Query> = [
//!     TopKMetric::SymmetricDifference,
//!     TopKMetric::Intersection,
//!     TopKMetric::Footrule,
//!     TopKMetric::Kendall,
//! ]
//! .into_iter()
//! .map(|metric| Query::TopK { k: 2, metric, variant: Variant::Mean })
//! .collect();
//!
//! for answer in engine.run_batch(&queries) {
//!     let answer = answer.unwrap();
//!     println!("{answer}");
//!     assert_eq!(answer.value.as_topk().unwrap().len(), 2);
//! }
//! assert_eq!(engine.cache_stats().rank_context_builds, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod answer;
mod builder;
mod delta;
mod engine;
mod error;
mod export;
mod obs;
mod query;

pub use answer::{Answer, Optimality, Value};
pub use builder::ConsensusEngineBuilder;
pub use delta::{ArtifactDecision, DeltaReport};
pub use engine::{CacheStats, ConsensusEngine};
pub use error::EngineError;
pub use export::{CoClusterExport, EngineExport, RankContextExport};
pub use query::{BaselineKind, Query, SetMetric, TopKMetric, Variant};

// Re-exported so delta authors work against one crate: the mutation API is
// defined next to the tree it mutates.
pub use cpdb_andxor::{DeltaImpact, TreeDelta};

// Re-exported so engine users attach an observability sink without naming
// the obs crate separately.
pub use cpdb_obs::{MetricsSnapshot, Obs};
