//! # consensus-pdb — consensus answers for queries over probabilistic databases
//!
//! A from-scratch Rust implementation of Li & Deshpande, *Consensus Answers
//! for Queries over Probabilistic Databases* (PODS 2009): the probabilistic
//! and/xor tree correlation model, its generating-function probability
//! engine, and polynomial-time (or constant-approximation) algorithms for
//! computing **consensus answers** — the single deterministic answer that
//! minimises the expected distance to the answers of the possible worlds —
//! for set queries, Top-k ranking queries, group-by count aggregates, and
//! clustering.
//!
//! This crate is a facade that re-exports the workspace's crates under one
//! namespace:
//!
//! * [`engine`] — the unified [`ConsensusEngine`](engine::ConsensusEngine)
//!   query API with cached artifacts and batch execution;
//! * [`live`] — incremental updates with snapshot-isolated serving: an
//!   epoch-stamped [`LiveEngine`](live::LiveEngine) applies
//!   [`TreeDelta`](live::TreeDelta)s with delta-aware artifact maintenance
//!   while readers keep answering from their pinned epoch;
//! * [`store`] — the durability layer behind [`live`]: write-ahead log and
//!   checksummed snapshots routed through a pluggable [`Vfs`](store::Vfs),
//!   with deterministic fault injection ([`FaultVfs`](store::FaultVfs)) and
//!   bounded retries ([`RetryPolicy`](store::RetryPolicy));
//! * [`replica`] — read replicas on top of [`store`]: WAL segment shipping
//!   behind a checksummed manifest, verified [`Follower`](replica::Follower)
//!   replay, divergence detection, and fenced primary failover via
//!   [`promote`](replica::Follower::promote);
//! * [`obs`] — unified observability: one [`Obs`](obs::Obs) sink of named
//!   counters, gauges, and log-scale latency histograms plus a bounded
//!   flight recorder of engine/store/live/replica events, snapshot-readable
//!   via [`MetricsSnapshot`](obs::MetricsSnapshot) (see the `cpdb_stat`
//!   binary);
//! * [`genfunc`] — polynomial / generating-function engine;
//! * [`model`] — probabilistic relation models and possible-world semantics;
//! * [`andxor`] — the probabilistic and/xor tree (including the single-sweep
//!   batch evaluator behind the engine's artifact builds);
//! * [`parallel`] — minimal fork-join helpers;
//! * [`assignment`] — Hungarian algorithm and min-cost flow;
//! * [`rankagg`] — Top-k list types and their distance metrics;
//! * [`consensus`] — the consensus-answer algorithms themselves;
//! * [`workloads`] — seeded synthetic instance generators.
//!
//! ## Quickstart
//!
//! Every consensus notion of the paper is a [`Query`](engine::Query) answered
//! by one engine; batches share the cached rank-probability PMFs and
//! co-clustering weights:
//!
//! ```
//! use consensus_pdb::prelude::*;
//!
//! // A small probabilistic relation: four independent tuples with scores.
//! let db = TupleIndependentDb::from_triples(&[
//!     (1, 95.0, 0.4),   // (key, score, probability)
//!     (2, 90.0, 0.9),
//!     (3, 85.0, 0.7),
//!     (4, 80.0, 0.85),
//! ]).unwrap();
//! let tree = consensus_pdb::andxor::convert::from_tuple_independent(&db).unwrap();
//!
//! let engine = ConsensusEngineBuilder::new(tree).seed(2009).build().unwrap();
//!
//! // Consensus Top-2 answer under the symmetric-difference metric.
//! let answer = engine.run(&Query::TopK {
//!     k: 2,
//!     metric: TopKMetric::SymmetricDifference,
//!     variant: Variant::Mean,
//! }).unwrap();
//! let list = answer.value.as_topk().unwrap();
//! assert_eq!(list.len(), 2);
//! assert!(list.contains(2));
//! assert_eq!(answer.optimality, Optimality::Exact);
//!
//! // The same engine serves the consensus world, too.
//! let world = engine.run(&Query::SetConsensus {
//!     metric: SetMetric::SymmetricDifference,
//!     variant: Variant::Mean,
//! }).unwrap();
//! println!("consensus world: {world}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cpdb_andxor as andxor;
pub use cpdb_assignment as assignment;
pub use cpdb_consensus as consensus;
pub use cpdb_engine as engine;
pub use cpdb_genfunc as genfunc;
pub use cpdb_live as live;
pub use cpdb_model as model;
pub use cpdb_obs as obs;
pub use cpdb_parallel as parallel;
pub use cpdb_rankagg as rankagg;
pub use cpdb_replica as replica;
pub use cpdb_store as store;
pub use cpdb_workloads as workloads;

/// The most commonly used types and functions, re-exported for convenience.
pub mod prelude {
    pub use cpdb_andxor::{AndXorTree, AndXorTreeBuilder, NodeKind, VarAssignment};
    pub use cpdb_consensus::aggregate::GroupByInstance;
    pub use cpdb_consensus::clustering::CoClusteringWeights;
    pub use cpdb_consensus::TopKContext;
    pub use cpdb_engine::{
        Answer, BaselineKind, ConsensusEngine, ConsensusEngineBuilder, EngineError, Optimality,
        Query, SetMetric, TopKMetric, Value, Variant,
    };
    pub use cpdb_genfunc::{Poly1, Poly2, Truncation};
    pub use cpdb_live::{AppliedDelta, LiveEngine, Snapshot, TreeDelta};
    pub use cpdb_model::{
        Alternative, AttrValue, BidBlock, BidDb, PossibleWorld, TupleIndependentDb, TupleKey,
        WorldModel, WorldSet, XTuple, XTupleDb,
    };
    pub use cpdb_rankagg::TopKList;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_re_exports_are_usable() {
        let db = TupleIndependentDb::from_triples(&[(1, 10.0, 0.9)]).unwrap();
        let tree = crate::andxor::convert::from_tuple_independent(&db).unwrap();
        let ctx = TopKContext::new(&tree, 1);
        let row = ctx.row_of(TupleKey(1)).unwrap();
        assert!((row.in_topk() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn engine_is_reachable_through_the_prelude() {
        let db = TupleIndependentDb::from_triples(&[(1, 10.0, 0.9), (2, 5.0, 0.4)]).unwrap();
        let tree = crate::andxor::convert::from_tuple_independent(&db).unwrap();
        let engine = ConsensusEngineBuilder::new(tree).build().unwrap();
        let answer = engine
            .run(&Query::TopK {
                k: 1,
                metric: TopKMetric::SymmetricDifference,
                variant: Variant::Mean,
            })
            .unwrap();
        assert_eq!(answer.value.as_topk().unwrap().items(), &[1]);
    }
}
