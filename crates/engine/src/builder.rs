//! Builder-pattern construction of [`ConsensusEngine`] with typed errors.

use crate::engine::ConsensusEngine;
use crate::error::EngineError;
use cpdb_andxor::AndXorTree;
use cpdb_consensus::aggregate::GroupByInstance;
use cpdb_obs::Obs;
use std::ops::RangeInclusive;

/// Builds a [`ConsensusEngine`] from an [`AndXorTree`] plus tuning knobs,
/// validating the configuration with typed errors.
///
/// ```
/// use cpdb_engine::ConsensusEngineBuilder;
/// # use cpdb_andxor::AndXorTreeBuilder;
/// # let mut b = AndXorTreeBuilder::new();
/// # let l = b.leaf_parts(1, 10.0);
/// # let x = b.xor_node(vec![(l, 0.8)]);
/// # let root = b.and_node(vec![x]);
/// # let tree = b.build(root).unwrap();
/// let engine = ConsensusEngineBuilder::new(tree)
///     .seed(2009)
///     .k_range(1..=1)
///     .build()
///     .unwrap();
/// # let _ = engine;
/// ```
#[derive(Debug, Clone)]
pub struct ConsensusEngineBuilder {
    tree: AndXorTree,
    seed: u64,
    k_range: Option<(usize, usize)>,
    groupby: Option<GroupByInstance>,
    threads: usize,
    obs: Obs,
}

impl ConsensusEngineBuilder {
    /// Starts a builder for the given and/xor tree with default knobs:
    /// seed 0, k-range `1..=n` (the number of distinct tuple keys), no
    /// group-by instance, an automatic thread count and a disabled
    /// observability sink. Each Top-k metric has one algorithm (see
    /// [`crate::TopKMetric`]), so there is no solver to choose.
    #[must_use = "builder methods return the updated builder"]
    pub fn new(tree: AndXorTree) -> Self {
        ConsensusEngineBuilder {
            tree,
            seed: 0,
            k_range: None,
            groupby: None,
            threads: 0,
            obs: Obs::disabled(),
        }
    }

    /// Seed for every randomised path (clustering restarts, sampled
    /// baselines). Each query derives its own deterministic RNG
    /// stream from this seed and its [`crate::Query::rng_tag`], so answers do
    /// not depend on batch order.
    #[must_use = "builder methods return the updated builder"]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Admissible `k` values for Top-k and baseline queries. Defaults to
    /// `1..=n`. Queries outside the range fail with
    /// [`EngineError::KOutOfRange`] instead of silently clamping.
    #[must_use = "builder methods return the updated builder"]
    pub fn k_range(mut self, range: RangeInclusive<usize>) -> Self {
        self.k_range = Some((*range.start(), *range.end()));
        self
    }

    /// Ignored: Kendall answers report their `E[d_K]` exactly, so there is
    /// no sample count to set. Kept for callers that still pass one.
    #[deprecated(note = "Kendall expected distances are exact; the sample count is ignored")]
    #[must_use = "builder methods return the updated builder"]
    pub fn kendall_distance_samples(self, _samples: usize) -> Self {
        self
    }

    /// Attaches a group-by instance so [`crate::Query::Aggregate`] queries
    /// can be served (§6.1 works on the probability matrix, not the tree).
    #[must_use = "builder methods return the updated builder"]
    pub fn groupby(mut self, instance: GroupByInstance) -> Self {
        self.groupby = Some(instance);
        self
    }

    /// Thread count used both by the pairwise artifact *build* (the
    /// co-clustering weights, a `cpdb_parallel` fork-join over pairs) and by [`crate::ConsensusEngine::run_batch`]'s query
    /// *dispatch* (the deduplicated queries fan out across worker threads).
    /// `0` (the default) means "auto": the machine's available parallelism.
    /// Answers never depend on this knob — the batch evaluators and
    /// per-query RNG streams are bit-identical at any thread count; only
    /// latency changes.
    #[must_use = "builder methods return the updated builder"]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches an observability sink: per-query-kind and per-artifact
    /// latency histograms plus query/artifact flight-recorder events. The
    /// default is a disabled sink, which costs one branch per record site.
    /// Purely additive — answers are bit-identical with any sink attached.
    #[must_use = "builder methods return the updated builder"]
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Validates the configuration and builds the engine. Every knob
    /// violation is a typed [`EngineError::InvalidConfig`] — construction
    /// never panics on bad configuration.
    pub fn build(self) -> Result<ConsensusEngine, EngineError> {
        let n = self.tree.keys().len();
        let (lo, hi) = self.k_range.unwrap_or((1, n.max(1)));
        if lo == 0 || lo > hi {
            return Err(EngineError::InvalidConfig {
                context: format!("k-range [{lo}, {hi}] must satisfy 1 <= lo <= hi"),
            });
        }
        if lo > n {
            return Err(EngineError::InvalidConfig {
                context: format!(
                    "k-range [{lo}, {hi}] lies entirely above the {n} tuple keys; \
                     no Top-k query could ever be served"
                ),
            });
        }
        Ok(ConsensusEngine::from_parts(
            self.tree,
            self.seed,
            (lo, hi),
            self.groupby,
            self.threads,
            self.obs,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpdb_andxor::AndXorTreeBuilder;

    fn tiny_tree() -> AndXorTree {
        let mut b = AndXorTreeBuilder::new();
        let l1 = b.leaf_parts(1, 10.0);
        let x1 = b.xor_node(vec![(l1, 0.8)]);
        let l2 = b.leaf_parts(2, 20.0);
        let x2 = b.xor_node(vec![(l2, 0.4)]);
        let root = b.and_node(vec![x1, x2]);
        b.build(root).unwrap()
    }

    #[test]
    fn default_k_range_covers_the_tree() {
        let engine = ConsensusEngineBuilder::new(tiny_tree()).build().unwrap();
        assert_eq!(engine.k_range(), 1..=2);
    }

    #[test]
    fn k_range_above_the_tree_is_rejected() {
        assert!(matches!(
            ConsensusEngineBuilder::new(tiny_tree())
                .k_range(5..=9)
                .build(),
            Err(EngineError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn invalid_knobs_are_typed_errors() {
        assert!(matches!(
            ConsensusEngineBuilder::new(tiny_tree())
                .k_range(0..=2)
                .build(),
            Err(EngineError::InvalidConfig { .. })
        ));
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = ConsensusEngineBuilder::new(tiny_tree())
            .k_range(3..=1)
            .build();
        assert!(matches!(reversed, Err(EngineError::InvalidConfig { .. })));
    }
}
