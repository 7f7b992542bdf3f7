//! Legacy-vs-batch artifact builds: the `rank` suite of the `ledger` driver.
//!
//! "Legacy" is the pre-batch cold-build path: one generating-function sweep
//! per key for the rank-PMF table, one per ordered pair for the Kendall
//! tournament, one per pair for the co-clustering weights. "Batch" is the
//! single-sweep evaluator of `cpdb_andxor::batch` the engine now routes
//! through.

use crate::sample::{time_ms, Sample};
use cpdb_andxor::AndXorTree;
use cpdb_consensus::clustering::CoClusteringWeights;
use cpdb_model::TupleKey;
use cpdb_workloads::{random_clustering_tree, ClusteringConfig};
use std::collections::HashMap;

/// The scored-BID workload both rank-table and tournament measurements run
/// on (`n` blocks × 2 alternatives, the `scaling_tree` family).
pub fn rank_workload(n: usize, seed: u64) -> AndXorTree {
    crate::experiments::scaling_tree(n, seed)
}

/// The attribute-uncertainty workload the co-clustering measurement runs on
/// (shared values across keys, so same-value co-occurrences actually occur).
pub fn clustering_workload(n: usize, seed: u64) -> AndXorTree {
    random_clustering_tree(&ClusteringConfig {
        num_tuples: n,
        num_values: 8,
        cohesion: 0.7,
        absence: 0.1,
        seed,
    })
}

/// Legacy rank-PMF table: one per-tuple generating-function sweep per key
/// (what `TopKContext::new` did before the batch evaluator).
pub fn legacy_rank_table(tree: &AndXorTree, k: usize) -> HashMap<TupleKey, Vec<f64>> {
    tree.keys()
        .into_iter()
        .map(|key| (key, tree.rank_pmf(key, k)))
        .collect()
}

/// Batch rank-PMF table ([`AndXorTree::batch_rank_pmfs`]).
pub fn batch_rank_table(
    tree: &AndXorTree,
    k: usize,
    threads: usize,
) -> HashMap<TupleKey, Vec<f64>> {
    tree.batch_rank_pmfs(k, threads)
}

/// Legacy Kendall tournament: two generating-function sweeps per ordered
/// pair (what `preference_matrix` did before the batch evaluator). Row-major
/// over `keys`.
pub fn legacy_tournament(tree: &AndXorTree, keys: &[TupleKey]) -> Vec<f64> {
    let n = keys.len();
    let mut out = vec![0.0; n * n];
    for (i, &a) in keys.iter().enumerate() {
        for (j, &b) in keys.iter().enumerate() {
            if i != j {
                out[i * n + j] = tree.pairwise_order_probability(a, b);
            }
        }
    }
    out
}

/// Batch Kendall tournament ([`AndXorTree::batch_pairwise_order`]).
pub fn batch_tournament(tree: &AndXorTree, keys: &[TupleKey], threads: usize) -> Vec<f64> {
    tree.batch_pairwise_order(keys, threads)
}

/// Legacy co-clustering weights: one generating-function sweep per pair.
pub fn legacy_cocluster(tree: &AndXorTree) -> CoClusteringWeights {
    CoClusteringWeights::from_tree_per_pair(tree)
}

/// Batch co-clustering weights.
pub fn batch_cocluster(tree: &AndXorTree, threads: usize) -> CoClusteringWeights {
    CoClusteringWeights::from_tree_with_parallelism(tree, threads)
}

/// Largest absolute difference between two rank tables over all keys/ranks.
pub fn rank_table_max_diff(
    a: &HashMap<TupleKey, Vec<f64>>,
    b: &HashMap<TupleKey, Vec<f64>>,
) -> f64 {
    let mut max = 0.0f64;
    for (key, pa) in a {
        let pb = &b[key];
        for (x, y) in pa.iter().zip(pb) {
            max = max.max((x - y).abs());
        }
    }
    max
}

/// Largest absolute difference between two row-major matrices.
pub fn matrix_max_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Largest absolute difference between two co-clustering weight sets.
pub fn cocluster_max_diff(a: &CoClusteringWeights, b: &CoClusteringWeights) -> f64 {
    let keys = a.keys();
    let mut max = 0.0f64;
    for (idx, &i) in keys.iter().enumerate() {
        for &j in keys.iter().skip(idx + 1) {
            max = max.max((a.weight(i, j) - b.weight(i, j)).abs());
        }
    }
    max
}

/// One artifact family's cold builds: legacy, batch on one thread, and
/// batch on `threads`, with how far the batch result strays from legacy.
pub struct Comparison {
    /// Artifact family label.
    pub name: &'static str,
    /// Legacy per-tuple / per-pair cold build.
    pub legacy_ms: Sample,
    /// Batch cold build on one thread.
    pub batch_single_ms: Sample,
    /// Batch cold build on the parallel thread count.
    pub batch_parallel_ms: Sample,
    /// Largest absolute difference between the batch and legacy results.
    pub max_abs_diff: f64,
}

impl Comparison {
    /// `legacy / batch(1)` on the best-of timings — the gated speedup.
    pub fn speedup_single(&self) -> f64 {
        self.legacy_ms.best() / self.batch_single_ms.best()
    }
}

/// Times the three cold builds (rank-PMF table at `k`, Kendall tournament,
/// co-clustering weights) legacy vs batch on `n`-block workloads, `reps`
/// runs each, the parallel batch on `threads` threads.
pub fn measure_cold_builds(
    n: usize,
    k: usize,
    seed: u64,
    reps: usize,
    threads: usize,
) -> Vec<Comparison> {
    let tree = rank_workload(n, seed);
    let keys = tree.keys();
    let ctree = clustering_workload(n, seed);
    // Each literal evaluates its agreement check first: that untimed run
    // warms the tree's shared caches before any timed one.
    vec![
        Comparison {
            name: "rank_pmf_table",
            max_abs_diff: rank_table_max_diff(
                &legacy_rank_table(&tree, k),
                &batch_rank_table(&tree, k, 1),
            ),
            legacy_ms: time_ms(reps, || legacy_rank_table(&tree, k)),
            batch_single_ms: time_ms(reps, || batch_rank_table(&tree, k, 1)),
            batch_parallel_ms: time_ms(reps, || batch_rank_table(&tree, k, threads)),
        },
        Comparison {
            name: "kendall_tournament",
            max_abs_diff: matrix_max_diff(
                &legacy_tournament(&tree, &keys),
                &batch_tournament(&tree, &keys, 1),
            ),
            legacy_ms: time_ms(reps, || legacy_tournament(&tree, &keys)),
            batch_single_ms: time_ms(reps, || batch_tournament(&tree, &keys, 1)),
            batch_parallel_ms: time_ms(reps, || batch_tournament(&tree, &keys, threads)),
        },
        Comparison {
            name: "coclustering_weights",
            max_abs_diff: cocluster_max_diff(
                &legacy_cocluster(&ctree),
                &batch_cocluster(&ctree, 1),
            ),
            legacy_ms: time_ms(reps, || legacy_cocluster(&ctree)),
            batch_single_ms: time_ms(reps, || batch_cocluster(&ctree, 1)),
            batch_parallel_ms: time_ms(reps, || batch_cocluster(&ctree, threads)),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_and_batch_artifacts_agree_on_a_small_workload() {
        let tree = rank_workload(24, 11);
        let keys = tree.keys();
        assert!(
            rank_table_max_diff(&legacy_rank_table(&tree, 5), &batch_rank_table(&tree, 5, 1))
                < 1e-12
        );
        assert!(
            matrix_max_diff(
                &legacy_tournament(&tree, &keys),
                &batch_tournament(&tree, &keys, 1)
            ) < 1e-12
        );
        let ctree = clustering_workload(16, 11);
        assert!(cocluster_max_diff(&legacy_cocluster(&ctree), &batch_cocluster(&ctree, 1)) < 1e-12);
    }
}
