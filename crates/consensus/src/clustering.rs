//! Consensus clustering over probabilistic databases (§6.2).
//!
//! Two tuples are clustered together in a possible world when they take the
//! same value for the (uncertain) attribute `A`; keys absent from a world
//! form one artificial cluster. The consensus clustering minimises the
//! expected number of pairwise disagreements with the random world's
//! clustering, and — as in Ailon, Charikar & Newman's CONSENSUS-CLUSTERING —
//! the only statistics needed are the pairwise co-clustering probabilities
//! `w_{ij}`, which the generating-function engine computes exactly:
//! `w_{ij} = Σ_a Pr(i.A = a ∧ j.A = a) + Pr(i absent ∧ j absent)`.
//!
//! The pivot (KwikCluster) algorithm gives a constant-factor approximation;
//! a brute-force optimiser over set partitions provides ground truth on
//! small instances.

use cpdb_andxor::AndXorTree;
use cpdb_genfunc::Truncation;
use cpdb_model::TupleKey;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;

/// A clustering of tuple keys: each inner vector is one cluster.
pub type Clustering = Vec<Vec<TupleKey>>;

/// Pairwise co-clustering probabilities `w_{ij}` for a set of tuples.
#[derive(Debug, Clone)]
pub struct CoClusteringWeights {
    keys: Vec<TupleKey>,
    /// Row (and column) of each key in `weights`.
    index: HashMap<TupleKey, usize>,
    /// Row-major symmetric `keys.len() × keys.len()` matrix.
    weights: Vec<f64>,
}

impl CoClusteringWeights {
    /// Computes the exact co-clustering probabilities from an and/xor tree,
    /// including the "both absent" artificial cluster of the paper. Uses the
    /// batch evaluator ([`AndXorTree::batch_cocluster_weights`]) — one shared
    /// root-path extraction instead of one generating-function sweep per pair
    /// — with an automatic thread count (`CPDB_THREADS`, then machine
    /// parallelism).
    pub fn from_tree(tree: &AndXorTree) -> Self {
        Self::from_tree_with_parallelism(tree, 0)
    }

    /// [`CoClusteringWeights::from_tree`] with an explicit thread count
    /// (`0` = auto). The batch evaluator is bit-identical at any thread
    /// count.
    pub fn from_tree_with_parallelism(tree: &AndXorTree, threads: usize) -> Self {
        let keys = tree.keys();
        let matrix = tree.batch_cocluster_weights(&keys, threads);
        Self::from_matrix(keys, matrix)
    }

    /// Wraps a symmetric row-major matrix over `keys` — the shared back end
    /// of every constructor.
    fn from_matrix(keys: Vec<TupleKey>, weights: Vec<f64>) -> Self {
        let index = keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        CoClusteringWeights {
            keys,
            index,
            weights,
        }
    }

    /// The per-pair reference construction (one generating-function sweep per
    /// pair), kept as the conformance baseline for the batch path and as the
    /// legacy side of the `rank_artifacts` benchmark.
    pub fn from_tree_per_pair(tree: &AndXorTree) -> Self {
        let keys = tree.keys();
        let n = keys.len();
        let mut weights = vec![0.0; n * n];
        for (idx, &i) in keys.iter().enumerate() {
            for (jdx, &j) in keys.iter().enumerate().skip(idx + 1) {
                let same_value = tree.cluster_weight(i, j);
                // Pr(both absent): assign x to every leaf of either key; the
                // coefficient of x^0 is the probability neither appears.
                let both_absent = tree
                    .genfunc1(Truncation::Degree(0), |a| a.key == i || a.key == j)
                    .coeff(0);
                let w = (same_value + both_absent).clamp(0.0, 1.0);
                weights[idx * n + jdx] = w;
                weights[jdx * n + idx] = w;
            }
        }
        Self::from_matrix(keys, weights)
    }

    /// The **patch path** of [`CoClusteringWeights::from_tree`] for live
    /// updates: rebuilds only the pairs with an `affected` key on the
    /// mutated tree (via [`AndXorTree::batch_cocluster_weights_partial`],
    /// the same per-pair closed form as the full batch build) and copies
    /// every other pair's weight from `self`, the pre-mutation matrix. When
    /// the mutation's [`cpdb_andxor::DeltaImpact`] certifies that only
    /// `affected` keys were touched, the result is **bit-identical** to a
    /// from-scratch build on the mutated tree, at `O(|affected|·n)` pair
    /// evaluations instead of `O(n²)`.
    pub fn patched(
        &self,
        tree: &AndXorTree,
        affected: &std::collections::BTreeSet<TupleKey>,
        threads: usize,
    ) -> Self {
        let keys = tree.keys();
        let recompute: Vec<bool> = keys.iter().map(|k| affected.contains(k)).collect();
        // Old entries are read by matrix position, not looked up per pair.
        let old_pos: Vec<Option<usize>> = keys.iter().map(|k| self.index.get(k).copied()).collect();
        let old_n = self.keys.len();
        let matrix = tree.batch_cocluster_weights_partial(
            &keys,
            &recompute,
            |i, j| match (old_pos[i], old_pos[j]) {
                (Some(a), Some(b)) => self.weights[a * old_n + b],
                _ => 0.0,
            },
            threads,
        );
        Self::from_matrix(keys, matrix)
    }

    /// Weights from a symmetric row-major `keys.len() × keys.len()` matrix,
    /// taken as is. `None` when the matrix has the wrong size.
    pub fn from_row_major(keys: Vec<TupleKey>, weights: Vec<f64>) -> Option<Self> {
        (weights.len() == keys.len() * keys.len()).then(|| Self::from_matrix(keys, weights))
    }

    /// Builds weights directly from a map (for tests and other models). Only
    /// pairs present in the map are considered co-clustered with non-zero
    /// probability; pairs with a key outside `keys` are ignored.
    pub fn from_map(keys: Vec<TupleKey>, weights: HashMap<(TupleKey, TupleKey), f64>) -> Self {
        let n = keys.len();
        let mut out = Self::from_matrix(keys, vec![0.0; n * n]);
        for ((i, j), w) in weights {
            if let (Some(&a), Some(&b)) = (out.index.get(&i), out.index.get(&j)) {
                out.weights[a * n + b] = w;
                out.weights[b * n + a] = w;
            }
        }
        out
    }

    /// The tuple keys being clustered.
    pub fn keys(&self) -> &[TupleKey] {
        &self.keys
    }

    /// `w_{ij}` — the probability that `i` and `j` are clustered together in
    /// the random world.
    pub fn weight(&self, i: TupleKey, j: TupleKey) -> f64 {
        if i == j {
            return 1.0;
        }
        match (self.index.get(&i), self.index.get(&j)) {
            (Some(&a), Some(&b)) => self.weights[a * self.keys.len() + b],
            _ => 0.0,
        }
    }

    /// The upper-triangle pairs `(i, j, w_{ij})`, `i` before `j` in
    /// [`keys`](Self::keys) order — the snapshot layout.
    pub fn pairs(&self) -> impl Iterator<Item = (TupleKey, TupleKey, f64)> + '_ {
        let n = self.keys.len();
        self.keys.iter().enumerate().flat_map(move |(idx, &i)| {
            self.keys
                .iter()
                .enumerate()
                .skip(idx + 1)
                .map(move |(jdx, &j)| (i, j, self.weights[idx * n + jdx]))
        })
    }

    /// The expected pairwise-disagreement distance `E[d(C, C_pw)]` of a
    /// candidate clustering: pairs placed together cost `1 − w_{ij}`, pairs
    /// separated cost `w_{ij}`.
    pub fn expected_distance(&self, clustering: &Clustering) -> f64 {
        let mut cluster_of: HashMap<TupleKey, usize> = HashMap::new();
        for (c, members) in clustering.iter().enumerate() {
            for &t in members {
                cluster_of.insert(t, c);
            }
        }
        // Per position of `keys`: the candidate cluster (`None` when the
        // candidate leaves the key out) and the key's row of `weights`, so
        // the O(n²) pair loop does no hashing.
        let cluster: Vec<Option<usize>> = self
            .keys
            .iter()
            .map(|k| cluster_of.get(k).copied())
            .collect();
        let row: Vec<usize> = self.keys.iter().map(|k| self.index[k]).collect();
        let n = self.keys.len();
        let mut total = 0.0;
        for idx in 0..n {
            for jdx in idx + 1..n {
                let together = cluster[idx].is_some() && cluster[idx] == cluster[jdx];
                // Same as `self.weight(keys[idx], keys[jdx])`.
                let w = if self.keys[idx] == self.keys[jdx] {
                    1.0
                } else {
                    self.weights[row[idx] * n + row[jdx]]
                };
                total += if together { 1.0 - w } else { w };
            }
        }
        total
    }
}

/// KwikCluster / pivot consensus clustering: repeatedly pick a random pivot,
/// put every unclustered tuple with co-clustering probability ≥ ½ into the
/// pivot's cluster, and recurse on the rest. Expected constant-factor
/// approximation of the optimal consensus clustering.
pub fn pivot_clustering<R: Rng + ?Sized>(weights: &CoClusteringWeights, rng: &mut R) -> Clustering {
    let mut remaining: Vec<TupleKey> = weights.keys().to_vec();
    remaining.shuffle(rng);
    let mut clusters = Vec::new();
    while let Some(pivot) = remaining.pop() {
        let mut cluster = vec![pivot];
        let mut rest = Vec::with_capacity(remaining.len());
        for &t in &remaining {
            if weights.weight(pivot, t) >= 0.5 {
                cluster.push(t);
            } else {
                rest.push(t);
            }
        }
        remaining = rest;
        clusters.push(cluster);
    }
    clusters
}

/// Runs [`pivot_clustering`] `trials` times plus the singleton and the
/// all-in-one clusterings, returning the candidate with the smallest expected
/// distance.
pub fn pivot_clustering_best_of<R: Rng + ?Sized>(
    weights: &CoClusteringWeights,
    trials: usize,
    rng: &mut R,
) -> (Clustering, f64) {
    let singletons: Clustering = weights.keys().iter().map(|&t| vec![t]).collect();
    let everything: Clustering = vec![weights.keys().to_vec()];
    let mut best = singletons;
    let mut best_cost = weights.expected_distance(&best);
    let all_cost = weights.expected_distance(&everything);
    if all_cost < best_cost {
        best = everything;
        best_cost = all_cost;
    }
    for _ in 0..trials {
        let candidate = pivot_clustering(weights, rng);
        let cost = weights.expected_distance(&candidate);
        if cost < best_cost {
            best_cost = cost;
            best = candidate;
        }
    }
    (best, best_cost)
}

/// Brute-force optimal consensus clustering by enumerating every set
/// partition of the keys (Bell-number many; limited to 10 keys).
pub fn brute_force_clustering(weights: &CoClusteringWeights) -> (Clustering, f64) {
    let keys = weights.keys().to_vec();
    assert!(
        keys.len() <= 10,
        "brute-force consensus clustering limited to 10 tuples"
    );
    let mut assignment = vec![0usize; keys.len()];
    let mut best: Option<(Clustering, f64)> = None;
    enumerate_partitions(&keys, 0, 0, &mut assignment, &mut |labels| {
        let num_clusters = labels.iter().copied().max().map_or(0, |m| m + 1);
        let mut clustering: Clustering = vec![Vec::new(); num_clusters];
        for (idx, &label) in labels.iter().enumerate() {
            clustering[label].push(keys[idx]);
        }
        let cost = weights.expected_distance(&clustering);
        if best.as_ref().is_none_or(|(_, b)| cost < *b) {
            best = Some((clustering, cost));
        }
    });
    best.expect("at least the singleton partition exists")
}

fn enumerate_partitions<F: FnMut(&[usize])>(
    keys: &[TupleKey],
    idx: usize,
    max_label: usize,
    assignment: &mut Vec<usize>,
    visit: &mut F,
) {
    if idx == keys.len() {
        visit(assignment);
        return;
    }
    for label in 0..=max_label {
        assignment[idx] = label;
        let next_max = if label == max_label {
            max_label + 1
        } else {
            max_label
        };
        enumerate_partitions(keys, idx + 1, next_max, assignment, visit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpdb_andxor::AndXorTreeBuilder;
    use cpdb_model::{PossibleWorld, WorldModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Attribute-uncertain relation: each tuple takes one of a few values.
    fn attribute_tree() -> AndXorTree {
        let mut b = AndXorTreeBuilder::new();
        let mut xors = Vec::new();
        // Tuples 1 and 2 usually share value 10; tuple 3 usually takes 20.
        for (key, options) in [
            (1u64, vec![(10.0, 0.8), (20.0, 0.2)]),
            (2u64, vec![(10.0, 0.7), (20.0, 0.3)]),
            (3u64, vec![(10.0, 0.1), (20.0, 0.9)]),
        ] {
            let edges: Vec<_> = options
                .iter()
                .map(|&(v, p)| {
                    let l = b.leaf_parts(key, v);
                    (l, p)
                })
                .collect();
            xors.push(b.xor_node(edges));
        }
        let root = b.and_node(xors);
        b.build(root).unwrap()
    }

    fn world_clustering_distance(
        w: &PossibleWorld,
        clustering: &Clustering,
        keys: &[TupleKey],
    ) -> f64 {
        let mut cluster_of: HashMap<TupleKey, usize> = HashMap::new();
        for (c, members) in clustering.iter().enumerate() {
            for &t in members {
                cluster_of.insert(t, c);
            }
        }
        let mut total = 0.0;
        for (idx, &i) in keys.iter().enumerate() {
            for &j in keys.iter().skip(idx + 1) {
                // In the world: together iff same value, or both absent.
                let together_world = match (w.value_of(i), w.value_of(j)) {
                    (Some(a), Some(b)) => a == b,
                    (None, None) => true,
                    _ => false,
                };
                let together_candidate = cluster_of.get(&i) == cluster_of.get(&j);
                if together_world != together_candidate {
                    total += 1.0;
                }
            }
        }
        total
    }

    #[test]
    fn batch_weights_match_the_per_pair_reference() {
        let tree = attribute_tree();
        let batch = CoClusteringWeights::from_tree(&tree);
        let reference = CoClusteringWeights::from_tree_per_pair(&tree);
        for (idx, &i) in batch.keys().iter().enumerate() {
            for &j in batch.keys().iter().skip(idx + 1) {
                assert!(
                    (batch.weight(i, j) - reference.weight(i, j)).abs() < 1e-12,
                    "w({i:?},{j:?}): batch {} vs per-pair {}",
                    batch.weight(i, j),
                    reference.weight(i, j)
                );
            }
        }
    }

    #[test]
    fn weights_match_enumeration() {
        let tree = attribute_tree();
        let weights = CoClusteringWeights::from_tree(&tree);
        let ws = tree.enumerate_worlds();
        for (idx, &i) in weights.keys().iter().enumerate() {
            for &j in weights.keys().iter().skip(idx + 1) {
                let expected = ws.expectation(|w| match (w.value_of(i), w.value_of(j)) {
                    (Some(a), Some(b)) => f64::from(a == b),
                    (None, None) => 1.0,
                    _ => 0.0,
                });
                assert!(
                    (weights.weight(i, j) - expected).abs() < 1e-9,
                    "w({i:?},{j:?}) = {} vs enumeration {expected}",
                    weights.weight(i, j)
                );
            }
        }
    }

    #[test]
    fn expected_distance_matches_enumeration() {
        let tree = attribute_tree();
        let weights = CoClusteringWeights::from_tree(&tree);
        let ws = tree.enumerate_worlds();
        let keys = tree.keys();
        let candidates: Vec<Clustering> = vec![
            vec![vec![TupleKey(1), TupleKey(2)], vec![TupleKey(3)]],
            vec![vec![TupleKey(1)], vec![TupleKey(2)], vec![TupleKey(3)]],
            vec![vec![TupleKey(1), TupleKey(2), TupleKey(3)]],
        ];
        for cand in &candidates {
            let formula = weights.expected_distance(cand);
            let brute = ws.expectation(|w| world_clustering_distance(w, cand, &keys));
            assert!(
                (formula - brute).abs() < 1e-9,
                "candidate {cand:?}: formula {formula} vs enumeration {brute}"
            );
        }
    }

    #[test]
    fn pivot_close_to_brute_force_on_small_instances() {
        let tree = attribute_tree();
        let weights = CoClusteringWeights::from_tree(&tree);
        let mut rng = StdRng::seed_from_u64(9);
        let (_, pivot_cost) = pivot_clustering_best_of(&weights, 16, &mut rng);
        let (_, opt_cost) = brute_force_clustering(&weights);
        assert!(pivot_cost + 1e-9 >= opt_cost);
        assert!(
            pivot_cost <= 2.0 * opt_cost + 1e-9,
            "pivot {pivot_cost} vs optimal {opt_cost}"
        );
    }

    #[test]
    fn pivot_groups_strongly_correlated_tuples() {
        let tree = attribute_tree();
        let weights = CoClusteringWeights::from_tree(&tree);
        let mut rng = StdRng::seed_from_u64(3);
        let (best, _) = pivot_clustering_best_of(&weights, 16, &mut rng);
        // Tuples 1 and 2 should land in the same cluster, 3 elsewhere.
        let cluster_of = |t: TupleKey| best.iter().position(|c| c.contains(&t)).unwrap();
        assert_eq!(cluster_of(TupleKey(1)), cluster_of(TupleKey(2)));
        assert_ne!(cluster_of(TupleKey(1)), cluster_of(TupleKey(3)));
    }

    #[test]
    fn brute_force_enumerates_all_partitions_of_three() {
        // Weight structure where the optimum is the all-singletons partition.
        let keys = vec![TupleKey(1), TupleKey(2), TupleKey(3)];
        let weights = CoClusteringWeights::from_map(keys, HashMap::new());
        let (best, cost) = brute_force_clustering(&weights);
        assert_eq!(best.len(), 3);
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn self_weight_is_one_and_unknown_pairs_zero() {
        let weights = CoClusteringWeights::from_map(vec![TupleKey(1), TupleKey(2)], HashMap::new());
        assert_eq!(weights.weight(TupleKey(1), TupleKey(1)), 1.0);
        assert_eq!(weights.weight(TupleKey(1), TupleKey(2)), 0.0);
    }
}
