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
//! [`CoClusteringWeights`] stores `w` as one strict upper triangle over the
//! sorted tuple keys (the matrix is symmetric with a unit diagonal), the
//! same layout the batch evaluator builds, the live patch path rewrites and
//! the snapshot persists. The pivot (KwikCluster) algorithm gives a
//! constant-factor approximation; it and its cost run on key *positions*
//! and per-position cluster labels, and only the winning candidate is
//! mapped back to keys. A brute-force optimiser over set partitions
//! provides ground truth on small instances.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use cpdb_andxor::batch::upper_triangle_index;
use cpdb_andxor::AndXorTree;
use cpdb_model::TupleKey;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{BTreeSet, HashMap};

/// A clustering of tuple keys: each inner vector is one cluster.
pub type Clustering = Vec<Vec<TupleKey>>;

/// The label of a key a candidate clustering leaves out: it is together
/// with no other key.
const UNLABELLED: usize = usize::MAX;

/// Pairwise co-clustering probabilities `w_{ij}` for a set of tuples.
#[derive(Debug, Clone)]
pub struct CoClusteringWeights {
    /// The clustered tuple keys, strictly increasing.
    keys: Vec<TupleKey>,
    /// `w(keys[i], keys[j])` for `i < j` at [`upper_triangle_index`]`(n, i,
    /// j)`: `n(n − 1)/2` entries, row by row.
    tri: Vec<f64>,
}

impl CoClusteringWeights {
    /// Computes the exact co-clustering probabilities from an and/xor tree,
    /// including the "both absent" artificial cluster of the paper. Uses the
    /// batch evaluator ([`AndXorTree::batch_cocluster_weights`]) — one shared
    /// root-path extraction instead of one generating-function sweep per pair
    /// — on `threads` workers (`0` = the machine's parallelism). The batch
    /// evaluator is bit-identical at any thread count.
    pub fn from_tree(tree: &AndXorTree, threads: usize) -> Self {
        // `AndXorTree::keys` is sorted and deduplicated.
        let keys = tree.keys();
        let tri = tree.batch_cocluster_weights(&keys, threads);
        CoClusteringWeights { keys, tri }
    }

    /// The **patch path** of [`CoClusteringWeights::from_tree`] for live
    /// updates: rebuilds only the pairs with an `affected` key on the
    /// mutated tree (via [`AndXorTree::batch_cocluster_weights_partial`],
    /// the same per-pair closed form as the full batch build) and copies
    /// every other pair's weight from `self`, the pre-mutation triangle.
    /// When the mutation's [`cpdb_andxor::DeltaImpact`] certifies that only
    /// `affected` keys were touched, the result is **bit-identical** to a
    /// from-scratch build on the mutated tree, at `O(|affected|·n)` pair
    /// evaluations instead of `O(n²)`.
    pub fn patched(
        &self,
        tree: &AndXorTree,
        affected: &BTreeSet<TupleKey>,
        threads: usize,
    ) -> Self {
        let keys = tree.keys();
        let recompute: Vec<bool> = keys.iter().map(|k| affected.contains(k)).collect();
        // Old entries are read by triangle position, not looked up per pair.
        let old_pos: Vec<Option<usize>> = keys.iter().map(|k| self.position(*k)).collect();
        let old_n = self.keys.len();
        let tri = tree.batch_cocluster_weights_partial(
            &keys,
            &recompute,
            |i, j| match (old_pos[i], old_pos[j]) {
                // Both keys sorted in both trees, so `a < b` when `i < j`.
                (Some(a), Some(b)) => self.tri[upper_triangle_index(old_n, a, b)],
                _ => 0.0,
            },
            threads,
        );
        CoClusteringWeights { keys, tri }
    }

    /// Weights from a strict upper triangle over `keys`, taken as is (the
    /// layout of [`CoClusteringWeights::upper_triangle`]). `None` unless
    /// `keys` is strictly increasing and `tri` has `n(n − 1)/2` entries.
    pub fn from_upper_triangle(keys: Vec<TupleKey>, tri: Vec<f64>) -> Option<Self> {
        (strictly_increasing(&keys) && tri.len() == triangle_len(keys.len()))
            .then_some(CoClusteringWeights { keys, tri })
    }

    /// Builds weights directly from a map (for tests and other models). Only
    /// pairs present in the map are considered co-clustered with non-zero
    /// probability; pairs with a key outside `keys` are ignored. `None`
    /// unless `keys` is strictly increasing.
    pub fn from_map(
        keys: Vec<TupleKey>,
        weights: HashMap<(TupleKey, TupleKey), f64>,
    ) -> Option<Self> {
        let n = keys.len();
        let mut out = Self::from_upper_triangle(keys, vec![0.0; triangle_len(n)])?;
        for ((i, j), w) in weights {
            if let (Some(a), Some(b)) = (out.position(i), out.position(j)) {
                if a != b {
                    let slot = out.slot(a, b);
                    out.tri[slot] = w;
                }
            }
        }
        Some(out)
    }

    /// The tuple keys being clustered, strictly increasing.
    pub fn keys(&self) -> &[TupleKey] {
        &self.keys
    }

    /// The strict upper triangle of the weight matrix: `w` of the keys at
    /// positions `i < j` at [`upper_triangle_index`]`(n, i, j)` — the
    /// snapshot layout.
    pub fn upper_triangle(&self) -> &[f64] {
        &self.tri
    }

    /// `w_{ij}` — the probability that `i` and `j` are clustered together in
    /// the random world.
    pub fn weight(&self, i: TupleKey, j: TupleKey) -> f64 {
        if i == j {
            return 1.0;
        }
        match (self.position(i), self.position(j)) {
            (Some(a), Some(b)) => self.at(a, b),
            _ => 0.0,
        }
    }

    /// The expected pairwise-disagreement distance `E[d(C, C_pw)]` of a
    /// candidate clustering: pairs placed together cost `1 − w_{ij}`, pairs
    /// separated cost `w_{ij}`. Keys the candidate leaves out are together
    /// with no other key.
    pub fn expected_distance(&self, clustering: &Clustering) -> f64 {
        let mut label = vec![UNLABELLED; self.keys.len()];
        for (c, members) in clustering.iter().enumerate() {
            for &t in members {
                if let Some(p) = self.position(t) {
                    label[p] = c;
                }
            }
        }
        self.labelled_distance(&label)
    }

    /// The position of `key` in [`keys`](Self::keys).
    fn position(&self, key: TupleKey) -> Option<usize> {
        self.keys.binary_search(&key).ok()
    }

    /// The triangle entry of the distinct positions `a` and `b`, in either
    /// order.
    #[inline]
    fn slot(&self, a: usize, b: usize) -> usize {
        upper_triangle_index(self.keys.len(), a.min(b), a.max(b))
    }

    /// `w` of the keys at the distinct positions `a` and `b`.
    #[inline]
    fn at(&self, a: usize, b: usize) -> f64 {
        self.tri[self.slot(a, b)]
    }

    /// [`expected_distance`](Self::expected_distance) of the candidate that
    /// puts position `p` in cluster `label[p]`. Sums the pairs in triangle
    /// order — the key order — so the total does not depend on how the
    /// candidate was written down.
    fn labelled_distance(&self, label: &[usize]) -> f64 {
        let mut total = 0.0;
        let mut rows = self.tri.as_slice();
        for (idx, &li) in label.iter().enumerate() {
            let (row, rest) = rows.split_at(label.len() - idx - 1);
            rows = rest;
            for (&w, &lj) in row.iter().zip(&label[idx + 1..]) {
                let together = li != UNLABELLED && li == lj;
                total += if together { 1.0 - w } else { w };
            }
        }
        total
    }

    /// Clusters of positions as clusters of keys.
    fn to_keys(&self, clusters: &[Vec<usize>]) -> Clustering {
        clusters
            .iter()
            .map(|c| c.iter().map(|&p| self.keys[p]).collect())
            .collect()
    }
}

/// Entries of a strict upper triangle over `n` keys.
fn triangle_len(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

fn strictly_increasing(keys: &[TupleKey]) -> bool {
    keys.windows(2).all(|w| w[0] < w[1])
}

/// One KwikCluster run over positions: the clusters in the order they were
/// formed, each led by its pivot, with `label[p]` set to the cluster of
/// position `p`.
fn pivot_positions<R: Rng + ?Sized>(
    weights: &CoClusteringWeights,
    rng: &mut R,
    label: &mut [usize],
) -> Vec<Vec<usize>> {
    let mut remaining: Vec<usize> = (0..weights.keys.len()).collect();
    // `shuffle` draws by slice length only, so positions permute exactly as
    // the keys at them would.
    remaining.shuffle(rng);
    let mut rest = Vec::with_capacity(remaining.len());
    let mut clusters = Vec::new();
    while let Some(pivot) = remaining.pop() {
        let mut cluster = vec![pivot];
        rest.clear();
        for &t in &remaining {
            if weights.at(pivot, t) >= 0.5 {
                cluster.push(t);
            } else {
                rest.push(t);
            }
        }
        std::mem::swap(&mut remaining, &mut rest);
        for &p in &cluster {
            label[p] = clusters.len();
        }
        clusters.push(cluster);
    }
    clusters
}

/// KwikCluster / pivot consensus clustering: repeatedly pick a random pivot,
/// put every unclustered tuple with co-clustering probability ≥ ½ into the
/// pivot's cluster, and recurse on the rest. Expected constant-factor
/// approximation of the optimal consensus clustering.
pub fn pivot_clustering<R: Rng + ?Sized>(weights: &CoClusteringWeights, rng: &mut R) -> Clustering {
    let mut label = vec![UNLABELLED; weights.keys.len()];
    weights.to_keys(&pivot_positions(weights, rng, &mut label))
}

/// Runs [`pivot_clustering`] `trials` times plus the singleton and the
/// all-in-one clusterings, returning the candidate with the smallest expected
/// distance.
pub fn pivot_clustering_best_of<R: Rng + ?Sized>(
    weights: &CoClusteringWeights,
    trials: usize,
    rng: &mut R,
) -> (Clustering, f64) {
    let n = weights.keys.len();
    let singletons: Vec<Vec<usize>> = (0..n).map(|p| vec![p]).collect();
    let everything: Vec<Vec<usize>> = vec![(0..n).collect()];
    let mut label: Vec<usize> = (0..n).collect();
    let mut best = singletons;
    let mut best_cost = weights.labelled_distance(&label);
    label.fill(0);
    let all_cost = weights.labelled_distance(&label);
    if all_cost < best_cost {
        best = everything;
        best_cost = all_cost;
    }
    for _ in 0..trials {
        let candidate = pivot_positions(weights, rng, &mut label);
        let cost = weights.labelled_distance(&label);
        if cost < best_cost {
            best_cost = cost;
            best = candidate;
        }
    }
    (weights.to_keys(&best), best_cost)
}

/// Brute-force optimal consensus clustering by enumerating every set
/// partition of the keys (Bell-number many; limited to 10 keys). Starts
/// from the singleton partition; a later partition wins only when strictly
/// cheaper.
pub fn brute_force_clustering(weights: &CoClusteringWeights) -> (Clustering, f64) {
    let n = weights.keys.len();
    assert!(
        n <= 10,
        "brute-force consensus clustering limited to 10 tuples"
    );
    let mut best: Vec<usize> = (0..n).collect();
    let mut best_cost = weights.labelled_distance(&best);
    let mut assignment = vec![0usize; n];
    enumerate_partitions(0, 0, &mut assignment, &mut |labels| {
        let cost = weights.labelled_distance(labels);
        if cost < best_cost {
            best_cost = cost;
            best.copy_from_slice(labels);
        }
    });
    let num_clusters = best.iter().copied().max().map_or(0, |m| m + 1);
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); num_clusters];
    for (p, &label) in best.iter().enumerate() {
        clusters[label].push(p);
    }
    (weights.to_keys(&clusters), best_cost)
}

/// Visits every restricted-growth labelling of `assignment[idx..]`: each
/// set partition of the positions exactly once.
fn enumerate_partitions<F: FnMut(&[usize])>(
    idx: usize,
    max_label: usize,
    assignment: &mut Vec<usize>,
    visit: &mut F,
) {
    if idx == assignment.len() {
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
        enumerate_partitions(idx + 1, next_max, assignment, visit);
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
    fn weights_match_enumeration() {
        let tree = attribute_tree();
        let weights = CoClusteringWeights::from_tree(&tree, 0);
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
        let weights = CoClusteringWeights::from_tree(&tree, 0);
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
        let weights = CoClusteringWeights::from_tree(&tree, 0);
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
        let weights = CoClusteringWeights::from_tree(&tree, 0);
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
        let weights = CoClusteringWeights::from_map(keys, HashMap::new()).unwrap();
        let (best, cost) = brute_force_clustering(&weights);
        assert_eq!(best.len(), 3);
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn self_weight_is_one_and_unknown_pairs_zero() {
        let weights =
            CoClusteringWeights::from_map(vec![TupleKey(1), TupleKey(2)], HashMap::new()).unwrap();
        assert_eq!(weights.weight(TupleKey(1), TupleKey(1)), 1.0);
        assert_eq!(weights.weight(TupleKey(1), TupleKey(2)), 0.0);
        assert_eq!(weights.weight(TupleKey(1), TupleKey(9)), 0.0);
    }

    #[test]
    fn from_map_fills_both_orders_of_a_pair() {
        let keys = vec![TupleKey(1), TupleKey(2), TupleKey(3)];
        let map = HashMap::from([((TupleKey(3), TupleKey(1)), 0.75)]);
        let weights = CoClusteringWeights::from_map(keys, map).unwrap();
        assert_eq!(weights.weight(TupleKey(1), TupleKey(3)), 0.75);
        assert_eq!(weights.weight(TupleKey(3), TupleKey(1)), 0.75);
        assert_eq!(weights.upper_triangle(), &[0.0, 0.75, 0.0]);
    }

    #[test]
    fn constructors_reject_unsorted_or_duplicate_keys() {
        let unsorted = vec![TupleKey(2), TupleKey(1)];
        let duplicate = vec![TupleKey(1), TupleKey(1)];
        for keys in [unsorted, duplicate] {
            assert!(CoClusteringWeights::from_upper_triangle(keys.clone(), vec![0.5]).is_none());
            assert!(CoClusteringWeights::from_map(keys, HashMap::new()).is_none());
        }
        let keys = vec![TupleKey(1), TupleKey(2), TupleKey(3)];
        for len in [2, 4] {
            assert!(
                CoClusteringWeights::from_upper_triangle(keys.clone(), vec![0.5; len]).is_none()
            );
        }
        assert!(CoClusteringWeights::from_upper_triangle(keys, vec![0.5; 3]).is_some());
    }

    #[test]
    fn tiny_instances_cluster_without_panicking() {
        let mut rng = StdRng::seed_from_u64(5);
        let empty = CoClusteringWeights::from_upper_triangle(Vec::new(), Vec::new()).unwrap();
        assert_eq!(pivot_clustering_best_of(&empty, 4, &mut rng), (vec![], 0.0));
        assert_eq!(brute_force_clustering(&empty), (vec![], 0.0));

        let one = CoClusteringWeights::from_upper_triangle(vec![TupleKey(4)], Vec::new()).unwrap();
        assert_eq!(
            pivot_clustering_best_of(&one, 4, &mut rng),
            (vec![vec![TupleKey(4)]], 0.0)
        );
        assert_eq!(pivot_clustering(&one, &mut rng), vec![vec![TupleKey(4)]]);

        let keys = vec![TupleKey(4), TupleKey(7)];
        let together = CoClusteringWeights::from_upper_triangle(keys.clone(), vec![0.9]).unwrap();
        let (best, cost) = pivot_clustering_best_of(&together, 4, &mut rng);
        assert_eq!(best, vec![keys.clone()]);
        assert!((cost - 0.1).abs() < 1e-12);
        let apart = CoClusteringWeights::from_upper_triangle(keys, vec![0.2]).unwrap();
        let (best, cost) = brute_force_clustering(&apart);
        assert_eq!(best, vec![vec![TupleKey(4)], vec![TupleKey(7)]]);
        assert_eq!(cost, 0.2);
    }
}
