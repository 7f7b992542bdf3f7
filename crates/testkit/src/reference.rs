//! Slow, literal reference implementations kept as test oracles.
//!
//! The production Jaccard scan in [`cpdb_consensus::jaccard`] carries only
//! the dual-number pair `(G(1, y), ∂ₓG(1, y))` through one incremental
//! sweep. This module keeps the paper's literal form of the same scan —
//! Lemma 1 evaluated by building the full bivariate generating function
//! `G(x, y)` as a [`cpdb_genfunc::Poly2`] for every one of the `n + 1`
//! prefixes (`~n⁴`) — so conformance checks can pin the fast scan to it
//! prefix by prefix.
//!
//! Likewise the production Theorem 4 median in
//! [`cpdb_consensus::topk::median_dp`] is one descending (max, +) sweep that
//! rebuilds only the winning witness. This module keeps the literal form:
//! one recursive knapsack program per score threshold, a witness key set in
//! every cell.
//!
//! And the production KwikCluster in [`cpdb_consensus::clustering`] runs on
//! key positions over the co-clustering triangle. This module keeps the
//! keyed form it replaced: pivots and candidates as key lists, every weight
//! read through [`CoClusteringWeights::weight`], every candidate costed
//! through a key → cluster map.
//!
//! And the production Kendall answers report their `E[d_K]` from the exact
//! truncated-sweep evaluator
//! ([`cpdb_consensus::topk::kendall::expected_kendall_distance`]). This
//! module keeps the Monte-Carlo estimate it replaced, which averages the
//! distance over sampled worlds, and the enumeration of every possible world
//! that gives the ground truth on small instances.
//!
//! The per-key generating-function forms of the rank statistics that
//! [`cpdb_andxor::batch`] computes in shared sweeps (rank PMFs, pairwise
//! order, co-occurrence and co-clustering weights) are in
//! [`crate::rank`]. None of these paths serves an engine query; no
//! production crate names them.
use cpdb_andxor::{AndXorTree, NodeId, NodeKind, VarAssignment};
use cpdb_consensus::clustering::{Clustering, CoClusteringWeights};
use cpdb_consensus::jaccard::JaccardConsensus;
use cpdb_consensus::oracle;
use cpdb_consensus::topk::median_dp::MedianTopK;
use cpdb_consensus::TopKContext;
use cpdb_genfunc::Truncation;
use cpdb_model::{Alternative, ModelError, PossibleWorld, TupleKey, WorldModel};
use cpdb_rankagg::metrics::kendall_tau_topk;
use cpdb_rankagg::TopKList;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{HashMap, HashSet};

/// Lemma 1 read off the full bivariate generating function: the exact
/// expected Jaccard distance between `candidate` and the random world.
pub fn expected_jaccard_distance_poly2(tree: &AndXorTree, candidate: &PossibleWorld) -> f64 {
    let members: HashSet<Alternative> = candidate.alternatives().iter().copied().collect();
    let w = members.len();
    let poly = tree.genfunc2(Truncation::None, Truncation::None, |a| {
        if members.contains(a) {
            VarAssignment::X
        } else {
            VarAssignment::Y
        }
    });
    poly.expectation_with(|i, j| {
        let union = w + j;
        if union == 0 {
            0.0
        } else {
            (w - i + j) as f64 / union as f64
        }
    })
}

/// The Lemma 1 score of every prefix of `sorted` (entry `t` scores the first
/// `t` alternatives), one full `Poly2` per prefix.
///
/// # Panics
///
/// When `sorted` holds two alternatives of one key.
pub fn prefix_distances_poly2(tree: &AndXorTree, sorted: &[(Alternative, f64)]) -> Vec<f64> {
    (0..=sorted.len())
        .map(|t| {
            let world = PossibleWorld::new(sorted[..t].iter().map(|(a, _)| *a).collect())
                .expect("prefixes contain at most one alternative per key");
            expected_jaccard_distance_poly2(tree, &world)
        })
        .collect()
}

/// The best prefix of `sorted` under [`prefix_distances_poly2`]; the first
/// prefix wins a tie, as in the production scan.
pub fn best_prefix_world_poly2(
    tree: &AndXorTree,
    sorted: &[(Alternative, f64)],
) -> JaccardConsensus {
    let distances = prefix_distances_poly2(tree, sorted);
    let mut best = 0;
    for (t, &d) in distances.iter().enumerate() {
        if d < distances[best] {
            best = t;
        }
    }
    JaccardConsensus {
        world: PossibleWorld::from_trusted(sorted[..best].iter().map(|(a, _)| *a).collect()),
        expected_distance: distances[best],
    }
}

/// One program cell: the best `Σ Pr(r(t) ≤ k)` and the key set attaining
/// it, for a fixed subtree and world size.
type Cell = Option<(f64, Vec<TupleKey>)>;

/// Theorem 4 as the paper states it: one recursive knapsack program over the
/// tree per distinct score threshold (highest first) for the size-`k`
/// candidates, then one over the unrestricted tree for the worlds of every
/// size below `k`. A later candidate wins only when strictly better.
pub fn median_topk_sym_diff_recursive(
    tree: &AndXorTree,
    ctx: &TopKContext,
) -> Result<MedianTopK, ModelError> {
    let k = ctx.k();
    let mut best: Option<(f64, Vec<TupleKey>)> = None;
    let mut offer = |size: usize, cell: &Cell| {
        if let Some((profit, keys)) = cell {
            let objective = profit - 0.5 * size as f64;
            if best.as_ref().is_none_or(|(b, _)| objective > *b) {
                best = Some((objective, keys.clone()));
            }
        }
    };
    for &a in tree.distinct_values().iter().rev() {
        offer(k, &subtree_dp(tree, tree.root(), ctx, k, Some(a))[k]);
    }
    if k > 0 {
        let table = subtree_dp(tree, tree.root(), ctx, k, None);
        for (size, cell) in table.iter().enumerate().take(k) {
            offer(size, cell);
        }
    }
    MedianTopK::from_keys(ctx, best.map(|(_, keys)| keys).unwrap_or_default())
}

/// The program over the subtree rooted at `node`, restricted to leaves
/// scoring `≥ threshold` (unrestricted for `None`): for each size `i ≤ k`
/// the best `Σ Pr(r(t) ≤ k)` over the worlds of exactly that size.
fn subtree_dp(
    tree: &AndXorTree,
    node: NodeId,
    ctx: &TopKContext,
    k: usize,
    threshold: Option<f64>,
) -> Vec<Cell> {
    let mut table: Vec<Cell> = vec![None; k + 1];
    match (tree.node_kind(node), tree.leaf_alternative(node)) {
        (None, None) => {}
        (None, Some(alt)) => {
            if threshold.is_none_or(|a| alt.value.0 >= a) {
                // An admitted leaf always materialises: size 0 is unreachable.
                if k >= 1 {
                    table[1] = Some((ctx.topk_probability(alt.key), vec![alt.key]));
                }
            } else {
                table[0] = Some((0.0, Vec::new()));
            }
        }
        (Some(NodeKind::Xor), _) => {
            let children = tree.children(node);
            let leftover: f64 = 1.0 - children.iter().map(|(_, p)| *p).sum::<f64>();
            if leftover > 1e-12 {
                table[0] = Some((0.0, Vec::new()));
            }
            for (child, p) in children {
                if *p <= 0.0 {
                    continue;
                }
                let child_table = subtree_dp(tree, *child, ctx, k, threshold);
                for (i, cell) in child_table.into_iter().enumerate() {
                    if let Some((profit, keys)) = cell {
                        if table[i].as_ref().is_none_or(|(b, _)| profit > *b) {
                            table[i] = Some((profit, keys));
                        }
                    }
                }
            }
        }
        (Some(NodeKind::And), _) => {
            table[0] = Some((0.0, Vec::new()));
            for (child, _) in tree.children(node) {
                let child_table = subtree_dp(tree, *child, ctx, k, threshold);
                let mut next: Vec<Cell> = vec![None; k + 1];
                for (i, cell) in table.iter().enumerate() {
                    let Some((profit_a, keys_a)) = cell else {
                        continue;
                    };
                    for (j, child_cell) in child_table.iter().enumerate().take(k + 1 - i) {
                        let Some((profit_b, keys_b)) = child_cell else {
                            continue;
                        };
                        let profit = profit_a + profit_b;
                        if next[i + j].as_ref().is_none_or(|(b, _)| profit > *b) {
                            let mut keys = keys_a.clone();
                            keys.extend_from_slice(keys_b);
                            next[i + j] = Some((profit, keys));
                        }
                    }
                }
                table = next;
            }
        }
    }
    table
}

/// KwikCluster over keys: shuffle the keys, then repeatedly pop a pivot and
/// put every remaining key with `w ≥ ½` into its cluster.
pub fn pivot_clustering_keyed<R: Rng + ?Sized>(
    weights: &CoClusteringWeights,
    rng: &mut R,
) -> Clustering {
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

/// The best of the singleton clustering, the all-in-one clustering and
/// `trials` keyed KwikCluster runs, each costed by
/// [`expected_distance_keyed`]; a later candidate wins only when strictly
/// cheaper.
pub fn pivot_clustering_best_of_keyed<R: Rng + ?Sized>(
    weights: &CoClusteringWeights,
    trials: usize,
    rng: &mut R,
) -> (Clustering, f64) {
    let singletons: Clustering = weights.keys().iter().map(|&t| vec![t]).collect();
    let everything: Clustering = vec![weights.keys().to_vec()];
    let mut best = singletons;
    let mut best_cost = expected_distance_keyed(weights, &best);
    let all_cost = expected_distance_keyed(weights, &everything);
    if all_cost < best_cost {
        best = everything;
        best_cost = all_cost;
    }
    for _ in 0..trials {
        let candidate = pivot_clustering_keyed(weights, rng);
        let cost = expected_distance_keyed(weights, &candidate);
        if cost < best_cost {
            best_cost = cost;
            best = candidate;
        }
    }
    (best, best_cost)
}

/// `E[d(C, C_pw)]` of a candidate over keys: every pair of
/// [`CoClusteringWeights::keys`] in key order costs `1 − w` when the
/// candidate puts it together and `w` otherwise.
pub fn expected_distance_keyed(weights: &CoClusteringWeights, clustering: &Clustering) -> f64 {
    let mut cluster_of: HashMap<TupleKey, usize> = HashMap::new();
    for (c, members) in clustering.iter().enumerate() {
        for &t in members {
            cluster_of.insert(t, c);
        }
    }
    let keys = weights.keys();
    let cluster: Vec<Option<usize>> = keys.iter().map(|k| cluster_of.get(k).copied()).collect();
    let mut total = 0.0;
    for idx in 0..keys.len() {
        for jdx in idx + 1..keys.len() {
            let together = cluster[idx].is_some() && cluster[idx] == cluster[jdx];
            let w = weights.weight(keys[idx], keys[jdx]);
            total += if together { 1.0 - w } else { w };
        }
    }
    total
}

/// Exact `E[d_K(τ, τ_pw)]` at the context's `k` by enumerating the possible
/// worlds. Exponential; the ground truth on small instances.
pub fn expected_kendall_distance_enumerated(
    tree: &AndXorTree,
    ctx: &TopKContext,
    candidate: &TopKList,
) -> f64 {
    let ws = tree.enumerate_worlds();
    oracle::expected_topk_distance(candidate, &ws, ctx.k(), kendall_tau_topk)
}

/// Monte-Carlo estimate of `E[d_K(τ, τ_pw)]` at the context's `k` from
/// `samples` sampled worlds (`0` with no samples).
pub fn expected_kendall_distance_sampled<R: Rng + ?Sized>(
    tree: &AndXorTree,
    ctx: &TopKContext,
    candidate: &TopKList,
    samples: usize,
    rng: &mut R,
) -> f64 {
    if samples == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for _ in 0..samples {
        let w = tree.sample_world(rng);
        let answer = oracle::world_topk(&w, ctx.k());
        total += kendall_tau_topk(candidate, &answer);
    }
    total / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpdb_consensus::clustering::{pivot_clustering, pivot_clustering_best_of};
    use cpdb_consensus::topk::kendall::expected_kendall_distance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Triangle weights over `n` keys `10, 20, …` from a fixed pattern that
    /// mixes strong and weak pairs.
    fn weights(n: usize) -> CoClusteringWeights {
        let keys: Vec<TupleKey> = (1..=n as u64).map(|k| TupleKey(10 * k)).collect();
        let tri = (0..n * n.saturating_sub(1) / 2)
            .map(|t| ((t * 37 + 11) % 100) as f64 / 100.0)
            .collect();
        CoClusteringWeights::from_upper_triangle(keys, tri).unwrap()
    }

    #[test]
    fn positional_kwikcluster_matches_the_keyed_reference() {
        for n in [0, 1, 2, 3, 9] {
            let w = weights(n);
            for seed in 0..4 {
                let keyed = pivot_clustering_keyed(&w, &mut StdRng::seed_from_u64(seed));
                let positional = pivot_clustering(&w, &mut StdRng::seed_from_u64(seed));
                assert_eq!(positional, keyed, "n={n} seed={seed}");
                assert_eq!(
                    w.expected_distance(&positional).to_bits(),
                    expected_distance_keyed(&w, &keyed).to_bits()
                );
                for trials in [0, 1, 4] {
                    let (a, a_cost) =
                        pivot_clustering_best_of(&w, trials, &mut StdRng::seed_from_u64(seed));
                    let (b, b_cost) = pivot_clustering_best_of_keyed(
                        &w,
                        trials,
                        &mut StdRng::seed_from_u64(seed),
                    );
                    assert_eq!(a, b, "n={n} seed={seed} trials={trials}");
                    assert_eq!(a_cost.to_bits(), b_cost.to_bits());
                }
            }
        }
    }

    #[test]
    fn expected_distance_ignores_keys_outside_the_weights() {
        let w = weights(3);
        let candidate = vec![vec![TupleKey(10), TupleKey(99)], vec![TupleKey(20)]];
        assert_eq!(
            w.expected_distance(&candidate).to_bits(),
            expected_distance_keyed(&w, &candidate).to_bits()
        );
    }

    #[test]
    fn sampled_distance_converges_to_enumerated() {
        let mut b = cpdb_andxor::AndXorTreeBuilder::new();
        let mut xors = Vec::new();
        for (key, score, p) in [
            (1, 90.0, 0.4),
            (2, 80.0, 0.9),
            (3, 70.0, 0.6),
            (4, 60.0, 0.8),
        ] {
            let leaf = b.leaf_parts(key, score);
            xors.push(b.xor_node(vec![(leaf, p)]));
        }
        let root = b.and_node(xors);
        let tree = b.build(root).unwrap();
        let ctx = TopKContext::new(&tree, 2);
        let candidate = TopKList::new(vec![2, 4]).unwrap();
        let enumerated = expected_kendall_distance_enumerated(&tree, &ctx, &candidate);
        let exact = expected_kendall_distance(&tree, &ctx, &candidate);
        assert!((exact - enumerated).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(77);
        let sampled = expected_kendall_distance_sampled(&tree, &ctx, &candidate, 20_000, &mut rng);
        assert!(
            (enumerated - sampled).abs() < 0.05,
            "enumerated {enumerated} vs sampled {sampled}"
        );
        assert_eq!(
            expected_kendall_distance_sampled(&tree, &ctx, &candidate, 0, &mut rng),
            0.0
        );
    }
}
