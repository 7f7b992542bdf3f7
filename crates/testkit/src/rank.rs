//! Per-key rank and co-occurrence references (Example 3 and §6.2), kept as
//! test oracles for the batch sweeps of [`cpdb_andxor::batch`].
//!
//! For Top-k consensus answers the algorithms need, for every tuple `t`:
//!
//! * the rank distribution `Pr(r(t) = i)` — the probability that `t` appears
//!   and exactly `i − 1` tuples with a higher score appear alongside it;
//! * pairwise order probabilities `Pr(r(t_i) < r(t_j))` (for Kendall-tau
//!   consensus, §5.5);
//! * attribute co-occurrence probabilities
//!   `Pr(i.A = a ∧ j.A = a)` (for consensus clustering, §6.2).
//!
//! Each function here computes one of them literally: one bivariate
//! generating function over the tree per tuple, pair or value (Example 3 /
//! Theorem 1). Assign `x` to the leaves that would out-rank the target
//! alternative, `y` to the target alternative itself, and read the
//! coefficient of `x^{i-1} y`. Correlations encoded by the tree (mutual
//! exclusion, co-existence) are therefore handled exactly, not assumed away.
//! The serving path computes every key's or pair's statistic in one shared
//! sweep instead; these functions pin it.
//!
//! Scores are assumed unique across keys (the paper's no-ties assumption);
//! when a caller supplies ties, the deterministic tie-break "higher key ranks
//! lower" is applied so results remain well-defined.

use cpdb_andxor::{AndXorTree, VarAssignment};
use cpdb_consensus::clustering::CoClusteringWeights;
use cpdb_genfunc::{clamp_probability, Truncation};
use cpdb_model::{Alternative, TupleKey};

/// Returns `true` when alternative `other` out-ranks an alternative of `key`
/// with score `score` (strictly higher score, or equal score with a smaller
/// key as the deterministic tie-break).
fn outranks(other: &Alternative, key: TupleKey, score: f64) -> bool {
    if other.key == key {
        return false;
    }
    match other.value.0.partial_cmp(&score) {
        Some(std::cmp::Ordering::Greater) => true,
        Some(std::cmp::Ordering::Equal) => other.key < key,
        _ => false,
    }
}

/// The distinct values of `key`'s alternatives in ascending order, read
/// with one scan of its leaves.
fn values_of(tree: &AndXorTree, key: TupleKey) -> Vec<f64> {
    let mut values: Vec<f64> = tree
        .leaves_of_key(key.0)
        .into_iter()
        .filter_map(|leaf| tree.leaf_alternative(leaf))
        .map(|alt| alt.value.0)
        .collect();
    values.sort_by(f64::total_cmp);
    values.dedup();
    values
}

/// The rank distribution of tuple `key`: a vector `pmf` with
/// `pmf[i - 1] = Pr(r(t) = i)` for `1 ≤ i ≤ max_rank`. Ranks beyond
/// `max_rank` (and the event that `t` is absent) account for the missing
/// mass.
pub fn rank_pmf(tree: &AndXorTree, key: TupleKey, max_rank: usize) -> Vec<f64> {
    let mut pmf = vec![0.0; max_rank];
    if max_rank == 0 {
        return pmf;
    }
    for score in values_of(tree, key) {
        let target = Alternative::new(key.0, score);
        let poly = tree.genfunc2(
            Truncation::Degree(max_rank - 1),
            Truncation::Degree(1),
            |a| {
                if *a == target {
                    VarAssignment::Y
                } else if outranks(a, key, score) {
                    VarAssignment::X
                } else {
                    VarAssignment::One
                }
            },
        );
        for i in 1..=max_rank {
            pmf[i - 1] += poly.coeff(i - 1, 1);
        }
    }
    for p in &mut pmf {
        *p = clamp_probability(*p);
    }
    pmf
}

/// `Pr(r(t_a) < r(t_b))` — the probability that tuple `a` ranks strictly
/// higher than tuple `b` (which includes worlds where `b` is absent and
/// `a` is present). Computed exactly even when `a` and `b` are correlated
/// through the tree: for each alternative `(a, s)` we read the
/// coefficient of `x⁰y¹` in the generating function that assigns `y` to
/// that alternative and `x` to every leaf of `b` out-ranking score `s`.
pub fn pairwise_order_probability(tree: &AndXorTree, a: TupleKey, b: TupleKey) -> f64 {
    if a == b {
        return 0.0;
    }
    let mut total = 0.0;
    for score in values_of(tree, a) {
        let target = Alternative::new(a.0, score);
        let poly = tree.genfunc2(Truncation::Degree(0), Truncation::Degree(1), |alt| {
            if *alt == target {
                VarAssignment::Y
            } else if alt.key == b && outranks(alt, a, score) {
                VarAssignment::X
            } else {
                VarAssignment::One
            }
        });
        // x-degree 0 (no out-ranking alternative of b present), y-degree 1.
        total += poly.coeff(0, 1);
    }
    clamp_probability(total)
}

/// `Pr(i.A = a ∧ j.A = a)` — the probability that tuples `i` and `j`
/// both take the attribute value `a` (§6.2): assign `x` to the leaves
/// `(i, a)` and `(j, a)` and read the coefficient of `x²`.
pub fn cooccurrence_probability(tree: &AndXorTree, i: TupleKey, j: TupleKey, value: f64) -> f64 {
    if i == j {
        return 0.0;
    }
    let poly = tree.genfunc1(Truncation::Degree(2), |alt| {
        (alt.key == i || alt.key == j) && alt.value.0 == value
    });
    clamp_probability(poly.coeff(2))
}

/// The clustering weight `w_{ij} = Σ_a Pr(i.A = a ∧ j.A = a)` — the
/// probability that tuples `i` and `j` are clustered together (take the
/// same attribute value) in a random possible world.
pub fn cluster_weight(tree: &AndXorTree, i: TupleKey, j: TupleKey) -> f64 {
    if i == j {
        return 0.0;
    }
    let j_values = values_of(tree, j);
    let mut total = 0.0;
    for v in values_of(tree, i) {
        // Only values that j can also take contribute.
        if j_values.contains(&v) {
            total += cooccurrence_probability(tree, i, j, v);
        }
    }
    clamp_probability(total)
}

/// The co-clustering weights `w_{ij} = Pr(i, j take the same value) +
/// Pr(i, j both absent)` over the tree's keys, one generating-function
/// sweep per pair — the reference for
/// [`CoClusteringWeights::from_tree`].
pub fn coclustering_weights_per_pair(tree: &AndXorTree) -> CoClusteringWeights {
    let keys = tree.keys();
    let mut tri = Vec::with_capacity(keys.len() * keys.len().saturating_sub(1) / 2);
    for (idx, &i) in keys.iter().enumerate() {
        for &j in &keys[idx + 1..] {
            let same_value = cluster_weight(tree, i, j);
            // Pr(both absent): assign x to every leaf of either key; the
            // coefficient of x^0 is the probability neither appears.
            let both_absent = tree
                .genfunc1(Truncation::Degree(0), |a| a.key == i || a.key == j)
                .coeff(0);
            tri.push((same_value + both_absent).clamp(0.0, 1.0));
        }
    }
    CoClusteringWeights::from_upper_triangle(keys, tri)
        .expect("one weight per pair of the tree's sorted keys")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::reference::expected_kendall_distance_enumerated;
    use cpdb_andxor::batch::upper_triangle_index;
    use cpdb_andxor::figure1::figure1_correlated_tree;
    use cpdb_andxor::AndXorTreeBuilder;
    use cpdb_consensus::topk::kendall::expected_kendall_distance;
    use cpdb_consensus::TopKContext;
    use cpdb_genfunc::approx_eq_eps;
    use cpdb_model::{PossibleWorld, WorldModel};
    use cpdb_rankagg::TopKList;

    /// Independent tuples with distinct scores.
    fn independent_tree(specs: &[(u64, f64, f64)]) -> AndXorTree {
        let mut b = AndXorTreeBuilder::new();
        let mut xors = Vec::new();
        for &(key, score, p) in specs {
            let leaf = b.leaf_parts(key, score);
            xors.push(b.xor_node(vec![(leaf, p)]));
        }
        let root = b.and_node(xors);
        b.build(root).unwrap()
    }

    /// The highly correlated 3-world database of Figure 1(ii)/(iii).
    fn figure1_iii_tree() -> AndXorTree {
        figure1_correlated_tree()
    }

    fn bid_tree() -> AndXorTree {
        let mut b = AndXorTreeBuilder::new();
        let mut xors = Vec::new();
        for (key, alts) in [
            (1u64, vec![(95.0, 0.3), (40.0, 0.5)]),
            (2, vec![(80.0, 0.6), (55.0, 0.2)]),
            (3, vec![(70.0, 0.9)]),
            (4, vec![(60.0, 0.45), (50.0, 0.25)]),
        ] {
            let edges: Vec<_> = alts
                .iter()
                .map(|&(v, p)| (b.leaf_parts(key, v), p))
                .collect();
            xors.push(b.xor_node(edges));
        }
        let root = b.and_node(xors);
        b.build(root).unwrap()
    }

    fn nested_tree() -> AndXorTree {
        // ∧( ∨( ∧(k1, k2) : 0.5, k3 : 0.3 ), ∨(k4 : 0.6, k4' : 0.3), k5-block )
        let mut b = AndXorTreeBuilder::new();
        let l1 = b.leaf_parts(1, 9.0);
        let l2 = b.leaf_parts(2, 7.0);
        let bundle = b.and_node(vec![l1, l2]);
        let l3 = b.leaf_parts(3, 8.0);
        let x1 = b.xor_node(vec![(bundle, 0.5), (l3, 0.3)]);
        let l4a = b.leaf_parts(4, 6.0);
        let l4b = b.leaf_parts(4, 3.0);
        let x2 = b.xor_node(vec![(l4a, 0.6), (l4b, 0.3)]);
        let l5 = b.leaf_parts(5, 5.0);
        let x3 = b.xor_node(vec![(l5, 0.7)]);
        let root = b.and_node(vec![x1, x2, x3]);
        b.build(root).unwrap()
    }

    /// Attribute uncertainty: tuples 1 and 2 usually share value 10; tuple 3
    /// usually takes 20.
    fn attribute_tree() -> AndXorTree {
        let mut b = AndXorTreeBuilder::new();
        let mut xors = Vec::new();
        for (key, options) in [
            (1u64, vec![(10.0, 0.8), (20.0, 0.2)]),
            (2, vec![(10.0, 0.7), (20.0, 0.3)]),
            (3, vec![(10.0, 0.1), (20.0, 0.9)]),
        ] {
            let edges: Vec<_> = options
                .iter()
                .map(|&(v, p)| (b.leaf_parts(key, v), p))
                .collect();
            xors.push(b.xor_node(edges));
        }
        let root = b.and_node(xors);
        b.build(root).unwrap()
    }

    fn brute_force_rank_pmf(tree: &AndXorTree, key: TupleKey, max_rank: usize) -> Vec<f64> {
        let ws = tree.enumerate_worlds();
        let mut pmf = vec![0.0; max_rank];
        for (w, p) in ws.worlds() {
            if let Some(r) = rank_in_world(w, key) {
                if r <= max_rank {
                    pmf[r - 1] += p;
                }
            }
        }
        pmf
    }

    fn rank_in_world(w: &PossibleWorld, key: TupleKey) -> Option<usize> {
        w.rank_of(key)
    }

    #[test]
    fn rank_pmf_matches_enumeration_independent() {
        let tree = independent_tree(&[
            (1, 90.0, 0.3),
            (2, 80.0, 0.9),
            (3, 70.0, 0.5),
            (4, 60.0, 0.7),
        ]);
        for key in tree.keys() {
            let pmf = rank_pmf(&tree, key, 4);
            let brute = brute_force_rank_pmf(&tree, key, 4);
            for i in 0..4 {
                assert!(
                    approx_eq_eps(pmf[i], brute[i], 1e-9),
                    "key {key:?} rank {}: {} vs {}",
                    i + 1,
                    pmf[i],
                    brute[i]
                );
            }
        }
    }

    #[test]
    fn rank_pmf_matches_enumeration_correlated() {
        let tree = figure1_iii_tree();
        for key in tree.keys() {
            let pmf = rank_pmf(&tree, key, 3);
            let brute = brute_force_rank_pmf(&tree, key, 3);
            for i in 0..3 {
                assert!(
                    approx_eq_eps(pmf[i], brute[i], 1e-9),
                    "key {key:?} rank {}: {} vs {}",
                    i + 1,
                    pmf[i],
                    brute[i]
                );
            }
        }
    }

    #[test]
    fn figure1_rank_probability_of_t3_alternative() {
        // The paper's Figure 1(iii) caption: the coefficient of y (0.3) is the
        // probability that the alternative (t3, 6) is ranked at position 1.
        let tree = figure1_iii_tree();
        // (t3, 6) is ranked first only in pw1 = {(t3,6),(t2,5),(t1,1)} (0.3).
        let pmf = rank_pmf(&tree, TupleKey(3), 1);
        // Pr(r(t3) = 1) = Pr(pw1) + Pr(pw2) because (t3, 9) tops pw2 as well.
        // The caption's 0.3 refers to the single alternative (t3, 6); verify
        // both the per-alternative number and the per-tuple number.
        let ws = tree.enumerate_worlds();
        let alt_rank1: f64 = ws
            .worlds()
            .iter()
            .filter(|(w, _)| {
                w.contains(&Alternative::new(3, 6.0)) && w.rank_of(TupleKey(3)) == Some(1)
            })
            .map(|(_, p)| *p)
            .sum();
        assert!(approx_eq_eps(alt_rank1, 0.3, 1e-9));
        assert!(approx_eq_eps(pmf[0], 0.6, 1e-9)); // pw1 (0.3) + pw2 (0.3)
    }

    #[test]
    fn rank_cdf_is_monotone_and_bounded_by_presence() {
        // Pr(r(t) ≤ k) is the sum of the first k entries of the rank PMF.
        let tree = independent_tree(&[(1, 9.0, 0.4), (2, 8.0, 0.6), (3, 7.0, 0.8)]);
        let cdf = |key, k| clamp_probability(rank_pmf(&tree, key, k).iter().sum());
        for key in tree.keys() {
            let presence = tree.key_presence_probabilities()[&key];
            let mut prev = 0.0;
            for k in 1..=3 {
                let cdf = cdf(key, k);
                assert!(cdf + 1e-12 >= prev);
                assert!(cdf <= presence + 1e-9);
                prev = cdf;
            }
            assert!(approx_eq_eps(cdf(key, 3), presence, 1e-9));
        }
    }

    #[test]
    fn pairwise_order_matches_enumeration() {
        let tree = figure1_iii_tree();
        let ws = tree.enumerate_worlds();
        let keys = tree.keys();
        for &a in &keys {
            for &b in &keys {
                if a == b {
                    continue;
                }
                let expected = ws.expectation(|w| match (w.rank_of(a), w.rank_of(b)) {
                    (Some(ra), Some(rb)) => f64::from(ra < rb),
                    (Some(_), None) => 1.0,
                    _ => 0.0,
                });
                let got = pairwise_order_probability(&tree, a, b);
                assert!(
                    approx_eq_eps(got, expected, 1e-9),
                    "Pr(r({a:?}) < r({b:?})): {got} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn pairwise_order_self_is_zero() {
        let tree = figure1_iii_tree();
        assert_eq!(
            pairwise_order_probability(&tree, TupleKey(1), TupleKey(1)),
            0.0
        );
    }

    #[test]
    fn cooccurrence_for_independent_tuples_is_product() {
        // Tuples 1 and 2 both take value 5.0 with probabilities 0.3 and 0.4.
        let mut b = AndXorTreeBuilder::new();
        let l1 = b.leaf_parts(1, 5.0);
        let l2 = b.leaf_parts(2, 5.0);
        let l3 = b.leaf_parts(3, 7.0);
        let x1 = b.xor_node(vec![(l1, 0.3)]);
        let x2 = b.xor_node(vec![(l2, 0.4)]);
        let x3 = b.xor_node(vec![(l3, 0.9)]);
        let root = b.and_node(vec![x1, x2, x3]);
        let tree = b.build(root).unwrap();
        assert!(approx_eq_eps(
            cooccurrence_probability(&tree, TupleKey(1), TupleKey(2), 5.0),
            0.12,
            1e-12
        ));
        assert_eq!(
            cooccurrence_probability(&tree, TupleKey(1), TupleKey(3), 5.0),
            0.0
        );
        assert!(approx_eq_eps(
            cluster_weight(&tree, TupleKey(1), TupleKey(2)),
            0.12,
            1e-12
        ));
        assert_eq!(cluster_weight(&tree, TupleKey(1), TupleKey(1)), 0.0);
    }

    #[test]
    fn cluster_weight_matches_enumeration_on_correlated_tree() {
        // Two tuples that take the same value only in some correlated worlds.
        let mut b = AndXorTreeBuilder::new();
        // World A (0.5): t1=1, t2=1 ; World B (0.3): t1=1, t2=2 ; else empty.
        let a1 = b.leaf_parts(1, 1.0);
        let a2 = b.leaf_parts(2, 1.0);
        let wa = b.and_node(vec![a1, a2]);
        let b1 = b.leaf_parts(1, 1.0);
        let b2 = b.leaf_parts(2, 2.0);
        let wb = b.and_node(vec![b1, b2]);
        let root = b.xor_node(vec![(wa, 0.5), (wb, 0.3)]);
        let tree = b.build(root).unwrap();
        let w = cluster_weight(&tree, TupleKey(1), TupleKey(2));
        assert!(approx_eq_eps(w, 0.5, 1e-12));
    }

    #[test]
    fn rank_probability_edge_cases() {
        // Pr(r(t) = i) is entry i − 1 of the PMF truncated at i; rank 0 has
        // no entry.
        let tree = independent_tree(&[(1, 9.0, 0.5)]);
        assert!(approx_eq_eps(
            rank_pmf(&tree, TupleKey(1), 1)[0],
            0.5,
            1e-12
        ));
        assert_eq!(rank_pmf(&tree, TupleKey(1), 0).len(), 0);
    }

    fn assert_pmfs_match(tree: &AndXorTree, max_rank: usize) {
        let batch = tree.batch_rank_pmfs(max_rank);
        let keys = tree.keys();
        assert_eq!(batch.len(), keys.len() * max_rank);
        for (key, got) in keys.into_iter().zip(batch.chunks_exact(max_rank)) {
            let reference = rank_pmf(tree, key, max_rank);
            for i in 0..max_rank {
                assert!(
                    (got[i] - reference[i]).abs() < 1e-12,
                    "key {key:?} rank {}: batch {} vs per-tuple {}",
                    i + 1,
                    got[i],
                    reference[i]
                );
            }
        }
    }

    #[test]
    fn batch_rank_pmfs_match_per_tuple_on_independent_tree() {
        let tree = independent_tree(&[
            (1, 90.0, 0.3),
            (2, 80.0, 0.9),
            (3, 70.0, 0.5),
            (4, 60.0, 0.7),
        ]);
        for k in 1..=4 {
            assert_pmfs_match(&tree, k);
        }
    }

    #[test]
    fn batch_rank_pmfs_match_per_tuple_on_bid_and_nested_trees() {
        for tree in [bid_tree(), nested_tree(), figure1_correlated_tree()] {
            let n = tree.keys().len();
            for k in 1..=n {
                assert_pmfs_match(&tree, k);
            }
        }
    }

    #[test]
    fn batch_pairwise_order_matches_per_pair() {
        for tree in [bid_tree(), nested_tree(), figure1_correlated_tree()] {
            let keys = tree.keys();
            let n = keys.len();
            let batch = tree.batch_pairwise_order(&keys, 1);
            for (i, &a) in keys.iter().enumerate() {
                for (j, &b) in keys.iter().enumerate() {
                    let reference = pairwise_order_probability(&tree, a, b);
                    assert!(
                        (batch[i * n + j] - reference).abs() < 1e-12,
                        "Pr(r({a:?}) < r({b:?})): batch {} vs per-pair {reference}",
                        batch[i * n + j]
                    );
                }
            }
        }
    }

    #[test]
    fn batch_cocluster_weights_match_per_pair() {
        // Attribute-uncertainty tree: shared values across keys.
        let tree = attribute_tree();
        let keys = tree.keys();
        let n = keys.len();
        let batch = tree.batch_cocluster_weights(&keys, 1);
        assert_eq!(batch.len(), n * (n - 1) / 2);
        for (i, &a) in keys.iter().enumerate() {
            for (j, &b) in keys.iter().enumerate().skip(i + 1) {
                let t = upper_triangle_index(n, i, j);
                let same = cluster_weight(&tree, a, b);
                let absent = tree
                    .genfunc1(Truncation::Degree(0), |alt| alt.key == a || alt.key == b)
                    .coeff(0);
                let reference = (same + absent).clamp(0.0, 1.0);
                assert!(
                    (batch[t] - reference).abs() < 1e-12,
                    "w({a:?},{b:?}): batch {} vs per-pair {reference}",
                    batch[t]
                );
            }
        }
    }

    #[test]
    fn batch_weights_match_the_per_pair_reference() {
        let tree = attribute_tree();
        let batch = CoClusteringWeights::from_tree(&tree, 0);
        let reference = coclustering_weights_per_pair(&tree);
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
    fn references_match_enumeration_on_edge_trees() {
        for (label, tree) in fixtures::jaccard_edge_trees() {
            let ws = tree.enumerate_worlds();
            // The builder admits ∨ mass up to 1 + 1e-9, and the enumerated
            // worlds then weigh that much in total: every expectation over
            // them is off by up to the excess, so the bound widens by it.
            let excess = (ws.expectation(|_| 1.0) - 1.0).abs();
            let close = |got: f64, want: f64| (got - want).abs() < 1e-12 + excess;
            let keys = tree.keys();
            let n = keys.len();
            for &a in &keys {
                let pmf = rank_pmf(&tree, a, n);
                for (i, &p) in pmf.iter().enumerate() {
                    let want = ws.expectation(|w| f64::from(w.rank_of(a) == Some(i + 1)));
                    assert!(
                        close(p, want),
                        "{label}: Pr(r({a:?}) = {}) {p} vs {want}",
                        i + 1
                    );
                }
                for &b in &keys {
                    let order = pairwise_order_probability(&tree, a, b);
                    let want = ws.expectation(|w| match (w.rank_of(a), w.rank_of(b)) {
                        (Some(ra), Some(rb)) => f64::from(ra < rb),
                        (Some(_), None) => 1.0,
                        _ => 0.0,
                    });
                    assert!(
                        close(order, want),
                        "{label}: Pr(r({a:?}) < r({b:?})) {order} vs {want}"
                    );
                    let same = cluster_weight(&tree, a, b);
                    let want = ws.expectation(|w| match (w.value_of(a), w.value_of(b)) {
                        (Some(x), Some(y)) => f64::from(a != b && x == y),
                        _ => 0.0,
                    });
                    assert!(
                        close(same, want),
                        "{label}: w({a:?},{b:?}) {same} vs {want}"
                    );
                    for value in tree.distinct_values() {
                        let both = cooccurrence_probability(&tree, a, b, value);
                        let want = ws.expectation(|w| {
                            f64::from(
                                a != b
                                    && w.value_of(a) == Some(value)
                                    && w.value_of(b) == Some(value),
                            )
                        });
                        assert!(
                            close(both, want),
                            "{label}: Pr({a:?}, {b:?} = {value}) {both} vs {want}"
                        );
                    }
                }
            }
            let weights = coclustering_weights_per_pair(&tree);
            for (idx, &i) in keys.iter().enumerate() {
                for &j in &keys[idx + 1..] {
                    let want = ws.expectation(|w| match (w.value_of(i), w.value_of(j)) {
                        (Some(x), Some(y)) => f64::from(x == y),
                        (None, None) => 1.0,
                        _ => 0.0,
                    });
                    let got = weights.weight(i, j);
                    assert!(close(got, want), "{label}: w({i:?},{j:?}) {got} vs {want}");
                }
            }
            for k in 0..=n + 1 {
                let ctx = TopKContext::new(&tree, k);
                let candidate = TopKList::new(keys.iter().take(k).map(|t| t.0).collect()).unwrap();
                let enumerated = expected_kendall_distance_enumerated(&tree, &ctx, &candidate);
                let exact = expected_kendall_distance(&tree, &ctx, &candidate);
                assert!(
                    close(enumerated, exact),
                    "{label} k={k}: E[d_K] {enumerated} vs {exact}"
                );
            }
        }
    }
}
