//! Property-based tests for the per-key generating-function references of
//! [`cpdb_testkit::rank`]: rank distributions, pairwise order and cluster
//! weights must agree with exhaustive enumeration on every randomly
//! generated and/xor tree.

use cpdb_andxor::{AndXorTree, AndXorTreeBuilder};
use cpdb_genfunc::approx_eq_eps;
use cpdb_model::WorldModel;
use cpdb_testkit::rank::{cluster_weight, pairwise_order_probability, rank_pmf};
use proptest::prelude::*;

/// Strategy: a random two-level and/xor tree — a root ∧ node over blocks,
/// where each block is an ∨ node over either plain leaves or small ∧ bundles
/// of leaves (exercising both correlation kinds).
fn random_tree() -> impl Strategy<Value = AndXorTree> {
    // Per block: list of (bundle size 1..=2, weight), plus leftover mass.
    prop::collection::vec(
        prop::collection::vec((1usize..=2, 0.05f64..1.0), 1..3),
        1..5,
    )
    .prop_map(|blocks| {
        let mut b = AndXorTreeBuilder::new();
        let mut key = 0u64;
        let mut score = 0.0f64;
        let mut xors = Vec::new();
        for block in &blocks {
            let total: f64 = block.iter().map(|(_, w)| *w).sum::<f64>() * 1.25;
            let mut edges = Vec::new();
            for (bundle, w) in block {
                let leaves: Vec<_> = (0..*bundle)
                    .map(|_| {
                        key += 1;
                        score += 1.0;
                        b.leaf_parts(key, score)
                    })
                    .collect();
                let node = if leaves.len() == 1 {
                    leaves[0]
                } else {
                    b.and_node(leaves)
                };
                edges.push((node, w / total));
            }
            xors.push(b.xor_node(edges));
        }
        let root = b.and_node(xors);
        b.build(root)
            .expect("construction keeps keys disjoint and mass ≤ 1")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Rank distributions (Example 3) match enumeration for every tuple and
    /// every rank.
    #[test]
    fn rank_pmf_matches_enumeration(tree in random_tree()) {
        let ws = tree.enumerate_worlds();
        let n = tree.keys().len();
        for key in tree.keys() {
            let pmf = rank_pmf(&tree, key, n);
            for i in 1..=n {
                let brute: f64 = ws
                    .worlds()
                    .iter()
                    .filter(|(w, _)| w.rank_of(key) == Some(i))
                    .map(|(_, p)| *p)
                    .sum();
                prop_assert!(approx_eq_eps(pmf[i - 1], brute, 1e-9),
                    "key {:?} rank {}: {} vs {}", key, i, pmf[i - 1], brute);
            }
        }
    }

    /// Pairwise order probabilities match enumeration and are antisymmetric
    /// up to the probability that at least one of the two tuples is missing.
    #[test]
    fn pairwise_order_matches_enumeration(tree in random_tree()) {
        let ws = tree.enumerate_worlds();
        let keys = tree.keys();
        for (x, &a) in keys.iter().enumerate() {
            for &b in keys.iter().skip(x + 1) {
                let p_ab = pairwise_order_probability(&tree, a, b);
                let p_ba = pairwise_order_probability(&tree, b, a);
                let brute_ab = ws.expectation(|w| match (w.rank_of(a), w.rank_of(b)) {
                    (Some(ra), Some(rb)) => f64::from(ra < rb),
                    (Some(_), None) => 1.0,
                    _ => 0.0,
                });
                prop_assert!(approx_eq_eps(p_ab, brute_ab, 1e-9));
                // p_ab + p_ba + Pr(both absent or tie) = 1; ties are impossible.
                let both_absent = ws.expectation(|w| {
                    f64::from(!w.contains_key(a) && !w.contains_key(b))
                });
                prop_assert!(approx_eq_eps(p_ab + p_ba + both_absent, 1.0, 1e-9));
            }
        }
    }

    /// The cluster weight w_ij is a probability and matches enumeration.
    #[test]
    fn cluster_weights_match_enumeration(tree in random_tree()) {
        let ws = tree.enumerate_worlds();
        let keys = tree.keys();
        for (x, &a) in keys.iter().enumerate() {
            for &b in keys.iter().skip(x + 1) {
                let w = cluster_weight(&tree, a, b);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&w));
                let brute = ws.expectation(|world| {
                    match (world.value_of(a), world.value_of(b)) {
                        (Some(x), Some(y)) => f64::from(x == y),
                        _ => 0.0,
                    }
                });
                prop_assert!(approx_eq_eps(w, brute, 1e-9));
            }
        }
    }
}
