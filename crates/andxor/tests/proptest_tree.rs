//! Property-based tests for the and/xor tree: generating-function
//! probabilities must agree with exhaustive enumeration on every randomly
//! generated tree.

use cpdb_andxor::{AndXorTree, AndXorTreeBuilder};
use cpdb_genfunc::approx_eq_eps;
use cpdb_model::{TupleKey, WorldModel};
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

    /// The world-size generating function matches enumeration coefficient by
    /// coefficient (Theorem 1 / Example 1).
    #[test]
    fn size_distribution_matches_enumeration(tree in random_tree()) {
        let dist = tree.world_size_distribution();
        let ws = tree.enumerate_worlds();
        prop_assert!(approx_eq_eps(dist.total_mass(), 1.0, 1e-9));
        let max_size = tree.keys().len();
        for size in 0..=max_size {
            let brute: f64 = ws
                .worlds()
                .iter()
                .filter(|(w, _)| w.len() == size)
                .map(|(_, p)| *p)
                .sum();
            prop_assert!(approx_eq_eps(dist.coeff(size), brute, 1e-9),
                "size {}: {} vs {}", size, dist.coeff(size), brute);
        }
    }

    /// Bottom-up marginal probabilities match enumeration (and therefore the
    /// tree's sampling semantics).
    #[test]
    fn marginals_match_enumeration(tree in random_tree()) {
        let ws = tree.enumerate_worlds();
        for (key, p) in tree.key_presence_probabilities() {
            prop_assert!(approx_eq_eps(ws.marginal_key(key), p, 1e-9));
        }
        for (alt, p) in tree.alternative_probabilities() {
            prop_assert!(approx_eq_eps(ws.marginal(&alt), p, 1e-9));
        }
    }

    /// Sampling respects the enumerated distribution of a chosen statistic
    /// (here: the size of the sampled world), within Monte-Carlo tolerance.
    #[test]
    fn sampling_matches_expected_size(tree in random_tree()) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let expected = tree.world_size_distribution().expectation();
        let samples = 4_000;
        let mut total = 0usize;
        for _ in 0..samples {
            total += tree.sample_world(&mut rng).len();
        }
        let mean = total as f64 / samples as f64;
        prop_assert!((mean - expected).abs() < 0.25,
            "sampled mean size {} vs expected {}", mean, expected);
    }

}

/// Deterministic regression: a three-level nested tree mixing ∧ under ∨
/// under ∧ (deeper than the random strategy generates).
#[test]
fn deep_nested_tree_probabilities_match_enumeration() {
    let mut b = AndXorTreeBuilder::new();
    // ∧( ∨(0.5 → ∧(t1, ∨(t2:0.4, t3... wait keys must differ under ∧)),
    //      0.3 → t4),
    //    ∨(0.9 → t5) )
    let t1 = b.leaf_parts(1, 10.0);
    let t2a = b.leaf_parts(2, 20.0);
    let t2b = b.leaf_parts(2, 25.0);
    let inner_xor = b.xor_node(vec![(t2a, 0.4), (t2b, 0.5)]);
    let bundle = b.and_node(vec![t1, inner_xor]);
    let t4 = b.leaf_parts(4, 40.0);
    let left = b.xor_node(vec![(bundle, 0.5), (t4, 0.3)]);
    let t5 = b.leaf_parts(5, 50.0);
    let right = b.xor_node(vec![(t5, 0.9)]);
    let root = b.and_node(vec![left, right]);
    let tree = b.build(root).unwrap();

    let ws = tree.enumerate_worlds();
    let probs = tree.key_presence_probabilities();
    assert!(approx_eq_eps(probs[&TupleKey(1)], 0.5, 1e-12));
    assert!(approx_eq_eps(probs[&TupleKey(2)], 0.5 * 0.9, 1e-12));
    assert!(approx_eq_eps(probs[&TupleKey(4)], 0.3, 1e-12));
    assert!(approx_eq_eps(probs[&TupleKey(5)], 0.9, 1e-12));
    for (k, p) in probs {
        assert!(approx_eq_eps(ws.marginal_key(k), p, 1e-12));
    }
    // t1 and t2 co-exist or t2 absent; t1 never appears with t4.
    for (w, p) in ws.worlds() {
        if *p == 0.0 {
            continue;
        }
        assert!(!(w.contains_key(TupleKey(1)) && w.contains_key(TupleKey(4))));
        if w.contains_key(TupleKey(2)) {
            assert!(w.contains_key(TupleKey(1)));
        }
    }
}
