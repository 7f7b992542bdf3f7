//! The checks of `cpdb_consensus::topk::median_dp` against the brute-force
//! [`oracle`](crate::oracle).

mod tests {
    use crate::oracle;
    use crate::topk::independent_tree;
    use cpdb_andxor::figure1::figure1_correlated_tree;
    use cpdb_andxor::{AndXorTree, AndXorTreeBuilder};
    use cpdb_consensus::topk::median_dp::median_topk_sym_diff;
    use cpdb_consensus::TopKContext;
    use cpdb_model::WorldModel;

    fn assert_matches_brute_force(tree: &AndXorTree, k: usize) {
        let ctx = TopKContext::new(tree, k);
        let median = median_topk_sym_diff(tree, &ctx).unwrap();
        let ws = tree.enumerate_worlds();
        let (brute, brute_cost) = oracle::brute_force_median_topk(&ws, k, |a, b| {
            oracle::sym_diff_distance_fixed_k(k, a, b)
        });
        let direct = oracle::expected_topk_distance(&median.answer, &ws, k, |a, b| {
            oracle::sym_diff_distance_fixed_k(k, a, b)
        });
        assert!(
            (direct - brute_cost).abs() < 1e-9,
            "k={k}: DP answer {} (cost {direct}) vs brute {} (cost {brute_cost})",
            median.answer,
            brute
        );
        // The DP answer must itself be the Top-k answer of a possible world.
        let possible: Vec<_> = ws
            .worlds()
            .iter()
            .filter(|(_, p)| *p > 0.0)
            .map(|(w, _)| {
                let mut keys: Vec<u64> = oracle::world_topk(w, k).items().to_vec();
                keys.sort_unstable();
                keys
            })
            .collect();
        let mut got: Vec<u64> = median.answer.items().to_vec();
        got.sort_unstable();
        assert!(
            possible.contains(&got),
            "answer {got:?} is not the Top-{k} of any possible world"
        );
    }

    #[test]
    fn theorem4_matches_brute_force_on_independent_tuples() {
        let tree = independent_tree(&[
            (1, 90.0, 0.3),
            (2, 80.0, 0.9),
            (3, 70.0, 0.6),
            (4, 60.0, 0.7),
            (5, 50.0, 0.2),
        ]);
        for k in 1..=4 {
            assert_matches_brute_force(&tree, k);
        }
    }

    #[test]
    fn theorem4_matches_brute_force_on_figure1_tree() {
        let tree = figure1_correlated_tree();
        for k in 1..=3 {
            assert_matches_brute_force(&tree, k);
        }
    }

    #[test]
    fn theorem4_matches_brute_force_on_bid_alternatives() {
        // Attribute-level uncertainty: the same tuple has different possible
        // scores, so the threshold loop over distinct values matters.
        let mut b = AndXorTreeBuilder::new();
        let a1 = b.leaf_parts(1, 100.0);
        let a2 = b.leaf_parts(1, 10.0);
        let x1 = b.xor_node(vec![(a1, 0.3), (a2, 0.65)]);
        let b1 = b.leaf_parts(2, 90.0);
        let b2 = b.leaf_parts(2, 20.0);
        let x2 = b.xor_node(vec![(b1, 0.5), (b2, 0.5)]);
        let c1 = b.leaf_parts(3, 50.0);
        let x3 = b.xor_node(vec![(c1, 0.8)]);
        let root = b.and_node(vec![x1, x2, x3]);
        let tree = b.build(root).unwrap();
        for k in 1..=3 {
            assert_matches_brute_force(&tree, k);
        }
    }

    #[test]
    fn theorem4_matches_brute_force_on_random_trees() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..6 {
            let n = rng.gen_range(3..7);
            let specs: Vec<(u64, f64, f64)> = (0..n)
                .map(|i| (i as u64, rng.gen_range(0.0..100.0), rng.gen_range(0.1..1.0)))
                .collect();
            let tree = independent_tree(&specs);
            let k = rng.gen_range(1..=n.min(3));
            assert_matches_brute_force(&tree, k);
            let _ = trial;
        }
    }
}
