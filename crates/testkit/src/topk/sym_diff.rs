//! The checks of `cpdb_consensus::topk::sym_diff` against the brute-force
//! [`oracle`](crate::oracle).

mod tests {
    use crate::oracle;
    use crate::topk::independent_tree;
    use cpdb_andxor::figure1::figure1_correlated_tree;
    use cpdb_consensus::topk::sym_diff::{expected_sym_diff_distance, mean_topk_sym_diff};
    use cpdb_consensus::TopKContext;
    use cpdb_model::WorldModel;

    #[test]
    fn theorem3_matches_brute_force_on_independent_tuples() {
        let tree = independent_tree(&[
            (1, 90.0, 0.3),
            (2, 80.0, 0.9),
            (3, 70.0, 0.6),
            (4, 60.0, 0.7),
            (5, 50.0, 0.2),
        ]);
        for k in 1..=3 {
            let ctx = TopKContext::new(&tree, k);
            let mean = mean_topk_sym_diff(&ctx).unwrap();
            let ws = tree.enumerate_worlds();
            let items: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
            let (_, brute_cost) = oracle::brute_force_mean_topk(&items, k, &ws, |a, b| {
                oracle::sym_diff_distance_fixed_k(k, a, b)
            });
            let closed = expected_sym_diff_distance(&ctx, &mean);
            let direct = oracle::expected_topk_distance(&mean, &ws, k, |a, b| {
                oracle::sym_diff_distance_fixed_k(k, a, b)
            });
            assert!(
                (closed - direct).abs() < 1e-9,
                "k={k}: closed form {closed} vs direct {direct}"
            );
            assert!(
                (closed - brute_cost).abs() < 1e-9,
                "k={k}: algorithm {closed} vs brute force {brute_cost}"
            );
        }
    }

    #[test]
    fn theorem3_matches_brute_force_on_correlated_tree() {
        let tree = figure1_correlated_tree();
        for k in 1..=3 {
            let ctx = TopKContext::new(&tree, k);
            let mean = mean_topk_sym_diff(&ctx).unwrap();
            let ws = tree.enumerate_worlds();
            let items: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
            let (_, brute_cost) = oracle::brute_force_mean_topk(&items, k, &ws, |a, b| {
                oracle::sym_diff_distance_fixed_k(k, a, b)
            });
            let cost = expected_sym_diff_distance(&ctx, &mean);
            assert!(
                (cost - brute_cost).abs() < 1e-9,
                "k={k}: algorithm {cost} vs brute force {brute_cost}"
            );
        }
    }
}
