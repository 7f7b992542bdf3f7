//! The checks of `cpdb_consensus::set_distance` against the brute-force
//! [`oracle`](crate::oracle).

mod tests {
    use crate::oracle;
    use cpdb_andxor::convert::from_bid;
    use cpdb_andxor::figure1::{figure1_bid, figure1_correlated_tree};
    use cpdb_andxor::AndXorTreeBuilder;
    use cpdb_consensus::set_distance::*;
    use cpdb_model::{Alternative, TupleIndependentDb, WorldModel};

    #[test]
    fn theorem2_matches_brute_force_on_independent_tuples() {
        let db = TupleIndependentDb::from_triples(&[
            (1, 1.0, 0.9),
            (2, 2.0, 0.55),
            (3, 3.0, 0.5),
            (4, 4.0, 0.1),
        ])
        .unwrap();
        let tree = cpdb_andxor::convert::from_tuple_independent(&db).unwrap();
        let mean = mean_world(&tree);
        assert!(mean.contains(&Alternative::new(1, 1.0)));
        assert!(mean.contains(&Alternative::new(2, 2.0)));
        assert!(!mean.contains(&Alternative::new(3, 3.0))); // exactly 0.5 is excluded
        assert!(!mean.contains(&Alternative::new(4, 4.0)));

        let ws = db.enumerate_worlds();
        let (brute, brute_cost) =
            oracle::brute_force_mean_world(&ws, |a, b| a.symmetric_difference(b) as f64);
        let closed_cost = expected_distance(&tree, &mean);
        assert!((closed_cost - brute_cost).abs() < 1e-9);
        // The brute-force optimum has the same cost (it may differ on the
        // probability-exactly-½ tuple, which is cost-neutral).
        assert!(
            (oracle::expected_world_distance(&brute, &ws, |a, b| a.symmetric_difference(b) as f64)
                - closed_cost)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn theorem2_matches_brute_force_on_figure1_bid() {
        let tree = from_bid(&figure1_bid()).unwrap();
        let mean = mean_world(&tree);
        let ws = tree.enumerate_worlds();
        let (_, brute_cost) =
            oracle::brute_force_mean_world(&ws, |a, b| a.symmetric_difference(b) as f64);
        assert!((expected_distance(&tree, &mean) - brute_cost).abs() < 1e-9);
        // Only (t3, 9) has marginal probability > 1/2 in Figure 1(i).
        assert_eq!(mean.alternatives(), &[Alternative::new(3, 9.0)]);
    }

    #[test]
    fn corollary1_median_equals_mean_and_is_possible_for_andxor() {
        // A tree with coexistence correlations: the majority set must still be
        // a possible world.
        let mut b = AndXorTreeBuilder::new();
        let l1 = b.leaf_parts(1, 1.0);
        let l2 = b.leaf_parts(2, 2.0);
        let pair = b.and_node(vec![l1, l2]);
        let l3 = b.leaf_parts(3, 3.0);
        let x1 = b.xor_node(vec![(pair, 0.8)]);
        let x2 = b.xor_node(vec![(l3, 0.4)]);
        let root = b.and_node(vec![x1, x2]);
        let tree = b.build(root).unwrap();

        let median = median_world(&tree);
        let ws = tree.enumerate_worlds();
        assert!(
            ws.worlds().iter().any(|(w, p)| *p > 0.0 && *w == median),
            "median {median} must be a possible world"
        );
        let (brute, brute_cost) =
            oracle::brute_force_median_world(&ws, |a, b| a.symmetric_difference(b) as f64);
        assert!(
            (expected_distance(&tree, &median) - brute_cost).abs() < 1e-9,
            "median {median} vs brute {brute}"
        );
    }

    #[test]
    fn corollary1_on_figure1_correlated_tree() {
        let tree = figure1_correlated_tree();
        let median = median_world(&tree);
        let ws = tree.enumerate_worlds();
        let (_, brute_cost) =
            oracle::brute_force_median_world(&ws, |a, b| a.symmetric_difference(b) as f64);
        // No alternative has probability > 1/2 in Figure 1(iii) (max is 0.4),
        // so the mean world is empty...
        assert!(median.is_empty());
        // ...and the brute-force median over possible worlds has expected
        // distance at least the mean world's (the mean is a lower bound over
        // all worlds).
        assert!(expected_distance(&tree, &median) <= brute_cost + 1e-9);
    }
}
