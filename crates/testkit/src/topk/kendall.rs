//! The checks of `cpdb_consensus::topk::kendall` against the brute-force
//! [`oracle`](crate::oracle).

mod tests {
    use crate::oracle;
    use crate::topk::independent_tree;
    use cpdb_andxor::figure1::figure1_correlated_tree;
    use cpdb_andxor::AndXorTree;
    use cpdb_consensus::topk::footrule::mean_topk_footrule;
    use cpdb_consensus::topk::kendall::{expected_kendall_distance, mean_topk_kendall};
    use cpdb_consensus::TopKContext;
    use cpdb_model::WorldModel;
    use cpdb_rankagg::metrics::kendall_tau_topk;
    use cpdb_rankagg::TopKList;

    fn tree_small() -> AndXorTree {
        independent_tree(&[
            (1, 90.0, 0.4),
            (2, 80.0, 0.9),
            (3, 70.0, 0.6),
            (4, 60.0, 0.8),
        ])
    }

    #[test]
    fn footrule_answer_is_within_factor_two_of_brute_force() {
        let tree = tree_small();
        let ws = tree.enumerate_worlds();
        let items: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
        for k in 1..=3 {
            let ctx = TopKContext::new(&tree, k);
            let answer = mean_topk_footrule(&ctx).unwrap();
            let cost = oracle::expected_topk_distance(&answer, &ws, k, kendall_tau_topk);
            let (_, opt_cost) = oracle::brute_force_mean_topk(&items, k, &ws, kendall_tau_topk);
            assert!(
                cost <= 2.0 * opt_cost + 1e-9,
                "k={k}: footrule answer {cost} vs optimal {opt_cost}"
            );
        }
    }

    #[test]
    fn exact_distance_matches_enumeration() {
        for tree in [tree_small(), figure1_correlated_tree()] {
            let n = tree.keys().len();
            let ws = tree.enumerate_worlds();
            for k in 0..=n + 1 {
                let ctx = TopKContext::new(&tree, k);
                for items in [vec![], vec![2], vec![2, 4], vec![4, 3, 1], vec![1, 2, 3, 4]] {
                    let candidate = TopKList::new(items).unwrap();
                    let exact = expected_kendall_distance(&tree, &ctx, &candidate);
                    let enumerated =
                        oracle::expected_topk_distance(&candidate, &ws, k, kendall_tau_topk);
                    assert!(
                        (exact - enumerated).abs() < 1e-12,
                        "k={k} {candidate:?}: exact {exact} vs enumerated {enumerated}"
                    );
                }
            }
        }
    }

    /// A pool wider than the list, with correlated keys: the served answer
    /// against enumeration, the footrule answer and the optimum.
    fn wide_tree() -> AndXorTree {
        independent_tree(&[
            (1, 90.0, 0.35),
            (2, 85.0, 0.9),
            (3, 80.0, 0.55),
            (4, 75.0, 0.7),
            (5, 70.0, 0.45),
            (6, 65.0, 0.8),
            (7, 60.0, 0.3),
        ])
    }

    #[test]
    fn served_answer_is_exact_and_no_worse_than_footrule() {
        for tree in [tree_small(), figure1_correlated_tree(), wide_tree()] {
            let ws = tree.enumerate_worlds();
            let items: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
            for k in 1..=items.len().min(4) {
                let ctx = TopKContext::new(&tree, k);
                let (answer, distance) = mean_topk_kendall(&tree, &ctx).unwrap();
                assert_eq!(answer.len(), k.min(items.len()));
                let enumerated = oracle::expected_topk_distance(&answer, &ws, k, kendall_tau_topk);
                assert!(
                    (distance - enumerated).abs() < 1e-12,
                    "k={k} {answer:?}: table {distance} vs enumerated {enumerated}"
                );
                let footrule = mean_topk_footrule(&ctx).unwrap();
                let footrule_cost = expected_kendall_distance(&tree, &ctx, &footrule);
                assert!(distance <= footrule_cost + 1e-12, "k={k}");
                let (_, opt) = oracle::brute_force_mean_topk(&items, k, &ws, kendall_tau_topk);
                assert!(distance <= 2.0 * opt + 1e-9, "k={k}: {distance} vs {opt}");
            }
        }
    }
}
