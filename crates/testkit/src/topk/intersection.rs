//! The checks of `cpdb_consensus::topk::intersection` against the brute-force
//! [`oracle`](crate::oracle).

mod tests {
    use crate::oracle;
    use crate::topk::tree_small;
    use cpdb_andxor::figure1::figure1_correlated_tree;
    use cpdb_consensus::topk::intersection::{
        expected_intersection_distance, mean_topk_intersection,
    };
    use cpdb_consensus::TopKContext;
    use cpdb_model::WorldModel;
    use cpdb_rankagg::metrics::intersection_metric;
    use cpdb_rankagg::TopKList;

    #[test]
    fn expected_distance_formula_matches_enumeration() {
        let tree = tree_small();
        let ws = tree.enumerate_worlds();
        for k in 1..=3 {
            let ctx = TopKContext::new(&tree, k);
            let candidates = [
                TopKList::new((1..=k as u64).collect()).unwrap(),
                TopKList::new((1..=k as u64).rev().collect()).unwrap(),
            ];
            for cand in &candidates {
                let formula = expected_intersection_distance(&ctx, cand);
                let direct = oracle::expected_topk_distance(cand, &ws, k, intersection_metric);
                assert!(
                    (formula - direct).abs() < 1e-9,
                    "k={k} cand={cand}: formula {formula} vs direct {direct}"
                );
            }
        }
    }

    #[test]
    fn assignment_answer_matches_brute_force() {
        let tree = tree_small();
        let ws = tree.enumerate_worlds();
        let items: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
        for k in 1..=3 {
            let ctx = TopKContext::new(&tree, k);
            let mean = mean_topk_intersection(&ctx).unwrap();
            let cost = expected_intersection_distance(&ctx, &mean);
            let (_, brute_cost) =
                oracle::brute_force_mean_topk(&items, k, &ws, intersection_metric);
            assert!(
                (cost - brute_cost).abs() < 1e-9,
                "k={k}: assignment {cost} vs brute force {brute_cost}"
            );
        }
    }

    #[test]
    fn assignment_answer_matches_brute_force_on_correlated_tree() {
        let tree = figure1_correlated_tree();
        let ws = tree.enumerate_worlds();
        let items: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
        for k in 1..=3 {
            let ctx = TopKContext::new(&tree, k);
            let mean = mean_topk_intersection(&ctx).unwrap();
            let cost = expected_intersection_distance(&ctx, &mean);
            let (_, brute_cost) =
                oracle::brute_force_mean_topk(&items, k, &ws, intersection_metric);
            assert!(
                (cost - brute_cost).abs() < 1e-9,
                "k={k}: assignment {cost} vs brute force {brute_cost}"
            );
        }
    }
}
