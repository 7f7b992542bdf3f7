//! The checks of `cpdb_consensus::topk::footrule` against the brute-force
//! [`oracle`](crate::oracle).

mod tests {
    use crate::oracle;
    use crate::topk::tree_small;
    use cpdb_andxor::figure1::figure1_correlated_tree;
    use cpdb_consensus::topk::footrule::{expected_footrule_distance, mean_topk_footrule};
    use cpdb_consensus::TopKContext;
    use cpdb_model::WorldModel;
    use cpdb_rankagg::metrics::footrule_distance;
    use cpdb_rankagg::TopKList;

    /// The Figure 2 decomposition must equal the definitional expectation.
    /// This is the computational validation of the paper's Figure 2.
    #[test]
    fn figure2_decomposition_matches_enumeration() {
        let tree = tree_small();
        let ws = tree.enumerate_worlds();
        for k in 1..=3usize {
            let ctx = TopKContext::new(&tree, k);
            let candidates = [
                TopKList::new((1..=k as u64).collect()).unwrap(),
                TopKList::new((1..=k as u64).rev().collect()).unwrap(),
                TopKList::new(((5 - k as u64)..5).collect()).unwrap(),
            ];
            for cand in &candidates {
                let formula = expected_footrule_distance(&ctx, cand);
                let direct = oracle::expected_topk_distance(cand, &ws, k, footrule_distance);
                assert!(
                    (formula - direct).abs() < 1e-9,
                    "k={k} cand={cand}: Figure 2 formula {formula} vs enumeration {direct}"
                );
            }
        }
    }

    #[test]
    fn figure2_decomposition_matches_enumeration_on_correlated_tree() {
        let tree = figure1_correlated_tree();
        let ws = tree.enumerate_worlds();
        for k in 1..=3usize {
            let ctx = TopKContext::new(&tree, k);
            // Candidates over the five keys of Figure 1(ii).
            let candidates = [
                TopKList::new((1..=k as u64).collect()).unwrap(),
                TopKList::new((3..3 + k as u64).collect()).unwrap(),
            ];
            for cand in &candidates {
                let formula = expected_footrule_distance(&ctx, cand);
                let direct = oracle::expected_topk_distance(cand, &ws, k, footrule_distance);
                assert!(
                    (formula - direct).abs() < 1e-9,
                    "k={k} cand={cand}: {formula} vs {direct}"
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
            let mean = mean_topk_footrule(&ctx).unwrap();
            let cost = expected_footrule_distance(&ctx, &mean);
            let (_, brute_cost) = oracle::brute_force_mean_topk(&items, k, &ws, footrule_distance);
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
        for k in 1..=2 {
            let ctx = TopKContext::new(&tree, k);
            let mean = mean_topk_footrule(&ctx).unwrap();
            let cost = expected_footrule_distance(&ctx, &mean);
            let (_, brute_cost) = oracle::brute_force_mean_topk(&items, k, &ws, footrule_distance);
            assert!(
                (cost - brute_cost).abs() < 1e-9,
                "k={k}: assignment {cost} vs brute force {brute_cost}"
            );
        }
    }
}
