//! The checks of `cpdb_consensus::jaccard` against the brute-force
//! [`oracle`](crate::oracle).

mod tests {
    use crate::oracle;
    use cpdb_consensus::jaccard::*;
    use cpdb_model::{Alternative, BidBlock, BidDb, PossibleWorld, TupleIndependentDb, WorldModel};

    fn jaccard(a: &PossibleWorld, b: &PossibleWorld) -> f64 {
        a.jaccard_distance(b)
    }

    #[test]
    fn lemma1_matches_enumeration() {
        let db = TupleIndependentDb::from_triples(&[
            (1, 1.0, 0.8),
            (2, 2.0, 0.5),
            (3, 3.0, 0.3),
            (4, 4.0, 0.6),
        ])
        .unwrap();
        let tree = cpdb_andxor::convert::from_tuple_independent(&db).unwrap();
        let ws = db.enumerate_worlds();
        let candidates = [
            PossibleWorld::empty(),
            PossibleWorld::new(vec![Alternative::new(1, 1.0)]).unwrap(),
            PossibleWorld::new(vec![Alternative::new(1, 1.0), Alternative::new(4, 4.0)]).unwrap(),
            PossibleWorld::new(vec![
                Alternative::new(1, 1.0),
                Alternative::new(2, 2.0),
                Alternative::new(3, 3.0),
                Alternative::new(4, 4.0),
            ])
            .unwrap(),
        ];
        for cand in &candidates {
            let exact = expected_jaccard_distance(&tree, cand);
            let brute = oracle::expected_world_distance(cand, &ws, jaccard);
            assert!(
                (exact - brute).abs() < 1e-9,
                "candidate {cand}: genfunc {exact} vs enumeration {brute}"
            );
        }
    }

    #[test]
    fn lemma1_matches_enumeration_on_correlated_tree() {
        let tree = cpdb_andxor::figure1::figure1_correlated_tree();
        let ws = tree.enumerate_worlds();
        for (cand, _) in ws.worlds() {
            let exact = expected_jaccard_distance(&tree, cand);
            let brute = oracle::expected_world_distance(cand, &ws, jaccard);
            assert!((exact - brute).abs() < 1e-9);
        }
    }

    #[test]
    fn lemma2_mean_world_matches_brute_force() {
        let db = TupleIndependentDb::from_triples(&[
            (1, 1.0, 0.9),
            (2, 2.0, 0.8),
            (3, 3.0, 0.45),
            (4, 4.0, 0.2),
            (5, 5.0, 0.65),
        ])
        .unwrap();
        let consensus = mean_world_tuple_independent(&db).unwrap();
        let ws = db.enumerate_worlds();
        let (_, brute_cost) = oracle::brute_force_mean_world(&ws, jaccard);
        assert!(
            (consensus.expected_distance - brute_cost).abs() < 1e-9,
            "prefix scan {} vs brute force {brute_cost}",
            consensus.expected_distance
        );
        // The chosen world is a prefix of the probability order.
        assert!(consensus.world.contains(&Alternative::new(1, 1.0)));
        assert!(consensus.world.contains(&Alternative::new(2, 2.0)));
    }

    #[test]
    fn lemma2_prefix_structure_holds_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..8 {
            let n = rng.gen_range(3..8);
            let triples: Vec<(u64, f64, f64)> = (0..n)
                .map(|i| (i as u64, i as f64, rng.gen_range(0.05..0.95)))
                .collect();
            let db = TupleIndependentDb::from_triples(&triples).unwrap();
            let consensus = mean_world_tuple_independent(&db).unwrap();
            let ws = db.enumerate_worlds();
            let (_, brute_cost) = oracle::brute_force_mean_world(&ws, jaccard);
            assert!(
                consensus.expected_distance <= brute_cost + 1e-9,
                "prefix scan {} vs brute force {brute_cost}",
                consensus.expected_distance
            );
        }
    }

    #[test]
    fn bid_median_is_a_possible_world_and_beats_random_candidates() {
        let db = BidDb::new(vec![
            BidBlock::from_pairs(1, &[(10.0, 0.7), (11.0, 0.2)]).unwrap(),
            BidBlock::from_pairs(2, &[(20.0, 0.5), (21.0, 0.5)]).unwrap(),
            BidBlock::from_pairs(3, &[(30.0, 0.3)]).unwrap(),
        ])
        .unwrap();
        let consensus = median_world_bid(&db).unwrap();
        let ws = db.enumerate_worlds();
        // The answer must be a possible world (it only uses one alternative
        // per block).
        assert!(ws
            .worlds()
            .iter()
            .any(|(w, p)| *p > 0.0 && *w == consensus.world));
        // And it should not be beaten by any single-block-best candidate
        // prefix that the algorithm considered.
        let empty_cost = oracle::expected_world_distance(&PossibleWorld::empty(), &ws, jaccard);
        assert!(consensus.expected_distance <= empty_cost + 1e-9);
    }
}
