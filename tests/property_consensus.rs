//! Property-based tests over randomly generated probabilistic databases:
//! the algorithmic answers must agree with (or bound) the definitional
//! optima computed by brute force, for *every* generated instance.

use consensus_pdb::consensus::topk::{footrule, intersection, sym_diff};
use consensus_pdb::consensus::{jaccard, set_distance, TopKContext};
use consensus_pdb::prelude::*;
use cpdb_rankagg::metrics::{footrule_distance, intersection_metric};
use cpdb_testkit::oracle;
use proptest::prelude::*;

/// Strategy: a small tuple-independent database with distinct scores.
fn small_db() -> impl Strategy<Value = TupleIndependentDb> {
    prop::collection::vec((0.02f64..0.98, 0.0f64..100.0), 1..8).prop_map(|rows| {
        let triples: Vec<(u64, f64, f64)> = rows
            .iter()
            .enumerate()
            .map(|(i, (p, s))| (i as u64, s + i as f64 * 1e-6, *p))
            .collect();
        TupleIndependentDb::from_triples(&triples).expect("valid probabilities")
    })
}

/// Strategy: a small BID database with attribute-level uncertainty.
fn small_bid() -> impl Strategy<Value = BidDb> {
    prop::collection::vec(
        prop::collection::vec((0.05f64..1.0, 0.0f64..100.0), 1..3),
        1..5,
    )
    .prop_map(|blocks| {
        let bid_blocks: Vec<BidBlock> = blocks
            .iter()
            .enumerate()
            .map(|(key, alts)| {
                let total: f64 = alts.iter().map(|(w, _)| *w).sum::<f64>() * 1.3;
                let pairs: Vec<(f64, f64)> = alts
                    .iter()
                    .enumerate()
                    .map(|(j, (w, s))| (s + (key * 10 + j) as f64 * 1e-6, w / total))
                    .collect();
                BidBlock::from_pairs(key as u64, &pairs).expect("normalised")
            })
            .collect();
        BidDb::new(bid_blocks).expect("distinct keys")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 2: the closed-form mean world is never beaten by any other
    /// candidate world under the symmetric-difference distance.
    #[test]
    fn mean_world_is_optimal(db in small_db()) {
        let tree = consensus_pdb::andxor::convert::from_tuple_independent(&db).unwrap();
        let ws = db.enumerate_worlds();
        let mean = set_distance::mean_world(&tree);
        let mean_cost = set_distance::expected_distance(&tree, &mean);
        let (_, brute) = oracle::brute_force_mean_world(&ws, |a, b| a.symmetric_difference(b) as f64);
        prop_assert!((mean_cost - brute).abs() < 1e-9);
    }

    /// Lemma 1 (generating-function Jaccard expectation) agrees with direct
    /// enumeration for arbitrary candidate worlds.
    #[test]
    fn jaccard_expectation_is_exact(db in small_db(), mask in 0u64..256) {
        let tree = consensus_pdb::andxor::convert::from_tuple_independent(&db).unwrap();
        let ws = db.enumerate_worlds();
        let chosen: Vec<Alternative> = db
            .tuples()
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, (a, _))| *a)
            .collect();
        let candidate = PossibleWorld::new(chosen).unwrap();
        let exact = jaccard::expected_jaccard_distance(&tree, &candidate);
        let brute = oracle::expected_world_distance(&candidate, &ws, |a, b| a.jaccard_distance(b));
        prop_assert!((exact - brute).abs() < 1e-9);
    }

    /// Lemma 2: the prefix-scan Jaccard mean world matches brute force.
    #[test]
    fn jaccard_mean_world_is_optimal(db in small_db()) {
        let ws = db.enumerate_worlds();
        let consensus = jaccard::mean_world_tuple_independent(&db).unwrap();
        let (_, brute) = oracle::brute_force_mean_world(&ws, |a, b| a.jaccard_distance(b));
        prop_assert!((consensus.expected_distance - brute).abs() < 1e-9);
    }

    /// Theorem 3: the PT-k style answer is the optimal mean Top-k answer
    /// under the (fixed-k normalised) symmetric-difference metric, for BID
    /// databases with attribute-level uncertainty.
    #[test]
    fn topk_sym_diff_mean_is_optimal(bid in small_bid(), k in 1usize..4) {
        let tree = consensus_pdb::andxor::convert::from_bid(&bid).unwrap();
        let ws = tree.enumerate_worlds();
        let items: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
        let k = k.min(items.len());
        let ctx = TopKContext::new(&tree, k);
        let mean = sym_diff::mean_topk_sym_diff(&ctx).unwrap();
        let cost = sym_diff::expected_sym_diff_distance(&ctx, &mean);
        let (_, brute) = oracle::brute_force_mean_topk(&items, k, &ws, |a, b| {
            oracle::sym_diff_distance_fixed_k(k, a, b)
        });
        prop_assert!((cost - brute).abs() < 1e-9, "cost {} vs brute {}", cost, brute);
    }

    /// §5.3: the assignment-based intersection-metric answer is optimal.
    #[test]
    fn topk_intersection_mean_is_optimal(bid in small_bid(), k in 1usize..3) {
        let tree = consensus_pdb::andxor::convert::from_bid(&bid).unwrap();
        let ws = tree.enumerate_worlds();
        let items: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
        let k = k.min(items.len());
        let ctx = TopKContext::new(&tree, k);
        let mean = intersection::mean_topk_intersection(&ctx).unwrap();
        let cost = intersection::expected_intersection_distance(&ctx, &mean);
        let (_, brute) = oracle::brute_force_mean_topk(&items, k, &ws, intersection_metric);
        prop_assert!((cost - brute).abs() < 1e-9, "cost {} vs brute {}", cost, brute);
    }

    /// §5.4 / Figure 2: the assignment-based footrule answer is optimal and
    /// its closed-form expected distance matches enumeration.
    #[test]
    fn topk_footrule_mean_is_optimal(bid in small_bid(), k in 1usize..3) {
        let tree = consensus_pdb::andxor::convert::from_bid(&bid).unwrap();
        let ws = tree.enumerate_worlds();
        let items: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
        let k = k.min(items.len());
        let ctx = TopKContext::new(&tree, k);
        let mean = footrule::mean_topk_footrule(&ctx).unwrap();
        let closed = footrule::expected_footrule_distance(&ctx, &mean);
        let direct = oracle::expected_topk_distance(&mean, &ws, k, footrule_distance);
        prop_assert!((closed - direct).abs() < 1e-9, "closed {} vs direct {}", closed, direct);
        let (_, brute) = oracle::brute_force_mean_topk(&items, k, &ws, footrule_distance);
        prop_assert!((closed - brute).abs() < 1e-9, "closed {} vs brute {}", closed, brute);
    }

    /// The Υ_H approximation always satisfies its 1/H_k guarantee.
    #[test]
    fn upsilon_h_bound_holds(bid in small_bid(), k in 1usize..4) {
        let tree = consensus_pdb::andxor::convert::from_bid(&bid).unwrap();
        let items = tree.keys();
        let k = k.min(items.len());
        let ctx = TopKContext::new(&tree, k);
        let optimal = intersection::mean_topk_intersection(&ctx).unwrap();
        let approx = intersection::mean_topk_upsilon_h(&ctx).unwrap();
        let a_opt = intersection::objective_a(&ctx, &optimal);
        let a_approx = intersection::objective_a(&ctx, &approx);
        prop_assert!(a_approx + 1e-9 >= a_opt / intersection::harmonic(k));
        prop_assert!(a_approx <= a_opt + 1e-9);
    }

    /// Rank distributions computed by generating functions are proper
    /// (sub-)distributions consistent with presence probabilities.
    #[test]
    fn rank_distributions_are_consistent(bid in small_bid()) {
        let tree = consensus_pdb::andxor::convert::from_bid(&bid).unwrap();
        let n = tree.keys().len();
        let presence = tree.key_presence_probabilities();
        for key in tree.keys() {
            let pmf = cpdb_testkit::rank::rank_pmf(&tree, key, n);
            let total: f64 = pmf.iter().sum();
            prop_assert!(pmf.iter().all(|&p| (-1e-9..=1.0 + 1e-9).contains(&p)));
            prop_assert!((total - presence[&key]).abs() < 1e-9,
                "Σ_i Pr(r = i) = {} but Pr(present) = {}", total, presence[&key]);
        }
    }
}
