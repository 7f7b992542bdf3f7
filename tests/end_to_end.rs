//! Cross-crate integration tests: the full pipeline from a probabilistic
//! relation, through the and/xor tree and the generating-function engine, to
//! consensus answers validated against brute-force oracles.

use consensus_pdb::consensus::topk::{footrule, intersection, median_dp, sym_diff};
use consensus_pdb::consensus::{jaccard, oracle, set_distance, TopKContext};
use consensus_pdb::prelude::*;
use consensus_pdb::workloads::{
    random_scored_bid_tree, random_tuple_independent, BidConfig, ProbabilityDistribution,
    ScoreDistribution, TupleIndependentConfig,
};
use cpdb_rankagg::metrics::{footrule_distance, intersection_metric};

/// A small but non-trivial BID workload usable for exhaustive enumeration.
fn small_bid_tree(seed: u64) -> AndXorTree {
    random_scored_bid_tree(&BidConfig {
        num_blocks: 5,
        alternatives_per_block: 2,
        maybe_fraction: 0.4,
        scores: ScoreDistribution::Uniform { lo: 0.0, hi: 100.0 },
        seed,
    })
}

#[test]
fn pipeline_consensus_world_matches_oracle_over_generated_workloads() {
    for seed in 0..4 {
        let db = random_tuple_independent(&TupleIndependentConfig {
            num_tuples: 8,
            probabilities: ProbabilityDistribution::NearHalf,
            scores: ScoreDistribution::Uniform { lo: 0.0, hi: 100.0 },
            seed,
        });
        let tree = consensus_pdb::andxor::convert::from_tuple_independent(&db).unwrap();
        let ws = db.enumerate_worlds();

        // Symmetric difference: Theorem 2.
        let mean = set_distance::mean_world(&tree);
        let (_, brute_cost) =
            oracle::brute_force_mean_world(&ws, |a, b| a.symmetric_difference(b) as f64);
        assert!((set_distance::expected_distance(&tree, &mean) - brute_cost).abs() < 1e-9);

        // Jaccard: Lemmas 1–2.
        let jc = jaccard::mean_world_tuple_independent(&db).unwrap();
        let (_, brute_jaccard) = oracle::brute_force_mean_world(&ws, |a, b| a.jaccard_distance(b));
        assert!((jc.expected_distance - brute_jaccard).abs() < 1e-9);
    }
}

#[test]
fn pipeline_topk_consensus_matches_oracle_over_generated_workloads() {
    for seed in 0..3 {
        let tree = small_bid_tree(seed);
        let ws = tree.enumerate_worlds();
        let items: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
        for k in [1usize, 2, 3] {
            let ctx = TopKContext::new(&tree, k);

            // Theorem 3 (mean, d_Δ).
            let mean = sym_diff::mean_topk_sym_diff(&ctx).unwrap();
            let (_, brute) = oracle::brute_force_mean_topk(&items, k, &ws, |a, b| {
                oracle::sym_diff_distance_fixed_k(k, a, b)
            });
            assert!(
                (sym_diff::expected_sym_diff_distance(&ctx, &mean) - brute).abs() < 1e-9,
                "seed {seed} k {k}: d_Δ mean mismatch"
            );

            // Theorem 4 (median, d_Δ).
            let median = median_dp::median_topk_sym_diff(&tree, &ctx).unwrap();
            let (_, brute_median) = oracle::brute_force_median_topk(&ws, k, |a, b| {
                oracle::sym_diff_distance_fixed_k(k, a, b)
            });
            let median_cost = oracle::expected_topk_distance(&median.answer, &ws, k, |a, b| {
                oracle::sym_diff_distance_fixed_k(k, a, b)
            });
            assert!(
                (median_cost - brute_median).abs() < 1e-9,
                "seed {seed} k {k}: median DP {median_cost} vs brute {brute_median}"
            );

            // §5.3 (mean, intersection metric).
            let inter = intersection::mean_topk_intersection(&ctx);
            let (_, brute_int) = oracle::brute_force_mean_topk(&items, k, &ws, intersection_metric);
            assert!(
                (intersection::expected_intersection_distance(&ctx, &inter) - brute_int).abs()
                    < 1e-9,
                "seed {seed} k {k}: intersection mean mismatch"
            );

            // §5.4 (mean, footrule).
            let foot = footrule::mean_topk_footrule(&ctx);
            let (_, brute_foot) = oracle::brute_force_mean_topk(&items, k, &ws, footrule_distance);
            assert!(
                (footrule::expected_footrule_distance(&ctx, &foot) - brute_foot).abs() < 1e-9,
                "seed {seed} k {k}: footrule mean mismatch"
            );
        }
    }
}

#[test]
fn genfunc_probabilities_match_monte_carlo_on_larger_instances() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let tree = random_scored_bid_tree(&BidConfig {
        num_blocks: 40,
        alternatives_per_block: 2,
        maybe_fraction: 0.3,
        scores: ScoreDistribution::Uniform { lo: 0.0, hi: 100.0 },
        seed: 99,
    });
    let k = 5;
    let ctx = TopKContext::new(&tree, k);
    let mut rng = StdRng::seed_from_u64(123);
    let samples = 20_000;
    let mut hits: std::collections::HashMap<TupleKey, usize> = std::collections::HashMap::new();
    for _ in 0..samples {
        let w = tree.sample_world(&mut rng);
        for alt in w.top_k(k) {
            *hits.entry(alt.key).or_insert(0) += 1;
        }
    }
    // Check the five most likely Top-k members against their sampled rates.
    for (t, p) in ctx.keys_by_topk_probability().into_iter().take(5) {
        let freq = hits.get(&t).copied().unwrap_or(0) as f64 / samples as f64;
        assert!(
            (freq - p).abs() < 0.02,
            "tuple {t}: genfunc {p} vs sampled {freq}"
        );
    }
}

#[test]
fn figure1_reproduction_end_to_end() {
    // Figure 1(i): the world-size generating function.
    let tree_i = consensus_pdb::andxor::figure1::figure1_bid_tree();
    let dist = tree_i.world_size_distribution();
    assert!((dist.coeff(2) - 0.08).abs() < 1e-9);
    assert!((dist.coeff(3) - 0.44).abs() < 1e-9);
    assert!((dist.coeff(4) - 0.48).abs() < 1e-9);

    // Figure 1(ii)/(iii): the correlated tree enumerates to the three listed
    // worlds, and the rank-1 probability of (t3, 6) is 0.3.
    let tree_iii = consensus_pdb::andxor::figure1::figure1_correlated_tree();
    let ws = tree_iii.enumerate_worlds();
    assert_eq!(ws.support_size(), 3);
    let pmf = cpdb_testkit::rank::rank_pmf(&tree_iii, TupleKey(3), 1);
    assert!((pmf[0] - 0.6).abs() < 1e-9); // both alternatives of t3 can be first
}

#[test]
fn median_dp_beats_or_matches_every_sampled_world_answer() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    // On a moderately sized instance (too big to enumerate candidates
    // exhaustively) the DP answer should not be beaten by the Top-k answer of
    // any sampled world — a necessary condition for being the median.
    let tree = small_bid_tree(7);
    let k = 2;
    let ctx = TopKContext::new(&tree, k);
    let median = median_dp::median_topk_sym_diff(&tree, &ctx).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..200 {
        let w = tree.sample_world(&mut rng);
        let candidate = oracle::world_topk(&w, k);
        let cand_cost = sym_diff::expected_sym_diff_distance(&ctx, &candidate);
        assert!(
            median.expected_distance <= cand_cost + 1e-9,
            "sampled world answer {candidate} (cost {cand_cost}) beats the DP median {} ({})",
            median.answer,
            median.expected_distance
        );
    }
}

#[test]
fn aggregate_and_clustering_consensus_end_to_end() {
    use consensus_pdb::consensus::aggregate::GroupByInstance;
    use consensus_pdb::consensus::clustering::{
        brute_force_clustering, pivot_clustering_best_of, CoClusteringWeights,
    };
    use consensus_pdb::workloads::{
        random_clustering_tree, random_groupby_instance, ClusteringConfig, GroupByConfig,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // Aggregates: the rounded answer is a possible answer within 4× of the
    // brute-force median.
    let probs = random_groupby_instance(&GroupByConfig {
        num_tuples: 8,
        num_groups: 3,
        skew: 1.0,
        seed: 3,
    });
    let inst = GroupByInstance::new(probs).unwrap();
    let approx = inst.median_answer_4approx().unwrap();
    let approx_vec: Vec<f64> = approx.counts.iter().map(|&c| c as f64).collect();
    let (_, opt) = inst.median_answer_brute_force();
    assert!(inst.expected_squared_distance(&approx_vec) <= 4.0 * opt + 1e-9);

    // Clustering: pivot consensus within 2× of the brute-force optimum.
    let tree = random_clustering_tree(&ClusteringConfig {
        num_tuples: 7,
        num_values: 3,
        cohesion: 0.8,
        absence: 0.1,
        seed: 11,
    });
    let weights = CoClusteringWeights::from_tree(&tree, 0);
    let mut rng = StdRng::seed_from_u64(13);
    let (_, pivot_cost) = pivot_clustering_best_of(&weights, 32, &mut rng);
    let (_, opt_cost) = brute_force_clustering(&weights);
    assert!(pivot_cost <= 2.0 * opt_cost + 1e-9);
    assert!(pivot_cost + 1e-9 >= opt_cost);
}
