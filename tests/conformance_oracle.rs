//! The repo's standing conformance suite: every consensus algorithm is
//! cross-checked against brute-force possible-worlds enumeration on seeded
//! small instances (see `cpdb_testkit`). Exact algorithms must match the
//! enumerated optimum to 1e-9; approximation algorithms must respect their
//! proven factors and never beat the oracle.
//!
//! Any future refactor, optimisation, or re-architecture of the consensus
//! algorithms must keep this suite green — it pins the paper's theorems to
//! executable checks, independently of the per-crate unit tests.

use consensus_pdb::andxor::AndXorTree;
use consensus_pdb::workloads::{
    random_andxor_tree, random_scored_bid_tree, AndXorTreeConfig, BidConfig, ScoreDistribution,
};
use cpdb_testkit::conformance::{self, run_seed};
use cpdb_testkit::fixtures;

/// The seed sweep: 16 deterministic fixture families covering 4–7 tuple
/// instances, 2–4 block BID relations, 2–3 group aggregates, and 5–7 tuple
/// clustering instances of varying cohesion.
const SEEDS: std::ops::Range<u64> = 0..16;

#[test]
fn full_conformance_sweep() {
    let mut total_checks = 0;
    for seed in SEEDS {
        let summary = run_seed(seed);
        assert!(
            summary.checks >= 40,
            "seed {seed} ran only {} checks — a fixture degenerated",
            summary.checks
        );
        total_checks += summary.checks;
    }
    // A shrinking count means checks were silently dropped, not just moved.
    assert!(
        total_checks >= 16 * 40,
        "conformance sweep shrank to {total_checks} total checks"
    );
}

#[test]
fn set_and_jaccard_checks_run_on_larger_independent_instances() {
    // One deliberately larger tuple-independent instance (seed chosen to hit
    // the 7-tuple ceiling) exercises the oracles near their budget.
    for seed in [3, 7, 11] {
        conformance::check_set_consensus(&fixtures::small_tuple_independent_tree(seed));
        conformance::check_jaccard(&fixtures::small_tuple_independent(seed));
    }
}

#[test]
fn jaccard_scan_matches_the_oracle_and_reference_on_edge_trees() {
    for (label, tree) in fixtures::jaccard_edge_trees() {
        assert!(
            conformance::check_jaccard_tree(label, &tree) > 0,
            "{label}: no Jaccard checks ran"
        );
    }
}

#[test]
fn topk_checks_cover_k_beyond_instance_size() {
    // k larger than the number of keys must degrade gracefully (k is clamped
    // inside the checks) and still verify optimality.
    let tree = fixtures::small_bid_tree(1);
    assert!(conformance::check_topk_means(&tree, 10) > 0);
    assert!(conformance::check_topk_median_dp(&tree, 10) > 0);
}

/// A tree of independent blocks, one per `(key, [(score, probability)])`
/// x-tuple.
fn xtuple_tree(blocks: &[(u64, &[(f64, f64)])]) -> AndXorTree {
    let mut b = consensus_pdb::andxor::AndXorTreeBuilder::new();
    let mut xors = Vec::new();
    for &(key, alternatives) in blocks {
        let edges = alternatives
            .iter()
            .map(|&(score, p)| (b.leaf_parts(key, score), p))
            .collect();
        xors.push(b.xor_node(edges));
    }
    let root = b.and_node(xors);
    b.build(root).expect("a valid tree")
}

#[test]
fn exact_kendall_distance_matches_the_oracle_on_degenerate_inputs() {
    let mut b = consensus_pdb::andxor::AndXorTreeBuilder::new();
    let single = b.leaf_parts(7, 1.0);
    let single = b.build(single).expect("a one-leaf tree");
    let trees: Vec<(&str, AndXorTree)> = vec![
        // Equal scores across keys: the smaller key out-ranks.
        (
            "tied scores",
            xtuple_tree(&[
                (1, &[(5.0, 0.6)]),
                (2, &[(5.0, 0.7), (3.0, 0.2)]),
                (3, &[(5.0, 0.5)]),
                (4, &[(3.0, 0.9)]),
            ]),
        ),
        ("n = 1, present", single),
        ("n = 1, maybe", xtuple_tree(&[(3, &[(2.0, 0.4)])])),
        (
            "keys with presence 1",
            xtuple_tree(&[
                (1, &[(9.0, 1.0)]),
                (2, &[(8.0, 0.5), (1.0, 0.5)]),
                (3, &[(4.0, 0.3)]),
            ]),
        ),
        (
            "multi-alternative x-tuples",
            xtuple_tree(&[
                (1, &[(95.0, 0.3), (40.0, 0.5), (10.0, 0.1)]),
                (2, &[(80.0, 0.6), (55.0, 0.2)]),
                (3, &[(70.0, 0.35), (45.0, 0.35), (20.0, 0.3)]),
                (4, &[(60.0, 0.45)]),
            ]),
        ),
        (
            "figure 1 correlated",
            consensus_pdb::andxor::figure1::figure1_correlated_tree(),
        ),
    ];
    let random = [2, 3].into_iter().flat_map(|depth| {
        (0..3).map(move |seed| {
            let tree = random_andxor_tree(&AndXorTreeConfig {
                num_leaves: 7,
                depth,
                fanout: 2,
                seed,
                ..AndXorTreeConfig::default()
            });
            ("random and/xor", tree)
        })
    });
    for (label, tree) in trees.into_iter().chain(random) {
        let n = tree.keys().len();
        let checks: usize = (1..=n + 2)
            .map(|k| conformance::check_kendall_exact(&tree, k))
            .sum();
        assert!(checks > 0, "{label}: no Kendall checks ran");
    }
}

#[test]
fn median_sweep_matches_the_oracle_on_edge_trees() {
    for (label, tree) in fixtures::jaccard_edge_trees() {
        let checks: usize = (1..=3)
            .map(|k| conformance::check_topk_median_dp(&tree, k))
            .sum();
        assert!(
            checks > 0 || tree.keys().is_empty(),
            "{label}: no median checks ran"
        );
    }
}

#[test]
fn median_sweep_matches_the_reference_with_a_nan_score() {
    // No threshold admits a NaN-scored leaf, so it can only appear in a
    // small world of the unrestricted tree.
    let mut b = consensus_pdb::andxor::AndXorTreeBuilder::new();
    let mut blocks = Vec::new();
    for (key, score, p) in [
        (1, f64::NAN, 0.9),
        (2, 5.0, 0.6),
        (3, 7.0, 0.3),
        (4, 5.0, 0.8),
    ] {
        let leaf = b.leaf_parts(key, score);
        blocks.push(b.xor_node(vec![(leaf, p)]));
    }
    let root = b.and_node(blocks);
    let tree = b.build(root).expect("a valid tree");
    for k in 1..=4 {
        conformance::check_topk_median_reference(&tree, k);
    }
}

/// Tree `j` of the 16 a `serve_mix` load run at seed 1 serves, at `n`
/// blocks: the scored-BID family with 2 alternatives per block, 30% maybe
/// blocks and uniform scores in `[0, 1e6)`.
fn serve_mix_tree(n: usize, j: u64) -> AndXorTree {
    random_scored_bid_tree(&BidConfig {
        num_blocks: n,
        alternatives_per_block: 2,
        maybe_fraction: 0.3,
        scores: ScoreDistribution::Uniform { lo: 0.0, hi: 1e6 },
        seed: 1 ^ j.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    })
}

/// The median sweep against the literal per-threshold program on the
/// serving trees, too large for world enumeration: the same key set, or an
/// objective tie within 1e-12.
fn median_sweep_matches_the_reference_on_serving_trees(n: usize) {
    let mut ties = 0;
    for j in 0..16 {
        let tree = serve_mix_tree(n, j);
        for k in [5, 10] {
            if !conformance::check_topk_median_reference(&tree, k) {
                ties += 1;
                eprintln!("n={n} tree {j} k={k}: different key set, tied objective");
            }
        }
    }
    eprintln!("n={n}: {ties} of 32 answers tie on a different key set");
}

#[test]
fn median_sweep_matches_the_reference_on_serving_trees_n120() {
    median_sweep_matches_the_reference_on_serving_trees(120);
}

/// Slow in a debug build (the reference is `O(n²k²)` with a witness copy
/// per cell); run with
/// `cargo test --release --test conformance_oracle -- --ignored`.
#[test]
#[ignore]
fn median_sweep_matches_the_reference_on_serving_trees_n400() {
    median_sweep_matches_the_reference_on_serving_trees(400);
}

/// On the 16 `serve_mix` trees at k = 5 and 10, the served Kendall answer
/// reports its exact `E[d_K]` and is never worse than the footrule answer
/// it starts from.
#[test]
fn kendall_local_search_is_no_worse_than_footrule_on_serving_trees() {
    for k in [5, 10] {
        let (mut served, mut footrule) = (0.0, 0.0);
        for j in 0..16 {
            let (s, f) = conformance::check_kendall_served(&serve_mix_tree(120, j), k);
            served += s / 16.0;
            footrule += f / 16.0;
        }
        eprintln!("k={k}: mean E[d_K] served {served:.4}, footrule {footrule:.4}");
    }
}

/// The first `k` columns of the rank table at `K = 24` hold the same bits
/// as the table at `k`, for every `k ≤ K`: a truncated convolution never
/// feeds a coefficient above its truncation into one below it. Serving every
/// `k` from one rank context at the largest `k` needs exactly this.
#[test]
fn rank_tables_at_smaller_k_are_bit_identical_prefixes() {
    const K: usize = 24;
    let mut trees: Vec<(String, AndXorTree)> = fixtures::jaccard_edge_trees()
        .into_iter()
        .map(|(label, tree)| (label.to_string(), tree))
        .collect();
    for seed in SEEDS {
        trees.push((format!("bid {seed}"), fixtures::small_bid_tree(seed)));
        trees.push((
            format!("ti {seed}"),
            fixtures::small_tuple_independent_tree(seed),
        ));
        trees.push((
            format!("clustering {seed}"),
            fixtures::small_clustering_tree(seed),
        ));
        trees.push((format!("nested {seed}"), fixtures::small_nested_tree(seed)));
    }
    for seed in 0..3 {
        trees.push((format!("serving n=120, {seed}"), serve_mix_tree(120, seed)));
        let config = AndXorTreeConfig {
            num_leaves: 60,
            depth: 3,
            fanout: 3,
            scores: ScoreDistribution::Uniform { lo: 0.0, hi: 100.0 },
            seed,
        };
        trees.push((format!("depth 3, {seed}"), random_andxor_tree(&config)));
    }
    let mut compared = 0;
    for (label, tree) in &trees {
        let full = tree.batch_rank_pmfs(K);
        for k in 1..=K {
            let table = tree.batch_rank_pmfs(k);
            assert_eq!(table.len() * K, full.len() * k, "{label}: k={k}");
            for (p, row) in table.chunks(k).enumerate() {
                let prefix = &full[p * K..p * K + k];
                let same = row
                    .iter()
                    .zip(prefix)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{label}: row {p} at k={k} is not the k={K} prefix");
            }
            compared += table.len();
        }
    }
    assert!(compared > 100_000, "only {compared} entries compared");
}
