//! Deterministic small-instance fixtures for oracle conformance tests.
//!
//! Every fixture is a pure function of its `seed`, built on the
//! [`cpdb_workloads`] generators, with sizes chosen so that the brute-force
//! oracles in [`cpdb_consensus::oracle`] (possible-world enumeration,
//! ordered Top-k candidate enumeration, set-partition enumeration) remain
//! comfortably cheap. Varying the seed varies both the drawn probabilities
//! *and* the instance shape, so a seed sweep covers a spread of sizes.

use cpdb_andxor::{AndXorTree, AndXorTreeBuilder};
use cpdb_consensus::aggregate::GroupByInstance;
use cpdb_model::{BidDb, TupleIndependentDb};
use cpdb_workloads::distributions::{ProbabilityDistribution, ScoreDistribution};
use cpdb_workloads::generators::{
    random_andxor_tree, random_bid_db, random_clustering_tree, random_groupby_instance,
    random_tuple_independent, AndXorTreeConfig, BidConfig, ClusteringConfig, GroupByConfig,
    TupleIndependentConfig,
};

/// A small tuple-independent relation: 4–7 tuples, probabilities bounded
/// away from 0 and 1, distinct scores in `[0, 100)`.
pub fn small_tuple_independent(seed: u64) -> TupleIndependentDb {
    random_tuple_independent(&TupleIndependentConfig {
        num_tuples: 4 + (seed % 4) as usize,
        probabilities: ProbabilityDistribution::Uniform { lo: 0.05, hi: 0.95 },
        scores: ScoreDistribution::Uniform { lo: 0.0, hi: 100.0 },
        seed,
    })
}

/// A small BID relation: 2–4 blocks of 1–2 alternatives, with a substantial
/// fraction of "maybe" blocks so short worlds occur.
pub fn small_bid(seed: u64) -> BidDb {
    random_bid_db(&BidConfig {
        num_blocks: 2 + (seed % 3) as usize,
        alternatives_per_block: 1 + (seed % 2) as usize,
        maybe_fraction: 0.4,
        scores: ScoreDistribution::Uniform { lo: 0.0, hi: 100.0 },
        seed,
    })
}

/// The and/xor tree of [`small_bid`].
pub fn small_bid_tree(seed: u64) -> AndXorTree {
    cpdb_andxor::convert::from_bid(&small_bid(seed))
        .expect("generated BID relations satisfy the tree constraints")
}

/// The and/xor tree of [`small_tuple_independent`].
pub fn small_tuple_independent_tree(seed: u64) -> AndXorTree {
    cpdb_andxor::convert::from_tuple_independent(&small_tuple_independent(seed))
        .expect("tuple-independent relations always convert")
}

/// A small group-by count instance: 5–7 tuples over 2–3 groups, skewed.
pub fn small_groupby(seed: u64) -> GroupByInstance {
    let probs = random_groupby_instance(&GroupByConfig {
        num_tuples: 5 + (seed % 3) as usize,
        num_groups: 2 + (seed % 2) as usize,
        skew: 0.5 + (seed % 3) as f64 * 0.5,
        seed,
    });
    GroupByInstance::new(probs).expect("generated rows are normalised distributions")
}

/// A small clustering instance: 5–7 tuples over 2–3 latent values, with
/// absence, well inside the 10-key brute-force partition limit.
pub fn small_clustering_tree(seed: u64) -> AndXorTree {
    random_clustering_tree(&ClusteringConfig {
        num_tuples: 5 + (seed % 3) as usize,
        num_values: 2 + (seed % 2) as usize,
        cohesion: 0.55 + (seed % 4) as f64 * 0.1,
        absence: 0.15,
        seed,
    })
}

/// A small nested and/xor tree: 5–7 leaves under two or three alternating
/// ∨/∧ layers of fan-out 2–3, so ∨ and ∧ nodes sit above leaves of several
/// keys — the general (non-BID) shape.
pub fn small_nested_tree(seed: u64) -> AndXorTree {
    random_andxor_tree(&AndXorTreeConfig {
        num_leaves: 5 + (seed % 3) as usize,
        depth: 2 + (seed % 2) as usize,
        fanout: 2 + (seed % 2) as usize,
        scores: ScoreDistribution::Uniform { lo: 0.0, hi: 100.0 },
        seed,
    })
}

/// Degenerate trees for the Jaccard scan, each labelled: the empty relation,
/// a single tuple, certain tuples and blocks (`Σp = 1`), a ∨ node whose mass
/// exceeds 1 inside the builder's `1 + 1e-9` tolerance, tied marginals, and
/// one alternative stored on several leaves.
pub fn jaccard_edge_trees() -> Vec<(&'static str, AndXorTree)> {
    let ti = |triples: &[(u64, f64, f64)]| {
        let db = TupleIndependentDb::from_triples(triples).expect("valid triples");
        cpdb_andxor::convert::from_tuple_independent(&db)
            .expect("tuple-independent relations convert")
    };
    let bid = |blocks: &[(u64, &[(f64, f64)])]| {
        let blocks = blocks
            .iter()
            .map(|(key, alts)| cpdb_model::BidBlock::from_pairs(*key, alts).expect("valid block"))
            .collect();
        let db = BidDb::new(blocks).expect("distinct blocks");
        cpdb_andxor::convert::from_bid(&db).expect("BID relations convert")
    };
    let build = |f: &dyn Fn(&mut AndXorTreeBuilder) -> cpdb_andxor::NodeId| {
        let mut b = AndXorTreeBuilder::new();
        let root = f(&mut b);
        b.build(root)
            .expect("edge tree satisfies the tree constraints")
    };
    vec![
        ("empty", ti(&[])),
        ("single tuple", ti(&[(1, 1.0, 0.4)])),
        ("single certain tuple", ti(&[(1, 1.0, 1.0)])),
        (
            "certain tuples and blocks",
            bid(&[
                (1, &[(10.0, 0.6), (11.0, 0.4)]),
                (2, &[(20.0, 1.0)]),
                (3, &[(30.0, 0.3)]),
            ]),
        ),
        (
            "xor mass inside tolerance",
            build(&|b| {
                let a = b.leaf_parts(1, 1.0);
                let c = b.leaf_parts(1, 2.0);
                let x1 = b.xor_node(vec![(a, 0.7), (c, 0.3 + 5e-10)]);
                let d = b.leaf_parts(2, 3.0);
                let x2 = b.xor_node(vec![(d, 0.45)]);
                b.and_node(vec![x1, x2])
            }),
        ),
        (
            "tied marginals",
            ti(&[(1, 1.0, 0.5), (2, 2.0, 0.5), (3, 3.0, 0.5), (4, 4.0, 0.25)]),
        ),
        (
            "tied block alternatives",
            bid(&[(1, &[(10.0, 0.5), (11.0, 0.5)]), (2, &[(20.0, 0.5)])]),
        ),
        (
            "one alternative on several leaves",
            build(&|b| {
                // (1, 1.0) sits on three leaves under one ∨, inside two ∧
                // bundles and alone; the ∧ root adds an independent tuple.
                let w1 = {
                    let l1 = b.leaf_parts(1, 1.0);
                    let l2 = b.leaf_parts(2, 2.0);
                    b.and_node(vec![l1, l2])
                };
                let w2 = {
                    let l1 = b.leaf_parts(1, 1.0);
                    let l3 = b.leaf_parts(3, 3.0);
                    b.and_node(vec![l1, l3])
                };
                let alone = b.leaf_parts(1, 1.0);
                let x = b.xor_node(vec![(w1, 0.4), (w2, 0.35), (alone, 0.15)]);
                let l4 = b.leaf_parts(4, 4.0);
                let x4 = b.xor_node(vec![(l4, 0.7)]);
                b.and_node(vec![x, x4])
            }),
        ),
        (
            "figure 1(iii)",
            cpdb_andxor::figure1::figure1_correlated_tree(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpdb_model::WorldModel;

    #[test]
    fn fixtures_are_deterministic_per_seed() {
        for seed in 0..6 {
            assert_eq!(small_tuple_independent(seed), small_tuple_independent(seed));
            assert_eq!(small_bid(seed), small_bid(seed));
            assert_eq!(
                small_groupby(seed).probabilities(),
                small_groupby(seed).probabilities()
            );
        }
    }

    #[test]
    fn fixtures_stay_within_oracle_budgets() {
        for seed in 0..12 {
            assert!(small_tuple_independent(seed).len() <= 7);
            let bid_tree = small_bid_tree(seed);
            assert!(bid_tree.keys().len() <= 4);
            assert!(bid_tree.enumerate_worlds().len() <= 81);
            assert!(small_groupby(seed).num_tuples() <= 7);
            assert!(small_clustering_tree(seed).keys().len() <= 7);
        }
    }

    #[test]
    fn fixtures_vary_across_seeds() {
        assert_ne!(small_tuple_independent(1), small_tuple_independent(2));
        assert_ne!(
            small_groupby(1).probabilities(),
            small_groupby(2).probabilities()
        );
    }
}
