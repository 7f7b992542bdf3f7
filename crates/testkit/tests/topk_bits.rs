//! A digest of every Top-k answer the consensus layer gives on a fixed set
//! of trees: each answer's keys and the bits of its expected distance. Any
//! change to a Top-k builder, to the rank context it reads or to the order
//! it ranks by must leave every bit in place; this test fails on the first
//! one that moves. It covers each served (metric, variant) pair, the Υ_H
//! shortcut, and the Global Top-k, PT-k and expected-score baselines, at
//! k = 1..=10, on the conformance seeds' trees and on one n = 120
//! scored-BID tree.

use cpdb_andxor::AndXorTree;
use cpdb_consensus::topk::{footrule, intersection, kendall, median_dp, sym_diff};
use cpdb_consensus::{baselines, TopKContext};
use cpdb_rankagg::TopKList;
use cpdb_testkit::fixtures;
use cpdb_workloads::{random_scored_bid_tree, BidConfig, ScoreDistribution};

/// The FNV-1a hash of every word fed to it, and the number of answers.
struct Digest {
    hash: u64,
    answers: usize,
}

impl Digest {
    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn answer(&mut self, list: &TopKList, distance: f64) {
        self.word(list.len() as u64);
        for &key in list.items() {
            self.word(key);
        }
        self.word(distance.to_bits());
        self.answers += 1;
    }

    /// Every Top-k answer on `tree` at k = 1..=10.
    fn tree(&mut self, tree: &AndXorTree) {
        for k in 1..=10 {
            let ctx = TopKContext::new(tree, k);
            let keys = "context keys are distinct";
            let list = sym_diff::mean_topk_sym_diff(&ctx).expect(keys);
            self.answer(&list, sym_diff::expected_sym_diff_distance(&ctx, &list));
            let median = median_dp::median_topk_sym_diff(tree, &ctx).expect(keys);
            self.answer(&median.answer, median.expected_distance);
            for list in [
                intersection::mean_topk_intersection(&ctx).expect(keys),
                intersection::mean_topk_upsilon_h(&ctx).expect(keys),
            ] {
                self.answer(
                    &list,
                    intersection::expected_intersection_distance(&ctx, &list),
                );
            }
            let list = footrule::mean_topk_footrule(&ctx).expect(keys);
            self.answer(&list, footrule::expected_footrule_distance(&ctx, &list));
            let (list, distance) = kendall::mean_topk_kendall(tree, &ctx).expect(keys);
            self.answer(&list, distance);
            for list in [
                baselines::global_topk(&ctx).expect(keys),
                baselines::ptk_answer(&ctx, 0.5).expect(keys),
                baselines::expected_score_topk(tree, k).expect(keys),
            ] {
                self.answer(&list, sym_diff::expected_sym_diff_distance(&ctx, &list));
            }
        }
    }
}

#[test]
fn topk_answers_keep_their_bits() {
    let mut digest = Digest {
        hash: 0xcbf2_9ce4_8422_2325,
        answers: 0,
    };
    for seed in 0..16 {
        digest.tree(&fixtures::small_bid_tree(seed));
        digest.tree(&fixtures::small_tuple_independent_tree(seed));
        digest.tree(&fixtures::small_nested_tree(seed));
        digest.tree(&fixtures::small_clustering_tree(seed));
    }
    digest.tree(&random_scored_bid_tree(&BidConfig {
        num_blocks: 120,
        alternatives_per_block: 2,
        maybe_fraction: 0.3,
        scores: ScoreDistribution::Uniform { lo: 0.0, hi: 1e6 },
        seed: 1,
    }));
    assert_eq!(digest.answers, 65 * 10 * 9);
    // Computed before the Top-k builders moved from keyed lookups onto row
    // positions; no bit has moved since.
    assert_eq!(
        digest.hash, 0xc973_e7a5_93cc_3159,
        "a Top-k answer or its expected distance changed"
    );
}
