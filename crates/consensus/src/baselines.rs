//! Previously proposed Top-k ranking semantics, implemented as baselines.
//!
//! The paper's introduction motivates consensus answers by the proliferation
//! of ad-hoc ranking semantics for probabilistic databases — U-Top-k,
//! Global Top-k, probabilistic-threshold Top-k (PT-k), expected rank,
//! expected score. Experiment E12 compares the answers these semantics give
//! against the consensus answers; this module implements each of them on top
//! of the same and/xor tree infrastructure so the comparison is apples to
//! apples.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::topk::context::{rank_by_score, TopKContext};
use crate::topk::sym_diff::topk_list;
use cpdb_andxor::AndXorTree;
use cpdb_model::{ModelError, TupleKey, WorldModel};
use cpdb_rankagg::TopKList;
use rand::Rng;
use std::collections::HashMap;

/// **Expected score**: rank tuples by `E[score(t) · present(t)]` — the
/// classic "expected value" heuristic that ignores rank semantics entirely.
pub fn expected_score_topk(tree: &AndXorTree, k: usize) -> Result<TopKList, ModelError> {
    let keys = tree.keys();
    let mut scores = vec![0.0; keys.len()];
    for (alt, p) in tree.alternative_probabilities() {
        if let Ok(at) = keys.binary_search(&alt.key) {
            scores[at] += alt.value.0 * p;
        }
    }
    take_topk_by(&keys, scores, k, "expected-score Top-k")
}

/// **PT-k** (probabilistic threshold Top-k, Hua et al.): return every tuple
/// with `Pr(r(t) ≤ k) ≥ threshold`. The result size depends on the threshold;
/// tuples are ordered by the probability. A context naming one key twice is
/// [`ModelError::DuplicateKey`].
pub fn ptk_answer(ctx: &TopKContext, threshold: f64) -> Result<TopKList, ModelError> {
    let ranked = ctx.keys_by_topk_probability();
    topk_list(
        ranked
            .into_iter()
            .take_while(|&(_, p)| p >= threshold)
            .map(|(t, _)| t),
        "PT-k",
    )
}

/// **Global Top-k** (Zhang & Chomicki): the `k` tuples with the highest
/// `Pr(r(t) ≤ k)`. Identical membership to the consensus mean answer under
/// the symmetric-difference metric (Theorem 3) — which is exactly the
/// connection the paper points out. A context naming one key twice is
/// [`ModelError::DuplicateKey`].
pub fn global_topk(ctx: &TopKContext) -> Result<TopKList, ModelError> {
    crate::topk::sym_diff::mean_topk_sym_diff(ctx)
}

/// **Expected rank** (Cormode, Li & Yi): rank tuples by `E[rank_pw(t)]`,
/// where a tuple absent from a world of size `m` is ranked `m` (the
/// convention of the expected-rank paper). Computed by Monte-Carlo sampling,
/// which is how the semantics is typically evaluated at scale.
pub fn expected_rank_topk<R: Rng + ?Sized>(
    tree: &AndXorTree,
    k: usize,
    samples: usize,
    rng: &mut R,
) -> Result<TopKList, ModelError> {
    let keys = tree.keys();
    let totals = rank_totals(tree, &keys, samples.max(1), rng);
    // Lower expected rank is better: negate so the shared order can sort
    // descending.
    let scores = totals
        .into_iter()
        .map(|total| -(total / samples.max(1) as f64))
        .collect();
    take_topk_by(&keys, scores, k, "expected-rank Top-k")
}

/// `Σ rank_pw(t)` over `samples` sampled worlds for each of the sorted
/// `keys`, a key absent from a world of size `m` ranking `m`. Each world is
/// sorted once (value descending, key ascending, as
/// [`PossibleWorld::top_k`](cpdb_model::PossibleWorld::top_k) orders it) and
/// ranks are read off positions: `O(n + m log m)` per sample where a
/// `rank_of` call per key costs `O(n·m)`. The ranks are `rank_of`'s unless
/// a world holds a NaN score or both `0.0` and `−0.0`.
fn rank_totals<R: Rng + ?Sized>(
    tree: &AndXorTree,
    keys: &[TupleKey],
    samples: usize,
    rng: &mut R,
) -> Vec<f64> {
    let mut totals = vec![0.0; keys.len()];
    let mut ranks = vec![0; keys.len()];
    for _ in 0..samples {
        let w = tree.sample_world(rng);
        let m = w.len();
        ranks.fill(m);
        for (position, alt) in w.top_k(m).iter().enumerate() {
            if let Ok(at) = keys.binary_search(&alt.key) {
                ranks[at] = position + 1;
            }
        }
        for (total, &rank) in totals.iter_mut().zip(&ranks) {
            *total += rank as f64;
        }
    }
    totals
}

/// **U-Top-k** (Soliman et al.): the most probable Top-k *sequence* — the
/// complete Top-k answer (as an ordered list) with the highest total
/// probability across possible worlds, ties going to the smallest sequence.
/// Computed here by Monte-Carlo estimation of sequence frequencies (exact
/// enumeration is exponential).
pub fn u_topk<R: Rng + ?Sized>(
    tree: &AndXorTree,
    k: usize,
    samples: usize,
    rng: &mut R,
) -> Result<TopKList, ModelError> {
    let mut counts: HashMap<Vec<TupleKey>, usize> = HashMap::new();
    for _ in 0..samples.max(1) {
        let w = tree.sample_world(rng);
        let answer = w.top_k(k).iter().map(|a| a.key).collect();
        *counts.entry(answer).or_insert(0) += 1;
    }
    most_probable(counts.into_iter().map(|(seq, c)| (seq, c as f64)).collect())
}

/// Exact U-Top-k by exhaustive world enumeration (ground truth for small
/// trees).
pub fn u_topk_enumerated(tree: &AndXorTree, k: usize) -> Result<TopKList, ModelError> {
    let ws = tree.enumerate_worlds();
    let mut freq: HashMap<Vec<TupleKey>, f64> = HashMap::new();
    for (w, p) in ws.worlds() {
        let answer = w.top_k(k).iter().map(|a| a.key).collect();
        *freq.entry(answer).or_insert(0.0) += p;
    }
    most_probable(freq.into_iter().collect())
}

/// The sequence of highest weight ([`rank_by_score`]), or the empty list
/// when there is none. A world's Top-k never repeats a key.
fn most_probable(mut weighted: Vec<(Vec<TupleKey>, f64)>) -> Result<TopKList, ModelError> {
    rank_by_score(&mut weighted);
    let best = weighted.into_iter().next().map(|(seq, _)| seq);
    topk_list(best.unwrap_or_default(), "U-Top-k")
}

/// The `k` keys of highest score (`scores[p]` belongs to `keys[p]`), in
/// decreasing order ([`rank_by_score`]).
fn take_topk_by(
    keys: &[TupleKey],
    scores: Vec<f64>,
    k: usize,
    context: &str,
) -> Result<TopKList, ModelError> {
    let mut scored: Vec<(TupleKey, f64)> = keys.iter().copied().zip(scores).collect();
    rank_by_score(&mut scored);
    topk_list(scored.into_iter().take(k).map(|(t, _)| t), context)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::sym_diff::mean_topk_sym_diff;
    use cpdb_andxor::AndXorTreeBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn independent_tree(specs: &[(u64, f64, f64)]) -> AndXorTree {
        let mut b = AndXorTreeBuilder::new();
        let mut xors = Vec::new();
        for &(key, score, p) in specs {
            let l = b.leaf_parts(key, score);
            xors.push(b.xor_node(vec![(l, p)]));
        }
        let root = b.and_node(xors);
        b.build(root).unwrap()
    }

    fn tree() -> AndXorTree {
        independent_tree(&[
            (1, 100.0, 0.2),
            (2, 90.0, 0.9),
            (3, 80.0, 0.85),
            (4, 70.0, 0.4),
        ])
    }

    #[test]
    fn rank_totals_match_a_rank_of_loop_bit_for_bit() {
        let tied = independent_tree(&[(1, 5.0, 0.5), (2, 5.0, 0.7), (3, 9.0, 0.4), (4, 5.0, 0.9)]);
        let trees = [
            tree(),
            tied,
            cpdb_andxor::figure1::figure1_correlated_tree(),
        ];
        for t in &trees {
            let keys = t.keys();
            for seed in 0..4 {
                let got = rank_totals(t, &keys, 200, &mut StdRng::seed_from_u64(seed));
                let mut rng = StdRng::seed_from_u64(seed);
                let mut want = vec![0.0; keys.len()];
                for _ in 0..200 {
                    let w = t.sample_world(&mut rng);
                    for (total, &key) in want.iter_mut().zip(&keys) {
                        *total += w.rank_of(key).unwrap_or(w.len()) as f64;
                    }
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "seed {seed}");
            }
        }
    }

    #[test]
    fn expected_score_ranks_by_score_times_probability() {
        let t = tree();
        let answer = expected_score_topk(&t, 2).unwrap();
        // E[score]: t1 = 20, t2 = 81, t3 = 68, t4 = 28.
        assert_eq!(answer.items(), &[2, 3]);
    }

    #[test]
    fn expected_score_ranks_a_nan_score_last() {
        // 40 keys: enough for the sort to check its order is total.
        let specs: Vec<(u64, f64, f64)> = (0..40u64)
            .map(|key| {
                let score = if key == 3 {
                    f64::NAN
                } else {
                    (key * 37 % 101) as f64
                };
                (key, score, 0.5)
            })
            .collect();
        let t = independent_tree(&specs);
        let answer = expected_score_topk(&t, 40).unwrap();
        assert_eq!(answer.items().last(), Some(&3));
        let scores: Vec<f64> = answer.items()[..39]
            .iter()
            .map(|&key| (key * 37 % 101) as f64)
            .collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]), "{answer}");
    }

    #[test]
    fn global_topk_equals_consensus_mean_under_sym_diff() {
        let t = tree();
        let ctx = TopKContext::new(&t, 2);
        assert_eq!(
            global_topk(&ctx).unwrap(),
            mean_topk_sym_diff(&ctx).unwrap()
        );
    }

    #[test]
    fn ptk_threshold_controls_answer_size() {
        let t = tree();
        let ctx = TopKContext::new(&t, 2);
        let all = ptk_answer(&ctx, 0.0).unwrap();
        let some = ptk_answer(&ctx, 0.5).unwrap();
        let none = ptk_answer(&ctx, 1.1).unwrap();
        assert_eq!(all.len(), 4);
        assert!(some.len() < all.len());
        assert!(none.is_empty());
        // Lowering the threshold never removes tuples.
        for item in some.items() {
            assert!(all.contains(*item));
        }
    }

    #[test]
    fn u_topk_sampled_agrees_with_enumeration() {
        let t = tree();
        let mut rng = StdRng::seed_from_u64(8);
        let exact = u_topk_enumerated(&t, 2).unwrap();
        let sampled = u_topk(&t, 2, 40_000, &mut rng).unwrap();
        assert_eq!(exact, sampled);
    }

    #[test]
    fn expected_rank_sampled_agrees_with_enumeration() {
        use cpdb_model::TupleKey;
        let t = independent_tree(&[(1, 100.0, 0.05), (2, 90.0, 0.95), (3, 80.0, 0.9)]);
        // Exact expected ranks by enumeration (absent tuples ranked |pw|).
        let ws = t.enumerate_worlds();
        let mut exact: Vec<(TupleKey, f64)> = t
            .keys()
            .iter()
            .map(|&key| {
                let e = ws.expectation(|w| w.rank_of(key).unwrap_or(w.len()) as f64);
                (key, e)
            })
            .collect();
        exact.sort_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap());
        let expected_top2: Vec<u64> = exact.iter().take(2).map(|(k, _)| k.0).collect();

        let mut rng = StdRng::seed_from_u64(4);
        let answer = expected_rank_topk(&t, 2, 40_000, &mut rng).unwrap();
        for item in &expected_top2 {
            assert!(
                answer.contains(*item),
                "expected-rank Top-2 {answer} should contain {item} (exact order {exact:?})"
            );
        }
    }

    #[test]
    fn baselines_can_disagree_with_consensus() {
        // The expected-score answer includes the improbable high-score tuple,
        // the consensus answer does not: this is the motivating divergence.
        let t = independent_tree(&[(1, 1000.0, 0.15), (2, 90.0, 0.9), (3, 80.0, 0.85)]);
        let ctx = TopKContext::new(&t, 2);
        let consensus = mean_topk_sym_diff(&ctx).unwrap();
        let by_score = expected_score_topk(&t, 2).unwrap();
        assert!(by_score.contains(1));
        assert!(!consensus.contains(1));
    }
}
