//! Previously proposed Top-k ranking semantics, implemented as baselines.
//!
//! The paper's introduction motivates consensus answers by the proliferation
//! of ad-hoc ranking semantics for probabilistic databases — U-Top-k,
//! Global Top-k, probabilistic-threshold Top-k (PT-k), expected rank,
//! expected score. Experiment E12 compares the answers these semantics give
//! against the consensus answers; this module implements each of them on top
//! of the same and/xor tree infrastructure so the comparison is apples to
//! apples.

use crate::topk::context::TopKContext;
use cpdb_andxor::AndXorTree;
use cpdb_model::{ModelError, TupleKey, WorldModel};
use cpdb_rankagg::TopKList;
use rand::Rng;
use std::collections::HashMap;

/// **Expected score**: rank tuples by `E[score(t) · present(t)]` — the
/// classic "expected value" heuristic that ignores rank semantics entirely.
pub fn expected_score_topk(tree: &AndXorTree, k: usize) -> TopKList {
    let mut scores: HashMap<TupleKey, f64> = HashMap::new();
    for (alt, p) in tree.alternative_probabilities() {
        *scores.entry(alt.key).or_insert(0.0) += alt.value.0 * p;
    }
    take_topk_by(scores, k)
}

/// **PT-k** (probabilistic threshold Top-k, Hua et al.): return every tuple
/// with `Pr(r(t) ≤ k) ≥ threshold`. The result size depends on the threshold;
/// tuples are ordered by the probability.
pub fn ptk_answer(ctx: &TopKContext, threshold: f64) -> TopKList {
    let mut selected: Vec<(TupleKey, f64)> = ctx
        .keys()
        .iter()
        .map(|&t| (t, ctx.topk_probability(t)))
        .filter(|(_, p)| *p >= threshold)
        .collect();
    selected.sort_by(|(ka, pa), (kb, pb)| {
        pb.partial_cmp(pa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| ka.cmp(kb))
    });
    TopKList::new(selected.into_iter().map(|(t, _)| t.0).collect()).expect("keys are distinct")
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
) -> TopKList {
    let keys = tree.keys();
    let totals = rank_totals(tree, &keys, samples.max(1), rng);
    // Lower expected rank is better: negate so the shared helper can sort
    // descending.
    let scores: HashMap<TupleKey, f64> = keys
        .into_iter()
        .zip(totals)
        .map(|(t, total)| (t, -(total / samples.max(1) as f64)))
        .collect();
    take_topk_by(scores, k)
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
/// probability across possible worlds. Computed here by Monte-Carlo
/// estimation of sequence frequencies (exact enumeration is exponential).
pub fn u_topk<R: Rng + ?Sized>(
    tree: &AndXorTree,
    k: usize,
    samples: usize,
    rng: &mut R,
) -> TopKList {
    let mut counts: HashMap<Vec<u64>, usize> = HashMap::new();
    for _ in 0..samples.max(1) {
        let w = tree.sample_world(rng);
        let answer: Vec<u64> = w.top_k(k).iter().map(|a| a.key.0).collect();
        *counts.entry(answer).or_insert(0) += 1;
    }
    let best = counts
        .into_iter()
        .max_by(|(sa, ca), (sb, cb)| ca.cmp(cb).then_with(|| sb.cmp(sa)))
        .map(|(seq, _)| seq)
        .unwrap_or_default();
    TopKList::new(best).expect("a world's Top-k never repeats a key")
}

/// Exact U-Top-k by exhaustive world enumeration (ground truth for small
/// trees).
pub fn u_topk_enumerated(tree: &AndXorTree, k: usize) -> TopKList {
    let ws = tree.enumerate_worlds();
    let mut freq: HashMap<Vec<u64>, f64> = HashMap::new();
    for (w, p) in ws.worlds() {
        let answer: Vec<u64> = w.top_k(k).iter().map(|a| a.key.0).collect();
        *freq.entry(answer).or_insert(0.0) += p;
    }
    let best = freq
        .into_iter()
        .max_by(|(sa, pa), (sb, pb)| {
            pa.partial_cmp(pb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| sb.cmp(sa))
        })
        .map(|(seq, _)| seq)
        .unwrap_or_default();
    TopKList::new(best).expect("a world's Top-k never repeats a key")
}

fn take_topk_by(scores: HashMap<TupleKey, f64>, k: usize) -> TopKList {
    let mut scored: Vec<(TupleKey, f64)> = scores.into_iter().collect();
    scored.sort_by(|(ka, sa), (kb, sb)| {
        sb.partial_cmp(sa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| ka.cmp(kb))
    });
    TopKList::new(scored.into_iter().take(k).map(|(t, _)| t.0).collect())
        .expect("keys are distinct")
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
        let answer = expected_score_topk(&t, 2);
        // E[score]: t1 = 20, t2 = 81, t3 = 68, t4 = 28.
        assert_eq!(answer.items(), &[2, 3]);
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
        let all = ptk_answer(&ctx, 0.0);
        let some = ptk_answer(&ctx, 0.5);
        let none = ptk_answer(&ctx, 1.1);
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
        let exact = u_topk_enumerated(&t, 2);
        let sampled = u_topk(&t, 2, 40_000, &mut rng);
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
        let answer = expected_rank_topk(&t, 2, 40_000, &mut rng);
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
        let by_score = expected_score_topk(&t, 2);
        assert!(by_score.contains(1));
        assert!(!consensus.contains(1));
    }
}
