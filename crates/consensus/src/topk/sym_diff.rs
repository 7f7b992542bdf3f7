//! Mean Top-k answer under the symmetric-difference metric (§5.2, Theorem 3).
//!
//! Theorem 3: the set of `k` tuples with the largest `Pr(r(t) ≤ k)` minimises
//! `E[d_Δ(τ, τ_pw)]` — because the expectation decomposes per tuple into
//! `Pr(r(t) > k)` for members and `Pr(r(t) ≤ k)` for non-members. This is
//! precisely the answer of a probabilistic-threshold Top-k (PT-k) query whose
//! threshold is tuned to return `k` tuples, which is how the paper puts the
//! previously proposed PT-k semantics on a consensus-answer footing.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use super::context::TopKContext;
use cpdb_model::{ModelError, TupleKey};
use cpdb_rankagg::{RankError, TopKList};

/// The mean Top-k answer under `d_Δ`: the `k` tuples with the largest
/// `Pr(r(t) ≤ k)`, ordered by that probability (the metric only cares about
/// membership; the ordering is a deterministic convention). A context
/// naming one key twice is [`ModelError::DuplicateKey`].
pub fn mean_topk_sym_diff(ctx: &TopKContext) -> Result<TopKList, ModelError> {
    let ranked = ctx.keys_by_topk_probability();
    topk_list(
        ranked.into_iter().take(ctx.k()).map(|(t, _)| t),
        "mean Top-k under d_Δ",
    )
}

/// The Top-k list of `keys` in order: the one constructor of every list the
/// Top-k layer builds. A key named twice is [`ModelError::DuplicateKey`],
/// labelled with `context`.
pub(crate) fn topk_list(
    keys: impl IntoIterator<Item = TupleKey>,
    context: &str,
) -> Result<TopKList, ModelError> {
    TopKList::new(keys.into_iter().map(|t| t.0).collect()).map_err(|e| match e {
        RankError::DuplicateItem { item } => ModelError::DuplicateKey {
            key: item,
            context: context.to_string(),
        },
        other => ModelError::Invalid {
            context: other.to_string(),
        },
    })
}

/// The exact expected (normalised) symmetric-difference distance
/// `E[d_Δ(τ, τ_pw)]` of an arbitrary candidate list, from the closed form in
/// the proof of Theorem 3:
/// `(1 / 2k) · (k + Σ_t Pr(r(t) ≤ k) − 2 Σ_{t ∈ τ} Pr(r(t) ≤ k))`.
pub fn expected_sym_diff_distance(ctx: &TopKContext, candidate: &TopKList) -> f64 {
    let k = ctx.k() as f64;
    if ctx.k() == 0 {
        return 0.0;
    }
    let total: f64 = ctx.total_topi_mass(ctx.k());
    let selected: f64 = candidate
        .items()
        .iter()
        .map(|&t| ctx.row_of(TupleKey(t)).map_or(0.0, |row| row.in_topk()))
        .sum();
    (candidate.len() as f64 + total - 2.0 * selected) / (2.0 * k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpdb_andxor::{AndXorTree, AndXorTreeBuilder};

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

    #[test]
    fn mean_answer_contains_the_high_probability_tuples() {
        let tree = independent_tree(&[(1, 9.0, 0.95), (2, 8.0, 0.9), (3, 7.0, 0.05)]);
        let ctx = TopKContext::new(&tree, 2);
        let mean = mean_topk_sym_diff(&ctx).unwrap();
        assert!(mean.contains(1));
        assert!(mean.contains(2));
        assert!(!mean.contains(3));
    }

    #[test]
    fn score_probability_tradeoff_is_resolved_by_rank_probability() {
        // Tuple 1 has the best score but low probability; tuple 3 has a worse
        // score but is nearly certain. For k = 1 the consensus answer picks
        // the tuple most likely to *be* the top-1, not the best-scored one.
        let tree = independent_tree(&[(1, 100.0, 0.2), (2, 90.0, 0.3), (3, 80.0, 0.95)]);
        let ctx = TopKContext::new(&tree, 1);
        let mean = mean_topk_sym_diff(&ctx).unwrap();
        // Pr(r(3) ≤ 1) = 0.95·0.8·0.7 = 0.532 > Pr(r(1) ≤ 1) = 0.2.
        assert_eq!(mean.items(), &[3]);
    }

    #[test]
    fn expected_distance_of_empty_candidate() {
        let tree = independent_tree(&[(1, 9.0, 0.5)]);
        let ctx = TopKContext::new(&tree, 1);
        let d = expected_sym_diff_distance(&ctx, &TopKList::empty());
        // Distance is 1/2·(0 + 0.5 - 0)/1 = 0.25.
        assert!((d - 0.25).abs() < 1e-12);
    }
}
