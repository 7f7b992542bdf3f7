//! Median Top-k answer under the symmetric-difference metric (§5.2, Thm 4).
//!
//! The *median* answer must be the Top-k answer of some possible world. From
//! the proof of Theorem 3, minimising `E[d_Δ(τ, τ_pw)]` over candidates of
//! size `|τ|` amounts to maximising `Σ_{t ∈ τ} (Pr(r(t) ≤ k) − ½)`, so the
//! median answer is the possible Top-k answer maximising that sum.
//!
//! The paper's algorithm (Theorem 4) enumerates score thresholds `a`: a set
//! `S` of `k` tuples all scoring `≥ a` is the Top-k answer of some possible
//! world exactly when `S` is a possible world of the tree *restricted to
//! leaves with score ≥ a* and has size exactly `k`. For each threshold a
//! knapsack-style dynamic program over the tree computes, for every node and
//! every size `i ≤ k`, the best achievable `Σ P(t)` over worlds of that size
//! generated by the (restricted) subtree; the best root entry of size `k`
//! over all thresholds is the median answer.
//!
//! Worlds with fewer than `k` tuples are handled by additionally considering,
//! at the no-restriction threshold, root entries of every size `i < k`
//! (such a world *is* its own Top-k answer), scored with the size-aware
//! objective `Σ (P(t) − ½)`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use super::context::TopKContext;
use cpdb_andxor::{AndXorTree, NodeId, NodeKind};
use cpdb_model::{ModelError, TupleKey};
use cpdb_rankagg::{RankError, TopKList};

/// One DP cell: the best achievable objective and the witnessing set of
/// tuple keys, for a fixed subtree and a fixed world size.
type Cell = Option<(f64, Vec<TupleKey>)>;

/// The median Top-k answer under the symmetric-difference metric, together
/// with its exact expected distance.
#[derive(Debug, Clone, PartialEq)]
pub struct MedianTopK {
    /// The selected answer (ordered by decreasing `Pr(r(t) ≤ k)`).
    pub answer: TopKList,
    /// Its exact expected normalised symmetric-difference distance.
    pub expected_distance: f64,
}

/// Theorem 4: computes the median Top-k answer of an and/xor tree in
/// polynomial time. A witness naming one key twice (impossible in a valid
/// tree, whose ∧ children have disjoint keys) is
/// [`ModelError::DuplicateKey`].
pub fn median_topk_sym_diff(
    tree: &AndXorTree,
    ctx: &TopKContext,
) -> Result<MedianTopK, ModelError> {
    let k = ctx.k();
    let mut thresholds = tree.distinct_values();
    // Highest thresholds first is conventional; order does not matter.
    thresholds.reverse();

    let mut best: Option<(f64, Vec<TupleKey>)> = None;
    // Candidate Top-k answers of size exactly k, one DP per threshold.
    for &a in &thresholds {
        let table = subtree_dp(tree, tree.root(), ctx, k, Some(a));
        if let Some((profit, keys)) = &table[k] {
            let objective = profit - 0.5 * k as f64;
            if best.as_ref().is_none_or(|(b, _)| objective > *b) {
                best = Some((objective, keys.clone()));
            }
        }
    }
    // Candidate answers that are entire (small) worlds of size < k.
    if k > 0 {
        let table = subtree_dp(tree, tree.root(), ctx, k, None);
        for (size, cell) in table.iter().enumerate().take(k) {
            if let Some((profit, keys)) = cell {
                let objective = profit - 0.5 * size as f64;
                if best.as_ref().is_none_or(|(b, _)| objective > *b) {
                    best = Some((objective, keys.clone()));
                }
            }
        }
    }

    let (_, mut keys) = best.unwrap_or((0.0, Vec::new()));
    keys.sort_by(|a, b| {
        ctx.topk_probability(*b)
            .partial_cmp(&ctx.topk_probability(*a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.cmp(b))
    });
    let answer = TopKList::new(keys.iter().map(|t| t.0).collect()).map_err(|e| match e {
        RankError::DuplicateItem { item } => ModelError::DuplicateKey {
            key: item,
            context: "Theorem-4 median witness".to_string(),
        },
        other => ModelError::Invalid {
            context: other.to_string(),
        },
    })?;
    let expected_distance = super::sym_diff::expected_sym_diff_distance(ctx, &answer);
    Ok(MedianTopK {
        answer,
        expected_distance,
    })
}

/// Dynamic program over the subtree rooted at `node`, restricted to leaves
/// with score `≥ threshold` (no restriction when `threshold` is `None`).
/// Returns, for each size `0 ≤ i ≤ k`, the best `Σ Pr(r(t) ≤ k)` over worlds
/// of exactly that size generated by the restricted subtree (or `None` when
/// no such world exists).
fn subtree_dp(
    tree: &AndXorTree,
    node: NodeId,
    ctx: &TopKContext,
    k: usize,
    threshold: Option<f64>,
) -> Vec<Cell> {
    let mut table: Vec<Cell> = vec![None; k + 1];
    match (tree.node_kind(node), tree.leaf_alternative(node)) {
        // A node id outside the tree generates no world at all.
        (None, None) => {}
        (None, Some(alt)) => {
            let included = threshold.is_none_or(|a| alt.value.0 >= a);
            if included {
                if k >= 1 {
                    table[1] = Some((ctx.topk_probability(alt.key), vec![alt.key]));
                }
                // A leaf that survives the restriction always materialises, so
                // size 0 is unreachable from it.
            } else {
                // Restricted away: contributes the empty set.
                table[0] = Some((0.0, Vec::new()));
            }
        }
        (Some(NodeKind::Xor), _) => {
            let children = tree.children(node);
            let leftover: f64 = 1.0 - children.iter().map(|(_, p)| *p).sum::<f64>();
            if leftover > 1e-12 {
                table[0] = Some((0.0, Vec::new()));
            }
            for (child, p) in children {
                if *p <= 0.0 {
                    continue;
                }
                let child_table = subtree_dp(tree, *child, ctx, k, threshold);
                for (i, cell) in child_table.into_iter().enumerate() {
                    if let Some((profit, keys)) = cell {
                        if table[i]
                            .as_ref()
                            .is_none_or(|(existing, _)| profit > *existing)
                        {
                            table[i] = Some((profit, keys));
                        }
                    }
                }
            }
        }
        (Some(NodeKind::And), _) => {
            // Knapsack combination of the children.
            table[0] = Some((0.0, Vec::new()));
            for (child, _) in tree.children(node) {
                let child_table = subtree_dp(tree, *child, ctx, k, threshold);
                let mut next: Vec<Cell> = vec![None; k + 1];
                for (i, cell) in table.iter().enumerate() {
                    let Some((profit_a, keys_a)) = cell else {
                        continue;
                    };
                    for (j, child_cell) in child_table.iter().enumerate() {
                        if i + j > k {
                            break;
                        }
                        let Some((profit_b, keys_b)) = child_cell else {
                            continue;
                        };
                        let profit = profit_a + profit_b;
                        if next[i + j]
                            .as_ref()
                            .is_none_or(|(existing, _)| profit > *existing)
                        {
                            let mut keys = keys_a.clone();
                            keys.extend_from_slice(keys_b);
                            next[i + j] = Some((profit, keys));
                        }
                    }
                }
                table = next;
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use cpdb_andxor::figure1::figure1_correlated_tree;
    use cpdb_andxor::AndXorTreeBuilder;
    use cpdb_model::WorldModel;

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

    fn assert_matches_brute_force(tree: &AndXorTree, k: usize) {
        let ctx = TopKContext::new(tree, k);
        let median = median_topk_sym_diff(tree, &ctx).unwrap();
        let ws = tree.enumerate_worlds();
        let (brute, brute_cost) = oracle::brute_force_median_topk(&ws, k, |a, b| {
            oracle::sym_diff_distance_fixed_k(k, a, b)
        });
        let direct = oracle::expected_topk_distance(&median.answer, &ws, k, |a, b| {
            oracle::sym_diff_distance_fixed_k(k, a, b)
        });
        assert!(
            (direct - brute_cost).abs() < 1e-9,
            "k={k}: DP answer {} (cost {direct}) vs brute {} (cost {brute_cost})",
            median.answer,
            brute
        );
        // The DP answer must itself be the Top-k answer of a possible world.
        let possible: Vec<_> = ws
            .worlds()
            .iter()
            .filter(|(_, p)| *p > 0.0)
            .map(|(w, _)| {
                let mut keys: Vec<u64> = oracle::world_topk(w, k).items().to_vec();
                keys.sort_unstable();
                keys
            })
            .collect();
        let mut got: Vec<u64> = median.answer.items().to_vec();
        got.sort_unstable();
        assert!(
            possible.contains(&got),
            "answer {got:?} is not the Top-{k} of any possible world"
        );
    }

    #[test]
    fn theorem4_matches_brute_force_on_independent_tuples() {
        let tree = independent_tree(&[
            (1, 90.0, 0.3),
            (2, 80.0, 0.9),
            (3, 70.0, 0.6),
            (4, 60.0, 0.7),
            (5, 50.0, 0.2),
        ]);
        for k in 1..=4 {
            assert_matches_brute_force(&tree, k);
        }
    }

    #[test]
    fn theorem4_matches_brute_force_on_figure1_tree() {
        let tree = figure1_correlated_tree();
        for k in 1..=3 {
            assert_matches_brute_force(&tree, k);
        }
    }

    #[test]
    fn theorem4_matches_brute_force_on_bid_alternatives() {
        // Attribute-level uncertainty: the same tuple has different possible
        // scores, so the threshold loop over distinct values matters.
        let mut b = AndXorTreeBuilder::new();
        let a1 = b.leaf_parts(1, 100.0);
        let a2 = b.leaf_parts(1, 10.0);
        let x1 = b.xor_node(vec![(a1, 0.3), (a2, 0.65)]);
        let b1 = b.leaf_parts(2, 90.0);
        let b2 = b.leaf_parts(2, 20.0);
        let x2 = b.xor_node(vec![(b1, 0.5), (b2, 0.5)]);
        let c1 = b.leaf_parts(3, 50.0);
        let x3 = b.xor_node(vec![(c1, 0.8)]);
        let root = b.and_node(vec![x1, x2, x3]);
        let tree = b.build(root).unwrap();
        for k in 1..=3 {
            assert_matches_brute_force(&tree, k);
        }
    }

    #[test]
    fn theorem4_matches_brute_force_on_random_trees() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..6 {
            let n = rng.gen_range(3..7);
            let specs: Vec<(u64, f64, f64)> = (0..n)
                .map(|i| (i as u64, rng.gen_range(0.0..100.0), rng.gen_range(0.1..1.0)))
                .collect();
            let tree = independent_tree(&specs);
            let k = rng.gen_range(1..=n.min(3));
            assert_matches_brute_force(&tree, k);
            let _ = trial;
        }
    }

    #[test]
    fn small_worlds_are_valid_median_answers() {
        // Only one tuple exists, but k = 3: the median answer is that single
        // tuple (the Top-3 of the only non-empty world).
        let tree = independent_tree(&[(7, 42.0, 0.9)]);
        let ctx = TopKContext::new(&tree, 3);
        let median = median_topk_sym_diff(&tree, &ctx).unwrap();
        assert_eq!(median.answer.items(), &[7]);
    }
}
