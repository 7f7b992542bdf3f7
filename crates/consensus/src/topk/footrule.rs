//! Mean Top-k answer under Spearman's footrule (§5.4 and Figure 2).
//!
//! The footrule distance with location parameter `ℓ = k + 1` is a true metric
//! on Top-k lists and sits in the same equivalence class as Kendall's tau.
//! Figure 2 of the paper rewrites its expectation against the random world's
//! answer as a constant plus a sum of per-(tuple, position) charges
//!
//! ```text
//! E[F*(τ, τ_pw)] = C + Σ_t Σ_{i ≤ k} δ(t = τ(i)) · f(t, i),
//! f(t, i) = Υ₃(t, i) + Υ₂(t) − 2(k + 1)·Υ₁(t),
//! C = (k + 1)·k + Σ_t ((k + 1)·Υ₁(t) − Υ₂(t)),
//! ```
//!
//! so the optimal answer is again an assignment problem: place tuple `t` at
//! position `i` with cost `f(t, i)`, allowing tuples to stay unplaced at zero
//! cost.
//!
//! Every charge is a function of one [`RankRow`]: the builders read the
//! context's rows by position, fill the n×k cost matrix in O(n·k) and map
//! positions to keys once, for the answer list.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use super::context::{RankRow, TopKContext};
use super::sym_diff::topk_list;
use cpdb_assignment::min_cost_assignment_flat;
use cpdb_model::{ModelError, TupleKey};
use cpdb_rankagg::TopKList;

/// The per-(tuple, position) charge `f(t, i)` of Figure 2, for the tuple
/// whose row of the context at `k` is `row`.
///
/// **Sign correction (documented reproduction finding):** expanding
/// `E[F*(τ, τ_pw)]` from the definition gives, for a tuple placed at
/// position `i`,
///
/// ```text
/// f(t, i) = Σ_{j ≤ k} Pr(r(t) = j)·|i − j|  −  i·Pr(r(t) > k)
///           + Υ₂(t) − 2(k + 1)·Υ₁(t)
/// ```
///
/// i.e. the `i·Pr(r(t) > k)` term enters with a **negative** sign (it comes
/// from the `− Σ_{t ∈ τ \ τ_pw} τ(t)` term of the footrule identity).
/// The paper's Figure 2 folds that term into `Υ₃(t, i)` with a positive sign,
/// which double-counts it; the tests validate the corrected expression
/// against brute-force enumeration (they fail with the paper's literal
/// sign).
///
/// Served in O(1) per `(t, i)` from the row's prefix sums
/// ([`RankRow::displacement`]), so the full n×k assignment cost matrix
/// costs O(n·k) instead of O(n·k²); the tests pin it to the direct O(k)
/// summation over the rank PMF.
pub fn placement_cost(row: &RankRow<'_>, i: usize) -> f64 {
    let k = row.pmf.len() as f64;
    row.displacement(i) - i as f64 * (1.0 - row.in_topk()) + row.weighted_rank()
        - 2.0 * (k + 1.0) * row.in_topk()
}

/// The constant term `C` of Figure 2 (independent of the candidate answer).
pub fn constant_term(ctx: &TopKContext) -> f64 {
    let k = ctx.k() as f64;
    let per_tuple: f64 = ctx
        .rows()
        .map(|row| (k + 1.0) * row.in_topk() - row.weighted_rank())
        .sum();
    (k + 1.0) * k + per_tuple
}

/// The exact expected footrule distance `E[F*(τ, τ_pw)]` of a candidate
/// answer, from the Figure 2 decomposition. A key the context does not hold
/// has the default (all-zero) row.
pub fn expected_footrule_distance(ctx: &TopKContext, candidate: &TopKList) -> f64 {
    let placements: f64 = candidate
        .items()
        .iter()
        .enumerate()
        .map(|(idx, &t)| {
            let row = ctx.row_of(TupleKey(t)).unwrap_or_default();
            placement_cost(&row, idx + 1)
        })
        .sum();
    constant_term(ctx) + placements
}

/// The exact mean Top-k answer under the footrule metric, via a min-cost
/// assignment on the `f(t, i)` matrix (tuples × positions). Placements with
/// positive cost are left unused only when fewer than `k` tuples exist. A
/// context naming one key twice is [`ModelError::DuplicateKey`].
pub fn mean_topk_footrule(ctx: &TopKContext) -> Result<TopKList, ModelError> {
    let k = ctx.k();
    let keys = ctx.keys();
    if k == 0 || keys.is_empty() {
        return Ok(TopKList::empty());
    }
    // Row-major flat cost matrix: O(n·k) to fill (placement_cost is O(1))
    // and one allocation instead of one per row.
    let mut cost = Vec::with_capacity(keys.len() * k);
    for row in ctx.rows() {
        cost.extend((1..=k).map(|i| placement_cost(&row, i)));
    }
    // Position i of the answer holds the key of the row assigned to it.
    let placed = min_cost_assignment_flat(&cost, keys.len(), k).col_to_row;
    topk_list(
        placed.into_iter().flatten().map(|p| keys[p]),
        "mean Top-k under the footrule",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpdb_andxor::figure1::figure1_correlated_tree;
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

    fn tree_small() -> AndXorTree {
        independent_tree(&[
            (1, 90.0, 0.3),
            (2, 80.0, 0.9),
            (3, 70.0, 0.6),
            (4, 60.0, 0.7),
        ])
    }

    #[test]
    fn prefix_sum_placement_cost_matches_direct_summation() {
        for tree in [tree_small(), figure1_correlated_tree()] {
            for k in 1..=4usize {
                let ctx = TopKContext::new(&tree, k);
                for (t, row) in ctx.keys().iter().zip(ctx.rows()) {
                    for i in 1..=k {
                        let fast = placement_cost(&row, i);
                        let pmf = |j: usize| row.pmf[j - 1];
                        let misplacement: f64 =
                            (1..=k).map(|j| pmf(j) * (i as f64 - j as f64).abs()).sum();
                        let u1: f64 = (1..=k).map(pmf).sum();
                        let u2: f64 = (1..=k).map(|j| j as f64 * pmf(j)).sum();
                        let direct =
                            misplacement - i as f64 * (1.0 - u1) + u2 - 2.0 * (k as f64 + 1.0) * u1;
                        assert!(
                            (fast - direct).abs() < 1e-12,
                            "k={k} t={t:?} i={i}: prefix-sum {fast} vs direct {direct}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn footrule_favours_likely_high_rank_tuples_at_the_top() {
        let tree = independent_tree(&[(1, 100.0, 0.95), (2, 90.0, 0.9), (3, 80.0, 0.1)]);
        let ctx = TopKContext::new(&tree, 2);
        let mean = mean_topk_footrule(&ctx).unwrap();
        assert_eq!(mean.items(), &[1, 2]);
    }

    #[test]
    fn empty_and_zero_k_cases() {
        let tree = independent_tree(&[(1, 1.0, 0.5)]);
        let ctx = TopKContext::new(&tree, 0);
        assert!(mean_topk_footrule(&ctx).unwrap().is_empty());
    }
}
