//! Mean Top-k answer under the intersection metric (§5.3).
//!
//! The intersection metric `d_I` averages the (normalised) symmetric
//! difference over every prefix depth, so position matters. Rewriting the
//! expectation (see the paper's derivation) shows that minimising
//! `E[d_I(τ, τ_pw)]` is equivalent to maximising
//!
//! ```text
//! A(τ) = Σ_{j=1..k}  profit(τ(j), j),
//! profit(t, j) = Σ_{i=j..k}  Pr(r(t) ≤ i) / i
//! ```
//!
//! — an assignment problem between tuples (agents) and result positions
//! (tasks), solved exactly with the Hungarian algorithm.
//!
//! The paper also defines the harmonic ranking function
//! `Υ_H(t) = Σ_{i ≤ k} Pr(r(t) ≤ i)/i` and proves that simply taking the `k`
//! tuples with the highest `Υ_H` (in that order) achieves
//! `A(τ_H) ≥ A(τ*) / H_k`. Both the exact and the approximate answers are
//! provided, and the experiments measure how close the approximation gets in
//! practice.
//!
//! Every profit is a function of one [`RankRow`]: the builders read the
//! context's rows by position and map positions to keys once, for the
//! answer list.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use super::context::{rank_by_score, RankRow, TopKContext};
use super::sym_diff::topk_list;
use cpdb_assignment::max_profit_assignment_flat;
use cpdb_model::{ModelError, TupleKey};
use cpdb_rankagg::TopKList;

/// The profit of placing the tuple whose row of the context at `k` is `row`
/// at result position `j` (1-based): `Σ_{i=j..k} Pr(r(t) ≤ i)/i`, summed
/// from `i = k` down (`0` outside `1 ≤ j ≤ k`). A suffix depends on `k`, so
/// the rank context, which holds only prefix tables, does not cache it. The
/// tests pin it to the ascending summation.
pub fn position_profit(row: &RankRow<'_>, j: usize) -> f64 {
    if j == 0 {
        return 0.0;
    }
    (j..=row.pmf.len())
        .rev()
        .fold(0.0, |tail, i| tail + row.cdf(i) / i as f64)
}

/// Υ_H(t) = `Σ_{i ≤ k} Pr(r(t) ≤ i)/i` — the harmonic ranking function of
/// §5.3 (a parameterised ranking function in the sense of \[29\]): the
/// position profit at `j = 1`.
pub fn upsilon_h(row: &RankRow<'_>) -> f64 {
    position_profit(row, 1)
}

/// The objective `A(τ)` of a candidate list (the paper's §5.3). A key the
/// context does not hold adds 0.
pub fn objective_a(ctx: &TopKContext, candidate: &TopKList) -> f64 {
    candidate
        .items()
        .iter()
        .enumerate()
        .map(|(idx, &t)| {
            let row = ctx.row_of(TupleKey(t)).unwrap_or_default();
            position_profit(&row, idx + 1)
        })
        .sum()
}

/// The exact expected intersection-metric distance of a candidate:
/// `E[d_I(τ, τ_pw)] = (1/k) Σ_{i=1..k} (1/2i)(i + Σ_t Pr(r(t) ≤ i) −
/// 2 Σ_{t ∈ τ^i} Pr(r(t) ≤ i))`.
pub fn expected_intersection_distance(ctx: &TopKContext, candidate: &TopKList) -> f64 {
    let k = ctx.k();
    if k == 0 {
        return 0.0;
    }
    // The candidate's rows, found once; an unknown key has the default row
    // and adds 0.
    let rows: Vec<RankRow<'_>> = candidate
        .items()
        .iter()
        .map(|&t| ctx.row_of(TupleKey(t)).unwrap_or_default())
        .collect();
    let mut total = 0.0;
    for i in 1..=k {
        let prefix_len = candidate.len().min(i);
        let selected: f64 = rows.iter().take(i).map(|row| row.cdf(i)).sum();
        let mass = ctx.total_topi_mass(i);
        total += (prefix_len as f64 + mass - 2.0 * selected) / (2.0 * i as f64);
    }
    total / k as f64
}

/// The exact mean Top-k answer under the intersection metric, via the
/// Hungarian algorithm on the (tuple × position) profit matrix. A context
/// naming one key twice is [`ModelError::DuplicateKey`].
pub fn mean_topk_intersection(ctx: &TopKContext) -> Result<TopKList, ModelError> {
    let k = ctx.k();
    let keys = ctx.keys();
    if k == 0 || keys.is_empty() {
        return Ok(TopKList::empty());
    }
    // Row-major flat profit matrix, one allocation, filled in O(n·k): each
    // row is `position_profit` at every j, summed in the same order.
    let mut profit = vec![0.0; keys.len() * k];
    for (out, row) in profit.chunks_exact_mut(k).zip(ctx.rows()) {
        let mut tail = 0.0;
        for i in (1..=k).rev() {
            tail += row.cdf(i) / i as f64;
            out[i - 1] = tail;
        }
    }
    // Position i of the answer holds the key of the row assigned to it.
    let placed = max_profit_assignment_flat(&profit, keys.len(), k).col_to_row;
    topk_list(
        placed.into_iter().flatten().map(|p| keys[p]),
        "mean Top-k under the intersection metric",
    )
}

/// The harmonic-ranking approximation `τ_H`: the `k` tuples with the highest
/// `Υ_H(t)`, in decreasing order ([`rank_by_score`]). Guaranteed to achieve
/// at least a `1/H_k` fraction of the optimal objective `A(τ*)`. A context
/// naming one key twice is [`ModelError::DuplicateKey`].
pub fn mean_topk_upsilon_h(ctx: &TopKContext) -> Result<TopKList, ModelError> {
    let mut scored: Vec<(TupleKey, f64)> = ctx
        .keys()
        .iter()
        .copied()
        .zip(ctx.rows().map(|row| upsilon_h(&row)))
        .collect();
    rank_by_score(&mut scored);
    topk_list(
        scored.into_iter().take(ctx.k()).map(|(t, _)| t),
        "Υ_H ranking",
    )
}

/// The `k`-th harmonic number `H_k = Σ_{i ≤ k} 1/i` (the approximation bound
/// of §5.3) now lives in the shared numerics module of `cpdb_genfunc`; it is
/// re-exported here because it is the natural companion of
/// [`mean_topk_upsilon_h`].
pub use cpdb_genfunc::harmonic;

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
    fn suffix_sum_position_profit_matches_direct_summation() {
        for tree in [tree_small(), figure1_correlated_tree()] {
            for k in 1..=4usize {
                let ctx = TopKContext::new(&tree, k);
                for (t, row) in ctx.keys().iter().zip(ctx.rows()) {
                    for j in 1..=k {
                        let fast = position_profit(&row, j);
                        let direct: f64 = (j..=k).map(|i| row.cdf(i) / i as f64).sum();
                        assert!(
                            (fast - direct).abs() < 1e-12,
                            "k={k} t={t:?} j={j}: suffix-sum {fast} vs direct {direct}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn upsilon_h_answer_respects_the_harmonic_bound() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..6 {
            let n = rng.gen_range(4..8);
            let specs: Vec<(u64, f64, f64)> = (0..n)
                .map(|i| {
                    (
                        i as u64,
                        rng.gen_range(0.0..100.0),
                        rng.gen_range(0.05..1.0),
                    )
                })
                .collect();
            let tree = independent_tree(&specs);
            let k = rng.gen_range(1..=3usize);
            let ctx = TopKContext::new(&tree, k);
            let optimal = mean_topk_intersection(&ctx).unwrap();
            let approx = mean_topk_upsilon_h(&ctx).unwrap();
            let a_opt = objective_a(&ctx, &optimal);
            let a_approx = objective_a(&ctx, &approx);
            assert!(
                a_approx + 1e-9 >= a_opt / harmonic(k),
                "A(τ_H) = {a_approx} < A(τ*)/H_k = {}",
                a_opt / harmonic(k)
            );
            // The approximation can never beat the optimum.
            assert!(a_approx <= a_opt + 1e-9);
        }
    }

    #[test]
    fn objective_and_distance_are_consistent() {
        // Larger A(τ) ⇔ smaller expected intersection distance.
        let tree = tree_small();
        let ctx = TopKContext::new(&tree, 2);
        let a = TopKList::new(vec![2, 4]).unwrap();
        let b = TopKList::new(vec![1, 3]).unwrap();
        let (aa, ab) = (objective_a(&ctx, &a), objective_a(&ctx, &b));
        let (da, db) = (
            expected_intersection_distance(&ctx, &a),
            expected_intersection_distance(&ctx, &b),
        );
        assert_eq!(aa > ab, da < db);
    }

    #[test]
    fn harmonic_re_export_matches_genfunc() {
        assert_eq!(harmonic(4), cpdb_genfunc::harmonic(4));
    }

    #[test]
    fn empty_context_returns_empty_answer() {
        let tree = independent_tree(&[(1, 1.0, 0.5)]);
        let ctx = TopKContext::new(&tree, 0);
        assert!(mean_topk_intersection(&ctx).unwrap().is_empty());
        assert_eq!(
            expected_intersection_distance(&ctx, &TopKList::empty()),
            0.0
        );
    }
}
