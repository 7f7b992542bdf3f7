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

use super::context::{RankRow, TopKContext};
use cpdb_assignment::max_profit_assignment_flat;
use cpdb_model::TupleKey;
use cpdb_rankagg::TopKList;

/// The profit of placing tuple `t` at result position `j` (1-based):
/// `Σ_{i=j..k} Pr(r(t) ≤ i)/i`, summed from `i = k` down (`0` outside
/// `1 ≤ j ≤ k` or for unknown tuples). A suffix depends on `k`, so the rank
/// context, which holds only prefix tables, does not cache it. The tests
/// pin it to the ascending summation.
pub fn position_profit(ctx: &TopKContext, t: TupleKey, j: usize) -> f64 {
    if j == 0 {
        return 0.0;
    }
    (j..=ctx.k())
        .rev()
        .fold(0.0, |tail, i| tail + ctx.rank_cdf(t, i) / i as f64)
}

/// Υ_H(t) = `Σ_{i ≤ k} Pr(r(t) ≤ i)/i` — the harmonic ranking function of
/// §5.3 (a parameterised ranking function in the sense of \[29\]): the
/// position profit at `j = 1`.
pub fn upsilon_h(ctx: &TopKContext, t: TupleKey) -> f64 {
    position_profit(ctx, t, 1)
}

/// The objective `A(τ)` of a candidate list (the paper's §5.3).
pub fn objective_a(ctx: &TopKContext, candidate: &TopKList) -> f64 {
    candidate
        .items()
        .iter()
        .enumerate()
        .map(|(idx, &t)| position_profit(ctx, TupleKey(t), idx + 1))
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
    // The candidate's rows, found once; an unknown key has none and adds 0.
    let rows: Vec<Option<RankRow<'_>>> = candidate
        .items()
        .iter()
        .map(|&t| ctx.row_of(TupleKey(t)))
        .collect();
    let mut total = 0.0;
    for i in 1..=k {
        let prefix_len = candidate.len().min(i);
        let selected: f64 = rows
            .iter()
            .take(i)
            .map(|row| row.map_or(0.0, |row| row.cdf(i)))
            .sum();
        let mass = ctx.total_topi_mass(i);
        total += (prefix_len as f64 + mass - 2.0 * selected) / (2.0 * i as f64);
    }
    total / k as f64
}

/// The exact mean Top-k answer under the intersection metric, via the
/// Hungarian algorithm on the (tuple × position) profit matrix.
pub fn mean_topk_intersection(ctx: &TopKContext) -> TopKList {
    let k = ctx.k();
    if k == 0 || ctx.keys().is_empty() {
        return TopKList::empty();
    }
    let keys = ctx.keys();
    // Row-major flat profit matrix, one allocation, filled in O(n·k): each
    // row is `position_profit` at every j, summed in the same order.
    let mut profit = vec![0.0; keys.len() * k];
    for (p, row) in profit.chunks_exact_mut(k).enumerate() {
        let Some(stats) = ctx.row(p) else { break };
        let mut tail = 0.0;
        for i in (1..=k).rev() {
            tail += stats.cdf(i) / i as f64;
            row[i - 1] = tail;
        }
    }
    let assignment = max_profit_assignment_flat(&profit, keys.len(), k);
    let mut slots: Vec<Option<u64>> = vec![None; k];
    for (row, col) in assignment.row_to_col.iter().enumerate() {
        if let Some(c) = col {
            slots[*c] = Some(keys[row].0);
        }
    }
    TopKList::new(slots.into_iter().flatten().collect()).expect("keys are distinct")
}

/// The harmonic-ranking approximation `τ_H`: the `k` tuples with the highest
/// `Υ_H(t)`, in decreasing order. Guaranteed to achieve at least a `1/H_k`
/// fraction of the optimal objective `A(τ*)`.
pub fn mean_topk_upsilon_h(ctx: &TopKContext) -> TopKList {
    let mut scored: Vec<(TupleKey, f64)> =
        ctx.keys().iter().map(|&t| (t, upsilon_h(ctx, t))).collect();
    scored.sort_by(|(ka, sa), (kb, sb)| {
        sb.partial_cmp(sa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| ka.cmp(kb))
    });
    TopKList::new(scored.into_iter().take(ctx.k()).map(|(t, _)| t.0).collect())
        .expect("keys are distinct")
}

/// The `k`-th harmonic number `H_k = Σ_{i ≤ k} 1/i` (the approximation bound
/// of §5.3) now lives in the shared numerics module of `cpdb_genfunc`; it is
/// re-exported here because it is the natural companion of
/// [`mean_topk_upsilon_h`].
pub use cpdb_genfunc::harmonic;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use cpdb_andxor::figure1::figure1_correlated_tree;
    use cpdb_andxor::{AndXorTree, AndXorTreeBuilder};
    use cpdb_model::WorldModel;
    use cpdb_rankagg::metrics::intersection_metric;

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
    fn expected_distance_formula_matches_enumeration() {
        let tree = tree_small();
        let ws = tree.enumerate_worlds();
        for k in 1..=3 {
            let ctx = TopKContext::new(&tree, k);
            let candidates = [
                TopKList::new((1..=k as u64).collect()).unwrap(),
                TopKList::new((1..=k as u64).rev().collect()).unwrap(),
            ];
            for cand in &candidates {
                let formula = expected_intersection_distance(&ctx, cand);
                let direct = oracle::expected_topk_distance(cand, &ws, k, intersection_metric);
                assert!(
                    (formula - direct).abs() < 1e-9,
                    "k={k} cand={cand}: formula {formula} vs direct {direct}"
                );
            }
        }
    }

    #[test]
    fn assignment_answer_matches_brute_force() {
        let tree = tree_small();
        let ws = tree.enumerate_worlds();
        let items: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
        for k in 1..=3 {
            let ctx = TopKContext::new(&tree, k);
            let mean = mean_topk_intersection(&ctx);
            let cost = expected_intersection_distance(&ctx, &mean);
            let (_, brute_cost) =
                oracle::brute_force_mean_topk(&items, k, &ws, intersection_metric);
            assert!(
                (cost - brute_cost).abs() < 1e-9,
                "k={k}: assignment {cost} vs brute force {brute_cost}"
            );
        }
    }

    #[test]
    fn assignment_answer_matches_brute_force_on_correlated_tree() {
        let tree = figure1_correlated_tree();
        let ws = tree.enumerate_worlds();
        let items: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
        for k in 1..=3 {
            let ctx = TopKContext::new(&tree, k);
            let mean = mean_topk_intersection(&ctx);
            let cost = expected_intersection_distance(&ctx, &mean);
            let (_, brute_cost) =
                oracle::brute_force_mean_topk(&items, k, &ws, intersection_metric);
            assert!(
                (cost - brute_cost).abs() < 1e-9,
                "k={k}: assignment {cost} vs brute force {brute_cost}"
            );
        }
    }

    #[test]
    fn suffix_sum_position_profit_matches_direct_summation() {
        for tree in [tree_small(), figure1_correlated_tree()] {
            for k in 1..=4usize {
                let ctx = TopKContext::new(&tree, k);
                for &t in ctx.keys() {
                    for j in 1..=k {
                        let fast = position_profit(&ctx, t, j);
                        let direct: f64 = (j..=k).map(|i| ctx.rank_cdf(t, i) / i as f64).sum();
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
            let optimal = mean_topk_intersection(&ctx);
            let approx = mean_topk_upsilon_h(&ctx);
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
        assert!(mean_topk_intersection(&ctx).is_empty());
        assert_eq!(
            expected_intersection_distance(&ctx, &TopKList::empty()),
            0.0
        );
    }
}
