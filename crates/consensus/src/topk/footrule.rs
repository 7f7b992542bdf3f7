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

use super::context::TopKContext;
use cpdb_assignment::min_cost_assignment_flat;
use cpdb_model::TupleKey;
use cpdb_rankagg::TopKList;

/// The per-(tuple, position) charge `f(t, i)` of Figure 2.
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
/// which double-counts it; the tests in this module validate the corrected
/// expression against brute-force enumeration (they fail with the paper's
/// literal sign).
///
/// Served in O(1) per `(t, i)` from the per-tuple prefix sums cached in
/// [`TopKContext`] ([`TopKContext::misplacement_mass`]), so the full n×k
/// assignment cost matrix costs O(n·k) instead of O(n·k²); the tests pin
/// it to the direct O(k) summation over the rank PMF.
pub fn placement_cost(ctx: &TopKContext, t: TupleKey, i: usize) -> f64 {
    ctx.misplacement_mass(t, i) - i as f64 * ctx.beyond_topk_probability(t) + ctx.upsilon2(t)
        - 2.0 * (ctx.k() as f64 + 1.0) * ctx.upsilon1(t)
}

/// The constant term `C` of Figure 2 (independent of the candidate answer).
pub fn constant_term(ctx: &TopKContext) -> f64 {
    let k = ctx.k() as f64;
    let per_tuple: f64 = ctx
        .keys()
        .iter()
        .map(|&t| (k + 1.0) * ctx.upsilon1(t) - ctx.upsilon2(t))
        .sum();
    (k + 1.0) * k + per_tuple
}

/// The exact expected footrule distance `E[F*(τ, τ_pw)]` of a candidate
/// answer, from the Figure 2 decomposition.
pub fn expected_footrule_distance(ctx: &TopKContext, candidate: &TopKList) -> f64 {
    let placements: f64 = candidate
        .items()
        .iter()
        .enumerate()
        .map(|(idx, &t)| placement_cost(ctx, TupleKey(t), idx + 1))
        .sum();
    constant_term(ctx) + placements
}

/// The exact mean Top-k answer under the footrule metric, via a min-cost
/// assignment on the `f(t, i)` matrix (tuples × positions). Placements with
/// positive cost are left unused only when fewer than `k` tuples exist.
pub fn mean_topk_footrule(ctx: &TopKContext) -> TopKList {
    let k = ctx.k();
    if k == 0 || ctx.keys().is_empty() {
        return TopKList::empty();
    }
    let keys = ctx.keys();
    // Row-major flat cost matrix: O(n·k) to fill (placement_cost is O(1))
    // and one allocation instead of one per row.
    let mut cost = Vec::with_capacity(keys.len() * k);
    for &t in keys {
        for i in 1..=k {
            cost.push(placement_cost(ctx, t, i));
        }
    }
    let assignment = min_cost_assignment_flat(&cost, keys.len(), k);
    let mut slots: Vec<Option<u64>> = vec![None; k];
    for (row, col) in assignment.row_to_col.iter().enumerate() {
        if let Some(c) = col {
            slots[*c] = Some(keys[row].0);
        }
    }
    TopKList::new(slots.into_iter().flatten().collect()).expect("keys are distinct")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use cpdb_andxor::figure1::figure1_correlated_tree;
    use cpdb_andxor::{AndXorTree, AndXorTreeBuilder};
    use cpdb_model::WorldModel;
    use cpdb_rankagg::metrics::footrule_distance;

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

    /// The Figure 2 decomposition must equal the definitional expectation.
    /// This is the computational validation of the paper's Figure 2.
    #[test]
    fn figure2_decomposition_matches_enumeration() {
        let tree = tree_small();
        let ws = tree.enumerate_worlds();
        for k in 1..=3usize {
            let ctx = TopKContext::new(&tree, k);
            let candidates = [
                TopKList::new((1..=k as u64).collect()).unwrap(),
                TopKList::new((1..=k as u64).rev().collect()).unwrap(),
                TopKList::new(((5 - k as u64)..5).collect()).unwrap(),
            ];
            for cand in &candidates {
                let formula = expected_footrule_distance(&ctx, cand);
                let direct = oracle::expected_topk_distance(cand, &ws, k, footrule_distance);
                assert!(
                    (formula - direct).abs() < 1e-9,
                    "k={k} cand={cand}: Figure 2 formula {formula} vs enumeration {direct}"
                );
            }
        }
    }

    #[test]
    fn figure2_decomposition_matches_enumeration_on_correlated_tree() {
        let tree = figure1_correlated_tree();
        let ws = tree.enumerate_worlds();
        for k in 1..=3usize {
            let ctx = TopKContext::new(&tree, k);
            // Candidates over the five keys of Figure 1(ii).
            let candidates = [
                TopKList::new((1..=k as u64).collect()).unwrap(),
                TopKList::new((3..3 + k as u64).collect()).unwrap(),
            ];
            for cand in &candidates {
                let formula = expected_footrule_distance(&ctx, cand);
                let direct = oracle::expected_topk_distance(cand, &ws, k, footrule_distance);
                assert!(
                    (formula - direct).abs() < 1e-9,
                    "k={k} cand={cand}: {formula} vs {direct}"
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
            let mean = mean_topk_footrule(&ctx);
            let cost = expected_footrule_distance(&ctx, &mean);
            let (_, brute_cost) = oracle::brute_force_mean_topk(&items, k, &ws, footrule_distance);
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
        for k in 1..=2 {
            let ctx = TopKContext::new(&tree, k);
            let mean = mean_topk_footrule(&ctx);
            let cost = expected_footrule_distance(&ctx, &mean);
            let (_, brute_cost) = oracle::brute_force_mean_topk(&items, k, &ws, footrule_distance);
            assert!(
                (cost - brute_cost).abs() < 1e-9,
                "k={k}: assignment {cost} vs brute force {brute_cost}"
            );
        }
    }

    #[test]
    fn prefix_sum_placement_cost_matches_direct_summation() {
        for tree in [tree_small(), figure1_correlated_tree()] {
            for k in 1..=4usize {
                let ctx = TopKContext::new(&tree, k);
                for &t in ctx.keys() {
                    for i in 1..=k {
                        let fast = placement_cost(&ctx, t, i);
                        let misplacement: f64 = (1..=k)
                            .map(|j| ctx.rank_probability(t, j) * (i as f64 - j as f64).abs())
                            .sum();
                        let upsilon2: f64 =
                            (1..=k).map(|j| j as f64 * ctx.rank_probability(t, j)).sum();
                        let direct = misplacement - i as f64 * ctx.beyond_topk_probability(t)
                            + upsilon2
                            - 2.0 * (k as f64 + 1.0) * ctx.upsilon1(t);
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
        let mean = mean_topk_footrule(&ctx);
        assert_eq!(mean.items(), &[1, 2]);
    }

    #[test]
    fn empty_and_zero_k_cases() {
        let tree = independent_tree(&[(1, 1.0, 0.5)]);
        let ctx = TopKContext::new(&tree, 0);
        assert!(mean_topk_footrule(&ctx).is_empty());
    }
}
