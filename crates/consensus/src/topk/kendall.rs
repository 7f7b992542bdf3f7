//! Consensus Top-k answers under Kendall's tau (§5.5).
//!
//! Computing the mean answer under the Kendall distance is NP-hard even for
//! explicitly given rankings (Kemeny aggregation of 4 lists), and and/xor
//! trees can encode arbitrary world distributions, so the paper settles for
//! constant-factor approximations:
//!
//! * the footrule-optimal answer (§5.4) is a 2-approximation, because the
//!   footrule and Kendall Top-k distances are within a factor 2 of each
//!   other;
//! * pivot/KwikSort aggregation driven by the exact pairwise probabilities
//!   `Pr(r(t_i) < r(t_j))` — the only statistic Ailon's partial-rank-
//!   aggregation algorithms need — gives a constant-factor approximation.
//!   (The paper invokes Ailon's LP-based 3/2-approximation; this repository
//!   substitutes the combinatorial pivot scheme, whose measured quality is
//!   reported by experiment E8.)
//!
//! The module also evaluates `E[d_K(τ, τ_pw)]` exactly in polynomial time
//! ([`expected_kendall_distance`], the distance every Kendall answer
//! reports).

use super::context::TopKContext;
use super::footrule::mean_topk_footrule;
use cpdb_andxor::AndXorTree;
use cpdb_model::TupleKey;
use cpdb_rankagg::pivot::{pivot_best_of, PreferenceMatrix};
use cpdb_rankagg::TopKList;
use rand::Rng;

/// Builds the pairwise-preference tournament `w(i, j) = Pr(r(t_i) < r(t_j))`
/// over the given keys, using exact generating-function computations via the
/// batch evaluator ([`AndXorTree::batch_pairwise_order`]): one shared
/// root-path extraction serves every pair instead of two tree sweeps per
/// pair. `threads` is the worker count (`0` = the machine's parallelism);
/// the batch evaluator is bit-identical at any thread count.
pub fn preference_matrix(tree: &AndXorTree, keys: &[TupleKey], threads: usize) -> PreferenceMatrix {
    let weights = tree.batch_pairwise_order(keys, threads);
    matrix_from_weights(keys, weights)
}

/// Assembles a [`PreferenceMatrix`] from a row-major weight matrix over
/// `keys` — the shared back end of the batch build and the live-update
/// patch path.
fn matrix_from_weights(keys: &[TupleKey], weights: Vec<f64>) -> PreferenceMatrix {
    let items: Vec<u64> = keys.iter().map(|t| t.0).collect();
    PreferenceMatrix::from_row_major(&items, weights)
        .expect("the batch evaluator returns one entry per ordered key pair")
}

/// The **patch path** of [`preference_matrix`] for live updates: rebuilds
/// only the rows/columns of the `affected` keys on the mutated tree (via
/// [`AndXorTree::batch_pairwise_order_partial`], the same per-pair closed
/// form as the full batch build) and copies every other entry from the
/// pre-mutation tournament `old`. When the mutation's
/// [`cpdb_andxor::DeltaImpact`] certifies that only `affected` keys were
/// touched, the result is **bit-identical** to a from-scratch
/// [`preference_matrix`] on the mutated tree, at
/// `O(|affected|·n)` pair evaluations instead of `O(n²)`.
pub fn preference_matrix_patched(
    tree: &AndXorTree,
    keys: &[TupleKey],
    affected: &std::collections::BTreeSet<TupleKey>,
    old: &PreferenceMatrix,
    threads: usize,
) -> PreferenceMatrix {
    let recompute: Vec<bool> = keys.iter().map(|k| affected.contains(k)).collect();
    // Old entries are read by matrix position, not looked up per pair.
    let old_pos: Vec<Option<usize>> = keys.iter().map(|k| old.position(k.0)).collect();
    let old_n = old.items().len();
    let weights = tree.batch_pairwise_order_partial(
        keys,
        &recompute,
        |i, j| match (old_pos[i], old_pos[j]) {
            (Some(a), Some(b)) => old.row_major()[a * old_n + b],
            _ => 0.0,
        },
        threads,
    );
    matrix_from_weights(keys, weights)
}

/// Kendall consensus answer via pivot aggregation: run seeded KwikSort over
/// the pairwise-order tournament of every tuple, take the best of `trials`
/// runs, and return its Top-k prefix.
pub fn mean_topk_kendall_pivot<R: Rng + ?Sized>(
    tree: &AndXorTree,
    ctx: &TopKContext,
    trials: usize,
    rng: &mut R,
) -> TopKList {
    if ctx.k() == 0 {
        return TopKList::empty();
    }
    let prefs = preference_matrix(tree, &tree.keys(), 0);
    mean_topk_kendall_pivot_from_prefs(ctx, &prefs, trials, rng)
}

/// The pivot aggregation step alone, given an already-built tournament:
/// best-of-`trials` KwikSort, truncated to the Top-k prefix. An empty
/// tournament (the only way a tournament over distinct keys has no ranking,
/// `RankError::Empty`) yields the empty list.
pub fn mean_topk_kendall_pivot_from_prefs<R: Rng + ?Sized>(
    ctx: &TopKContext,
    prefs: &PreferenceMatrix,
    trials: usize,
    rng: &mut R,
) -> TopKList {
    if ctx.k() == 0 {
        return TopKList::empty();
    }
    match pivot_best_of(prefs, trials, rng) {
        Ok(ranking) => ranking.top_k(ctx.k()),
        Err(_) => TopKList::empty(),
    }
}

/// Kendall consensus answer via the footrule-optimal answer — a
/// 2-approximation because the two metrics are within a factor 2 of each
/// other (Fagin et al.).
pub fn mean_topk_kendall_via_footrule(ctx: &TopKContext) -> TopKList {
    mean_topk_footrule(ctx)
}

/// Exact `E[d_K(τ, τ_pw)]` of a candidate `τ` at the context's `k`, in
/// polynomial time:
///
/// ```text
/// E[d_K(τ)] = Σ_{i∈τ} ( E[min(A_i, k)] − Σ_{j before i in τ} P(j, i) )
/// ```
///
/// where `A_i` is the number of present tuples that out-rank `i` (or `|W|`
/// when `i` is absent) and `P(j, i) = Pr(r(j) ≤ k ∧ r(j) < r(i))`, an
/// absent tuple ranking ∞. The present half of `E[min(A_i, k)]` is read off
/// `i`'s row of the rank context,
/// `Σ_{r ≤ k} (r − 1)·Pr(r(i) = r) + k·Pr(i present ∧ r(i) > k)`; every
/// other term comes from [`AndXorTree::batch_kendall_terms`]. `ctx` must
/// be built on `tree`.
pub fn expected_kendall_distance(
    tree: &AndXorTree,
    ctx: &TopKContext,
    candidate: &TopKList,
) -> f64 {
    let k = ctx.k();
    if k == 0 {
        return 0.0;
    }
    let keys: Vec<TupleKey> = candidate.items().iter().map(|&t| TupleKey(t)).collect();
    let terms = tree.batch_kendall_terms(&keys, k);
    let mut total = 0.0;
    for (p, key) in keys.iter().enumerate() {
        let present = ctx.row_of(*key).map_or(0.0, |row| {
            let (mass, weighted) = (row.prefix_mass[k - 1], row.prefix_weighted[k - 1]);
            (weighted - mass) + k as f64 * (terms.presence[p] - mass)
        });
        total += present + terms.absent_size[p] - terms.ahead[p];
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use cpdb_andxor::figure1::figure1_correlated_tree;
    use cpdb_andxor::AndXorTreeBuilder;
    use cpdb_model::WorldModel;
    use cpdb_rankagg::metrics::kendall_tau_topk;
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

    fn tree_small() -> AndXorTree {
        independent_tree(&[
            (1, 90.0, 0.4),
            (2, 80.0, 0.9),
            (3, 70.0, 0.6),
            (4, 60.0, 0.8),
        ])
    }

    #[test]
    fn preference_matrix_is_consistent_with_enumeration() {
        let tree = figure1_correlated_tree();
        let keys = tree.keys();
        let prefs = preference_matrix(&tree, &keys, 0);
        let ws = tree.enumerate_worlds();
        for &a in &keys {
            for &b in &keys {
                if a == b {
                    continue;
                }
                let expected = ws.expectation(|w| match (w.rank_of(a), w.rank_of(b)) {
                    (Some(ra), Some(rb)) => f64::from(ra < rb),
                    (Some(_), None) => 1.0,
                    _ => 0.0,
                });
                assert!((prefs.weight(a.0, b.0) - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn pivot_answer_is_within_factor_two_of_brute_force() {
        let tree = tree_small();
        let ws = tree.enumerate_worlds();
        let items: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
        let mut rng = StdRng::seed_from_u64(5);
        for k in 1..=3 {
            let ctx = TopKContext::new(&tree, k);
            let pivot = mean_topk_kendall_pivot(&tree, &ctx, 8, &mut rng);
            let pivot_cost = oracle::expected_topk_distance(&pivot, &ws, k, kendall_tau_topk);
            let (_, opt_cost) = oracle::brute_force_mean_topk(&items, k, &ws, kendall_tau_topk);
            assert!(
                pivot_cost <= 2.0 * opt_cost + 1e-9,
                "k={k}: pivot {pivot_cost} vs optimal {opt_cost}"
            );
        }
    }

    #[test]
    fn footrule_answer_is_within_factor_two_of_brute_force() {
        let tree = tree_small();
        let ws = tree.enumerate_worlds();
        let items: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
        for k in 1..=3 {
            let ctx = TopKContext::new(&tree, k);
            let answer = mean_topk_kendall_via_footrule(&ctx);
            let cost = oracle::expected_topk_distance(&answer, &ws, k, kendall_tau_topk);
            let (_, opt_cost) = oracle::brute_force_mean_topk(&items, k, &ws, kendall_tau_topk);
            assert!(
                cost <= 2.0 * opt_cost + 1e-9,
                "k={k}: footrule answer {cost} vs optimal {opt_cost}"
            );
        }
    }

    #[test]
    fn exact_distance_matches_enumeration() {
        for tree in [tree_small(), figure1_correlated_tree()] {
            let n = tree.keys().len();
            let ws = tree.enumerate_worlds();
            for k in 0..=n + 1 {
                let ctx = TopKContext::new(&tree, k);
                for items in [vec![], vec![2], vec![2, 4], vec![4, 3, 1], vec![1, 2, 3, 4]] {
                    let candidate = TopKList::new(items).unwrap();
                    let exact = expected_kendall_distance(&tree, &ctx, &candidate);
                    let enumerated =
                        oracle::expected_topk_distance(&candidate, &ws, k, kendall_tau_topk);
                    assert!(
                        (exact - enumerated).abs() < 1e-12,
                        "k={k} {candidate:?}: exact {exact} vs enumerated {enumerated}"
                    );
                }
            }
        }
    }

    #[test]
    fn unanimous_ordering_is_recovered() {
        // Near-certain tuples with clearly separated scores: the consensus
        // order should follow the scores.
        let tree = independent_tree(&[(1, 100.0, 0.99), (2, 90.0, 0.99), (3, 80.0, 0.99)]);
        let ctx = TopKContext::new(&tree, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let pivot = mean_topk_kendall_pivot(&tree, &ctx, 4, &mut rng);
        assert_eq!(pivot.items(), &[1, 2, 3]);
    }

    #[test]
    fn zero_k_and_empty_pool_edge_cases() {
        let tree = tree_small();
        let ctx = TopKContext::new(&tree, 0);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(mean_topk_kendall_pivot(&tree, &ctx, 2, &mut rng).is_empty());
        // An empty tournament is the empty list, not a panic.
        let empty = PreferenceMatrix::new(&[]);
        let ctx = TopKContext::new(&tree, 2);
        assert!(mean_topk_kendall_pivot_from_prefs(&ctx, &empty, 2, &mut rng).is_empty());
        // At k = 0 every list is at distance 0. The empty list shares no
        // pair with a world's list, and K^(0) counts a pair confined to one
        // list as 0, so it is at distance 0 at any k.
        let list = TopKList::new(vec![2, 1]).unwrap();
        let zero = TopKContext::new(&tree, 0);
        assert_eq!(expected_kendall_distance(&tree, &zero, &list), 0.0);
        assert_eq!(
            expected_kendall_distance(&tree, &TopKContext::new(&tree, 1), &TopKList::empty()),
            0.0
        );
    }
}
