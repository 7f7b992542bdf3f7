//! Consensus Top-k answers under Kendall's tau (§5.5).
//!
//! Computing the mean answer under the Kendall distance is NP-hard even for
//! explicitly given rankings (Kemeny aggregation of 4 lists), and and/xor
//! trees can encode arbitrary world distributions, so the paper settles for
//! constant-factor approximations. The footrule-optimal answer (§5.4) is a
//! 2-approximation, because the footrule and Kendall Top-k distances are
//! within a factor 2 of each other (Fagin, Kumar and Sivakumar, "Comparing
//! top k lists").
//!
//! The served answer, [`mean_topk_kendall`], starts from that footrule
//! answer and improves it by local search on the exact objective: the
//! "local Kemenization" of Dwork, Kumar, Naor and Sivakumar, with pool
//! replacements added because a Top-k list also chooses its set. It takes
//! a move only when the move lowers `E[d_K]`, so it is never worse than the
//! footrule answer and keeps its factor 2. It reads no RNG.
//!
//! The module also evaluates `E[d_K(τ, τ_pw)]` exactly in polynomial time
//! ([`expected_kendall_distance`]), and keeps pivot/KwikSort aggregation
//! over the exact tournament `Pr(r(t_i) < r(t_j))`
//! ([`mean_topk_kendall_pivot`]) as a library function, whose quality
//! experiment E8 reports beside the served answer.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use super::context::TopKContext;
use super::footrule::mean_topk_footrule;
use cpdb_andxor::batch::KendallPool;
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
/// the batch evaluator is bit-identical at any thread count. `None` when
/// `keys` repeats a key.
pub fn preference_matrix(
    tree: &AndXorTree,
    keys: &[TupleKey],
    threads: usize,
) -> Option<PreferenceMatrix> {
    let weights = tree.batch_pairwise_order(keys, threads);
    let items: Vec<u64> = keys.iter().map(|t| t.0).collect();
    PreferenceMatrix::from_row_major(&items, weights)
}

/// Kendall consensus answer via pivot aggregation: run seeded KwikSort over
/// the pairwise-order tournament of every tuple, take the best of `trials`
/// runs, and return its Top-k prefix. A tree without keys (whose tournament
/// has no ranking) yields the empty list.
pub fn mean_topk_kendall_pivot<R: Rng + ?Sized>(
    tree: &AndXorTree,
    ctx: &TopKContext,
    trials: usize,
    rng: &mut R,
) -> TopKList {
    if ctx.k() == 0 {
        return TopKList::empty();
    }
    match preference_matrix(tree, &tree.keys(), 0).map(|prefs| pivot_best_of(&prefs, trials, rng)) {
        Some(Ok(ranking)) => ranking.top_k(ctx.k()),
        _ => TopKList::empty(),
    }
}

/// Kendall consensus answer via the footrule-optimal answer — a
/// 2-approximation because the two metrics are within a factor 2 of each
/// other (Fagin et al.).
pub fn mean_topk_kendall_via_footrule(ctx: &TopKContext) -> TopKList {
    mean_topk_footrule(ctx)
}

/// The pool of the served answer holds this many keys per unit of `k`.
const POOL_PER_K: usize = 3;

/// A move counts as improving only when it lowers `E[d_K]` by more than
/// this times `k²` (the scale of the distance), so rounding in the table
/// sums can never make the search cycle.
const MIN_GAIN: f64 = 1e-12;

/// The served Kendall answer and its exact `E[d_K]`: local search from the
/// footrule answer ([`mean_topk_footrule`]) on an exact table over a pool of
/// keys.
///
/// The pool is the footrule answer's keys, then the keys with the largest
/// `Pr(r ≤ k)`, up to `3k` keys. One sweep
/// ([`AndXorTree::batch_kendall_pool`]) gives `c_i = E[min(A_i, k)]` per
/// pool key and `P(j, i)` per ordered pool pair, and
///
/// ```text
/// E[d_K(τ)] = Σ_{i∈τ} c_i − Σ_{j before i in τ} P(j, i)
/// ```
///
/// prices a move in `O(k)`. The moves are: swap the keys at two positions
/// `a < b`, in lexicographic order of `(a, b)`; then replace the key at
/// position `a` by a pool key not in the list, in order of position and of
/// pool index. The search applies the first move that lowers `E[d_K]` and
/// starts over, until no move does. The distance returned is read off the
/// same table, so the answer builds one sweep plan and reads no RNG. Since
/// every move lowers the distance, the answer is never worse than the
/// footrule answer. `ctx` must be built on `tree`.
pub fn mean_topk_kendall(tree: &AndXorTree, ctx: &TopKContext) -> (TopKList, f64) {
    let k = ctx.k();
    let start = mean_topk_footrule(ctx);
    if k == 0 || start.is_empty() {
        return (start, 0.0);
    }
    let mut pool: Vec<TupleKey> = start.items().iter().map(|&t| TupleKey(t)).collect();
    for (key, _) in ctx.keys_by_topk_probability() {
        if pool.len() >= POOL_PER_K * k {
            break;
        }
        if !pool.contains(&key) {
            pool.push(key);
        }
    }
    let table = tree.batch_kendall_pool(&pool, k);
    let cost: Vec<f64> = pool
        .iter()
        .zip(table.presence.iter().zip(&table.absent_size))
        .map(|(&key, (&presence, &absent_size))| own_cost(ctx, key, presence, absent_size))
        .collect();

    let mut list: Vec<usize> = (0..start.len()).collect();
    let mut listed: Vec<bool> = (0..pool.len()).map(|p| p < list.len()).collect();
    let tolerance = MIN_GAIN * (k * k) as f64;
    while let Some(step) = first_improving_move(&table, &cost, &list, &listed, tolerance) {
        match step {
            Move::Swap(a, b) => list.swap(a, b),
            Move::Replace(a, y) => {
                listed[list[a]] = false;
                listed[y] = true;
                list[a] = y;
            }
        }
    }

    let mut distance = 0.0;
    for (q, &i) in list.iter().enumerate() {
        let ahead: f64 = list[..q].iter().map(|&j| table.ahead(j, i)).sum();
        distance += cost[i] - ahead;
    }
    // The pool holds distinct keys, so the list has no duplicate.
    let answer = TopKList::new(list.iter().map(|&p| pool[p].0).collect()).unwrap_or_default();
    (answer, distance)
}

/// A local-search move on a list of pool indices.
enum Move {
    /// Swap the keys at positions `a < b`.
    Swap(usize, usize),
    /// Put pool key `y` at position `a`.
    Replace(usize, usize),
}

/// The first move, in the order [`mean_topk_kendall`] documents, that
/// lowers the distance by more than `tolerance`. A move's gain is the drop
/// in `Σ c_i − Σ_{j before i} P(j, i)`.
fn first_improving_move(
    table: &KendallPool,
    cost: &[f64],
    list: &[usize],
    listed: &[bool],
    tolerance: f64,
) -> Option<Move> {
    let p = |j: usize, i: usize| table.ahead(j, i);
    for a in 0..list.len() {
        for b in a + 1..list.len() {
            let (x, y) = (list[a], list[b]);
            // Only the pair itself and the pairs with the keys between the
            // two positions change order.
            let mut gain = p(y, x) - p(x, y);
            for &z in &list[a + 1..b] {
                gain += p(y, z) - p(x, z) + p(z, x) - p(z, y);
            }
            if gain > tolerance {
                return Some(Move::Swap(a, b));
            }
        }
    }
    for (a, &x) in list.iter().enumerate() {
        for y in (0..listed.len()).filter(|&y| !listed[y]) {
            let mut gain = cost[x] - cost[y];
            for &z in &list[..a] {
                gain += p(z, y) - p(z, x);
            }
            for &z in &list[a + 1..] {
                gain += p(y, z) - p(x, z);
            }
            if gain > tolerance {
                return Some(Move::Replace(a, y));
            }
        }
    }
    None
}

/// `c_i = E[min(A_i, k)]` of `key`: the present half read off its row of
/// the rank context, `Σ_{r ≤ k} (r − 1)·Pr(r(i) = r) + k·Pr(i present ∧
/// r(i) > k)`, plus the absent half `E[min(|W|, k) · 1{i absent}]`.
fn own_cost(ctx: &TopKContext, key: TupleKey, presence: f64, absent_size: f64) -> f64 {
    let k = ctx.k();
    let present = ctx.row_of(key).map_or(0.0, |row| {
        let (mass, weighted) = (row.prefix_mass[k - 1], row.prefix_weighted[k - 1]);
        (weighted - mass) + k as f64 * (presence - mass)
    });
    present + absent_size
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
/// `i`'s row of the rank context; every other term comes from
/// [`AndXorTree::batch_kendall_terms`]. `ctx` must be built on `tree`.
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
        total += own_cost(ctx, *key, terms.presence[p], terms.absent_size[p]) - terms.ahead[p];
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
        let prefs = preference_matrix(&tree, &keys, 0).unwrap();
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
        assert_eq!(mean_topk_kendall(&tree, &ctx).0.items(), &[1, 2, 3]);
    }

    /// A pool wider than the list, with correlated keys: the served answer
    /// against enumeration, the footrule answer and the optimum.
    fn wide_tree() -> AndXorTree {
        independent_tree(&[
            (1, 90.0, 0.35),
            (2, 85.0, 0.9),
            (3, 80.0, 0.55),
            (4, 75.0, 0.7),
            (5, 70.0, 0.45),
            (6, 65.0, 0.8),
            (7, 60.0, 0.3),
        ])
    }

    #[test]
    fn served_answer_is_exact_and_no_worse_than_footrule() {
        for tree in [tree_small(), figure1_correlated_tree(), wide_tree()] {
            let ws = tree.enumerate_worlds();
            let items: Vec<u64> = tree.keys().iter().map(|t| t.0).collect();
            for k in 1..=items.len().min(4) {
                let ctx = TopKContext::new(&tree, k);
                let (answer, distance) = mean_topk_kendall(&tree, &ctx);
                assert_eq!(answer.len(), k.min(items.len()));
                let enumerated = oracle::expected_topk_distance(&answer, &ws, k, kendall_tau_topk);
                assert!(
                    (distance - enumerated).abs() < 1e-12,
                    "k={k} {answer:?}: table {distance} vs enumerated {enumerated}"
                );
                let footrule = mean_topk_footrule(&ctx);
                let footrule_cost = expected_kendall_distance(&tree, &ctx, &footrule);
                assert!(distance <= footrule_cost + 1e-12, "k={k}");
                let (_, opt) = oracle::brute_force_mean_topk(&items, k, &ws, kendall_tau_topk);
                assert!(distance <= 2.0 * opt + 1e-9, "k={k}: {distance} vs {opt}");
            }
        }
    }

    #[test]
    fn zero_k_and_empty_pool_edge_cases() {
        let tree = tree_small();
        let ctx = TopKContext::new(&tree, 0);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(mean_topk_kendall_pivot(&tree, &ctx, 2, &mut rng).is_empty());
        assert_eq!(mean_topk_kendall(&tree, &ctx), (TopKList::empty(), 0.0));
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
