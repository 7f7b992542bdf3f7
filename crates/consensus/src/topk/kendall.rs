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
//! The module also evaluates `E[d_K(τ, τ_pw)]` of any list exactly in
//! polynomial time ([`expected_kendall_distance`]), from the same table the
//! served answer reads its distance off. The pivot/KwikSort aggregation over
//! the exact tournament `Pr(r(t_i) < r(t_j))`, whose quality experiment E8
//! reports beside the served answer, is a reference in `cpdb_testkit::pivot`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use super::context::TopKContext;
use super::footrule::mean_topk_footrule;
use super::sym_diff::topk_list;
use cpdb_andxor::batch::KendallPool;
use cpdb_andxor::AndXorTree;
use cpdb_model::{ModelError, TupleKey};
use cpdb_rankagg::TopKList;

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
/// footrule answer. `ctx` must be built on `tree`. A context naming one key
/// twice is [`ModelError::DuplicateKey`].
pub fn mean_topk_kendall(
    tree: &AndXorTree,
    ctx: &TopKContext,
) -> Result<(TopKList, f64), ModelError> {
    let k = ctx.k();
    let start = mean_topk_footrule(ctx)?;
    if k == 0 || start.is_empty() {
        return Ok((start, 0.0));
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
    let (table, cost) = pool_table(tree, ctx, &pool);

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

    let answer = topk_list(
        list.iter().map(|&p| pool[p]),
        "mean Top-k under Kendall's tau",
    )?;
    Ok((answer, list_distance(&table, &cost, &list)))
}

/// The table of `pool` (distinct keys) at the context's `k > 0`, and
/// `c_i = E[min(A_i, k)]` per pool key.
fn pool_table(tree: &AndXorTree, ctx: &TopKContext, pool: &[TupleKey]) -> (KendallPool, Vec<f64>) {
    let table = tree.batch_kendall_pool(pool, ctx.k());
    let cost = pool
        .iter()
        .zip(table.presence.iter().zip(&table.absent_size))
        .map(|(&key, (&presence, &absent_size))| own_cost(ctx, key, presence, absent_size))
        .collect();
    (table, cost)
}

/// `E[d_K]` of the list of pool indices `list`, read off the table:
/// `Σ_{i∈τ} c_i − Σ_{j before i in τ} P(j, i)`, where `cost[i]` is `c_i`.
fn list_distance(table: &KendallPool, cost: &[f64], list: &[usize]) -> f64 {
    let mut distance = 0.0;
    for (q, &i) in list.iter().enumerate() {
        let ahead: f64 = list[..q].iter().map(|&j| table.ahead(j, i)).sum();
        distance += cost[i] - ahead;
    }
    distance
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
/// absent tuple ranking ∞. The candidate's keys are the pool of one
/// [`AndXorTree::batch_kendall_pool`] table, read as [`mean_topk_kendall`]
/// reads its own distance; the present half of `E[min(A_i, k)]` comes from
/// `i`'s row of the rank context. `ctx` must be built on `tree`.
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
    let (table, cost) = pool_table(tree, ctx, &keys);
    let list: Vec<usize> = (0..keys.len()).collect();
    list_distance(&table, &cost, &list)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpdb_andxor::AndXorTreeBuilder;

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
    fn unanimous_ordering_is_recovered() {
        // Near-certain tuples with clearly separated scores: the consensus
        // order should follow the scores.
        let tree = independent_tree(&[(1, 100.0, 0.99), (2, 90.0, 0.99), (3, 80.0, 0.99)]);
        let ctx = TopKContext::new(&tree, 3);
        assert_eq!(
            mean_topk_kendall(&tree, &ctx).unwrap().0.items(),
            &[1, 2, 3]
        );
    }

    #[test]
    fn zero_k_and_empty_pool_edge_cases() {
        let tree = tree_small();
        let ctx = TopKContext::new(&tree, 0);
        assert_eq!(
            mean_topk_kendall(&tree, &ctx).unwrap(),
            (TopKList::empty(), 0.0)
        );
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
