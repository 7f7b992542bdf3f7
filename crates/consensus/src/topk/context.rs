//! Shared precomputation for the Top-k consensus algorithms.
//!
//! Every algorithm in §5 is driven by the same quantities: for each tuple `t`
//! and each position `i ≤ k`, the probability `Pr(r(t) = i)` that `t` is
//! ranked exactly `i`-th in the random possible world. [`TopKContext`]
//! computes them once from the and/xor tree (via the generating-function
//! engine), one row per sorted tree key.
//!
//! The builders read the rows by position ([`TopKContext::row`],
//! [`TopKContext::rows`]) and take every statistic they need from the
//! [`RankRow`]: `Pr(r(t) ≤ i)`, `Pr(r(t) ≤ k)` (Υ₁ of §5.4), Υ₂ and the
//! misplacement mass of the footrule. A caller that holds only a key finds
//! its row once with [`TopKContext::row_of`]. Lists ranked by a per-key
//! score all come from one order, [`rank_by_score`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use cpdb_andxor::AndXorTree;
use cpdb_model::TupleKey;
use std::sync::Arc;

/// The per-key statistic tables, in slab order.
const PMF: usize = 0;
const PREFIX_MASS: usize = 1;
const PREFIX_WEIGHTED: usize = 2;
const TABLES: usize = 3;

/// One key's rank statistics in a [`TopKContext`] view: the first `k`
/// entries of each of its tables, entry `i − 1` belonging to position `i`.
/// The default row, with no entries, is the row of a key the context does
/// not hold: every statistic of it is 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankRow<'a> {
    /// `Pr(r(t) = i)`.
    pub pmf: &'a [f64],
    /// The raw (unclamped) prefix sums `Σ_{j ≤ i} Pr(r(t) = j)`.
    pub prefix_mass: &'a [f64],
    /// The rank-weighted prefix sums `Σ_{j ≤ i} j·Pr(r(t) = j)`.
    pub prefix_weighted: &'a [f64],
}

impl RankRow<'_> {
    /// `Pr(r(t) ≤ i)`, the prefix mass clamped to 1, with the context's
    /// conventions: 0 at `i = 0`, the value at `k` for `i > k`.
    pub fn cdf(&self, i: usize) -> f64 {
        // `min` first: with k = 0 every `i` is out of range.
        let i = i.min(self.prefix_mass.len());
        i.checked_sub(1)
            .and_then(|i| self.prefix_mass.get(i))
            .map_or(0.0, |m| m.min(1.0))
    }

    /// Υ₁(t) = `Pr(r(t) ≤ k)` (§5.4), the probability that `t` makes the
    /// Top-k at all: [`RankRow::cdf`] at `k`. `Pr(r(t) > k)`, absence
    /// included, is `1 −` this.
    pub fn in_topk(&self) -> f64 {
        self.cdf(self.pmf.len())
    }

    /// Υ₂(t) = `Σ_{i ≤ k} i · Pr(r(t) = i)` (§5.4), the rank-weighted
    /// prefix sum at `k`.
    pub fn weighted_rank(&self) -> f64 {
        self.prefix_weighted.last().copied().unwrap_or(0.0)
    }

    /// The misplacement mass `Σ_{j ≤ k} Pr(r(t) = j)·|i − j|` of placing `t`
    /// at position `i`, in O(1) from the prefix sums: with
    /// `S₀(i) = Σ_{j ≤ i} Pr(r(t) = j)` and `S₁(i) = Σ_{j ≤ i} j·Pr(r(t) = j)`,
    ///
    /// ```text
    /// Σ_{j ≤ k} Pr(r(t) = j)·|i − j| = 2(i·S₀(i) − S₁(i)) + S₁(k) − i·S₀(k)
    /// ```
    ///
    /// (split the sum at `j ≤ i` / `j > i`). This is the footrule hot path:
    /// it turns the assignment cost-matrix build from O(n·k²) into O(n·k).
    /// The tests pin it to the direct summation.
    pub fn displacement(&self, i: usize) -> f64 {
        let (mass, weighted) = (self.prefix_mass, self.prefix_weighted);
        let (Some(&s0_k), Some(&s1_k)) = (mass.last(), weighted.last()) else {
            return 0.0;
        };
        let i_f = i as f64;
        if i == 0 {
            s1_k
        } else if i >= mass.len() {
            i_f * s0_k - s1_k
        } else {
            2.0 * (i_f * mass[i - 1] - weighted[i - 1]) + s1_k - i_f * s0_k
        }
    }
}

/// Sorts scored items by decreasing score, ties broken by the item: the one
/// ranking order of the Top-k layer. Over sorted keys, or over positions
/// into them, a tie goes to the smaller key. `0.0` and `−0.0` tie, and a
/// NaN score (an expected score over a NaN-scored alternative) ranks last,
/// so the order is total.
pub fn rank_by_score<T: Ord>(scored: &mut [(T, f64)]) {
    scored.sort_by(|(a, sa), (b, sb)| {
        sb.partial_cmp(sa)
            .unwrap_or_else(|| sa.is_nan().cmp(&sb.is_nan()))
            .then_with(|| a.cmp(b))
    });
}

/// Precomputed rank statistics for a Top-k query over an and/xor tree.
///
/// Every statistic lives in one slab, shared by every view of it, built at a
/// row stride `K`: for the key at position `p` of the sorted
/// [`TopKContext::keys`], table `T` is the `K` entries from `(p·3 + T)·K`,
/// entry `i − 1` belonging to position `i`:
///
/// * `pmf`: `Pr(r(t) = i)`;
/// * `prefix_mass`: the raw (unclamped) prefix sums `Σ_{j ≤ i} Pr(r(t) = j)`,
///   the O(1) backbone of the footrule placement cost; clamped to 1 it is
///   the CDF `Pr(r(t) ≤ i)`;
/// * `prefix_weighted`: the rank-weighted prefix sums
///   `Σ_{j ≤ i} j·Pr(r(t) = j)`, whose entry at `k` is Υ₂(t).
///
/// All three are prefix tables: the first `k` entries of a row built at `K`
/// hold the bits of the row built at `k` ([`AndXorTree::batch_rank_pmfs`]
/// never feeds a coefficient above its truncation into one below it). So a
/// view at `k ≤ K` ([`TopKContext::at`]) answers every accessor exactly as
/// [`TopKContext::new`] at `k` would.
#[derive(Debug, Clone)]
pub struct TopKContext {
    /// The view's query parameter; at most `stride`.
    k: usize,
    /// The row stride `K` the slab was built at.
    stride: usize,
    keys: Arc<[TupleKey]>,
    stats: Arc<[f64]>,
}

impl TopKContext {
    /// Builds the context for a Top-k query with the given `k`.
    ///
    /// The rank PMFs come from the single-sweep batch evaluator
    /// ([`AndXorTree::batch_rank_pmfs`]) — one shared generating-function
    /// sweep instead of one per key — as one row per sorted tree key.
    pub fn new(tree: &AndXorTree, k: usize) -> Self {
        Self::fill(k, tree.keys(), &tree.batch_rank_pmfs(k))
    }

    /// Builds a context from a row-major `keys.len() × k` rank-PMF table
    /// (row `p` holds `Pr(r(keys[p]) = i)` at `i − 1`), the form
    /// [`TopKContext::pmf_rows`] exports. `None` unless `keys` strictly
    /// increase and `rows` has exactly one length-`k` row per key.
    pub fn from_rows(k: usize, keys: Vec<TupleKey>, rows: &[f64]) -> Option<Self> {
        let sorted = keys.windows(2).all(|w| w[0] < w[1]);
        (sorted && keys.len().checked_mul(k) == Some(rows.len())).then(|| Self::fill(k, keys, rows))
    }

    /// Derives the prefix tables from the rank-PMF rows, one length-`k` row
    /// per key, in O(n·k); they make the per-(tuple, position) queries of
    /// the assignment solvers O(1).
    fn fill(k: usize, keys: Vec<TupleKey>, rows: &[f64]) -> Self {
        let mut stats = vec![0.0; keys.len() * TABLES * k];
        // `max(1)`: with k = 0 the slab is empty and there is nothing to fill.
        let k1 = k.max(1);
        for (tables, p) in stats
            .chunks_exact_mut(TABLES * k1)
            .zip(rows.chunks_exact(k1))
        {
            let (pmf, rest) = tables.split_at_mut(k);
            let (mass, weighted) = rest.split_at_mut(k);
            let (mut acc, mut wacc) = (0.0, 0.0);
            for (i, &v) in p.iter().enumerate() {
                acc += v;
                wacc += (i + 1) as f64 * v;
                pmf[i] = v;
                mass[i] = acc;
                weighted[i] = wacc;
            }
        }
        TopKContext {
            k,
            stride: k,
            keys: keys.into(),
            stats: stats.into(),
        }
    }

    /// The view of this context at a smaller (or equal) `k`: it shares the
    /// slab and answers exactly as [`TopKContext::new`] at `k` would, bit for
    /// bit. `None` when `k` exceeds the stride the slab was built at.
    pub fn at(&self, k: usize) -> Option<Self> {
        (k <= self.stride).then(|| TopKContext { k, ..self.clone() })
    }

    /// The view's rank-PMF rows, row-major over [`TopKContext::keys`]: the
    /// input of [`TopKContext::from_rows`] at the view's `k`.
    pub fn pmf_rows(&self) -> Vec<f64> {
        self.stats
            .chunks_exact(TABLES * self.stride.max(1))
            .flat_map(|tables| &tables[PMF * self.stride..PMF * self.stride + self.k])
            .copied()
            .collect()
    }

    /// The view's part of table `table` of the key at `position` of
    /// [`TopKContext::keys`] (its first `k` entries), or `None` past the
    /// last key.
    fn table_at(&self, position: usize, table: usize) -> Option<&[f64]> {
        let start = (position * TABLES + table) * self.stride;
        self.stats.get(start..start + self.k)
    }

    /// [`TopKContext::row`] for key `t`, or `None` for an unknown key.
    pub fn row_of(&self, t: TupleKey) -> Option<RankRow<'_>> {
        self.row(self.keys.binary_search(&t).ok()?)
    }

    /// The view's statistics of the key at `position` of
    /// [`TopKContext::keys`], read without a key search; `None` past the
    /// last key.
    pub fn row(&self, position: usize) -> Option<RankRow<'_>> {
        // At k = 0 every table is empty, so the bounds come from the keys.
        if position >= self.keys.len() {
            return None;
        }
        Some(RankRow {
            pmf: self.table_at(position, PMF)?,
            prefix_mass: self.table_at(position, PREFIX_MASS)?,
            prefix_weighted: self.table_at(position, PREFIX_WEIGHTED)?,
        })
    }

    /// Every key's [`TopKContext::row`], in the order of
    /// [`TopKContext::keys`].
    pub fn rows(&self) -> impl Iterator<Item = RankRow<'_>> {
        (0..self.keys.len()).filter_map(|p| self.row(p))
    }

    /// The query parameter `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The number of `f64`s in the slab, `n·3·K` for `n` keys.
    pub fn slab_len(&self) -> usize {
        self.stats.len()
    }

    /// The tuple keys of the database, sorted.
    #[inline]
    pub fn keys(&self) -> &[TupleKey] {
        &self.keys
    }

    /// `Σ_t Pr(r(t) ≤ i)` over all tuples — the expected size of the random
    /// world's Top-i answer.
    pub fn total_topi_mass(&self, i: usize) -> f64 {
        self.rows().map(|row| row.cdf(i)).sum()
    }

    /// The tuples sorted by decreasing `Pr(r(t) ≤ k)`, ties broken by key
    /// ([`rank_by_score`]), each with that probability.
    pub fn keys_by_topk_probability(&self) -> Vec<(TupleKey, f64)> {
        let mut v: Vec<(TupleKey, f64)> = self
            .keys
            .iter()
            .copied()
            .zip(self.rows().map(|row| row.in_topk()))
            .collect();
        rank_by_score(&mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::intersection::{position_profit, upsilon_h};
    use cpdb_andxor::figure1::figure1_correlated_tree;
    use cpdb_andxor::AndXorTreeBuilder;

    fn independent_tree() -> AndXorTree {
        let mut b = AndXorTreeBuilder::new();
        let mut xors = Vec::new();
        for (key, score, p) in [(1u64, 30.0, 0.5), (2, 20.0, 0.8), (3, 10.0, 0.4)] {
            let l = b.leaf_parts(key, score);
            xors.push(b.xor_node(vec![(l, p)]));
        }
        let root = b.and_node(xors);
        b.build(root).unwrap()
    }

    use cpdb_andxor::AndXorTree;

    /// Υ₃(t, i) = `Σ_{j ≤ k} Pr(r(t) = j)·|i − j| + i·Pr(r(t) > k)` (§5.4),
    /// summed directly over the row's PMF.
    fn direct_upsilon3(row: &RankRow<'_>, i: usize) -> f64 {
        let tail = i as f64 * (1.0 - row.in_topk());
        (1..=row.pmf.len())
            .map(|j| row.pmf[j - 1] * (i as f64 - j as f64).abs())
            .sum::<f64>()
            + tail
    }

    #[test]
    fn cdf_is_cumulative_pmf() {
        let tree = independent_tree();
        let ctx = TopKContext::new(&tree, 3);
        for row in ctx.rows() {
            let mut acc = 0.0;
            for i in 1..=3 {
                acc += row.pmf[i - 1];
                assert!((row.cdf(i) - acc).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn topk_probability_equals_presence_when_k_is_n() {
        let tree = independent_tree();
        let ctx = TopKContext::new(&tree, 3);
        let presence = tree.key_presence_probabilities();
        for (&t, &p) in &presence {
            let row = ctx.row_of(t).unwrap();
            assert!((row.in_topk() - p).abs() < 1e-9);
            assert!(((1.0 - row.in_topk()) - (1.0 - p)).abs() < 1e-9);
        }
    }

    #[test]
    fn upsilon_statistics_consistency() {
        let tree = figure1_correlated_tree();
        let ctx = TopKContext::new(&tree, 2);
        for row in ctx.rows() {
            let u1 = row.in_topk();
            let u2 = row.weighted_rank();
            // Υ₂ is between 1·Υ₁ and k·Υ₁.
            assert!(u2 + 1e-12 >= u1);
            assert!(u2 <= ctx.k() as f64 * u1 + 1e-12);
            // Υ₃(t, i) at i = 0 is just Σ j·Pr(r=j) = Υ₂.
            assert!((direct_upsilon3(&row, 0) - u2).abs() < 1e-12);
            // Υ_H(t) ≥ Pr(r(t) ≤ 1) and ≤ H_k.
            assert!(upsilon_h(&row) + 1e-12 >= row.cdf(1));
            assert!(upsilon_h(&row) <= 1.0 + 0.5 + 1e-12);
        }
    }

    #[test]
    fn out_of_range_queries_are_zero() {
        let tree = independent_tree();
        let ctx = TopKContext::new(&tree, 2);
        let row = ctx.row_of(TupleKey(1)).unwrap();
        assert_eq!(row.pmf.len(), 2);
        assert_eq!(row.cdf(0), 0.0);
        assert_eq!(row.cdf(5), row.cdf(2));
        // An unknown key has no row; the default row reads 0 everywhere.
        assert!(ctx.row_of(TupleKey(99)).is_none());
        let unknown = RankRow::default();
        assert_eq!(unknown.cdf(2), 0.0);
        assert_eq!(unknown.in_topk(), 0.0);
        assert_eq!(unknown.weighted_rank(), 0.0);
        assert_eq!(unknown.displacement(1), 0.0);
    }

    #[test]
    fn keys_by_topk_probability_sorted_descending() {
        let tree = independent_tree();
        let ctx = TopKContext::new(&tree, 1);
        let sorted = ctx.keys_by_topk_probability();
        for pair in sorted.windows(2) {
            assert!(pair[0].1 >= pair[1].1 - 1e-12);
        }
    }

    #[test]
    fn prefix_sum_accessors_match_direct_summation() {
        let tree = figure1_correlated_tree();
        for k in 1..=4usize {
            let ctx = TopKContext::new(&tree, k);
            for row in ctx.rows() {
                let pmf = |i: usize| row.pmf[i - 1];
                let direct_u2: f64 = (1..=k).map(|i| i as f64 * pmf(i)).sum();
                assert!((row.weighted_rank() - direct_u2).abs() < 1e-12);
                let direct_uh: f64 = (1..=k).map(|i| row.cdf(i) / i as f64).sum();
                assert!((upsilon_h(&row) - direct_uh).abs() < 1e-12);
                for i in 0..=k + 1 {
                    let direct: f64 = (1..=k).map(|j| pmf(j) * (i as f64 - j as f64).abs()).sum();
                    assert!(
                        (row.displacement(i) - direct).abs() < 1e-12,
                        "k={k} row={row:?} i={i}"
                    );
                }
                for j in 1..=k {
                    let direct: f64 = (j..=k).map(|i| row.cdf(i) / i as f64).sum();
                    assert!((position_profit(&row, j) - direct).abs() < 1e-12);
                }
                // Out-of-range positions stay zero.
                assert_eq!(position_profit(&row, 0), 0.0);
                assert_eq!(position_profit(&row, k + 1), 0.0);
            }
            // So does the row of an unknown tuple.
            assert_eq!(RankRow::default().displacement(1), 0.0);
            assert_eq!(position_profit(&RankRow::default(), 1), 0.0);
        }
    }

    #[test]
    fn from_rows_round_trip() {
        let keys = vec![TupleKey(1), TupleKey(2)];
        let rows = [0.5, 0.2, 0.3, 0.3];
        let ctx = TopKContext::from_rows(2, keys.clone(), &rows).unwrap();
        assert_eq!(ctx.k(), 2);
        assert!((ctx.row(0).unwrap().in_topk() - 0.7).abs() < 1e-12);
        assert!((ctx.total_topi_mass(1) - 0.8).abs() < 1e-12);
        assert_eq!(ctx.pmf_rows(), rows);
        // A view reads the column prefix of each row; none exists above K.
        assert_eq!(ctx.at(1).unwrap().pmf_rows(), [0.5, 0.3]);
        assert!(ctx.at(3).is_none());
        // One entry short or long, or keys out of order, build nothing.
        assert!(TopKContext::from_rows(2, keys.clone(), &rows[..3]).is_none());
        assert!(TopKContext::from_rows(2, keys, &[rows.as_slice(), &[0.0]].concat()).is_none());
        assert!(TopKContext::from_rows(2, vec![TupleKey(2), TupleKey(1)], &rows).is_none());
    }

    #[test]
    fn rows_by_position_match_the_keyed_accessors() {
        let tree = figure1_correlated_tree();
        let ctx = TopKContext::new(&tree, 4).at(3).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rows = ctx.rows();
        for (p, &t) in ctx.keys().iter().enumerate() {
            let row = ctx.row(p).unwrap();
            assert_eq!(row.pmf.len(), 3);
            for other in [ctx.row_of(t).unwrap(), rows.next().unwrap()] {
                assert_eq!(bits(row.pmf), bits(other.pmf));
                assert_eq!(bits(row.prefix_mass), bits(other.prefix_mass));
                assert_eq!(bits(row.prefix_weighted), bits(other.prefix_weighted));
            }
            assert_eq!(row.in_topk().to_bits(), row.cdf(3).to_bits());
            assert_eq!(row.weighted_rank(), row.prefix_weighted[2]);
        }
        assert!(rows.next().is_none());
        assert!(ctx.row(ctx.keys().len()).is_none());
        let empty = TopKContext::new(&tree, 0);
        assert!(empty.row(0).is_some() && empty.row(ctx.keys().len()).is_none());
    }

    #[test]
    fn views_answer_every_accessor_as_a_context_built_at_their_k() {
        let tree = figure1_correlated_tree();
        let big = TopKContext::new(&tree, 4);
        for k in 0..=4usize {
            let (view, fresh) = (big.at(k).unwrap(), TopKContext::new(&tree, k));
            assert_eq!((view.k(), view.slab_len()), (k, big.slab_len()));
            let bits = |c: &TopKContext| {
                let mut out = Vec::new();
                for row in c.rows() {
                    out.extend([row.in_topk(), row.weighted_rank(), 1.0 - row.in_topk()]);
                    for i in 0..=k + 1 {
                        let pmf = i.checked_sub(1).and_then(|i| row.pmf.get(i));
                        out.extend([pmf.copied().unwrap_or(0.0), row.cdf(i)]);
                        out.extend([row.displacement(i), direct_upsilon3(&row, i)]);
                        out.push(c.total_topi_mass(i));
                    }
                }
                out.into_iter().map(f64::to_bits).collect::<Vec<_>>()
            };
            assert_eq!(bits(&view), bits(&fresh), "k={k}");
            assert_eq!(
                view.keys_by_topk_probability(),
                fresh.keys_by_topk_probability()
            );
        }
    }
}
