//! The Kendall pivot: KwikSort over the pairwise-order tournament, kept as a
//! reference beside the served Kendall answer.
//!
//! Ailon, Charikar & Newman (JACM 2008) showed that ordering items by
//! recursively picking a random pivot and splitting the rest according to the
//! majority pairwise preference gives a constant-factor approximation to the
//! Kemeny-optimal aggregation (expected 2 when fed the pairwise fractions, or
//! 11/7 / 4/3 when combined with LP rounding). The paper invokes exactly this
//! machinery for its Kendall-tau consensus Top-k answer (§5.5): the only
//! input the algorithm needs is `Pr(r(t_i) < r(t_j))`, which the and/xor tree
//! computes exactly by generating functions.
//!
//! The engine serves the local search of
//! [`cpdb_consensus::topk::kendall::mean_topk_kendall`] instead. This module
//! keeps the pivot so experiment E8 and [`crate::conformance::check_kendall`]
//! can report its quality beside the served answer:
//!
//! * [`FullRanking`] — a permutation of an item set, best first;
//! * [`PreferenceMatrix`] — the pairwise weights, and [`preference_matrix`]
//!   to build them exactly from a tree with
//!   [`AndXorTree::batch_pairwise_order`];
//! * [`pivot_order`] — one seeded KwikSort run, and [`pivot_best_of`] — the
//!   best of several seeded runs (plus the deterministic Borda order) under
//!   the weighted disagreement objective;
//! * [`kemeny_optimal`] — the exhaustive Kemeny optimum, the ground truth the
//!   pivot is measured against on small item sets;
//! * [`mean_topk_kendall_pivot`] — the Top-k prefix of the pivot ranking of
//!   every tuple of a tree.

use cpdb_andxor::AndXorTree;
use cpdb_consensus::TopKContext;
use cpdb_model::TupleKey;
use cpdb_rankagg::{RankError, TopKList};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;

/// A full ranking (permutation) of an item set, best first.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FullRanking {
    items: Vec<u64>,
}

impl FullRanking {
    /// Builds a full ranking from items in rank order, rejecting duplicates
    /// and empty lists.
    pub fn new(items: Vec<u64>) -> Result<Self, RankError> {
        if items.is_empty() {
            return Err(RankError::Empty);
        }
        let mut seen = std::collections::HashSet::with_capacity(items.len());
        for &it in &items {
            if !seen.insert(it) {
                return Err(RankError::DuplicateItem { item: it });
            }
        }
        Ok(FullRanking { items })
    }

    /// The items in rank order.
    #[inline]
    pub fn items(&self) -> &[u64] {
        &self.items
    }

    /// Always false: construction rejects empty rankings.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The 1-based position of `item`, if present.
    pub fn position_of(&self, item: u64) -> Option<usize> {
        self.items.iter().position(|&x| x == item).map(|p| p + 1)
    }

    /// The Top-k prefix of this ranking.
    pub fn top_k(&self, k: usize) -> TopKList {
        TopKList::new(self.items.iter().take(k).copied().collect())
            .expect("a ranking holds distinct items")
    }

    /// Spearman footrule distance to another full ranking over the same item
    /// set: `Σ_t |σ₁(t) − σ₂(t)|`.
    ///
    /// # Panics
    ///
    /// Panics when `other` does not rank every item of `self`.
    pub fn footrule_distance(&self, other: &FullRanking) -> usize {
        let pos2 = other.position_map();
        self.items
            .iter()
            .enumerate()
            .map(|(i, t)| (i + 1).abs_diff(pos2[t]))
            .sum()
    }

    /// Kendall tau distance to another full ranking over the same item set:
    /// the number of discordant pairs.
    pub fn kendall_tau(&self, other: &FullRanking) -> usize {
        let pos2 = other.position_map();
        let mut count = 0;
        for i in 0..self.items.len() {
            for j in (i + 1)..self.items.len() {
                let a = self.items[i];
                let b = self.items[j];
                let pa = pos2[&a];
                let pb = pos2[&b];
                if pa > pb {
                    count += 1;
                }
            }
        }
        count
    }

    /// A position lookup map (item → 1-based position).
    pub fn position_map(&self) -> HashMap<u64, usize> {
        self.items
            .iter()
            .enumerate()
            .map(|(i, &it)| (it, i + 1))
            .collect()
    }
}

/// A weighted pairwise-preference tournament: `weight(i, j)` is the fraction
/// (probability mass) of voters preferring `i` over `j`. For every pair,
/// `weight(i, j) + weight(j, i) ≈ 1` unless some voters rank neither.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PreferenceMatrix {
    items: Vec<u64>,
    index: HashMap<u64, usize>,
    /// Row-major `items.len() × items.len()` matrix.
    weights: Vec<f64>,
}

impl PreferenceMatrix {
    /// An all-zero tournament over the given items.
    pub fn new(items: &[u64]) -> Self {
        let index = items.iter().enumerate().map(|(i, &it)| (it, i)).collect();
        PreferenceMatrix {
            items: items.to_vec(),
            index,
            weights: vec![0.0; items.len() * items.len()],
        }
    }

    /// Builds the tournament from weighted full rankings: `weight(i, j)` is
    /// the total weight of rankings placing `i` ahead of `j`, normalised by
    /// the total weight.
    pub fn from_rankings(items: &[u64], rankings: &[(FullRanking, f64)]) -> Self {
        let mut m = Self::new(items);
        let total: f64 = rankings.iter().map(|(_, w)| *w).sum();
        if total <= 0.0 {
            return m;
        }
        let n = items.len();
        for (r, w) in rankings {
            let pos = r.position_map();
            for (a_idx, &a) in items.iter().enumerate() {
                for (b_idx, &b) in items.iter().enumerate().skip(a_idx + 1) {
                    let (ahead, behind) = match (pos.get(&a), pos.get(&b)) {
                        (Some(pa), Some(pb)) if pa < pb => (a_idx, b_idx),
                        (Some(pa), Some(pb)) if pb < pa => (b_idx, a_idx),
                        _ => continue,
                    };
                    m.weights[ahead * n + behind] += w / total;
                }
            }
        }
        m
    }

    /// A tournament from a row-major `items.len() × items.len()` weight
    /// matrix, taken as is. `None` when the matrix has the wrong size.
    pub fn from_row_major(items: &[u64], weights: Vec<f64>) -> Option<Self> {
        if weights.len() != items.len() * items.len() {
            return None;
        }
        let index = items.iter().enumerate().map(|(i, &it)| (it, i)).collect();
        Some(PreferenceMatrix {
            items: items.to_vec(),
            index,
            weights,
        })
    }

    /// The items of the tournament.
    pub fn items(&self) -> &[u64] {
        &self.items
    }

    /// The preference weight for `i` over `j` (0 for unknown items).
    pub fn weight(&self, i: u64, j: u64) -> f64 {
        match (self.index.get(&i), self.index.get(&j)) {
            (Some(&a), Some(&b)) => self.weights[a * self.items.len() + b],
            _ => 0.0,
        }
    }

    /// Sets the preference weight for `i` over `j`.
    pub fn set_weight(&mut self, i: u64, j: u64, w: f64) {
        if let (Some(&a), Some(&b)) = (self.index.get(&i), self.index.get(&j)) {
            self.weights[a * self.items.len() + b] = w;
        }
    }

    /// The weighted-disagreement cost of a full ranking: the total weight of
    /// pairwise preferences it violates. This is the (weighted) Kendall
    /// objective the Kemeny aggregation minimises.
    pub fn disagreement(&self, ranking: &FullRanking) -> f64 {
        let pos = ranking.position_map();
        let mut cost = 0.0;
        for (a_idx, &a) in self.items.iter().enumerate() {
            for &b in self.items.iter().skip(a_idx + 1) {
                if let (Some(pa), Some(pb)) = (pos.get(&a), pos.get(&b)) {
                    if pa < pb {
                        cost += self.weight(b, a);
                    } else {
                        cost += self.weight(a, b);
                    }
                }
            }
        }
        cost
    }
}

/// The Borda-style order: items sorted by total outgoing preference weight
/// (descending). The deterministic first candidate of [`pivot_best_of`].
/// Returns [`RankError::Empty`] for an empty tournament (a full ranking
/// cannot be empty).
fn borda_order(prefs: &PreferenceMatrix) -> Result<FullRanking, RankError> {
    let items = prefs.items();
    let mut scored: Vec<(u64, f64)> = items
        .iter()
        .map(|&i| {
            let s: f64 = items.iter().map(|&j| prefs.weight(i, j)).sum();
            (i, s)
        })
        .collect();
    scored.sort_by(|(ia, sa), (ib, sb)| {
        sb.partial_cmp(sa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| ia.cmp(ib))
    });
    FullRanking::new(scored.into_iter().map(|(i, _)| i).collect())
}

/// Orders the tournament's items by seeded KwikSort: pick a random pivot,
/// place each remaining item before or after it according to the majority
/// preference, recurse. Expected constant-factor approximation of the
/// Kemeny-optimal aggregation when the weights come from actual rankings.
/// Returns [`RankError::Empty`] for an empty tournament.
pub fn pivot_order<R: Rng + ?Sized>(
    prefs: &PreferenceMatrix,
    rng: &mut R,
) -> Result<FullRanking, RankError> {
    let mut items = prefs.items().to_vec();
    items.shuffle(rng);
    let ordered = kwiksort(&items, prefs, rng);
    FullRanking::new(ordered)
}

fn kwiksort<R: Rng + ?Sized>(items: &[u64], prefs: &PreferenceMatrix, rng: &mut R) -> Vec<u64> {
    if items.len() <= 1 {
        return items.to_vec();
    }
    let pivot_idx = rng.gen_range(0..items.len());
    let pivot = items[pivot_idx];
    let mut before = Vec::new();
    let mut after = Vec::new();
    for &it in items {
        if it == pivot {
            continue;
        }
        if prefs.weight(it, pivot) >= prefs.weight(pivot, it) {
            before.push(it);
        } else {
            after.push(it);
        }
    }
    let mut out = kwiksort(&before, prefs, rng);
    out.push(pivot);
    out.extend(kwiksort(&after, prefs, rng));
    out
}

/// Runs [`pivot_order`] `trials` times plus the deterministic Borda order and
/// returns the candidate with the smallest weighted disagreement. Returns
/// [`RankError::Empty`] for an empty tournament.
pub fn pivot_best_of<R: Rng + ?Sized>(
    prefs: &PreferenceMatrix,
    trials: usize,
    rng: &mut R,
) -> Result<FullRanking, RankError> {
    let mut best = borda_order(prefs)?;
    let mut best_cost = prefs.disagreement(&best);
    for _ in 0..trials {
        let candidate = pivot_order(prefs, rng)?;
        let cost = prefs.disagreement(&candidate);
        if cost < best_cost {
            best_cost = cost;
            best = candidate;
        }
    }
    Ok(best)
}

/// Exhaustively finds a Kemeny-optimal full ranking of `items` against a
/// weighted pairwise-preference tournament. The objective minimised is
/// `Σ_{i ranked after j} w(j, i)` — the total weight of violated preferences
/// — which equals the weighted Kendall distance to the input rankings when
/// `w` is built from them. Computing it is NP-hard already for four input
/// rankings (Dwork et al.), so this is the ground truth for small item sets
/// only.
///
/// Returns [`RankError::Empty`] when `items` is empty (a full ranking
/// cannot be empty).
///
/// # Panics
///
/// Panics when more than 10 items are supplied (10! permutations ≈ 3.6M).
pub fn kemeny_optimal(
    items: &[u64],
    prefs: &PreferenceMatrix,
) -> Result<(FullRanking, f64), RankError> {
    assert!(
        items.len() <= 10,
        "brute-force Kemeny aggregation limited to 10 items"
    );
    if items.is_empty() {
        return Err(RankError::Empty);
    }
    let mut order: Vec<usize> = (0..items.len()).collect();
    let mut best_cost = f64::INFINITY;
    let mut best_order = order.clone();
    permute(&mut order, 0, &mut |perm| {
        let mut cost = 0.0;
        for a in 0..perm.len() {
            for b in (a + 1)..perm.len() {
                // items[perm[a]] is ranked ahead of items[perm[b]]; we pay the
                // weight of voters preferring the opposite order.
                cost += prefs.weight(items[perm[b]], items[perm[a]]);
            }
        }
        if cost < best_cost {
            best_cost = cost;
            best_order = perm.to_vec();
        }
    });
    let ranking = FullRanking::new(best_order.iter().map(|&i| items[i]).collect())
        .expect("permutation of distinct items");
    Ok((ranking, best_cost))
}

fn permute<F: FnMut(&[usize])>(order: &mut Vec<usize>, start: usize, visit: &mut F) {
    if start == order.len() {
        visit(order);
        return;
    }
    for i in start..order.len() {
        order.swap(start, i);
        permute(order, start + 1, visit);
        order.swap(start, i);
    }
}

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

    fn unanimous_prefs() -> (Vec<u64>, PreferenceMatrix) {
        let items = vec![1u64, 2, 3, 4, 5];
        let r = FullRanking::new(items.clone()).unwrap();
        let prefs = PreferenceMatrix::from_rankings(&items, &[(r, 1.0)]);
        (items, prefs)
    }

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
    fn full_ranking_distances() {
        let a = FullRanking::new(vec![1, 2, 3, 4]).unwrap();
        let b = FullRanking::new(vec![2, 1, 3, 4]).unwrap();
        assert_eq!(a.footrule_distance(&b), 2);
        assert_eq!(a.kendall_tau(&b), 1);
        let c = FullRanking::new(vec![4, 3, 2, 1]).unwrap();
        assert_eq!(a.kendall_tau(&c), 6);
        assert_eq!(a.footrule_distance(&c), 8);
    }

    #[test]
    fn full_ranking_validation_and_topk() {
        assert_eq!(FullRanking::new(vec![]), Err(RankError::Empty));
        assert!(FullRanking::new(vec![1, 1]).is_err());
        let r = FullRanking::new(vec![9, 7, 5]).unwrap();
        assert_eq!(r.top_k(2).items(), &[9, 7]);
        assert_eq!(r.position_of(5), Some(3));
        assert!(!r.is_empty());
    }

    #[test]
    fn footrule_within_twice_kendall() {
        // Diaconis–Graham: K ≤ F ≤ 2K for full rankings.
        let perms = [
            vec![1u64, 2, 3, 4, 5],
            vec![5, 4, 3, 2, 1],
            vec![2, 4, 1, 5, 3],
            vec![3, 1, 4, 5, 2],
        ];
        for a in &perms {
            for b in &perms {
                let ra = FullRanking::new(a.clone()).unwrap();
                let rb = FullRanking::new(b.clone()).unwrap();
                let k = ra.kendall_tau(&rb);
                let f = ra.footrule_distance(&rb);
                assert!(k <= f && f <= 2 * k || (k == 0 && f == 0));
            }
        }
    }

    #[test]
    fn from_rankings_builds_fractions() {
        let items = [1u64, 2];
        let rankings = [
            (FullRanking::new(vec![1, 2]).unwrap(), 3.0),
            (FullRanking::new(vec![2, 1]).unwrap(), 1.0),
        ];
        let m = PreferenceMatrix::from_rankings(&items, &rankings);
        assert!((m.weight(1, 2) - 0.75).abs() < 1e-12);
        assert!((m.weight(2, 1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn pivot_recovers_unanimous_order() {
        let (_, prefs) = unanimous_prefs();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let r = pivot_order(&prefs, &mut rng).unwrap();
            assert_eq!(r.items(), &[1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn borda_recovers_unanimous_order() {
        let (_, prefs) = unanimous_prefs();
        assert_eq!(borda_order(&prefs).unwrap().items(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn disagreement_zero_for_unanimous_winner() {
        let (_, prefs) = unanimous_prefs();
        let r = FullRanking::new(vec![1, 2, 3, 4, 5]).unwrap();
        assert_eq!(prefs.disagreement(&r), 0.0);
        let rev = FullRanking::new(vec![5, 4, 3, 2, 1]).unwrap();
        assert!((prefs.disagreement(&rev) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn pivot_best_of_close_to_kemeny_on_random_tournaments() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..10 {
            let items: Vec<u64> = (0..6).collect();
            let mut prefs = PreferenceMatrix::new(&items);
            for i in 0..items.len() {
                for j in (i + 1)..items.len() {
                    let w: f64 = rng.gen();
                    prefs.set_weight(items[i], items[j], w);
                    prefs.set_weight(items[j], items[i], 1.0 - w);
                }
            }
            let (_, opt_cost) = kemeny_optimal(&items, &prefs).unwrap();
            let approx = pivot_best_of(&prefs, 8, &mut rng).unwrap();
            let approx_cost = prefs.disagreement(&approx);
            assert!(
                approx_cost <= 2.0 * opt_cost + 1e-9,
                "pivot {approx_cost} vs optimal {opt_cost}"
            );
        }
    }

    #[test]
    fn empty_tournament_is_a_typed_error() {
        let prefs = PreferenceMatrix::new(&[]);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(borda_order(&prefs).unwrap_err(), RankError::Empty);
        assert_eq!(pivot_order(&prefs, &mut rng).unwrap_err(), RankError::Empty);
        assert_eq!(
            pivot_best_of(&prefs, 4, &mut rng).unwrap_err(),
            RankError::Empty
        );
    }

    #[test]
    fn weights_for_unknown_items_are_zero() {
        let (_, prefs) = unanimous_prefs();
        assert_eq!(prefs.weight(1, 99), 0.0);
        assert_eq!(prefs.weight(99, 1), 0.0);
    }

    #[test]
    fn kemeny_of_identical_rankings_is_that_ranking() {
        let items = [1u64, 2, 3, 4];
        let r = FullRanking::new(vec![3, 1, 4, 2]).unwrap();
        let prefs = PreferenceMatrix::from_rankings(&items, &[(r.clone(), 1.0)]);
        let (best, cost) = kemeny_optimal(&items, &prefs).unwrap();
        assert_eq!(best, r);
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn kemeny_majority_order_wins() {
        let items = [1u64, 2, 3];
        let rankings = [
            (FullRanking::new(vec![1, 2, 3]).unwrap(), 2.0),
            (FullRanking::new(vec![2, 1, 3]).unwrap(), 1.0),
        ];
        let prefs = PreferenceMatrix::from_rankings(&items, &rankings);
        let (best, cost) = kemeny_optimal(&items, &prefs).unwrap();
        assert_eq!(best.items(), &[1, 2, 3]);
        // Only the minority voter's (2 ≻ 1) preference is violated; the
        // preference matrix normalises weights, so the cost is 1/3.
        assert!((cost - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "limited to 10 items")]
    fn kemeny_rejects_large_instances() {
        let items: Vec<u64> = (0..11).collect();
        let prefs = PreferenceMatrix::new(&items);
        let _ = kemeny_optimal(&items, &prefs);
    }

    #[test]
    fn empty_item_set_is_a_typed_error() {
        let prefs = PreferenceMatrix::new(&[]);
        assert_eq!(kemeny_optimal(&[], &prefs).unwrap_err(), RankError::Empty);
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
        let tree = independent_tree(&[
            (1, 90.0, 0.4),
            (2, 80.0, 0.9),
            (3, 70.0, 0.6),
            (4, 60.0, 0.8),
        ]);
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
    fn pivot_answer_recovers_unanimous_ordering_and_is_empty_at_zero_k() {
        // Near-certain tuples with clearly separated scores: the consensus
        // order should follow the scores.
        let tree = independent_tree(&[(1, 100.0, 0.99), (2, 90.0, 0.99), (3, 80.0, 0.99)]);
        let mut rng = StdRng::seed_from_u64(1);
        let pivot = mean_topk_kendall_pivot(&tree, &TopKContext::new(&tree, 3), 4, &mut rng);
        assert_eq!(pivot.items(), &[1, 2, 3]);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(
            mean_topk_kendall_pivot(&tree, &TopKContext::new(&tree, 0), 2, &mut rng).is_empty()
        );
    }
}
