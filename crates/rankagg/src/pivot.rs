//! Pairwise-preference tournaments and KwikSort/pivot aggregation.
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
//! [`PreferenceMatrix`] stores those pairwise weights; [`pivot_order`] runs
//! seeded KwikSort over them, and [`pivot_best_of`] takes the best of several
//! seeded runs (plus the deterministic Borda order) under the weighted
//! disagreement objective.

use crate::lists::{FullRanking, RankError};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;

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
        for (r, w) in rankings {
            let pos = r.position_map();
            for (a_idx, &a) in items.iter().enumerate() {
                for &b in items.iter().skip(a_idx + 1) {
                    match (pos.get(&a), pos.get(&b)) {
                        (Some(pa), Some(pb)) if pa < pb => m.add_weight(a, b, w / total),
                        (Some(pa), Some(pb)) if pb < pa => m.add_weight(b, a, w / total),
                        _ => {}
                    }
                }
            }
        }
        m
    }

    /// A tournament from a row-major `items.len() × items.len()` weight
    /// matrix, taken as is (no per-entry indexing). `None` when the matrix
    /// has the wrong size.
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

    /// The row (and column) of `item` in the weight matrix.
    pub fn position(&self, item: u64) -> Option<usize> {
        self.index.get(&item).copied()
    }

    /// The row-major weight matrix, rows and columns in
    /// [`items`](Self::items) order.
    pub fn row_major(&self) -> &[f64] {
        &self.weights
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

    /// Adds to the preference weight for `i` over `j`.
    pub fn add_weight(&mut self, i: u64, j: u64, w: f64) {
        if let (Some(&a), Some(&b)) = (self.index.get(&i), self.index.get(&j)) {
            self.weights[a * self.items.len() + b] += w;
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

    /// The Borda-style order: items sorted by total outgoing preference
    /// weight (descending). A deterministic, cheap aggregation used as one of
    /// the candidates in [`pivot_best_of`]. Returns [`RankError::Empty`] for
    /// an empty tournament (a full ranking cannot be empty).
    pub fn borda_order(&self) -> Result<FullRanking, RankError> {
        let mut scored: Vec<(u64, f64)> = self
            .items
            .iter()
            .map(|&i| {
                let s: f64 = self.items.iter().map(|&j| self.weight(i, j)).sum();
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
    let mut best = prefs.borda_order()?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kemeny::kemeny_optimal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn unanimous_prefs() -> (Vec<u64>, PreferenceMatrix) {
        let items = vec![1u64, 2, 3, 4, 5];
        let r = FullRanking::new(items.clone()).unwrap();
        let prefs = PreferenceMatrix::from_rankings(&items, &[(r, 1.0)]);
        (items, prefs)
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
        assert_eq!(prefs.borda_order().unwrap().items(), &[1, 2, 3, 4, 5]);
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
        use rand::Rng;
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
        assert_eq!(prefs.borda_order().unwrap_err(), RankError::Empty);
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
}
