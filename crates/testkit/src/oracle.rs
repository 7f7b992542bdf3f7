//! Brute-force expected-distance minimisers.
//!
//! Every consensus notion of `cpdb_consensus` has a definitional form: minimise
//! `E_pw[d(τ, τ_pw)]` over a candidate set Ω. On small instances that
//! expectation can be computed by enumerating the possible worlds, and the
//! minimiser found by enumerating Ω. These oracles are deliberately
//! exponential — they exist to certify that the polynomial-time algorithms
//! return optimal (or within-factor) answers in tests and experiments, which
//! is exactly how the paper's claims are validated empirically.

use cpdb_model::{PossibleWorld, WorldSet};
use cpdb_rankagg::TopKList;
use std::collections::HashSet;

/// Expected distance from a fixed candidate world to the random world.
pub fn expected_world_distance<D>(candidate: &PossibleWorld, worlds: &WorldSet, mut d: D) -> f64
where
    D: FnMut(&PossibleWorld, &PossibleWorld) -> f64,
{
    worlds
        .worlds()
        .iter()
        .map(|(w, p)| p * d(candidate, w))
        .sum()
}

/// Brute-force *median* world: the possible world (non-zero probability)
/// minimising the expected distance to the random world. Returns the world
/// and its expected distance.
pub fn brute_force_median_world<D>(worlds: &WorldSet, mut d: D) -> (PossibleWorld, f64)
where
    D: FnMut(&PossibleWorld, &PossibleWorld) -> f64,
{
    let mut best: Option<(PossibleWorld, f64)> = None;
    for (candidate, p) in worlds.worlds() {
        if *p <= 0.0 {
            continue;
        }
        let cost = expected_world_distance(candidate, worlds, &mut d);
        if best.as_ref().is_none_or(|(_, b)| cost < *b) {
            best = Some((candidate.clone(), cost));
        }
    }
    best.expect("world set must contain at least one world with non-zero probability")
}

/// Brute-force *mean* world over an arbitrary candidate space: every subset
/// of the given alternatives that satisfies the key constraint. Exponential
/// in the number of alternatives.
pub fn brute_force_mean_world<D>(worlds: &WorldSet, mut d: D) -> (PossibleWorld, f64)
where
    D: FnMut(&PossibleWorld, &PossibleWorld) -> f64,
{
    let alternatives = worlds.all_alternatives();
    let n = alternatives.len();
    assert!(n <= 20, "brute-force mean world limited to 20 alternatives");
    let mut best: Option<(PossibleWorld, f64)> = None;
    for mask in 0u64..(1u64 << n) {
        let chosen: Vec<_> = alternatives
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, a)| *a)
            .collect();
        // Skip candidates violating the key constraint (two alternatives of
        // the same tuple can never be an answer world).
        let candidate = match PossibleWorld::new(chosen) {
            Ok(w) => w,
            Err(_) => continue,
        };
        let cost = expected_world_distance(&candidate, worlds, &mut d);
        if best.as_ref().is_none_or(|(_, b)| cost < *b) {
            best = Some((candidate, cost));
        }
    }
    best.expect("the empty world is always a candidate")
}

/// Expected distance from a fixed Top-k list to the Top-k answer of the
/// random world.
pub fn expected_topk_distance<D>(candidate: &TopKList, worlds: &WorldSet, k: usize, mut d: D) -> f64
where
    D: FnMut(&TopKList, &TopKList) -> f64,
{
    worlds
        .worlds()
        .iter()
        .map(|(w, p)| {
            let answer = world_topk(w, k);
            p * d(candidate, &answer)
        })
        .sum()
}

/// The Top-k answer (as a [`TopKList`] of tuple keys) of a deterministic
/// world under descending score.
pub fn world_topk(world: &PossibleWorld, k: usize) -> TopKList {
    TopKList::new(world.top_k(k).iter().map(|a| a.key.0).collect())
        .expect("a world never contains a key twice")
}

/// The symmetric-difference Top-k distance normalised by the *query*
/// parameter `2k` rather than by the lists' lengths.
///
/// The paper's derivations (Theorem 3 and the median DP of Theorem 4) treat
/// the normaliser as the constant `2k`, which matters when a possible world
/// has fewer than `k` tuples (its Top-k answer is shorter than `k`). Using
/// this fixed normaliser keeps the closed forms exact for candidates of any
/// length and makes cross-size comparisons well-defined.
pub fn sym_diff_distance_fixed_k(k: usize, a: &TopKList, b: &TopKList) -> f64 {
    if k == 0 {
        return 0.0;
    }
    let overlap = a.overlap(b);
    let sym_diff = (a.len() - overlap) + (b.len() - overlap);
    sym_diff as f64 / (2.0 * k as f64)
}

/// Brute-force *mean* Top-k answer: enumerates every ordered selection of `k`
/// distinct tuple keys from `items` and returns the one minimising the
/// expected distance. Exponential (`P(n, k)` candidates).
pub fn brute_force_mean_topk<D>(
    items: &[u64],
    k: usize,
    worlds: &WorldSet,
    mut d: D,
) -> (TopKList, f64)
where
    D: FnMut(&TopKList, &TopKList) -> f64,
{
    let k = k.min(items.len());
    let mut space = 1.0f64;
    for i in 0..k {
        space *= (items.len() - i) as f64;
    }
    assert!(space <= 2e6, "brute-force Top-k candidate space too large");
    let mut best: Option<(TopKList, f64)> = None;
    let mut current = Vec::with_capacity(k);
    let mut used = vec![false; items.len()];
    enumerate_ordered(items, k, &mut current, &mut used, &mut |cand: &[u64]| {
        let list = TopKList::new(cand.to_vec()).expect("distinct by construction");
        let cost = expected_topk_distance(&list, worlds, k, &mut d);
        if best.as_ref().is_none_or(|(_, b)| cost < *b) {
            best = Some((list, cost));
        }
    });
    best.expect("k = 0 still yields the empty candidate")
}

/// Brute-force *median* Top-k answer: the Top-k answer of some possible world
/// minimising the expected distance. Each world's answer is computed once
/// and each distinct answer scored once, in world order, so the result is
/// the one scoring every world's answer with [`expected_topk_distance`]
/// would give.
pub fn brute_force_median_topk<D>(worlds: &WorldSet, k: usize, mut d: D) -> (TopKList, f64)
where
    D: FnMut(&TopKList, &TopKList) -> f64,
{
    let answers: Vec<(TopKList, f64)> = worlds
        .worlds()
        .iter()
        .map(|(w, p)| (world_topk(w, k), *p))
        .collect();
    let mut scored = HashSet::new();
    let mut best: Option<(TopKList, f64)> = None;
    for (candidate, p) in &answers {
        if *p <= 0.0 || !scored.insert(candidate) {
            continue;
        }
        let cost = answers.iter().map(|(a, p)| p * d(candidate, a)).sum();
        if best.as_ref().is_none_or(|(_, b)| cost < *b) {
            best = Some((candidate.clone(), cost));
        }
    }
    best.expect("world set must contain at least one world")
}

fn enumerate_ordered<F: FnMut(&[u64])>(
    items: &[u64],
    k: usize,
    current: &mut Vec<u64>,
    used: &mut Vec<bool>,
    visit: &mut F,
) {
    if current.len() == k {
        visit(current);
        return;
    }
    for i in 0..items.len() {
        if used[i] {
            continue;
        }
        used[i] = true;
        current.push(items[i]);
        enumerate_ordered(items, k, current, used, visit);
        current.pop();
        used[i] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpdb_model::{Alternative, TupleIndependentDb, WorldModel};
    use cpdb_rankagg::metrics::symmetric_difference_topk;

    fn sample_db() -> WorldSet {
        TupleIndependentDb::from_triples(&[(1, 30.0, 0.9), (2, 20.0, 0.6), (3, 10.0, 0.2)])
            .unwrap()
            .enumerate_worlds()
    }

    #[test]
    fn expected_world_distance_weights_by_probability() {
        let ws = sample_db();
        let empty = PossibleWorld::empty();
        let d = expected_world_distance(&empty, &ws, |a, b| a.symmetric_difference(b) as f64);
        // E[|pw|] = 0.9 + 0.6 + 0.2.
        assert!((d - 1.7).abs() < 1e-12);
    }

    #[test]
    fn brute_force_mean_world_under_symmetric_difference_is_majority_set() {
        let ws = sample_db();
        let (mean, _) = brute_force_mean_world(&ws, |a, b| a.symmetric_difference(b) as f64);
        assert!(mean.contains(&Alternative::new(1, 30.0)));
        assert!(mean.contains(&Alternative::new(2, 20.0)));
        assert!(!mean.contains(&Alternative::new(3, 10.0)));
    }

    #[test]
    fn median_world_is_a_possible_world() {
        let ws = sample_db();
        let (median, cost) = brute_force_median_world(&ws, |a, b| a.symmetric_difference(b) as f64);
        assert!(ws.worlds().iter().any(|(w, p)| *p > 0.0 && *w == median));
        assert!(cost >= 0.0);
    }

    #[test]
    fn world_topk_orders_by_score() {
        let w = PossibleWorld::new(vec![
            Alternative::new(1, 5.0),
            Alternative::new(2, 9.0),
            Alternative::new(3, 1.0),
        ])
        .unwrap();
        assert_eq!(world_topk(&w, 2).items(), &[2, 1]);
        assert_eq!(world_topk(&w, 10).len(), 3);
    }

    #[test]
    fn brute_force_mean_topk_picks_high_probability_members() {
        let ws = sample_db();
        let (best, _) = brute_force_mean_topk(&[1, 2, 3], 2, &ws, symmetric_difference_topk);
        assert!(best.contains(1));
        assert!(best.contains(2));
    }

    #[test]
    fn brute_force_median_topk_is_answer_of_some_world() {
        let ws = sample_db();
        let (best, _) = brute_force_median_topk(&ws, 2, symmetric_difference_topk);
        let candidates: Vec<TopKList> = ws
            .worlds()
            .iter()
            .filter(|(_, p)| *p > 0.0)
            .map(|(w, _)| world_topk(w, 2))
            .collect();
        assert!(candidates.contains(&best));
    }
}
