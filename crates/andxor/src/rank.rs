//! Rank distributions and co-occurrence probabilities (Example 3 and §6.2).
//!
//! For Top-k consensus answers the algorithms need, for every tuple `t`:
//!
//! * the rank distribution `Pr(r(t) = i)` — the probability that `t` appears
//!   and exactly `i − 1` tuples with a higher score appear alongside it;
//! * the cumulative `Pr(r(t) ≤ k)`;
//! * pairwise order probabilities `Pr(r(t_i) < r(t_j))` (for Kendall-tau
//!   consensus, §5.5);
//! * attribute co-occurrence probabilities
//!   `Pr(i.A = a ∧ j.A = a)` (for consensus clustering, §6.2).
//!
//! All are computed exactly by bivariate generating functions over the tree
//! (Example 3 / Theorem 1): assign `x` to the leaves that would out-rank the
//! target alternative, `y` to the target alternative itself, and read the
//! coefficient of `x^{i-1} y`. Correlations encoded by the tree (mutual
//! exclusion, co-existence) are therefore handled exactly, not assumed away.
//!
//! Scores are assumed unique across keys (the paper's no-ties assumption);
//! when a caller supplies ties, the deterministic tie-break "higher key ranks
//! lower" is applied so results remain well-defined.

use crate::genfunc_eval::VarAssignment;
use crate::tree::AndXorTree;
use cpdb_genfunc::{clamp_probability, Truncation};
use cpdb_model::{Alternative, TupleKey};

/// Returns `true` when alternative `other` out-ranks an alternative of `key`
/// with score `score` (strictly higher score, or equal score with a smaller
/// key as the deterministic tie-break).
fn outranks(other: &Alternative, key: TupleKey, score: f64) -> bool {
    if other.key == key {
        return false;
    }
    match other.value.0.partial_cmp(&score) {
        Some(std::cmp::Ordering::Greater) => true,
        Some(std::cmp::Ordering::Equal) => other.key < key,
        _ => false,
    }
}

impl AndXorTree {
    /// The rank distribution of tuple `key`: a vector `pmf` with
    /// `pmf[i - 1] = Pr(r(t) = i)` for `1 ≤ i ≤ max_rank`. Ranks beyond
    /// `max_rank` (and the event that `t` is absent) account for the missing
    /// mass.
    pub fn rank_pmf(&self, key: TupleKey, max_rank: usize) -> Vec<f64> {
        let mut pmf = vec![0.0; max_rank];
        if max_rank == 0 {
            return pmf;
        }
        // Distinct alternative values of this tuple (the marginal table is
        // computed once per tree and cached, not rebuilt per call).
        let alt_probs = self.alternative_probabilities_cached();
        let values: Vec<f64> = alt_probs
            .iter()
            .filter(|(a, _)| a.key == key)
            .map(|(a, _)| a.value.0)
            .collect();
        for &score in &values {
            let target = Alternative::new(key.0, score);
            let poly = self.genfunc2(
                Truncation::Degree(max_rank - 1),
                Truncation::Degree(1),
                |a| {
                    if *a == target {
                        VarAssignment::Y
                    } else if outranks(a, key, score) {
                        VarAssignment::X
                    } else {
                        VarAssignment::One
                    }
                },
            );
            for i in 1..=max_rank {
                pmf[i - 1] += poly.coeff(i - 1, 1);
            }
        }
        for p in &mut pmf {
            *p = clamp_probability(*p);
        }
        pmf
    }

    /// `Pr(r(t) = i)` for a single position `i ≥ 1`.
    pub fn rank_probability(&self, key: TupleKey, i: usize) -> f64 {
        if i == 0 {
            return 0.0;
        }
        self.rank_pmf(key, i)[i - 1]
    }

    /// `Pr(r(t) ≤ k)` — the probability that tuple `key` appears among the
    /// top `k` tuples of the possible world.
    pub fn rank_cdf(&self, key: TupleKey, k: usize) -> f64 {
        clamp_probability(self.rank_pmf(key, k).iter().sum())
    }

    /// `Pr(r(t_a) < r(t_b))` — the probability that tuple `a` ranks strictly
    /// higher than tuple `b` (which includes worlds where `b` is absent and
    /// `a` is present). Computed exactly even when `a` and `b` are correlated
    /// through the tree: for each alternative `(a, s)` we read the
    /// coefficient of `x⁰y¹` in the generating function that assigns `y` to
    /// that alternative and `x` to every leaf of `b` out-ranking score `s`.
    pub fn pairwise_order_probability(&self, a: TupleKey, b: TupleKey) -> f64 {
        if a == b {
            return 0.0;
        }
        let alt_probs = self.alternative_probabilities_cached();
        let values: Vec<f64> = alt_probs
            .iter()
            .filter(|(alt, _)| alt.key == a)
            .map(|(alt, _)| alt.value.0)
            .collect();
        let mut total = 0.0;
        for &score in &values {
            let target = Alternative::new(a.0, score);
            let poly = self.genfunc2(Truncation::Degree(0), Truncation::Degree(1), |alt| {
                if *alt == target {
                    VarAssignment::Y
                } else if alt.key == b && outranks(alt, a, score) {
                    VarAssignment::X
                } else {
                    VarAssignment::One
                }
            });
            // x-degree 0 (no out-ranking alternative of b present), y-degree 1.
            total += poly.coeff(0, 1);
        }
        clamp_probability(total)
    }

    /// `Pr(i.A = a ∧ j.A = a)` — the probability that tuples `i` and `j`
    /// both take the attribute value `a` (§6.2): assign `x` to the leaves
    /// `(i, a)` and `(j, a)` and read the coefficient of `x²`.
    pub fn cooccurrence_probability(&self, i: TupleKey, j: TupleKey, value: f64) -> f64 {
        if i == j {
            return 0.0;
        }
        let poly = self.genfunc1(Truncation::Degree(2), |alt| {
            (alt.key == i || alt.key == j) && alt.value.0 == value
        });
        clamp_probability(poly.coeff(2))
    }

    /// The clustering weight `w_{ij} = Σ_a Pr(i.A = a ∧ j.A = a)` — the
    /// probability that tuples `i` and `j` are clustered together (take the
    /// same attribute value) in a random possible world.
    pub fn cluster_weight(&self, i: TupleKey, j: TupleKey) -> f64 {
        if i == j {
            return 0.0;
        }
        let alt_probs = self.alternative_probabilities_cached();
        let mut values: Vec<f64> = alt_probs
            .iter()
            .filter(|(a, _)| a.key == i)
            .map(|(a, _)| a.value.0)
            .collect();
        values.sort_by(f64::total_cmp);
        values.dedup();
        let mut total = 0.0;
        for v in values {
            // Only values that j can also take contribute.
            if alt_probs.iter().any(|(a, _)| a.key == j && a.value.0 == v) {
                total += self.cooccurrence_probability(i, j, v);
            }
        }
        clamp_probability(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::AndXorTreeBuilder;
    use cpdb_genfunc::approx_eq_eps;
    use cpdb_model::{PossibleWorld, WorldModel};

    /// Independent tuples with distinct scores.
    fn independent_tree(specs: &[(u64, f64, f64)]) -> AndXorTree {
        let mut b = AndXorTreeBuilder::new();
        let mut xors = Vec::new();
        for &(key, score, p) in specs {
            let leaf = b.leaf_parts(key, score);
            xors.push(b.xor_node(vec![(leaf, p)]));
        }
        let root = b.and_node(xors);
        b.build(root).unwrap()
    }

    /// The highly correlated 3-world database of Figure 1(ii)/(iii).
    fn figure1_iii_tree() -> AndXorTree {
        crate::figure1::figure1_correlated_tree()
    }

    fn brute_force_rank_pmf(tree: &AndXorTree, key: TupleKey, max_rank: usize) -> Vec<f64> {
        let ws = tree.enumerate_worlds();
        let mut pmf = vec![0.0; max_rank];
        for (w, p) in ws.worlds() {
            if let Some(r) = rank_in_world(w, key) {
                if r <= max_rank {
                    pmf[r - 1] += p;
                }
            }
        }
        pmf
    }

    fn rank_in_world(w: &PossibleWorld, key: TupleKey) -> Option<usize> {
        w.rank_of(key)
    }

    #[test]
    fn rank_pmf_matches_enumeration_independent() {
        let tree = independent_tree(&[
            (1, 90.0, 0.3),
            (2, 80.0, 0.9),
            (3, 70.0, 0.5),
            (4, 60.0, 0.7),
        ]);
        for key in tree.keys() {
            let pmf = tree.rank_pmf(key, 4);
            let brute = brute_force_rank_pmf(&tree, key, 4);
            for i in 0..4 {
                assert!(
                    approx_eq_eps(pmf[i], brute[i], 1e-9),
                    "key {key:?} rank {}: {} vs {}",
                    i + 1,
                    pmf[i],
                    brute[i]
                );
            }
        }
    }

    #[test]
    fn rank_pmf_matches_enumeration_correlated() {
        let tree = figure1_iii_tree();
        for key in tree.keys() {
            let pmf = tree.rank_pmf(key, 3);
            let brute = brute_force_rank_pmf(&tree, key, 3);
            for i in 0..3 {
                assert!(
                    approx_eq_eps(pmf[i], brute[i], 1e-9),
                    "key {key:?} rank {}: {} vs {}",
                    i + 1,
                    pmf[i],
                    brute[i]
                );
            }
        }
    }

    #[test]
    fn figure1_rank_probability_of_t3_alternative() {
        // The paper's Figure 1(iii) caption: the coefficient of y (0.3) is the
        // probability that the alternative (t3, 6) is ranked at position 1.
        let tree = figure1_iii_tree();
        // (t3, 6) is ranked first only in pw1 = {(t3,6),(t2,5),(t1,1)} (0.3).
        let pmf = tree.rank_pmf(TupleKey(3), 1);
        // Pr(r(t3) = 1) = Pr(pw1) + Pr(pw2) because (t3, 9) tops pw2 as well.
        // The caption's 0.3 refers to the single alternative (t3, 6); verify
        // both the per-alternative number and the per-tuple number.
        let ws = tree.enumerate_worlds();
        let alt_rank1: f64 = ws
            .worlds()
            .iter()
            .filter(|(w, _)| {
                w.contains(&Alternative::new(3, 6.0)) && w.rank_of(TupleKey(3)) == Some(1)
            })
            .map(|(_, p)| *p)
            .sum();
        assert!(approx_eq_eps(alt_rank1, 0.3, 1e-9));
        assert!(approx_eq_eps(pmf[0], 0.6, 1e-9)); // pw1 (0.3) + pw2 (0.3)
    }

    #[test]
    fn rank_cdf_is_monotone_and_bounded_by_presence() {
        let tree = independent_tree(&[(1, 9.0, 0.4), (2, 8.0, 0.6), (3, 7.0, 0.8)]);
        for key in tree.keys() {
            let presence = tree.key_presence_probabilities()[&key];
            let mut prev = 0.0;
            for k in 1..=3 {
                let cdf = tree.rank_cdf(key, k);
                assert!(cdf + 1e-12 >= prev);
                assert!(cdf <= presence + 1e-9);
                prev = cdf;
            }
            assert!(approx_eq_eps(tree.rank_cdf(key, 3), presence, 1e-9));
        }
    }

    #[test]
    fn pairwise_order_matches_enumeration() {
        let tree = figure1_iii_tree();
        let ws = tree.enumerate_worlds();
        let keys = tree.keys();
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
                let got = tree.pairwise_order_probability(a, b);
                assert!(
                    approx_eq_eps(got, expected, 1e-9),
                    "Pr(r({a:?}) < r({b:?})): {got} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn pairwise_order_self_is_zero() {
        let tree = figure1_iii_tree();
        assert_eq!(
            tree.pairwise_order_probability(TupleKey(1), TupleKey(1)),
            0.0
        );
    }

    #[test]
    fn cooccurrence_for_independent_tuples_is_product() {
        // Tuples 1 and 2 both take value 5.0 with probabilities 0.3 and 0.4.
        let mut b = AndXorTreeBuilder::new();
        let l1 = b.leaf_parts(1, 5.0);
        let l2 = b.leaf_parts(2, 5.0);
        let l3 = b.leaf_parts(3, 7.0);
        let x1 = b.xor_node(vec![(l1, 0.3)]);
        let x2 = b.xor_node(vec![(l2, 0.4)]);
        let x3 = b.xor_node(vec![(l3, 0.9)]);
        let root = b.and_node(vec![x1, x2, x3]);
        let tree = b.build(root).unwrap();
        assert!(approx_eq_eps(
            tree.cooccurrence_probability(TupleKey(1), TupleKey(2), 5.0),
            0.12,
            1e-12
        ));
        assert_eq!(
            tree.cooccurrence_probability(TupleKey(1), TupleKey(3), 5.0),
            0.0
        );
        assert!(approx_eq_eps(
            tree.cluster_weight(TupleKey(1), TupleKey(2)),
            0.12,
            1e-12
        ));
        assert_eq!(tree.cluster_weight(TupleKey(1), TupleKey(1)), 0.0);
    }

    #[test]
    fn cluster_weight_matches_enumeration_on_correlated_tree() {
        // Two tuples that take the same value only in some correlated worlds.
        let mut b = AndXorTreeBuilder::new();
        // World A (0.5): t1=1, t2=1 ; World B (0.3): t1=1, t2=2 ; else empty.
        let a1 = b.leaf_parts(1, 1.0);
        let a2 = b.leaf_parts(2, 1.0);
        let wa = b.and_node(vec![a1, a2]);
        let b1 = b.leaf_parts(1, 1.0);
        let b2 = b.leaf_parts(2, 2.0);
        let wb = b.and_node(vec![b1, b2]);
        let root = b.xor_node(vec![(wa, 0.5), (wb, 0.3)]);
        let tree = b.build(root).unwrap();
        let w = tree.cluster_weight(TupleKey(1), TupleKey(2));
        assert!(approx_eq_eps(w, 0.5, 1e-12));
    }

    #[test]
    fn rank_probability_edge_cases() {
        let tree = independent_tree(&[(1, 9.0, 0.5)]);
        assert_eq!(tree.rank_probability(TupleKey(1), 0), 0.0);
        assert!(approx_eq_eps(
            tree.rank_probability(TupleKey(1), 1),
            0.5,
            1e-12
        ));
        assert_eq!(tree.rank_pmf(TupleKey(1), 0).len(), 0);
    }
}
