//! Consensus worlds under the symmetric-difference distance (§4.1).
//!
//! * **Theorem 2** — the *mean* world is the set of all tuple alternatives
//!   with marginal probability greater than ½, because each alternative `t`
//!   contributes `Pr(¬t)` to the expected distance when included and `Pr(t)`
//!   when excluded, independently of everything else.
//! * **Corollary 1** — for databases whose correlations are captured by a
//!   probabilistic and/xor tree, that same set is itself a possible world, so
//!   it is also the *median* world.
//! * For arbitrary correlations the median-world problem is NP-hard (the
//!   MAX-2-SAT reduction lives in `cpdb_model::hardness`); the
//!   [`median_world_from_worldset`] helper solves the explicit-world version
//!   by enumeration so the hardness gadget can be exercised end-to-end.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use cpdb_andxor::AndXorTree;
use cpdb_model::{fold_marginals, Alternative, PossibleWorld, WorldModel, WorldSet};
use std::cmp::Ordering;

/// The expected symmetric-difference distance between a candidate world and
/// the random world, computed in closed form from a marginal table sorted by
/// alternative ([`AndXorTree::alternative_probabilities`]):
/// `Σ_{t ∈ S} (1 − Pr(t)) + Σ_{t ∉ S} Pr(t)` (proof of Theorem 2).
///
/// The summation runs in the table's sorted-alternative order, so the result
/// is bit-identical across independently built tables — the engine's
/// concurrent-vs-serial conformance gates compare answers down to the last
/// bit.
pub fn expected_symmetric_difference(
    candidate: &PossibleWorld,
    marginals: &[(Alternative, f64)],
) -> f64 {
    let mut total = 0.0;
    for (alt, p) in marginals {
        if candidate.contains(alt) {
            total += 1.0 - p;
        } else {
            total += p;
        }
    }
    // Alternatives in the candidate that never occur contribute 1 each.
    for alt in candidate.alternatives() {
        if marginals.binary_search_by(|(a, _)| a.cmp(alt)).is_err() {
            total += 1.0;
        }
    }
    total
}

/// The highest-marginal alternative of every key of a marginal table sorted
/// by alternative, in key order; of two alternatives with the same marginal
/// the larger value wins. This is the §4.2 candidate of each BID block, and
/// the only alternative of its key that Theorem 2 can choose.
pub(crate) fn best_alternative_per_key(
    marginals: &[(Alternative, f64)],
) -> impl Iterator<Item = (Alternative, f64)> + '_ {
    marginals
        .chunk_by(|(a, _), (b, _)| a.key == b.key)
        .filter_map(|run| {
            run.iter().copied().reduce(|best, (alt, p)| {
                let better = p
                    .partial_cmp(&best.1)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| alt.value.0.total_cmp(&best.0.value.0))
                    .is_gt();
                if better {
                    (alt, p)
                } else {
                    best
                }
            })
        })
}

/// Theorem 2: the mean world under symmetric difference for any model that
/// can report its per-alternative marginals (sorted by alternative) — the
/// set of alternatives with probability strictly greater than ½. Each
/// alternative's term is independent of the others, so under the key
/// constraint the minimiser keeps, per key, the highest-marginal alternative
/// above ½ (ties to the larger value). Two alternatives of one key can both
/// exceed ½ only through the `1 + 1e-9` mass tolerance of ∨ nodes.
pub fn mean_world_from_marginals(marginals: &[(Alternative, f64)]) -> PossibleWorld {
    PossibleWorld::from_trusted(
        best_alternative_per_key(marginals)
            .filter(|(_, p)| *p > 0.5)
            .map(|(a, _)| a)
            .collect(),
    )
}

/// Theorem 2 specialised to an and/xor tree: the mean world under the
/// symmetric-difference distance.
pub fn mean_world(tree: &AndXorTree) -> PossibleWorld {
    mean_world_from_marginals(&tree.alternative_probabilities())
}

/// Corollary 1: for an and/xor tree the median world coincides with the mean
/// world (the majority set of alternatives with probability > ½).
///
/// **Caveat (documented reproduction finding):** the corollary as stated in
/// the paper assumes the majority set is itself a possible world. That holds
/// for BID-style trees (every ∨ node can yield "nothing"), but a tree whose
/// root ∨ node has total probability exactly 1 — such as the Figure 1(iii)
/// construction — has no empty world, so when *no* alternative exceeds ½ the
/// returned set (∅) is a strict lower bound rather than an attainable median.
/// Use [`median_world_from_worldset`] (enumeration) when an exact median over
/// the possible worlds is required for such trees.
pub fn median_world(tree: &AndXorTree) -> PossibleWorld {
    mean_world(tree)
}

/// The expected symmetric-difference distance of a candidate against an
/// and/xor tree, using the closed form of Theorem 2.
pub fn expected_distance(tree: &AndXorTree, candidate: &PossibleWorld) -> f64 {
    expected_symmetric_difference(candidate, &tree.alternative_probabilities())
}

/// The marginal table of an explicit world set, sorted by alternative; each
/// alternative's probabilities are added in world order.
fn worldset_marginals(worlds: &WorldSet) -> Vec<(Alternative, f64)> {
    fold_marginals(
        worlds
            .worlds()
            .iter()
            .flat_map(|(w, p)| w.alternatives().iter().map(move |alt| (*alt, *p)))
            .collect(),
    )
}

/// Median world for an *explicitly enumerated* distribution (arbitrary
/// correlations): the possible world minimising the expected symmetric
/// difference, found by scanning the support and scoring each candidate with
/// the closed form. This is the problem shown NP-hard in §4.1 when the
/// distribution is given implicitly; with the worlds listed explicitly it is
/// linear in the support size. `None` when no world has positive
/// probability.
pub fn median_world_from_worldset(worlds: &WorldSet) -> Option<(PossibleWorld, f64)> {
    let marginals = worldset_marginals(worlds);
    let mut best: Option<(PossibleWorld, f64)> = None;
    for (w, p) in worlds.worlds() {
        if *p <= 0.0 {
            continue;
        }
        let cost = expected_symmetric_difference(w, &marginals);
        if best.as_ref().is_none_or(|(_, b)| cost < *b) {
            best = Some((w.clone(), cost));
        }
    }
    best
}

/// Convenience: mean world for any [`WorldModel`] by enumerating its worlds
/// to obtain marginals. Exponential; intended for small models and tests.
pub fn mean_world_enumerated<M: WorldModel>(model: &M) -> PossibleWorld {
    mean_world_from_marginals(&worldset_marginals(&model.enumerate_worlds()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use cpdb_andxor::convert::from_bid;
    use cpdb_andxor::figure1::{figure1_bid, figure1_correlated_tree};
    use cpdb_andxor::AndXorTreeBuilder;
    use cpdb_model::TupleIndependentDb;

    #[test]
    fn theorem2_matches_brute_force_on_independent_tuples() {
        let db = TupleIndependentDb::from_triples(&[
            (1, 1.0, 0.9),
            (2, 2.0, 0.55),
            (3, 3.0, 0.5),
            (4, 4.0, 0.1),
        ])
        .unwrap();
        let tree = cpdb_andxor::convert::from_tuple_independent(&db).unwrap();
        let mean = mean_world(&tree);
        assert!(mean.contains(&Alternative::new(1, 1.0)));
        assert!(mean.contains(&Alternative::new(2, 2.0)));
        assert!(!mean.contains(&Alternative::new(3, 3.0))); // exactly 0.5 is excluded
        assert!(!mean.contains(&Alternative::new(4, 4.0)));

        let ws = db.enumerate_worlds();
        let (brute, brute_cost) =
            oracle::brute_force_mean_world(&ws, |a, b| a.symmetric_difference(b) as f64);
        let closed_cost = expected_distance(&tree, &mean);
        assert!((closed_cost - brute_cost).abs() < 1e-9);
        // The brute-force optimum has the same cost (it may differ on the
        // probability-exactly-½ tuple, which is cost-neutral).
        assert!(
            (oracle::expected_world_distance(&brute, &ws, |a, b| a.symmetric_difference(b) as f64)
                - closed_cost)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn theorem2_matches_brute_force_on_figure1_bid() {
        let tree = from_bid(&figure1_bid()).unwrap();
        let mean = mean_world(&tree);
        let ws = tree.enumerate_worlds();
        let (_, brute_cost) =
            oracle::brute_force_mean_world(&ws, |a, b| a.symmetric_difference(b) as f64);
        assert!((expected_distance(&tree, &mean) - brute_cost).abs() < 1e-9);
        // Only (t3, 9) has marginal probability > 1/2 in Figure 1(i).
        assert_eq!(mean.alternatives(), &[Alternative::new(3, 9.0)]);
    }

    #[test]
    fn corollary1_median_equals_mean_and_is_possible_for_andxor() {
        // A tree with coexistence correlations: the majority set must still be
        // a possible world.
        let mut b = AndXorTreeBuilder::new();
        let l1 = b.leaf_parts(1, 1.0);
        let l2 = b.leaf_parts(2, 2.0);
        let pair = b.and_node(vec![l1, l2]);
        let l3 = b.leaf_parts(3, 3.0);
        let x1 = b.xor_node(vec![(pair, 0.8)]);
        let x2 = b.xor_node(vec![(l3, 0.4)]);
        let root = b.and_node(vec![x1, x2]);
        let tree = b.build(root).unwrap();

        let median = median_world(&tree);
        let ws = tree.enumerate_worlds();
        assert!(
            ws.worlds().iter().any(|(w, p)| *p > 0.0 && *w == median),
            "median {median} must be a possible world"
        );
        let (brute, brute_cost) =
            oracle::brute_force_median_world(&ws, |a, b| a.symmetric_difference(b) as f64);
        assert!(
            (expected_distance(&tree, &median) - brute_cost).abs() < 1e-9,
            "median {median} vs brute {brute}"
        );
    }

    #[test]
    fn corollary1_on_figure1_correlated_tree() {
        let tree = figure1_correlated_tree();
        let median = median_world(&tree);
        let ws = tree.enumerate_worlds();
        let (_, brute_cost) =
            oracle::brute_force_median_world(&ws, |a, b| a.symmetric_difference(b) as f64);
        // No alternative has probability > 1/2 in Figure 1(iii) (max is 0.4),
        // so the mean world is empty...
        assert!(median.is_empty());
        // ...and the brute-force median over possible worlds has expected
        // distance at least the mean world's (the mean is a lower bound over
        // all worlds).
        assert!(expected_distance(&tree, &median) <= brute_cost + 1e-9);
    }

    #[test]
    fn median_from_worldset_solves_hardness_gadget() {
        use cpdb_model::hardness::{Clause, HardnessGadget, Literal, Max2SatInstance};
        let inst = Max2SatInstance::new(
            3,
            vec![
                Clause::new(Literal::pos(0), Literal::neg(1)),
                Clause::new(Literal::pos(1), Literal::pos(2)),
                Clause::new(Literal::neg(0), Literal::neg(2)),
                Clause::new(Literal::pos(0), Literal::pos(2)),
            ],
        )
        .unwrap();
        let (optimum, _) = inst.brute_force_optimum();
        let gadget = HardnessGadget::build(inst).unwrap();
        // Build the distribution over query answers as explicit worlds keyed
        // by clause index.
        let s_worlds = gadget.s_relation.enumerate_worlds();
        let answers: Vec<(PossibleWorld, f64)> = s_worlds
            .worlds()
            .iter()
            .map(|(w, p)| {
                let ans = gadget.query_answer(w);
                let alts: Vec<Alternative> = ans
                    .rows()
                    .iter()
                    .map(|row| Alternative::new(row[0] as u64, 1.0))
                    .collect();
                (PossibleWorld::new(alts).unwrap(), *p)
            })
            .collect();
        let answer_set = WorldSet::new_unchecked(answers).normalize();
        let (median, _) = median_world_from_worldset(&answer_set).unwrap();
        // Every result tuple has probability 3/4 > 1/2, so the median answer
        // is the possible answer with the most tuples — the MAX-2-SAT optimum.
        assert_eq!(median.len(), optimum);
    }

    #[test]
    fn expected_symmetric_difference_counts_never_occurring_alternatives() {
        let marginals = [(Alternative::new(1, 1.0), 0.7)];
        let candidate =
            PossibleWorld::new(vec![Alternative::new(1, 1.0), Alternative::new(9, 9.0)]).unwrap();
        let d = expected_symmetric_difference(&candidate, &marginals);
        assert!((d - (0.3 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn mean_world_enumerated_agrees_with_closed_form() {
        let db = TupleIndependentDb::from_triples(&[(1, 1.0, 0.8), (2, 2.0, 0.3)]).unwrap();
        let tree = cpdb_andxor::convert::from_tuple_independent(&db).unwrap();
        assert_eq!(mean_world_enumerated(&db), mean_world(&tree));
    }
}
