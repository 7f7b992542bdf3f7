//! Slow, literal reference implementations kept as test oracles.
//!
//! The production Jaccard scan in [`cpdb_consensus::jaccard`] carries only
//! the dual-number pair `(G(1, y), ∂ₓG(1, y))` through one incremental
//! sweep. This module keeps the paper's literal form of the same scan —
//! Lemma 1 evaluated by building the full bivariate generating function
//! `G(x, y)` as a [`cpdb_genfunc::Poly2`] for every one of the `n + 1`
//! prefixes (`~n⁴`) — so conformance checks can pin the fast scan to it
//! prefix by prefix.

use cpdb_andxor::{AndXorTree, VarAssignment};
use cpdb_consensus::jaccard::JaccardConsensus;
use cpdb_genfunc::Truncation;
use cpdb_model::{Alternative, PossibleWorld};
use std::collections::HashSet;

/// Lemma 1 read off the full bivariate generating function: the exact
/// expected Jaccard distance between `candidate` and the random world.
pub fn expected_jaccard_distance_poly2(tree: &AndXorTree, candidate: &PossibleWorld) -> f64 {
    let members: HashSet<Alternative> = candidate.alternatives().iter().copied().collect();
    let w = members.len();
    let poly = tree.genfunc2(Truncation::None, Truncation::None, |a| {
        if members.contains(a) {
            VarAssignment::X
        } else {
            VarAssignment::Y
        }
    });
    poly.expectation_with(|i, j| {
        let union = w + j;
        if union == 0 {
            0.0
        } else {
            (w - i + j) as f64 / union as f64
        }
    })
}

/// The Lemma 1 score of every prefix of `sorted` (entry `t` scores the first
/// `t` alternatives), one full `Poly2` per prefix.
///
/// # Panics
///
/// When `sorted` holds two alternatives of one key.
pub fn prefix_distances_poly2(tree: &AndXorTree, sorted: &[(Alternative, f64)]) -> Vec<f64> {
    (0..=sorted.len())
        .map(|t| {
            let world = PossibleWorld::new(sorted[..t].iter().map(|(a, _)| *a).collect())
                .expect("prefixes contain at most one alternative per key");
            expected_jaccard_distance_poly2(tree, &world)
        })
        .collect()
}

/// The best prefix of `sorted` under [`prefix_distances_poly2`]; the first
/// prefix wins a tie, as in the production scan.
pub fn best_prefix_world_poly2(
    tree: &AndXorTree,
    sorted: &[(Alternative, f64)],
) -> JaccardConsensus {
    let distances = prefix_distances_poly2(tree, sorted);
    let mut best = 0;
    for (t, &d) in distances.iter().enumerate() {
        if d < distances[best] {
            best = t;
        }
    }
    JaccardConsensus {
        world: PossibleWorld::from_trusted(sorted[..best].iter().map(|(a, _)| *a).collect()),
        expected_distance: distances[best],
    }
}
