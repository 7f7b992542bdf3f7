//! Possible-world semantics of and/xor trees: sampling and enumeration.
//!
//! The random subset `S_v` of leaves defined by the subtree rooted at `v`
//! (Definition 1) is generated by an independent recursive process: an ∨
//! node picks at most one child according to its edge probabilities, an ∧
//! node includes every child. [`AndXorTree`] implements
//! [`cpdb_model::WorldModel`] so it can be sampled and — for small trees —
//! enumerated exhaustively, which is how the brute-force consensus oracles
//! obtain ground truth.

use crate::tree::{AndXorTree, Node, NodeId, NodeKind};
use cpdb_model::{Alternative, PossibleWorld, WorldModel, WorldSet};
use rand::Rng;

/// Hard cap on the number of (world, probability) pairs produced while
/// enumerating a subtree, to protect against accidental exponential blow-ups
/// in tests and experiments.
const MAX_ENUMERATED_WORLDS: usize = 4_000_000;

impl AndXorTree {
    fn sample_subtree<R: Rng + ?Sized>(&self, id: NodeId, rng: &mut R, out: &mut Vec<Alternative>) {
        match &self.nodes[id.0] {
            Node::Leaf(a) => out.push(*a),
            Node::Inner { kind, children } => match kind {
                NodeKind::And => {
                    for (c, _) in children {
                        self.sample_subtree(*c, rng, out);
                    }
                }
                NodeKind::Xor => {
                    let mut u: f64 = rng.gen();
                    for (c, p) in children {
                        if u < *p {
                            self.sample_subtree(*c, rng, out);
                            return;
                        }
                        u -= p;
                    }
                    // Leftover mass: the node contributes nothing.
                }
            },
        }
    }

    fn enumerate_subtree(&self, id: NodeId) -> Vec<(Vec<Alternative>, f64)> {
        match &self.nodes[id.0] {
            Node::Leaf(a) => vec![(vec![*a], 1.0)],
            Node::Inner { kind, children } => match kind {
                NodeKind::Xor => {
                    let mut out = Vec::new();
                    let mut leftover = 1.0;
                    for (c, p) in children {
                        leftover -= p;
                        if *p == 0.0 {
                            continue;
                        }
                        for (alts, q) in self.enumerate_subtree(*c) {
                            out.push((alts, q * p));
                        }
                    }
                    if leftover > 1e-12 {
                        out.push((Vec::new(), leftover));
                    }
                    assert!(
                        out.len() <= MAX_ENUMERATED_WORLDS,
                        "and/xor enumeration exceeded {MAX_ENUMERATED_WORLDS} worlds"
                    );
                    out
                }
                NodeKind::And => {
                    let mut out: Vec<(Vec<Alternative>, f64)> = vec![(Vec::new(), 1.0)];
                    for (c, _) in children {
                        let child_worlds = self.enumerate_subtree(*c);
                        let mut next =
                            Vec::with_capacity(out.len().saturating_mul(child_worlds.len()));
                        for (alts, p) in &out {
                            for (c_alts, q) in &child_worlds {
                                let mut merged = alts.clone();
                                merged.extend_from_slice(c_alts);
                                next.push((merged, p * q));
                            }
                        }
                        out = next;
                        assert!(
                            out.len() <= MAX_ENUMERATED_WORLDS,
                            "and/xor enumeration exceeded {MAX_ENUMERATED_WORLDS} worlds"
                        );
                    }
                    out
                }
            },
        }
    }
}

impl WorldModel for AndXorTree {
    fn alternatives(&self) -> Vec<Alternative> {
        AndXorTree::alternatives(self)
    }

    fn enumerate_worlds(&self) -> WorldSet {
        let worlds = self
            .enumerate_subtree(self.root())
            .into_iter()
            .map(|(alts, p)| (PossibleWorld::from_trusted(alts), p))
            .collect();
        WorldSet::new_unchecked(worlds).normalize()
    }

    fn sample_world<R: Rng + ?Sized>(&self, rng: &mut R) -> PossibleWorld {
        let mut alts = Vec::new();
        self.sample_subtree(self.root(), rng, &mut alts);
        PossibleWorld::from_trusted(alts)
    }

    fn alternative_probability(&self, alt: &Alternative) -> f64 {
        let table = self.alternative_probabilities();
        table
            .binary_search_by(|(a, _)| a.cmp(alt))
            .map_or(0.0, |at| table[at].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::AndXorTreeBuilder;
    use cpdb_model::TupleKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// ∧( ∨(t1:0.3@1, t1:0.2@2), ∨(0.6 → ∧(t2@3, t3@4)) )
    fn correlated_tree() -> AndXorTree {
        let mut b = AndXorTreeBuilder::new();
        let a1 = b.leaf_parts(1, 1.0);
        let a2 = b.leaf_parts(1, 2.0);
        let x1 = b.xor_node(vec![(a1, 0.3), (a2, 0.2)]);
        let l2 = b.leaf_parts(2, 3.0);
        let l3 = b.leaf_parts(3, 4.0);
        let and23 = b.and_node(vec![l2, l3]);
        let x2 = b.xor_node(vec![(and23, 0.6)]);
        let root = b.and_node(vec![x1, x2]);
        b.build(root).unwrap()
    }

    #[test]
    fn enumeration_total_mass_is_one() {
        let tree = correlated_tree();
        let ws = tree.enumerate_worlds();
        let total: f64 = ws.worlds().iter().map(|(_, p)| *p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // 3 options for tuple 1 (two alternatives or absent) × 2 options for
        // the (t2, t3) pair = 6 worlds.
        assert_eq!(ws.len(), 6);
    }

    #[test]
    fn enumeration_marginals_match_bottom_up_probabilities() {
        let tree = correlated_tree();
        let ws = tree.enumerate_worlds();
        let probs = tree.key_presence_probabilities();
        for (key, p) in probs {
            assert!(
                (ws.marginal_key(key) - p).abs() < 1e-12,
                "key {key:?}: enumeration {} vs bottom-up {p}",
                ws.marginal_key(key)
            );
        }
    }

    #[test]
    fn coexistence_correlation_is_respected() {
        let tree = correlated_tree();
        let ws = tree.enumerate_worlds();
        for (w, p) in ws.worlds() {
            if *p == 0.0 {
                continue;
            }
            // t2 and t3 either both present or both absent.
            assert_eq!(w.contains_key(TupleKey(2)), w.contains_key(TupleKey(3)));
        }
    }

    #[test]
    fn mutual_exclusion_is_respected() {
        let tree = correlated_tree();
        let ws = tree.enumerate_worlds();
        for (w, _) in ws.worlds() {
            let count = w
                .alternatives()
                .iter()
                .filter(|a| a.key == TupleKey(1))
                .count();
            assert!(count <= 1);
        }
    }

    #[test]
    fn sampling_agrees_with_enumeration() {
        let tree = correlated_tree();
        let ws = tree.enumerate_worlds();
        let mut rng = StdRng::seed_from_u64(123);
        let n = 50_000;
        let mut both = 0usize;
        for _ in 0..n {
            let w = tree.sample_world(&mut rng);
            if w.contains_key(TupleKey(1)) && w.contains_key(TupleKey(2)) {
                both += 1;
            }
        }
        let expected = ws
            .expectation(|w| f64::from(w.contains_key(TupleKey(1)) && w.contains_key(TupleKey(2))));
        let freq = both as f64 / n as f64;
        assert!(
            (freq - expected).abs() < 0.01,
            "sampled {freq} vs enumerated {expected}"
        );
    }

    #[test]
    fn alternative_probability_via_world_model() {
        let tree = correlated_tree();
        assert!(
            (WorldModel::alternative_probability(&tree, &Alternative::new(1, 1.0)) - 0.3).abs()
                < 1e-12
        );
        assert_eq!(
            WorldModel::alternative_probability(&tree, &Alternative::new(9, 9.0)),
            0.0
        );
    }
}
