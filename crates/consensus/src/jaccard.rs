//! Consensus worlds under the Jaccard distance (§4.2, Lemmas 1–2).
//!
//! The Jaccard distance `d_J(S₁, S₂) = |S₁ Δ S₂| / |S₁ ∪ S₂|` couples the
//! tuples, so the expected distance no longer decomposes per tuple. The paper
//! shows two facts that still make the problem tractable:
//!
//! * **Lemma 1** — for any candidate world `W`, `E[d_J(W, pw)]` can be read
//!   off a bivariate generating function `G(x, y)` in which members of `W`
//!   map to `x` and non-members to `y`: the coefficient of `x^i y^j` is the
//!   probability that `|W ∩ pw| = i` and `|pw \ W| = j`, and such a world is
//!   at distance `(|W| − i + j) / (|W| + j)`.
//! * **Lemma 2** — for tuple-independent databases the mean world is a
//!   *prefix* of the tuples sorted by decreasing probability, so scanning the
//!   `n + 1` prefixes and scoring each with Lemma 1 finds it in polynomial
//!   time. The same scan over the highest-probability alternative of each
//!   block gives the median world for BID databases.
//!
//! # The dual-number sweep
//!
//! The full `G(x, y)` is more than Lemma 1 needs. With `w = |W|`, the
//! distance is `1 − i/(w + j)` whenever `w + j > 0`, so it is linear in `i`
//! for a fixed `j`:
//!
//! ```text
//! E[d_J(W, pw)] = Σ_j A_j·[w + j > 0] − Σ_j B_j / (w + j),
//! A(y) = G(1, y),   B(y) = ∂ₓG(1, y).
//! ```
//!
//! The pair `(A, B)` is `G` evaluated at the dual number `x = 1 + ε`, so it
//! is computed bottom-up over univariate polynomial pairs `(a, b)`:
//!
//! * a leaf is `(y, 0)` outside `W` and `(1, 1)` inside it;
//! * a ∨ node is linear: `a = (1 − Σp) + Σ p·a_h`, `b = Σ p·b_h`;
//! * an ∧ node follows the product rule: `(a₁a₂, a₁b₂ + a₂b₁)`.
//!
//! Neighbouring prefixes differ by one candidate, so the scan flips the
//! candidates in order and recomputes only the nodes above the flipped
//! leaves. A subtree whose candidate leaves all carry one alternative has
//! just two values, before and after its flip. At an ∧ node such children
//! are ordered by flip step: the flipped ones form a running product and the
//! unflipped ones a precomputed suffix product, and the rare children that
//! flip at several steps are multiplied in directly. On a tuple-independent
//! or BID tree every root child flips once, so one scan costs `O(n²)` and
//! `O(n³/6)` multiply-adds respectively, against the `~n⁴` of building `G`
//! for every prefix.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use cpdb_andxor::{AndXorTree, NodeKind};
use cpdb_model::{Alternative, BidDb, ModelError, PossibleWorld, TupleIndependentDb};
use std::collections::HashMap;

/// Lemma 1: the exact expected Jaccard distance between a candidate world and
/// the random world of an and/xor tree.
pub fn expected_jaccard_distance(tree: &AndXorTree, candidate: &PossibleWorld) -> f64 {
    // Every member flips at step 0, so the root's value after step 0 is the
    // dual pair of the candidate.
    let flip_step: HashMap<Alternative, usize> =
        candidate.alternatives().iter().map(|a| (*a, 0)).collect();
    let mut sweep = Sweep::new(tree, &flip_step, 1, candidate.len());
    sweep.flip(0);
    sweep.score(candidate.len())
}

/// The result of a consensus-world search: the chosen world and its expected
/// distance.
#[derive(Debug, Clone, PartialEq)]
pub struct JaccardConsensus {
    /// The selected world.
    pub world: PossibleWorld,
    /// Its exact expected Jaccard distance to the random world.
    pub expected_distance: f64,
}

/// Lemma 2: the mean world of a tuple-independent database under the Jaccard
/// distance, found by scanning prefixes of the probability-sorted tuple list
/// and scoring each prefix exactly with Lemma 1.
pub fn mean_world_tuple_independent(
    db: &TupleIndependentDb,
) -> Result<JaccardConsensus, ModelError> {
    let tree = cpdb_andxor::convert::from_tuple_independent(db)?;
    best_prefix_world(&tree, &db.sorted_by_probability_desc())
}

/// The median world of a BID database under the Jaccard distance: only the
/// highest-probability alternative of each block can participate (per §4.2),
/// and the candidates are again prefixes by probability.
pub fn median_world_bid(db: &BidDb) -> Result<JaccardConsensus, ModelError> {
    let tree = cpdb_andxor::convert::from_bid(db)?;
    let mut best_alts: Vec<(Alternative, f64)> =
        db.blocks().iter().map(|b| b.best_alternative()).collect();
    best_alts.sort_by(|(a1, p1), (a2, p2)| {
        p2.partial_cmp(p1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a1.key.cmp(&a2.key))
    });
    best_prefix_world(&tree, &best_alts)
}

/// The candidate list the prefix scan works on, derived directly from an
/// and/xor tree: the highest-marginal-probability alternative of every tuple
/// key, sorted by decreasing probability (ties broken by key). For
/// tuple-independent trees this is exactly the Lemma 2 candidate order; for
/// BID trees it is the §4.2 median candidate order.
pub fn prefix_candidates(tree: &AndXorTree) -> Vec<(Alternative, f64)> {
    prefix_candidates_from_marginals(&tree.alternative_probabilities())
}

/// [`prefix_candidates`] from a marginal table sorted by alternative
/// ([`AndXorTree::alternative_probabilities`]), in one pass over its key
/// runs, so callers that cache the table (the engine does, for every set
/// query) avoid a second tree walk.
pub fn prefix_candidates_from_marginals(
    marginals: &[(Alternative, f64)],
) -> Vec<(Alternative, f64)> {
    let mut sorted: Vec<(Alternative, f64)> =
        crate::set_distance::best_alternative_per_key(marginals).collect();
    sorted.sort_by(|(a1, p1), (a2, p2)| {
        p2.partial_cmp(p1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a1.key.cmp(&a2.key))
    });
    sorted
}

/// Scores every prefix of `sorted` (including the empty prefix) with Lemma 1
/// and returns the best one; the first prefix wins a tie. `sorted` must hold
/// at most one alternative per key, or the scan returns
/// [`ModelError::DuplicateKey`].
pub fn best_prefix_world(
    tree: &AndXorTree,
    sorted: &[(Alternative, f64)],
) -> Result<JaccardConsensus, ModelError> {
    let distances = prefix_distances(tree, sorted)?;
    let mut best = 0;
    for (len, &d) in distances.iter().enumerate() {
        if d < distances[best] {
            best = len;
        }
    }
    let world = PossibleWorld::from_trusted(sorted[..best].iter().map(|(a, _)| *a).collect());
    Ok(JaccardConsensus {
        world,
        expected_distance: distances[best],
    })
}

/// The Lemma 1 expected distance of every prefix of `sorted`: entry `t` is
/// the score of the world holding the first `t` alternatives, so the result
/// has `sorted.len() + 1` entries. One incremental dual-number sweep
/// computes all of them (see the module docs). `sorted` must hold at most
/// one alternative per key, or the scan returns [`ModelError::DuplicateKey`].
pub fn prefix_distances(
    tree: &AndXorTree,
    sorted: &[(Alternative, f64)],
) -> Result<Vec<f64>, ModelError> {
    // Every prefix must be a world: validate the whole list once.
    PossibleWorld::new(sorted.iter().map(|(a, _)| *a).collect())?;
    let flip_step: HashMap<Alternative, usize> = sorted
        .iter()
        .enumerate()
        .map(|(i, (a, _))| (*a, i))
        .collect();
    let mut sweep = Sweep::new(tree, &flip_step, sorted.len(), sorted.len());
    let mut distances = Vec::with_capacity(sorted.len() + 1);
    distances.push(sweep.score(0));
    for step in 0..sorted.len() {
        sweep.flip(step);
        distances.push(sweep.score(step + 1));
    }
    Ok(distances)
}

// ---- the sweep ---------------------------------------------------------------

/// A univariate polynomial in `y`, lowest degree first; empty is zero.
type Poly = Vec<f64>;

/// `G(1, y)` and `∂ₓG(1, y)` of one subtree.
#[derive(Debug, Clone)]
struct Dual {
    a: Poly,
    b: Poly,
}

impl Dual {
    fn constant(c: f64) -> Self {
        Dual {
            a: vec![c],
            b: Vec::new(),
        }
    }

    /// A leaf outside the candidate world: `(y, 0)`.
    fn outside() -> Self {
        Dual {
            a: vec![0.0, 1.0],
            b: Vec::new(),
        }
    }

    /// A leaf inside the candidate world: `(1, 1)`.
    fn inside() -> Self {
        Dual {
            a: vec![1.0],
            b: vec![1.0],
        }
    }

    /// The product rule.
    fn mul(&self, other: &Dual) -> Dual {
        let mut b = mul(&self.a, &other.b);
        add_scaled(&mut b, &mul(&other.a, &self.b), 1.0);
        Dual {
            a: mul(&self.a, &other.a),
            b,
        }
    }

    /// The product with a subtree that holds no candidate leaf (`b = 0`).
    fn mul_poly(&self, s: &[f64]) -> Dual {
        Dual {
            a: mul(&self.a, s),
            b: mul(&self.b, s),
        }
    }
}

fn mul(p: &[f64], q: &[f64]) -> Poly {
    if p.is_empty() || q.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0.0; p.len() + q.len() - 1];
    for (i, &pi) in p.iter().enumerate() {
        for (o, &qj) in out[i..].iter_mut().zip(q) {
            *o += pi * qj;
        }
    }
    out
}

fn add_scaled(acc: &mut Poly, p: &[f64], s: f64) {
    if acc.len() < p.len() {
        acc.resize(p.len(), 0.0);
    }
    for (o, &c) in acc.iter_mut().zip(p) {
        *o += s * c;
    }
}

/// A ∨ node over `(probability, child value)` edges, the leftover mass
/// computed as `Poly2::xor_combine` does.
fn xor_combine<'d>(edges: impl Iterator<Item = (f64, &'d Dual)> + Clone) -> Dual {
    let leftover = 1.0 - edges.clone().map(|(p, _)| p).sum::<f64>();
    let mut out = Dual::constant(leftover);
    for (p, child) in edges {
        add_scaled(&mut out.a, &child.a, p);
        add_scaled(&mut out.b, &child.b, p);
    }
    out
}

fn and_combine<'d>(children: impl Iterator<Item = &'d Dual>) -> Dual {
    children.fold(Dual::constant(1.0), |acc, c| acc.mul(c))
}

/// How one subtree's value evolves over the scan.
#[derive(Debug)]
enum Track {
    /// No candidate leaf below: one value for every prefix.
    Fixed(Dual),
    /// Every candidate leaf below carries the alternative flipped at `step`.
    Once {
        step: usize,
        before: Dual,
        after: Dual,
    },
    /// Candidates flip below at two or more steps: the value is the `live`
    /// entry, recomputed at each of those steps.
    Live(usize),
}

impl Track {
    /// The value before and after the node's one flip, or `None` for a live
    /// node.
    fn phases(&self) -> Option<(&Dual, &Dual)> {
        match self {
            Track::Fixed(d) => Some((d, d)),
            Track::Once { before, after, .. } => Some((before, after)),
            Track::Live(_) => None,
        }
    }
}

/// The state of a subtree that changes at several steps.
#[derive(Debug)]
struct Live {
    value: Dual,
    rule: Rule,
}

#[derive(Debug)]
enum Rule {
    Xor(Vec<(usize, f64)>),
    And {
        /// Children that flip once, in flip order.
        once: Vec<usize>,
        /// How many of `once` have flipped.
        flipped: usize,
        /// The product of the flipped `once` children's `after` values.
        prefix: Dual,
        /// `suffix[i]`: the product of the unflipped `once[i..]` and of the
        /// children that never flip. Neither has a candidate leaf in the
        /// world, so the `b` half is zero and only `a` is kept.
        suffix: Vec<Poly>,
        /// Children that flip at several steps.
        live: Vec<usize>,
    },
}

/// The incremental evaluator behind [`prefix_distances`] and
/// [`expected_jaccard_distance`].
struct Sweep {
    /// One track per node, children before parents; the root is last.
    tracks: Vec<Track>,
    live: Vec<Live>,
    /// The live nodes (indices into `tracks`) above each step's leaves, in
    /// bottom-up order.
    refresh: Vec<Vec<usize>>,
    /// `inv[d] = 1/d`, with `inv[0] = 0` for the `w + j = 0` term.
    inv: Vec<f64>,
    /// Steps flipped so far.
    flipped: usize,
}

impl Sweep {
    /// Lays the tree out children-first and builds every node's track: a
    /// leaf whose alternative is in `flip_step` flips at that step, one of
    /// `steps`. Scores are then available for worlds of up to `max_world`
    /// alternatives.
    fn new(
        tree: &AndXorTree,
        flip_step: &HashMap<Alternative, usize>,
        steps: usize,
        max_world: usize,
    ) -> Self {
        let mut parent: Vec<usize> = Vec::new();
        let mut tracks: Vec<Track> = Vec::new();
        let mut live: Vec<Live> = Vec::new();
        let mut leaves_at: Vec<Vec<usize>> = vec![Vec::new(); steps];
        // Post-order: when a node is finished its children are the last
        // entries of `done`.
        let mut done: Vec<usize> = Vec::new();
        let mut stack = vec![(tree.root(), false)];
        while let Some((id, expanded)) = stack.pop() {
            let edges = tree.children(id);
            if !expanded && !edges.is_empty() {
                stack.push((id, true));
                stack.extend(edges.iter().rev().map(|(c, _)| (*c, false)));
                continue;
            }
            let me = tracks.len();
            parent.push(usize::MAX);
            let track = match tree.node_kind(id) {
                Some(kind) => {
                    let children = done.split_off(done.len() - edges.len());
                    for &c in &children {
                        parent[c] = me;
                    }
                    let edges: Vec<(usize, f64)> = children
                        .into_iter()
                        .zip(edges)
                        .map(|(c, (_, p))| (c, *p))
                        .collect();
                    inner_track(kind, edges, &tracks, &mut live)
                }
                None => match tree.leaf_alternative(id).and_then(|a| flip_step.get(&a)) {
                    Some(&s) => {
                        leaves_at[s].push(me);
                        Track::Once {
                            step: s,
                            before: Dual::outside(),
                            after: Dual::inside(),
                        }
                    }
                    None => Track::Fixed(Dual::outside()),
                },
            };
            tracks.push(track);
            done.push(me);
        }

        let refresh = leaves_at
            .into_iter()
            .map(|leaves| {
                let mut nodes = Vec::new();
                for leaf in leaves {
                    let mut v = parent[leaf];
                    while v != usize::MAX {
                        if matches!(tracks[v], Track::Live(_)) {
                            nodes.push(v);
                        }
                        v = parent[v];
                    }
                }
                nodes.sort_unstable();
                nodes.dedup();
                nodes
            })
            .collect();
        // Each leaf adds at most one degree in `y`, so `w + j` stays below
        // `max_world + tracks.len() + 1`.
        let inv = (0..=max_world + tracks.len() + 1)
            .map(|d| if d == 0 { 0.0 } else { 1.0 / d as f64 })
            .collect();
        let mut sweep = Sweep {
            tracks,
            live,
            refresh,
            inv,
            flipped: 0,
        };
        for v in 0..sweep.tracks.len() {
            sweep.recompute(v);
        }
        sweep
    }

    /// Flips the candidates of `step`; steps run in order from 0.
    fn flip(&mut self, step: usize) {
        self.flipped = step + 1;
        for i in 0..self.refresh[step].len() {
            let v = self.refresh[step][i];
            self.recompute(v);
        }
    }

    /// The value of node `v` after `self.flipped` steps.
    fn value(&self, v: usize) -> &Dual {
        match &self.tracks[v] {
            Track::Fixed(d) => d,
            Track::Once {
                step,
                before,
                after,
            } => {
                if *step < self.flipped {
                    after
                } else {
                    before
                }
            }
            Track::Live(l) => &self.live[*l].value,
        }
    }

    /// Recomputes a live node from its children; a no-op on other nodes.
    fn recompute(&mut self, v: usize) {
        let Track::Live(l) = self.tracks[v] else {
            return;
        };
        if let Rule::And {
            once,
            flipped,
            prefix,
            ..
        } = &mut self.live[l].rule
        {
            while let Some(Track::Once { step, after, .. }) =
                once.get(*flipped).map(|&c| &self.tracks[c])
            {
                if *step >= self.flipped {
                    break;
                }
                *prefix = prefix.mul(after);
                *flipped += 1;
            }
        }
        let value = match &self.live[l].rule {
            Rule::Xor(edges) => xor_combine(edges.iter().map(|&(c, p)| (p, self.value(c)))),
            Rule::And {
                flipped,
                prefix,
                suffix,
                live,
                ..
            } => live
                .iter()
                .fold(prefix.clone(), |acc, &c| acc.mul(self.value(c)))
                .mul_poly(&suffix[*flipped]),
        };
        self.live[l].value = value;
    }

    /// The expected Jaccard distance of the current world, which holds `w`
    /// alternatives: `Σ_j A_j·[w + j > 0] − Σ_j B_j/(w + j)` for the root's
    /// value `(A, B)`.
    fn score(&self, w: usize) -> f64 {
        let root = self.value(self.tracks.len() - 1);
        let mut mass = root.a.iter().sum::<f64>();
        if w == 0 {
            // Only the empty world is at distance 0 from the empty candidate.
            mass -= root.a.first().copied().unwrap_or(0.0);
        }
        let overlap: f64 = root.b.iter().zip(&self.inv[w..]).map(|(b, i)| b * i).sum();
        mass - overlap
    }
}

/// The track of an inner node from its children's tracks.
fn inner_track<'a>(
    kind: NodeKind,
    edges: Vec<(usize, f64)>,
    tracks: &'a [Track],
    live: &mut Vec<Live>,
) -> Track {
    let mut steps = edges.iter().filter_map(|&(c, _)| match &tracks[c] {
        Track::Once { step, .. } => Some(*step),
        _ => None,
    });
    let first = steps.next();
    let one_step = steps.all(|s| Some(s) == first);
    let phases: Option<Vec<(&'a Dual, &'a Dual)>> =
        edges.iter().map(|&(c, _)| tracks[c].phases()).collect();
    match phases {
        Some(phases) if one_step => {
            let combine = |after: bool| {
                let pick = |&(before, flipped): &(&'a Dual, &'a Dual)| {
                    if after {
                        flipped
                    } else {
                        before
                    }
                };
                match kind {
                    NodeKind::Xor => {
                        xor_combine(edges.iter().zip(&phases).map(|(e, ph)| (e.1, pick(ph))))
                    }
                    NodeKind::And => and_combine(phases.iter().map(pick)),
                }
            };
            let before = combine(false);
            match first {
                None => Track::Fixed(before),
                Some(step) => Track::Once {
                    step,
                    before,
                    after: combine(true),
                },
            }
        }
        _ => {
            let rule = match kind {
                NodeKind::Xor => Rule::Xor(edges),
                NodeKind::And => and_rule(&edges, tracks),
            };
            live.push(Live {
                value: Dual::constant(0.0),
                rule,
            });
            Track::Live(live.len() - 1)
        }
    }
}

/// The ∧ rule: `once` children in flip order, the suffix products of their
/// unflipped values, and the children that flip at several steps.
fn and_rule(edges: &[(usize, f64)], tracks: &[Track]) -> Rule {
    let mut fixed: Poly = vec![1.0];
    let mut once: Vec<(usize, usize, &Dual)> = Vec::new();
    let mut live = Vec::new();
    for &(c, _) in edges {
        match &tracks[c] {
            Track::Fixed(d) => fixed = mul(&fixed, &d.a),
            Track::Once { step, before, .. } => once.push((*step, c, before)),
            Track::Live(_) => live.push(c),
        }
    }
    once.sort_unstable_by_key(|&(step, c, _)| (step, c));
    let mut suffix = Vec::with_capacity(once.len() + 1);
    let mut acc = fixed;
    for &(_, _, before) in once.iter().rev() {
        let next = mul(&before.a, &acc);
        suffix.push(std::mem::replace(&mut acc, next));
    }
    suffix.push(acc);
    suffix.reverse();
    Rule::And {
        once: once.into_iter().map(|(_, c, _)| c).collect(),
        flipped: 0,
        prefix: Dual::constant(1.0),
        suffix,
        live,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use cpdb_model::{BidBlock, WorldModel};

    fn jaccard(a: &PossibleWorld, b: &PossibleWorld) -> f64 {
        a.jaccard_distance(b)
    }

    #[test]
    fn lemma1_matches_enumeration() {
        let db = TupleIndependentDb::from_triples(&[
            (1, 1.0, 0.8),
            (2, 2.0, 0.5),
            (3, 3.0, 0.3),
            (4, 4.0, 0.6),
        ])
        .unwrap();
        let tree = cpdb_andxor::convert::from_tuple_independent(&db).unwrap();
        let ws = db.enumerate_worlds();
        let candidates = [
            PossibleWorld::empty(),
            PossibleWorld::new(vec![Alternative::new(1, 1.0)]).unwrap(),
            PossibleWorld::new(vec![Alternative::new(1, 1.0), Alternative::new(4, 4.0)]).unwrap(),
            PossibleWorld::new(vec![
                Alternative::new(1, 1.0),
                Alternative::new(2, 2.0),
                Alternative::new(3, 3.0),
                Alternative::new(4, 4.0),
            ])
            .unwrap(),
        ];
        for cand in &candidates {
            let exact = expected_jaccard_distance(&tree, cand);
            let brute = oracle::expected_world_distance(cand, &ws, jaccard);
            assert!(
                (exact - brute).abs() < 1e-9,
                "candidate {cand}: genfunc {exact} vs enumeration {brute}"
            );
        }
    }

    #[test]
    fn lemma1_matches_enumeration_on_correlated_tree() {
        let tree = cpdb_andxor::figure1::figure1_correlated_tree();
        let ws = tree.enumerate_worlds();
        for (cand, _) in ws.worlds() {
            let exact = expected_jaccard_distance(&tree, cand);
            let brute = oracle::expected_world_distance(cand, &ws, jaccard);
            assert!((exact - brute).abs() < 1e-9);
        }
    }

    #[test]
    fn every_prefix_score_matches_lemma1_on_correlated_tree() {
        // The correlated tree has ∧ children that flip at several steps, so
        // this exercises the live ∨ and ∧ rules, not only the root sweep.
        let tree = cpdb_andxor::figure1::figure1_correlated_tree();
        let candidates = prefix_candidates(&tree);
        let distances = prefix_distances(&tree, &candidates).unwrap();
        assert_eq!(distances.len(), candidates.len() + 1);
        for (t, d) in distances.iter().enumerate() {
            let world =
                PossibleWorld::new(candidates[..t].iter().map(|(a, _)| *a).collect()).unwrap();
            let one_shot = expected_jaccard_distance(&tree, &world);
            assert!(
                (d - one_shot).abs() < 1e-12,
                "prefix {t}: {d} vs {one_shot}"
            );
        }
    }

    #[test]
    fn lemma2_mean_world_matches_brute_force() {
        let db = TupleIndependentDb::from_triples(&[
            (1, 1.0, 0.9),
            (2, 2.0, 0.8),
            (3, 3.0, 0.45),
            (4, 4.0, 0.2),
            (5, 5.0, 0.65),
        ])
        .unwrap();
        let consensus = mean_world_tuple_independent(&db).unwrap();
        let ws = db.enumerate_worlds();
        let (_, brute_cost) = oracle::brute_force_mean_world(&ws, jaccard);
        assert!(
            (consensus.expected_distance - brute_cost).abs() < 1e-9,
            "prefix scan {} vs brute force {brute_cost}",
            consensus.expected_distance
        );
        // The chosen world is a prefix of the probability order.
        assert!(consensus.world.contains(&Alternative::new(1, 1.0)));
        assert!(consensus.world.contains(&Alternative::new(2, 2.0)));
    }

    #[test]
    fn lemma2_prefix_structure_holds_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..8 {
            let n = rng.gen_range(3..8);
            let triples: Vec<(u64, f64, f64)> = (0..n)
                .map(|i| (i as u64, i as f64, rng.gen_range(0.05..0.95)))
                .collect();
            let db = TupleIndependentDb::from_triples(&triples).unwrap();
            let consensus = mean_world_tuple_independent(&db).unwrap();
            let ws = db.enumerate_worlds();
            let (_, brute_cost) = oracle::brute_force_mean_world(&ws, jaccard);
            assert!(
                consensus.expected_distance <= brute_cost + 1e-9,
                "prefix scan {} vs brute force {brute_cost}",
                consensus.expected_distance
            );
        }
    }

    #[test]
    fn bid_median_is_a_possible_world_and_beats_random_candidates() {
        let db = BidDb::new(vec![
            BidBlock::from_pairs(1, &[(10.0, 0.7), (11.0, 0.2)]).unwrap(),
            BidBlock::from_pairs(2, &[(20.0, 0.5), (21.0, 0.5)]).unwrap(),
            BidBlock::from_pairs(3, &[(30.0, 0.3)]).unwrap(),
        ])
        .unwrap();
        let consensus = median_world_bid(&db).unwrap();
        let ws = db.enumerate_worlds();
        // The answer must be a possible world (it only uses one alternative
        // per block).
        assert!(ws
            .worlds()
            .iter()
            .any(|(w, p)| *p > 0.0 && *w == consensus.world));
        // And it should not be beaten by any single-block-best candidate
        // prefix that the algorithm considered.
        let empty_cost = oracle::expected_world_distance(&PossibleWorld::empty(), &ws, jaccard);
        assert!(consensus.expected_distance <= empty_cost + 1e-9);
    }

    #[test]
    fn prefix_candidates_match_model_sorted_orders() {
        // Tuple-independent: same order as the db's probability sort.
        let db = TupleIndependentDb::from_triples(&[
            (1, 1.0, 0.9),
            (2, 2.0, 0.2),
            (3, 3.0, 0.65),
            (4, 4.0, 0.65),
        ])
        .unwrap();
        let tree = cpdb_andxor::convert::from_tuple_independent(&db).unwrap();
        assert_eq!(prefix_candidates(&tree), db.sorted_by_probability_desc());
        // And the scan over them reproduces the Lemma 2 consensus exactly.
        assert_eq!(
            best_prefix_world(&tree, &prefix_candidates(&tree)).unwrap(),
            mean_world_tuple_independent(&db).unwrap()
        );

        // BID: same answer as the block-best median scan.
        let bid = BidDb::new(vec![
            BidBlock::from_pairs(1, &[(10.0, 0.7), (11.0, 0.2)]).unwrap(),
            BidBlock::from_pairs(2, &[(20.0, 0.4), (21.0, 0.5)]).unwrap(),
            BidBlock::from_pairs(3, &[(30.0, 0.3)]).unwrap(),
        ])
        .unwrap();
        let bid_tree = cpdb_andxor::convert::from_bid(&bid).unwrap();
        assert_eq!(
            best_prefix_world(&bid_tree, &prefix_candidates(&bid_tree)).unwrap(),
            median_world_bid(&bid).unwrap()
        );
    }

    #[test]
    fn duplicate_keys_are_a_typed_error() {
        let tree = cpdb_andxor::figure1::figure1_correlated_tree();
        let twice = [
            (Alternative::new(1, 1.0), 0.5),
            (Alternative::new(1, 2.0), 0.4),
        ];
        assert!(matches!(
            best_prefix_world(&tree, &twice),
            Err(ModelError::DuplicateKey { key: 1, .. })
        ));
    }

    #[test]
    fn candidates_outside_the_tree_only_grow_the_world() {
        // An alternative no leaf carries still counts towards |W|, exactly
        // as in the one-shot Lemma 1 score.
        let tree = cpdb_andxor::figure1::figure1_correlated_tree();
        let mut candidates = prefix_candidates(&tree);
        candidates.insert(1, (Alternative::new(999, 0.0), 0.0));
        let distances = prefix_distances(&tree, &candidates).unwrap();
        for (t, d) in distances.iter().enumerate() {
            let world =
                PossibleWorld::new(candidates[..t].iter().map(|(a, _)| *a).collect()).unwrap();
            assert!((d - expected_jaccard_distance(&tree, &world)).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_database_has_zero_distance() {
        let db = TupleIndependentDb::from_triples(&[]).unwrap();
        let consensus = mean_world_tuple_independent(&db).unwrap();
        assert!(consensus.world.is_empty());
        assert_eq!(consensus.expected_distance, 0.0);
    }
}
