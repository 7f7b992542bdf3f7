//! Live mutation of probabilistic and/xor trees: [`TreeDelta`] application
//! and dependency extraction.
//!
//! Everything in this crate so far treats an [`AndXorTree`] as frozen. The
//! paper's motivating applications (sensor feeds, dedup pipelines,
//! information extraction) are *live*: probabilities drift as new evidence
//! arrives, readings are corrected, tuples appear and disappear. This module
//! is the bottom layer of the `cpdb_live` subsystem:
//!
//! * [`TreeDelta`] — the supported mutations: update an ∨-edge probability,
//!   update a leaf's score/value, insert or remove an alternative under an
//!   ∨ node, and add a whole new tuple-key ∨ block under an ∧ node.
//! * [`TreeDelta::apply`] / [`AndXorTree::apply_delta`] — validates the
//!   delta against the Definition-1 constraints (via [`ModelError`], never a
//!   panic) and produces a **new** tree; the input tree is never modified,
//!   so readers holding the old tree keep a consistent snapshot.
//! * [`DeltaImpact`] — the dependency extract consumed by `cpdb_engine`'s
//!   artifact maintenance: which tuple keys' joint presence/value
//!   distributions the mutation can touch, and which artifact-relevant
//!   aspects (probabilities, values, membership, the global rank order)
//!   changed. The tree structure localises dependencies: an ∨-edge
//!   probability change only reaches the keys with a leaf below that edge —
//!   every other key's root-to-leaf ∨-edge paths (and hence its marginals
//!   and its pairwise co-presence statistics) are unchanged.
//!
//! Structural deltas (insert/remove) renumber node ids into a canonical
//! children-before-parents order — the topological invariant the batch
//! sweep relies on — so **node ids are only stable across non-structural
//! deltas**; look targets up again (e.g. via [`AndXorTree::leaves_of_key`])
//! after an insert or remove.

use crate::tree::{AndXorTree, Node, NodeId, NodeKind};
use cpdb_model::error::{validate_probability, ModelError};
use cpdb_model::{Alternative, TupleKey};
use std::collections::BTreeSet;

/// Probability-mass tolerance at ∨ nodes, matching tree validation.
const MASS_TOL: f64 = 1e-9;

/// One supported mutation of an [`AndXorTree`]. Applying a delta never
/// mutates the input tree: [`TreeDelta::apply`] returns a fresh, validated
/// tree plus the [`DeltaImpact`] dependency extract.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeDelta {
    /// Set the probability of the `xor → child` edge to `probability`
    /// (e.g. new evidence re-weights one alternative of a tuple).
    XorEdgeProbability {
        /// The ∨ node owning the edge.
        xor: NodeId,
        /// The child whose edge probability changes.
        child: NodeId,
        /// The new edge probability (validated against the block's mass).
        probability: f64,
    },
    /// Replace the score/value stored at a leaf (e.g. a corrected reading).
    LeafValue {
        /// The leaf to update.
        leaf: NodeId,
        /// The new attribute value.
        value: f64,
    },
    /// Insert a new leaf alternative under an existing ∨ node.
    InsertAlternative {
        /// The ∨ node gaining an alternative (appended after its children).
        xor: NodeId,
        /// Tuple key of the new alternative.
        key: u64,
        /// Attribute value of the new alternative.
        value: f64,
        /// Edge probability of the new alternative.
        probability: f64,
    },
    /// Remove a leaf alternative (and its edge) from an ∨ node. Removing the
    /// last child of an ∨ node is rejected ([`ModelError::Empty`]).
    RemoveAlternative {
        /// The ∨ node losing an alternative.
        xor: NodeId,
        /// The leaf child to remove.
        leaf: NodeId,
    },
    /// Add a whole new tuple: an ∨ block of leaf alternatives, attached
    /// under an existing ∧ node (appended after its children).
    InsertTupleBlock {
        /// The ∧ node gaining the block (typically the root).
        under: NodeId,
        /// Tuple key of the new block's alternatives.
        key: u64,
        /// `(value, probability)` per alternative; total mass ≤ 1.
        alternatives: Vec<(f64, f64)>,
    },
}

/// Dependency extract of one applied [`TreeDelta`] — what `cpdb_engine`'s
/// delta-aware artifact maintenance plans against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaImpact {
    /// The tuple keys whose joint presence/value distribution the delta can
    /// touch. Pairwise artifacts (co-clustering weights) and per-alternative
    /// tables (marginals) are unchanged outside this
    /// set; global-rank artifacts (rank PMFs) are governed by
    /// [`Self::rank_order_preserved`] instead.
    pub affected_keys: BTreeSet<TupleKey>,
    /// Whether any edge probability (including ∨ leftover mass) changed.
    pub probabilities_changed: bool,
    /// Whether any leaf value changed.
    pub values_changed: bool,
    /// Whether a leaf or block was inserted or removed.
    pub membership_changed: bool,
    /// Whether the rank-PMF inputs are untouched: the chronological sweep
    /// (decreasing value, key tie-break) visits the same targets with the
    /// same leaf sets and the same probabilities, so every rank PMF — and
    /// every [`cpdb_genfunc`]-derived rank context — on the new tree is
    /// bit-identical to the old one. Only value updates that preserve the
    /// global score order qualify.
    pub rank_order_preserved: bool,
}

impl DeltaImpact {
    /// The impact of an empty run: nothing affected, nothing changed.
    fn none() -> Self {
        DeltaImpact {
            affected_keys: BTreeSet::new(),
            probabilities_changed: false,
            values_changed: false,
            membership_changed: false,
            rank_order_preserved: true,
        }
    }

    /// Folds one more delta's impact into a run's: keys unioned, change
    /// flags or-ed, `rank_order_preserved` and-ed.
    fn absorb(&mut self, other: DeltaImpact) {
        self.affected_keys.extend(other.affected_keys);
        self.probabilities_changed |= other.probabilities_changed;
        self.values_changed |= other.values_changed;
        self.membership_changed |= other.membership_changed;
        self.rank_order_preserved &= other.rank_order_preserved;
    }
}

impl AndXorTree {
    /// Applies a [`TreeDelta`], returning the mutated tree and its
    /// [`DeltaImpact`]. See [`TreeDelta::apply`].
    pub fn apply_delta(&self, delta: &TreeDelta) -> Result<(AndXorTree, DeltaImpact), ModelError> {
        delta.apply(self)
    }

    /// Applies `deltas` in order, returning the final tree and one
    /// [`DeltaImpact`] covering them all: the union of the affected keys,
    /// each change flag or-ed, and `rank_order_preserved` only when every
    /// delta preserved the rank order. Artifacts maintained once against it
    /// match those maintained after every delta, because each maintained
    /// artifact equals a rebuild on its tree. Fails on the first delta that
    /// does not apply, with the error that delta gives on its own.
    ///
    /// The run mutates one working copy of the node vector: probability and
    /// value deltas change it in place, structural deltas renumber from it,
    /// and once the run's rank order is lost no later value delta sorts the
    /// leaves to test it again. The tree and the impact are those of
    /// applying the deltas one at a time with [`TreeDelta::apply`].
    pub fn apply_deltas<'a>(
        &self,
        deltas: impl IntoIterator<Item = &'a TreeDelta>,
    ) -> Result<(AndXorTree, DeltaImpact), ModelError> {
        let mut work = Working {
            nodes: self.nodes.clone(),
            root: self.root,
        };
        let mut total = DeltaImpact::none();
        for delta in deltas {
            let impact = work.apply(delta, total.rank_order_preserved)?;
            total.absorb(impact);
        }
        Ok((work.into_tree(), total))
    }

    /// The parent of a node (`None` for the root). Linear scan — intended
    /// for delta authoring, not hot paths.
    pub fn parent_of(&self, id: NodeId) -> Option<NodeId> {
        self.nodes.iter().enumerate().find_map(|(pid, node)| {
            let Node::Inner { children, .. } = node else {
                return None;
            };
            children
                .iter()
                .any(|(c, _)| *c == id)
                .then_some(NodeId(pid))
        })
    }

    /// All leaves holding alternatives of `key`, in node-id order. Handy for
    /// addressing [`TreeDelta`] targets by content instead of by id
    /// (structural deltas renumber ids).
    pub fn leaves_of_key(&self, key: u64) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(id, node)| match node {
                Node::Leaf(a) if a.key == TupleKey(key) => Some(NodeId(id)),
                _ => None,
            })
            .collect()
    }

    /// All ∨ node ids, in node-id order. Like [`AndXorTree::leaves_of_key`],
    /// a content-addressed way to pick [`TreeDelta`] targets.
    pub fn xor_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(id, node)| match node {
                Node::Inner {
                    kind: NodeKind::Xor,
                    ..
                } => Some(NodeId(id)),
                _ => None,
            })
            .collect()
    }

    /// All leaf node ids, in node-id order.
    pub fn leaf_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(id, node)| match node {
                Node::Leaf(_) => Some(NodeId(id)),
                _ => None,
            })
            .collect()
    }

    /// The set of tuple keys with a leaf in the subtree rooted at `id`.
    pub fn subtree_keys(&self, id: NodeId) -> BTreeSet<TupleKey> {
        let mut out = BTreeSet::new();
        collect_subtree_keys(&self.nodes, id, &mut out);
        out
    }
}

fn collect_subtree_keys(nodes: &[Node], id: NodeId, out: &mut BTreeSet<TupleKey>) {
    match &nodes[id.0] {
        Node::Leaf(a) => {
            out.insert(a.key);
        }
        Node::Inner { children, .. } => {
            for (c, _) in children {
                collect_subtree_keys(nodes, *c, out);
            }
        }
    }
}

/// Whether two node vectors share the rank-sweep signature, given their
/// [`sweep_order`]s: the distinct `(key, value)` alternatives in the
/// chronological activation order (decreasing value, key tie-break —
/// exactly the batch sweep's target order) with their sorted leaf ids,
/// values erased. Two trees with equal signatures and equal edge
/// probabilities produce bit-identical rank PMFs.
fn same_rank_signature(x: &[(f64, TupleKey, usize)], y: &[(f64, TupleKey, usize)]) -> bool {
    // A target starts wherever the key or the value's bits change.
    let starts = |v: &[(f64, TupleKey, usize)], i: usize| {
        i == 0 || v[i].1 != v[i - 1].1 || v[i].0.to_bits() != v[i - 1].0.to_bits()
    };
    x.len() == y.len()
        && (0..x.len())
            .all(|i| x[i].1 == y[i].1 && x[i].2 == y[i].2 && starts(x, i) == starts(y, i))
}

/// Every leaf as `(value, key, id)`, sorted by decreasing value, then key,
/// then id: each sweep target's leaves are then adjacent, in ascending id
/// order.
fn sweep_order(nodes: &[Node]) -> Vec<(f64, TupleKey, usize)> {
    let mut leaves: Vec<(f64, TupleKey, usize)> = nodes
        .iter()
        .enumerate()
        .filter_map(|(id, node)| match node {
            Node::Leaf(a) => Some((a.value.0, a.key, id)),
            _ => None,
        })
        .collect();
    leaves.sort_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));
    leaves
}

impl TreeDelta {
    /// Validates the delta against the tree and the Definition-1 constraints
    /// and applies it, returning the new tree and the [`DeltaImpact`]
    /// dependency extract. The input tree is untouched.
    pub fn apply(&self, tree: &AndXorTree) -> Result<(AndXorTree, DeltaImpact), ModelError> {
        let mut work = Working {
            nodes: tree.nodes.clone(),
            root: tree.root,
        };
        let impact = work.apply(self, true)?;
        Ok((work.into_tree(), impact))
    }
}

/// The node vector and root a delta run mutates. A delta that fails may
/// leave it half-changed; callers then drop it.
struct Working {
    nodes: Vec<Node>,
    root: NodeId,
}

impl Working {
    fn into_tree(self) -> AndXorTree {
        AndXorTree::from_raw_parts(self.nodes, self.root)
    }

    /// Validates and applies one delta. `track_rank` asks whether a value
    /// delta preserves the rank order; without it, such a delta reports
    /// `rank_order_preserved = false` without sorting the leaves, which is
    /// all a run whose order is already lost needs.
    fn apply(&mut self, delta: &TreeDelta, track_rank: bool) -> Result<DeltaImpact, ModelError> {
        match delta {
            TreeDelta::XorEdgeProbability {
                xor,
                child,
                probability,
            } => self.xor_probability(*xor, *child, *probability),
            TreeDelta::LeafValue { leaf, value } => self.leaf_value(*leaf, *value, track_rank),
            TreeDelta::InsertAlternative {
                xor,
                key,
                value,
                probability,
            } => self.insert_alternative(*xor, *key, *value, *probability),
            TreeDelta::RemoveAlternative { xor, leaf } => self.remove_alternative(*xor, *leaf),
            TreeDelta::InsertTupleBlock {
                under,
                key,
                alternatives,
            } => self.insert_block(*under, *key, alternatives),
        }
    }

    /// The children of inner node `id`, which must be of `kind`.
    fn children_mut(
        &mut self,
        id: NodeId,
        kind: NodeKind,
        what: &str,
    ) -> Result<&mut Vec<(NodeId, f64)>, ModelError> {
        match self.nodes.get_mut(id.0) {
            Some(Node::Inner {
                kind: k, children, ..
            }) if *k == kind => Ok(children),
            Some(_) => Err(ModelError::Invalid {
                context: format!("node {} is not {what}", id.0),
            }),
            None => Err(ModelError::NotFound {
                context: format!("{what} {}", id.0),
            }),
        }
    }

    fn xor_probability(
        &mut self,
        xor: NodeId,
        child: NodeId,
        probability: f64,
    ) -> Result<DeltaImpact, ModelError> {
        let children = self.children_mut(xor, NodeKind::Xor, "an ∨ node")?;
        let idx = children
            .iter()
            .position(|(c, _)| *c == child)
            .ok_or_else(|| ModelError::NotFound {
                context: format!("edge {} → {}", xor.0, child.0),
            })?;
        validate_probability(probability, &format!("edge of xor node {}", xor.0))?;
        let total: f64 = children
            .iter()
            .enumerate()
            .map(|(i, (_, p))| if i == idx { probability } else { *p })
            .sum();
        if total > 1.0 + MASS_TOL {
            return Err(ModelError::ProbabilityMassExceeded {
                total,
                context: format!("xor node {}", xor.0),
            });
        }
        children[idx].1 = probability;
        let mut affected_keys = BTreeSet::new();
        collect_subtree_keys(&self.nodes, child, &mut affected_keys);
        Ok(DeltaImpact {
            affected_keys,
            probabilities_changed: true,
            values_changed: false,
            membership_changed: false,
            rank_order_preserved: false,
        })
    }

    fn leaf_value(
        &mut self,
        leaf: NodeId,
        value: f64,
        track_rank: bool,
    ) -> Result<DeltaImpact, ModelError> {
        let old = match self.nodes.get(leaf.0) {
            Some(Node::Leaf(a)) => *a,
            Some(_) => {
                return Err(ModelError::Invalid {
                    context: format!("node {} is not a leaf", leaf.0),
                })
            }
            None => {
                return Err(ModelError::NotFound {
                    context: format!("leaf {}", leaf.0),
                })
            }
        };
        validate_value(value, &format!("leaf {}", leaf.0))?;
        let before = track_rank.then(|| sweep_order(&self.nodes));
        self.nodes[leaf.0] = Node::Leaf(Alternative::new(old.key.0, value));
        let rank_order_preserved =
            before.is_some_and(|before| same_rank_signature(&before, &sweep_order(&self.nodes)));
        let mut affected_keys = BTreeSet::new();
        affected_keys.insert(old.key);
        Ok(DeltaImpact {
            affected_keys,
            probabilities_changed: false,
            values_changed: true,
            membership_changed: false,
            rank_order_preserved,
        })
    }

    fn insert_alternative(
        &mut self,
        xor: NodeId,
        key: u64,
        value: f64,
        probability: f64,
    ) -> Result<DeltaImpact, ModelError> {
        let leaf = NodeId(self.nodes.len());
        let children = self.children_mut(xor, NodeKind::Xor, "an ∨ node")?;
        validate_probability(probability, &format!("edge of xor node {}", xor.0))?;
        validate_value(value, &format!("new alternative of key {key}"))?;
        let total: f64 = children.iter().map(|(_, p)| *p).sum::<f64>() + probability;
        if total > 1.0 + MASS_TOL {
            return Err(ModelError::ProbabilityMassExceeded {
                total,
                context: format!("xor node {}", xor.0),
            });
        }
        children.push((leaf, probability));
        self.nodes.push(Node::Leaf(Alternative::new(key, value)));
        self.finish_structural()?;
        Ok(DeltaImpact {
            affected_keys: BTreeSet::from([TupleKey(key)]),
            probabilities_changed: true,
            values_changed: false,
            membership_changed: true,
            rank_order_preserved: false,
        })
    }

    fn remove_alternative(&mut self, xor: NodeId, leaf: NodeId) -> Result<DeltaImpact, ModelError> {
        let removed = match self.nodes.get(leaf.0) {
            Some(Node::Leaf(a)) => Some(*a),
            _ => None,
        };
        let children = self.children_mut(xor, NodeKind::Xor, "an ∨ node")?;
        let idx = children
            .iter()
            .position(|(c, _)| *c == leaf)
            .ok_or_else(|| ModelError::NotFound {
                context: format!("edge {} → {}", xor.0, leaf.0),
            })?;
        let Some(removed) = removed else {
            return Err(ModelError::Invalid {
                context: format!(
                    "node {} is not a leaf; only leaf alternatives can be removed",
                    leaf.0
                ),
            });
        };
        if children.len() == 1 {
            return Err(ModelError::Empty {
                context: format!(
                    "removing the last alternative would leave xor node {} childless",
                    xor.0
                ),
            });
        }
        children.remove(idx);
        // Renumbering is reachability-driven, so the detached leaf drops out.
        self.finish_structural()?;
        Ok(DeltaImpact {
            affected_keys: BTreeSet::from([removed.key]),
            probabilities_changed: true,
            values_changed: false,
            membership_changed: true,
            rank_order_preserved: false,
        })
    }

    fn insert_block(
        &mut self,
        under: NodeId,
        key: u64,
        alternatives: &[(f64, f64)],
    ) -> Result<DeltaImpact, ModelError> {
        self.children_mut(under, NodeKind::And, "an ∧ node")?;
        if alternatives.is_empty() {
            return Err(ModelError::Empty {
                context: format!("new tuple block for key {key} has no alternatives"),
            });
        }
        let mut total = 0.0;
        for &(value, p) in alternatives {
            validate_probability(p, &format!("alternative of new tuple block {key}"))?;
            validate_value(value, &format!("alternative of new tuple block {key}"))?;
            total += p;
        }
        if total > 1.0 + MASS_TOL {
            return Err(ModelError::ProbabilityMassExceeded {
                total,
                context: format!("new tuple block for key {key}"),
            });
        }
        let nodes = &mut self.nodes;
        let edges: Vec<(NodeId, f64)> = alternatives
            .iter()
            .map(|&(value, p)| {
                let leaf = NodeId(nodes.len());
                nodes.push(Node::Leaf(Alternative::new(key, value)));
                (leaf, p)
            })
            .collect();
        let xor = NodeId(nodes.len());
        nodes.push(Node::Inner {
            kind: NodeKind::Xor,
            children: edges,
        });
        self.children_mut(under, NodeKind::And, "an ∧ node")?
            .push((xor, 1.0));
        self.finish_structural()?;
        Ok(DeltaImpact {
            affected_keys: BTreeSet::from([TupleKey(key)]),
            probabilities_changed: true,
            values_changed: false,
            membership_changed: true,
            rank_order_preserved: false,
        })
    }

    /// Renumbers a structurally mutated node vector into the canonical
    /// children-before-parents (post-order DFS) id order the batch sweep
    /// requires, drops unreachable nodes, and runs full tree validation.
    /// Nodes move into the new order; none is cloned.
    fn finish_structural(&mut self) -> Result<(), ModelError> {
        let mut map: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut out: Vec<Node> = Vec::with_capacity(self.nodes.len());
        renumber_visit(&mut self.nodes, self.root.0, &mut map, &mut out)?;
        let root = NodeId(map[self.root.0].expect("root is visited first"));
        let tree = AndXorTree::from_raw_parts(out, root);
        tree.validate()?;
        self.nodes = tree.nodes;
        self.root = tree.root;
        Ok(())
    }
}

fn validate_value(value: f64, context: &str) -> Result<(), ModelError> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(ModelError::Invalid {
            context: format!("{context}: value {value} is not finite"),
        })
    }
}

/// Moves node `id` and its subtree into `out` in post-order, rewriting
/// child ids as it goes; each visited inner node's children move with it
/// and leave an empty list behind.
fn renumber_visit(
    nodes: &mut [Node],
    id: usize,
    map: &mut Vec<Option<usize>>,
    out: &mut Vec<Node>,
) -> Result<(), ModelError> {
    if map[id].is_some() {
        // A node reached twice means the structure is not a tree; full
        // validation would reject it too, but catch it here to keep the
        // renumbering well-defined.
        return Err(ModelError::Invalid {
            context: format!("node {id} has two parents; the structure must be a tree"),
        });
    }
    let new_node = match &mut nodes[id] {
        Node::Leaf(a) => Node::Leaf(*a),
        Node::Inner { kind, children } => {
            let kind = *kind;
            let mut children = std::mem::take(children);
            for (c, _) in &mut children {
                renumber_visit(nodes, c.0, map, out)?;
                *c = NodeId(map[c.0].expect("child just visited"));
            }
            Node::Inner { kind, children }
        }
    };
    map[id] = Some(out.len());
    out.push(new_node);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::upper_triangle_index;
    use crate::tree::AndXorTreeBuilder;
    use cpdb_genfunc::Poly1;
    use cpdb_model::WorldModel;

    /// BID-shaped tree: root ∧ over one ∨ block per key.
    fn bid_tree() -> AndXorTree {
        let mut b = AndXorTreeBuilder::new();
        let mut xors = Vec::new();
        for (key, alts) in [
            (1u64, vec![(95.0, 0.3), (40.0, 0.5)]),
            (2, vec![(80.0, 0.6), (55.0, 0.2)]),
            (3, vec![(70.0, 0.9)]),
            (4, vec![(60.0, 0.45), (50.0, 0.25)]),
        ] {
            let edges: Vec<_> = alts
                .iter()
                .map(|&(v, p)| (b.leaf_parts(key, v), p))
                .collect();
            xors.push(b.xor_node(edges));
        }
        let root = b.and_node(xors);
        b.build(root).unwrap()
    }

    fn first_block(tree: &AndXorTree, key: u64) -> (NodeId, NodeId) {
        let leaf = tree.leaves_of_key(key)[0];
        let xor = tree.parent_of(leaf).unwrap();
        (xor, leaf)
    }

    #[test]
    fn xor_probability_update_localises_dependencies() {
        let tree = bid_tree();
        let (xor, leaf) = first_block(&tree, 2);
        let delta = TreeDelta::XorEdgeProbability {
            xor,
            child: leaf,
            probability: 0.7,
        };
        let (new_tree, impact) = tree.apply_delta(&delta).unwrap();
        assert_eq!(
            impact.affected_keys.iter().collect::<Vec<_>>(),
            vec![&TupleKey(2)]
        );
        assert!(impact.probabilities_changed && !impact.membership_changed);
        assert!(!impact.rank_order_preserved);
        // Node ids are stable for non-structural deltas.
        assert_eq!(new_tree.node_count(), tree.node_count());
        assert!((new_tree.alternative_probability(&Alternative::new(2, 80.0)) - 0.7).abs() < 1e-12);
        // Untouched keys keep bit-identical marginals.
        let probs = new_tree.alternative_probabilities();
        let old_probs = tree.alternative_probabilities();
        assert_eq!(probs.len(), old_probs.len());
        for ((alt, p), (new_alt, new_p)) in old_probs.iter().zip(&probs) {
            assert_eq!(alt, new_alt);
            if alt.key != TupleKey(2) {
                assert_eq!(p.to_bits(), new_p.to_bits(), "{alt:?}");
            }
        }
    }

    #[test]
    fn xor_probability_update_validates_mass_and_range() {
        let tree = bid_tree();
        let (xor, leaf) = first_block(&tree, 1);
        assert!(matches!(
            tree.apply_delta(&TreeDelta::XorEdgeProbability {
                xor,
                child: leaf,
                probability: 0.6, // 0.6 + sibling 0.5 > 1
            }),
            Err(ModelError::ProbabilityMassExceeded { .. })
        ));
        assert!(matches!(
            tree.apply_delta(&TreeDelta::XorEdgeProbability {
                xor,
                child: leaf,
                probability: 1.3,
            }),
            Err(ModelError::InvalidProbability { .. })
        ));
        assert!(tree
            .apply_delta(&TreeDelta::XorEdgeProbability {
                xor,
                child: xor, // not an edge of this node
                probability: 0.1,
            })
            .is_err());
    }

    #[test]
    fn leaf_value_update_tracks_rank_order() {
        let tree = bid_tree();
        let leaf = tree.leaves_of_key(3)[0]; // value 70.0, between 80 and 60
                                             // Order-preserving nudge: PMFs must be reusable.
        let (_, impact) = tree
            .apply_delta(&TreeDelta::LeafValue { leaf, value: 72.5 })
            .unwrap();
        assert!(impact.rank_order_preserved);
        assert!(impact.values_changed && !impact.probabilities_changed);
        // Order-changing move: 70 → 99 out-ranks everything.
        let (new_tree, impact) = tree
            .apply_delta(&TreeDelta::LeafValue { leaf, value: 99.0 })
            .unwrap();
        assert!(!impact.rank_order_preserved);
        assert_eq!(
            new_tree.leaf_alternative(leaf),
            Some(Alternative::new(3, 99.0))
        );
        assert!(tree
            .apply_delta(&TreeDelta::LeafValue {
                leaf,
                value: f64::NAN,
            })
            .is_err());
    }

    #[test]
    fn rank_order_preservation_is_bit_exact_for_pmfs() {
        let tree = bid_tree();
        let leaf = tree.leaves_of_key(3)[0];
        let (new_tree, impact) = tree
            .apply_delta(&TreeDelta::LeafValue { leaf, value: 72.5 })
            .unwrap();
        assert!(impact.rank_order_preserved);
        let old = tree.batch_rank_pmfs(3);
        let new = new_tree.batch_rank_pmfs(3);
        assert_eq!(old.len(), new.len());
        for (at, (a, b)) in old.iter().zip(&new).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "entry {at}");
        }
    }

    #[test]
    fn insert_and_remove_alternative_round_trip() {
        let tree = bid_tree();
        let (xor, _) = first_block(&tree, 3); // block mass 0.9, room for 0.05
        let (grown, impact) = tree
            .apply_delta(&TreeDelta::InsertAlternative {
                xor,
                key: 3,
                value: 65.0,
                probability: 0.05,
            })
            .unwrap();
        assert!(impact.membership_changed);
        assert_eq!(grown.leaf_count(), tree.leaf_count() + 1);
        assert!((grown.alternative_probability(&Alternative::new(3, 65.0)) - 0.05).abs() < 1e-12);
        // Remove it again (ids were renumbered — look the leaf up by content).
        let new_leaf = grown
            .leaves_of_key(3)
            .into_iter()
            .find(|&l| grown.leaf_alternative(l) == Some(Alternative::new(3, 65.0)))
            .unwrap();
        let new_xor = grown.parent_of(new_leaf).unwrap();
        let (back, impact) = grown
            .apply_delta(&TreeDelta::RemoveAlternative {
                xor: new_xor,
                leaf: new_leaf,
            })
            .unwrap();
        assert!(impact.membership_changed);
        assert_eq!(back.leaf_count(), tree.leaf_count());
        assert_eq!(back.alternatives(), tree.alternatives());
    }

    #[test]
    fn insert_validates_mass_and_remove_protects_last_child() {
        let tree = bid_tree();
        let (xor, leaf) = first_block(&tree, 1); // block mass 0.8
        assert!(matches!(
            tree.apply_delta(&TreeDelta::InsertAlternative {
                xor,
                key: 1,
                value: 10.0,
                probability: 0.3,
            }),
            Err(ModelError::ProbabilityMassExceeded { .. })
        ));
        // Key constraint: inserting key 2 under key 1's block is fine per se
        // (∨ LCA with key 2's own block? No — their LCA is the root ∧), so
        // full validation must reject it.
        assert!(matches!(
            tree.apply_delta(&TreeDelta::InsertAlternative {
                xor,
                key: 2,
                value: 10.0,
                probability: 0.1,
            }),
            Err(ModelError::DuplicateKey { .. })
        ));
        let _ = leaf;
        let (xor3, leaf3) = first_block(&tree, 3); // single-alternative block
        assert!(matches!(
            tree.apply_delta(&TreeDelta::RemoveAlternative {
                xor: xor3,
                leaf: leaf3,
            }),
            Err(ModelError::Empty { .. })
        ));
    }

    #[test]
    fn insert_tuple_block_appends_a_new_key() {
        let tree = bid_tree();
        let root = tree.root();
        let (grown, impact) = tree
            .apply_delta(&TreeDelta::InsertTupleBlock {
                under: root,
                key: 9,
                alternatives: vec![(77.0, 0.4), (52.0, 0.35)],
            })
            .unwrap();
        assert_eq!(impact.affected_keys.len(), 1);
        assert!(grown.keys().contains(&TupleKey(9)));
        assert_eq!(grown.leaf_count(), tree.leaf_count() + 2);
        // Duplicate keys and overfull blocks are rejected.
        assert!(matches!(
            tree.apply_delta(&TreeDelta::InsertTupleBlock {
                under: root,
                key: 2,
                alternatives: vec![(1.0, 0.1)],
            }),
            Err(ModelError::DuplicateKey { .. })
        ));
        assert!(tree
            .apply_delta(&TreeDelta::InsertTupleBlock {
                under: root,
                key: 9,
                alternatives: vec![],
            })
            .is_err());
        assert!(matches!(
            tree.apply_delta(&TreeDelta::InsertTupleBlock {
                under: root,
                key: 9,
                alternatives: vec![(1.0, 0.7), (2.0, 0.7)],
            }),
            Err(ModelError::ProbabilityMassExceeded { .. })
        ));
    }

    #[test]
    fn structural_deltas_keep_ids_topological() {
        // The batch sweep requires children-before-parents ids; inserting
        // under the root must renumber, and the mutated tree must still run
        // the sweep (debug asserts check the invariant).
        let tree = bid_tree();
        let (grown, _) = tree
            .apply_delta(&TreeDelta::InsertTupleBlock {
                under: tree.root(),
                key: 9,
                alternatives: vec![(77.0, 0.4)],
            })
            .unwrap();
        let pmfs = grown.batch_rank_pmfs(2);
        let keys = grown.keys();
        assert_eq!((keys.len(), pmfs.len()), (5, 10));
        let at = keys.binary_search(&TupleKey(9)).unwrap();
        let worlds = grown.enumerate_worlds();
        for i in 0..2 {
            let reference =
                worlds.expectation(|w| f64::from(w.rank_of(TupleKey(9)) == Some(i + 1)));
            assert!((pmfs[at * 2 + i] - reference).abs() < 1e-12);
        }
    }

    #[test]
    fn partial_cocluster_patch_is_bit_identical_to_full_rebuild() {
        let tree = bid_tree();
        let keys = tree.keys();
        let n = keys.len();
        let old = tree.batch_cocluster_weights(&keys, 1);
        let leaf = tree.leaves_of_key(4)[0];
        let (new_tree, impact) = tree
            .apply_delta(&TreeDelta::LeafValue { leaf, value: 58.5 })
            .unwrap();
        let recompute: Vec<bool> = keys
            .iter()
            .map(|k| impact.affected_keys.contains(k))
            .collect();
        let patched = new_tree.batch_cocluster_weights_partial(
            &keys,
            &recompute,
            |i, j| old[upper_triangle_index(n, i, j)],
            1,
        );
        let full = new_tree.batch_cocluster_weights(&keys, 1);
        for (idx, (a, b)) in patched.iter().zip(&full).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "entry {idx}");
        }
    }

    #[test]
    fn filtered_marginals_patch_matches_full_table() {
        let tree = bid_tree();
        let (xor, leaf) = first_block(&tree, 2);
        let old = tree.alternative_probabilities();
        let (new_tree, impact) = tree
            .apply_delta(&TreeDelta::XorEdgeProbability {
                xor,
                child: leaf,
                probability: 0.7,
            })
            .unwrap();
        // Patch: keep untouched keys' entries, recompute affected ones.
        let mut patched: Vec<(Alternative, f64)> = old
            .into_iter()
            .filter(|(alt, _)| !impact.affected_keys.contains(&alt.key))
            .chain(new_tree.alternative_probabilities_for_keys(&impact.affected_keys))
            .collect();
        patched.sort_by_key(|(alt, _)| *alt);
        let full = new_tree.alternative_probabilities();
        assert_eq!(patched.len(), full.len());
        for ((alt, p), (full_alt, full_p)) in patched.iter().zip(&full) {
            assert_eq!(alt, full_alt);
            assert_eq!(p.to_bits(), full_p.to_bits(), "{alt:?}");
        }
    }

    /// Applies `run` one delta at a time with [`TreeDelta::apply`], folding
    /// the impacts; on failure, the index of the failing delta and its error.
    fn one_at_a_time(
        tree: &AndXorTree,
        run: &[TreeDelta],
    ) -> Result<(AndXorTree, DeltaImpact), (usize, ModelError)> {
        let mut current = tree.clone();
        let mut total = DeltaImpact::none();
        for (i, delta) in run.iter().enumerate() {
            let (next, impact) = delta.apply(&current).map_err(|e| (i, e))?;
            current = next;
            total.absorb(impact);
        }
        Ok((current, total))
    }

    /// `apply_deltas` on `run` must give the tree, root and impact of the
    /// one-at-a-time fold, bit for bit. Returns the folded impact.
    fn assert_batch_matches(tree: &AndXorTree, run: &[TreeDelta]) -> DeltaImpact {
        let (batched, batch_impact) = tree.apply_deltas(run).unwrap();
        let (single, single_impact) = one_at_a_time(tree, run).unwrap();
        assert_eq!(batched.root, single.root);
        assert_eq!(batched.nodes, single.nodes);
        assert_eq!(
            format!("{:?}", batched.nodes),
            format!("{:?}", single.nodes)
        );
        assert_eq!(batch_impact, single_impact);
        batched.validate().unwrap();
        batch_impact
    }

    /// A run of `len` deltas cycling through all five kinds, each addressed
    /// against the tree the deltas before it produce.
    fn mixed_run(tree: &AndXorTree, len: usize) -> Vec<TreeDelta> {
        let mut current = tree.clone();
        let mut run = Vec::new();
        let mut inserted: Option<(u64, f64)> = None;
        for step in 0..len {
            let delta = match step % 5 {
                0 => {
                    let (xor, leaf) = first_block(&current, 2);
                    let p = 0.1 + 0.05 * (step % 7) as f64;
                    TreeDelta::XorEdgeProbability {
                        xor,
                        child: leaf,
                        probability: p,
                    }
                }
                1 => TreeDelta::LeafValue {
                    leaf: current.leaves_of_key(4)[0],
                    value: 10.0 + step as f64,
                },
                2 => {
                    let (xor, _) = first_block(&current, 3);
                    let value = 30.0 + step as f64 / 8.0;
                    inserted = Some((3, value));
                    TreeDelta::InsertAlternative {
                        xor,
                        key: 3,
                        value,
                        probability: 0.05,
                    }
                }
                3 => {
                    let (key, value) = inserted.take().unwrap();
                    let leaf = current
                        .leaves_of_key(key)
                        .into_iter()
                        .find(|&l| {
                            current.leaf_alternative(l) == Some(Alternative::new(key, value))
                        })
                        .unwrap();
                    TreeDelta::RemoveAlternative {
                        xor: current.parent_of(leaf).unwrap(),
                        leaf,
                    }
                }
                _ => TreeDelta::InsertTupleBlock {
                    under: current.root(),
                    key: 100 + step as u64,
                    alternatives: vec![(20.0 + step as f64, 0.4), (5.0, 0.3)],
                },
            };
            current = delta.apply(&current).unwrap().0;
            run.push(delta);
        }
        run
    }

    #[test]
    fn batched_runs_mixing_every_kind_match_one_at_a_time() {
        let tree = bid_tree();
        for len in [1, 2, 5, 6, 13, 31] {
            let impact = assert_batch_matches(&tree, &mixed_run(&tree, len));
            assert!(impact.probabilities_changed);
            assert!(!impact.rank_order_preserved);
            assert_eq!(impact.values_changed, len > 1);
            assert_eq!(impact.membership_changed, len > 2);
        }
        // An empty run is the tree itself, with nothing changed.
        let (same, impact) = tree.apply_deltas(&[]).unwrap();
        assert_eq!(same, tree);
        assert_eq!(impact, DeltaImpact::none());
    }

    #[test]
    fn batched_order_preserving_value_run_keeps_the_rank_order() {
        let tree = bid_tree();
        // Leaf values 95, 80, 70, 60, 55, 50, 40: each nudge stays strictly
        // between its neighbours, so the sweep order never changes.
        let leaf = |key: u64, i: usize| tree.leaves_of_key(key)[i];
        let run = vec![
            TreeDelta::LeafValue {
                leaf: leaf(3, 0),
                value: 72.5,
            },
            TreeDelta::LeafValue {
                leaf: leaf(1, 0),
                value: 90.0,
            },
            TreeDelta::LeafValue {
                leaf: leaf(3, 0),
                value: 75.0,
            },
            TreeDelta::LeafValue {
                leaf: leaf(4, 1),
                value: 52.0,
            },
        ];
        let impact = assert_batch_matches(&tree, &run);
        assert!(impact.rank_order_preserved && impact.values_changed);
        assert!(!impact.probabilities_changed && !impact.membership_changed);
        assert_eq!(
            impact.affected_keys,
            BTreeSet::from([TupleKey(1), TupleKey(3), TupleKey(4)])
        );
        // One order-changing move anywhere in the run loses the order.
        let mut broken = run.clone();
        broken.insert(
            2,
            TreeDelta::LeafValue {
                leaf: leaf(4, 0),
                value: 99.0,
            },
        );
        assert!(!assert_batch_matches(&tree, &broken).rank_order_preserved);
    }

    #[test]
    fn batched_probability_then_values_matches_one_at_a_time() {
        let tree = bid_tree();
        let (xor, child) = first_block(&tree, 1);
        let mut run = vec![TreeDelta::XorEdgeProbability {
            xor,
            child,
            probability: 0.2,
        }];
        // Order-preserving nudges after the order is already lost.
        for (i, value) in [72.5, 73.0, 71.0].into_iter().enumerate() {
            run.push(TreeDelta::LeafValue {
                leaf: tree.leaves_of_key(3)[0],
                value: value + i as f64 / 10.0,
            });
        }
        let impact = assert_batch_matches(&tree, &run);
        assert!(!impact.rank_order_preserved);
        assert!(impact.probabilities_changed && impact.values_changed);
        assert_eq!(
            impact.affected_keys,
            BTreeSet::from([TupleKey(1), TupleKey(3)])
        );
    }

    #[test]
    fn batched_runs_fail_with_the_error_of_the_first_invalid_delta() {
        let tree = bid_tree();
        let valid = mixed_run(&tree, 7);
        // Invalid against the tree the valid prefix leaves, whose ids a
        // structural delta may have renumbered.
        let invalid = |at: &AndXorTree| {
            [
                TreeDelta::LeafValue {
                    leaf: NodeId(10_000),
                    value: 1.0,
                },
                TreeDelta::LeafValue {
                    leaf: at.root(),
                    value: 1.0,
                },
                TreeDelta::XorEdgeProbability {
                    xor: at.root(),
                    child: NodeId(0),
                    probability: 0.1,
                },
                TreeDelta::InsertTupleBlock {
                    under: at.root(),
                    key: 2,
                    alternatives: vec![(1.0, 0.1)],
                },
                TreeDelta::InsertTupleBlock {
                    under: at.root(),
                    key: 9,
                    alternatives: vec![(1.0, 0.7), (2.0, 0.7)],
                },
            ]
        };
        for at in [0, 3, 7] {
            let prefix = one_at_a_time(&tree, &valid[..at]).unwrap().0;
            for bad in invalid(&prefix) {
                let mut run = valid[..at].to_vec();
                run.push(bad.clone());
                run.extend_from_slice(&valid[at..]);
                let batched = tree.apply_deltas(&run).unwrap_err();
                let (index, single) = one_at_a_time(&tree, &run).unwrap_err();
                assert_eq!(index, at, "{bad:?}");
                assert_eq!(batched, single, "{bad:?} at {at}");
            }
        }
    }

    #[test]
    fn xor_edge_patch_matches_the_mutated_xor_polynomial() {
        // The Poly1 ∨-edge patch identity must agree (within rounding) with
        // evaluating the ∨ mixture on the post-delta edge weights.
        let c1 = Poly1::from_coeffs(vec![0.3, 0.7]);
        let c2 = Poly1::from_coeffs(vec![0.6, 0.4]);
        let mut patched = Poly1::xor_combine(&[(0.5, c1.clone()), (0.2, c2.clone())]);
        patched.xor_edge_patch(&c1, 0.5, 0.35);
        let fresh = Poly1::xor_combine(&[(0.35, c1), (0.2, c2)]);
        for i in 0..2 {
            assert!((patched.coeff(i) - fresh.coeff(i)).abs() < 1e-15);
        }
    }
}
