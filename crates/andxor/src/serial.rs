//! Plain-data (de)serialization seams for trees and deltas.
//!
//! [`AndXorTree`] keeps its node arena private (so every tree in the system
//! is validated), and [`TreeDelta`] refers to nodes through the opaque
//! [`NodeId`]. A storage layer (the `cpdb_store` snapshot/WAL formats) needs
//! a way to flatten both into plain owned data and to rebuild them — without
//! being handed raw construction power that could bypass validation. This
//! module is that seam:
//!
//! * [`RawTree`] / [`RawNode`] mirror the arena with `usize` indices.
//!   [`AndXorTree::to_raw`] exports it; [`AndXorTree::from_raw`] rebuilds and
//!   **re-validates** the full structural contract (§3.2: ∨-block mass ≤ 1,
//!   same-key leaves meet at an ∨ LCA, single parents, reachability), so a
//!   corrupted or hand-rolled byte stream can never yield an invalid tree.
//! * [`RawDelta`] mirrors [`TreeDelta`] with `usize` node indices.
//!   Conversions are exact in both directions; node-index validity is checked
//!   when the delta is *applied* (`AndXorTree::apply_delta`), exactly as for
//!   any other delta.
//!
//! All probabilities and values round-trip bit-exactly (the raw structs store
//! the same `f64`s; encoders are expected to preserve them via
//! [`f64::to_bits`]).

use crate::mutate::TreeDelta;
use crate::tree::{AndXorTree, Node, NodeId, NodeKind};
use cpdb_model::{Alternative, ModelError};

/// One node of a flattened tree: a leaf alternative or an inner node whose
/// children are `(node index, edge probability)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub enum RawNode {
    /// A leaf holding one tuple alternative.
    Leaf {
        /// The tuple key.
        key: u64,
        /// The value/score attribute.
        value: f64,
    },
    /// An ∧ or ∨ node over child edges (`probability` is 1.0 under ∧).
    Inner {
        /// ∧ or ∨.
        kind: NodeKind,
        /// `(child index, edge probability)` pairs, in child order.
        children: Vec<(usize, f64)>,
    },
}

/// A flattened [`AndXorTree`]: the node arena in index order plus the root
/// index. Children always precede their parent (the builder and the
/// canonical post-order renumbering both guarantee it), so decoding can
/// proceed in a single pass.
#[derive(Debug, Clone, PartialEq)]
pub struct RawTree {
    /// The nodes, indexed by position.
    pub nodes: Vec<RawNode>,
    /// Index of the root node.
    pub root: usize,
}

impl AndXorTree {
    /// Flattens the tree into plain data for serialization. Lossless:
    /// [`AndXorTree::from_raw`] on the result rebuilds a tree with identical
    /// node ids, structure, and bit-identical probabilities/values.
    pub fn to_raw(&self) -> RawTree {
        let nodes = self
            .nodes
            .iter()
            .map(|node| match node {
                Node::Leaf(alt) => RawNode::Leaf {
                    key: alt.key.0,
                    value: alt.value.value(),
                },
                Node::Inner { kind, children } => RawNode::Inner {
                    kind: *kind,
                    children: children.iter().map(|(c, p)| (c.0, *p)).collect(),
                },
            })
            .collect();
        RawTree {
            nodes,
            root: self.root.0,
        }
    }

    /// Rebuilds a tree from flattened data, re-running the full structural
    /// validation. Out-of-range child or root indices and every §3.2
    /// constraint violation surface as typed [`ModelError`]s — deserializing
    /// corrupt data can never produce an invalid tree.
    pub fn from_raw(raw: &RawTree) -> Result<AndXorTree, ModelError> {
        let n = raw.nodes.len();
        if raw.root >= n {
            return Err(ModelError::NotFound {
                context: format!("raw tree root index {} of {n} nodes", raw.root),
            });
        }
        let mut nodes = Vec::with_capacity(n);
        for (idx, node) in raw.nodes.iter().enumerate() {
            nodes.push(match node {
                RawNode::Leaf { key, value } => Node::Leaf(Alternative::new(*key, *value)),
                RawNode::Inner { kind, children } => {
                    for &(c, _) in children {
                        if c >= n {
                            return Err(ModelError::NotFound {
                                context: format!("raw node {idx} child index {c} of {n} nodes"),
                            });
                        }
                    }
                    Node::Inner {
                        kind: *kind,
                        children: children.iter().map(|&(c, p)| (NodeId(c), p)).collect(),
                    }
                }
            });
        }
        let tree = AndXorTree::from_raw_parts(nodes, NodeId(raw.root));
        tree.validate()?;
        Ok(tree)
    }
}

/// A [`TreeDelta`] with node ids flattened to `usize` indices, for
/// serialization (the WAL record payload). Index validity is re-checked when
/// the decoded delta is applied.
#[derive(Debug, Clone, PartialEq)]
pub enum RawDelta {
    /// [`TreeDelta::XorEdgeProbability`].
    XorEdgeProbability {
        /// Index of the ∨ node owning the edge.
        xor: usize,
        /// Index of the child whose edge probability changes.
        child: usize,
        /// The new edge probability.
        probability: f64,
    },
    /// [`TreeDelta::LeafValue`].
    LeafValue {
        /// Index of the leaf to update.
        leaf: usize,
        /// The new attribute value.
        value: f64,
    },
    /// [`TreeDelta::InsertAlternative`].
    InsertAlternative {
        /// Index of the ∨ node gaining an alternative.
        xor: usize,
        /// Tuple key of the new alternative.
        key: u64,
        /// Attribute value of the new alternative.
        value: f64,
        /// Edge probability of the new alternative.
        probability: f64,
    },
    /// [`TreeDelta::RemoveAlternative`].
    RemoveAlternative {
        /// Index of the ∨ node losing an alternative.
        xor: usize,
        /// Index of the leaf child to remove.
        leaf: usize,
    },
    /// [`TreeDelta::InsertTupleBlock`].
    InsertTupleBlock {
        /// Index of the ∧ node the new block goes under.
        under: usize,
        /// Tuple key of the new block.
        key: u64,
        /// `(value, probability)` alternatives of the new block.
        alternatives: Vec<(f64, f64)>,
    },
}

impl TreeDelta {
    /// Flattens the delta's node ids for serialization.
    pub fn to_raw(&self) -> RawDelta {
        match self {
            TreeDelta::XorEdgeProbability {
                xor,
                child,
                probability,
            } => RawDelta::XorEdgeProbability {
                xor: xor.0,
                child: child.0,
                probability: *probability,
            },
            TreeDelta::LeafValue { leaf, value } => RawDelta::LeafValue {
                leaf: leaf.0,
                value: *value,
            },
            TreeDelta::InsertAlternative {
                xor,
                key,
                value,
                probability,
            } => RawDelta::InsertAlternative {
                xor: xor.0,
                key: *key,
                value: *value,
                probability: *probability,
            },
            TreeDelta::RemoveAlternative { xor, leaf } => RawDelta::RemoveAlternative {
                xor: xor.0,
                leaf: leaf.0,
            },
            TreeDelta::InsertTupleBlock {
                under,
                key,
                alternatives,
            } => RawDelta::InsertTupleBlock {
                under: under.0,
                key: *key,
                alternatives: alternatives.clone(),
            },
        }
    }

    /// Rebuilds a delta from flattened data. Whether the indices name valid
    /// nodes of the target tree is checked by `AndXorTree::apply_delta`,
    /// which rejects out-of-range or wrongly-typed nodes with typed errors.
    pub fn from_raw(raw: &RawDelta) -> TreeDelta {
        match raw {
            RawDelta::XorEdgeProbability {
                xor,
                child,
                probability,
            } => TreeDelta::XorEdgeProbability {
                xor: NodeId(*xor),
                child: NodeId(*child),
                probability: *probability,
            },
            RawDelta::LeafValue { leaf, value } => TreeDelta::LeafValue {
                leaf: NodeId(*leaf),
                value: *value,
            },
            RawDelta::InsertAlternative {
                xor,
                key,
                value,
                probability,
            } => TreeDelta::InsertAlternative {
                xor: NodeId(*xor),
                key: *key,
                value: *value,
                probability: *probability,
            },
            RawDelta::RemoveAlternative { xor, leaf } => TreeDelta::RemoveAlternative {
                xor: NodeId(*xor),
                leaf: NodeId(*leaf),
            },
            RawDelta::InsertTupleBlock {
                under,
                key,
                alternatives,
            } => TreeDelta::InsertTupleBlock {
                under: NodeId(*under),
                key: *key,
                alternatives: alternatives.clone(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure1::figure1_correlated_tree;
    use crate::tree::AndXorTreeBuilder;

    fn sample_tree() -> AndXorTree {
        let mut b = AndXorTreeBuilder::new();
        let l1 = b.leaf_parts(1, 30.0);
        let l2 = b.leaf_parts(1, 25.0);
        let x1 = b.xor_node(vec![(l1, 0.4), (l2, 0.35)]);
        let l3 = b.leaf_parts(2, 20.0);
        let x2 = b.xor_node(vec![(l3, 0.9)]);
        let root = b.and_node(vec![x1, x2]);
        b.build(root).unwrap()
    }

    #[test]
    fn tree_round_trips_bit_identically() {
        for tree in [sample_tree(), figure1_correlated_tree()] {
            let raw = tree.to_raw();
            let back = AndXorTree::from_raw(&raw).unwrap();
            assert_eq!(back.to_raw(), raw);
            assert_eq!(back.root(), tree.root());
            assert_eq!(back.node_count(), tree.node_count());
            let (a, b) = (
                tree.alternative_probabilities(),
                back.alternative_probabilities(),
            );
            assert_eq!(a.len(), b.len());
            for ((alt, p), (back_alt, back_p)) in a.iter().zip(&b) {
                assert_eq!(alt, back_alt);
                assert_eq!(p.to_bits(), back_p.to_bits(), "{alt:?}");
            }
        }
    }

    #[test]
    fn from_raw_rejects_out_of_range_indices() {
        let mut raw = sample_tree().to_raw();
        raw.root = raw.nodes.len();
        assert!(matches!(
            AndXorTree::from_raw(&raw),
            Err(ModelError::NotFound { .. })
        ));

        let mut raw = sample_tree().to_raw();
        if let RawNode::Inner { children, .. } = &mut raw.nodes[2] {
            children[0].0 = 99;
        }
        assert!(matches!(
            AndXorTree::from_raw(&raw),
            Err(ModelError::NotFound { .. })
        ));
    }

    #[test]
    fn from_raw_revalidates_structural_constraints() {
        // Overflowing ∨ mass must be rejected even though the indices are
        // in range.
        let mut raw = sample_tree().to_raw();
        if let RawNode::Inner { children, .. } = &mut raw.nodes[2] {
            children[0].1 = 0.9; // 0.9 + 0.35 > 1
        }
        assert!(AndXorTree::from_raw(&raw).is_err());
    }

    #[test]
    fn deltas_round_trip_through_raw() {
        let tree = sample_tree();
        let leaf = tree.leaves_of_key(1)[0];
        let xor = tree.parent_of(leaf).unwrap();
        let deltas = vec![
            TreeDelta::XorEdgeProbability {
                xor,
                child: leaf,
                probability: 0.45,
            },
            TreeDelta::LeafValue { leaf, value: 31.5 },
            TreeDelta::InsertAlternative {
                xor,
                key: 1,
                value: 10.0,
                probability: 0.1,
            },
            TreeDelta::RemoveAlternative { xor, leaf },
            TreeDelta::InsertTupleBlock {
                under: tree.root(),
                key: 7,
                alternatives: vec![(50.0, 0.25), (45.0, 0.5)],
            },
        ];
        for delta in &deltas {
            let raw = delta.to_raw();
            let back = TreeDelta::from_raw(&raw);
            assert_eq!(&back, delta);
            assert_eq!(back.to_raw(), raw);
        }
    }

    #[test]
    fn raw_delta_applies_like_the_original() {
        let tree = sample_tree();
        let leaf = tree.leaves_of_key(2)[0];
        let xor = tree.parent_of(leaf).unwrap();
        let delta = TreeDelta::XorEdgeProbability {
            xor,
            child: leaf,
            probability: 0.5,
        };
        let (direct, _) = tree.apply_delta(&delta).unwrap();
        let (via_raw, _) = tree
            .apply_delta(&TreeDelta::from_raw(&delta.to_raw()))
            .unwrap();
        assert_eq!(direct.to_raw(), via_raw.to_raw());
    }
}
