//! Construction and validation of probabilistic and/xor trees.
//!
//! Trees are built through [`AndXorTreeBuilder`]: create leaves and inner
//! nodes bottom-up, then call [`AndXorTreeBuilder::build`] with the root.
//! `build` validates the two structural constraints of Definition 1:
//!
//! * **probability constraint** — at every ∨ node the child probabilities are
//!   valid and sum to at most 1;
//! * **key constraint** — for any two leaves holding the same key, their
//!   lowest common ancestor is a ∨ node (equivalently: the subtrees hanging
//!   off an ∧ node mention disjoint key sets), so no possible world can
//!   contain two alternatives of the same tuple.
//!
//! It also checks that the node graph is a tree (every node except the root
//! is the child of exactly one inner node, and every created node is
//! reachable from the root).

use cpdb_model::error::{validate_probability, ModelError};
use cpdb_model::{fold_marginals, Alternative, TupleKey};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Identifier of a node inside one tree/builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// The two kinds of inner nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// ∧ — all children co-exist.
    And,
    /// ∨ — at most one child materialises.
    Xor,
}

/// A node of the tree.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    /// A leaf holding one tuple alternative.
    Leaf(Alternative),
    /// An inner node with children; each child edge carries a probability
    /// (always 1.0 under an ∧ node).
    Inner {
        kind: NodeKind,
        children: Vec<(NodeId, f64)>,
    },
}

/// Builder for [`AndXorTree`]. Node ids returned by the builder are only
/// valid within this builder and the tree it produces.
#[derive(Debug, Clone, Default)]
pub struct AndXorTreeBuilder {
    nodes: Vec<Node>,
}

impl AndXorTreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a leaf for the given alternative and returns its id.
    pub fn leaf(&mut self, alternative: Alternative) -> NodeId {
        self.nodes.push(Node::Leaf(alternative));
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a leaf from raw `(key, value)` parts.
    pub fn leaf_parts(&mut self, key: u64, value: f64) -> NodeId {
        self.leaf(Alternative::new(key, value))
    }

    /// Adds an ∧ node over the given children.
    pub fn and_node(&mut self, children: Vec<NodeId>) -> NodeId {
        self.nodes.push(Node::Inner {
            kind: NodeKind::And,
            children: children.into_iter().map(|c| (c, 1.0)).collect(),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a ∨ node over `(child, probability)` edges.
    pub fn xor_node(&mut self, children: Vec<(NodeId, f64)>) -> NodeId {
        self.nodes.push(Node::Inner {
            kind: NodeKind::Xor,
            children,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Finalises the tree rooted at `root`, validating all structural
    /// constraints.
    pub fn build(self, root: NodeId) -> Result<AndXorTree, ModelError> {
        if root.0 >= self.nodes.len() {
            return Err(ModelError::NotFound {
                context: format!("root node {}", root.0),
            });
        }
        let tree = AndXorTree {
            nodes: self.nodes,
            root,
        };
        tree.validate()?;
        Ok(tree)
    }
}

/// A validated probabilistic and/xor tree.
#[derive(Debug, Clone, PartialEq)]
pub struct AndXorTree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeId,
}

impl AndXorTree {
    /// Assembles a tree from raw parts. Crate-visible for the mutation layer
    /// ([`crate::mutate`]), which validates separately; every public
    /// construction path still goes through [`AndXorTreeBuilder::build`].
    pub(crate) fn from_raw_parts(nodes: Vec<Node>, root: NodeId) -> Self {
        AndXorTree { nodes, root }
    }

    /// The root node id.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Total number of nodes (leaves + inner).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf(_)))
            .count()
    }

    /// The alternative stored at a leaf, or `None` for inner nodes.
    pub fn leaf_alternative(&self, id: NodeId) -> Option<Alternative> {
        match self.nodes.get(id.0) {
            Some(Node::Leaf(a)) => Some(*a),
            _ => None,
        }
    }

    /// The kind of an inner node, or `None` for leaves.
    pub fn node_kind(&self, id: NodeId) -> Option<NodeKind> {
        match self.nodes.get(id.0) {
            Some(Node::Inner { kind, .. }) => Some(*kind),
            _ => None,
        }
    }

    /// The `(child, probability)` edges of an inner node (empty for leaves).
    pub fn children(&self, id: NodeId) -> &[(NodeId, f64)] {
        match self.nodes.get(id.0) {
            Some(Node::Inner { children, .. }) => children,
            _ => &[],
        }
    }

    /// All tuple alternatives appearing at the leaves, sorted and deduplicated.
    pub fn alternatives(&self) -> Vec<Alternative> {
        let mut alts: Vec<Alternative> = self
            .nodes
            .iter()
            .filter_map(|n| match n {
                Node::Leaf(a) => Some(*a),
                _ => None,
            })
            .collect();
        alts.sort();
        alts.dedup();
        alts
    }

    /// All distinct tuple keys appearing at the leaves, sorted.
    pub fn keys(&self) -> Vec<TupleKey> {
        let mut keys: Vec<TupleKey> = self
            .nodes
            .iter()
            .filter_map(|n| match n {
                Node::Leaf(a) => Some(a.key),
                _ => None,
            })
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// All distinct attribute values appearing at the leaves, sorted
    /// ascending.
    pub fn distinct_values(&self) -> Vec<f64> {
        let mut vals: Vec<f64> = self
            .nodes
            .iter()
            .filter_map(|n| match n {
                Node::Leaf(a) => Some(a.value.0),
                _ => None,
            })
            .collect();
        vals.sort_by(f64::total_cmp);
        vals.dedup();
        vals
    }

    /// Depth of the tree (a single leaf/root has depth 1).
    pub fn depth(&self) -> usize {
        self.depth_of(self.root)
    }

    fn depth_of(&self, id: NodeId) -> usize {
        match &self.nodes[id.0] {
            Node::Leaf(_) => 1,
            Node::Inner { children, .. } => {
                1 + children
                    .iter()
                    .map(|(c, _)| self.depth_of(*c))
                    .max()
                    .unwrap_or(0)
            }
        }
    }

    /// Validates the probability constraint, the key constraint, and the
    /// tree-shape constraints. Crate-visible so the mutation layer
    /// ([`crate::mutate`]) can revalidate structurally mutated trees.
    pub(crate) fn validate(&self) -> Result<(), ModelError> {
        // Tree shape: every node has at most one parent; root has none; all
        // nodes reachable from the root.
        let mut parent_count = vec![0usize; self.nodes.len()];
        for (idx, node) in self.nodes.iter().enumerate() {
            if let Node::Inner { children, .. } = node {
                if children.is_empty() {
                    return Err(ModelError::Empty {
                        context: format!("inner node {idx} has no children"),
                    });
                }
                for (c, _) in children {
                    if c.0 >= self.nodes.len() {
                        return Err(ModelError::NotFound {
                            context: format!("child {} of node {idx}", c.0),
                        });
                    }
                    parent_count[c.0] += 1;
                }
            }
        }
        for (idx, &count) in parent_count.iter().enumerate() {
            if idx == self.root.0 {
                if count != 0 {
                    return Err(ModelError::Invalid {
                        context: "root must not be a child of another node".to_string(),
                    });
                }
            } else if count == 0 {
                return Err(ModelError::Invalid {
                    context: format!("node {idx} is not reachable from the root"),
                });
            } else if count > 1 {
                return Err(ModelError::Invalid {
                    context: format!(
                        "node {idx} has {count} parents; the structure must be a tree"
                    ),
                });
            }
        }

        // Probability constraint at ∨ nodes.
        for (idx, node) in self.nodes.iter().enumerate() {
            if let Node::Inner {
                kind: NodeKind::Xor,
                children,
            } = node
            {
                let mut total = 0.0;
                for (_, p) in children {
                    // The context is formatted only for a rejected edge.
                    validate_probability(*p, "").map_err(|_| ModelError::InvalidProbability {
                        value: *p,
                        context: format!("edge of xor node {idx}"),
                    })?;
                    total += p;
                }
                if total > 1.0 + 1e-9 {
                    return Err(ModelError::ProbabilityMassExceeded {
                        total,
                        context: format!("xor node {idx}"),
                    });
                }
            }
        }

        // Key constraint: the key sets of the subtrees under an ∧ node must be
        // pairwise disjoint.
        self.check_keys(self.root, &mut Vec::new())?;
        Ok(())
    }

    /// Appends the sorted, distinct keys of the subtree at `id` to `keys`,
    /// checking disjointness at ∧ nodes along the way: the first child that
    /// shares a key with an earlier sibling is reported with the smallest
    /// shared key.
    fn check_keys(&self, id: NodeId, keys: &mut Vec<TupleKey>) -> Result<(), ModelError> {
        match &self.nodes[id.0] {
            Node::Leaf(a) => keys.push(a.key),
            Node::Inner { kind, children } => {
                let start = keys.len();
                let mut earlier: HashSet<TupleKey> = HashSet::new();
                for (c, _) in children {
                    let child = keys.len();
                    self.check_keys(*c, keys)?;
                    if *kind == NodeKind::And {
                        if let Some(dup) = keys[child..].iter().find(|k| earlier.contains(k)) {
                            return Err(ModelError::DuplicateKey {
                                key: dup.0,
                                context: format!(
                                    "key constraint violated: two subtrees of ∧ node {} share key",
                                    id.0
                                ),
                            });
                        }
                        earlier.extend(&keys[child..]);
                    }
                }
                keys[start..].sort_unstable();
                // Siblings under an ∨ node may share keys: keep one of each.
                let mut kept = start;
                for i in start..keys.len() {
                    if kept == start || keys[i] != keys[kept - 1] {
                        keys[kept] = keys[i];
                        kept += 1;
                    }
                }
                keys.truncate(kept);
            }
        }
        Ok(())
    }

    /// Per-key marginal presence probability computed bottom-up in a single
    /// pass (no generating functions needed): at a leaf the probability of
    /// its own key is 1; at an ∨ node probabilities are mixed by the edge
    /// weights; at an ∧ node they add (the key constraint guarantees a key
    /// appears under at most one child).
    pub fn key_presence_probabilities(&self) -> HashMap<TupleKey, f64> {
        let mut out = HashMap::new();
        self.accumulate_presence(self.root, 1.0, &mut out);
        out
    }

    fn accumulate_presence(&self, id: NodeId, weight: f64, out: &mut HashMap<TupleKey, f64>) {
        match &self.nodes[id.0] {
            Node::Leaf(a) => {
                *out.entry(a.key).or_insert(0.0) += weight;
            }
            Node::Inner { kind, children } => match kind {
                NodeKind::And => {
                    for (c, _) in children {
                        self.accumulate_presence(*c, weight, out);
                    }
                }
                NodeKind::Xor => {
                    for (c, p) in children {
                        self.accumulate_presence(*c, weight * p, out);
                    }
                }
            },
        }
    }

    /// The per-alternative marginal table: `(alternative, Pr(alternative))`
    /// for every distinct leaf alternative, sorted by alternative (the order
    /// of [`Self::alternatives`]). Each leaf contributes the product of the
    /// ∨-edge probabilities on its root path; when the same `(key, value)`
    /// pair appears at several leaves (allowed under an ∨ node), their
    /// probabilities are summed in depth-first leaf order.
    pub fn alternative_probabilities(&self) -> Vec<(Alternative, f64)> {
        self.alternative_probabilities_where(&|_| true)
    }

    /// The restriction of [`Self::alternative_probabilities`] to alternatives
    /// of the given keys — the marginal-table **patch path** for live
    /// updates. The walk visits every leaf in the same depth-first order with
    /// the same cumulative edge-probability products as the full
    /// accumulation and merely skips other keys' leaves, so each returned
    /// entry is **bit-identical** to the corresponding entry of a full
    /// [`Self::alternative_probabilities`] call on the same tree.
    pub fn alternative_probabilities_for_keys(
        &self,
        keys: &BTreeSet<TupleKey>,
    ) -> Vec<(Alternative, f64)> {
        self.alternative_probabilities_where(&|key| keys.contains(&key))
    }

    fn alternative_probabilities_where(
        &self,
        keep: &dyn Fn(TupleKey) -> bool,
    ) -> Vec<(Alternative, f64)> {
        let mut leaves = Vec::new();
        self.accumulate_alt(self.root, 1.0, keep, &mut leaves);
        fold_marginals(leaves)
    }

    /// Pushes `(alternative, path probability)` for every kept leaf under
    /// `id`, in depth-first order.
    fn accumulate_alt(
        &self,
        id: NodeId,
        weight: f64,
        keep: &dyn Fn(TupleKey) -> bool,
        out: &mut Vec<(Alternative, f64)>,
    ) {
        match &self.nodes[id.0] {
            Node::Leaf(a) => {
                if keep(a.key) {
                    out.push((*a, weight));
                }
            }
            Node::Inner { kind, children } => match kind {
                NodeKind::And => {
                    for (c, _) in children {
                        self.accumulate_alt(*c, weight, keep, out);
                    }
                }
                NodeKind::Xor => {
                    for (c, p) in children {
                        self.accumulate_alt(*c, weight * p, keep, out);
                    }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_tree() {
        let mut b = AndXorTreeBuilder::new();
        let l1 = b.leaf_parts(1, 10.0);
        let l2 = b.leaf_parts(2, 20.0);
        let x1 = b.xor_node(vec![(l1, 0.4)]);
        let x2 = b.xor_node(vec![(l2, 0.7)]);
        let root = b.and_node(vec![x1, x2]);
        let tree = b.build(root).unwrap();
        assert_eq!(tree.node_count(), 5);
        assert_eq!(tree.leaf_count(), 2);
        assert_eq!(tree.depth(), 3);
        assert_eq!(tree.alternatives().len(), 2);
        assert_eq!(tree.keys(), vec![TupleKey(1), TupleKey(2)]);
        assert_eq!(tree.node_kind(root), Some(NodeKind::And));
        assert_eq!(tree.node_kind(l1), None);
        assert_eq!(tree.leaf_alternative(l1), Some(Alternative::new(1, 10.0)));
        assert_eq!(tree.children(root).len(), 2);
    }

    #[test]
    fn probability_constraint_enforced() {
        let mut b = AndXorTreeBuilder::new();
        let l1 = b.leaf_parts(1, 1.0);
        let l2 = b.leaf_parts(1, 2.0);
        let root = b.xor_node(vec![(l1, 0.7), (l2, 0.6)]);
        assert!(matches!(
            b.build(root),
            Err(ModelError::ProbabilityMassExceeded { .. })
        ));
    }

    #[test]
    fn invalid_probability_rejected() {
        let mut b = AndXorTreeBuilder::new();
        let l1 = b.leaf_parts(1, 1.0);
        let root = b.xor_node(vec![(l1, 1.4)]);
        assert!(matches!(
            b.build(root),
            Err(ModelError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn key_constraint_enforced_at_and_nodes() {
        let mut b = AndXorTreeBuilder::new();
        let l1 = b.leaf_parts(1, 1.0);
        let l2 = b.leaf_parts(1, 2.0);
        let root = b.and_node(vec![l1, l2]);
        assert!(matches!(
            b.build(root),
            Err(ModelError::DuplicateKey { key: 1, .. })
        ));
    }

    #[test]
    fn key_constraint_allows_same_key_under_xor() {
        let mut b = AndXorTreeBuilder::new();
        let l1 = b.leaf_parts(1, 1.0);
        let l2 = b.leaf_parts(1, 2.0);
        let root = b.xor_node(vec![(l1, 0.5), (l2, 0.5)]);
        assert!(b.build(root).is_ok());
    }

    #[test]
    fn nested_key_constraint_detected() {
        // ∧( ∨(leaf k1), ∧( ∨(leaf k1), ∨(leaf k2) ) ) — k1 appears under two
        // different children of the outer ∧.
        let mut b = AndXorTreeBuilder::new();
        let l1 = b.leaf_parts(1, 1.0);
        let l1b = b.leaf_parts(1, 5.0);
        let l2 = b.leaf_parts(2, 2.0);
        let x1 = b.xor_node(vec![(l1, 0.5)]);
        let x2 = b.xor_node(vec![(l1b, 0.5)]);
        let x3 = b.xor_node(vec![(l2, 0.5)]);
        let inner = b.and_node(vec![x2, x3]);
        let root = b.and_node(vec![x1, inner]);
        assert!(matches!(
            b.build(root),
            Err(ModelError::DuplicateKey { key: 1, .. })
        ));
    }

    #[test]
    fn key_constraint_reports_the_smallest_shared_key() {
        // ∧( ∨(k5, k3), ∨(k9), ∨(k5, k3) ): the third child shares keys 3
        // and 5 with the first; the smaller one is reported.
        let mut b = AndXorTreeBuilder::new();
        let block = |b: &mut AndXorTreeBuilder, keys: &[u64]| {
            let edges = keys
                .iter()
                .map(|&k| (b.leaf_parts(k, k as f64), 0.3))
                .collect();
            b.xor_node(edges)
        };
        let first = block(&mut b, &[5, 3]);
        let middle = block(&mut b, &[9]);
        let last = block(&mut b, &[5, 3]);
        let root = b.and_node(vec![first, middle, last]);
        assert!(matches!(
            b.build(root),
            Err(ModelError::DuplicateKey { key: 3, .. })
        ));
    }

    #[test]
    fn dag_shapes_are_rejected() {
        let mut b = AndXorTreeBuilder::new();
        let l1 = b.leaf_parts(1, 1.0);
        let x1 = b.xor_node(vec![(l1, 0.5)]);
        let x2 = b.xor_node(vec![(l1, 0.5)]); // l1 used twice
        let root = b.and_node(vec![x1, x2]);
        assert!(b.build(root).is_err());
    }

    #[test]
    fn unreachable_nodes_are_rejected() {
        let mut b = AndXorTreeBuilder::new();
        let l1 = b.leaf_parts(1, 1.0);
        let _orphan = b.leaf_parts(2, 2.0);
        let root = b.xor_node(vec![(l1, 0.5)]);
        assert!(b.build(root).is_err());
    }

    #[test]
    fn empty_inner_nodes_rejected() {
        let mut b = AndXorTreeBuilder::new();
        let root = b.and_node(vec![]);
        assert!(b.build(root).is_err());
    }

    #[test]
    fn missing_root_rejected() {
        let b = AndXorTreeBuilder::new();
        assert!(b.build(NodeId(3)).is_err());
    }

    #[test]
    fn presence_probabilities_bottom_up() {
        // ∧( ∨(k1: 0.3, 0.2), ∨( ∧(k2, k3) with 0.6 ) )
        let mut b = AndXorTreeBuilder::new();
        let a1 = b.leaf_parts(1, 1.0);
        let a2 = b.leaf_parts(1, 2.0);
        let x1 = b.xor_node(vec![(a1, 0.3), (a2, 0.2)]);
        let l2 = b.leaf_parts(2, 3.0);
        let l3 = b.leaf_parts(3, 4.0);
        let and23 = b.and_node(vec![l2, l3]);
        let x2 = b.xor_node(vec![(and23, 0.6)]);
        let root = b.and_node(vec![x1, x2]);
        let tree = b.build(root).unwrap();
        let probs = tree.key_presence_probabilities();
        assert!((probs[&TupleKey(1)] - 0.5).abs() < 1e-12);
        assert!((probs[&TupleKey(2)] - 0.6).abs() < 1e-12);
        assert!((probs[&TupleKey(3)] - 0.6).abs() < 1e-12);
        let alt_probs = tree.alternative_probabilities();
        let alts: Vec<Alternative> = alt_probs.iter().map(|(a, _)| *a).collect();
        assert_eq!(alts, tree.alternatives());
        assert!((alt_probs[0].1 - 0.3).abs() < 1e-12);
        assert!((alt_probs[1].1 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn distinct_values_sorted() {
        let mut b = AndXorTreeBuilder::new();
        let l1 = b.leaf_parts(1, 5.0);
        let l2 = b.leaf_parts(2, 1.0);
        let l3 = b.leaf_parts(3, 5.0);
        let x1 = b.xor_node(vec![(l1, 0.5)]);
        let x2 = b.xor_node(vec![(l2, 0.5)]);
        let x3 = b.xor_node(vec![(l3, 0.5)]);
        let root = b.and_node(vec![x1, x2, x3]);
        let tree = b.build(root).unwrap();
        assert_eq!(tree.distinct_values(), vec![1.0, 5.0]);
    }
}
