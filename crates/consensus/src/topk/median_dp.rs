//! Median Top-k answer under the symmetric-difference metric (§5.2, Thm 4).
//!
//! The *median* answer must be the Top-k answer of some possible world. From
//! the proof of Theorem 3, minimising `E[d_Δ(τ, τ_pw)]` over candidates of
//! size `|τ|` amounts to maximising `Σ_{t ∈ τ} (Pr(r(t) ≤ k) − ½)`, so the
//! median answer is the possible Top-k answer maximising that sum.
//!
//! The paper's algorithm (Theorem 4) enumerates score thresholds `a`: a set
//! `S` of `k` tuples all scoring `≥ a` is the Top-k answer of some possible
//! world exactly when `S` is a possible world of the tree *restricted to
//! leaves with score ≥ a* and has size exactly `k`. A knapsack-style program
//! over the tree gives, for every node and every size `i ≤ k`, the best
//! `Σ P(t)`, with `P(t) = Pr(r(t) ≤ k)`, over the worlds of that size the
//! restricted subtree generates. The best root entry of size `k` over all
//! thresholds is the median answer. A world with fewer than `k` tuples is
//! its own Top-k answer, so the root entries of every size `i < k` of the
//! unrestricted tree are candidates too, scored `Σ (P(t) − ½)`.
//!
//! # The (max, +) sweep
//!
//! Lowering the threshold only ever admits more leaves, so one descending
//! sweep replaces one program per threshold. Every node keeps a table of
//! `k + 1` entries in the (max, +) semiring, `−∞` marking an unreachable
//! size:
//!
//! * a leaf restricted away is `[0, −∞, …]`, an admitted leaf
//!   `[−∞, P(t), −∞, …]`;
//! * a ∨ node is the entrywise max over its children with `p > 0`, plus `0`
//!   at size 0 when its leftover mass exceeds `1e-12`;
//! * an ∧ node is the truncated (max, +) convolution of its children.
//!
//! Every inner node keeps a balanced segment tree over its children under
//! its operation, so one changed child costs `O(log fanout · k²)` at an ∧
//! node. A step lowers the threshold to the next distinct score, admits
//! that score's leaves, refreshes their root paths and reads the root's
//! size-`k` entry. After the last step every leaf is admitted, so the root
//! table is the unrestricted one the small worlds are read from. The sweep
//! costs `O(n · depth · log(fanout) · k²)` for `n` leaves, against
//! `O(n² k²)` for one program per threshold.
//!
//! No witness set rides in the tables. The sweep records the winning
//! (step, size), replays to that step and rebuilds the one answer by
//! descending the tables: at a ∨ segment node it takes the first side whose
//! entry equals the node's, at an ∧ segment node the first split `j` with
//! `left[j] + right[s − j]` equal to it.
//!
//! Ties go to the earlier candidate: higher thresholds first, a later one
//! winning only when strictly better, then the small worlds by ascending
//! size. The literal form, one recursive program per threshold with a
//! witness set in every cell, is kept as the test oracle
//! `cpdb_testkit::reference::median_topk_sym_diff_recursive`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use super::context::{rank_by_score, TopKContext};
use super::sym_diff::{expected_sym_diff_distance, topk_list};
use cpdb_andxor::{AndXorTree, NodeKind};
use cpdb_model::{ModelError, TupleKey};
use cpdb_rankagg::TopKList;

/// The median Top-k answer under the symmetric-difference metric, together
/// with its exact expected distance.
#[derive(Debug, Clone, PartialEq)]
pub struct MedianTopK {
    /// The selected answer (ordered by decreasing `Pr(r(t) ≤ k)`).
    pub answer: TopKList,
    /// Its exact expected normalised symmetric-difference distance.
    pub expected_distance: f64,
}

impl MedianTopK {
    /// The answer holding `keys`, ordered by decreasing `Pr(r(t) ≤ k)` with
    /// ties broken by key, and its exact expected distance. A key named twice
    /// (impossible for a witness of a valid tree, whose ∧ children have
    /// disjoint keys) is [`ModelError::DuplicateKey`].
    pub fn from_keys(ctx: &TopKContext, keys: Vec<TupleKey>) -> Result<Self, ModelError> {
        let mut scored: Vec<(TupleKey, f64)> = keys
            .into_iter()
            .map(|t| (t, ctx.row_of(t).map_or(0.0, |row| row.in_topk())))
            .collect();
        rank_by_score(&mut scored);
        let answer = topk_list(
            scored.into_iter().map(|(t, _)| t),
            "Theorem-4 median witness",
        )?;
        let expected_distance = expected_sym_diff_distance(ctx, &answer);
        Ok(MedianTopK {
            answer,
            expected_distance,
        })
    }
}

/// Theorem 4: computes the median Top-k answer of an and/xor tree in
/// polynomial time, by the (max, +) sweep of the module docs. A witness
/// naming one key twice is [`ModelError::DuplicateKey`].
pub fn median_topk_sym_diff(
    tree: &AndXorTree,
    ctx: &TopKContext,
) -> Result<MedianTopK, ModelError> {
    let k = ctx.k();
    if k == 0 {
        return MedianTopK::from_keys(ctx, Vec::new());
    }
    let sweep = Sweep::new(tree, ctx);
    let mut rows = Vec::new();
    sweep.reset(&mut rows);
    let root = sweep.nodes.last().map_or(0, |r| r.row) * sweep.width;
    // The (objective, step, size) of the best candidate so far.
    let mut best: Option<(f64, usize, usize)> = None;
    for step in 0..sweep.steps {
        sweep.admit(step, &mut rows);
        // A threshold step offers its size-k worlds; the last step, with
        // every leaf admitted, offers the small worlds.
        let sizes = if step + 1 < sweep.steps {
            k..k + 1
        } else {
            0..k
        };
        for size in sizes {
            let profit = rows[root + size];
            let objective = profit - 0.5 * size as f64;
            if profit > f64::NEG_INFINITY && best.is_none_or(|(b, ..)| objective > b) {
                best = Some((objective, step, size));
            }
        }
    }
    let keys = match best {
        None => Vec::new(),
        Some((_, step, size)) => {
            sweep.reset(&mut rows);
            for s in 0..=step {
                sweep.admit(s, &mut rows);
            }
            sweep.witness(&rows, size)
        }
    };
    MedianTopK::from_keys(ctx, keys)
}

/// A parent or slot that does not exist (the root's).
const NONE: usize = usize::MAX;

/// How an inner node combines its children's tables.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Entrywise max: a ∨ node picks one child.
    Max,
    /// Truncated (max, +) convolution: an ∧ node takes every child.
    Conv,
}

#[derive(Debug)]
enum Kind {
    Leaf {
        key: TupleKey,
        profit: f64,
    },
    /// Segment node `i ∈ 1..2·size` sits in row `row + i − 1`, so the
    /// node's own table is its `row`. Segment leaf `size + first + j` holds
    /// child `j`'s table. The leaf before `first`, if any, is the ∨
    /// leftover `[0, −∞, …]`, and the leaves after the children are the
    /// operation's identity.
    Inner {
        op: Op,
        size: usize,
        first: usize,
        children: Vec<usize>,
    },
}

#[derive(Debug)]
struct Node {
    kind: Kind,
    /// The parent's index in the layout.
    parent: usize,
    /// The row holding this node's table. A leaf's is its slot.
    row: usize,
    /// The parent's segment leaf for this node, a copy of an inner node's
    /// table.
    slot: usize,
}

/// The tree laid out children-first (the root last) for the sweep. The
/// tables live in one flat buffer of `width` entries per row.
struct Sweep {
    /// Entries per table: sizes `0..=k`.
    width: usize,
    nodes: Vec<Node>,
    /// Rows in the table buffer.
    row_count: usize,
    /// Highest threshold first, plus a last step admitting the leaves no
    /// threshold does (a NaN score), which leaves every leaf admitted.
    steps: usize,
    /// `(step, leaf)`: the leaves (indices into `nodes`) in admission order.
    admits: Vec<(usize, usize)>,
}

impl Sweep {
    /// Lays out `tree`, reading each leaf's profit once. Needs `ctx.k() ≥ 1`.
    fn new(tree: &AndXorTree, ctx: &TopKContext) -> Self {
        let thresholds: Vec<f64> = tree
            .distinct_values()
            .into_iter()
            .rev()
            .filter(|a| !a.is_nan())
            .collect();
        let mut admits = Vec::new();
        let mut nodes: Vec<Node> = Vec::new();
        let mut row_count = 0;
        // Post-order: when a node is finished its children are the last
        // entries of `done`.
        let mut done: Vec<usize> = Vec::new();
        let mut stack = vec![(tree.root(), false)];
        while let Some((id, expanded)) = stack.pop() {
            let kind = tree.node_kind(id);
            // A ∨ child with p ≤ 0 never materialises and is not laid out.
            let kept = || {
                tree.children(id)
                    .iter()
                    .filter(move |(_, p)| kind != Some(NodeKind::Xor) || *p > 0.0)
            };
            if !expanded && kind.is_some() {
                stack.push((id, true));
                stack.extend(kept().rev().map(|(c, _)| (*c, false)));
                continue;
            }
            let me = nodes.len();
            let mut row = NONE;
            let node_kind = match (kind, tree.leaf_alternative(id)) {
                (None, Some(alt)) => {
                    let value = alt.value.0;
                    let step = if value.is_nan() {
                        thresholds.len()
                    } else {
                        thresholds.partition_point(|&a| a > value)
                    };
                    admits.push((step, me));
                    Kind::Leaf {
                        key: alt.key,
                        profit: ctx.row_of(alt.key).map_or(0.0, |row| row.in_topk()),
                    }
                }
                (kind, _) => {
                    let count = kept().count();
                    let children = done.split_off(done.len().saturating_sub(count));
                    let (op, first) = match kind {
                        Some(NodeKind::And) => (Op::Conv, 0),
                        Some(NodeKind::Xor) => {
                            let mass: f64 = tree.children(id).iter().map(|(_, p)| *p).sum();
                            (Op::Max, usize::from(1.0 - mass > 1e-12))
                        }
                        // An id outside the tree generates no world at all.
                        None => (Op::Max, 0),
                    };
                    let size = (first + children.len()).next_power_of_two();
                    row = row_count;
                    row_count += 2 * size - 1;
                    for (j, &c) in children.iter().enumerate() {
                        let child = &mut nodes[c];
                        child.parent = me;
                        child.slot = row + size + first + j - 1;
                        if let Kind::Leaf { .. } = child.kind {
                            child.row = child.slot;
                        }
                    }
                    Kind::Inner {
                        op,
                        size,
                        first,
                        children,
                    }
                }
            };
            nodes.push(Node {
                kind: node_kind,
                parent: NONE,
                row,
                slot: NONE,
            });
            done.push(me);
        }
        // A leaf root has no parent slot to live in.
        if let Some(root) = nodes.last_mut().filter(|r| r.row == NONE) {
            root.row = row_count;
            row_count += 1;
        }
        admits.sort_by_key(|&(step, _)| step);
        Sweep {
            width: ctx.k() + 1,
            nodes,
            row_count,
            steps: thresholds.len() + 1,
            admits,
        }
    }

    /// Sets `rows` to the tables with every leaf restricted away.
    fn reset(&self, rows: &mut Vec<f64>) {
        let w = self.width;
        rows.clear();
        rows.resize(self.row_count * w, f64::NEG_INFINITY);
        for node in &self.nodes {
            match &node.kind {
                Kind::Leaf { .. } => rows[node.row * w] = 0.0,
                Kind::Inner {
                    op,
                    size,
                    first,
                    children,
                } => {
                    // The ∨ leftover and the ∧ padding both hold `[0, −∞, …]`.
                    for pos in 0..*size {
                        if pos < *first || (*op == Op::Conv && pos >= first + children.len()) {
                            rows[(node.row + size + pos - 1) * w] = 0.0;
                        }
                    }
                    for i in (1..*size).rev() {
                        combine(*op, rows, w, node.row, i);
                    }
                    if node.slot != NONE {
                        rows.copy_within(node.row * w..(node.row + 1) * w, node.slot * w);
                    }
                }
            }
        }
    }

    /// Admits the leaves of `step` and refreshes their root paths; steps run
    /// in order from 0.
    fn admit(&self, step: usize, rows: &mut [f64]) {
        let w = self.width;
        let from = self.admits.partition_point(|&(s, _)| s < step);
        for &(_, leaf) in self.admits[from..].iter().take_while(|(s, _)| *s == step) {
            let Kind::Leaf { profit, .. } = self.nodes[leaf].kind else {
                continue;
            };
            let row = self.nodes[leaf].row;
            let table = &mut rows[row * w..(row + 1) * w];
            table.fill(f64::NEG_INFINITY);
            table[1] = profit;
            let mut v = leaf;
            while let Some(parent) = self.nodes.get(self.nodes[v].parent) {
                let Node { row, slot, .. } = self.nodes[v];
                if row != slot {
                    rows.copy_within(row * w..(row + 1) * w, slot * w);
                }
                let Kind::Inner { op, .. } = parent.kind else {
                    break;
                };
                let mut i = slot + 1 - parent.row;
                while i > 1 {
                    i /= 2;
                    combine(op, rows, w, parent.row, i);
                }
                v = self.nodes[v].parent;
            }
        }
    }

    /// The keys of a world of `size` tuples attaining the root's entry,
    /// rebuilt by descending the tables in `rows`.
    fn witness(&self, rows: &[f64], size: usize) -> Vec<TupleKey> {
        let at = |row: usize, s: usize| rows[row * self.width + s];
        let mut keys = Vec::with_capacity(size);
        // (node, segment index, size); segment index 1 is the node's table.
        let mut todo = vec![(self.nodes.len() - 1, 1, size)];
        while let Some((v, i, s)) = todo.pop() {
            let base = self.nodes[v].row;
            match &self.nodes[v].kind {
                Kind::Leaf { key, .. } => {
                    if s == 1 {
                        keys.push(*key);
                    }
                }
                Kind::Inner {
                    op,
                    size: width,
                    first,
                    children,
                } => {
                    if i >= *width {
                        // A segment leaf: a child, the ∨ leftover or padding,
                        // the last two contributing no key.
                        let child = (i - width)
                            .checked_sub(*first)
                            .and_then(|j| children.get(j));
                        if let Some(&c) = child {
                            todo.push((c, 1, s));
                        }
                        continue;
                    }
                    let (node, left, right) = (base + i - 1, base + 2 * i - 1, base + 2 * i);
                    let target = at(node, s);
                    match op {
                        Op::Max => {
                            let side = if at(left, s) == target {
                                2 * i
                            } else {
                                2 * i + 1
                            };
                            todo.push((v, side, s));
                        }
                        Op::Conv => {
                            if let Some(j) =
                                (0..=s).find(|&j| at(left, j) + at(right, s - j) == target)
                            {
                                todo.push((v, 2 * i, j));
                                todo.push((v, 2 * i + 1, s - j));
                            }
                        }
                    }
                }
            }
        }
        keys
    }
}

/// Recomputes segment node `i` of the inner node whose table is row `base`
/// from the segment node's two children.
fn combine(op: Op, rows: &mut [f64], width: usize, base: usize, i: usize) {
    // The children's rows follow the node's: split there to borrow both.
    let (head, tail) = rows.split_at_mut((base + 2 * i - 1) * width);
    let out = &mut head[(base + i - 1) * width..(base + i) * width];
    let (left, right) = tail[..2 * width].split_at(width);
    match op {
        Op::Max => {
            for ((o, l), r) in out.iter_mut().zip(left).zip(right) {
                *o = l.max(*r);
            }
        }
        Op::Conv => {
            out.fill(f64::NEG_INFINITY);
            for (a, &l) in left.iter().enumerate() {
                if l == f64::NEG_INFINITY {
                    continue;
                }
                for (o, &r) in out[a..].iter_mut().zip(right) {
                    let sum = l + r;
                    if sum > *o {
                        *o = sum;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpdb_andxor::AndXorTreeBuilder;

    fn independent_tree(specs: &[(u64, f64, f64)]) -> AndXorTree {
        let mut b = AndXorTreeBuilder::new();
        let mut xors = Vec::new();
        for &(key, score, p) in specs {
            let l = b.leaf_parts(key, score);
            xors.push(b.xor_node(vec![(l, p)]));
        }
        let root = b.and_node(xors);
        b.build(root).unwrap()
    }

    #[test]
    fn small_worlds_are_valid_median_answers() {
        // Only one tuple exists, but k = 3: the median answer is that single
        // tuple (the Top-3 of the only non-empty world).
        let tree = independent_tree(&[(7, 42.0, 0.9)]);
        let ctx = TopKContext::new(&tree, 3);
        let median = median_topk_sym_diff(&tree, &ctx).unwrap();
        assert_eq!(median.answer.items(), &[7]);
    }
}
