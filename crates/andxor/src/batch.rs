//! Single-sweep batch evaluation of the per-tuple generating-function
//! statistics (rank PMFs, pairwise order, co-clustering weights).
//!
//! Read literally, Example 3 and Theorem 1 pay one full tree sweep per
//! statistic: one generating function per key for a rank table (`O(n)`
//! sweeps) and one per ordered pair for a Kendall tournament (`O(n²)`
//! sweeps). `cpdb_testkit::rank` keeps those per-key forms as test oracles.
//! This module computes *all* of them from shared precomputation:
//!
//! * **Rank PMFs** ([`AndXorTree::batch_rank_pmfs`]) — one chronological
//!   sweep over the alternatives in decreasing-score order. Every tree node
//!   caches its current univariate polynomial under the assignment
//!   "already-processed (i.e. out-ranking) leaves ↦ `x`, the rest ↦ 1";
//!   ∨ nodes are updated by a leave-one-out mixture delta (`O(k)` per
//!   activation) and ∧ nodes keep a balanced product tree over their
//!   children so one child change re-multiplies only `O(log fanout)`
//!   partial products. Each target's `Pr(r(t) = i)` polynomial is then
//!   recovered along its root-to-leaf path: the coefficient of `y` is the
//!   path's ∨-edge probability times the product of the cached
//!   prefix/suffix sibling polynomials at every ∧ ancestor — no fresh
//!   whole-tree sweep per target. All products use in-place truncated
//!   convolution with reusable scratch buffers ([`Poly1`]), so the sweep
//!   allocates O(tree) once instead of O(tree) per target.
//! * **Kendall distance table** ([`AndXorTree::batch_kendall_pool`]) — the
//!   same chronological sweep, read at the alternatives of a pool of keys
//!   with some leaves masked to 0 along their root paths and rolled back,
//!   gives the exact expected Kendall Top-k distance of every list drawn
//!   from the pool.
//! * **Pairwise statistics** ([`AndXorTree::batch_pairwise_order`],
//!   [`AndXorTree::batch_cocluster_weights`]) — both reduce to *alternative
//!   co-presence* probabilities `Pr(α ∧ β)`, which the tree structure gives
//!   in closed form: two leaves co-exist exactly when every ∨ ancestor picks
//!   the edge towards them, so `Pr(α ∧ β)` is the product of the ∨-edge
//!   probabilities on the union of the two root-to-leaf paths (and `0` when
//!   the paths diverge at a ∨ node). One root-to-leaf path extraction pass
//!   replaces the `O(n²)` generating-function sweeps entirely.
//!
//! Results match the per-tuple references within `1e-12` (they perform the
//! same exact computation with a different floating-point association;
//! `cpdb_testkit` pins this). The rank sweep runs on the calling
//! thread. The pairwise statistics are **bit-identical at any thread
//! count**: every entry is one closed form, evaluated on its own and written
//! back in a fixed order.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::tree::{AndXorTree, Node, NodeId, NodeKind};
use cpdb_genfunc::{clamp_probability, Poly1, Truncation};
use cpdb_model::TupleKey;
use cpdb_parallel::parallel_map_indexed;
use std::ops::Range;

// ---------------------------------------------------------------------------
// Balanced product tree over the children of one ∧ node.
// ---------------------------------------------------------------------------

/// Prefix/suffix partial products over the children of one ∧ node, stored as
/// a balanced binary product tree: replacing one child's polynomial
/// recomputes `O(log fanout)` internal products, and the leave-one-out
/// product `Π_{i ≠ j} A_i` needed by a query multiplies the `O(log fanout)`
/// sibling entries along the leaf-to-root path.
#[derive(Debug, Clone)]
struct AndSeg {
    /// Power-of-two capacity (≥ number of children); `seg` has `2 * size`
    /// entries, children at `size ..`, padding leaves are the constant 1.
    size: usize,
    seg: Vec<Poly1>,
}

impl AndSeg {
    fn new<'a>(
        children: impl ExactSizeIterator<Item = &'a Poly1>,
        trunc: Truncation,
        scratch: &mut Vec<f64>,
    ) -> Self {
        let size = children.len().next_power_of_two().max(1);
        let mut seg = Vec::with_capacity(2 * size);
        seg.resize(size, Poly1::constant(1.0));
        seg.extend(children.cloned());
        seg.resize(2 * size, Poly1::constant(1.0));
        let mut s = AndSeg { size, seg };
        for idx in (1..size).rev() {
            s.recompute(idx, trunc, scratch);
        }
        s
    }

    /// Recomputes one internal product from its two children, in place.
    fn recompute(&mut self, idx: usize, trunc: Truncation, scratch: &mut Vec<f64>) {
        let (parents, children) = self.seg.split_at_mut(2 * idx);
        let prod = &mut parents[idx];
        prod.copy_from(&children[0]);
        prod.mul_assign_truncated(&children[1], trunc, scratch);
    }

    /// Replaces child `i`'s polynomial and refreshes the partial products on
    /// its path to the root.
    fn update(&mut self, i: usize, poly: &Poly1, trunc: Truncation, scratch: &mut Vec<f64>) {
        self.seg[self.size + i].copy_from(poly);
        let mut idx = (self.size + i) / 2;
        while idx >= 1 {
            self.recompute(idx, trunc, scratch);
            idx /= 2;
        }
    }

    /// The product of every child.
    fn root(&self) -> &Poly1 {
        &self.seg[1]
    }

    /// Multiplies the leave-one-out product `Π_{j ≠ i} A_j` into `acc`.
    fn mul_excluding_into(
        &self,
        i: usize,
        acc: &mut Poly1,
        trunc: Truncation,
        scratch: &mut Vec<f64>,
    ) {
        let mut idx = self.size + i;
        while idx > 1 {
            acc.mul_assign_truncated(&self.seg[idx ^ 1], trunc, scratch);
            idx /= 2;
        }
    }
}

// ---------------------------------------------------------------------------
// The chronological rank-PMF sweep.
// ---------------------------------------------------------------------------

/// How a node hangs off its parent.
#[derive(Debug, Clone, Copy)]
enum Link {
    /// A child of the ∨ node `parent`, reached with edge probability `p`.
    Xor { parent: usize, p: f64 },
    /// Child `index` of the ∧ node `parent`, whose product tree is
    /// `SweepState::segs[seg]`.
    And {
        parent: usize,
        seg: usize,
        index: usize,
    },
}

impl Link {
    fn parent(self) -> usize {
        match self {
            Link::Xor { parent, .. } | Link::And { parent, .. } => parent,
        }
    }
}

/// One distinct target alternative: the position of its key in the tree's
/// sorted keys, together with every leaf holding it (a range of
/// [`SweepPlan::target_leaves`]).
#[derive(Debug, Clone)]
struct Target {
    position: usize,
    leaves: Range<usize>,
}

/// Immutable per-batch precomputation.
struct SweepPlan {
    /// `links[v]`: how node `v` hangs off its parent (`None` for the root).
    links: Vec<Option<Link>>,
    /// Distinct alternatives sorted by the out-rank order: decreasing score,
    /// ties broken by increasing key (exactly [`outranks`]'s tie-break, so
    /// when target `t` is queried, the activated set is precisely the set of
    /// alternatives out-ranking `t`).
    targets: Vec<Target>,
    /// The leaves of every target, target after target.
    target_leaves: Vec<usize>,
    /// The distinct keys, sorted: target positions index into it.
    keys: Vec<TupleKey>,
    /// The root node.
    root: usize,
    /// Truncation at x-degree `max_rank - 1` — coefficients past the last
    /// requested rank are never read, so every product drops them.
    trunc: Truncation,
    /// The activated-leaf polynomial `x`, pre-truncated.
    x_poly: Poly1,
    /// The constant polynomial 1 (query accumulator reset value).
    one: Poly1,
    /// The zero polynomial.
    zero: Poly1,
}

/// A place in [`SweepState`] that holds one polynomial.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// The cached polynomial of a node.
    Node(usize),
    /// Entry `idx` of the product tree `seg`.
    Seg { seg: usize, idx: usize },
}

/// The mutable sweep state: every node's current polynomial and every ∧
/// node's product tree.
struct SweepState {
    polys: Vec<Poly1>,
    segs: Vec<AndSeg>,
    scratch: Vec<f64>,
    acc: Poly1,
    /// Nodes whose polynomial a deferred assignment made stale, and the
    /// same set as one flag per node; [`SweepPlan::flush`] refreshes them.
    stale: Vec<usize>,
    is_stale: Vec<bool>,
    /// Per product tree, the child entries rewritten since its last refresh.
    stale_entries: Vec<Vec<usize>>,
    /// The polynomials a logged assignment or flush displaced, in the order
    /// it displaced them; [`SweepState::rollback`] puts them back.
    undo: Vec<(Slot, Poly1)>,
    /// Buffers returned by a rollback, reused by the next logged change.
    spare: Vec<Poly1>,
}

impl SweepState {
    fn slot(&mut self, slot: Slot) -> &mut Poly1 {
        match slot {
            Slot::Node(v) => &mut self.polys[v],
            Slot::Seg { seg, idx } => &mut self.segs[seg].seg[idx],
        }
    }

    /// Logs a copy of the polynomial at `slot` before it is overwritten.
    fn save(&mut self, slot: Slot) {
        let mut copy = self.spare.pop().unwrap_or_default();
        copy.copy_from(self.slot(slot));
        self.undo.push((slot, copy));
    }

    /// Restores every logged polynomial, newest first, so the state is bit
    /// for bit what it was before the logged changes (which a flush must
    /// have followed, so nothing is left stale).
    fn rollback(&mut self) {
        while let Some((slot, mut saved)) = self.undo.pop() {
            std::mem::swap(self.slot(slot), &mut saved);
            self.spare.push(saved);
        }
    }
}

/// Writes an ∨ node's polynomial `(1 − Σ p) + Σ p·A_child` into `out`, with
/// the children's polynomials read from `polys` (indexed by node id): the
/// arithmetic of [`Poly1::xor_combine`], without copying the children.
fn xor_mix(out: &mut Poly1, children: &[(NodeId, f64)], polys: &[Poly1]) {
    let leftover = 1.0 - children.iter().map(|(_, p)| p).sum::<f64>();
    out.set_constant(leftover);
    for (c, p) in children {
        out.add_scaled_assign(&polys[c.0], *p);
    }
}

/// The out-rank order of targets: decreasing value, then increasing key
/// (equal scores rank the smaller key higher).
fn target_order(a: &(TupleKey, f64), b: &(TupleKey, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

impl SweepPlan {
    /// The plan and the initial state, in which every leaf is the constant 1.
    fn new(tree: &AndXorTree, max_rank: usize) -> (Self, SweepState) {
        let plan = Self::plan(tree, max_rank);
        let state = plan.state(tree, &plan.one);
        (plan, state)
    }

    /// The immutable precomputation for sweeps truncated below `max_rank`.
    fn plan(tree: &AndXorTree, max_rank: usize) -> Self {
        debug_assert!(max_rank >= 1);
        let trunc = Truncation::Degree(max_rank - 1);
        let n = tree.nodes.len();

        // ∧ nodes number their product trees in id order.
        let mut links = vec![None; n];
        let mut and_nodes = 0;
        for (id, node) in tree.nodes.iter().enumerate() {
            if let Node::Inner { kind, children } = node {
                for (index, &(c, p)) in children.iter().enumerate() {
                    debug_assert!(c.0 < id, "builder ids are topological");
                    links[c.0] = Some(match kind {
                        NodeKind::Xor => Link::Xor { parent: id, p },
                        NodeKind::And => Link::And {
                            parent: id,
                            seg: and_nodes,
                            index,
                        },
                    });
                }
                if *kind == NodeKind::And {
                    and_nodes += 1;
                }
            }
        }

        // Every leaf as `(key, value, leaf id, key position)`. Numbering the
        // distinct keys in increasing order gives each its position in
        // [`AndXorTree::keys`].
        let mut leaves: Vec<(TupleKey, f64, usize, usize)> = tree
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(id, node)| match node {
                Node::Leaf(a) => Some((a.key, a.value.0, id, 0)),
                Node::Inner { .. } => None,
            })
            .collect();
        leaves.sort_unstable_by_key(|l| l.0);
        let mut keys = Vec::new();
        for run in leaves.chunk_by_mut(|x, y| x.0 == y.0) {
            keys.push(run[0].0);
            for leaf in run {
                leaf.3 = keys.len() - 1;
            }
        }
        // Group the leaves per distinct (key, value-bits) alternative, in the
        // out-rank order: `total_cmp` returns `Equal` only for identical bit
        // patterns, so `target_order` is `Equal` exactly within a group, and
        // a group's leaves stay in id order.
        let order = |x: &(TupleKey, f64, usize, usize), y: &(TupleKey, f64, usize, usize)| {
            target_order(&(x.0, x.1), &(y.0, y.1))
        };
        leaves.sort_unstable_by(|x, y| order(x, y).then(x.2.cmp(&y.2)));
        let mut start = 0;
        let targets = leaves
            .chunk_by(|x, y| order(x, y).is_eq())
            .map(|run| {
                start += run.len();
                Target {
                    position: run[0].3,
                    leaves: start - run.len()..start,
                }
            })
            .collect();
        let target_leaves = leaves.iter().map(|l| l.2).collect();

        let x_poly = if max_rank == 1 {
            Poly1::from_coeffs(vec![0.0])
        } else {
            Poly1::x()
        };
        SweepPlan {
            links,
            targets,
            target_leaves,
            keys,
            root: tree.root.0,
            trunc,
            x_poly,
            one: Poly1::constant(1.0),
            zero: Poly1::zero(),
        }
    }

    /// The state in which every leaf is assigned `leaf`, built bottom-up;
    /// builder node ids are topological so ascending order visits children
    /// first.
    fn state(&self, tree: &AndXorTree, leaf: &Poly1) -> SweepState {
        let trunc = self.trunc;
        let mut scratch = Vec::new();
        let mut polys: Vec<Poly1> = Vec::with_capacity(tree.nodes.len());
        let mut segs: Vec<AndSeg> = Vec::new();
        for node in &tree.nodes {
            let poly = match node {
                Node::Leaf(_) => leaf.clone(),
                Node::Inner { kind, children } => match kind {
                    NodeKind::Xor => {
                        let mut mix = Poly1::zero();
                        xor_mix(&mut mix, children, &polys);
                        mix
                    }
                    NodeKind::And => {
                        let children = children.iter().map(|(c, _)| &polys[c.0]);
                        let seg = AndSeg::new(children, trunc, &mut scratch);
                        let root = seg.root().clone();
                        segs.push(seg);
                        root
                    }
                },
            };
            polys.push(poly);
        }

        SweepState {
            is_stale: vec![false; polys.len()],
            stale_entries: vec![Vec::new(); segs.len()],
            polys,
            segs,
            scratch,
            acc: Poly1::constant(1.0),
            stale: Vec::new(),
            undo: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Flips one leaf from the constant 1 to `x` and refreshes the cached
    /// polynomials on its root path: an `O(k)` mixture delta at ∨ parents, an
    /// `O(log fanout)` product-tree refresh at ∧ parents.
    fn activate_leaf(&self, st: &mut SweepState, leaf: usize) {
        let mut old_child = std::mem::replace(&mut st.polys[leaf], self.x_poly.clone());
        let mut child = leaf;
        while let Some(link) = self.links[child] {
            let parent = link.parent();
            let old_parent = st.polys[parent].clone();
            // Builder node ids are topological (child < parent), so the slice
            // splits cleanly into the child's and the parent's halves.
            let (lo, hi) = st.polys.split_at_mut(parent);
            match link {
                // A_∨ = leftover + Σ p_i · A_i, so a child change is a linear
                // delta: A_∨ += p · (new − old).
                Link::Xor { p, .. } => hi[0].mixture_delta_assign(&lo[child], &old_child, p),
                Link::And { seg, index, .. } => {
                    let seg = &mut st.segs[seg];
                    seg.update(index, &lo[child], self.trunc, &mut st.scratch);
                    hi[0].copy_from(seg.root());
                }
            }
            old_child = old_parent;
            child = parent;
        }
    }

    /// Assigns `poly` to one leaf and marks its root path stale, leaving the
    /// refresh to [`Self::flush`]: many assignments between two reads then
    /// refresh each shared ancestor once. With `log`, the overwritten
    /// polynomial is saved for [`SweepState::rollback`]. The rank sweep
    /// keeps [`Self::activate_leaf`]: a flush recombines ∨ nodes from
    /// scratch, which would change the bits of every rank table.
    fn defer_leaf(&self, st: &mut SweepState, leaf: usize, poly: &Poly1, log: bool) {
        if log {
            st.save(Slot::Node(leaf));
        }
        st.polys[leaf].copy_from(poly);
        let mut node = Some(leaf);
        while let Some(v) = node.filter(|&v| !st.is_stale[v]) {
            st.is_stale[v] = true;
            st.stale.push(v);
            node = self.links[v].map(Link::parent);
        }
    }

    /// Refreshes every stale node once, children first: an ∨ node is
    /// recombined from its children, an ∧ node refreshes each stale entry of
    /// its product tree once, level by level. With `log`, every overwritten
    /// polynomial is saved for [`SweepState::rollback`].
    fn flush(&self, tree: &AndXorTree, st: &mut SweepState, log: bool) {
        let mut stale = std::mem::take(&mut st.stale);
        stale.sort_unstable();
        for &v in &stale {
            st.is_stale[v] = false;
            if let Node::Inner { kind, children } = &tree.nodes[v] {
                if log {
                    st.save(Slot::Node(v));
                }
                match kind {
                    NodeKind::Xor => {
                        let (lo, hi) = st.polys.split_at_mut(v);
                        xor_mix(&mut hi[0], children, lo);
                    }
                    NodeKind::And => {
                        // An ∧ node is stale only through a stale child.
                        let Some(Link::And { seg, .. }) =
                            children.first().and_then(|(c, _)| self.links[c.0])
                        else {
                            continue;
                        };
                        let mut entries = std::mem::take(&mut st.stale_entries[seg]);
                        entries.sort_unstable();
                        while entries.first().is_some_and(|&idx| idx > 1) {
                            for idx in &mut entries {
                                *idx /= 2;
                            }
                            entries.dedup();
                            for &idx in &entries {
                                if log {
                                    st.save(Slot::Seg { seg, idx });
                                }
                                st.segs[seg].recompute(idx, self.trunc, &mut st.scratch);
                            }
                        }
                        entries.clear();
                        st.stale_entries[seg] = entries;
                        st.polys[v].copy_from(st.segs[seg].root());
                    }
                }
            }
            if let Some(Link::And { seg, index, .. }) = self.links[v] {
                let idx = st.segs[seg].size + index;
                if log {
                    st.save(Slot::Seg { seg, idx });
                }
                st.segs[seg].seg[idx].copy_from(&st.polys[v]);
                st.stale_entries[seg].push(idx);
            }
        }
        stale.clear();
        st.stale = stale;
    }

    /// The leaves of `target`.
    fn leaves(&self, target: &Target) -> &[usize] {
        &self.target_leaves[target.leaves.clone()]
    }

    /// `Pr(leaf present)`: the product of the ∨-edge probabilities on its
    /// root path.
    fn presence(&self, leaf: usize) -> f64 {
        let mut probability = 1.0;
        let mut child = leaf;
        while let Some(link) = self.links[child] {
            if let Link::Xor { p, .. } = link {
                probability *= p;
            }
            child = link.parent();
        }
        probability
    }

    /// Writes the rank polynomial of `target` under the current activation
    /// state into `out`: entry `i` is `Pr(r(t) = i + 1)` (the coefficient of
    /// `x^i y` in the bivariate formulation of Example 3). Recovered without
    /// a tree sweep: for each leaf of the target, the `y`-part propagates to
    /// the root as (∨-edge probabilities along the path) × (leave-one-out
    /// sibling products at ∧ ancestors); the contributions of several leaves
    /// add.
    fn query(&self, st: &mut SweepState, target: &Target, out: &mut [f64]) {
        out.fill(0.0);
        for &leaf in self.leaves(target) {
            let mut path_probability = 1.0;
            st.acc.copy_from(&self.one);
            let mut child = leaf;
            while let Some(link) = self.links[child] {
                match link {
                    Link::Xor { p, .. } => path_probability *= p,
                    Link::And { seg, index, .. } => st.segs[seg].mul_excluding_into(
                        index,
                        &mut st.acc,
                        self.trunc,
                        &mut st.scratch,
                    ),
                }
                child = link.parent();
            }
            for (i, slot) in out.iter_mut().enumerate() {
                *slot += path_probability * st.acc.coeff(i);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Co-presence primitive shared by the pairwise batch statistics.
// ---------------------------------------------------------------------------

/// One distinct alternative of a key: its value, its leaves (a range of
/// [`CopresencePlan::group_leaves`]) and its marginal presence probability
/// (leaf presences sum; same-key leaves are mutually exclusive).
#[derive(Debug, Clone)]
struct AltGroup {
    value: f64,
    leaves: Range<usize>,
    presence: f64,
}

/// Root-to-leaf ∨-edge paths for every leaf, grouped per key — the shared
/// precomputation behind [`AndXorTree::batch_pairwise_order`] and
/// [`AndXorTree::batch_cocluster_weights`]. Every table is one flat vector
/// indexed through offsets, so building a plan costs a handful of
/// allocations however large the tree.
struct CopresencePlan {
    /// Per leaf (in DFS order): offset of its path in `edges`, offset of
    /// its `len + 1` products in `prefix` / `suffix`, and the path length.
    paths: Vec<(usize, usize, usize)>,
    /// `(xor node, child index)` per ∨ edge, root to leaf, all paths
    /// concatenated.
    edges: Vec<(usize, usize)>,
    /// `prefix[off + d]` = product of the path's first `d` edge
    /// probabilities.
    prefix: Vec<f64>,
    /// `suffix[off + d]` = product of the path's edge probabilities from
    /// `d` to the end.
    suffix: Vec<f64>,
    /// Leaf (path) indices, grouped per alternative.
    group_leaves: Vec<usize>,
    /// Alternative groups, per key in decreasing value order.
    groups: Vec<AltGroup>,
    /// Per key, sorted by key: its range of `groups` and its marginal
    /// presence probability (sum over its alternatives).
    keys: Vec<(TupleKey, Range<usize>, f64)>,
}

impl CopresencePlan {
    fn new(tree: &AndXorTree) -> Self {
        let mut paths = Vec::new();
        let mut edges = Vec::new();
        let mut prefix = Vec::new();
        let mut suffix = Vec::new();
        // `(key, value, path index, presence)` per leaf, in DFS order.
        let mut leaves: Vec<(TupleKey, f64, usize, f64)> = Vec::new();

        // Iterative DFS carrying the current ∨-edge stack; each stack frame
        // is `(node, next child index to visit)`, popped and pushed back
        // with the index advanced while children remain.
        let mut stack: Vec<(usize, usize)> = vec![(tree.root.0, 0)];
        let mut edge_stack: Vec<(usize, usize, f64)> = Vec::new();
        while let Some((id, next)) = stack.pop() {
            match &tree.nodes[id] {
                Node::Leaf(a) => {
                    let len = edge_stack.len();
                    let (edge_off, prob_off) = (edges.len(), prefix.len());
                    edges.extend(edge_stack.iter().map(|&(n, c, _)| (n, c)));
                    prefix.push(1.0);
                    for d in 0..len {
                        prefix.push(prefix[prob_off + d] * edge_stack[d].2);
                    }
                    suffix.resize(prob_off + len + 1, 1.0);
                    for d in (0..len).rev() {
                        suffix[prob_off + d] = suffix[prob_off + d + 1] * edge_stack[d].2;
                    }
                    leaves.push((a.key, a.value.0, paths.len(), suffix[prob_off]));
                    paths.push((edge_off, prob_off, len));
                }
                Node::Inner { kind, children } => {
                    // Returning from a previous ∨ child: drop its edge.
                    if next > 0 && *kind == NodeKind::Xor {
                        edge_stack.pop();
                    }
                    if next == children.len() {
                        continue;
                    }
                    let (c, p) = children[next];
                    if *kind == NodeKind::Xor {
                        edge_stack.push((id, next, p));
                    }
                    stack.push((id, next + 1));
                    stack.push((c.0, 0));
                }
            }
        }

        // Group the leaves per key and, within a key, per value (bit-equal
        // values share a group) in decreasing value order. The sort is
        // stable, so each group's leaves stay in DFS order.
        leaves.sort_by(|x, y| x.0.cmp(&y.0).then(y.1.total_cmp(&x.1)));
        let mut group_leaves = Vec::with_capacity(leaves.len());
        let mut groups = Vec::new();
        let mut keys = Vec::new();
        for run in leaves.chunk_by(|x, y| x.0 == y.0) {
            let first = groups.len();
            for alt in run.chunk_by(|x, y| x.1.to_bits() == y.1.to_bits()) {
                let start = group_leaves.len();
                group_leaves.extend(alt.iter().map(|l| l.2));
                groups.push(AltGroup {
                    value: alt[0].1,
                    leaves: start..group_leaves.len(),
                    presence: alt.iter().fold(0.0, |acc, l| acc + l.3),
                });
            }
            let presence = groups[first..].iter().map(|g| g.presence).sum();
            keys.push((run[0].0, first..groups.len(), presence));
        }
        CopresencePlan {
            paths,
            edges,
            prefix,
            suffix,
            group_leaves,
            groups,
            keys,
        }
    }

    /// `Pr(leaf i present ∧ leaf j present)`: the product of the ∨-edge
    /// probabilities on the union of the two root paths (shared prefix edges
    /// counted once), or `0` when the paths take different children of a
    /// common ∨ ancestor (mutual exclusion).
    fn leaf_copresence(&self, i: usize, j: usize) -> f64 {
        let (a_edge, a_prob, a_len) = self.paths[i];
        let (b_edge, b_prob, b_len) = self.paths[j];
        let a = &self.edges[a_edge..a_edge + a_len];
        let b = &self.edges[b_edge..b_edge + b_len];
        let mut d = 0;
        while d < a.len() && d < b.len() && a[d] == b[d] {
            d += 1;
        }
        if d < a.len() && d < b.len() && a[d].0 == b[d].0 {
            // Same ∨ node, different child: the leaves are mutually exclusive.
            return 0.0;
        }
        self.prefix[a_prob + d] * self.suffix[a_prob + d] * self.suffix[b_prob + d]
    }

    /// `Pr(α present ∧ β present)` for two alternative groups of *different*
    /// keys (sums over their leaf pairs; at most one leaf per group is
    /// present in any world).
    fn group_copresence(&self, a: &AltGroup, b: &AltGroup) -> f64 {
        let mut total = 0.0;
        for &la in &self.group_leaves[a.leaves.clone()] {
            for &lb in &self.group_leaves[b.leaves.clone()] {
                total += self.leaf_copresence(la, lb);
            }
        }
        total
    }

    /// Each key's side of a pairwise entry, resolved once per key so the
    /// per-pair evaluation does no lookup.
    fn sides(&self, keys: &[TupleKey]) -> Vec<KeySide<'_>> {
        keys.iter()
            .map(
                |&key| match self.keys.binary_search_by(|probe| probe.0.cmp(&key)) {
                    Ok(at) => {
                        let (_, range, presence) = &self.keys[at];
                        KeySide {
                            key,
                            groups: Some(&self.groups[range.clone()]),
                            presence: *presence,
                        }
                    }
                    Err(_) => KeySide {
                        key,
                        groups: None,
                        presence: 0.0,
                    },
                },
            )
            .collect()
    }
}

/// One key's side of a pairwise entry.
struct KeySide<'p> {
    key: TupleKey,
    /// The key's alternative groups; `None` for a key with no leaves.
    groups: Option<&'p [AltGroup]>,
    /// Marginal presence probability (0 for a key with no leaves).
    presence: f64,
}

/// One entry of the pairwise-order tournament:
/// `Pr(r(a) < r(b)) = Σ_α Pr(α) − Σ_{α, β out-ranking α} Pr(α ∧ β)` — `b`'s
/// alternatives are mutually exclusive, so "some out-ranking alternative of
/// `b` present" expands into disjoint co-presences. Shared by the full batch
/// build and the partial (live-update) patch path so both produce
/// bit-identical values for the same tree.
fn pairwise_entry(plan: &CopresencePlan, a: &KeySide<'_>, b: &KeySide<'_>) -> f64 {
    let Some(ga) = a.groups else {
        return 0.0;
    };
    let mut total: f64 = ga.iter().map(|g| g.presence).sum();
    if let Some(gb) = b.groups {
        for alt_a in ga {
            for alt_b in gb {
                let outranks =
                    alt_b.value > alt_a.value || (alt_b.value == alt_a.value && b.key < a.key);
                if outranks {
                    total -= plan.group_copresence(alt_a, alt_b);
                }
            }
        }
    }
    clamp_probability(total)
}

/// One entry of the co-clustering weight matrix:
/// `w_{ab} = Pr(a, b take the same value) + Pr(a, b both absent)`. Shared by
/// the full batch build and the partial patch path (see [`pairwise_entry`]).
fn cocluster_entry(plan: &CopresencePlan, a: &KeySide<'_>, b: &KeySide<'_>) -> f64 {
    let (Some(ga), Some(gb)) = (a.groups, b.groups) else {
        // A key with no leaves is never present; it co-clusters with
        // another exactly when that other key is absent too.
        return clamp_probability(1.0 - a.presence - b.presence);
    };
    let mut same_value = 0.0;
    let mut both_present = 0.0;
    for alt_a in ga {
        for alt_b in gb {
            let c = plan.group_copresence(alt_a, alt_b);
            both_present += c;
            if alt_a.value == alt_b.value {
                same_value += clamp_probability(c);
            }
        }
    }
    let same_value = clamp_probability(same_value);
    let both_absent = clamp_probability(1.0 - a.presence - b.presence + both_present);
    (same_value + both_absent).clamp(0.0, 1.0)
}

/// Below this many entries a pairwise evaluation runs on the calling
/// thread: an entry costs well under a microsecond, so spawning workers
/// would cost more than it saves (a live patch touches a few rows only).
const MIN_PARALLEL_ENTRIES: usize = 4096;

/// Position of the pair `(i, j)`, `i < j < n`, in a strict upper triangle
/// over `n` keys stored row by row: row `i` holds the pairs `(i, i + 1..n)`,
/// so the triangle has `n(n − 1)/2` entries.
#[inline]
pub fn upper_triangle_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(
        i < j && j < n,
        "({i}, {j}) is not an upper-triangle pair of {n}"
    );
    i * (2 * n - i - 1) / 2 + (j - i - 1)
}

/// Evaluates `entry` for the key pairs at the row-major positions `fresh`
/// of the `keys × keys` matrix (on one shared [`CopresencePlan`], in
/// parallel when there are enough of them) and writes each result to
/// `out[slot(position)]`. The plan is built only when there is something to
/// evaluate, so a patch that touches no key costs one copy of the old
/// entries.
fn fill_fresh<F, S>(
    tree: &AndXorTree,
    keys: &[TupleKey],
    out: &mut [f64],
    fresh: &[usize],
    threads: usize,
    entry: F,
    slot: S,
) where
    F: Fn(&CopresencePlan, &KeySide<'_>, &KeySide<'_>) -> f64 + Sync,
    S: Fn(usize) -> usize,
{
    if fresh.is_empty() {
        return;
    }
    let threads = if fresh.len() < MIN_PARALLEL_ENTRIES {
        1
    } else {
        threads
    };
    let plan = CopresencePlan::new(tree);
    let sides = plan.sides(keys);
    let n = keys.len();
    let values = parallel_map_indexed(threads, fresh.len(), |t| {
        let idx = fresh[t];
        entry(&plan, &sides[idx / n], &sides[idx % n])
    });
    for (&idx, w) in fresh.iter().zip(values) {
        out[slot(idx)] = w;
    }
}

// ---------------------------------------------------------------------------
// Public batch API.
// ---------------------------------------------------------------------------

/// The terms of `E[d_K]` that [`AndXorTree::batch_kendall_pool`] computes
/// over a pool of `m` keys at `k`: the presence and absent-size terms per
/// pool key, and `P(j, i)` for every ordered pool pair, so the distance of
/// any list drawn from the pool is a sum over this table. The remaining
/// term, `E[min(A_i, k) · 1{i present}]`, is read off the rank-PMF row of
/// `i` and its presence.
#[derive(Debug, Clone, PartialEq)]
pub struct KendallPool {
    /// `Pr(i present)`, per pool key.
    pub presence: Vec<f64>,
    /// `E[min(|W|, k) · 1{i absent}]`, per pool key.
    pub absent_size: Vec<f64>,
    /// Row-major `m × m`: entry `j·m + i` is
    /// `P(j, i) = Pr(r(j) ≤ k ∧ r(j) < r(i))`; the diagonal is 0.
    pub ahead: Vec<f64>,
}

impl KendallPool {
    /// `P(pool[j], pool[i])`.
    pub fn ahead(&self, j: usize, i: usize) -> f64 {
        self.ahead[j * self.presence.len() + i]
    }
}

impl AndXorTree {
    /// Rank distributions of every tuple up to `max_rank`, computed by a
    /// single shared sweep instead of one generating-function sweep per key
    /// (see the module docs for the algorithm). Returns a row-major
    /// `keys().len() × max_rank` table: row `p` belongs to the key at
    /// position `p` of [`AndXorTree::keys`], with `row[i - 1] = Pr(r(t) =
    /// i)`. Every entry is within `1e-12` of the per-key reference in
    /// `cpdb_testkit::rank`.
    pub fn batch_rank_pmfs(&self, max_rank: usize) -> Vec<f64> {
        if max_rank == 0 {
            return Vec::new();
        }
        let (plan, mut st) = SweepPlan::new(self, max_rank);
        let mut out = vec![0.0; plan.keys.len() * max_rank];
        let mut pmf = vec![0.0; max_rank];
        for (t, target) in plan.targets.iter().enumerate() {
            plan.query(&mut st, target, &mut pmf);
            // A key's targets add into its row in the out-rank order.
            let row = &mut out[target.position * max_rank..][..max_rank];
            for (acc, v) in row.iter_mut().zip(&pmf) {
                *acc += v;
            }
            // The next target is out-ranked by this one.
            if t + 1 < plan.targets.len() {
                for &leaf in plan.leaves(target) {
                    plan.activate_leaf(&mut st, leaf);
                }
            }
        }
        for p in &mut out {
            *p = clamp_probability(*p);
        }
        out
    }

    /// The terms of the exact expected Kendall Top-k distance of every list
    /// drawn from `pool` (without duplicate keys) at `k`; see
    /// [`KendallPool`]. With `A_i` the number of present tuples that
    /// out-rank `i` (or `|W|` when `i` is absent) and
    /// `P(j, i) = Pr(r(j) ≤ k ∧ r(j) < r(i))`, an absent tuple ranking ∞,
    /// the distance of a list `τ` is
    /// `Σ_{i∈τ} (E[min(A_i, k)] − Σ_{j before i in τ} P(j, i))`.
    ///
    /// Every term comes from one sweep plan and one chronological sweep
    /// truncated at x-degree `k − 1`, in the out-rank order of
    /// [`AndXorTree::batch_rank_pmfs`]:
    ///
    /// * at each alternative `a` of a pool key `j`, the leaves out-ranking
    ///   `a` are `x` and the rest 1. `Σ_{d<k} coeff(x^d y)` of `a` is read
    ///   once as in the rank query; then, for each other pool key `i`
    ///   holding an alternative that out-ranks `a`, those leaves of `i` are
    ///   set to 0 along their root paths only, the sum is read again, and
    ///   the paths are rolled back. Each read adds `a`'s share of
    ///   `P(j, i)`;
    /// * once every leaf is `x`, each pool key's leaves are set to 0 in turn
    ///   to read `Pr(i absent ∧ |W| = d)`, `d < k`, off the root.
    ///
    /// Leaves flip between two reads without refreshing their ancestors;
    /// the read first refreshes each stale node once (an ∨ node from its
    /// children, an ∧ node through `O(log fanout)` truncated products per
    /// stale child in its product tree). So no world is sampled and no
    /// whole-tree sweep runs per term. At `k = 0` every entry is 0, as is
    /// every distance.
    pub fn batch_kendall_pool(&self, pool: &[TupleKey], k: usize) -> KendallPool {
        let m = pool.len();
        let mut presence = vec![0.0; m];
        let mut absent_size = vec![0.0; m];
        let mut ahead = vec![0.0; m * m];
        if k == 0 || m == 0 {
            return KendallPool {
                presence,
                absent_size,
                ahead,
            };
        }
        let plan = SweepPlan::plan(self, k);
        // The slot of each key position, and each pool key's leaves with the
        // index of the target they belong to.
        let mut slot_of = vec![None; plan.keys.len()];
        for (p, key) in pool.iter().enumerate() {
            if let Ok(at) = plan.keys.binary_search(key) {
                slot_of[at] = Some(p);
            }
        }
        let mut leaves: Vec<Vec<(usize, usize)>> = vec![Vec::new(); m];
        for (t, target) in plan.targets.iter().enumerate() {
            if let Some(p) = slot_of[target.position] {
                leaves[p].extend(plan.leaves(target).iter().map(|&leaf| (t, leaf)));
            }
        }
        for (presence, own) in presence.iter_mut().zip(&leaves) {
            *presence = clamp_probability(own.iter().map(|&(_, leaf)| plan.presence(leaf)).sum());
        }

        // P(j, i), one alternative of `j` at a time, in the out-rank order:
        // when target `t` is read, every leaf of an earlier target is `x`.
        let mut st = plan.state(self, &plan.one);
        let mut rank = vec![0.0; k];
        for (t, target) in plan.targets.iter().enumerate() {
            if let Some(j) = slot_of[target.position] {
                if m > 1 {
                    plan.flush(self, &mut st, false);
                    plan.query(&mut st, target, &mut rank);
                    let unmasked: f64 = rank.iter().sum();
                    for i in (0..m).filter(|&i| i != j) {
                        let mut masked = false;
                        for &(_, leaf) in leaves[i].iter().filter(|&&(u, _)| u < t) {
                            plan.defer_leaf(&mut st, leaf, &plan.zero, true);
                            masked = true;
                        }
                        if masked {
                            plan.flush(self, &mut st, true);
                            plan.query(&mut st, target, &mut rank);
                            st.rollback();
                            ahead[j * m + i] += rank.iter().sum::<f64>();
                        } else {
                            ahead[j * m + i] += unmasked;
                        }
                    }
                }
            }
            for &leaf in plan.leaves(target) {
                plan.defer_leaf(&mut st, leaf, &plan.x_poly, false);
            }
        }

        // Every leaf is `x` now. E[min(|W|, k) · 1{i absent}] from
        // Pr(i absent ∧ |W| = d), d < k.
        plan.flush(self, &mut st, false);
        for ((size, own), presence) in absent_size.iter_mut().zip(&leaves).zip(&presence) {
            for &(_, leaf) in own {
                plan.defer_leaf(&mut st, leaf, &plan.zero, true);
            }
            plan.flush(self, &mut st, true);
            let sizes = &st.polys[plan.root];
            let (mut mass, mut weighted) = (0.0, 0.0);
            for d in 0..k {
                let c = sizes.coeff(d);
                mass += c;
                weighted += d as f64 * c;
            }
            st.rollback();
            *size = weighted + k as f64 * (1.0 - presence - mass);
        }
        KendallPool {
            presence,
            absent_size,
            ahead,
        }
    }

    /// The full pairwise-order tournament `Pr(r(keys[i]) < r(keys[j]))` as a
    /// row-major `keys.len() × keys.len()` matrix (diagonal `0`), computed
    /// from one shared root-path extraction instead of `O(n²)` per-pair
    /// generating-function sweeps. Every entry is within `1e-12` of the
    /// per-pair reference in `cpdb_testkit::rank`.
    ///
    /// `threads = 0` means "auto"; results are bit-identical at any thread
    /// count.
    pub fn batch_pairwise_order(&self, keys: &[TupleKey], threads: usize) -> Vec<f64> {
        let n = keys.len();
        let mut out = vec![0.0; n * n];
        let off_diagonal: Vec<usize> = (0..n * n).filter(|idx| idx / n != idx % n).collect();
        fill_fresh(
            self,
            keys,
            &mut out,
            &off_diagonal,
            threads,
            pairwise_entry,
            |idx| idx,
        );
        out
    }

    /// The co-clustering weights `w_{ij} = Pr(i, j take the same value) +
    /// Pr(i, j both absent)` (§6.2) over `keys` as a strict upper triangle:
    /// `n(n − 1)/2` entries, the pair `(i, j)`, `i < j`, at
    /// [`upper_triangle_index`]. The matrix is symmetric with a unit
    /// diagonal, so the triangle is all of it. Computed from the same shared
    /// root-path extraction as [`AndXorTree::batch_pairwise_order`]; every
    /// entry is within `1e-12` of the per-pair reference in
    /// `cpdb_testkit::rank`.
    ///
    /// `threads = 0` means "auto"; results are bit-identical at any thread
    /// count.
    pub fn batch_cocluster_weights(&self, keys: &[TupleKey], threads: usize) -> Vec<f64> {
        // The full build is the patch path with every pair recomputed, so
        // "patched ≡ rebuilt" holds by construction.
        let recompute = vec![true; keys.len()];
        self.batch_cocluster_weights_partial(
            keys,
            &recompute,
            |_, _| unreachable!("every pair is recomputed"),
            threads,
        )
    }

    /// The **patch path** of [`AndXorTree::batch_cocluster_weights`] for
    /// live updates: recomputes only the pairs with a key flagged in
    /// `recompute` and takes every other pair `(i, j)`, `i < j`, from
    /// `old_entry(i, j)`. Recomputed pairs use the identical per-pair closed
    /// form as the full build, and pairs whose keys' ∨-edge paths the
    /// mutation did not touch are unchanged inputs to it, so the patched
    /// triangle is **bit-identical** to a from-scratch rebuild when
    /// `old_entry` serves pre-mutation values for untouched pairs, at
    /// `O(|affected|·n)` pair evaluations instead of `O(n²)`.
    pub fn batch_cocluster_weights_partial<F>(
        &self,
        keys: &[TupleKey],
        recompute: &[bool],
        old_entry: F,
        threads: usize,
    ) -> Vec<f64>
    where
        F: Fn(usize, usize) -> f64 + Sync,
    {
        assert_eq!(keys.len(), recompute.len(), "one recompute flag per key");
        let n = keys.len();
        let mut out = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        let mut fresh = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                if recompute[i] || recompute[j] {
                    fresh.push(i * n + j);
                    out.push(0.0);
                } else {
                    out.push(old_entry(i, j));
                }
            }
        }
        fill_fresh(
            self,
            keys,
            &mut out,
            &fresh,
            threads,
            cocluster_entry,
            |idx| upper_triangle_index(n, idx / n, idx % n),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::AndXorTreeBuilder;
    use cpdb_model::WorldModel;

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

    fn nested_tree() -> AndXorTree {
        // ∧( ∨( ∧(k1, k2) : 0.5, k3 : 0.3 ), ∨(k4 : 0.6, k4' : 0.3), k5-block )
        let mut b = AndXorTreeBuilder::new();
        let l1 = b.leaf_parts(1, 9.0);
        let l2 = b.leaf_parts(2, 7.0);
        let bundle = b.and_node(vec![l1, l2]);
        let l3 = b.leaf_parts(3, 8.0);
        let x1 = b.xor_node(vec![(bundle, 0.5), (l3, 0.3)]);
        let l4a = b.leaf_parts(4, 6.0);
        let l4b = b.leaf_parts(4, 3.0);
        let x2 = b.xor_node(vec![(l4a, 0.6), (l4b, 0.3)]);
        let l5 = b.leaf_parts(5, 5.0);
        let x3 = b.xor_node(vec![(l5, 0.7)]);
        let root = b.and_node(vec![x1, x2, x3]);
        b.build(root).unwrap()
    }

    #[test]
    fn batch_rank_pmfs_zero_rank_and_single_leaf() {
        let tree = independent_tree(&[(1, 9.0, 0.5)]);
        assert!(tree.batch_rank_pmfs(0).is_empty());
        let one = tree.batch_rank_pmfs(1);
        assert_eq!(one.len(), 1);
        assert!((one[0] - 0.5).abs() < 1e-12);

        // A bare-leaf root (always present) is handled too.
        let mut b = AndXorTreeBuilder::new();
        let root = b.leaf_parts(7, 1.0);
        let tree = b.build(root).unwrap();
        let pmf = tree.batch_rank_pmfs(1);
        assert!((pmf[0] - 1.0).abs() < 1e-12);
    }

    /// Every entry of the pool table against its definition over the
    /// enumerated worlds, for the tree's keys plus an unknown key in both
    /// orders, at every `k` up to the pool size.
    #[test]
    fn batch_kendall_pool_matches_the_worlds() {
        for tree in [
            bid_tree(),
            nested_tree(),
            crate::figure1::figure1_correlated_tree(),
        ] {
            let worlds = tree.enumerate_worlds();
            let mut forward = tree.keys();
            forward.push(TupleKey(99));
            let backward: Vec<TupleKey> = forward.iter().rev().copied().collect();
            for pool in [forward, backward] {
                let m = pool.len();
                for k in 0..=m {
                    let table = tree.batch_kendall_pool(&pool, k);
                    assert_eq!(table.ahead.len(), m * m);
                    for (j, &a) in pool.iter().enumerate() {
                        let presence = if k == 0 { 0.0 } else { worlds.marginal_key(a) };
                        let absent_size = worlds.expectation(|w| {
                            if w.contains_key(a) {
                                0.0
                            } else {
                                w.len().min(k) as f64
                            }
                        });
                        for (name, got, want) in [
                            ("presence", table.presence[j], presence),
                            ("absent size", table.absent_size[j], absent_size),
                        ] {
                            assert!(
                                (got - want).abs() < 1e-12,
                                "{name} of {a:?} at k={k}: {got} vs {want}"
                            );
                        }
                        for (i, &b) in pool.iter().enumerate() {
                            let want = if i == j || k == 0 {
                                0.0
                            } else {
                                worlds.expectation(|w| match (w.rank_of(a), w.rank_of(b)) {
                                    (Some(ra), rb) => {
                                        f64::from(ra <= k && rb.is_none_or(|rb| ra < rb))
                                    }
                                    (None, _) => 0.0,
                                })
                            };
                            let got = table.ahead(j, i);
                            assert!(
                                (got - want).abs() < 1e-12,
                                "P({a:?}, {b:?}) at k={k}: {got} vs {want}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pairwise_batch_is_thread_count_invariant() {
        let tree = nested_tree();
        let keys = tree.keys();
        let one = tree.batch_pairwise_order(&keys, 1);
        let eight = tree.batch_pairwise_order(&keys, 8);
        for (x, y) in one.iter().zip(&eight) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn pool_subsets_restrict_the_tournament() {
        let tree = bid_tree();
        let keys = tree.keys();
        let full = tree.batch_pairwise_order(&keys, 1);
        let pool = vec![TupleKey(2), TupleKey(3)];
        let m = tree.batch_pairwise_order(&pool, 1);
        assert_eq!(m.len(), 4);
        // Keys 1..=4: the pair (2, 3) is row 1, column 2 of the full matrix.
        assert_eq!(m[1].to_bits(), full[keys.len() + 2].to_bits());
        assert_eq!(m[2].to_bits(), full[2 * keys.len() + 1].to_bits());
    }
}
