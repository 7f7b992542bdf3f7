//! # cpdb-andxor — the probabilistic and/xor tree model
//!
//! The probabilistic and/xor tree (Li & Deshpande, PODS 2009, §3.2) is a
//! correlation model for probabilistic databases that captures two kinds of
//! correlation between tuple alternatives:
//!
//! * **mutual exclusion** at ∨ (xor) nodes — at most one child materialises,
//!   child `v` with probability `Pr(u, v)`, none with the leftover mass;
//! * **co-existence** at ∧ (and) nodes — every child materialises together.
//!
//! Leaves are tuple alternatives (`(key, value)` pairs). The model strictly
//! generalises tuple-independent databases, the block-independent-disjoint
//! scheme, and x-tuples (conversions are provided in [`convert`]) and can
//! encode arbitrary finite world distributions (Figure 1(iii) of the paper).
//!
//! Its key algorithmic property is that many probability computations reduce
//! to evaluating a **generating function** over the tree (§3.3, Theorem 1):
//! assign a polynomial variable to each leaf, take products at ∧ nodes and
//! probability-weighted mixtures at ∨ nodes, and read probabilities off the
//! coefficients of the resulting polynomial. [`genfunc_eval`] implements that
//! evaluation on top of `cpdb-genfunc` (world-size distributions, membership
//! counts), and [`batch`] computes the statistics the consensus algorithms
//! need — rank distributions `Pr(r(t) = i)`, pairwise order probabilities
//! `Pr(r(t_i) < r(t_j))`, and co-clustering weights — for *all* tuples/pairs
//! at once in shared sweeps (the path behind `TopKContext`, the Kendall
//! answers, and co-clustering weights), with optional `std::thread`
//! parallelism via `cpdb_parallel`. The one-sweep-per-tuple forms of the
//! same statistics are test oracles and live in `cpdb_testkit`.
//!
//! [`figure1`] reconstructs the paper's Figure 1 examples exactly and is used
//! by the `figure1` experiment to reproduce the published generating
//! functions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod convert;
pub mod figure1;
pub mod genfunc_eval;
pub mod mutate;
pub mod serial;
pub mod tree;
pub mod worlds;

pub use genfunc_eval::VarAssignment;
pub use mutate::{DeltaImpact, TreeDelta};
pub use serial::{RawDelta, RawNode, RawTree};
pub use tree::{AndXorTree, AndXorTreeBuilder, NodeId, NodeKind};
