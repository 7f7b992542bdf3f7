//! Consensus Top-k answers (§5 of the paper).
//!
//! A Top-k query returns, for each possible world, the `k` tuples with the
//! highest score. The consensus answer is the Top-k list minimising the
//! expected distance to the random world's answer, under one of the distance
//! measures of Fagin et al. (implemented in `cpdb-rankagg`):
//!
//! | sub-module | metric | algorithm | guarantee |
//! |---|---|---|---|
//! | [`sym_diff`] | normalised symmetric difference `d_Δ` | top-k by `Pr(r(t) ≤ k)` (the PT-k connection, Theorem 3) | exact mean |
//! | [`median_dp`] | `d_Δ` restricted to possible answers | one descending threshold sweep of a (max, +) tree DP (Theorem 4) | exact median |
//! | [`intersection`] | intersection metric `d_I` | assignment problem; `Υ_H` ranking shortcut | exact mean; `1/H_k` approx |
//! | [`footrule`] | Spearman footrule `F^{(k+1)}` | assignment problem (Figure 2 decomposition) | exact mean |
//! | [`kendall`] | Kendall tau `K^{(0)}` | footrule answer (2-approx) and pivot aggregation over `Pr(r(t_i) < r(t_j))` | constant approx (NP-hard exactly) |
//!
//! All of them consume a [`context::TopKContext`], which precomputes the rank
//! distributions `Pr(r(t) = i)` for `i ≤ k` from the and/xor tree once.

pub mod context;
pub mod footrule;
pub mod intersection;
pub mod kendall;
pub mod median_dp;
pub mod sym_diff;

pub use context::{RankRow, TopKContext};
