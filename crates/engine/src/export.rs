//! Plain-data export/import of an engine's configuration and built
//! artifacts — the seam the `cpdb_store` snapshot format encodes.
//!
//! [`EngineExport`] captures everything needed to reconstruct a
//! [`crate::ConsensusEngine`] that answers **bit-identically** to the
//! exporting engine without rebuilding its expensive artifacts:
//!
//! * the flattened and/xor tree ([`cpdb_andxor::RawTree`]);
//! * every configuration knob (seed, k-range, thread count, the optional
//!   group-by matrix);
//! * every artifact the engine had actually *built* at export time: the one
//!   rank-PMF context (built at the largest `k` the engine has served; its
//!   column prefixes serve every smaller `k`), the co-clustering weights (a
//!   bare `f64` table over the tree's sorted keys), and the marginal table (a bare `f64` array over the tree's sorted
//!   alternatives). No artifact repeats a key or an alternative, so import
//!   checks only their lengths. Unbuilt artifacts are simply absent and
//!   rebuilt lazily after import — the ordinary cold path, still
//!   bit-identical because every builder is deterministic. The Jaccard
//!   candidate list, a cheap derivation of the marginal table, is not
//!   cached and so not exported.
//!
//! All `f64`s round-trip exactly (the export holds the same bits; encoders
//! preserve them via [`f64::to_bits`]). Import re-validates the tree and the
//! configuration through the ordinary constructors, so corrupt data surfaces
//! as typed errors rather than invalid engines.

use cpdb_andxor::RawTree;

/// The exported rank-PMF context: the raw `Pr(r(t) = i)` table the resident
/// context was built from (everything else it caches derives from it
/// deterministically), over the tree's sorted tuple keys (which the export
/// does not repeat).
#[derive(Debug, Clone, PartialEq)]
pub struct RankContextExport {
    /// The `k` the context was built at: the largest the engine has served.
    pub k: usize,
    /// Row-major `n × k` table, one row per sorted key:
    /// `rows[p·k + i − 1] = Pr(r(t_p) = i)`.
    pub rows: Vec<f64>,
}

/// The exported co-clustering weight matrix, over the tree's sorted tuple
/// keys (which the export does not repeat).
#[derive(Debug, Clone, PartialEq)]
pub struct CoClusterExport {
    /// The strict upper triangle, row by row: for `n` keys, `n(n − 1)/2`
    /// entries, row `i` holding `w_ij` for `j > i` (the matrix is symmetric
    /// with a unit diagonal, so this is all of it).
    pub weights: Vec<f64>,
}

/// A complete, plain-data image of a [`crate::ConsensusEngine`]:
/// configuration plus built artifacts. Produced by
/// [`crate::ConsensusEngine::export`], consumed by
/// [`crate::ConsensusEngine::from_export`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineExport {
    /// The flattened and/xor tree.
    pub tree: RawTree,
    /// Engine seed for every randomised path.
    pub seed: u64,
    /// Admissible `(lo, hi)` Top-k range.
    pub k_range: (usize, usize),
    /// Thread count for artifact builds and batch dispatch (`0` = auto).
    pub threads: usize,
    /// The group-by probability matrix, if an instance is attached.
    pub groupby: Option<Vec<Vec<f64>>>,
    /// The built rank context, if any.
    pub context: Option<RankContextExport>,
    /// The built co-clustering weights, if any.
    pub cocluster: Option<CoClusterExport>,
    /// The built marginal table: one probability per tree alternative, in
    /// the order of [`cpdb_andxor::AndXorTree::alternatives`] (sorted by
    /// `(key, value)`), which the export does not repeat.
    pub marginals: Option<Vec<f64>>,
}
