//! Conformance-testing toolkit for the consensus-pdb workspace.
//!
//! The paper's value proposition is that each polynomial-time consensus
//! algorithm computes something *definitional*: the answer minimising the
//! expected distance to the answers of the possible worlds. That definition
//! is directly executable — exponentially — by enumerating worlds and
//! candidate answers. This crate packages:
//!
//! * [`fixtures`] — deterministic families of small probabilistic databases
//!   (tuple-independent, BID, group-by, clustering), sized so exhaustive
//!   enumeration stays cheap, parameterised by a single seed;
//! * [`conformance`] — an oracle runner that cross-checks every consensus
//!   algorithm (set symmetric-difference, Jaccard, Top-k under
//!   symmetric-difference / intersection / footrule / Kendall, group-by
//!   aggregates, and clustering) against brute-force enumeration;
//! * [`reference`](mod@reference) — slow literal implementations kept as oracles (the
//!   per-prefix `Poly2` Jaccard scan, the recursive median, the keyed
//!   KwikCluster, the sampled and enumerated Kendall distances);
//! * [`rank`] — the per-key generating-function forms of the rank,
//!   pairwise-order and co-clustering statistics the batch sweeps serve;
//! * [`pivot`] — the Kendall pivot (KwikSort over the exact pairwise-order
//!   tournament), full rankings and the exhaustive Kemeny optimum, reported
//!   beside the served Kendall answer;
//! * [`oracle`] — the brute-force expected-distance minimisers every check
//!   above and the experiments compare against.
//!
//! The root-level `tests/conformance_oracle.rs` suite sweeps these checks
//! over many seeds and is the repo's standing conformance gate: any future
//! refactor or optimisation of a consensus algorithm must keep it green.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod conformance;
pub mod fixtures;
pub mod observability;
pub mod oracle;
pub mod pivot;
pub mod rank;
pub mod reference;
pub mod replication;

// The unit tests of `cpdb_consensus` that check an algorithm against the
// oracle. They keep the module paths they had in that crate, and so their
// names.
#[cfg(test)]
mod jaccard;
#[cfg(test)]
mod set_distance;
#[cfg(test)]
mod topk;

/// Absolute tolerance used by all exact-equality conformance checks.
///
/// The algorithms and the oracles accumulate floating-point error through
/// different summation orders, so exact closed forms and brute-force
/// enumerations agree only up to rounding.
pub const TOL: f64 = 1e-9;
