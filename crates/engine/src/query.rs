//! The typed query language of the engine.
//!
//! Every consensus notion of the paper — and every previously proposed
//! ranking semantics implemented as a baseline — is one value of [`Query`],
//! so a single `run` entry point covers the whole repertoire and batches of
//! heterogeneous queries can share cached artifacts.

/// Mean vs. median consensus (§2 of the paper): the *mean* answer minimises
/// the expected distance over the whole answer space, the *median* answer
/// over answers attainable in some possible world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Minimise over every syntactically valid answer.
    Mean,
    /// Minimise over answers of possible worlds only.
    Median,
}

/// Distance metric for set (full-relation) consensus queries (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetMetric {
    /// Symmetric difference `|S₁ Δ S₂|` (Theorem 2 / Corollary 1).
    SymmetricDifference,
    /// Jaccard distance `|S₁ Δ S₂| / |S₁ ∪ S₂|` (Lemmas 1–2).
    Jaccard,
}

/// Distance metric for Top-k consensus queries (§5, after Fagin et al.).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopKMetric {
    /// Normalised symmetric difference `d_Δ` — membership only (Theorems 3–4).
    SymmetricDifference,
    /// Intersection metric `d_I` — prefix-aware (§5.3). Served exactly by
    /// the assignment formulation (Hungarian algorithm).
    Intersection,
    /// Spearman footrule `F^{(k+1)}` — position-aware (§5.4 / Figure 2).
    Footrule,
    /// Kendall tau `K^{(0)}` — pairwise-order-aware; NP-hard exactly, served
    /// by a 2-approximation (§5.5): local search on the exact `E[d_K]` from
    /// the footrule answer, over a pool of the `3k` likeliest keys.
    Kendall,
}

/// Previously proposed ranking semantics (§2 / intro), served as baselines so
/// consensus answers can be compared against them through the same API.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum BaselineKind {
    /// Rank by `E[score(t) · present(t)]`.
    ExpectedScore {
        /// Result size.
        k: usize,
    },
    /// Expected rank (Cormode, Li & Yi), Monte-Carlo estimated.
    ExpectedRank {
        /// Result size.
        k: usize,
        /// Number of sampled worlds.
        samples: usize,
    },
    /// U-Top-k (Soliman et al.), Monte-Carlo estimated.
    UTopK {
        /// Result size.
        k: usize,
        /// Number of sampled worlds.
        samples: usize,
    },
    /// U-Top-k by exhaustive world enumeration (small trees only).
    UTopKExact {
        /// Result size.
        k: usize,
    },
    /// Global Top-k (Zhang & Chomicki) — identical membership to the `d_Δ`
    /// consensus answer, which is the connection the paper points out.
    GlobalTopK {
        /// Result size.
        k: usize,
    },
    /// Probabilistic-threshold Top-k (Hua et al.): every tuple with
    /// `Pr(r(t) ≤ k) ≥ threshold`.
    ProbabilisticThreshold {
        /// Rank horizon.
        k: usize,
        /// Inclusion threshold on `Pr(r(t) ≤ k)`.
        threshold: f64,
    },
}

/// One consensus (or baseline) question, ready to be answered by
/// [`crate::ConsensusEngine::run`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Query {
    /// Consensus possible world for the full relation (§4).
    SetConsensus {
        /// Distance metric on answer sets.
        metric: SetMetric,
        /// Mean or median consensus.
        variant: Variant,
    },
    /// Consensus Top-k answer (§5).
    TopK {
        /// Result size.
        k: usize,
        /// Distance metric on Top-k lists.
        metric: TopKMetric,
        /// Mean or median consensus. Only the symmetric-difference metric has
        /// a known polynomial median algorithm (Theorem 4); other metrics
        /// reject `Median` with [`crate::EngineError::Unsupported`].
        variant: Variant,
    },
    /// Consensus group-by count vector (§6.1). Needs a group-by instance
    /// attached via [`crate::ConsensusEngineBuilder::groupby`].
    Aggregate {
        /// Mean (expected counts) or median (closest possible vector,
        /// 4-approximation by Corollary 2).
        variant: Variant,
    },
    /// Consensus clustering (§6.2) via best-of-`restarts` KwikCluster.
    Clustering {
        /// Number of randomised pivot restarts to take the best of.
        restarts: usize,
    },
    /// A previously proposed ranking semantics, for comparison.
    Baseline {
        /// Which baseline.
        kind: BaselineKind,
    },
}

/// SplitMix64 — the standard 64-bit finaliser used to derive per-query RNG
/// streams from the engine seed.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix(h: u64, v: u64) -> u64 {
    splitmix64(h.rotate_left(17) ^ v)
}

impl BaselineKind {
    /// The result size `k` of the baseline — every baseline has one, so it
    /// lives here rather than being pattern-matched by each caller.
    pub fn k(&self) -> usize {
        match self {
            BaselineKind::ExpectedScore { k }
            | BaselineKind::ExpectedRank { k, .. }
            | BaselineKind::UTopK { k, .. }
            | BaselineKind::UTopKExact { k }
            | BaselineKind::GlobalTopK { k }
            | BaselineKind::ProbabilisticThreshold { k, .. } => *k,
        }
    }
}

impl Query {
    /// A stable 64-bit tag of the query's kind and parameters, used (together
    /// with the engine seed) to derive the RNG stream for its randomised
    /// parts. Distinct queries get distinct streams, and the same query is
    /// answered identically regardless of where it appears in a batch.
    pub fn rng_tag(&self) -> u64 {
        match self {
            Query::SetConsensus { metric, variant } => mix(mix(1, *metric as u64), *variant as u64),
            Query::TopK { k, metric, variant } => {
                mix(mix(mix(2, *k as u64), *metric as u64), *variant as u64)
            }
            Query::Aggregate { variant } => mix(3, *variant as u64),
            Query::Clustering { restarts } => mix(4, *restarts as u64),
            Query::Baseline { kind } => match kind {
                BaselineKind::ExpectedScore { k } => mix(mix(5, 0), *k as u64),
                BaselineKind::ExpectedRank { k, samples } => {
                    mix(mix(mix(5, 1), *k as u64), *samples as u64)
                }
                BaselineKind::UTopK { k, samples } => {
                    mix(mix(mix(5, 2), *k as u64), *samples as u64)
                }
                BaselineKind::UTopKExact { k } => mix(mix(5, 3), *k as u64),
                BaselineKind::GlobalTopK { k } => mix(mix(5, 4), *k as u64),
                BaselineKind::ProbabilisticThreshold { k, threshold } => {
                    mix(mix(mix(5, 5), *k as u64), threshold.to_bits())
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_tags_distinguish_queries() {
        let queries = [
            Query::SetConsensus {
                metric: SetMetric::SymmetricDifference,
                variant: Variant::Mean,
            },
            Query::SetConsensus {
                metric: SetMetric::Jaccard,
                variant: Variant::Mean,
            },
            Query::TopK {
                k: 2,
                metric: TopKMetric::Kendall,
                variant: Variant::Mean,
            },
            Query::TopK {
                k: 3,
                metric: TopKMetric::Kendall,
                variant: Variant::Mean,
            },
            Query::Clustering { restarts: 8 },
            Query::Clustering { restarts: 9 },
            Query::Baseline {
                kind: BaselineKind::UTopK { k: 2, samples: 10 },
            },
            Query::Baseline {
                kind: BaselineKind::ExpectedRank { k: 2, samples: 10 },
            },
        ];
        for (i, a) in queries.iter().enumerate() {
            for b in queries.iter().skip(i + 1) {
                assert_ne!(a.rng_tag(), b.rng_tag(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn rng_tags_are_stable_across_clones() {
        let q = Query::TopK {
            k: 5,
            metric: TopKMetric::Footrule,
            variant: Variant::Mean,
        };
        assert_eq!(q.rng_tag(), q.clone().rng_tag());
    }
}
