//! Delta-aware artifact maintenance: the decision record produced when a
//! [`crate::ConsensusEngine`] absorbs a [`cpdb_andxor::TreeDelta`].
//!
//! [`crate::ConsensusEngine::apply_delta`] builds the next-epoch engine for
//! `cpdb_live`. For every artifact the current engine has *built* — the
//! rank context, the co-clustering weights, the marginal table — it decides
//! one of three fates based on the mutation's [`cpdb_andxor::DeltaImpact`]:
//!
//! * [`ArtifactDecision::Kept`] — the artifact's dependencies are untouched;
//!   the next engine `Arc`-shares it (the warm-`Clone` path).
//! * [`ArtifactDecision::Patched`] — only the affected keys' slice is
//!   recomputed (the `cpdb_andxor::batch` partial evaluators), bit-identical
//!   to a from-scratch rebuild at a fraction of the cost.
//! * [`ArtifactDecision::Invalidated`] — the dependencies are globally
//!   touched (e.g. rank PMFs after a probability change); the artifact is
//!   dropped and lazily rebuilt on demand.
//!
//! The per-apply decisions are returned as a [`DeltaReport`]; the running
//! totals land in [`crate::CacheStats`] (`delta_kept` / `delta_patched` /
//! `delta_invalidated`), proving selective invalidation under live traffic.

use cpdb_andxor::DeltaImpact;

/// The fate of one built artifact across a delta application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactDecision {
    /// Dependencies untouched: the next engine `Arc`-shares the artifact.
    Kept,
    /// Affected slice recomputed in place of a full rebuild (bit-identical
    /// to one).
    Patched,
    /// Globally invalidated: dropped, rebuilt lazily on first use.
    Invalidated,
}

/// The per-artifact decision record of one
/// [`crate::ConsensusEngine::apply_delta`] call. Only artifacts the source
/// engine had actually built appear; unbuilt slots carry no state to
/// maintain.
#[derive(Debug, Clone)]
pub struct DeltaReport {
    /// The dependency extract of the applied mutation.
    pub impact: DeltaImpact,
    /// `(artifact label, decision)` per built artifact, e.g.
    /// `("rank_context", Invalidated)`.
    pub decisions: Vec<(String, ArtifactDecision)>,
}

impl DeltaReport {
    pub(crate) fn new(impact: DeltaImpact) -> Self {
        DeltaReport {
            impact,
            decisions: Vec::new(),
        }
    }

    pub(crate) fn record(&mut self, label: impl Into<String>, decision: ArtifactDecision) {
        self.decisions.push((label.into(), decision));
    }

    fn count(&self, decision: ArtifactDecision) -> usize {
        self.decisions
            .iter()
            .filter(|(_, d)| *d == decision)
            .count()
    }

    /// Number of artifacts `Arc`-shared into the next epoch.
    pub fn kept(&self) -> usize {
        self.count(ArtifactDecision::Kept)
    }

    /// Number of artifacts selectively patched.
    pub fn patched(&self) -> usize {
        self.count(ArtifactDecision::Patched)
    }

    /// Number of artifacts dropped for lazy rebuild.
    pub fn invalidated(&self) -> usize {
        self.count(ArtifactDecision::Invalidated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn report_counts_by_decision() {
        let mut r = DeltaReport::new(DeltaImpact {
            affected_keys: BTreeSet::new(),
            probabilities_changed: true,
            values_changed: false,
            membership_changed: false,
            rank_order_preserved: false,
        });
        r.record("a", ArtifactDecision::Kept);
        r.record("b", ArtifactDecision::Patched);
        r.record("c", ArtifactDecision::Patched);
        r.record("d", ArtifactDecision::Invalidated);
        assert_eq!((r.kept(), r.patched(), r.invalidated()), (1, 2, 1));
    }
}
