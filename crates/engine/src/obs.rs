//! The engine's observability bundle: handles pre-registered against a
//! [`cpdb_obs::Obs`] sink at attach time, so the hot query path records
//! latency and events without any name lookup — and pays one `Option`
//! branch per record when no sink is attached.

use crate::query::{Query, SetMetric, TopKMetric, Variant};
use cpdb_obs::{EventKind, Histogram, Obs, Span};

/// Pre-registered engine metrics: one latency histogram per [`Query`] kind
/// (set consensus split per metric, Top-k per metric family with the
/// symmetric difference split into mean and median) plus one build-latency
/// histogram per shared artifact. Cloning shares the underlying handles, so
/// a cloned or delta-built engine keeps recording into the same sink.
#[derive(Debug, Clone, Default)]
pub(crate) struct EngineObs {
    obs: Obs,
    query_set_sym_diff: Histogram,
    query_set_jaccard: Histogram,
    query_topk_sym_diff_mean: Histogram,
    query_topk_sym_diff_median: Histogram,
    query_topk_intersection: Histogram,
    query_topk_footrule: Histogram,
    query_topk_kendall: Histogram,
    query_aggregate: Histogram,
    query_clustering: Histogram,
    query_baseline: Histogram,
    artifact_rank_context: Histogram,
    artifact_cocluster: Histogram,
    artifact_marginals: Histogram,
}

impl EngineObs {
    pub(crate) fn new(obs: Obs) -> Self {
        EngineObs {
            query_set_sym_diff: obs.histogram("engine.query.set.sym_diff"),
            query_set_jaccard: obs.histogram("engine.query.set.jaccard"),
            query_topk_sym_diff_mean: obs.histogram("engine.query.topk.sym_diff.mean"),
            query_topk_sym_diff_median: obs.histogram("engine.query.topk.sym_diff.median"),
            query_topk_intersection: obs.histogram("engine.query.topk.intersection"),
            query_topk_footrule: obs.histogram("engine.query.topk.footrule"),
            query_topk_kendall: obs.histogram("engine.query.topk.kendall"),
            query_aggregate: obs.histogram("engine.query.aggregate"),
            query_clustering: obs.histogram("engine.query.clustering"),
            query_baseline: obs.histogram("engine.query.baseline"),
            artifact_rank_context: obs.histogram("engine.artifact.rank_context"),
            artifact_cocluster: obs.histogram("engine.artifact.coclustering"),
            artifact_marginals: obs.histogram("engine.artifact.marginals"),
            obs,
        }
    }

    /// The underlying sink handle.
    pub(crate) fn sink(&self) -> &Obs {
        &self.obs
    }

    /// A span timing one query into its kind's histogram, leaving
    /// query-start/finish events in the flight recorder.
    pub(crate) fn query_span(&self, query: &Query) -> Span {
        let histogram = match query {
            Query::SetConsensus {
                metric: SetMetric::SymmetricDifference,
                ..
            } => &self.query_set_sym_diff,
            Query::SetConsensus {
                metric: SetMetric::Jaccard,
                ..
            } => &self.query_set_jaccard,
            Query::TopK {
                metric: TopKMetric::SymmetricDifference,
                variant: Variant::Mean,
                ..
            } => &self.query_topk_sym_diff_mean,
            Query::TopK {
                metric: TopKMetric::SymmetricDifference,
                variant: Variant::Median,
                ..
            } => &self.query_topk_sym_diff_median,
            Query::TopK {
                metric: TopKMetric::Intersection,
                ..
            } => &self.query_topk_intersection,
            Query::TopK {
                metric: TopKMetric::Footrule,
                ..
            } => &self.query_topk_footrule,
            Query::TopK {
                metric: TopKMetric::Kendall,
                ..
            } => &self.query_topk_kendall,
            Query::Aggregate { .. } => &self.query_aggregate,
            Query::Clustering { .. } => &self.query_clustering,
            Query::Baseline { .. } => &self.query_baseline,
        };
        self.obs.span_with_events(
            histogram,
            EventKind::QueryStart,
            EventKind::QueryFinish,
            || format!("{query:?}"),
        )
    }

    /// A span timing one artifact build, leaving an artifact-build event
    /// carrying `label` and the build duration.
    pub(crate) fn artifact_span(&self, artifact: Artifact, label: impl FnOnce() -> String) -> Span {
        let histogram = match artifact {
            Artifact::RankContext => &self.artifact_rank_context,
            Artifact::CoClustering => &self.artifact_cocluster,
            Artifact::Marginals => &self.artifact_marginals,
        };
        self.obs
            .span_finishing(histogram, EventKind::ArtifactBuild, label)
    }
}

/// Which shared artifact a build span times (maps to the per-artifact
/// latency histograms — the cache-amortised dominant cost of the paper's
/// consensus-query evaluation).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Artifact {
    RankContext,
    CoClustering,
    Marginals,
}
