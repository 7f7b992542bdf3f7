//! Per-layer attribution shared by the workloads: timing the public
//! artifact builders, and folding spans, cache counters and `cpdb_obs`
//! histograms into the artifact and answer metrics.

use crate::stats::median;
use crate::trace::Tracer;
use crate::{inputs, Metrics};
use cpdb_engine::{CacheStats, ConsensusEngine, MetricsSnapshot};

/// Artifact families, named as the engine's `engine.artifact.*` histograms.
pub const ARTIFACTS: [&str; 6] = [
    "rank_context",
    "kendall_pool",
    "preference_matrix",
    "coclustering",
    "marginals",
    "key_index",
];

/// `(builds, hits)` of a family in `CacheStats`; the Kendall pool has no
/// counters there (its builds come from the obs histogram count).
fn counts(s: &CacheStats, family: &str) -> Option<(usize, usize)> {
    match family {
        "rank_context" => Some((s.rank_context_builds, s.rank_context_hits)),
        "preference_matrix" => Some((s.preference_builds, s.preference_hits)),
        "coclustering" => Some((s.coclustering_builds, s.coclustering_hits)),
        "marginals" => Some((s.marginal_builds, s.marginal_hits)),
        "key_index" => Some((s.key_index_builds, s.key_index_hits)),
        _ => None,
    }
}

/// `counts` summed over several engines.
fn total(stats: &[CacheStats], family: &str) -> Option<(usize, usize)> {
    stats.iter().try_fold((0, 0), |(b, h), s| {
        counts(s, family).map(|(sb, sh)| (b + sb, h + sh))
    })
}

fn builds(s: &CacheStats, family: &str) -> usize {
    counts(s, family).map_or(0, |(b, _)| b)
}

/// Calls one public artifact builder inside an `artifact.<family>` span;
/// a call that found the artifact built is renamed `artifact.hit`.
fn build_span(
    tracer: &mut Tracer,
    op: u64,
    parent: Option<usize>,
    engine: &ConsensusEngine,
    family: &'static str,
    call: impl FnOnce(&ConsensusEngine),
) {
    let before = builds(&engine.cache_stats(), family);
    let id = tracer.open(op, parent, "artifact", family);
    call(engine);
    tracer.close(id);
    if builds(&engine.cache_stats(), family) == before {
        tracer.relabel(id, "hit");
    }
}

/// Builds (or hits) the artifacts reads at `ks` need through the engine's
/// public builders — `context(k)`, `preference_matrix()`,
/// `coclustering_weights()` — so their time is attributed to the artifact
/// layer rather than to the first read that would build them.
pub fn prebuild(
    tracer: &mut Tracer,
    op: u64,
    parent: Option<usize>,
    engine: &ConsensusEngine,
    ks: &[usize],
) {
    for &k in ks {
        build_span(tracer, op, parent, engine, "rank_context", |e| {
            let _ = e.context(k);
        });
    }
    build_span(tracer, op, parent, engine, "preference_matrix", |e| {
        let _ = e.preference_matrix();
    });
    build_span(tracer, op, parent, engine, "coclustering", |e| {
        let _ = e.coclustering_weights();
    });
}

fn histogram_count(s: &MetricsSnapshot, family: &str) -> u64 {
    s.histogram(&format!("engine.artifact.{family}"))
        .map_or(0, |h| h.count)
}

/// `artifact.*`: builds and hit ratio over the traced phase (cache counters
/// of every served engine `before`/`after`, obs snapshots
/// `obs_before`/`obs_after`), and the
/// median build time — from the builder spans where the family has a
/// public builder, else from the engine's own build histogram.
pub fn artifact_metrics(
    m: &mut Metrics,
    tracer: &Tracer,
    (before, after): (&[CacheStats], &[CacheStats]),
    (obs_before, obs_after): (&MetricsSnapshot, &MetricsSnapshot),
) {
    let (mut hits, mut built) = (0usize, 0usize);
    for family in ARTIFACTS {
        let n = match (total(before, family), total(after, family)) {
            (Some((b0, h0)), Some((b1, h1))) => {
                hits += h1.saturating_sub(h0);
                built += b1.saturating_sub(b0);
                b1.saturating_sub(b0) as u64
            }
            _ => histogram_count(obs_after, family)
                .saturating_sub(histogram_count(obs_before, family)),
        };
        m.set(format!("artifact.{family}.builds"), n as f64);
        let spans = tracer.ms("artifact", family);
        let ms = if spans.is_empty() {
            obs_after
                .histogram(&format!("engine.artifact.{family}"))
                .map_or(0.0, |h| h.mean_ns() / 1e6)
        } else {
            median(&spans)
        };
        m.set(format!("artifact.{family}.build_ms"), ms);
    }
    let lookups = hits + built;
    m.set(
        "artifact.hit_ratio",
        if lookups == 0 {
            1.0
        } else {
            hits as f64 / lookups as f64
        },
    );
}

/// `answer.<family>.ms` (median span) and `.share` of `read_ms`.
pub fn answer_metrics(m: &mut Metrics, tracer: &Tracer, read_ms: f64) {
    for family in inputs::FAMILIES {
        let spans = tracer.ms("answer", family);
        m.set(format!("answer.{family}.ms"), median(&spans));
        let share = if read_ms > 0.0 {
            spans.iter().sum::<f64>() / read_ms
        } else {
            0.0
        };
        m.set(format!("answer.{family}.share"), share);
    }
}

/// `trace.overhead_pct`: how much slower the mean operation ran traced
/// than untraced, both at the reference host speed.
pub fn overhead_pct(untraced_mean_ms: f64, traced_mean_ms: f64) -> f64 {
    if untraced_mean_ms > 0.0 {
        (traced_mean_ms - untraced_mean_ms) / untraced_mean_ms * 100.0
    } else {
        0.0
    }
}
