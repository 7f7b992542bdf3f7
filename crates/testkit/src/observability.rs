//! Observability conformance: the instrumentation must be *transparent*
//! (bit-identical answers with the sink on or off), *conserved* (the
//! unified snapshot agrees with the layer surfaces it folds in, and every
//! recorded build/query left exactly one trace), and *honest about health*
//! (degraded/recovered transitions land in the flight recorder under a
//! chaos fault schedule).
//!
//! Three checks, summed into [`check_observability`] and run on every
//! conformance seed by [`crate::conformance::run_seed`]:
//!
//! * **Bit-transparency** — the identical delta/probe workload runs once
//!   with a live sink threaded through engine, store, and live layers and
//!   once fully disabled; every answer at every epoch must be
//!   bit-identical.
//! * **Counter conservation** — on the instrumented run, the
//!   `engine.cache.*` entries of the unified snapshot equal the
//!   [`CacheStats`](cpdb_engine::CacheStats) surface they fold in; each
//!   artifact's build counter equals its build-latency histogram count;
//!   query-latency histogram counts sum to the queries issued; the
//!   `live.apply.deltas` counter equals the deltas issued, single and
//!   batched, while `live.apply` takes one sample per call; and the
//!   flight recorder holds matching query start/finish event counts.
//! * **Health transitions** — one permanent-outage fault schedule drives
//!   the engine into degraded mode and back; the flight recorder must show
//!   the `Degraded` event (and `Recovered` after the outage ends) without
//!   perturbing the served answers.

use crate::conformance::{live_probe, random_live_delta, random_live_run};
use cpdb_andxor::AndXorTree;
use cpdb_engine::{
    Answer, ConsensusEngine, ConsensusEngineBuilder, EngineError, Query, SetMetric, TopKMetric,
    Variant,
};
use cpdb_live::LiveEngine;
use cpdb_obs::{EventKind, MetricsSnapshot, Obs};
use cpdb_store::{FaultVfs, RetryPolicy, StoreOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Single deltas applied per run (each publishing one epoch).
const STEPS: usize = 3;
/// Deltas of the one `apply_all` batch that ends each run (one publish).
const BATCH: usize = 2;
const DIR: &str = "/obs/store";
/// Large enough that no event of the workload is evicted, so event counts
/// can be compared exactly.
const EVENT_CAPACITY: usize = 1 << 14;

fn build_engine(tree: &AndXorTree, seed: u64, obs: Obs) -> ConsensusEngine {
    let n = tree.keys().len();
    ConsensusEngineBuilder::new(tree.clone())
        .seed(seed)
        .k_range(1..=n.max(1))
        .obs(obs)
        .build()
        .expect("observability conformance configuration is valid")
}

fn options(vfs: &FaultVfs, obs: Obs) -> StoreOptions {
    StoreOptions {
        vfs: Arc::new(vfs.clone()),
        retry: RetryPolicy::no_delay(3),
        obs,
    }
}

fn is_jaccard(query: &Query) -> bool {
    matches!(
        query,
        Query::SetConsensus {
            metric: SetMetric::Jaccard,
            ..
        }
    )
}

fn is_median_topk(query: &Query) -> bool {
    matches!(
        query,
        Query::TopK {
            metric: TopKMetric::SymmetricDifference,
            variant: Variant::Median,
            ..
        }
    )
}

/// One fully instrumented (or fully uninstrumented) run of the standard
/// delta workload: per-epoch probe answers plus the finished engine.
struct Run {
    answers: Vec<Vec<Result<Answer, EngineError>>>,
    live: LiveEngine,
    queries_issued: u64,
    /// The Jaccard set queries among them, which time into their own
    /// histogram.
    jaccard_issued: u64,
    /// The median Top-k queries among them, likewise.
    median_issued: u64,
}

fn run_workload(tree: &AndXorTree, seed: u64, probe: &[Query], obs: &Obs) -> Run {
    let vfs = FaultVfs::new();
    let live = LiveEngine::new_durable_with(
        build_engine(tree, seed, obs.clone()),
        Path::new(DIR),
        options(&vfs, obs.clone()),
    )
    .expect("fresh in-memory store is creatable");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0B5E_55ED);
    let mut answers = vec![live.snapshot().run_batch_serial(probe)];
    for step in 0..STEPS {
        let delta = random_live_delta(live.snapshot().tree(), step, &mut rng);
        live.apply(&delta).expect("generated deltas are valid");
        answers.push(live.snapshot().run_batch_serial(probe));
    }
    let batch = random_live_run(live.snapshot().tree(), STEPS..STEPS + BATCH, &mut rng);
    live.apply_all(&batch).expect("generated deltas are valid");
    answers.push(live.snapshot().run_batch_serial(probe));
    // Probed at epoch 0, after each single delta, and after the batch.
    let probed = STEPS + 2;
    Run {
        answers,
        live,
        queries_issued: (probed * probe.len()) as u64,
        jaccard_issued: (probed * probe.iter().filter(|q| is_jaccard(q)).count()) as u64,
        median_issued: (probed * probe.iter().filter(|q| is_median_topk(q)).count()) as u64,
    }
}

/// Instrumentation must not change a single bit of any answer: the same
/// workload with the sink attached and detached, compared epoch-for-epoch.
fn check_bit_transparency(instrumented: &Run, plain: &Run) -> usize {
    assert_eq!(
        instrumented.answers, plain.answers,
        "attaching the observability sink changed an answer"
    );
    assert!(
        plain.live.obs().snapshot().is_empty(),
        "a disabled sink registered metrics"
    );
    2
}

/// The histogram count for `engine.artifact.<name>` must equal the build
/// counter folded in from [`cpdb_engine::CacheStats`]: every build was
/// spanned exactly once.
fn assert_builds_spanned(snapshot: &MetricsSnapshot, artifact: &str, counter: &str) {
    let hist = snapshot
        .histogram(&format!("engine.artifact.{artifact}"))
        .unwrap_or_else(|| panic!("engine.artifact.{artifact} is not registered"));
    let builds = snapshot
        .counter(&format!("engine.cache.{counter}"))
        .unwrap_or_else(|| panic!("engine.cache.{counter} was not folded in"));
    assert_eq!(
        hist.count, builds,
        "engine.artifact.{artifact} recorded {} spans for {builds} builds",
        hist.count
    );
}

/// The unified snapshot must agree with the layer surfaces it folds in,
/// and every query/build must leave exactly one trace.
fn check_counter_conservation(run: &Run, obs: &Obs) -> usize {
    let snapshot = run.live.metrics_snapshot();
    let stats = run.live.snapshot().engine().cache_stats();
    let mut checks = 0;

    // The folded engine.cache.* counters mirror the CacheStats surface.
    for (name, value) in [
        ("rank_context_builds", stats.rank_context_builds),
        ("rank_context_hits", stats.rank_context_hits),
        ("coclustering_builds", stats.coclustering_builds),
        ("coclustering_hits", stats.coclustering_hits),
        ("marginal_builds", stats.marginal_builds),
        ("marginal_hits", stats.marginal_hits),
    ] {
        assert_eq!(
            snapshot.counter(&format!("engine.cache.{name}")),
            Some(value as u64),
            "unified snapshot disagrees with CacheStats on {name}"
        );
        checks += 1;
    }

    // Every from-scratch build recorded exactly one latency span.
    for (artifact, counter) in [
        ("rank_context", "rank_context_builds"),
        ("coclustering", "coclustering_builds"),
        ("marginals", "marginal_builds"),
    ] {
        assert_builds_spanned(&snapshot, artifact, counter);
        checks += 1;
    }

    // Every query recorded exactly one latency sample, whatever its kind.
    let recorded: u64 = [
        "set.sym_diff",
        "set.jaccard",
        "topk.sym_diff.mean",
        "topk.sym_diff.median",
        "topk.intersection",
        "topk.footrule",
        "topk.kendall",
        "aggregate",
        "clustering",
        "baseline",
    ]
    .iter()
    .map(|kind| {
        snapshot
            .histogram(&format!("engine.query.{kind}"))
            .unwrap_or_else(|| panic!("engine.query.{kind} is not pre-registered"))
            .count
    })
    .sum();
    assert_eq!(
        recorded, run.queries_issued,
        "query-latency histograms disagree with the number of queries issued"
    );
    assert_eq!(
        snapshot
            .histogram("engine.query.set.jaccard")
            .map(|h| h.count),
        Some(run.jaccard_issued),
        "Jaccard set queries must time into their own histogram"
    );
    assert_eq!(
        snapshot
            .histogram("engine.query.topk.sym_diff.median")
            .map(|h| h.count),
        Some(run.median_issued),
        "median Top-k queries must time into their own histogram"
    );

    // ... and a matching start/finish event pair in the flight recorder.
    let events = obs.drain_events();
    assert!(
        obs.events_recorded() <= EVENT_CAPACITY as u64,
        "workload overflowed the flight recorder; event counts are unreliable"
    );
    let count = |kind: EventKind| events.iter().filter(|e| e.kind == kind).count() as u64;
    assert_eq!(count(EventKind::QueryStart), run.queries_issued);
    assert_eq!(count(EventKind::QueryFinish), run.queries_issued);
    assert_eq!(
        count(EventKind::EpochPublish),
        STEPS as u64 + 1,
        "each apply and each batch must publish exactly one epoch event"
    );
    assert_eq!(
        count(EventKind::WalAppend),
        STEPS as u64 + 1,
        "each apply and each batch must make exactly one WAL append"
    );
    assert_eq!(
        snapshot.counter("live.apply.deltas"),
        Some((STEPS + BATCH) as u64),
        "live.apply.deltas must count every delta issued, batched or not"
    );
    assert_eq!(
        snapshot.histogram("live.apply").map(|h| h.count),
        Some(STEPS as u64 + 1),
        "live.apply takes one sample per call"
    );

    // The live gauges folded from Health agree with the epoch reached.
    assert_eq!(snapshot.gauge("live.epoch"), Some((STEPS + BATCH) as u64));
    checks + 9
}

/// One chaos fault schedule: a permanent outage degrades the engine (the
/// transition lands in the flight recorder), clearing it recovers (ditto),
/// and the served answers never waver from the reference.
fn check_health_transitions(tree: &AndXorTree, seed: u64, probe: &[Query], plain: &Run) -> usize {
    let vfs = FaultVfs::new();
    let obs = Obs::with_event_capacity(EVENT_CAPACITY);
    let live = LiveEngine::new_durable_with(
        build_engine(tree, seed, obs.clone()),
        Path::new(DIR),
        options(&vfs, obs.clone()),
    )
    .expect("fresh in-memory store is creatable");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0B5E_55ED);
    let delta = random_live_delta(live.snapshot().tree(), 0, &mut rng);

    // Lights out: every filesystem operation fails until further notice.
    vfs.fail_at(vfs.op_count(), io::ErrorKind::StorageFull, true);
    let _ = obs.drain_events();
    assert!(
        live.apply(&delta).is_err(),
        "a write during a permanent outage was acknowledged"
    );
    let events = obs.drain_events();
    assert!(
        events.iter().any(|e| e.kind == EventKind::Degraded),
        "entering degraded mode left no flight-recorder event: {events:?}"
    );
    assert_eq!(
        live.snapshot().run_batch_serial(probe),
        plain.answers[0],
        "a degraded engine served different answers"
    );

    // The outage ends; recovery must leave its own trace.
    vfs.clear_faults();
    let health = live
        .try_recover()
        .expect("recovery succeeds once the outage ends");
    assert!(health.is_healthy(), "recovery left the engine degraded");
    let events = obs.drain_events();
    assert!(
        events.iter().any(|e| e.kind == EventKind::Recovered),
        "recovering left no flight-recorder event: {events:?}"
    );
    5
}

/// The full observability conformance suite for one seed. Returns the
/// number of assertions performed.
pub fn check_observability(tree: &AndXorTree, seed: u64) -> usize {
    let n = tree.keys().len();
    let probe = live_probe(&[1, 2.min(n.max(1))]);
    let obs = Obs::with_event_capacity(EVENT_CAPACITY);
    let instrumented = run_workload(tree, seed, &probe, &obs);
    let plain = run_workload(tree, seed, &probe, &Obs::disabled());
    let mut checks = check_bit_transparency(&instrumented, &plain);
    checks += check_counter_conservation(&instrumented, &obs);
    checks += check_health_transitions(tree, seed, &probe, &plain);
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn observability_conformance_holds_on_one_fixture() {
        let checks = check_observability(&fixtures::small_bid_tree(3), 3);
        assert!(checks > 20, "performed only {checks} checks");
    }
}
