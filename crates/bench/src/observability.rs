//! Observability workload: the `observability` suite of the `ledger` driver.
//!
//! Two questions the instrumentation layer must answer with numbers:
//!
//! * **What does an attached [`cpdb_obs::Obs`] sink cost on the hot query
//!   path?** Per query the engine pays exactly one
//!   [`span_with_events`](cpdb_obs::Obs::span_with_events) — two monotonic
//!   clock reads, one histogram record, and a start/finish event pair in
//!   the flight recorder. The workload times that bundle in a tight loop
//!   on an enabled sink and on a disabled sink (the branch the
//!   uninstrumented build also pays), and divides the *delta* by the
//!   measured per-query floor of an uninstrumented engine running the
//!   standard probe mix — the same four query kinds (consensus world,
//!   Top-k symmetric difference, footrule, Kendall) the testkit, the
//!   `cpdb_stat` binary, and the other ledger suites treat as the serving
//!   workload. The ledger's gate asserts the result stays
//!   within 2% of a mix query — the sink must be attachable in production
//!   without moving any number the other benches report. Two numbers are
//!   reported but never gated, for honesty about the construction: the
//!   end-to-end enabled-vs-disabled comparison (two engine instances
//!   drift by more than the bundle costs for reasons — allocator layout,
//!   cache colouring — that have nothing to do with the sink) and the
//!   worst-case ratio against the mix's *cheapest* kind (a warm cached
//!   Top-k is a single-digit-µs artifact copy, and a ~400 ns event pair
//!   is an honest ~10% of that — the flight recorder is priced for
//!   consensus queries, not for memcpys).
//!
//! * **What does introspection cost while serving?** [`Obs::snapshot`]
//!   clones every registered series under the registry lock,
//!   [`MetricsSnapshot::to_json`](cpdb_obs::MetricsSnapshot::to_json)
//!   renders it, and [`Obs::recent_events`](cpdb_obs::Obs::recent_events)
//!   copies the flight-recorder tail — all three are timed against a
//!   populated registry and a full ring, because `cpdb_stat` and the
//!   degraded-health dumps run them against exactly that.

use crate::sample::{time_ms, Sample};
use cpdb_engine::{ConsensusEngine, Query, SetMetric, TopKMetric, Variant};
use cpdb_obs::{EventKind, Obs};
use std::time::{Duration, Instant};

/// One query kind of the probe mix, measured on both sides.
pub struct MixQueryResult {
    /// The kind's histogram name suffix (`engine.query.*` notation).
    pub kind: &'static str,
    /// Microseconds per warm query, sink disabled.
    pub plain_us: Sample,
    /// The same with an enabled sink threaded through the engine, sampled
    /// op-interleaved with the plain side.
    pub instrumented_us: Sample,
}

/// The sink cost on the hot query path, and the per-query floor it is
/// gated against.
pub struct ObsOverheadResult {
    /// The probe mix, one entry per query kind.
    pub mix: Vec<MixQueryResult>,
    /// Tight-loop iterations behind each primitive timing.
    pub ops: usize,
    /// Nanoseconds per [`Counter::incr`](cpdb_obs::Counter::incr) on an
    /// enabled sink.
    pub counter_ns: f64,
    /// Nanoseconds per [`Histogram::record`](cpdb_obs::Histogram::record)
    /// on an enabled sink.
    pub histogram_ns: f64,
    /// Nanoseconds per flight-recorder event (formatted detail, ring at
    /// capacity so eviction is included).
    pub event_ns: f64,
    /// Nanoseconds per full per-query instrumentation bundle
    /// (`span_with_events` open + drop) on an enabled sink.
    pub enabled_span_ns: f64,
    /// The same calls on a disabled sink — the branch cost the
    /// uninstrumented build pays too, subtracted out of the gate.
    pub disabled_span_ns: f64,
}

impl ObsOverheadResult {
    /// What attaching the sink adds to one query, in nanoseconds:
    /// `enabled_span_ns - disabled_span_ns`, floored at zero.
    ///
    /// Measured on the span bundle in a tight loop because that is where
    /// a ~hundreds-of-nanoseconds cost is actually resolvable; comparing
    /// whole queries end-to-end would put two engine instances' run-to-run
    /// drift (several percent on virtualised hardware) in the numerator
    /// and swamp a 2% budget with noise.
    pub fn per_query_obs_ns(&self) -> f64 {
        (self.enabled_span_ns - self.disabled_span_ns).max(0.0)
    }

    /// Mean over the probe mix's kinds of each kind's interquartile-mean
    /// uninstrumented microseconds per query — the floor, and the
    /// denominator of [`overhead_pct`](Self::overhead_pct).
    pub fn plain_query_us(&self) -> f64 {
        self.mix.iter().map(|m| m.plain_us.iq_mean()).sum::<f64>() / self.mix.len().max(1) as f64
    }

    /// The mix's cheapest kind (interquartile mean, uninstrumented) — the
    /// denominator of the reported-but-not-gated
    /// [`worst_case_pct`](Self::worst_case_pct).
    pub fn min_plain_query_us(&self) -> f64 {
        self.mix
            .iter()
            .map(|m| m.plain_us.iq_mean())
            .fold(f64::INFINITY, f64::min)
    }

    /// The gated number: the sink's per-query cost as a percentage of one
    /// uninstrumented mix query — `per_query_obs_ns / plain_query_us`.
    pub fn overhead_pct(&self) -> f64 {
        self.per_query_obs_ns() / 1e3 / self.plain_query_us() * 100.0
    }

    /// The same cost against the mix's cheapest kind (a warm cached Top-k
    /// copy). Reported for honesty, never gated: the flight recorder's
    /// per-query event pair is priced for consensus queries.
    pub fn worst_case_pct(&self) -> f64 {
        self.per_query_obs_ns() / 1e3 / self.min_plain_query_us() * 100.0
    }
}

/// Introspection-path costs against a populated sink.
pub struct SnapshotCostResult {
    /// Registered metric series (counters + gauges + histograms).
    pub series: usize,
    /// Flight-recorder capacity, filled to the brim before timing.
    pub events: usize,
    /// Milliseconds per [`Obs::snapshot`].
    pub snapshot_ms: Sample,
    /// Milliseconds per
    /// [`MetricsSnapshot::to_json`](cpdb_obs::MetricsSnapshot::to_json).
    pub to_json_ms: Sample,
    /// Milliseconds per [`Obs::recent_events`](cpdb_obs::Obs::recent_events)
    /// copying the full ring.
    pub recent_events_ms: Sample,
}

/// Nanoseconds per iteration of `f`, timed over `ops` iterations.
fn ns_per_op(ops: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..ops {
        f(i);
    }
    start.elapsed().as_secs_f64() * 1e9 / ops.max(1) as f64
}

fn instrumented_engine(n: usize, seed: u64, obs: Obs) -> ConsensusEngine {
    cpdb_engine::ConsensusEngineBuilder::new(crate::update_throughput::live_tree(n, seed))
        .seed(seed)
        .obs(obs)
        .build()
        .expect("valid bench configuration")
}

/// The standard probe mix: the four warm query kinds every harness in the
/// repo (testkit conformance, `cpdb_stat`, the other ledger suites) treats as
/// the serving workload.
fn probe_mix() -> Vec<(&'static str, Query)> {
    vec![
        (
            "set.sym_diff",
            Query::SetConsensus {
                metric: SetMetric::SymmetricDifference,
                variant: Variant::Mean,
            },
        ),
        (
            "topk.sym_diff.mean",
            Query::TopK {
                k: 10,
                metric: TopKMetric::SymmetricDifference,
                variant: Variant::Mean,
            },
        ),
        (
            "topk.footrule",
            Query::TopK {
                k: 10,
                metric: TopKMetric::Footrule,
                variant: Variant::Mean,
            },
        ),
        (
            "topk.kendall",
            Query::TopK {
                k: 10,
                metric: TopKMetric::Kendall,
                variant: Variant::Mean,
            },
        ),
    ]
}

/// Measures the sink's hot-path cost for an `n`-block instance: the
/// end-to-end enabled-vs-disabled comparison per probe-mix kind
/// (op-interleaved, `queries × reps` samples per side per kind), then
/// each recording primitive and the full per-query span bundle in tight
/// loops of `ops` iterations.
pub fn measure_obs_overhead(n: usize, seed: u64, reps: usize, ops: usize) -> ObsOverheadResult {
    let obs = Obs::enabled();
    let plain = instrumented_engine(n, seed, Obs::disabled());
    let instrumented = instrumented_engine(n, seed, obs.clone());

    // End-to-end comparison per mix kind, op-interleaved so both sides
    // pass through every noise regime together. Context only — the gate
    // below is the delta/floor construction. The warm-up run doubles as
    // the bit-transparency spot check and leaves every sample in the
    // steady state: cached artifacts, recompute-and-rank only.
    const QUERIES: usize = 24;
    let queries = QUERIES * reps.max(1);
    let mut mix = Vec::new();
    for (kind, query) in probe_mix() {
        let warm_plain = plain.run(&query).expect("bench query is valid");
        let warm_instr = instrumented.run(&query).expect("bench query is valid");
        assert_eq!(
            warm_plain.value, warm_instr.value,
            "attaching the sink changed a {kind} answer"
        );
        let mut plain_samples = Vec::with_capacity(queries);
        let mut instr_samples = Vec::with_capacity(queries);
        for _ in 0..queries {
            let start = Instant::now();
            std::hint::black_box(plain.run(&query).expect("bench query is valid"));
            plain_samples.push(start.elapsed().as_secs_f64() * 1e6);
            let start = Instant::now();
            std::hint::black_box(instrumented.run(&query).expect("bench query is valid"));
            instr_samples.push(start.elapsed().as_secs_f64() * 1e6);
        }
        mix.push(MixQueryResult {
            kind,
            plain_us: Sample::new(plain_samples),
            instrumented_us: Sample::new(instr_samples),
        });
    }

    // The recording primitives, each in its own tight loop on the enabled
    // sink. The event loop keeps the ring at capacity, so the cost of
    // evicting the oldest event is part of the number.
    let counter = obs.counter("bench.obs.counter");
    let counter_ns = ns_per_op(ops, |i| counter.add((i & 1) as u64));
    let histogram = obs.histogram("bench.obs.histogram");
    let histogram_ns = ns_per_op(ops, |i| {
        histogram.record(Duration::from_nanos((i & 0xFFFF) as u64));
    });
    let event_ns = ns_per_op(ops, |i| {
        obs.event_with(EventKind::WalAppend, || format!("bench event {i}"));
    });

    // The full per-query bundle: what ConsensusEngine::run pays per call
    // when a sink is attached (enabled side) and when none is (disabled
    // side — the same code path the "plain" engine above runs).
    let span_hist = obs.histogram("bench.obs.span");
    let enabled_span_ns = ns_per_op(ops, |i| {
        let _span = obs.span_with_events(
            &span_hist,
            EventKind::QueryStart,
            EventKind::QueryFinish,
            || format!("bench query {i}"),
        );
    });
    let disabled = Obs::disabled();
    let disabled_hist = disabled.histogram("bench.obs.span");
    let disabled_span_ns = ns_per_op(ops, |i| {
        let _span = disabled.span_with_events(
            &disabled_hist,
            EventKind::QueryStart,
            EventKind::QueryFinish,
            || format!("bench query {i}"),
        );
    });

    ObsOverheadResult {
        mix,
        ops,
        counter_ns,
        histogram_ns,
        event_ns,
        enabled_span_ns,
        disabled_span_ns,
    }
}

/// Times the introspection path against a sink with `series` registered
/// metrics and a flight recorder of `events` capacity filled to the brim:
/// [`Obs::snapshot`], `to_json` on the result, and the full-ring
/// [`Obs::recent_events`](cpdb_obs::Obs::recent_events) copy, each sampled
/// over `reps × 8` calls.
pub fn measure_snapshot_cost(series: usize, events: usize, reps: usize) -> SnapshotCostResult {
    let obs = Obs::with_event_capacity(events.max(1));
    for i in 0..series {
        match i % 3 {
            0 => obs
                .counter(&format!("bench.series.{i:04}.count"))
                .add(i as u64),
            1 => obs
                .gauge(&format!("bench.series.{i:04}.gauge"))
                .set(i as u64),
            _ => {
                let h = obs.histogram(&format!("bench.series.{i:04}.lat"));
                for us in [3u64, 30, 300] {
                    h.record(Duration::from_micros(us + i as u64));
                }
            }
        }
    }
    for i in 0..events.max(1) {
        obs.event(EventKind::EpochPublish, format!("epoch {i}"));
    }

    let calls = reps.max(1) * 8;
    let snapshot_ms = time_ms(calls, || obs.snapshot());
    let snapshot = obs.snapshot();
    let to_json_ms = time_ms(calls, || snapshot.to_json());
    let recent_events_ms = time_ms(calls, || obs.recent_events(events.max(1)));

    SnapshotCostResult {
        series,
        events: events.max(1),
        snapshot_ms,
        to_json_ms,
        recent_events_ms,
    }
}
